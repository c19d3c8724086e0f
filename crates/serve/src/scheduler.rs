//! Admission control and weighted fair dispatch.
//!
//! One mutex guards all tenant queues; a condvar wakes workers when a
//! tenant becomes dispatchable. Three invariants live here:
//!
//! 1. **Admission is all-or-nothing.** A submission either lands in its
//!    tenant's queue (budget reserved, counters bumped) or is answered
//!    with a typed [`ServeError::Rejected`] — there is no state in
//!    between, so no admitted job can be lost at the door.
//! 2. **At most one in-flight job per tenant.** A tenant's next job is
//!    never dispatched while one of its jobs is running or awaiting
//!    requeue. This keeps per-tenant execution serial (sessions are
//!    single-writer; results must match a tenant-serial history) and
//!    makes the fair-share accounting meaningful.
//! 3. **Weights share *time*, not dispatch slots.** Dispatch is
//!    start-time fair queueing over weighted virtual time: each tenant
//!    carries a virtual finish tag advanced by `spent / weight` after
//!    every slice, and the ready tenant with the smallest start tag
//!    (`max(global clock, its finish tag)`) runs next. Counting
//!    dispatches instead would let a tenant whose slices run hundreds of
//!    milliseconds (a million-row join ramped up to `max_quantum`)
//!    take one "turn" per round yet consume almost all wall-clock time;
//!    charging elapsed time makes a turn's cost proportional to its
//!    length, so a noisy tenant gets its weight's share of *time* and
//!    interactive tenants' tail latency is bounded by one slice of the
//!    heaviest tenant. Idle tenants don't accrue credit (the start tag
//!    is clamped to the global clock), and the scheme is
//!    work-conserving: a lone ready tenant runs immediately no matter
//!    how much it has consumed before.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use dc_collab::SessionRef;
use dc_storage::ByteBudget;
use parking_lot::{Condvar, Mutex};

use crate::error::{RejectReason, ServeError};
use crate::job::Job;
use crate::tenant::{TenantConfig, TenantStats};

/// What a worker gets from [`Scheduler::next`]: the job plus the handles
/// it needs to run and then release it.
pub(crate) struct Dispatch {
    pub job: Job,
    pub session: SessionRef,
    /// Stable index of the tenant (registration order).
    pub tenant: usize,
}

/// How a dispatched job left the worker, for settlement and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobEnd {
    Completed,
    Failed,
    /// Answered `ShuttingDown` while the pool drained.
    Shed,
}

struct TenantEntry {
    name: String,
    config: TenantConfig,
    queue: VecDeque<Job>,
    /// A dispatched job of this tenant has not yet been released.
    in_flight: bool,
    session: SessionRef,
    budget: Option<ByteBudget>,
    stats: TenantStats,
    /// Weighted virtual time at which this tenant's last slice finished.
    vfinish: u64,
    /// Start tag of the in-flight slice (charged on preempt/release).
    vstart: u64,
}

impl TenantEntry {
    /// Advance the finish tag by the slice's wall time divided by the
    /// tenant's weight: heavier tenants pay less virtual time for the
    /// same real time, so they get a proportionally larger time share.
    fn charge(&mut self, spent: Duration) {
        let cost = (spent.as_micros() as u64 / u64::from(self.config.weight.max(1))).max(1);
        self.vfinish = self.vstart.saturating_add(cost);
    }
}

struct SchedState {
    tenants: Vec<TenantEntry>,
    by_name: HashMap<String, usize>,
    /// Global virtual clock: the start tag of the last dispatched slice.
    /// Monotone; clamping idle tenants' start tags to it denies credit
    /// for idle time.
    vclock: u64,
    /// Jobs sitting in queues (not in flight).
    queued: usize,
    shutdown: bool,
}

pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    work: Condvar,
    global_queue_limit: usize,
    workers: usize,
    /// Slice length used to phrase queue-full `retry_after` estimates.
    quantum_hint: Duration,
}

impl Scheduler {
    pub(crate) fn new(
        global_queue_limit: usize,
        workers: usize,
        quantum_hint: Duration,
    ) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                by_name: HashMap::new(),
                vclock: 0,
                queued: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            global_queue_limit,
            workers: workers.max(1),
            quantum_hint,
        }
    }

    pub(crate) fn register(
        &self,
        name: &str,
        config: TenantConfig,
        session: SessionRef,
    ) -> Result<(), ServeError> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if st.by_name.contains_key(name) {
            return Err(ServeError::BadRequest {
                message: format!("tenant {name:?} already registered"),
            });
        }
        let idx = st.tenants.len();
        let vclock = st.vclock;
        st.tenants.push(TenantEntry {
            name: name.to_string(),
            budget: config.budget.map(ByteBudget::new),
            config,
            queue: VecDeque::new(),
            in_flight: false,
            session,
            stats: TenantStats::default(),
            vfinish: vclock,
            vstart: vclock,
        });
        st.by_name.insert(name.to_string(), idx);
        Ok(())
    }

    /// Admit `job` into its tenant's queue or answer why not. The
    /// sequencing matters: global depth, then tenant depth, then budget —
    /// a budget reservation is only attempted for a job that would
    /// actually be queued, so a rejected job never holds tokens.
    pub(crate) fn admit(&self, job: Job) -> Result<(), ServeError> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let Some(&idx) = st.by_name.get(&job.tenant) else {
            return Err(ServeError::UnknownTenant {
                tenant: job.tenant.clone(),
            });
        };
        if st.queued >= self.global_queue_limit {
            // Rough drain estimate: the backlog split across the pool,
            // one slice each.
            let rounds = (st.queued / self.workers).max(1) as u32;
            st.tenants[idx].stats.rejected_queue += 1;
            return Err(ServeError::Rejected {
                tenant: job.tenant.clone(),
                reason: RejectReason::GlobalQueueFull,
                retry_after: Some(self.quantum_hint * rounds),
            });
        }
        let entry = &mut st.tenants[idx];
        if entry.queue.len() >= entry.config.queue_limit {
            entry.stats.rejected_queue += 1;
            return Err(ServeError::Rejected {
                tenant: job.tenant.clone(),
                reason: RejectReason::TenantQueueFull,
                retry_after: Some(self.quantum_hint * entry.queue.len().max(1) as u32),
            });
        }
        if let Some(budget) = &mut entry.budget {
            if !budget.try_reserve(job.reserved) {
                let retry_after = budget.retry_after(job.reserved);
                entry.stats.rejected_budget += 1;
                return Err(ServeError::Rejected {
                    tenant: job.tenant.clone(),
                    reason: RejectReason::BudgetExhausted,
                    retry_after,
                });
            }
        }
        entry.stats.admitted += 1;
        entry.stats.bytes_reserved += job.reserved;
        entry.queue.push_back(job);
        st.queued += 1;
        self.work.notify_one();
        Ok(())
    }

    /// Block until a job is dispatchable (or the service shuts down).
    pub(crate) fn next(&self) -> Option<Dispatch> {
        let mut st = self.state.lock();
        loop {
            if st.shutdown {
                return None;
            }
            if st.queued > 0 {
                // Pick the ready tenant with the smallest start tag. A
                // tenant that has been idle gets `vclock` (no banked
                // credit); a tenant that just burned a long slice sits at
                // its advanced finish tag until the clock catches up —
                // unless nothing else is ready, in which case it IS the
                // minimum and runs at once (work conservation).
                let vclock = st.vclock;
                let pick = st
                    .tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.in_flight && !t.queue.is_empty())
                    .map(|(idx, t)| (t.vfinish.max(vclock), idx))
                    .min();
                if let Some((tag, idx)) = pick {
                    st.vclock = tag;
                    let entry = &mut st.tenants[idx];
                    entry.vstart = tag;
                    entry.in_flight = true;
                    let job = entry.queue.pop_front().expect("ready tenant has a job");
                    let session = entry.session.clone();
                    st.queued -= 1;
                    return Some(Dispatch {
                        job,
                        session,
                        tenant: idx,
                    });
                }
            }
            self.work.wait(&mut st);
        }
    }

    /// Put a preempted job back at the *front* of its tenant's queue so
    /// it resumes before anything newer from the same tenant (per-tenant
    /// FIFO is what makes results match a serial history). Returns the
    /// job back if the service is draining — the caller answers it
    /// `ShuttingDown`.
    // The Err variant carries the whole Job back, but only on the cold
    // shutdown race; boxing it would cost an allocation per preemption
    // on the hot path signature.
    #[allow(clippy::result_large_err)]
    pub(crate) fn preempt(&self, tenant: usize, job: Job, spent: Duration) -> Result<(), Job> {
        let mut st = self.state.lock();
        let shutdown = st.shutdown;
        let entry = &mut st.tenants[tenant];
        entry.in_flight = false;
        entry.charge(spent);
        entry.stats.preemptions += 1;
        if shutdown {
            return Err(job);
        }
        entry.queue.push_front(job);
        st.queued += 1;
        // The tenant became dispatchable again; wake the pool.
        self.work.notify_all();
        Ok(())
    }

    /// Release a finished (answered) job: settle its budget reservation
    /// against what it actually charged, book stats, and make the tenant
    /// dispatchable again.
    pub(crate) fn release(
        &self,
        tenant: usize,
        reserved: u64,
        charged: u64,
        spilled: u64,
        spent: Duration,
        end: JobEnd,
    ) {
        let mut st = self.state.lock();
        let entry = &mut st.tenants[tenant];
        entry.in_flight = false;
        entry.charge(spent);
        if let Some(budget) = &mut entry.budget {
            budget.settle(reserved, charged);
        }
        entry.stats.bytes_charged += charged;
        entry.stats.bytes_spilled += spilled;
        match end {
            JobEnd::Completed => entry.stats.completed += 1,
            JobEnd::Failed => entry.stats.failed += 1,
            JobEnd::Shed => entry.stats.shed_at_shutdown += 1,
        }
        self.work.notify_all();
    }

    /// Flip to draining and pull every queued job out; the caller
    /// answers them `ShuttingDown` outside the lock. Workers observe the
    /// flag and exit.
    pub(crate) fn shutdown(&self) -> Vec<Job> {
        let mut st = self.state.lock();
        st.shutdown = true;
        let mut shed = Vec::new();
        for entry in &mut st.tenants {
            while let Some(job) = entry.queue.pop_front() {
                // Book whatever earlier slices actually charged (a
                // preempted job may have run partially) and refund the
                // rest of the reservation.
                if let Some(budget) = &mut entry.budget {
                    budget.settle(job.reserved, job.charged);
                }
                entry.stats.bytes_charged += job.charged;
                entry.stats.bytes_spilled += job.spilled;
                entry.stats.shed_at_shutdown += 1;
                shed.push(job);
            }
        }
        st.queued = 0;
        self.work.notify_all();
        shed
    }

    pub(crate) fn tenant_stats(&self, name: &str) -> Option<TenantStats> {
        let st = self.state.lock();
        st.by_name.get(name).map(|&i| st.tenants[i].stats)
    }

    pub(crate) fn all_stats(&self) -> Vec<(String, TenantStats)> {
        let st = self.state.lock();
        st.tenants
            .iter()
            .map(|t| (t.name.clone(), t.stats))
            .collect()
    }

    /// `(available, deposited, charged)` of the tenant's budget bucket.
    pub(crate) fn budget_state(&self, name: &str) -> Option<(u64, u64, u64)> {
        let mut st = self.state.lock();
        let &idx = st.by_name.get(name)?;
        let budget = st.tenants[idx].budget.as_mut()?;
        Some((budget.available(), budget.deposited(), budget.charged()))
    }

    /// Jobs currently queued (not in flight).
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().queued
    }

    /// Whether the named tenant is metered (`None` = unknown tenant).
    /// `submit` prices a request only for a tenant that is.
    pub(crate) fn has_budget(&self, name: &str) -> Option<bool> {
        let st = self.state.lock();
        st.by_name
            .get(name)
            .map(|&i| st.tenants[i].budget.is_some())
    }
}
