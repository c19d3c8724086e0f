//! The multi-tenant session service: a worker pool driving thousands of
//! chat sessions against one shared world.
//!
//! ## Execution model
//!
//! Skills take `&mut Env`, so execution against one world is serialized
//! by the [`EnvHandle`] world lock. What the pool buys is *scheduling*:
//! who gets the lock next, for how long, and what happens to everyone
//! else's latency while a heavy job holds it. Each dispatch runs one
//! **time slice** (`quantum`): the worker locks the world, sets scan
//! attribution to the tenant, and drives the job's steps under an
//! [`ExecPolicy`] whose `run_budget` is the slice remainder. A job that
//! outruns its slice is preempted mid-DAG — completed sub-results stay
//! checkpointed in the session's executor — and re-queued at the front
//! of its tenant's queue with a doubled (capped) quantum; re-dispatch
//! **resumes** from the checkpointed frontier rather than starting over.
//!
//! ## One plan per request
//!
//! A request's step list is planned once, as a whole, before any step is
//! staged ([`dc_skills::plan_linear`]: the driver's whole plan step over
//! the DAG the session will stage the steps into, final step the only
//! target; a catalog table used by name is a load of it, as in chat), so
//! the load step carries its predicate and its live columns from the
//! first slice and stays a structural cache hit slice after slice — one
//! scan a job. That happens at admission, in one short hold of the world
//! lock (the statistics live in the world), and a metered tenant's
//! reservation is priced in the same hold: an estimate of exactly the
//! steps that run. Staging moves a step into the session's DAG: the DAG
//! holds the only copy of a finished job's calls.
//!
//! Only the last step's output is a request's answer, and the planned load
//! of a request reads no more than its own later steps need. So a request
//! is all or nothing to the session: one that fails or is evicted part-way
//! leaves the session's current dataset where it found it, and the next
//! request continues from the last one that completed, never from a
//! narrowed intermediate.
//!
//! ## Overload state machine
//!
//! ```text
//!   Healthy ──queues grow──▶ Backpressure ──depth limit──▶ Shedding
//!      ▲                        │                             │
//!      └──── queues drain ◀─────┴── typed Rejected answers ◀──┘
//! ```
//!
//! Under light load every submission is admitted and dispatched in
//! weighted fair order. As the pool saturates, jobs queue (backpressure) —
//! latency grows but nothing is lost. Past the per-tenant or global
//! depth limits, admission answers [`ServeError::Rejected`] with a
//! `retry_after` hint instead of queueing — load is shed at the door,
//! never by dropping an admitted job. Shutdown drains every queue with
//! typed `ShuttingDown` answers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dc_collab::{EnvHandle, SessionRef, SessionRegistry};
use dc_skills::resilient::{panic_message, ExecPolicy};
use dc_skills::{plan_linear, rewrite_use_dataset, Env};

use crate::error::{Result, ServeError};
use crate::job::{Job, JobHandle, Request};
use crate::scheduler::{Dispatch, JobEnd, Scheduler};
use crate::tenant::{TenantConfig, TenantStats};

/// Ceiling for the doubling quantum of repeatedly preempted jobs.
const MAX_QUANTUM: Duration = Duration::from_millis(400);

/// Pool-wide knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. 0 is allowed (nothing executes until shutdown —
    /// useful for tests that inspect queue behavior deterministically).
    pub workers: usize,
    /// Service-wide queued-job ceiling; admissions beyond it are shed.
    pub global_queue_limit: usize,
    /// First time slice a job gets.
    pub initial_quantum: Duration,
    /// Preemptions after which a job is evicted instead of re-queued.
    pub max_preemptions: u32,
    /// Per-session checkpoint-memory ceiling. After a job is answered,
    /// if its session's executor holds more than this many bytes of
    /// checkpointed results, they are dropped (the DAG survives, so
    /// continuity is re-computed, not lost). `None` = unbounded.
    pub session_cache_limit: Option<u64>,
    /// Per-slice operator-memory budget. When set, each slice runs under
    /// a [`dc_engine::MemContext`] with this many bytes of transient
    /// join/group-by/sort state; heavier operators spill to disk instead
    /// of growing the worker's footprint. Spill traffic is booked per
    /// tenant ([`TenantStats::bytes_spilled`]) next to the scan bytes
    /// their budgets meter. `None` = unbounded in-memory execution.
    pub mem_budget: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            global_queue_limit: 1024,
            initial_quantum: Duration::from_millis(25),
            max_preemptions: 12,
            session_cache_limit: Some(256 << 20),
            mem_budget: None,
        }
    }
}

/// Service-wide counter snapshot (sums of the per-tenant stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    pub admitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected_queue: u64,
    pub rejected_budget: u64,
    pub shed_at_shutdown: u64,
    pub preemptions: u64,
}

impl ServiceStats {
    /// Every admitted job owes exactly one answer: completed, failed, or
    /// shed. True once the service is idle or shut down.
    pub fn answered(&self) -> u64 {
        self.completed + self.failed + self.shed_at_shutdown
    }
}

struct Inner {
    env: EnvHandle,
    sched: Scheduler,
    config: ServeConfig,
    /// Opens tenant sessions in `env`; workers run them under per-slice
    /// policies, never the sessions' own.
    registry: SessionRegistry,
    next_job: AtomicU64,
}

/// The multi-tenant session service. See the module docs for the
/// execution model; see [`crate`] docs for the invariants.
pub struct SessionService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// Why the pool has fewer workers than configured, if it has.
    short_of_workers: Option<String>,
}

impl SessionService {
    /// Start a worker pool serving jobs against the world behind `env`.
    /// A worker thread the OS refuses to start is no panic, and no pool
    /// either: short of a worker it would serve at a fraction of what was
    /// configured with nobody the wiser, so every submission is answered
    /// [`ServeError::ShortOfWorkers`] instead.
    pub fn start(env: EnvHandle, config: ServeConfig) -> SessionService {
        let inner = Arc::new(Inner {
            sched: Scheduler::new(
                config.global_queue_limit,
                config.workers,
                config.initial_quantum,
            ),
            registry: SessionRegistry::new(env.clone(), ExecPolicy::plain()),
            env,
            config: config.clone(),
            next_job: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(config.workers);
        let mut short_of_workers = None;
        for i in 0..config.workers {
            let inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("dc-serve-{i}"))
                .spawn(move || {
                    while let Some(dispatch) = inner.sched.next() {
                        drive(&inner, dispatch);
                    }
                });
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(err) => {
                    let (got, of) = (workers.len(), config.workers);
                    short_of_workers = Some(format!("started {got} of {of}: {err}"));
                    break;
                }
            }
        }
        SessionService {
            inner,
            workers,
            short_of_workers,
        }
    }

    /// Register a tenant: opens a dedicated session owned by the tenant,
    /// in the service's world, and installs its queue, weight, and budget.
    pub fn register_tenant(&self, name: &str, config: TenantConfig) -> Result<()> {
        let session = self.inner.registry.open(name);
        self.inner.sched.register(name, config, session)
    }

    /// Submit a request for `tenant`. Returns a handle immediately; the
    /// job runs asynchronously on the pool. Every admission failure is a
    /// typed error — over-capacity and over-budget submissions get
    /// [`ServeError::Rejected`] with a `retry_after` hint.
    pub fn submit(&self, tenant: &str, request: Request) -> Result<JobHandle> {
        if request.steps.is_empty() {
            return Err(ServeError::BadRequest {
                message: "empty program".to_string(),
            });
        }
        if let Some(message) = &self.short_of_workers {
            return Err(ServeError::ShortOfWorkers {
                message: message.clone(),
            });
        }
        let metered =
            self.inner
                .sched
                .has_budget(tenant)
                .ok_or_else(|| ServeError::UnknownTenant {
                    tenant: tenant.to_string(),
                })?;
        // The one plan of the request, and the reservation against a
        // metered tenant's budget, in one hold of the world lock: a
        // catalog table used by name is a load of it, as in chat, and the
        // estimate prices the very steps the slices will run.
        let mut steps = request.steps;
        let (reserved, estimated) = self.inner.env.with(|env| {
            steps
                .iter_mut()
                .for_each(|step| rewrite_use_dataset(step, env));
            if let Some(planned) = plan_linear(&steps, env) {
                steps = planned;
            }
            if !metered {
                return (0, 0);
            }
            let est = dc_analyze::estimate_steps(env, &steps);
            (est.reserve, est.total)
        });
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            name_result: request.name_result,
            reserved,
            estimated,
            ..Job::new(id, tenant, steps, self.inner.config.initial_quantum)
        };
        let handle = JobHandle {
            cell: Arc::clone(&job.cell),
            id,
            tenant: tenant.to_string(),
        };
        self.inner.sched.admit(job)?;
        Ok(handle)
    }

    /// Submit and block for the answer — the synchronous convenience
    /// used by tests and closed-loop load generators.
    pub fn run(&self, tenant: &str, request: Request) -> crate::job::JobResult {
        match self.submit(tenant, request) {
            Ok(handle) => handle.wait(),
            Err(err) => crate::job::JobResult {
                id: u64::MAX,
                tenant: tenant.to_string(),
                outcome: Err(err),
                queued: Duration::ZERO,
                wall: Duration::ZERO,
                exec: Duration::ZERO,
                preemptions: 0,
                bytes_reserved: 0,
                bytes_charged: 0,
                bytes_estimated: 0,
                cache_hits: 0,
                bytes_saved: 0,
                bytes_spilled: 0,
            },
        }
    }

    /// The serving counters for one tenant.
    pub fn tenant_stats(&self, name: &str) -> Option<TenantStats> {
        self.inner.sched.tenant_stats(name)
    }

    /// All tenants' counters, in registration order.
    pub fn all_tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.inner.sched.all_stats()
    }

    /// `(available, deposited, charged)` bytes of a metered tenant's
    /// budget bucket; `None` for unknown or unmetered tenants.
    pub fn budget_state(&self, name: &str) -> Option<(u64, u64, u64)> {
        self.inner.sched.budget_state(name)
    }

    /// Service-wide counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for (_, t) in self.inner.sched.all_stats() {
            total.admitted += t.admitted;
            total.completed += t.completed;
            total.failed += t.failed;
            total.rejected_queue += t.rejected_queue;
            total.rejected_budget += t.rejected_budget;
            total.shed_at_shutdown += t.shed_at_shutdown;
            total.preemptions += t.preemptions;
        }
        total
    }

    /// Jobs currently queued (excluding in-flight).
    pub fn queued(&self) -> usize {
        self.inner.sched.queued()
    }

    /// Stop accepting work, answer every queued job `ShuttingDown`, and
    /// join the pool (in-flight slices finish first).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for job in self.inner.sched.shutdown() {
            job.finish(Err(ServeError::ShuttingDown));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for SessionService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// How a time slice ended.
enum SliceEnd {
    /// Every step committed; the job is done.
    Done,
    /// Out of slice (or a retryable failure): resume later.
    Preempted,
    /// A permanent failure: answer it.
    Fail(ServeError),
}

/// Run one dispatched job for one time slice, then route the outcome:
/// answer it, evict it, or re-queue it for resumption.
fn drive(inner: &Inner, dispatch: Dispatch) {
    let Dispatch {
        mut job,
        session,
        tenant,
    } = dispatch;
    if job.first_dispatch.is_none() {
        job.first_dispatch = Some(Instant::now());
        // A tenant runs one job at a time, so this is where the session
        // stood when the request reached it.
        job.resume_from = session.current_node();
    }
    // The slice clock starts only once the world lock is held: waiting
    // behind another worker's slice must not eat this job's quantum (it
    // would preempt jobs that never got to run a step) nor be charged
    // against the tenant's fair share.
    let (end, spent) = inner.env.with(|env| {
        let started = Instant::now();
        env.attribution = Some(job.tenant.clone());
        // A panic no node's own guard caught (one of the driver's debug
        // assertions, say) fails the job: unwinding on would end the worker
        // with the job unanswered and its tenant gated in flight for good.
        let slice = AssertUnwindSafe(|| run_slice(inner, &mut job, &session, env, started));
        let end = catch_unwind(slice).unwrap_or_else(|payload| {
            SliceEnd::Fail(ServeError::Failed {
                message: panic_message(&*payload),
                retryable: false,
            })
        });
        env.attribution = None;
        (end, started.elapsed())
    });
    job.exec += spent;
    // Memory bound: compact the session's checkpoints while the tenant
    // is still gated in-flight (no concurrent run can be mid-write).
    if !matches!(end, SliceEnd::Preempted) {
        if let Some(limit) = inner.config.session_cache_limit {
            if session.checkpoint_bytes() > limit {
                session.clear_checkpoints();
            }
        }
    }
    match end {
        SliceEnd::Done => {
            if let Some(name) = &job.name_result {
                let _ = session.name_current(name.clone());
            }
            // `submit` refuses an empty program, so a finished one has its
            // last step's output; were that ever untrue the job is answered
            // as failed, not with a panic on a worker.
            let outcome = job.last_output.take().ok_or(ServeError::Failed {
                message: "the program completed without an output".to_string(),
                retryable: false,
            });
            let end = match outcome {
                Ok(_) => JobEnd::Completed,
                Err(_) => JobEnd::Failed,
            };
            inner
                .sched
                .release(tenant, job.reserved, job.charged, job.spilled, spent, end);
            job.finish(outcome);
        }
        SliceEnd::Preempted => {
            job.preemptions += 1;
            if job.preemptions > inner.config.max_preemptions {
                session.rewind_to(job.resume_from);
                inner.sched.release(
                    tenant,
                    job.reserved,
                    job.charged,
                    job.spilled,
                    spent,
                    JobEnd::Failed,
                );
                let preemptions = job.preemptions;
                job.finish(Err(ServeError::Evicted { preemptions }));
                return;
            }
            job.quantum = job.quantum.saturating_mul(2).min(MAX_QUANTUM);
            if let Err(job) = inner.sched.preempt(tenant, job, spent) {
                // The pool is draining; answer instead of re-queueing.
                session.rewind_to(job.resume_from);
                inner.sched.release(
                    tenant,
                    job.reserved,
                    job.charged,
                    job.spilled,
                    spent,
                    JobEnd::Shed,
                );
                job.finish(Err(ServeError::ShuttingDown));
            }
        }
        SliceEnd::Fail(err) => {
            // Before the tenant's next job can be dispatched.
            session.rewind_to(job.resume_from);
            inner.sched.release(
                tenant,
                job.reserved,
                job.charged,
                job.spilled,
                spent,
                JobEnd::Failed,
            );
            job.finish(Err(err));
        }
    }
}

/// Drive `job`'s remaining steps until the slice expires, a step fails,
/// or the program completes. Holds the world lock for at most roughly
/// `job.quantum` — the slice remainder is threaded into the resilient
/// executor as `run_budget`, which arms scan cancellation and preempts
/// unstarted DAG nodes, so even a single huge step respects the slice.
fn run_slice(
    inner: &Inner,
    job: &mut Job,
    session: &SessionRef,
    env: &mut Env,
    started: Instant,
) -> SliceEnd {
    // No request reaches a panic outside every node guard; this one lets
    // a test check that a worker survives one.
    #[cfg(test)]
    if job.tenant.starts_with("panicking") {
        panic!("a slice panicked outside every node guard");
    }
    while job.staged.is_some() || job.steps.len() > 0 {
        let elapsed = started.elapsed();
        if elapsed >= job.quantum {
            return SliceEnd::Preempted;
        }
        let node = match job.staged {
            Some(node) => node,
            None => {
                // The step moves into the session's DAG, which keeps it for
                // as long as the session lives: no second copy is made.
                let Some(call) = job.steps.next() else {
                    break;
                };
                match session.stage(&job.tenant, call) {
                    Ok(node) => {
                        job.staged = Some(node);
                        node
                    }
                    Err(err) => {
                        return SliceEnd::Fail(ServeError::Failed {
                            message: err.to_string(),
                            retryable: false,
                        })
                    }
                }
            }
        };
        // The default retry policy absorbs transient storage faults.
        let policy = ExecPolicy {
            run_budget: Some(job.quantum - elapsed),
            mem_budget: inner.config.mem_budget,
            ..ExecPolicy::default()
        };
        let report = match session.execute_staged(&job.tenant, node, env, &policy) {
            Ok(report) => report,
            // Structural errors (permissions, session lock) — the
            // in-flight gate makes these unreachable in practice, but
            // answer typed rather than trust that.
            Err(err) => {
                return SliceEnd::Fail(ServeError::Failed {
                    message: err.to_string(),
                    retryable: false,
                })
            }
        };
        job.charged += report.bytes_scanned();
        job.cache_hits += report.cache_hits;
        job.bytes_saved += report.bytes_saved;
        job.spilled += report.bytes_spilled;
        if report.succeeded() {
            job.last_output = report.output;
            job.staged = None;
        } else if report.first_error().is_some_and(|err| err.is_retryable()) {
            // Slice expiry surfaces as a retryable `Timeout` on the
            // unfinished frontier; exhausted transient-fault retries are
            // retryable too. Either way the checkpointed sub-results
            // make re-dispatch a resume, not a restart.
            return SliceEnd::Preempted;
        } else {
            let message = report
                .first_error()
                .map_or_else(|| "execution failed".to_string(), |err| err.to_string());
            return SliceEnd::Fail(ServeError::Failed {
                message,
                retryable: false,
            });
        }
    }
    SliceEnd::Done
}

#[cfg(test)]
mod tests {
    use dc_skills::SkillCall;
    use dc_storage::{CloudDatabase, Pricing};

    use super::*;
    use crate::Request;

    /// A metered job's reservation, the estimator's bound, reads block
    /// metadata through `BlockSource`: the same rows reserve the same bytes
    /// in both backends, in full, pruned and projected (an estimate of 0
    /// admits a job for free).
    #[test]
    fn step_estimate_prices_both_backends_alike() {
        let rows = dc_storage::demo::sales(1_000, 7);
        let dir = std::env::temp_dir().join(format!("dc-serve-steps-{}", std::process::id()));
        let mut db = CloudDatabase::new("cloud", Pricing::default_cloud());
        db.create_table_with_blocks("ram", &rows, 128).unwrap();
        db.create_table_on_disk("disk", &rows, 128, &dir).unwrap();
        let mut env = Env::new();
        env.catalog.add_database(db).unwrap();
        let full = |table: &str| SkillCall::load_table("cloud", table);
        let narrow = |table: &str| {
            dc_gel::parse_gel(&format!(
                "Load the columns order_id, quantity of the table {table} \
                 from the database cloud where order_id < 100200"
            ))
            .unwrap()
        };
        let reserve = |step: SkillCall| dc_analyze::estimate_steps(&env, &[step]).reserve;
        let (ram_full, ram_narrow) = (reserve(full("ram")), reserve(narrow("ram")));
        assert!(0 < ram_narrow && ram_narrow < ram_full);
        assert_eq!(reserve(full("disk")), ram_full);
        assert_eq!(reserve(narrow("disk")), ram_narrow);
        drop(env);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One database, `cloud`, holding 2 000 rows of the demo sales table in
    /// blocks of 128 rows.
    fn sales_world() -> EnvHandle {
        let mut db = CloudDatabase::new("cloud", Pricing::default_cloud());
        db.create_table_with_blocks("sales", &dc_storage::demo::sales(2_000, 7), 128)
            .unwrap();
        let mut env = Env::new();
        env.catalog.add_database(db).unwrap();
        EnvHandle::new(env)
    }

    /// Load, keep a key range, aggregate two columns — the light job of a
    /// serving fleet, over `[lo, hi)` of the sales table's order ids.
    fn light_job(lo: i64, hi: i64) -> Request {
        Request::gel(&format!(
            "Load the table sales from the database cloud\n\
             Keep the rows where order_id >= {lo} and order_id < {hi}\n\
             Compute the sum of quantity for each region"
        ))
        .unwrap()
    }

    /// A job's step list is planned once, as a whole: its load step scans
    /// with the predicate and the live columns from the first slice on, so
    /// the table is scanned once and the job is charged what admission
    /// estimated and reserved. (A load planned as its own slice's target
    /// scans every column, and the last step's plan scans again, narrower:
    /// more bytes charged than the "upper bound" reserved.)
    #[test]
    fn a_job_scans_once_and_is_charged_what_it_reserved() {
        let world = sales_world();
        let meter = world.with(|env| env.catalog.database("cloud").unwrap().meter());
        let service = SessionService::start(world, ServeConfig::default());
        let budget = dc_storage::BudgetConfig::fixed(u64::MAX / 4);
        service
            .register_tenant("metered", TenantConfig::new().budget(budget))
            .unwrap();
        service
            .register_tenant("free", TenantConfig::new())
            .unwrap();

        let result = service.run("metered", light_job(100_000, 100_300));
        let out = result.outcome.expect("the job completes");
        assert_eq!(out.as_table().map(|t| t.num_rows()), Some(4));
        assert_eq!(meter.queries(), 1, "one scan");
        assert_eq!(result.bytes_charged, meter.bytes());
        assert!(result.bytes_charged > 0);
        assert_eq!(result.bytes_charged, result.bytes_estimated);
        assert!(result.bytes_charged <= result.bytes_reserved);

        // An unmetered tenant's steps are planned at admission all the
        // same: one narrow scan, with nothing reserved or estimated.
        let (scans, bytes) = (meter.queries(), meter.bytes());
        let free = service.run("free", light_job(100_300, 100_600));
        assert!(free.outcome.is_ok(), "{:?}", free.outcome);
        assert_eq!(meter.queries(), scans + 1, "one scan");
        assert_eq!(free.bytes_charged, meter.bytes() - bytes);
        assert_eq!(free.bytes_charged, result.bytes_charged);
        assert_eq!((free.bytes_reserved, free.bytes_estimated), (0, 0));
    }

    /// A catalog table used by name is a load of it, as in chat: admission
    /// plans and prices the load, and the job reads the table.
    #[test]
    fn a_catalog_table_used_by_name_is_loaded_and_priced() {
        let service = SessionService::start(sales_world(), ServeConfig::default());
        let budget = dc_storage::BudgetConfig::fixed(u64::MAX / 4);
        service
            .register_tenant("metered", TenantConfig::new().budget(budget))
            .unwrap();
        let request = Request::gel("Use the dataset sales\nCount the rows").unwrap();
        let result = service.run("metered", request);
        let out = result.outcome.expect("the job completes");
        assert_eq!(out, dc_skills::SkillOutput::Text("2000".into()));
        assert!(result.bytes_reserved > 0);
        assert!(result.bytes_charged <= result.bytes_reserved);
    }

    /// A panic in a slice that no node's own guard catches fails the job
    /// instead of ending its worker: the job is answered, its tenant and its
    /// reservation are released, and every worker keeps serving. A
    /// `panicking` tenant's slices panic so (`run_slice`, test builds only).
    #[test]
    fn a_panicking_slice_fails_its_job_and_keeps_every_worker() {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let service = SessionService::start(sales_world(), config);
        for tenant in ["panicking-a", "panicking-b"] {
            let budget = dc_storage::BudgetConfig::fixed(1 << 40);
            service
                .register_tenant(tenant, TenantConfig::new().budget(budget))
                .unwrap();
        }
        // Each job is waited on by its own thread and the test waits ten
        // seconds at most: a job nobody answers fails the test, never hangs it.
        let submit = |tenant: &str| {
            let job = service.submit(tenant, light_job(100_000, 100_300)).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            (rx, std::thread::spawn(move || tx.send(job.wait()).ok()))
        };
        let answer = |(rx, waiter): (std::sync::mpsc::Receiver<_>, JoinHandle<_>)| {
            let result: crate::job::JobResult =
                rx.recv_timeout(Duration::from_secs(10)).expect("answered");
            waiter.join().unwrap();
            match result.outcome {
                Err(ServeError::Failed { message, .. }) => message,
                other => panic!("expected Failed, got {other:?}"),
            }
        };

        let first = answer(submit("panicking-a"));
        assert!(first.contains("outside every node guard"), "{first}");
        // The tenant's next job is dispatched, and finds the session free.
        assert_eq!(answer(submit("panicking-a")), first);
        let stats = service.tenant_stats("panicking-a").unwrap();
        assert_eq!((stats.admitted, stats.failed), (2, 2));
        let budget = service.budget_state("panicking-a");
        assert_eq!(budget, Some((1 << 40, 1 << 40, 0)));
        // Both tenants at once: both answered, and no worker has ended.
        let (a, b) = (submit("panicking-a"), submit("panicking-b"));
        assert_eq!((answer(a), answer(b)), (first.clone(), first));
        assert_eq!(service.workers.len(), 2);
        assert!(service.workers.iter().all(|worker| !worker.is_finished()));
    }

    /// A quantum longer than an `Instant` can reach never preempts a job
    /// for time, and a job such a quantum leaves for a retryable failure
    /// doubles it without overflowing: four transient scans exhaust the
    /// first slice's retries, and the second slice answers.
    #[test]
    fn an_unbounded_quantum_answers_even_after_a_preemption() {
        use dc_storage::{FaultConfig, FaultInjector, FaultOp, InjectedFault};
        let faults = (0..4).fold(FaultConfig::disabled(), |config, occurrence| {
            config.schedule(FaultOp::Scan, occurrence, InjectedFault::Transient)
        });
        let mut db = CloudDatabase::new("cloud", Pricing::default_cloud());
        db.create_table_with_blocks("sales", &dc_storage::demo::sales(2_000, 7), 128)
            .unwrap();
        db.set_fault_injector(Arc::new(FaultInjector::new(faults)));
        let mut env = Env::new();
        env.catalog.add_database(db).unwrap();
        let config = ServeConfig {
            initial_quantum: Duration::MAX,
            ..ServeConfig::default()
        };
        let service = SessionService::start(EnvHandle::new(env), config);
        service.register_tenant("a", TenantConfig::new()).unwrap();
        // A job nobody answers fails the test after ten seconds, never hangs it.
        let job = service.submit("a", light_job(100_000, 100_300)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(job.wait()).ok());
        let result = rx.recv_timeout(Duration::from_secs(10)).expect("answered");
        assert!(result.outcome.is_ok(), "{:?}", result.outcome);
        assert_eq!(result.preemptions, 1);
    }

    /// A request is all or nothing to the session. The planned load of a
    /// job reads only what the job's own later steps need, so when the
    /// last step fails at run time the steps before it have left a
    /// narrowed dataset behind — which must not become what the tenant's
    /// next request continues from.
    #[test]
    fn a_job_that_fails_part_way_leaves_the_session_where_it_was() {
        let service = SessionService::start(sales_world(), ServeConfig::default());
        service
            .register_tenant("analyst", TenantConfig::new())
            .unwrap();
        let run = |gel: &str| service.run("analyst", Request::gel(gel).unwrap()).outcome;
        let shape = |out: dc_skills::SkillOutput| {
            let t = out.as_table().expect("a table").clone();
            (t.num_rows(), t.schema().names().len())
        };

        let kept = run("Load the table sales from the database cloud\n\
                        Keep the rows where order_id < 100100");
        assert_eq!(shape(kept.expect("completes")), (100, 8));
        // Load and filter run — over three of the eight columns — and the
        // aggregate cannot sum a string.
        let failed = run("Load the table sales from the database cloud\n\
                          Keep the rows where order_id >= 100100 and order_id < 100150\n\
                          Compute the sum of region for each quantity");
        assert!(
            matches!(failed, Err(ServeError::Failed { .. })),
            "{failed:?}"
        );
        // The next request continues from the hundred full rows of the
        // first, not from the failed job's fifty narrow ones.
        let next = run("Keep the columns order_id, price, discount");
        assert_eq!(shape(next.expect("continues from the first job")), (100, 3));
        // Before anything completed there is nothing to continue from.
        service.register_tenant("new", TenantConfig::new()).unwrap();
        let early = service.run(
            "new",
            Request::gel(
                "Load the table sales from the database cloud\n\
                          Compute the sum of region for each quantity",
            )
            .unwrap(),
        );
        assert!(early.outcome.is_err());
        let orphan = service.run("new", Request::gel("Keep the columns price").unwrap());
        assert!(matches!(orphan.outcome, Err(ServeError::Failed { .. })));
    }
}
