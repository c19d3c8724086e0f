//! Deterministic fault injection for the storage layer.
//!
//! Consumption-priced warehouses fail in boring, recoverable ways:
//! transient scan errors, slow blocks, flaky snapshot writes. The
//! [`FaultInjector`] reproduces those failures *deterministically* — a
//! seed plus an explicit schedule fully determine which operation faults
//! — so resilience tests and the `chaos_dag` driver are replayable.
//!
//! Injection points:
//!
//! * [`FaultInjector::on_scan`] — start of a [`crate::BlockTable`] scan
//! * [`FaultInjector::on_block_read`] — each block touched by a scan
//!   (slow blocks sleep cooperatively against a [`CancelToken`])
//! * [`FaultInjector::on_snapshot_write`] — before a snapshot create or
//!   refresh commits (a failed write must never be partially visible)
//!
//! An injector is opt-in: databases and snapshot stores carry
//! `Option<Arc<FaultInjector>>`, and the `None` path adds no work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::error::{Result, StorageError};

/// Which storage operation an injected fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A table scan (the whole operation).
    Scan,
    /// One block read within a scan.
    BlockRead,
    /// A snapshot create/refresh write.
    SnapshotWrite,
    /// An out-of-core spill partition/run write.
    SpillWrite,
    /// An out-of-core spill partition/run read-back.
    SpillRead,
}

/// Number of distinct [`FaultOp`] kinds (size of per-kind counters).
const FAULT_OPS: usize = 5;

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Scan => 0,
            FaultOp::BlockRead => 1,
            FaultOp::SnapshotWrite => 2,
            FaultOp::SpillWrite => 3,
            FaultOp::SpillRead => 4,
        }
    }

    /// Human-readable operation name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Scan => "scan",
            FaultOp::BlockRead => "block read",
            FaultOp::SnapshotWrite => "snapshot write",
            FaultOp::SpillWrite => "spill write",
            FaultOp::SpillRead => "spill read",
        }
    }
}

/// What an injected fault does to the operation it hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// Fail with [`StorageError::Transient`] (retryable).
    Transient,
    /// Fail with [`StorageError::Unavailable`] (not retryable).
    Unavailable,
    /// Stall the operation for this many milliseconds before letting it
    /// proceed (interruptible via the scan's [`CancelToken`]).
    SlowMs(u64),
}

/// One entry of a deterministic fault schedule: the `occurrence`-th
/// operation of kind `op` (0-based, counted per kind across the
/// injector's lifetime) suffers `fault`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    pub op: FaultOp,
    pub occurrence: u64,
    pub fault: InjectedFault,
}

/// Injector configuration: per-operation probabilities plus an explicit
/// schedule. Scheduled faults take precedence over probability draws.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the probability draws.
    pub seed: u64,
    /// Probability that a scan fails with a transient error.
    pub scan_transient_p: f64,
    /// Probability that a block read stalls for `slow_block_ms`.
    pub slow_block_p: f64,
    /// Stall duration for slow blocks.
    pub slow_block_ms: u64,
    /// Probability that a snapshot write fails with a transient error.
    pub snapshot_write_p: f64,
    /// Probability that a spill write fails with a transient error (the
    /// spill path retries into a fresh spill directory).
    pub spill_write_p: f64,
    /// Probability that a spill read-back stalls for `slow_block_ms`.
    pub slow_spill_read_p: f64,
    /// When set, block-sampled scans are never injected: only full scans
    /// are flaky. This models long scans being the ones that hit
    /// transients, and is what makes the degraded-mode fallback (retry a
    /// failing full scan as a cheaper block sample) observable.
    pub spare_sampled_scans: bool,
    /// Deterministic schedule, consulted before any probability draw.
    pub schedule: Vec<ScheduledFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            scan_transient_p: 0.0,
            slow_block_p: 0.0,
            slow_block_ms: 0,
            snapshot_write_p: 0.0,
            spill_write_p: 0.0,
            slow_spill_read_p: 0.0,
            spare_sampled_scans: false,
            schedule: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A config that never injects anything.
    pub fn disabled() -> FaultConfig {
        FaultConfig::default()
    }

    /// Schedule `fault` on the `occurrence`-th operation of kind `op`.
    pub fn schedule(mut self, op: FaultOp, occurrence: u64, fault: InjectedFault) -> FaultConfig {
        self.schedule.push(ScheduledFault {
            op,
            occurrence,
            fault,
        });
        self
    }
}

/// Counters of what the injector actually did, for exec reports and the
/// chaos driver's summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations observed, per kind (scan, block read, snapshot write,
    /// spill write, spill read).
    pub ops_seen: [u64; FAULT_OPS],
    /// Transient failures injected.
    pub transient_injected: u64,
    /// Unavailable failures injected.
    pub unavailable_injected: u64,
    /// Slow stalls injected.
    pub slow_injected: u64,
}

impl FaultStats {
    /// Total faults of any kind injected.
    pub fn total_injected(&self) -> u64 {
        self.transient_injected + self.unavailable_injected + self.slow_injected
    }
}

#[derive(Debug)]
struct InjectorState {
    rng: StdRng,
    counts: [u64; FAULT_OPS],
    stats: FaultStats,
}

/// A seeded, thread-safe fault injector shared by databases and snapshot
/// stores (`Arc<FaultInjector>`). All decisions are deterministic given
/// the config; the only wall-clock effect is `SlowMs` stalls.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Build an injector from `config`.
    pub fn new(config: FaultConfig) -> FaultInjector {
        let rng = StdRng::seed_from_u64(config.seed);
        FaultInjector {
            config,
            state: Mutex::new(InjectorState {
                rng,
                counts: [0; FAULT_OPS],
                stats: FaultStats::default(),
            }),
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().expect("injector lock").stats
    }

    /// Decide the fate of the next operation of kind `op`. Bumps the
    /// per-kind counter even when the operation is spared, so schedules
    /// line up with operation order regardless of sampling.
    fn decide(&self, op: FaultOp, sampled_scan: bool) -> Option<InjectedFault> {
        let mut state = self.state.lock().expect("injector lock");
        let idx = state.counts[op.index()];
        state.counts[op.index()] += 1;
        state.stats.ops_seen[op.index()] += 1;

        let spared = sampled_scan && self.config.spare_sampled_scans && op == FaultOp::Scan;

        let scheduled = self
            .config
            .schedule
            .iter()
            .find(|s| s.op == op && s.occurrence == idx)
            .map(|s| s.fault);
        let (p, prob_fault) = match op {
            FaultOp::Scan => (self.config.scan_transient_p, InjectedFault::Transient),
            FaultOp::BlockRead => (
                self.config.slow_block_p,
                InjectedFault::SlowMs(self.config.slow_block_ms),
            ),
            FaultOp::SnapshotWrite => (self.config.snapshot_write_p, InjectedFault::Transient),
            FaultOp::SpillWrite => (self.config.spill_write_p, InjectedFault::Transient),
            FaultOp::SpillRead => (
                self.config.slow_spill_read_p,
                InjectedFault::SlowMs(self.config.slow_block_ms),
            ),
        };
        // Always draw so spared scans keep the RNG stream aligned with an
        // unsampled replay of the same config.
        let hit = p > 0.0 && state.rng.random::<f64>() < p;
        let fault = if spared {
            None
        } else {
            scheduled.or(hit.then_some(prob_fault))
        };
        if let Some(f) = fault {
            match f {
                InjectedFault::Transient => state.stats.transient_injected += 1,
                InjectedFault::Unavailable => state.stats.unavailable_injected += 1,
                InjectedFault::SlowMs(_) => state.stats.slow_injected += 1,
            }
        }
        fault
    }

    fn apply(
        &self,
        op: FaultOp,
        fault: Option<InjectedFault>,
        cancel: Option<&CancelToken>,
    ) -> Result<()> {
        match fault {
            None => Ok(()),
            Some(InjectedFault::Transient) => Err(StorageError::Transient {
                operation: op.name().to_string(),
                message: "injected transient fault".to_string(),
            }),
            Some(InjectedFault::Unavailable) => Err(StorageError::Unavailable {
                operation: op.name().to_string(),
                message: "injected outage".to_string(),
            }),
            Some(InjectedFault::SlowMs(ms)) => {
                interruptible_sleep(Duration::from_millis(ms), cancel)
            }
        }
    }

    /// Injection point at the start of a scan. `sampled_scan` is true for
    /// block-sampled scans (the degraded path).
    pub fn on_scan(&self, sampled_scan: bool, cancel: Option<&CancelToken>) -> Result<()> {
        let fault = self.decide(FaultOp::Scan, sampled_scan);
        self.apply(FaultOp::Scan, fault, cancel)
    }

    /// Injection point per block read within a scan.
    pub fn on_block_read(&self, cancel: Option<&CancelToken>) -> Result<()> {
        let fault = self.decide(FaultOp::BlockRead, false);
        self.apply(FaultOp::BlockRead, fault, cancel)
    }

    /// Injection point before a snapshot write commits.
    pub fn on_snapshot_write(&self) -> Result<()> {
        let fault = self.decide(FaultOp::SnapshotWrite, false);
        self.apply(FaultOp::SnapshotWrite, fault, None)
    }

    /// Injection point before each spill partition/run write.
    pub fn on_spill_write(&self) -> Result<()> {
        let fault = self.decide(FaultOp::SpillWrite, false);
        self.apply(FaultOp::SpillWrite, fault, None)
    }

    /// Injection point before each spill partition/run read-back. Slow
    /// spill reads stall cooperatively like slow blocks.
    pub fn on_spill_read(&self, cancel: Option<&CancelToken>) -> Result<()> {
        let fault = self.decide(FaultOp::SpillRead, false);
        self.apply(FaultOp::SpillRead, fault, cancel)
    }
}

/// Sleep in small slices, bailing out with a retryable cancellation error
/// as soon as `cancel` fires. This is what makes slow blocks cooperative:
/// a scan stuck in an injected stall notices its node budget expiring
/// instead of holding its worker for the full stall.
fn interruptible_sleep(total: Duration, cancel: Option<&CancelToken>) -> Result<()> {
    const SLICE: Duration = Duration::from_millis(2);
    let deadline = Instant::now() + total;
    loop {
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return Err(StorageError::Transient {
                    operation: "block read".to_string(),
                    message: "cancelled: node budget exhausted".to_string(),
                });
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(());
        }
        std::thread::sleep(SLICE.min(deadline - now));
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

/// A cloneable cooperative-cancellation handle.
///
/// The executor arms a deadline before each node attempt; storage
/// operations carry the token (via `ScanOptions::cancel`) and check it at
/// block boundaries and inside injected stalls. Cancellation surfaces as
/// a retryable [`StorageError::Transient`], so a timed-out attempt folds
/// into the normal retry path.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, unarmed token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Cancel explicitly.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Arm a wall-clock deadline `budget` from now (clears any previous
    /// explicit cancellation). A budget longer than an `Instant` can reach
    /// sets no deadline.
    pub fn arm(&self, budget: Duration) {
        self.inner.cancelled.store(false, Ordering::SeqCst);
        *self.inner.deadline.lock().expect("cancel lock") = Instant::now().checked_add(budget);
    }

    /// Clear both the deadline and any explicit cancellation.
    pub fn disarm(&self) {
        self.inner.cancelled.store(false, Ordering::SeqCst);
        *self.inner.deadline.lock().expect("cancel lock") = None;
    }

    /// Whether the token has been cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        match *self.inner.deadline.lock().expect("cancel lock") {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_injects_nothing() {
        let inj = FaultInjector::new(FaultConfig::disabled());
        for _ in 0..100 {
            inj.on_scan(false, None).unwrap();
            inj.on_block_read(None).unwrap();
            inj.on_snapshot_write().unwrap();
            inj.on_spill_write().unwrap();
            inj.on_spill_read(None).unwrap();
        }
        assert_eq!(inj.stats().total_injected(), 0);
        assert_eq!(inj.stats().ops_seen, [100, 100, 100, 100, 100]);
    }

    #[test]
    fn spill_faults_fire_on_spill_ops_only() {
        let cfg = FaultConfig {
            spill_write_p: 1.0,
            ..FaultConfig::disabled()
        };
        let inj = FaultInjector::new(cfg);
        assert!(inj.on_scan(false, None).is_ok());
        assert!(inj.on_spill_read(None).is_ok());
        let e = inj.on_spill_write().unwrap_err();
        assert!(e.is_retryable());
        assert_eq!(inj.stats().transient_injected, 1);
    }

    #[test]
    fn slow_spill_read_stalls_and_cancels() {
        let cfg =
            FaultConfig::disabled().schedule(FaultOp::SpillRead, 0, InjectedFault::SlowMs(200));
        let inj = FaultInjector::new(cfg);
        let token = CancelToken::new();
        token.arm(Duration::from_millis(20));
        let start = Instant::now();
        let e = inj.on_spill_read(Some(&token)).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "not cancelled"
        );
        assert!(e.is_retryable());
        assert_eq!(inj.stats().slow_injected, 1);
    }

    #[test]
    fn schedule_fires_at_exact_occurrence() {
        let cfg = FaultConfig::disabled()
            .schedule(FaultOp::Scan, 2, InjectedFault::Transient)
            .schedule(FaultOp::Scan, 3, InjectedFault::Unavailable);
        let inj = FaultInjector::new(cfg);
        assert!(inj.on_scan(false, None).is_ok());
        assert!(inj.on_scan(false, None).is_ok());
        let e = inj.on_scan(false, None).unwrap_err();
        assert!(matches!(e, StorageError::Transient { .. }));
        assert!(e.is_retryable());
        let e = inj.on_scan(false, None).unwrap_err();
        assert!(matches!(e, StorageError::Unavailable { .. }));
        assert!(!e.is_retryable());
        assert!(inj.on_scan(false, None).is_ok());
        assert_eq!(inj.stats().transient_injected, 1);
        assert_eq!(inj.stats().unavailable_injected, 1);
    }

    #[test]
    fn probability_draws_are_deterministic() {
        let cfg = FaultConfig {
            seed: 9,
            scan_transient_p: 0.5,
            ..FaultConfig::disabled()
        };
        let run = || {
            let inj = FaultInjector::new(cfg.clone());
            (0..64)
                .map(|_| inj.on_scan(false, None).is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn sampled_scans_spared_when_configured() {
        let cfg = FaultConfig {
            scan_transient_p: 1.0,
            spare_sampled_scans: true,
            ..FaultConfig::disabled()
        };
        let inj = FaultInjector::new(cfg);
        assert!(inj.on_scan(false, None).is_err());
        assert!(inj.on_scan(true, None).is_ok());
        assert!(inj.on_scan(false, None).is_err());
    }

    #[test]
    fn slow_block_stalls_and_cancels() {
        let cfg =
            FaultConfig::disabled().schedule(FaultOp::BlockRead, 0, InjectedFault::SlowMs(200));
        let inj = FaultInjector::new(cfg);
        let token = CancelToken::new();
        token.arm(Duration::from_millis(20));
        let start = Instant::now();
        let e = inj.on_block_read(Some(&token)).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "not cancelled"
        );
        assert!(e.is_retryable());
        assert_eq!(inj.stats().slow_injected, 1);
    }

    #[test]
    fn cancel_token_semantics() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.disarm();
        assert!(!t.is_cancelled());
        t.arm(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.arm(Duration::from_millis(0));
        assert!(t.is_cancelled());
    }
}
