//! Memory-budget governor for out-of-core operator execution.
//!
//! A [`MemoryGovernor`] is a process-wide byte budget that the heavy
//! operators (hash join, group-by, sort) book the state they allocate
//! against, as they allocate it. A refused request is the signal to bound
//! that state by partitioning the *work* — row ids, never rows — and only
//! state that is itself O(n) (id lists, sort records, join pairs) can
//! reach disk, as runs of `u64` records (see [`crate::ops::spill`]).
//!
//! The governor's contract (DESIGN.md §14):
//!
//! * The budget covers **state the operator allocates** — hash index,
//!   group table and group ids, sort records, join pairs, partition id
//!   lists — not operator inputs or outputs, which are `Arc`-shared tables
//!   whose lifetime the session layer manages and which are never copied
//!   to disk.
//! * Reservations are RAII and resizable: [`Reservation::try_grow`] asks
//!   for more, [`Reservation::shrink_to`] settles to what is really held,
//!   dropping a [`Reservation`] returns its bytes.
//! * Refusal is advisory pressure, not failure: operators partition or
//!   release a run to disk, they never error because memory was tight.
//! * Partitioning recursion is depth-capped
//!   ([`MemContext::max_recursion`]); a partition the hash cannot split any
//!   further at the cap runs under a forced reservation, so skewed keys
//!   degrade to over-admission, never to non-termination. Nothing else
//!   takes one, so [`MemoryGovernor::peak`] stays within the budget
//!   otherwise.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{EngineError, Result};

/// A process-wide memory budget operators reserve transient state against.
#[derive(Debug)]
pub struct MemoryGovernor {
    budget: u64,
    used: AtomicU64,
    peak: AtomicU64,
    forced: AtomicU64,
}

impl MemoryGovernor {
    /// A governor with a hard byte budget.
    pub fn new(budget_bytes: u64) -> Arc<MemoryGovernor> {
        Arc::new(MemoryGovernor {
            budget: budget_bytes,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            forced: AtomicU64::new(0),
        })
    }

    /// A governor that always admits (budget `u64::MAX`).
    pub fn unlimited() -> Arc<MemoryGovernor> {
        MemoryGovernor::new(u64::MAX)
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Bytes ever taken by [`MemoryGovernor::reserve_force`]: while this is
    /// zero, [`MemoryGovernor::peak`] is within the budget.
    pub fn forced(&self) -> u64 {
        self.forced.load(Ordering::Relaxed)
    }

    /// Bytes still available under the budget.
    pub fn available(&self) -> u64 {
        self.budget.saturating_sub(self.used())
    }

    /// Book `bytes` more if they fit under the budget.
    fn try_admit(&self, bytes: u64) -> bool {
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            if used.saturating_add(bytes) > self.budget {
                return false;
            }
            match self.used.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(used + bytes, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => used = actual,
            }
        }
    }

    /// Try to reserve `bytes`; `None` when the budget would be exceeded.
    /// A refused reservation is the signal to partition or spill.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<Reservation> {
        self.try_admit(bytes).then(|| Reservation {
            governor: Arc::clone(self),
            bytes,
        })
    }

    /// Reserve `bytes` unconditionally, possibly over-admitting past the
    /// budget. Used only at the partitioning depth cap, where running a
    /// partition the hash cannot split is the sole remaining option.
    pub fn reserve_force(self: &Arc<Self>, bytes: u64) -> Reservation {
        self.forced.fetch_add(bytes, Ordering::Relaxed);
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        Reservation {
            governor: Arc::clone(self),
            bytes,
        }
    }
}

/// RAII admission under a [`MemoryGovernor`]; dropping returns the bytes.
#[derive(Debug)]
pub struct Reservation {
    governor: Arc<MemoryGovernor>,
    bytes: u64,
}

impl Reservation {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grow by `extra` bytes if the budget admits them; `false` leaves the
    /// reservation as it was.
    pub fn try_grow(&mut self, extra: u64) -> bool {
        let admitted = self.governor.try_admit(extra);
        if admitted {
            self.bytes += extra;
        }
        admitted
    }

    /// Take over what `other` holds, as one reservation.
    pub fn absorb(&mut self, mut other: Reservation) {
        self.bytes += std::mem::take(&mut other.bytes);
    }

    /// Return everything above `bytes` to the budget (no-op when the
    /// reservation is already that small): settles an up-front estimate to
    /// what the operator really holds.
    pub fn shrink_to(&mut self, bytes: u64) {
        let surplus = self.bytes.saturating_sub(bytes);
        self.governor.used.fetch_sub(surplus, Ordering::Relaxed);
        self.bytes -= surplus;
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.governor.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Shared spill accounting. Counters only ever grow; callers diff
/// [`SpillMetrics::snapshot`]s to attribute activity to one operator.
#[derive(Debug, Default)]
pub struct SpillMetrics {
    bytes_spilled: AtomicU64,
    spill_partitions: AtomicU64,
    spill_events: AtomicU64,
}

/// Point-in-time copy of [`SpillMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillSnapshot {
    /// Bytes written to spill files.
    pub bytes_spilled: u64,
    /// Spill partitions (or sort runs) written.
    pub spill_partitions: u64,
    /// Operator executions that took a spill path.
    pub spill_events: u64,
}

impl SpillMetrics {
    /// Record one spill file of `bytes`.
    pub fn record_file(&self, bytes: u64) {
        self.bytes_spilled.fetch_add(bytes, Ordering::Relaxed);
        self.spill_partitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that an operator chose a spill path.
    pub fn record_event(&self) {
        self.spill_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> SpillSnapshot {
        SpillSnapshot {
            bytes_spilled: self.bytes_spilled.load(Ordering::Relaxed),
            spill_partitions: self.spill_partitions.load(Ordering::Relaxed),
            spill_events: self.spill_events.load(Ordering::Relaxed),
        }
    }
}

impl SpillSnapshot {
    /// Activity since `earlier`.
    pub fn delta_since(&self, earlier: SpillSnapshot) -> SpillSnapshot {
        SpillSnapshot {
            bytes_spilled: self.bytes_spilled - earlier.bytes_spilled,
            spill_partitions: self.spill_partitions - earlier.spill_partitions,
            spill_events: self.spill_events - earlier.spill_events,
        }
    }
}

/// Chaos hooks on the spill I/O paths. The storage layer implements this
/// over its `FaultInjector` so the chaos suite exercises out-of-core
/// recovery; an `io::Error` of kind [`io::ErrorKind::Interrupted`] is
/// surfaced as a *retryable* [`EngineError::Spill`], anything else as a
/// permanent one.
pub trait SpillHooks: Send + Sync {
    /// Called before each spill-file write.
    fn before_spill_write(&self) -> io::Result<()> {
        Ok(())
    }

    /// Called before each spill-file read.
    fn before_spill_read(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Map a spill-path I/O failure into an engine error, preserving
/// transience: interrupted writes/reads are retryable weather, everything
/// else (disk full, permission) is a hard failure.
pub fn spill_error(context: &str, e: io::Error) -> EngineError {
    EngineError::Spill {
        message: format!("{context}: {e}"),
        retryable: e.kind() == io::ErrorKind::Interrupted,
    }
}

/// Everything an operator needs to run out of core: the governor to
/// reserve against, a spill directory, shared metrics, tuning knobs, and
/// optional chaos hooks.
pub struct MemContext {
    /// Budget operator state is admitted against.
    pub governor: Arc<MemoryGovernor>,
    /// Root directory spill files are created under (per-operator
    /// subdirectories, removed as each operator finishes).
    pub spill_root: PathBuf,
    /// Shared spill accounting.
    pub metrics: SpillMetrics,
    /// Most records per block of a run file, and most rows per gather of
    /// an operator that assembles its output in blocks.
    pub spill_block_rows: usize,
    /// Most partitions per partitioning level and most runs per merge.
    pub fanout: usize,
    /// Maximum partitioning depth; at the cap, a partition the hash cannot
    /// split runs under a forced reservation.
    pub max_recursion: u32,
    /// Chaos hooks on spill write/read.
    pub hooks: Option<Arc<dyn SpillHooks>>,
    /// When the context owns its root (temp-dir construction), the guard
    /// that removes it on drop.
    _root_guard: Option<ScopedSpillDir>,
}

impl std::fmt::Debug for MemContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemContext")
            .field("budget", &self.governor.budget())
            .field("spill_root", &self.spill_root)
            .field("metrics", &self.metrics.snapshot())
            .finish()
    }
}

impl MemContext {
    /// A context over an existing governor and spill root. The caller
    /// owns the root directory's lifetime.
    pub fn new(governor: Arc<MemoryGovernor>, spill_root: impl Into<PathBuf>) -> MemContext {
        MemContext {
            governor,
            spill_root: spill_root.into(),
            metrics: SpillMetrics::default(),
            spill_block_rows: 64 * 1024,
            fanout: 16,
            max_recursion: 4,
            hooks: None,
            _root_guard: None,
        }
    }

    /// A self-contained context with `budget_bytes` and a fresh temp spill
    /// directory that is removed when the context drops.
    pub fn with_budget(budget_bytes: u64) -> Result<MemContext> {
        let root = ScopedSpillDir::create_in(std::env::temp_dir(), "dc-spill")?;
        let path = root.path().to_path_buf();
        let mut ctx = MemContext::new(MemoryGovernor::new(budget_bytes), path);
        ctx._root_guard = Some(root);
        Ok(ctx)
    }

    /// Install chaos hooks on the spill I/O paths.
    pub fn with_hooks(mut self, hooks: Arc<dyn SpillHooks>) -> MemContext {
        self.hooks = Some(hooks);
        self
    }

    /// Create a fresh uniquely-named spill subdirectory for one operator
    /// execution. The returned guard removes it (and every file inside)
    /// on drop — including drops during panic unwinding, which is what
    /// keeps retried attempts from leaking partitions.
    pub fn op_dir(&self, label: &str) -> Result<ScopedSpillDir> {
        ScopedSpillDir::create_in(&self.spill_root, label)
    }

    /// Run the before-write hook, mapping failures to engine errors.
    pub fn check_spill_write(&self) -> Result<()> {
        if let Some(h) = &self.hooks {
            h.before_spill_write()
                .map_err(|e| spill_error("spill write", e))?;
        }
        Ok(())
    }

    /// Run the before-read hook, mapping failures to engine errors.
    pub fn check_spill_read(&self) -> Result<()> {
        if let Some(h) = &self.hooks {
            h.before_spill_read()
                .map_err(|e| spill_error("spill read", e))?;
        }
        Ok(())
    }
}

/// Process-unique suffix counter for spill directory names.
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely-named directory removed (recursively) on drop. `Drop` runs
/// during unwinding too, so spill files cannot outlive a panicking or
/// retried operator attempt.
#[derive(Debug)]
pub struct ScopedSpillDir {
    path: PathBuf,
}

impl ScopedSpillDir {
    /// Create `parent/<label>-<pid>-<n>` (and `parent` itself if needed).
    pub fn create_in(parent: impl AsRef<Path>, label: &str) -> Result<ScopedSpillDir> {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = parent
            .as_ref()
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| spill_error("spill dir create", e))?;
        Ok(ScopedSpillDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Files currently inside (recursive), for leak checks in tests.
    pub fn live_files(&self) -> Vec<PathBuf> {
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let p = entry.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.path, &mut out);
        out
    }
}

impl Drop for ScopedSpillDir {
    fn drop(&mut self) {
        // Best-effort: a failed removal must not turn cleanup into a
        // second panic mid-unwind.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_are_raii() {
        let gov = MemoryGovernor::new(100);
        let r = gov.try_reserve(60).expect("fits");
        assert_eq!(gov.used(), 60);
        assert!(gov.try_reserve(50).is_none());
        let r2 = gov.try_reserve(40).expect("exactly fits");
        assert_eq!(gov.available(), 0);
        drop(r);
        assert_eq!(gov.used(), 40);
        drop(r2);
        assert_eq!(gov.used(), 0);
        assert_eq!(gov.peak(), 100);
    }

    #[test]
    fn reservations_grow_and_settle() {
        let gov = MemoryGovernor::new(100);
        let mut r = gov.try_reserve(40).expect("fits");
        assert!(r.try_grow(60));
        assert!(
            !r.try_grow(1),
            "a refused growth leaves the reservation alone"
        );
        assert_eq!((r.bytes(), gov.used()), (100, 100));
        r.shrink_to(30);
        r.shrink_to(50);
        r.absorb(gov.try_reserve(5).expect("fits"));
        assert_eq!((r.bytes(), gov.used(), gov.peak()), (35, 35, 100));
        drop(r);
        assert_eq!(gov.used(), 0);
    }

    #[test]
    fn force_reserve_over_admits() {
        let gov = MemoryGovernor::new(10);
        let r = gov.reserve_force(1000);
        assert_eq!((gov.used(), gov.forced()), (1000, 1000));
        assert_eq!(r.bytes(), 1000);
        drop(r);
        assert_eq!(gov.used(), 0);
    }

    #[test]
    fn unlimited_always_admits() {
        let gov = MemoryGovernor::unlimited();
        assert!(gov.try_reserve(u64::MAX / 2).is_some());
    }

    #[test]
    fn scoped_dir_removed_on_drop_and_panic() {
        let ctx = MemContext::with_budget(1024).unwrap();
        let root = ctx.spill_root.clone();
        let dir = ctx.op_dir("join").unwrap();
        let kept = dir.path().to_path_buf();
        std::fs::write(dir.path().join("p0.dcb"), b"x").unwrap();
        assert_eq!(dir.live_files().len(), 1);
        drop(dir);
        assert!(!kept.exists(), "op dir must be removed on drop");

        // Unwinding drops the guard too.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = ctx.op_dir("sort").unwrap();
            std::fs::write(dir.path().join("run0.dcb"), b"y").unwrap();
            let p = dir.path().to_path_buf();
            panic!("boom {}", p.display());
        }));
        assert!(result.is_err());
        let leaked: Vec<_> = std::fs::read_dir(&root).unwrap().flatten().collect();
        assert!(leaked.is_empty(), "panic leaked spill dirs: {leaked:?}");
        drop(ctx);
        assert!(!root.exists(), "context root must be removed on drop");
    }

    #[test]
    fn metrics_delta() {
        let m = SpillMetrics::default();
        let before = m.snapshot();
        m.record_event();
        m.record_file(100);
        m.record_file(24);
        let d = m.snapshot().delta_since(before);
        assert_eq!(d.bytes_spilled, 124);
        assert_eq!(d.spill_partitions, 2);
        assert_eq!(d.spill_events, 1);
    }
}
