//! Morsel-driven parallel execution on one persistent worker pool.
//!
//! Every kernel has one body: it splits its input into contiguous row
//! *morsels* ([`morsels`]), processes them with [`run_indexed`] and
//! re-assembles the per-morsel results in morsel order. The only thing that
//! varies is how many morsels there are. Inputs below [`min_parallel_rows`]
//! rows are a single morsel, which [`run_indexed`] runs inline on the
//! calling thread: for small tables handing work to another thread costs
//! more than the work itself.
//!
//! [`run_indexed`] is also how `dc-skills` runs the pure nodes of a wave,
//! so waves and kernels draw from one budget of [`num_threads`] threads:
//! the calling thread plus `num_threads() - 1` *helpers*. The helpers are
//! started on the first call with more than one index and then live for
//! the rest of the process, parked on a condvar while there is no work.
//! A call queues one *job* (its `n` indices) and claims indices of its own
//! job until none are left; idle helpers claim the rest, taking the queued
//! jobs in turn, one index at a time, so concurrent callers share the
//! helpers instead of waiting for one another. The caller then waits only
//! for the indices helpers have already claimed. A job that finds every
//! helper busy is therefore still finished by its caller, which is why
//! nested calls (a wave node running a multi-morsel kernel) cannot
//! deadlock.
//!
//! With `--no-default-features` (the `parallel` feature off) every input
//! is a single morsel and [`num_threads`] is 1, so the same kernel bodies
//! run without ever starting a thread.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Upper bound on rows per morsel. Sized so a handful of columns of one
/// morsel fit comfortably in L2.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// Default dispatch threshold: inputs smaller than this are one morsel.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 32 * 1024;

static MIN_PARALLEL_ROWS: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_PARALLEL_ROWS);

/// Current dispatch threshold in rows.
pub fn min_parallel_rows() -> usize {
    MIN_PARALLEL_ROWS.load(Ordering::Relaxed)
}

/// Override the dispatch threshold, returning the previous value.
///
/// Process-wide; intended for tests (split tiny inputs into several
/// morsels, or pin every input to one). It changes only the morsel count,
/// never which code runs. Clamped to at least 1.
pub fn set_min_parallel_rows(rows: usize) -> usize {
    MIN_PARALLEL_ROWS.swap(rows.max(1), Ordering::Relaxed)
}

/// Number of threads that run morsels and wave nodes: the calling thread
/// plus the pool's helpers. 1 when the `parallel` feature is off.
pub fn num_threads() -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Split `rows` into contiguous morsel ranges: none for an empty input,
/// one when `rows` is under the dispatch threshold or the `parallel`
/// feature is off, several otherwise.
///
/// Aims for several morsels per worker (for load balancing) without going
/// below a quarter of the dispatch threshold or above [`MORSEL_ROWS`].
pub fn morsels(rows: usize) -> Vec<Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    let threshold = min_parallel_rows();
    let size = if !cfg!(feature = "parallel") || rows < threshold {
        rows
    } else {
        let floor = (threshold / 4).max(1);
        rows.div_ceil(num_threads() * 4)
            .clamp(floor.min(MORSEL_ROWS), MORSEL_ROWS)
    };
    (0..rows)
        .step_by(size)
        .map(|start| start..(start + size).min(rows))
        .collect()
}

/// Run `f(i)` for `i in 0..n` on the calling thread and the pool's
/// helpers, returning results in index order. A single index, a
/// one-thread build or a pool that could start no helper runs inline on
/// the calling thread.
///
/// A panic in any index is resumed here, with its payload, once every
/// claimed index has returned; the pool stays usable.
pub fn run_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let helpers = if n > 1 && num_threads() > 1 {
        helpers()
    } else {
        0
    };
    if helpers == 0 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let r = f(i);
        *lock(&slots[i]) = Some(r);
    };
    let task: &(dyn Fn(usize) + Sync + '_) = &task;
    // SAFETY: the helpers need a `'static` closure, and `task` borrows `f`
    // and `slots` from this frame. A helper calls it only for an index it
    // claimed below `n` (`Job::claim`), and `finished` is created before
    // the job is shared: its drop — on return and on unwinding alike —
    // closes the job to further claims and blocks until every claimed
    // index has returned. So no call of `task` outlives this frame. The
    // `Arc<Job>` a helper may still hold afterwards only ever touches the
    // job's own counters, never `task`. This is the invariant the
    // standard library's scoped threads rely on.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job::new(task, n));
    let finished = Finished(&job);
    POOL.submit(&job, helpers.min(n - 1));
    while let Some(i) = job.claim() {
        job.run(i);
    }
    drop(finished);
    if let Some(payload) = lock(&job.panic).take() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            let r = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            r.expect("every index of a finished job has run")
        })
        .collect()
}

/// Run `f` over each morsel range, returning per-morsel results in range
/// order.
pub fn run_morsels<R, F>(ranges: &[Range<usize>], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    run_indexed(ranges.len(), |i| f(ranges[i].clone()))
}

/// Lock a pool mutex. Every index runs under `catch_unwind` outside any
/// pool lock, and each update under one is a single store, so a poisoned
/// guard still holds valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `run_indexed` call: `n` indices of the caller's closure.
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    n: usize,
    /// The next index to claim. Claims are `fetch_add`s, so each index is
    /// claimed exactly once; at `n` or past it the job is exhausted.
    /// Relaxed: it publishes nothing, `progress` orders the results.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    returned: Condvar,
    /// The first panic payload of any index.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

#[derive(Default)]
struct Progress {
    /// Claimed indices that have returned or unwound.
    done: usize,
    /// Whether the caller is parked on `returned`.
    waiting: bool,
}

impl Job {
    fn new(task: &'static (dyn Fn(usize) + Sync), n: usize) -> Job {
        Job {
            task,
            n,
            next: AtomicUsize::new(0),
            progress: Mutex::default(),
            returned: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    /// Run one claimed index, keeping the first panic for the caller.
    fn run(&self, i: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
            lock(&self.panic).get_or_insert(payload);
        }
        let mut progress = lock(&self.progress);
        progress.done += 1;
        if progress.waiting {
            self.returned.notify_one();
        }
    }
}

/// Closes its job and waits for every claimed index when dropped.
struct Finished<'j>(&'j Job);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let job = self.0;
        let claimed = job.next.fetch_max(job.n, Ordering::Relaxed).min(job.n);
        let mut progress = lock(&job.progress);
        while progress.done < claimed {
            progress.waiting = true;
            progress = job
                .returned
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The queue the helpers serve.
struct Pool {
    queue: Mutex<Queue>,
    work: Condvar,
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    /// Helpers parked on `work`.
    idle: usize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        idle: 0,
    }),
    work: Condvar::new(),
};

impl Pool {
    /// Queue `job` and wake up to `wanted` parked helpers.
    fn submit(&self, job: &Arc<Job>, wanted: usize) {
        let mut queue = lock(&self.queue);
        queue.jobs.push_back(Arc::clone(job));
        for _ in 0..wanted.min(queue.idle) {
            self.work.notify_one();
        }
    }

    /// A helper's life: claim an index, run it, repeat; park while no
    /// queued job has an index left.
    fn serve(&self) {
        loop {
            let (job, i) = self.next_index();
            job.run(i);
        }
    }

    /// Claim an index of the job at the head of the queue, then move that
    /// job to the back (or drop it once exhausted), so queued jobs take
    /// the helpers in turn.
    fn next_index(&self) -> (Arc<Job>, usize) {
        let mut queue = lock(&self.queue);
        loop {
            while let Some(job) = queue.jobs.pop_front() {
                if let Some(i) = job.claim() {
                    if i + 1 < job.n {
                        queue.jobs.push_back(Arc::clone(&job));
                    }
                    return (job, i);
                }
            }
            queue.idle += 1;
            queue = self
                .work
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.idle -= 1;
        }
    }
}

/// The number of helpers, starting them on the first call. A spawn the
/// system refuses leaves the pool with fewer helpers (none: every call
/// runs inline), never a panic. Helpers serve until the process exits, so
/// their handles are not kept; an index's panic is caught in `Job::run`,
/// so nothing unwinds out of `Pool::serve`.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        (1..num_threads())
            .take_while(|k| {
                std::thread::Builder::new()
                    .name(format!("dc-pool-{k}"))
                    .spawn(|| POOL.serve())
                    .is_ok()
            })
            .count()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn morsels_cover_rows_exactly() {
        for rows in [0usize, 1, 10, MORSEL_ROWS - 1, MORSEL_ROWS, 1_000_000] {
            let ranges = morsels(rows);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, rows);
        }
    }

    #[test]
    fn run_indexed_preserves_order() {
        let out = run_indexed(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_parallel_results_in_index_order() {
        for n in [0, 1, 2, num_threads(), 1_000] {
            let out = run_indexed(n, |i| (i, i * i));
            assert_eq!(
                out,
                (0..n).map(|i| (i, i * i)).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    fn message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    /// Every index sleeps, so with 64 of them both the caller and a helper
    /// run some; which one panics is chosen by `ThreadId`.
    #[test]
    fn pool_parallel_panics_resume_in_the_caller_with_their_payload() {
        let caller = std::thread::current().id();
        let panics_on = |on_caller: bool, what: &'static str| {
            catch_unwind(|| {
                run_indexed(64, |i| {
                    std::thread::sleep(Duration::from_millis(1));
                    if (std::thread::current().id() == caller) == on_caller {
                        panic!("{what} index");
                    }
                    i
                })
            })
            .unwrap_err()
        };
        assert_eq!(message(panics_on(true, "submitter")), "submitter index");
        assert_eq!(run_indexed(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        if num_threads() > 1 {
            assert_eq!(message(panics_on(false, "helper")), "helper index");
            assert_eq!(run_indexed(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn pool_parallel_nests_three_deep() {
        let out = run_indexed(3, |a| {
            run_indexed(4, |b| run_indexed(5, |c| 100 * a + 10 * b + c))
        });
        let want: Vec<Vec<Vec<usize>>> = (0..3)
            .map(|a| {
                (0..4)
                    .map(|b| (0..5).map(|c| 100 * a + 10 * b + c).collect())
                    .collect()
            })
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn pool_parallel_concurrent_submitters_get_their_own_results() {
        let jobs = if cfg!(miri) { 20 } else { 200 };
        let start = Arc::new(std::sync::Barrier::new(8));
        let submitters: Vec<_> = (0..8usize)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::Builder::new()
                    .spawn(move || {
                        start.wait();
                        for job in 0..jobs {
                            let n = 2 + job % 7;
                            let out = run_indexed(n, |i| (t, job, i));
                            assert_eq!(out, (0..n).map(|i| (t, job, i)).collect::<Vec<_>>());
                        }
                    })
                    .unwrap()
            })
            .collect();
        for submitter in submitters {
            submitter.join().unwrap();
        }
    }

    /// Under `parallel` an uncontended job runs at least one index on a
    /// helper; in a one-thread build every index runs on the caller.
    #[test]
    fn pool_parallel_runs_indices_off_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on: Vec<ThreadId> = run_indexed(64, |_| {
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        });
        let off_caller = ran_on.iter().filter(|&&id| id != caller).count();
        if num_threads() > 1 {
            assert!(off_caller > 0, "no index left the calling thread");
        } else {
            assert_eq!(off_caller, 0);
        }
    }

    /// What one round costs: µs per empty 5-index `run_indexed`. Reports,
    /// does not gate. `cargo test --release -p dc-engine round_cost --
    /// --ignored --nocapture`.
    #[test]
    #[ignore]
    fn round_cost_parallel() {
        const ROUNDS: u32 = 20_000;
        run_indexed(5, |i| i);
        let start = Instant::now();
        for _ in 0..ROUNDS {
            std::hint::black_box(run_indexed(5, std::hint::black_box));
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS);
        println!(
            "round_cost: {us:.2} us per empty 5-index run_indexed ({} threads, {ROUNDS} rounds)",
            num_threads()
        );
    }
}
