//! Morsel-driven parallel execution.
//!
//! Every kernel has one body: it splits its input into contiguous row
//! *morsels* ([`morsels`]), processes them on a scoped worker pool (one
//! worker per available core) and re-assembles the per-morsel results in
//! morsel order. The only thing that varies is how many morsels there
//! are. Inputs below [`min_parallel_rows`] rows are a single morsel, which
//! [`run_indexed`] runs inline on the calling thread: for small tables the
//! cost of spawning and stitching dwarfs the work itself.
//!
//! With `--no-default-features` (the `parallel` feature off) every input
//! is a single morsel and [`num_threads`] is 1, so the same kernel bodies
//! run without ever spawning a thread.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Number of workers used for morsel execution; 1 when the `parallel`
/// feature is off.
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

/// Run `f(i)` for `i in 0..n` on the worker pool, returning results in
/// index order. A single task (one morsel) or a single worker runs inline
/// on the calling thread, with no spawn.
pub fn run_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = num_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
