//! A step costs what it depends on, not what its session has collected —
//! measured in what the process asks of the allocator, which repeats
//! exactly where a timing would not.
//!
//! §2.4 keeps a session's DAG on the platform for as long as the session
//! lives, so a session is meant to grow. One session is sent 500 light jobs
//! (load a table, keep one day, sum a column by region; a fresh day every
//! time, so no job's answer is a cache hit — through `Session::submit`,
//! where the load is written the same every time, the table is one from
//! the second job on: the session's first load of it stands for every
//! later copy) and job #500 must allocate no more than
//! 1.25 × the bytes, and make no more than 1.25 × the allocator calls, of
//! job #5 — through `Session::submit`, a step at a time, and through
//! `SessionService`, a job at a time. When the driver planned the whole
//! session DAG for every step the factor was about 100.
//!
//! A job's cost is read as the least of five neighbouring jobs: a `Vec` or
//! a `HashMap` that doubles on one of them (the DAG's nodes, the log, the
//! executor's tables) is paid for by all the jobs since it last did.
//!
//! Everything runs inside one `#[test]`: the counters are process-wide on
//! purpose (serve workers allocate on threads of their own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use datachat::collab::{EnvHandle, Session};
use datachat::engine::{Column, Table};
use datachat::gel::parse_gel;
use datachat::serve::{Request, ServeConfig, SessionService, TenantConfig};
use datachat::skills::{Env, ExecPolicy, SkillCall};
use datachat::storage::{BudgetConfig, CloudDatabase, Pricing};

/// Bytes requested from the allocator since the process started (a
/// `realloc` counts by how much it grows the block), bytes given back, and
/// calls that asked for memory.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed counter
// updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, new) = (layout.size() as u64, new_size as u64);
        ALLOCATED.fetch_add(new.saturating_sub(old), Ordering::Relaxed);
        FREED.fetch_add(old.saturating_sub(new), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one job asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cost {
    bytes: u64,
    calls: u64,
}

fn cost_of(f: impl FnOnce()) -> Cost {
    let (bytes, calls) = (
        ALLOCATED.load(Ordering::Relaxed),
        CALLS.load(Ordering::Relaxed),
    );
    f();
    Cost {
        bytes: ALLOCATED.load(Ordering::Relaxed) - bytes,
        calls: CALLS.load(Ordering::Relaxed) - calls,
    }
}

/// Bytes the process holds right now.
fn live_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed) - FREED.load(Ordering::Relaxed)
}

const JOBS: usize = 504;
const ROWS_PER_DAY: usize = 8;

/// `JOBS` days of `ROWS_PER_DAY` rows, one day a block: every job scans
/// one block of the same size.
fn world() -> EnvHandle {
    let n = JOBS * ROWS_PER_DAY;
    let facts = Table::new(vec![
        (
            "day",
            Column::from_ints((0..n).map(|i| (i / ROWS_PER_DAY) as i64).collect()),
        ),
        (
            "region",
            Column::from_strs((0..n).map(|i| format!("r{}", i % 4)).collect()),
        ),
        (
            "qty",
            Column::from_ints((0..n).map(|i| (i % 17) as i64).collect()),
        ),
        (
            "price",
            Column::from_floats((0..n).map(|i| i as f64 * 0.5).collect()),
        ),
    ])
    .unwrap();
    let mut db = CloudDatabase::new("bench", Pricing::default_cloud());
    db.create_table_with_blocks("facts_small", &facts, ROWS_PER_DAY)
        .unwrap();
    let mut env = Env::new();
    env.catalog.add_database(db).unwrap();
    EnvHandle::new(env)
}

/// The serve-shaped light job over day `day`.
fn light_job(day: usize) -> Vec<SkillCall> {
    [
        "Load the table facts_small from the database bench".to_string(),
        format!("Keep the rows where day >= {day} and day < {}", day + 1),
        "Compute the sum of qty for each region".to_string(),
    ]
    .iter()
    .map(|line| parse_gel(line).unwrap())
    .collect()
}

/// Run jobs `0..JOBS` through `run` and check job #500 against job #5.
/// Returns the bytes a finished job leaves behind, averaged over jobs #101
/// to #500; `settle` runs before each of the two readings (to drop what is
/// held on purpose, like checkpointed results).
fn grow(what: &str, mut run: impl FnMut(Vec<SkillCall>), mut settle: impl FnMut()) -> u64 {
    let mut costs = Vec::with_capacity(JOBS);
    let mut held = [0u64; 2];
    for day in 0..JOBS {
        let job = light_job(day);
        costs.push(cost_of(|| run(job)));
        if let Some(slot) = [100, 500].iter().position(|&n| n == day + 1) {
            settle();
            held[slot] = live_bytes();
        }
    }
    // Jobs are numbered from 1; each side is the least of five neighbours.
    let least = |around: usize| {
        let window = &costs[around - 3..around + 2];
        Cost {
            bytes: window.iter().map(|c| c.bytes).min().unwrap(),
            calls: window.iter().map(|c| c.calls).min().unwrap(),
        }
    };
    let (early, late) = (least(5), least(500));
    eprintln!("{what}: job #5 {early:?}, job #500 {late:?}");
    assert!(early.bytes > 0 && early.calls > 0);
    assert!(
        late.bytes * 4 <= early.bytes * 5,
        "{what}: job #500 allocated {} bytes, job #5 {}",
        late.bytes,
        early.bytes
    );
    assert!(
        late.calls * 4 <= early.calls * 5,
        "{what}: job #500 made {} allocator calls, job #5 {}",
        late.calls,
        early.calls
    );
    let retained = (held[1] - held[0]) / 400;
    eprintln!("{what}: {retained} bytes retained per finished job");
    retained
}

#[test]
fn the_500th_job_of_a_session_costs_what_the_5th_did() {
    // A step at a time through `Session::submit`.
    let session = Session::new(1, "ann", world(), ExecPolicy::plain());
    let retained = grow(
        "Session::submit",
        |job| {
            let mut last = None;
            for call in job {
                last = Some(session.submit("ann", call).unwrap());
            }
            assert_eq!(last.unwrap().as_table().unwrap().num_rows(), 4);
        },
        || session.clear_checkpoints(),
    );
    // With its checkpoints dropped, what a finished job leaves is three
    // nodes with their calls and three log entries naming them.
    assert!(retained < 2 << 10, "{retained} bytes retained per job");
    assert_eq!(session.log().len(), 3 * JOBS);
    assert_eq!(
        session.log()[1],
        (
            "ann".to_string(),
            "Keep the rows where ((day >= 0) AND (day < 1))".to_string()
        )
    );

    // A job at a time through the serve layer: admission prices the planned
    // steps under the world lock, one worker runs the slices.
    let service = SessionService::start(
        world(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let budget = BudgetConfig::fixed(u64::MAX / 4);
    service
        .register_tenant("bob", TenantConfig::new().budget(budget))
        .unwrap();
    // Checkpointed results stay (the default limit is far away), so this
    // reading includes them.
    let retained = grow(
        "SessionService",
        |job| {
            let result = service.run("bob", Request::new(job));
            let out = result.outcome.unwrap();
            assert_eq!(out.as_table().unwrap().num_rows(), 4);
            assert_eq!(result.bytes_charged, result.bytes_estimated);
        },
        || {},
    );
    assert!(retained < 8 << 10, "{retained} bytes retained per job");
}
