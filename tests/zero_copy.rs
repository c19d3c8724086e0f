//! A result exists once from the storage block to the reply — measured in
//! bytes the process allocates, which is what a copy costs whatever the
//! values compare equal to.
//!
//! A counting global allocator wraps the system one. Over a 200 000-row,
//! 8-column table with a high-cardinality plain-`Str` column (≈ 18 MB):
//! every pass-through step, every cache hit and every hand-over between
//! driver, cache tiers, session, artifact and serve layer allocates less
//! than 64 KiB, and a 12-step wrangling chain allocates less than 1.5 × the
//! bytes of the columns it creates.
//!
//! Everything runs inside one `#[test]`, so no other test's allocations
//! reach the counter (the counter is process-wide on purpose: serve
//! workers and wave threads allocate on threads of their own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datachat::collab::{Artifact, EnvHandle, Session};
use datachat::engine::{Column, Expr, Table, Value};
use datachat::serve::{Request, ServeConfig, SessionService, TenantConfig};
use datachat::skills::resilient::ExecPolicy;
use datachat::skills::{
    execute_call, DatePart, Env, Executor, MaterializedCache, SkillCall, SkillDag, SkillOutput,
};
use datachat::storage::{CloudDatabase, Pricing};

/// Bytes requested from the allocator since the process started; a
/// `realloc` counts by how much it grows the block.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated (on any thread, while it ran), beside its result.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

const ROWS: usize = 200_000;
/// What a step that copies no column may allocate: schemas, plans, keys,
/// reports — never a buffer (the narrowest column here is 200 KB).
const SMALL: u64 = 64 << 10;

fn facts() -> Table {
    let n = ROWS;
    let price = |i: usize| (i % 13 != 6).then_some((i % 997) as f64 * 0.25);
    Table::new(vec![
        ("day", Column::from_ints((0..n as i64).collect())),
        (
            "store",
            Column::from_ints((0..n).map(|i| (i % 211) as i64).collect()),
        ),
        (
            "price",
            Column::from_opt_floats((0..n).map(price).collect()),
        ),
        (
            "qty",
            Column::from_ints((0..n).map(|i| (i % 17) as i64).collect()),
        ),
        (
            "region",
            Column::from_strs((0..n).map(|i| format!("region_{}", i % 6)).collect()),
        ),
        (
            "note",
            Column::from_strs((0..n).map(|i| format!(" note {i} ")).collect()),
        ),
        (
            "flag",
            Column::from_bools((0..n).map(|i| i % 3 == 0).collect()),
        ),
        (
            "sold",
            Column::from_dates((0..n).map(|i| 15_000 + (i % 3_000) as i32).collect()),
        ),
    ])
    .unwrap()
}

/// A world holding the facts twice: as the saved dataset `facts` (plain
/// strings, as a CSV load leaves them) and as the one-block catalog table
/// `db.facts` (dictionary-encoded by storage).
fn world(t: &Table) -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("facts", t, ROWS).unwrap();
    env.catalog.add_database(db).unwrap();
    env.save_table("facts", t.clone());
    env
}

fn use_facts() -> SkillCall {
    SkillCall::UseDataset {
        name: "facts".into(),
        version: None,
    }
}

fn load_facts() -> SkillCall {
    SkillCall::load_table("db", "facts")
}

fn rename(from: &str, to: &str) -> SkillCall {
    SkillCall::RenameColumn {
        from: from.into(),
        to: to.into(),
    }
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn table_of(out: &SkillOutput) -> &Table {
    out.as_table().expect("a table output")
}

#[test]
fn results_exist_once() {
    let t = facts();
    assert!(t.column("note").unwrap().as_strs().is_some());
    assert!(t.byte_size() > 12 << 20, "{} bytes", t.byte_size());

    pass_through_skills(&t);
    executor_and_both_cache_tiers(&t);
    session_artifact_and_serve(&t);
    wrangling_chain(&t);
    join_state_and_output();
}

/// An inner join of the benchmark's selfjoin shape (a quarter of 36 000
/// fact rows against two columns of all of them, ~n/4 customers) allocates
/// the state it books and its output: no map per morsel, no optional
/// indices, no second copy of a column.
fn join_state_and_output() {
    use datachat::engine::ops::{join, spill::join_state_bytes, JoinType};
    let n = 36_000usize;
    let cust = |i: usize| {
        (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            % 9_000
    };
    let facts = Table::new(vec![
        (
            "day",
            Column::from_ints((0..n).map(|i| (i * 365 / n) as i64).collect()),
        ),
        (
            "region",
            Column::from_strs((0..n).map(|i| format!("region_{}", i % 20)).collect()).dict_encode(),
        ),
        (
            "cust",
            Column::from_ints((0..n).map(|i| cust(i) as i64).collect()),
        ),
        (
            "qty",
            Column::from_ints((0..n).map(|i| (i % 21) as i64).collect()),
        ),
    ])
    .unwrap();
    let left = facts.head(n / 4);
    let right = facts.select(&["cust", "qty"]).unwrap();
    let (out, bytes) = allocated(|| join(&left, &right, &["cust"], &["cust"], JoinType::Inner));
    let out = out.unwrap();
    assert!(out.num_rows() > 4 * left.num_rows() - left.num_rows() / 2);
    let state = join_state_bytes(right.num_rows() as u64, left.num_rows() as u64, 1);
    let bound = state + out.byte_size() as u64 * 3 / 2;
    assert!(
        bytes <= bound,
        "join allocated {bytes} bytes, {state} of state booked, {} of output",
        out.byte_size()
    );
}

/// `execute_call` on steps that change no column's contents.
fn pass_through_skills(t: &Table) {
    let mut env = world(t);
    let keep_all = SkillCall::KeepRows {
        predicate: Expr::col("day").ge(Expr::lit(0i64)),
    };
    let steps: Vec<(&str, SkillCall)> = vec![
        ("UseDataset", use_facts()),
        ("RenameColumn", rename("note", "memo")),
        (
            "DropColumns",
            SkillCall::DropColumns {
                columns: strings(&["flag", "store"]),
            },
        ),
        (
            "KeepColumns",
            SkillCall::KeepColumns {
                columns: strings(&["note", "day", "price"]),
            },
        ),
        (
            "SaveArtifact",
            SkillCall::SaveArtifact {
                name: "kept".into(),
            },
        ),
        (
            "Snapshot",
            SkillCall::Snapshot {
                name: "snap".into(),
            },
        ),
    ];
    for (what, call) in steps {
        let (out, bytes) = allocated(|| execute_call(&call, &[t], &mut env));
        out.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(bytes < SMALL, "{what} allocated {bytes} bytes");
    }
    let reads: Vec<(&str, SkillCall)> = vec![
        (
            "UseDataset of a saved artifact",
            SkillCall::UseDataset {
                name: "kept".into(),
                version: None,
            },
        ),
        (
            "UseSnapshot",
            SkillCall::UseSnapshot {
                name: "snap".into(),
            },
        ),
        ("one-block LoadTable", load_facts()),
        (
            "one-block LoadTable of two columns",
            SkillCall::LoadTable {
                database: "db".into(),
                table: "facts".into(),
                columns: Some(strings(&["note", "price"])),
                predicate: None,
            },
        ),
    ];
    for (what, call) in reads {
        let (out, bytes) = allocated(|| execute_call(&call, &[], &mut env));
        let out = out.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(table_of(&out).num_rows(), ROWS, "{what}");
        assert!(bytes < SMALL, "{what} allocated {bytes} bytes");
    }

    // A filter that keeps every row (the node pushdown leaves above a fused
    // scan) evaluates its predicate — per morsel a slice of `day`, a
    // broadcast literal and a mask — and then hands its input on. Gathering
    // would allocate the table over again.
    let (out, bytes) = allocated(|| execute_call(&keep_all, &[t], &mut env));
    assert!(table_of(&out.unwrap()).shares_columns_with(t));
    assert!(
        bytes < t.byte_size() as u64 / 4,
        "all-rows KeepRows allocated {bytes} bytes"
    );
}

/// load (one block) → rename → keep columns: nothing in it makes a column.
fn pass_through_dag(first: SkillCall) -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let l = dag.add(first, vec![]).unwrap();
    let r = dag.add(rename("note", "memo"), vec![l]).unwrap();
    let keep = SkillCall::KeepColumns {
        columns: strings(&["memo", "day", "price", "region"]),
    };
    let k = dag.add(keep, vec![r]).unwrap();
    (dag, k)
}

/// `Executor::{run, table_of, finish}`, `run_resilient`, `admit_as`,
/// `get_as` and `probe_shared`.
fn executor_and_both_cache_tiers(t: &Table) {
    let shared = Arc::new(MaterializedCache::new(256 << 20));
    let mut env = world(t);
    env.shared_cache = Some(Arc::clone(&shared));
    let (dag, target) = pass_through_dag(load_facts());

    // Cold: three nodes execute, each result is recorded in the session
    // tier and admitted to the shared one, and the target's is returned.
    let mut cold = Executor::new();
    let (out, bytes) = allocated(|| cold.run(&dag, target, &mut env));
    let first = out.unwrap();
    assert_eq!(cold.stats.nodes_executed, 3);
    assert!(shared.stats().insertions >= 1);
    assert!(bytes < SMALL, "cold run allocated {bytes} bytes");
    // Admission charged each entry's buffers once.
    let entries = shared.stats().entries as u64;
    let resident = shared.stats().resident_bytes;
    assert!(resident <= entries * t.byte_size() as u64, "{resident}");

    let (out, bytes) = allocated(|| cold.run(&dag, target, &mut env));
    assert_eq!(out.unwrap(), first);
    assert_eq!(cold.stats.nodes_executed, 3);
    assert!(bytes < SMALL, "local hit allocated {bytes} bytes");

    let (flow, bytes) = allocated(|| cold.table_of(&dag, target, &mut env));
    assert!(flow.unwrap().shares_columns_with(table_of(&first)));
    assert!(bytes < SMALL, "table_of allocated {bytes} bytes");

    let mut warm = Executor::new();
    let (out, bytes) = allocated(|| warm.run(&dag, target, &mut env));
    assert_eq!(out.unwrap(), first);
    assert_eq!(warm.stats.nodes_executed, 0);
    assert!(warm.stats.shared_hits >= 1);
    assert!(bytes < SMALL, "shared-tier hit allocated {bytes} bytes");

    // The resilient driver, cold (its own tier empty, the shared one
    // bypassed by a fresh cache) and warm.
    env.shared_cache = Some(Arc::new(MaterializedCache::new(256 << 20)));
    let policy = ExecPolicy::default();
    let mut resilient = Executor::new();
    let (report, bytes) = allocated(|| resilient.run_resilient(&dag, target, &mut env, &policy));
    assert_eq!(report.unwrap().output.as_ref(), Some(&first));
    assert_eq!(resilient.stats.nodes_executed, 3);
    assert!(bytes < SMALL, "cold resilient run allocated {bytes} bytes");
    let (report, bytes) = allocated(|| resilient.run_resilient(&dag, target, &mut env, &policy));
    assert_eq!(report.unwrap().output.as_ref(), Some(&first));
    assert!(bytes < SMALL, "warm resilient run allocated {bytes} bytes");
}

/// `Session::submit`, `Artifact::{save, refresh}` and a `dc-serve` job's
/// completion.
fn session_artifact_and_serve(t: &Table) {
    let handle = EnvHandle::new(world(t));

    let session = Session::new(1, "ann", handle.clone(), ExecPolicy::plain());
    let steps = [
        use_facts(),
        rename("note", "memo"),
        SkillCall::DropColumns {
            columns: strings(&["flag"]),
        },
    ];
    for call in steps {
        let what = call.name();
        let (out, bytes) = allocated(|| session.submit("ann", call));
        assert_eq!(table_of(&out.unwrap()).num_rows(), ROWS);
        assert!(bytes < SMALL, "submit {what} allocated {bytes} bytes");
    }

    let dag = session.dag_snapshot();
    let target = session.current_node().unwrap();
    let (artifact, bytes) =
        allocated(|| handle.with(|env| Artifact::save("board", "ann", &dag, target, env)));
    let mut artifact = artifact.unwrap();
    assert_eq!(table_of(&artifact.output).num_rows(), ROWS);
    assert!(bytes < SMALL, "Artifact::save allocated {bytes} bytes");
    let (version, bytes) = allocated(|| handle.with(|env| artifact.refresh(env)));
    assert_eq!(version.unwrap(), 2);
    assert!(bytes < SMALL, "Artifact::refresh allocated {bytes} bytes");

    // One job through the serve layer: admission, queueing, a worker's
    // slices and the answer handed back across threads. Its bookkeeping
    // is more than a session's, but it is still not a column.
    let service = SessionService::start(handle.clone(), ServeConfig::default());
    service.register_tenant("bob", TenantConfig::new()).unwrap();
    let program = vec![load_facts(), rename("note", "memo"), use_facts()];
    let (result, bytes) = allocated(|| service.run("bob", Request::new(program)));
    let out = result.outcome.unwrap();
    assert!(table_of(&out).shares_columns_with(t));
    assert!(bytes < 2 * SMALL, "serve job allocated {bytes} bytes");
}

/// Twelve steps through a session, five of which make a column. What the
/// chain allocates is those columns and the scratch of evaluating them; a
/// step that copied its input even once would add the whole table.
fn wrangling_chain(t: &Table) {
    let session = Session::new(2, "ann", EnvHandle::new(world(t)), ExecPolicy::plain());
    let create = |name: &str, expr: Expr| SkillCall::CreateColumn {
        name: name.into(),
        expr,
    };
    let steps = vec![
        use_facts(),
        rename("note", "memo"),
        create("revenue", Expr::col("price").mul(Expr::col("qty"))),
        SkillCall::DropColumns {
            columns: strings(&["flag"]),
        },
        SkillCall::TrimColumn {
            column: "memo".into(),
        },
        create("basket", Expr::col("qty").add(Expr::col("store"))),
        rename("sold", "sold_on"),
        SkillCall::ExtractDatePart {
            column: "sold_on".into(),
            part: DatePart::Year,
            name: Some("year".into()),
        },
        SkillCall::KeepColumns {
            columns: strings(&[
                "day", "price", "region", "memo", "revenue", "basket", "year",
            ]),
        },
        SkillCall::FillMissing {
            column: "price".into(),
            value: Value::Float(0.0),
        },
        rename("memo", "note"),
        SkillCall::DropColumns {
            columns: strings(&["day"]),
        },
    ];
    assert_eq!(steps.len(), 12);

    // One morsel per kernel call: split across workers, expression
    // evaluation slices its operands per morsel and stitches the parts,
    // scratch of the kernels that is no business of the table layer.
    let threshold = datachat::engine::parallel::set_min_parallel_rows(usize::MAX);
    let mut created = 0u64;
    let mut before = t.clone();
    let (_, bytes) = allocated(|| {
        for call in steps {
            let what = call.name();
            let out = session.submit("ann", call);
            let out = out.unwrap_or_else(|e| panic!("{what}: {e}"));
            let after = table_of(&out).clone();
            // A column is created when no column of the step's input is
            // the same allocation.
            for col in after.columns() {
                if !before.columns().iter().any(|b| Arc::ptr_eq(b, col)) {
                    created += col.byte_size() as u64;
                }
            }
            before = after;
        }
    });
    datachat::engine::parallel::set_min_parallel_rows(threshold);
    assert_eq!(
        before.schema().names(),
        ["price", "region", "note", "revenue", "basket", "year"]
    );
    assert_eq!(before.column("price").unwrap().null_count(), 0);
    assert!(created > 8 << 20, "created {created} bytes");
    assert!(
        bytes < created + created / 2,
        "chain allocated {bytes} bytes to create {created}"
    );
}
