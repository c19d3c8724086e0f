//! Integration tests for resilient DAG execution under injected faults:
//! retry, subgraph isolation + resume, panic isolation, budgets with
//! cooperative cancellation, and degraded scans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_engine::{Column, Expr, JoinType, Table};
use dc_skills::resilient::{ExecPolicy, NodeOutcome};
use dc_skills::{Env, Executor, SkillCall, SkillDag, SkillError};
use dc_storage::{CloudDatabase, FaultConfig, FaultInjector, FaultOp, InjectedFault, Pricing};

fn table(n: usize) -> Table {
    Table::new(vec![
        ("x", Column::from_ints((0..n as i64).collect())),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 5)).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

/// An environment with one database `db` holding `events` (and
/// optionally more tables), split into many small blocks so block-level
/// faults have somewhere to land.
fn env_with(tables: &[&str]) -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    for name in tables {
        db.create_table_with_blocks(*name, &table(4_000), 256)
            .unwrap();
    }
    env.catalog.add_database(db).unwrap();
    env
}

fn inject(env: &mut Env, config: FaultConfig) -> Arc<FaultInjector> {
    let inj = Arc::new(FaultInjector::new(config));
    env.catalog.set_fault_injector(&inj);
    inj
}

fn load(dag: &mut SkillDag, table: &str) -> usize {
    dag.add(SkillCall::load_table("db", table), vec![]).unwrap()
}

fn filter(dag: &mut SkillDag, input: usize) -> usize {
    dag.add(
        SkillCall::KeepRows {
            predicate: Expr::col("x").ge(Expr::lit(100i64)),
        },
        vec![input],
    )
    .unwrap()
}

/// load → filter chain; returns (dag, load node, filter node).
fn chain() -> (SkillDag, usize, usize) {
    let mut dag = SkillDag::new();
    let l = load(&mut dag, "events");
    let f = filter(&mut dag, l);
    (dag, l, f)
}

#[test]
fn retry_absorbs_scheduled_transient() {
    let (dag, l, f) = chain();

    // Fault-free reference.
    let mut env0 = env_with(&["events"]);
    let expected = Executor::new().run(&dag, f, &mut env0).unwrap();

    let mut env = env_with(&["events"]);
    inject(
        &mut env,
        FaultConfig::disabled().schedule(FaultOp::Scan, 0, InjectedFault::Transient),
    );
    let mut ex = Executor::new();
    let report = ex
        .run_resilient(&dag, f, &mut env, &ExecPolicy::default())
        .unwrap();

    assert!(report.succeeded(), "transient fault must be absorbed");
    assert_eq!(
        report.output.as_ref().unwrap().as_table().unwrap(),
        expected.as_table().unwrap(),
        "retried run must match the fault-free run"
    );
    let lr = report.node(l).unwrap();
    assert!(matches!(lr.outcome, NodeOutcome::Ok));
    assert_eq!(lr.attempts, 2, "one failure, one successful retry");
    assert_eq!(lr.faults_absorbed, 1);
    assert!(!lr.degraded);
    assert_eq!(report.node(f).unwrap().attempts, 1);
    assert_eq!(ex.stats.retries, 1);
    assert_eq!(report.faults_absorbed(), 1);
}

#[test]
fn outage_fails_only_dependent_subgraph_and_resume_reruns_frontier() {
    // loadA → filterA ─┐
    //                  ├─ join
    // loadB → filterB ─┘
    let mut dag = SkillDag::new();
    let la = load(&mut dag, "a");
    let fa = filter(&mut dag, la);
    let lb = load(&mut dag, "b");
    let fb = filter(&mut dag, lb);
    let j = dag
        .add(
            SkillCall::Join {
                other: "b".into(),
                left_on: vec!["x".into()],
                right_on: vec!["x".into()],
                how: JoinType::Inner,
            },
            vec![fa, fb],
        )
        .unwrap();

    let mut env = env_with(&["a", "b"]);
    // The first scan of the run hits a hard outage (not retryable).
    inject(
        &mut env,
        FaultConfig::disabled().schedule(FaultOp::Scan, 0, InjectedFault::Unavailable),
    );
    let mut ex = Executor::new();
    let report = ex
        .run_resilient(&dag, j, &mut env, &ExecPolicy::default())
        .unwrap();

    assert!(!report.succeeded());
    let failed = report.failed_nodes();
    assert_eq!(failed.len(), 1, "exactly one load hits the outage");
    let dead_load = failed[0];
    assert!(dead_load == la || dead_load == lb);
    let (dead_filter, live_load, live_filter) = if dead_load == la {
        (fa, lb, fb)
    } else {
        (fb, la, fa)
    };
    assert_eq!(
        report.node(dead_load).unwrap().attempts,
        1,
        "no retry on outage"
    );
    assert!(matches!(
        report.node(dead_load).unwrap().outcome,
        NodeOutcome::Failed(SkillError::Storage(
            dc_storage::StorageError::Unavailable { .. }
        ))
    ));
    // The sibling branch completes; only the dependent subgraph is lost.
    assert!(matches!(
        report.node(live_load).unwrap().outcome,
        NodeOutcome::Ok
    ));
    assert!(matches!(
        report.node(live_filter).unwrap().outcome,
        NodeOutcome::Ok
    ));
    assert_eq!(report.skipped_nodes(), vec![dead_filter, j]);
    assert_eq!(ex.stats.nodes_executed, 2, "live branch only");

    // Resume: the completed branch is checkpointed in the cache, so only
    // the failed frontier (load → filter → join) re-executes.
    let before = ex.stats.nodes_executed;
    let resumed = ex
        .run_resilient(&dag, j, &mut env, &ExecPolicy::default())
        .unwrap();
    assert!(resumed.succeeded());
    assert_eq!(
        ex.stats.nodes_executed - before,
        3,
        "resume re-runs exactly the failed frontier"
    );
    assert!(matches!(
        resumed.node(live_load).unwrap().outcome,
        NodeOutcome::CacheHit
    ));
    assert!(matches!(
        resumed.node(live_filter).unwrap().outcome,
        NodeOutcome::CacheHit
    ));

    // Same answer as a fault-free run.
    let mut env0 = env_with(&["a", "b"]);
    let expected = Executor::new().run(&dag, j, &mut env0).unwrap();
    assert_eq!(
        resumed.output.unwrap().as_table().unwrap(),
        expected.as_table().unwrap()
    );
}

#[test]
fn panicking_node_poisons_itself_not_the_wave() {
    // load → {limit(999) which panics, filter} → join. The panicking pure
    // node and its healthy sibling share a wave.
    let mut dag = SkillDag::new();
    let l = load(&mut dag, "events");
    let bomb = dag.add(SkillCall::Limit { n: 999 }, vec![l]).unwrap();
    let f = filter(&mut dag, l);
    let j = dag
        .add(
            SkillCall::Join {
                other: "events".into(),
                left_on: vec!["x".into()],
                right_on: vec!["x".into()],
                how: JoinType::Inner,
            },
            vec![bomb, f],
        )
        .unwrap();

    let mut env = env_with(&["events"]);
    let mut ex = Executor::new();
    ex.set_before_execute(|call| {
        if matches!(call, SkillCall::Limit { n: 999 }) {
            panic!("boom");
        }
    });
    let report = ex
        .run_resilient(&dag, j, &mut env, &ExecPolicy::default())
        .unwrap();

    assert!(!report.succeeded());
    let br = report.node(bomb).unwrap();
    match &br.outcome {
        NodeOutcome::Failed(SkillError::Panic { skill, message }) => {
            assert_eq!(skill, "Limit");
            assert!(message.contains("boom"));
        }
        other => panic!("expected panic outcome, got {other:?}"),
    }
    assert_eq!(br.attempts, 1, "panics are not retryable");
    // The wave sibling completed and is checkpointed.
    assert!(matches!(report.node(f).unwrap().outcome, NodeOutcome::Ok));
    assert_eq!(report.skipped_nodes(), vec![j]);
}

#[test]
fn budget_cancels_stalled_scan_cooperatively() {
    let (dag, l, f) = chain();
    let mut env = env_with(&["events"]);
    // The very first block read stalls for 2s; the node budget is 50ms.
    inject(
        &mut env,
        FaultConfig::disabled().schedule(FaultOp::BlockRead, 0, InjectedFault::SlowMs(2_000)),
    );
    let mut ex = Executor::new();
    let policy = ExecPolicy {
        node_budget: Some(Duration::from_millis(50)),
        ..ExecPolicy::default()
    };
    let started = Instant::now();
    let report = ex.run_resilient(&dag, f, &mut env, &policy).unwrap();
    let elapsed = started.elapsed();

    assert!(
        report.succeeded(),
        "retry after the cancelled attempt succeeds"
    );
    assert!(
        elapsed < Duration::from_millis(1_500),
        "cancellation must interrupt the stall, not sit it out (took {elapsed:?})"
    );
    let lr = report.node(l).unwrap();
    assert_eq!(lr.attempts, 2);
    assert_eq!(lr.faults_absorbed, 1);
}

#[test]
fn degraded_scan_after_repeated_full_scan_failures() {
    let (dag, l, f) = chain();

    // Full-scan bytes of a fault-free run, for the cost comparison.
    let mut env0 = env_with(&["events"]);
    Executor::new().run(&dag, f, &mut env0).unwrap();
    let full_bytes = env0.catalog.database("db").unwrap().meter().bytes();
    assert!(full_bytes > 0);

    let mut env = env_with(&["events"]);
    // Every full scan fails; block-sampled scans are spared, so only the
    // degraded path can make progress.
    inject(
        &mut env,
        FaultConfig {
            seed: 42,
            scan_transient_p: 1.0,
            spare_sampled_scans: true,
            ..FaultConfig::disabled()
        },
    );
    let mut ex = Executor::new();
    let policy = ExecPolicy {
        degrade_after: Some(2),
        degraded_fraction: 0.25,
        ..ExecPolicy::default()
    };
    let report = ex.run_resilient(&dag, f, &mut env, &policy).unwrap();

    assert!(
        report.succeeded(),
        "degraded fallback must complete the run"
    );
    let lr = report.node(l).unwrap();
    assert!(lr.degraded, "result must be flagged as degraded");
    assert_eq!(
        lr.attempts, 3,
        "two full-scan failures, one sampled success"
    );
    assert_eq!(lr.faults_absorbed, 2);
    assert_eq!(report.degraded_nodes(), vec![l]);

    // The failed full scans were never metered (they die before reading
    // blocks), so the bill reflects only the cheaper sampled path.
    let degraded_bytes = env.catalog.database("db").unwrap().meter().bytes();
    assert!(
        degraded_bytes < full_bytes,
        "degraded scan must cost less than the full scan \
         ({degraded_bytes} vs {full_bytes} bytes)"
    );
    let out_rows = report.output.unwrap().as_table().unwrap().num_rows();
    let mut env1 = env_with(&["events"]);
    let full_rows = Executor::new()
        .run(&dag, f, &mut env1)
        .unwrap()
        .as_table()
        .unwrap()
        .num_rows();
    assert!(out_rows < full_rows, "sampled scan reads a strict subset");
}

#[test]
fn failed_representative_poisons_structural_duplicates() {
    // l1/l2 and f1/f2 are structurally identical pairs: only one of each
    // executes, the other is an alias of its sub-DAG result. When the
    // representative hits an outage, the alias must be poisoned too —
    // this used to deadlock the wave loop (the alias was neither cached
    // nor marked unusable).
    let mut dag = SkillDag::new();
    let l1 = load(&mut dag, "events");
    let f1 = filter(&mut dag, l1);
    let l2 = load(&mut dag, "events");
    let f2 = filter(&mut dag, l2);
    let j = dag
        .add(
            SkillCall::Join {
                other: "events".into(),
                left_on: vec!["x".into()],
                right_on: vec!["x".into()],
                how: JoinType::Inner,
            },
            vec![f1, f2],
        )
        .unwrap();

    let mut env = env_with(&["events"]);
    inject(
        &mut env,
        FaultConfig::disabled().schedule(FaultOp::Scan, 0, InjectedFault::Unavailable),
    );
    // The optimizer would dedup l2 onto l1 at plan time; keep it off so
    // the driver still sees the structural-duplicate shape this
    // test exists to poison correctly.
    let policy = ExecPolicy::default();
    let mut ex = Executor::new();
    ex.optimize = false;
    let report = ex.run_resilient(&dag, j, &mut env, &policy).unwrap();
    assert!(!report.succeeded());
    assert_eq!(report.failed_nodes().len(), 1);
    // Everything else is either skipped outright or an alias of a
    // poisoned node; nothing executed and nothing hung.
    assert_eq!(ex.stats.nodes_executed, 0);
    assert_eq!(report.skipped_nodes().len(), 4, "l2, f1, f2, join");

    // Resume completes once the outage has passed.
    let resumed = ex.run_resilient(&dag, j, &mut env, &policy).unwrap();
    assert!(resumed.succeeded());
}

#[test]
fn without_faults_resilient_matches_plain_run() {
    let (dag, _, f) = chain();
    let mut env0 = env_with(&["events"]);
    let plain = Executor::new().run(&dag, f, &mut env0).unwrap();

    let mut env = env_with(&["events"]);
    let mut ex = Executor::new();
    let report = ex
        .run_resilient(&dag, f, &mut env, &ExecPolicy::default())
        .unwrap();
    assert_eq!(
        report.output.as_ref().unwrap().as_table().unwrap(),
        plain.as_table().unwrap()
    );
    assert_eq!(report.total_attempts(), 2, "one attempt per node");
    assert_eq!(report.faults_absorbed(), 0);
    assert!(report.degraded_nodes().is_empty());
    assert_eq!(ex.stats.retries, 0);
    assert!(report.first_error().is_none());
}

// ---------------------------------------------------------------------------
// Out-of-core spill chaos: memory-budgeted runs, injected spill-write
// faults, spill-dir leak checks, and byte-identical cache admissibility.
// ---------------------------------------------------------------------------

use dc_engine::MemContext;
use dc_storage::InjectedSpillHooks;

/// A tiny budget every sort/join/group-by state estimate exceeds for the
/// 4 000-row fixture, forcing the spill path.
const TINY_BUDGET: u64 = 8 * 1024;

fn sort(dag: &mut SkillDag, input: usize) -> usize {
    dag.add(
        SkillCall::Sort {
            keys: vec![("x".into(), false)],
        },
        vec![input],
    )
    .unwrap()
}

/// Count entries left under a spill root (operator dirs or stray files).
fn spill_root_entries(ctx: &MemContext) -> usize {
    std::fs::read_dir(&ctx.spill_root)
        .map(|rd| rd.count())
        .unwrap_or(0)
}

#[test]
fn mem_budget_policy_spills_and_matches_unconstrained() {
    let mut dag = SkillDag::new();
    let l = load(&mut dag, "events");
    let s = sort(&mut dag, l);

    let mut env0 = env_with(&["events"]);
    let expected = Executor::new().run(&dag, s, &mut env0).unwrap();

    let mut env = env_with(&["events"]);
    let policy = ExecPolicy {
        mem_budget: Some(TINY_BUDGET),
        ..ExecPolicy::default()
    };
    let mut ex = Executor::new();
    let report = ex.run_resilient(&dag, s, &mut env, &policy).unwrap();

    assert!(report.succeeded());
    assert_eq!(
        report.output.as_ref().unwrap().as_table().unwrap(),
        expected.as_table().unwrap(),
        "spilled run must produce the same rows as the in-memory run"
    );
    assert!(
        report.bytes_spilled > 0,
        "a {TINY_BUDGET}-byte budget must force sorting out of core"
    );
    assert!(report.spill_partitions > 0);
    assert!(
        env.memory.is_none(),
        "the run-scoped memory context must be uninstalled after the run"
    );
}

#[test]
fn spill_write_transient_fault_is_retried_and_cleaned_up() {
    let mut dag = SkillDag::new();
    let l = load(&mut dag, "events");
    let s = sort(&mut dag, l);

    let mut env0 = env_with(&["events"]);
    let expected = Executor::new().run(&dag, s, &mut env0).unwrap();

    // The very first spill write fails transiently; the retry redoes the
    // whole sort and succeeds. The injector is private to the spill
    // hooks — catalog scans never see it.
    let inj = Arc::new(FaultInjector::new(FaultConfig::disabled().schedule(
        FaultOp::SpillWrite,
        0,
        InjectedFault::Transient,
    )));
    let ctx = Arc::new(
        MemContext::with_budget(TINY_BUDGET)
            .unwrap()
            .with_hooks(Arc::new(InjectedSpillHooks::new(Arc::clone(&inj)))),
    );
    let mut env = env_with(&["events"]);
    env.memory = Some(Arc::clone(&ctx));

    let mut ex = Executor::new();
    let report = ex
        .run_resilient(&dag, s, &mut env, &ExecPolicy::default())
        .unwrap();

    assert!(report.succeeded(), "transient spill fault must be absorbed");
    assert_eq!(
        report.output.as_ref().unwrap().as_table().unwrap(),
        expected.as_table().unwrap()
    );
    let sr = report.node(s).unwrap();
    assert_eq!(sr.attempts, 2, "one spill-write failure, one retry");
    assert_eq!(sr.faults_absorbed, 1);
    assert!(
        report.bytes_spilled > 0,
        "the successful retry still runs out of core"
    );
    // Leak check: the failed attempt's partial partition files and the
    // successful attempt's run files are both gone.
    assert_eq!(
        spill_root_entries(&ctx),
        0,
        "no spill files may outlive their operator"
    );
}

#[test]
fn spill_dirs_are_cleaned_even_when_a_downstream_node_panics() {
    // load → sort (spills) → limit(999) which panics. The sort's spill
    // files must be removed even though the run as a whole fails.
    let mut dag = SkillDag::new();
    let l = load(&mut dag, "events");
    let s = sort(&mut dag, l);
    let bomb = dag.add(SkillCall::Limit { n: 999 }, vec![s]).unwrap();

    let ctx = Arc::new(MemContext::with_budget(TINY_BUDGET).unwrap());
    let mut env = env_with(&["events"]);
    env.memory = Some(Arc::clone(&ctx));

    let mut ex = Executor::new();
    ex.set_before_execute(|call| {
        if matches!(call, SkillCall::Limit { n: 999 }) {
            panic!("boom");
        }
    });
    let report = ex
        .run_resilient(&dag, bomb, &mut env, &ExecPolicy::default())
        .unwrap();

    assert!(!report.succeeded());
    assert!(matches!(
        report.node(bomb).unwrap().outcome,
        NodeOutcome::Failed(SkillError::Panic { .. })
    ));
    assert!(matches!(report.node(s).unwrap().outcome, NodeOutcome::Ok));
    assert!(report.bytes_spilled > 0, "the sort ran out of core");
    assert_eq!(
        spill_root_entries(&ctx),
        0,
        "spill files must not leak past a failed run"
    );
    // Dropping the context removes the temp root itself.
    let root = ctx.spill_root.clone();
    env.memory = None;
    drop(ctx);
    assert!(
        !root.exists(),
        "temp spill root must vanish with the context"
    );
}

#[test]
fn spilled_and_retried_result_is_byte_identical_and_cache_admissible() {
    let mut dag = SkillDag::new();
    let l = load(&mut dag, "events");
    let s = sort(&mut dag, l);

    // Unconstrained reference.
    let mut env0 = env_with(&["events"]);
    let expected = Executor::new().run(&dag, s, &mut env0).unwrap();
    let expected = expected.as_table().unwrap();

    // Constrained run with an injected transient spill-write fault AND a
    // shared cache installed: the recovered (non-degraded) result must
    // still be admitted, and only because it is byte-identical to what
    // an in-memory run would have produced.
    let inj = Arc::new(FaultInjector::new(FaultConfig::disabled().schedule(
        FaultOp::SpillWrite,
        0,
        InjectedFault::Transient,
    )));
    let ctx = Arc::new(
        MemContext::with_budget(TINY_BUDGET)
            .unwrap()
            .with_hooks(Arc::new(InjectedSpillHooks::new(inj))),
    );
    let shared = Arc::new(dc_skills::MaterializedCache::new(64 * 1024 * 1024));
    let mut env = env_with(&["events"]);
    env.memory = Some(Arc::clone(&ctx));
    env.shared_cache = Some(Arc::clone(&shared));

    let mut ex = Executor::new();
    let report = ex
        .run_resilient(&dag, s, &mut env, &ExecPolicy::default())
        .unwrap();
    assert!(report.succeeded());
    assert!(report.bytes_spilled > 0);
    let got = report.output.as_ref().unwrap().as_table().unwrap();

    // Byte-level identity: serialize both tables through the spill block
    // format and compare the files bit for bit.
    let dir = std::env::temp_dir().join(format!("dc-chaos-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (pa, pb) = (dir.join("expected.dcb"), dir.join("spilled.dcb"));
    dc_engine::blockio::write_table(&pa, expected, 512).unwrap();
    dc_engine::blockio::write_table(&pb, got, 512).unwrap();
    let identical = std::fs::read(&pa).unwrap() == std::fs::read(&pb).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        identical,
        "spilled-and-retried output must be byte-identical to the in-memory result"
    );

    // Both the load and the recovered sort were admitted as
    // authoritative shared-cache entries (spilling is not degradation).
    assert!(
        shared.stats().insertions >= 2,
        "recovered results must stay cache-admissible (got {:?})",
        shared.stats()
    );
    let probe = shared.stats().hits;
    let mut env2 = env_with(&["events"]);
    env2.shared_cache = Some(Arc::clone(&shared));
    let again = Executor::new()
        .run_resilient(&dag, s, &mut env2, &ExecPolicy::default())
        .unwrap();
    assert!(again.succeeded());
    assert!(
        shared.stats().hits > probe,
        "a second session must be served from the shared entry"
    );
}
