//! End-to-end predicate pushdown: a `LoadTable → KeepRows` chain must
//! produce byte-identical output whether or not the planner fuses the
//! filter into the scan, while the fused plan scans strictly fewer
//! bytes — also when the load was written with a column list. Also
//! covers the per-node scan accounting surfaced through `ExecReport`.

use dc_engine::ops::filter;
use dc_engine::{Column, Expr, Table};
use dc_skills::resilient::ExecPolicy;
use dc_skills::{execute_call, plan_linear, Env, Executor, SkillCall, SkillDag};
use dc_storage::{CloudDatabase, Pricing};

/// 4 000 rows clustered on `x` (ascending), split into 256-row blocks,
/// so a selective range predicate can prove most blocks empty.
fn clustered_table() -> Table {
    let n = 4_000usize;
    Table::new(vec![
        ("x", Column::from_ints((0..n as i64).collect())),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 5)).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

fn env() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("events", &clustered_table(), 256)
        .unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

fn chain(pred: Expr) -> (SkillDag, usize, usize) {
    let mut dag = SkillDag::new();
    let l = dag
        .add(SkillCall::load_table("db", "events"), vec![])
        .unwrap();
    let f = dag
        .add(SkillCall::KeepRows { predicate: pred }, vec![l])
        .unwrap();
    (dag, l, f)
}

#[test]
fn pushed_run_matches_filter_over_full_scan_and_prunes_bytes() {
    let pred = Expr::col("x").lt(Expr::lit(100i64));
    let (dag, l, f) = chain(pred.clone());

    // Reference: materialize the raw load (targets are never rewritten),
    // then filter with the engine directly.
    let mut env_ref = env();
    let raw = Executor::new().run(&dag, l, &mut env_ref).unwrap();
    let expected = filter(raw.as_table().unwrap(), &pred).unwrap();
    assert_eq!(
        env_ref.scan_tally.bytes_pruned, 0,
        "a raw load must not be rewritten"
    );

    let mut env = env();
    let out = Executor::new().run(&dag, f, &mut env).unwrap();
    assert_eq!(out.as_table().unwrap(), &expected);
    assert_eq!(out.as_table().unwrap().num_rows(), 100);
    assert!(
        env.scan_tally.bytes_pruned > 0,
        "selective predicate over a clustered column must prune blocks"
    );
    assert!(
        env.scan_tally.bytes_scanned < env_ref.scan_tally.bytes_scanned,
        "pushed scan must be charged fewer bytes than the full scan"
    );
}

#[test]
fn drop_rows_chain_is_pushed_and_equivalent() {
    let pred = Expr::col("x").ge(Expr::lit(100i64));
    let mut dag = SkillDag::new();
    let l = dag
        .add(SkillCall::load_table("db", "events"), vec![])
        .unwrap();
    let f = dag
        .add(
            SkillCall::DropRows {
                predicate: pred.clone(),
            },
            vec![l],
        )
        .unwrap();

    let mut env_ref = env();
    let raw = Executor::new().run(&dag, l, &mut env_ref).unwrap();
    let keep = Expr::col("x").lt(Expr::lit(100i64));
    let expected = filter(raw.as_table().unwrap(), &keep).unwrap();

    let mut env = env();
    let out = Executor::new().run(&dag, f, &mut env).unwrap();
    assert_eq!(out.as_table().unwrap(), &expected);
    assert!(env.scan_tally.bytes_pruned > 0);
}

#[test]
fn resilient_report_carries_per_node_scan_bytes() {
    let pred = Expr::col("x").lt(Expr::lit(100i64));
    let (dag, l, f) = chain(pred.clone());

    let mut env_ref = env();
    let raw = Executor::new().run(&dag, l, &mut env_ref).unwrap();
    let expected = filter(raw.as_table().unwrap(), &pred).unwrap();

    let mut env = env();
    let report = Executor::new()
        .run_resilient(&dag, f, &mut env, &ExecPolicy::default())
        .unwrap();
    assert!(report.succeeded());
    assert_eq!(
        report.output.as_ref().unwrap().as_table().unwrap(),
        &expected
    );

    let lr = report.node(l).unwrap();
    assert!(lr.bytes_scanned > 0, "the load node scans real bytes");
    assert!(lr.bytes_pruned > 0, "the pushed predicate prunes blocks");
    let fr = report.node(f).unwrap();
    assert_eq!(fr.bytes_scanned, 0, "pure nodes touch no storage");
    assert_eq!(fr.bytes_pruned, 0);
    assert_eq!(report.bytes_scanned(), lr.bytes_scanned);
    assert_eq!(report.bytes_pruned(), lr.bytes_pruned);
    assert_eq!(
        lr.bytes_scanned + lr.bytes_pruned,
        env_ref.scan_tally.bytes_scanned,
        "scanned + pruned must add up to the full-scan footprint"
    );
}

/// A load *written* with a column list takes a filter like any other: the
/// rule keys on the load having no scan predicate yet, not on how it was
/// spelled.
#[test]
fn a_filter_over_a_written_projected_load_is_pushed() {
    let recipe = dc_gel::Recipe::parse(
        "Load the columns x of the table events from the database db\n\
         Keep the rows where x < 100",
    )
    .unwrap();
    let (dag, node_of_step) = recipe.to_dag().unwrap();
    let target = node_of_step[1];

    // The recipe as written: the optimizer off means no rewrite at all.
    let mut env_ref = env();
    let mut as_written = Executor::new();
    as_written.optimize = false;
    let expected = as_written.run(&dag, target, &mut env_ref).unwrap();
    assert_eq!(env_ref.scan_tally.bytes_pruned, 0);

    let mut env = env();
    let out = Executor::new().run(&dag, target, &mut env).unwrap();
    assert_eq!(out, expected);
    assert_eq!(out.as_table().unwrap().schema().names(), vec!["x"]);
    assert_eq!(out.as_table().unwrap().num_rows(), 100);
    assert!(env.scan_tally.bytes_pruned > 0, "zone maps must prune");
    assert!(
        env.scan_tally.bytes_scanned < env_ref.scan_tally.bytes_scanned,
        "fused {} vs as written {}",
        env.scan_tally.bytes_scanned,
        env_ref.scan_tally.bytes_scanned
    );

    // The same through the step list a serve request is fused as: the
    // load keeps its columns, gains the predicate, and charges less.
    let fused = plan_linear(recipe.steps(), &self::env()).expect("the load step is eligible");
    assert_eq!(fused[1], recipe.steps()[1], "the filter step stays");
    let SkillCall::LoadTable {
        columns: Some(columns),
        predicate: Some(_),
        ..
    } = &fused[0]
    else {
        panic!(
            "expected a projected load with a predicate, got {:?}",
            fused[0]
        );
    };
    assert_eq!(columns, &["x".to_string()]);
    let (mut env_steps, mut env_fused) = (self::env(), self::env());
    let unfused_rows = execute_call(&recipe.steps()[0], &[], &mut env_steps).unwrap();
    let fused_rows = execute_call(&fused[0], &[], &mut env_fused).unwrap();
    let keep = |rows: &dc_skills::SkillOutput| {
        execute_call(&fused[1], &[rows.as_table().unwrap()], &mut Env::new()).unwrap()
    };
    assert_eq!(keep(&fused_rows), keep(&unfused_rows));
    assert!(env_fused.scan_tally.bytes_scanned < env_steps.scan_tally.bytes_scanned);
}
