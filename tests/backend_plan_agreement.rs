//! One table, two backends, two statistics providers, one plan.
//!
//! The optimizer plans from `PlanStats`. The executor answers it from the
//! live `Env`, the analyzer from `AnalysisContext::from_env`; a catalog
//! table lives in RAM (`create_table_with_blocks`) or in a block file
//! (`create_table_on_disk`). Whichever combination is used, the same
//! recipe must optimize to the same calls, return the same table and
//! charge the same bytes — otherwise the analyzer prices a plan the
//! executor does not run, or a board refresh pays for columns it drops.

use datachat::analyze::AnalysisContext;
use datachat::engine::{AggFunc, AggSpec, Column, Expr, JoinType, Table};
use datachat::skills::{optimize_dag, Env, Executor, NodeId, SkillCall, SkillDag, SkillOutput};
use datachat::storage::{CloudDatabase, Pricing};

const DB: &str = "db";
const BLOCK_ROWS: usize = 128;

fn facts(rows: usize) -> Table {
    let regions = ["north", "south", "east", "west"];
    Table::new(vec![
        (
            "day",
            Column::from_ints((0..rows as i64).map(|i| i / 4).collect()),
        ),
        (
            "store",
            Column::from_ints((0..rows as i64).map(|i| i % 40).collect()),
        ),
        (
            "region",
            Column::from_strs((0..rows).map(|i| regions[i * 7 % 4]).collect::<Vec<_>>()),
        ),
        (
            "qty",
            Column::from_opt_ints(
                (0..rows as i64)
                    .map(|i| (i % 11 != 0).then_some(i % 9))
                    .collect(),
            ),
        ),
        (
            "price",
            Column::from_floats((0..rows).map(|i| 1.0 + (i % 97) as f64 / 4.0).collect()),
        ),
        (
            "note",
            Column::from_strs(
                (0..rows)
                    .map(|i| format!("n{}", i % 13))
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
    .unwrap()
}

fn stores() -> Table {
    let tiers = ["gold", "silver", "bronze"];
    Table::new(vec![
        ("store", Column::from_ints((0..40).collect())),
        (
            "tier",
            Column::from_strs((0..40).map(|i| tiers[i % 3]).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

/// Both tables in both backends: `facts_mem` / `facts_disk`, `stores_mem`
/// / `stores_disk`. The block files under `dir` live until the `Env` is
/// dropped.
fn world(dir: &std::path::Path) -> Env {
    let mut db = CloudDatabase::new(DB, Pricing::default_cloud());
    for (name, table) in [("facts", facts(1000)), ("stores", stores())] {
        db.create_table_with_blocks(format!("{name}_mem"), &table, BLOCK_ROWS)
            .unwrap();
        db.create_table_on_disk(format!("{name}_disk"), &table, BLOCK_ROWS, dir)
            .unwrap();
    }
    let mut env = Env::new();
    env.catalog.add_database(db).unwrap();
    env
}

/// Filter on a prunable column, join a unique-key dimension, aggregate:
/// projection, predicate pushdown and the join-order statistics all get
/// asked about the loaded tables.
fn recipe(backend: &str) -> (SkillDag, NodeId) {
    let mut dag = SkillDag::new();
    let load = |dag: &mut SkillDag, name: &str| {
        let call = SkillCall::load_table(DB, format!("{name}_{backend}"));
        dag.add(call, vec![]).unwrap()
    };
    let facts = load(&mut dag, "facts");
    let recent = SkillCall::KeepRows {
        predicate: Expr::col("day").ge(Expr::lit(150)),
    };
    let recent = dag.add(recent, vec![facts]).unwrap();
    let dim = load(&mut dag, "stores");
    let join = SkillCall::Join {
        other: "stores".into(),
        left_on: vec!["store".into()],
        right_on: vec!["store".into()],
        how: JoinType::Inner,
    };
    let joined = dag.add(join, vec![recent, dim]).unwrap();
    let sum = SkillCall::Compute {
        aggs: vec![AggSpec {
            func: AggFunc::Sum,
            column: Some("qty".into()),
            output: AggSpec::default_output(AggFunc::Sum, Some("qty")),
        }],
        for_each: vec!["tier".into()],
    };
    let target = dag.add(sum, vec![joined]).unwrap();
    (dag, target)
}

/// The DAG's calls with the backend suffix taken off table names.
fn calls(dag: &SkillDag, backend: &str) -> Vec<SkillCall> {
    let suffix = format!("_{backend}");
    let mut calls: Vec<SkillCall> = dag.nodes().iter().map(|n| n.call.clone()).collect();
    for call in &mut calls {
        if let SkillCall::LoadTable { table, .. } = call {
            *table = table
                .strip_suffix(&suffix)
                .expect("backend suffix")
                .to_string();
        }
    }
    calls
}

#[test]
fn both_backends_and_both_stats_providers_plan_and_run_alike() {
    let dir = std::env::temp_dir().join(format!("dc-plan-agreement-{}", std::process::id()));
    let mut env = world(&dir);
    let ctx = AnalysisContext::from_env(&env);
    let mut runs: Vec<(Vec<SkillCall>, SkillOutput, u64)> = Vec::new();
    for backend in ["mem", "disk"] {
        let (dag, target) = recipe(backend);
        let planned = optimize_dag(&dag, &[target], &[], &env).expect("something to rewrite");
        assert_eq!(
            Some(&planned),
            optimize_dag(&dag, &[target], &[], &ctx).as_ref(),
            "{backend}: executor and analyzer statistics plan differently"
        );
        let facts_load = &planned.nodes()[0].call;
        assert!(
            matches!(facts_load, SkillCall::LoadTable { columns: Some(columns), .. } if columns.len() == 3),
            "{backend}: facts load not narrowed to day, store, qty: {facts_load:?}"
        );
        let before = env.scan_tally;
        let out = Executor::new()
            .run(&dag, target, &mut env)
            .expect("recipe runs");
        let charged = env.scan_tally.delta_since(before).bytes_scanned;
        runs.push((calls(&planned, backend), out, charged));
    }
    let (mem, disk) = (&runs[0], &runs[1]);
    assert_eq!(mem.0, disk.0, "plans differ between backends");
    assert_eq!(mem.1, disk.1, "outputs differ between backends");
    assert_eq!(mem.2, disk.2, "bytes_scanned differs between backends");
    // The projection is what keeps the charge below the full table's.
    let full = env
        .catalog
        .database(DB)
        .unwrap()
        .source("facts_disk")
        .unwrap()
        .total_bytes();
    assert!(mem.2 < full / 2, "charged {} of {full} stored bytes", mem.2);
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
}
