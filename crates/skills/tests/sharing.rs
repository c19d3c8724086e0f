//! Results exist once: skills that do not change a column's contents hand
//! their input's buffers on, one-block loads hand the storage block's on,
//! and both cache tiers and `Executor::run` hand out what they hold. Every
//! check here is `Arc::ptr_eq` on columns, so a regression to copying —
//! which no value-equality test can see — fails loudly.

use std::sync::Arc;

use dc_engine::{Column, Expr, Table, Value};
use dc_skills::{execute_call, Env, Executor, MaterializedCache, SkillCall, SkillDag};
use dc_storage::{CloudDatabase, Pricing};

const ROWS: usize = 600;

fn facts() -> Table {
    let opt = |i: usize| (i % 9 != 4).then_some(i as f64 * 0.25);
    Table::new(vec![
        ("day", Column::from_ints((0..ROWS as i64).collect())),
        (
            "price",
            Column::from_opt_floats((0..ROWS).map(opt).collect()),
        ),
        (
            "region",
            Column::from_strs((0..ROWS).map(|i| format!("r{}", i % 4)).collect()),
        ),
        (
            "note",
            Column::from_strs((0..ROWS).map(|i| format!("n{i}")).collect()),
        ),
    ])
    .unwrap()
}

/// `one` holds the facts in a single block, `many` in five.
fn env() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("one", &facts(), ROWS).unwrap();
    db.create_table_with_blocks("many", &facts(), 128).unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

/// The names of `out`'s columns that are the very allocations `src` holds
/// under the same name.
fn shared(out: &Table, src: &Table) -> Vec<String> {
    let mut names = Vec::new();
    for (field, col) in out.schema().fields().iter().zip(out.columns()) {
        let at = src.schema().index_of(&field.name);
        if at.is_some_and(|at| Arc::ptr_eq(col, &src.columns()[at])) {
            names.push(field.name.clone());
        }
    }
    names
}

fn run(call: SkillCall, input: &Table, env: &mut Env) -> Table {
    let out = execute_call(&call, &[input], env).unwrap();
    out.into_table().unwrap()
}

fn load(table: &str) -> SkillCall {
    SkillCall::load_table("db", table)
}

#[test]
fn wrangling_steps_share_the_columns_they_do_not_change() {
    let mut env = env();
    let t = facts();

    let out = run(
        SkillCall::UseDataset {
            name: "t".into(),
            version: None,
        },
        &t,
        &mut env,
    );
    assert!(out.shares_columns_with(&t));

    let rename = SkillCall::RenameColumn {
        from: "note".into(),
        to: "memo".into(),
    };
    let out = run(rename, &t, &mut env);
    assert!(out.shares_columns_with(&t));
    assert_eq!(out.schema().names(), ["day", "price", "region", "memo"]);

    let drop = SkillCall::DropColumns {
        columns: vec!["price".into(), "note".into()],
    };
    assert_eq!(shared(&run(drop, &t, &mut env), &t), ["day", "region"]);

    let keep = SkillCall::KeepColumns {
        columns: vec!["note".into(), "day".into()],
    };
    assert_eq!(shared(&run(keep, &t, &mut env), &t), ["note", "day"]);

    let create = SkillCall::CreateColumn {
        name: "double".into(),
        expr: Expr::col("price").mul(Expr::lit(2.0)),
    };
    let out = run(create, &t, &mut env);
    assert_eq!(shared(&out, &t), ["day", "price", "region", "note"]);
    assert_eq!(out.num_columns(), 5);

    let fill = SkillCall::FillMissing {
        column: "price".into(),
        value: Value::Float(0.0),
    };
    let out = run(fill, &t, &mut env);
    assert_eq!(shared(&out, &t), ["day", "region", "note"]);
    assert_eq!(out.column("price").unwrap().null_count(), 0);
    assert!(t.column("price").unwrap().null_count() > 0);
}

#[test]
fn saved_artifacts_and_snapshots_hold_the_table_they_were_given() {
    let mut env = env();
    let t = facts();
    execute_call(
        &SkillCall::SaveArtifact {
            name: "kept".into(),
        },
        &[&t],
        &mut env,
    )
    .unwrap();
    let use_kept = SkillCall::UseDataset {
        name: "kept".into(),
        version: None,
    };
    let back = execute_call(&use_kept, &[], &mut env).unwrap();
    assert!(back.as_table().unwrap().shares_columns_with(&t));

    execute_call(
        &SkillCall::Snapshot {
            name: "snap".into(),
        },
        &[&t],
        &mut env,
    )
    .unwrap();
    let use_snap = SkillCall::UseSnapshot {
        name: "snap".into(),
    };
    let back = execute_call(&use_snap, &[], &mut env).unwrap();
    assert!(back.as_table().unwrap().shares_columns_with(&t));
}

#[test]
fn one_block_loads_pass_the_storage_block_through() {
    let mut env = env();
    let block = |env: &Env, table: &str| {
        let db = env.catalog.database("db").unwrap();
        db.table(table).unwrap().block(0).unwrap()
    };

    let out = execute_call(&load("one"), &[], &mut env).unwrap();
    assert!(out
        .as_table()
        .unwrap()
        .shares_columns_with(&block(&env, "one")));

    let projected = SkillCall::LoadTable {
        database: "db".into(),
        table: "one".into(),
        columns: Some(vec!["region".into(), "day".into()]),
        predicate: None,
    };
    let out = execute_call(&projected, &[], &mut env).unwrap();
    let out = out.as_table().unwrap();
    assert_eq!(shared(out, &block(&env, "one")), ["region", "day"]);

    // A predicate every row of the block satisfies drops nothing either.
    let all = SkillCall::LoadTable {
        database: "db".into(),
        table: "one".into(),
        columns: None,
        predicate: Some(Expr::col("day").ge(Expr::lit(0i64))),
    };
    let out = execute_call(&all, &[], &mut env).unwrap();
    assert!(out
        .as_table()
        .unwrap()
        .shares_columns_with(&block(&env, "one")));

    // Several blocks are concatenated: the one copy a scan still makes.
    let out = execute_call(&load("many"), &[], &mut env).unwrap();
    let out = out.as_table().unwrap();
    assert!(shared(out, &block(&env, "many")).is_empty());
    assert_eq!(out.num_rows(), ROWS);
}

#[test]
fn the_filter_kept_above_a_fused_scan_shares_what_the_scan_returned() {
    let mut env = env();
    let predicate = Expr::col("day").ge(Expr::lit(200i64));
    for table in ["one", "many"] {
        let fused = SkillCall::LoadTable {
            database: "db".into(),
            table: table.into(),
            columns: None,
            predicate: Some(predicate.clone()),
        };
        let scanned = execute_call(&fused, &[], &mut env).unwrap();
        let scanned = scanned.as_table().unwrap();
        assert_eq!(scanned.num_rows(), ROWS - 200);
        let keep = SkillCall::KeepRows {
            predicate: predicate.clone(),
        };
        assert!(run(keep, scanned, &mut env).shares_columns_with(scanned));
    }
}

/// load → keep rows → derive a column, over the five-block table.
fn pipeline() -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let l = dag.add(load("many"), vec![]).unwrap();
    let keep = SkillCall::KeepRows {
        predicate: Expr::col("day").lt(Expr::lit(450i64)),
    };
    let f = dag.add(keep, vec![l]).unwrap();
    let create = SkillCall::CreateColumn {
        name: "double".into(),
        expr: Expr::col("price").mul(Expr::lit(2.0)),
    };
    let c = dag.add(create, vec![f]).unwrap();
    (dag, c)
}

#[test]
fn both_cache_tiers_and_run_hand_out_the_cached_columns() {
    let shared_tier = Arc::new(MaterializedCache::new(64 << 20));
    let mut env = env();
    env.shared_cache = Some(Arc::clone(&shared_tier));
    let (dag, target) = pipeline();

    // What `run` returns is what the executor keeps, and a local hit
    // returns it again. The filter runs as a target first: run below the
    // derived column it would be absorbed into the load's block pipeline,
    // which keeps no result of its own to share columns with.
    let mut cold = Executor::new();
    cold.run(&dag, target - 1, &mut env).unwrap();
    let first = cold.run(&dag, target, &mut env).unwrap();
    let first = first.as_table().unwrap();
    let flow = cold.table_of(&dag, target, &mut env).unwrap();
    assert!(first.shares_columns_with(&flow));
    let executed = cold.stats.nodes_executed;
    let again = cold.run(&dag, target, &mut env).unwrap();
    assert_eq!(cold.stats.nodes_executed, executed);
    assert!(again.as_table().unwrap().shares_columns_with(first));

    // Another session meets it in the shared tier: same buffers again, and
    // the entry was charged for them once.
    let mut warm = Executor::new();
    let hit = warm.run(&dag, target, &mut env).unwrap();
    assert_eq!(warm.stats.nodes_executed, 0);
    assert!(warm.stats.shared_hits >= 1);
    assert!(hit.as_table().unwrap().shares_columns_with(first));
    assert!(warm
        .table_of(&dag, target, &mut env)
        .unwrap()
        .shares_columns_with(first));

    // The derived table shares its pass-through columns with the filter's
    // result one step up, across the cache boundary.
    let upstream = warm.table_of(&dag, target - 1, &mut env).unwrap();
    assert_eq!(shared(first, &upstream), ["day", "price", "region", "note"]);
}
