//! Block pipelines against an oracle that knows nothing of them.
//!
//! A load that scans, the row-local steps above it and a closing group-by
//! run per block inside the scan's pool jobs (`dc_skills::resilient`). The
//! property: for random chains over tables of several small blocks — nulls,
//! dictionary strings, zone maps a pushed predicate prunes by, in memory
//! and in a DCB1 block file — the driver's answer is the table
//! `CloudDatabase::scan` returns put through `execute_pure_call_with_mem`
//! one call at a time, with no driver, cone or optimizer in between: rows,
//! group order and every float bit for bit, and bytes charged equal to the
//! byte. Chains run without a memory budget (a closing `Compute` whose
//! aggregates split exactly folds per block; one with a float sum, average
//! or variance runs as its own node over the stitched chain) and under a
//! `MemContext` smaller than one block's group state (a `Compute` always
//! runs as its own node).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dc_engine::{AggFunc, AggSpec, Column, Expr, MemContext, Table, Value};
use dc_skills::exec::execute_pure_call_with_mem;
use dc_skills::resilient::ExecPolicy;
use dc_skills::{load_scan, Env, Executor, SkillCall, SkillDag, SkillError};
use dc_storage::{CloudDatabase, Pricing};
use proptest::prelude::*;

const ROWS: usize = 300;
const BLOCK_ROWS: usize = 32;

/// `day` rises with the row, so a predicate on it prunes whole blocks;
/// `region` is a dictionary column with nulls, `qty` and `price` carry
/// nulls too.
fn facts() -> Table {
    let regions = ["north", "south", "east", "west", "far"];
    Table::new(vec![
        ("id", Column::from_ints((0..ROWS as i64).collect())),
        (
            "day",
            Column::from_ints((0..ROWS as i64).map(|i| i / 3).collect()),
        ),
        (
            "region",
            Column::from_opt_strs(
                (0..ROWS)
                    .map(|i| (i % 11 != 4).then(|| regions[(i * 7) % 5].to_string()))
                    .collect(),
            ),
        ),
        (
            "qty",
            Column::from_opt_ints(
                (0..ROWS as i64)
                    .map(|i| (i % 13 != 0).then_some(i % 17))
                    .collect(),
            ),
        ),
        (
            "price",
            Column::from_opt_floats(
                (0..ROWS)
                    .map(|i| (i % 9 != 2).then(|| (i as f64).sqrt() * 1.37 + 0.1))
                    .collect(),
            ),
        ),
    ])
    .unwrap()
}

/// A directory per disk world: the block file is `{db}.{table}.dcb`.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dc-block-pipeline-{}-{n}", std::process::id()))
}

/// One world holding `facts`, in memory or on disk.
fn world(disk: bool) -> (Env, Option<PathBuf>) {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    let dir = disk.then(scratch_dir);
    match &dir {
        Some(dir) => db.create_table_on_disk("facts", &facts(), BLOCK_ROWS, dir),
        None => db.create_table_with_blocks("facts", &facts(), BLOCK_ROWS),
    }
    .unwrap();
    env.catalog.add_database(db).unwrap();
    (env, dir)
}

fn column() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("id".to_string()),
        Just("day".to_string()),
        Just("region".to_string()),
        Just("qty".to_string()),
        Just("price".to_string()),
    ]
}

/// A step the pipeline carries through every block.
fn row_local() -> impl Strategy<Value = SkillCall> {
    prop_oneof![
        (column(), -5i64..60).prop_map(|(c, v)| SkillCall::KeepRows {
            predicate: Expr::col(c).gt(Expr::lit(v)),
        }),
        (-5i64..20).prop_map(|v| SkillCall::DropRows {
            predicate: Expr::col("qty").lt(Expr::lit(v)),
        }),
        (column(), column()).prop_map(|(a, b)| SkillCall::CreateColumn {
            name: format!("{a}_{b}"),
            expr: Expr::col(a).add(Expr::col(b)),
        }),
        Just(SkillCall::CreateColumn {
            name: "revenue".into(),
            expr: Expr::col("price").mul(Expr::col("qty")),
        }),
        (-3i64..3).prop_map(|v| SkillCall::FillMissing {
            column: "qty".into(),
            value: Value::Int(v),
        }),
        (0i64..17, 0i64..40).prop_map(|(from, to)| SkillCall::ReplaceValues {
            column: "qty".into(),
            from: Value::Int(from),
            to: Value::Int(to),
        }),
        Just(SkillCall::RenameColumn {
            from: "id".into(),
            to: "row".into(),
        }),
        Just(SkillCall::DropColumns {
            columns: vec!["id".into()],
        }),
        Just(SkillCall::DropMissing {
            columns: vec!["region".into()],
        }),
    ]
}

/// A step that reads across rows, so it ends a chain.
fn chain_end() -> impl Strategy<Value = SkillCall> {
    prop_oneof![
        column().prop_map(|c| SkillCall::Sort {
            keys: vec![(c, false), ("day".into(), true)],
        }),
        (1usize..80).prop_map(|n| SkillCall::Limit { n }),
        Just(SkillCall::Distinct {
            columns: vec!["region".into()],
        }),
    ]
}

fn step() -> impl Strategy<Value = SkillCall> {
    prop_oneof![row_local(), row_local(), row_local(), chain_end()]
}

/// A closing group-by over every aggregate the kernel merges; the numeric
/// ones read an integer or a float column.
fn compute() -> impl Strategy<Value = SkillCall> {
    use AggFunc::*;
    let keys = prop_oneof![
        Just(vec!["region".to_string()]),
        Just(vec!["region".to_string(), "qty".to_string()]),
        Just(vec![]),
        Just(vec!["qty".to_string()]),
    ];
    let funcs = prop::collection::vec(
        prop_oneof![
            Just(Sum),
            Just(Avg),
            Just(Count),
            Just(CountRecords),
            Just(CountDistinct),
            Just(Min),
            Just(Max),
            Just(First),
            Just(Last),
            Just(Median),
            Just(StdDev),
            Just(Variance),
        ],
        1..4,
    );
    let numeric = prop_oneof![Just("qty"), Just("price")];
    (keys, funcs, column(), numeric).prop_map(|(for_each, funcs, arg, numeric)| {
        let aggs = (funcs.into_iter().enumerate())
            .map(|(i, func)| match func {
                CountRecords => AggSpec::count_records(format!("a{i}")),
                f if f.requires_numeric() => AggSpec::new(f, numeric, format!("a{i}")),
                f => AggSpec::new(f, arg.clone(), format!("a{i}")),
            })
            .collect();
        SkillCall::Compute { aggs, for_each }
    })
}

/// The load: every column or a projection, with or without a pushed
/// predicate on `day` (which prunes blocks).
fn load() -> impl Strategy<Value = SkillCall> {
    let predicate = prop_oneof![
        Just(None),
        (0i64..100).prop_map(|d| Some(Expr::col("day").ge(Expr::lit(d)))),
        (0i64..100).prop_map(|d| Some(Expr::col("day").lt(Expr::lit(d)))),
    ];
    (predicate, 0usize..2).prop_map(|(predicate, projected)| SkillCall::LoadTable {
        database: "db".into(),
        table: "facts".into(),
        columns: (projected == 1).then(|| {
            ["id", "day", "region", "qty", "price"]
                .map(String::from)
                .to_vec()
        }),
        predicate,
    })
}

/// The oracle: the stored table as one scan returns it (charged to `env`'s
/// meter), then each call in turn.
fn reference(
    env: &Env,
    calls: &[SkillCall],
    mem: Option<&MemContext>,
) -> Result<Table, SkillError> {
    let (database, table, opts) = load_scan(&calls[0]).unwrap();
    let (mut t, _) = env.catalog.database(database)?.scan(table, &opts)?;
    for call in &calls[1..] {
        t = execute_pure_call_with_mem(call, &[&t], mem)?.into_table()?;
    }
    Ok(t)
}

/// Equal values of equal types, floats to the bit.
fn same(got: &Table, want: &Table) -> Result<(), String> {
    if got.schema() != want.schema() || got.num_rows() != want.num_rows() {
        return Err(format!("shape differs:\n{got:?}\n{want:?}"));
    }
    for (name, (g, w)) in want
        .schema()
        .names()
        .iter()
        .zip(got.columns().iter().zip(want.columns()))
    {
        for (row, (a, b)) in g.iter_values().zip(w.iter_values()).enumerate() {
            let close = match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => a.dtype() == b.dtype() && a == b,
            };
            if !close {
                return Err(format!("{name}[{row}]: {a:?} vs {b:?}"));
            }
        }
    }
    Ok(())
}

fn meter_bytes(env: &Env) -> u64 {
    env.catalog.database("db").unwrap().meter().bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn block_pipelines_match_scan_then_step_by_step(
        load in load(),
        steps in prop::collection::vec(step(), 0..5),
        compute in prop::option::of(compute()),
        disk in 0usize..2,
        budget in 0usize..2,
    ) {
        let calls: Vec<SkillCall> = std::iter::once(load)
            .chain(steps)
            .chain(compute)
            .collect();
        // Smaller than one block's group state: the governed group-by
        // partitions, and a `Compute` stays its own node.
        let mem = (budget == 1).then(|| Arc::new(MemContext::with_budget(512).unwrap()));

        let (want_env, want_dir) = world(disk == 1);
        let want = reference(&want_env, &calls, mem.as_deref());

        let (mut env, dir) = world(disk == 1);
        env.memory = mem.clone();
        let mut dag = SkillDag::new();
        let mut top = dag.add(calls[0].clone(), vec![]).unwrap();
        for call in &calls[1..] {
            top = dag.add(call.clone(), vec![top]).unwrap();
        }
        let mut ex = Executor::new();
        ex.optimize = false;
        let report = ex.run_resilient(&dag, top, &mut env, &ExecPolicy::plain()).unwrap();
        // A load with a row-local step above it always runs in a pipeline.
        if calls.len() > 1 && dc_skills::contract::row_local(&calls[1]) {
            prop_assert_eq!(report.nodes[0].pipeline.is_some(), true, "{:?}", calls);
        }
        let got = report.into_output();
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let got = got.into_table().unwrap();
                if let Err(e) = same(&got, &want) {
                    prop_assert!(false, "{:?}\n{}", calls, e);
                }
            }
            (Err(_), Err(_)) => {}
            (got, want) => prop_assert!(false, "{:?}\ngot {:?}\nwant {:?}", calls, got.err(), want.err()),
        }
        prop_assert_eq!(meter_bytes(&env), meter_bytes(&want_env), "bytes charged: {:?}", calls);
        drop((env, want_env));
        for d in [dir, want_dir].into_iter().flatten() {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Which `Compute` folds into the pipeline: an integer sum with a count
/// does, and the chain's top is the group-by; a float average does not,
/// and it runs as its own node over the stitched chain. Both answer the
/// reference to the bit.
#[test]
fn only_a_compute_whose_aggregates_split_exactly_folds() {
    let derive = SkillCall::CreateColumn {
        name: "revenue".into(),
        expr: Expr::col("price").mul(Expr::col("qty")),
    };
    let by_region = |aggs| SkillCall::Compute {
        aggs,
        for_each: vec!["region".into()],
    };
    let folded = by_region(vec![
        AggSpec::new(AggFunc::Sum, "qty", "total"),
        AggSpec::count_records("n"),
    ]);
    let alone = by_region(vec![AggSpec::new(AggFunc::Avg, "revenue", "mean")]);
    for (compute, folds) in [(folded, true), (alone, false)] {
        let calls = [load_all(), derive.clone(), compute];
        let (want_env, _) = world(false);
        let want = reference(&want_env, &calls, None).unwrap();
        let (mut env, _) = world(false);
        let mut dag = SkillDag::new();
        let l = dag.add(calls[0].clone(), vec![]).unwrap();
        let d = dag.add(calls[1].clone(), vec![l]).unwrap();
        let c = dag.add(calls[2].clone(), vec![d]).unwrap();
        let report = Executor::new()
            .run_resilient(&dag, c, &mut env, &ExecPolicy::plain())
            .unwrap();
        let top = if folds { c } else { d };
        assert_eq!(report.node(l).unwrap().pipeline, Some(top));
        assert_eq!(report.node(d).unwrap().pipeline, folds.then_some(c));
        assert_eq!(report.node(c).unwrap().pipeline, None);
        let got = report.into_output().unwrap().into_table().unwrap();
        same(&got, &want).unwrap();
    }
}

/// The whole stored table, every column, nothing pushed.
fn load_all() -> SkillCall {
    SkillCall::LoadTable {
        database: "db".into(),
        table: "facts".into(),
        columns: None,
        predicate: None,
    }
}
