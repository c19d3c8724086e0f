//! The cost-based optimizer's defining property, fuzzed: for any DAG,
//! executing with the optimizer on must produce exactly the output of
//! executing the plan as written (`Executor::optimize = false`: no
//! rewrite at all). Programs that fail must fail either way (the
//! optimizer never rescues or invents an error), though the failing
//! node's attribution may shift when adjacent filters merge.
//!
//! There is one driver and it plans once (a property below is the
//! evidence that a second walk has nothing to find), so each property runs
//! it once; the last property pins the contract of its two public doors, `Executor::run` and
//! `Executor::run_resilient` under a one-attempt policy with no budget.
//!
//! The generator mixes plain column transforms with inner-join chains
//! against a unique-key dimension and a fan-out dimension, plus
//! self-concats, so every rewrite family (projection pushdown, filter
//! hoisting, join reordering, dedup, filter merging) gets exercised.

use datachat::engine::{AggFunc, AggSpec, Column, DataType, Expr, JoinType, Table, Value};
use datachat::skills::{
    execute_call, optimize_dag, plan_pushdown, Env, ExecPolicy, Executor, MaterializedCache,
    RetryPolicy, SkillCall, SkillDag,
};
use datachat::storage::{CloudDatabase, Pricing};
use proptest::prelude::*;
use std::sync::Arc;

/// Mostly-real columns with a couple of ghosts, so the error path (both
/// plans must fail) is exercised alongside the success path.
fn column() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("order_id".to_string()),
        Just("order_date".to_string()),
        Just("region".to_string()),
        Just("product".to_string()),
        Just("price".to_string()),
        Just("quantity".to_string()),
        Just("tax".to_string()),
        Just("ghost_col".to_string()),
    ]
}

/// One chained transform over the current dataset.
fn transform() -> impl Strategy<Value = SkillCall> {
    prop_oneof![
        (column(), -50i64..50).prop_map(|(c, v)| SkillCall::KeepRows {
            predicate: Expr::col(c).gt(Expr::lit(v)),
        }),
        (column(), column(), -20i64..20).prop_map(|(a, b, v)| SkillCall::KeepRows {
            predicate: Expr::col(a)
                .gt(Expr::lit(v))
                .and(Expr::col(b).lt(Expr::lit(40))),
        }),
        prop::collection::vec(column(), 1..4).prop_map(|mut columns| {
            columns.sort();
            columns.dedup();
            SkillCall::KeepColumns { columns }
        }),
        (AggFunc::Sum as u8..=AggFunc::Sum as u8, column(), column()).prop_map(|(_, col, key)| {
            SkillCall::Compute {
                aggs: vec![AggSpec {
                    func: AggFunc::Sum,
                    column: Some(col.clone()),
                    output: AggSpec::default_output(AggFunc::Sum, Some(&col)),
                }],
                for_each: vec![key],
            }
        }),
        column().prop_map(|c| SkillCall::Sort {
            keys: vec![(c, true)],
        }),
        (1usize..50).prop_map(|n| SkillCall::Limit { n }),
        Just(SkillCall::Distinct { columns: vec![] }),
        Just(SkillCall::DropMissing { columns: vec![] }),
        (column(), DataType::Float as u8..=DataType::Float as u8).prop_map(|(column, _)| {
            SkillCall::CastColumn {
                column,
                to: DataType::Float,
            }
        }),
    ]
}

/// One structural step: a chained transform, an inner join against one
/// of the two dimension tables, or a self-concat (fan-out consumer).
#[derive(Debug, Clone)]
enum Step {
    Chain(SkillCall),
    JoinUnique,
    JoinFanout,
    SelfConcat,
}

/// Steps that change one column or none: where a result shares the most
/// with its input.
fn wrangle() -> impl Strategy<Value = SkillCall> {
    prop_oneof![
        (column(), column()).prop_map(|(from, to)| SkillCall::RenameColumn {
            from,
            to: format!("{to}_2"),
        }),
        prop::collection::vec(column(), 1..3)
            .prop_map(|columns| SkillCall::DropColumns { columns }),
        (column(), column()).prop_map(|(a, b)| SkillCall::CreateColumn {
            name: "derived".to_string(),
            expr: Expr::col(a).add(Expr::col(b)),
        }),
        (column(), -5i64..5).prop_map(|(column, v)| SkillCall::FillMissing {
            column,
            value: Value::Int(v),
        }),
        (column(), 0i64..40, 0i64..40).prop_map(|(column, from, to)| SkillCall::ReplaceValues {
            column,
            from: Value::Int(from),
            to: Value::Int(to),
        }),
    ]
}

/// [`step`], with half the chained transforms drawn from [`wrangle`].
fn wrangling_step() -> impl Strategy<Value = Step> {
    prop_oneof![step(), wrangle().prop_map(Step::Chain)]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        transform().prop_map(Step::Chain),
        transform().prop_map(Step::Chain),
        transform().prop_map(Step::Chain),
        Just(Step::JoinUnique),
        Just(Step::JoinFanout),
        Just(Step::SelfConcat),
    ]
}

/// Sales facts plus a provably-unique dimension (one row per region)
/// and a fan-out dimension (three rows per region).
fn world() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
    db.create_table_with_blocks("sales", &datachat::storage::demo::sales(60, 5), 10)
        .unwrap();
    let regions = ["north", "south", "east", "west"];
    let info = Table::new(vec![
        (
            "region",
            Column::from_strs(regions.iter().map(|r| r.to_string()).collect::<Vec<_>>())
                .dict_encode(),
        ),
        ("tax", Column::from_floats(vec![0.1, 0.2, 0.05, 0.15])),
    ])
    .unwrap();
    db.create_table_with_blocks("region_info", &info, 2)
        .unwrap();
    let mut fan_region = Vec::new();
    let mut note = Vec::new();
    for r in regions {
        for i in 0..3 {
            fan_region.push(r.to_string());
            note.push(format!("{r}-{i}"));
        }
    }
    let notes = Table::new(vec![
        ("region", Column::from_strs(fan_region).dict_encode()),
        ("note", Column::from_strs(note).dict_encode()),
    ])
    .unwrap();
    db.create_table_with_blocks("region_notes", &notes, 4)
        .unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

fn build_dag(steps: &[Step]) -> (SkillDag, datachat::skills::NodeId) {
    let mut dag = SkillDag::new();
    let load = |dag: &mut SkillDag, table: &str| {
        dag.add(SkillCall::load_table("MainDatabase", table), vec![])
            .unwrap()
    };
    let mut cur = load(&mut dag, "sales");
    for step in steps {
        cur = match step {
            Step::Chain(call) => dag.add(call.clone(), vec![cur]).unwrap(),
            Step::JoinUnique | Step::JoinFanout => {
                let table = match step {
                    Step::JoinUnique => "region_info",
                    _ => "region_notes",
                };
                let dim = load(&mut dag, table);
                dag.add(
                    SkillCall::Join {
                        other: table.into(),
                        left_on: vec!["region".into()],
                        right_on: vec!["region".into()],
                        how: JoinType::Inner,
                    },
                    vec![cur, dim],
                )
                .unwrap()
            }
            Step::SelfConcat => dag
                .add(
                    SkillCall::Concat {
                        other: "self".into(),
                        remove_duplicates: false,
                    },
                    vec![cur, cur],
                )
                .unwrap(),
        };
    }
    (dag, cur)
}

/// A table with equal contents and no buffer in common.
fn deep_copy(t: &Table) -> Table {
    let names = t.schema().names();
    let cols = t.columns().iter().map(|c| Column::clone(c));
    Table::new(names.into_iter().zip(cols).collect()).expect("a copy of a valid table")
}

/// The plan exactly as written, one `execute_call` per node, every input a
/// deep copy of what the node before produced: what a driver that shares
/// nothing would compute. (Every generated call transforms its data, so a
/// node's output is what flows on.)
fn step_by_step(dag: &SkillDag, target: datachat::skills::NodeId) -> Option<Table> {
    let mut env = world();
    let mut flows: Vec<Table> = Vec::new();
    for node in dag.nodes() {
        let inputs: Vec<Table> = node.inputs.iter().map(|&i| deep_copy(&flows[i])).collect();
        let refs: Vec<&Table> = inputs.iter().collect();
        let out = execute_call(&node.call, &refs, &mut env).ok()?;
        flows.push(
            out.into_table()
                .expect("every generated call yields a table"),
        );
    }
    Some(flows.swap_remove(target))
}

/// The policy `Executor::run` runs under, spelled with public fields.
fn one_attempt_no_budget() -> ExecPolicy {
    ExecPolicy {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..ExecPolicy::default()
    }
}

proptest! {
    /// Results that share column buffers with their inputs, with storage
    /// blocks and with each other are indistinguishable from results that
    /// share nothing.
    #[test]
    fn shared_results_match_step_by_step_on_deep_copies(
        steps in prop::collection::vec(wrangling_step(), 1..8),
    ) {
        let (dag, target) = build_dag(&steps);
        let want = step_by_step(&dag, target);

        let mut env = world();
        let got = Executor::new().run(&dag, target, &mut env).ok();
        let got = got.map(|out| out.into_table().expect("a table"));
        prop_assert_eq!(&got, &want, "driver diverges\nDAG:\n{:?}", dag);
    }

    /// Optimized and as-written runs agree exactly.
    #[test]
    fn optimized_run_matches_as_written(steps in prop::collection::vec(step(), 1..7)) {
        let (dag, target) = build_dag(&steps);

        let mut env_on = world();
        let mut on = Executor::new();
        let got_on = on.run(&dag, target, &mut env_on);

        let mut env_off = world();
        let mut off = Executor::new();
        off.optimize = false;
        let got_off = off.run(&dag, target, &mut env_off);

        match (&got_on, &got_off) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "outputs diverge\nDAG:\n{:?}", dag),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "one plan failed, the other succeeded: on={:?} off={:?}\nDAG:\n{:?}",
                a.is_ok(), b.is_ok(), dag
            ),
        }
    }

    /// The driver plans once: in a DAG `optimize_dag` has been over (or
    /// found nothing to do in), the filter-hoisting rule on its own finds
    /// nothing either, whatever is vetoed.
    #[test]
    fn plan_pushdown_finds_nothing_after_optimize_dag(
        steps in prop::collection::vec(step(), 1..7),
        veto in 0usize..12,
    ) {
        let (dag, target) = build_dag(&steps);
        let vetoed: Vec<usize> = (veto < dag.len()).then_some(veto).into_iter().collect();
        let optimized = optimize_dag(&dag, &[target], &vetoed, &world());
        let planned = plan_pushdown(optimized.as_ref().unwrap_or(&dag), &[target], &vetoed);
        prop_assert!(
            planned.is_none(),
            "a second walk found work\nDAG:\n{:?}\noptimized:\n{:?}\nplanned:\n{:?}",
            dag, optimized, planned
        );
    }

    /// The contract of the public pair: `run` is `run_resilient` under a
    /// one-attempt policy with no budget — same output or same failure,
    /// same executor stats, same admissions to the shared cache.
    #[test]
    fn run_is_one_attempt_run_resilient(steps in prop::collection::vec(step(), 1..7)) {
        let (dag, target) = build_dag(&steps);
        let shared = || Some(Arc::new(MaterializedCache::new(1 << 24)));

        let mut env_run = world();
        env_run.shared_cache = shared();
        let mut plain = Executor::new();
        let got = plain.run(&dag, target, &mut env_run);

        let mut env_report = world();
        env_report.shared_cache = shared();
        let mut resilient = Executor::new();
        let report = resilient
            .run_resilient(&dag, target, &mut env_report, &one_attempt_no_budget())
            .expect("structurally valid DAG");

        prop_assert_eq!(got.as_ref().ok(), report.output.as_ref(), "DAG:\n{:?}", dag);
        if let Err(e) = &got {
            let first = report.first_error().map(|e| e.to_string());
            prop_assert_eq!(Some(e.to_string()), first, "DAG:\n{:?}", dag);
        }
        prop_assert_eq!(plain.stats, resilient.stats, "DAG:\n{:?}", dag);
        let admitted = |env: &Env| env.shared_cache.as_ref().map(|c| c.stats());
        prop_assert_eq!(admitted(&env_run), admitted(&env_report), "DAG:\n{:?}", dag);
        prop_assert_eq!(env_run.scan_tally, env_report.scan_tally, "DAG:\n{:?}", dag);
    }
}
