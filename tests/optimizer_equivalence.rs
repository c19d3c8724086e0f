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
//! What is planned is the target's cone, and two properties pin what that
//! means: the rest of a session's DAG — jobs before and after, over the
//! same tables — changes neither the cone's plan nor the structural
//! identity of its result, and a consumer left outside the cone constrains
//! the plan exactly as it would from inside it.
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

/// Sales facts (and `returns`, the same rows under another name) plus a
/// provably-unique dimension (one row per region) and a fan-out dimension
/// (three rows per region).
fn world() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
    for facts in ["sales", "returns"] {
        db.create_table_with_blocks(facts, &datachat::storage::demo::sales(60, 5), 10)
            .unwrap();
    }
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
    let target = append_steps(&mut dag, steps);
    (dag, target)
}

fn load(dag: &mut SkillDag, table: &str) -> datachat::skills::NodeId {
    dag.add(SkillCall::load_table("MainDatabase", table), vec![])
        .unwrap()
}

/// Append a load of `sales` and `steps` over it; the last node added.
fn append_steps(dag: &mut SkillDag, steps: &[Step]) -> datachat::skills::NodeId {
    let facts = load(dag, "sales");
    append_steps_over(dag, facts, steps)
}

/// Append `steps` over the node `cur`; the last node added.
fn append_steps_over(
    dag: &mut SkillDag,
    mut cur: datachat::skills::NodeId,
    steps: &[Step],
) -> datachat::skills::NodeId {
    for step in steps {
        cur = match step {
            Step::Chain(call) => dag.add(call.clone(), vec![cur]).unwrap(),
            Step::JoinUnique | Step::JoinFanout => {
                let table = match step {
                    Step::JoinUnique => "region_info",
                    _ => "region_notes",
                };
                let dim = load(dag, table);
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
    cur
}

/// A job of somebody else's in the same session: load `table`, keep,
/// aggregate.
fn append_job(dag: &mut SkillDag, table: &str, floor: i64) {
    let steps = [
        Step::Chain(SkillCall::KeepRows {
            predicate: Expr::col("price").gt(Expr::lit(floor)),
        }),
        Step::Chain(SkillCall::Compute {
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                column: Some("quantity".into()),
                output: AggSpec::default_output(AggFunc::Sum, Some("quantity")),
            }],
            for_each: vec!["region".into()],
        }),
    ];
    let facts = load(dag, table);
    append_steps_over(dag, facts, &steps);
}

/// What the executor's caches key a node's result on — its call and, in
/// turn, its inputs' — spelled out instead of interned, so that it compares
/// across DAGs.
fn signature(dag: &SkillDag, id: datachat::skills::NodeId) -> String {
    let node = dag.node(id).expect("a node of the DAG");
    let inputs: Vec<String> = node.inputs.iter().map(|&i| signature(dag, i)).collect();
    format!("{}({})", node.call.cache_key(), inputs.join(","))
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
        // And the rewrite never reads more than the plan as written.
        let (on_bytes, off_bytes) = (env_on.scan_tally.bytes_scanned, env_off.scan_tally.bytes_scanned);
        prop_assert!(
            on_bytes <= off_bytes,
            "optimized plan scanned {} bytes, as written {}\nDAG:\n{:?}", on_bytes, off_bytes, dag
        );
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

    /// A step's plan is a function of its cone. Jobs of the same session
    /// before and after it that read other tables change neither the calls
    /// and edges planned for the cone nor what the target's result is
    /// cached as, and nothing outside the cone is rewritten.
    #[test]
    fn the_rest_of_the_session_does_not_reach_a_cone(
        steps in prop::collection::vec(step(), 1..7),
        before in prop::collection::vec(-50i64..50, 0..4),
        after in prop::collection::vec(-50i64..50, 0..4),
    ) {
        let (alone, target) = build_dag(&steps);
        let mut session = SkillDag::new();
        for &floor in &before {
            append_job(&mut session, "returns", floor);
        }
        let base = session.len();
        let session_target = append_steps(&mut session, &steps);
        for &floor in &after {
            append_job(&mut session, "returns", floor);
        }
        prop_assert_eq!(session_target, base + target);

        let planned_alone = optimize_dag(&alone, &[target], &[], &world());
        let planned_alone = planned_alone.as_ref().unwrap_or(&alone);
        let planned = optimize_dag(&session, &[session_target], &[], &world());
        let planned = planned.as_ref().unwrap_or(&session);
        for id in 0..session.len() {
            let got = planned.node(id).unwrap();
            if (base..=session_target).contains(&id) {
                let want = planned_alone.node(id - base).unwrap();
                let inputs: Vec<usize> = want.inputs.iter().map(|i| i + base).collect();
                prop_assert_eq!(&got.call, &want.call, "node {} of\n{:?}", id, session);
                prop_assert_eq!(&got.inputs, &inputs, "node {} of\n{:?}", id, session);
            } else {
                prop_assert_eq!(got, session.node(id).unwrap(), "outside the cone");
            }
        }
        prop_assert_eq!(
            signature(planned, session_target),
            signature(planned_alone, target)
        );

        // The same thing seen from the cache: what ran alone is a hit, whole,
        // when the session asks for it.
        let mut env = world();
        let mut ex = Executor::new();
        if let Ok(want) = ex.run(&alone, target, &mut env) {
            let executed = ex.stats.nodes_executed;
            let got = ex.run(&session, session_target, &mut env);
            prop_assert_eq!(got.ok(), Some(want));
            prop_assert_eq!(ex.stats.nodes_executed, executed, "nothing ran again");
        }
    }

    /// A load that repeats an earlier load of the session is that load,
    /// however much later it was written: steps over the copy get the plan,
    /// and their result the cache key, of the same steps written over the
    /// first load directly.
    #[test]
    fn a_repeated_load_plans_like_its_first_copy(
        steps in prop::collection::vec(step(), 1..7),
        floor in -50i64..50,
    ) {
        let mut copied = SkillDag::new();
        append_job(&mut copied, "sales", floor);
        let copied_target = append_steps(&mut copied, &steps);
        let mut direct = SkillDag::new();
        append_job(&mut direct, "sales", floor);
        let direct_target = append_steps_over(&mut direct, 0, &steps);
        // The copy is one node more, right after the job.
        prop_assert_eq!(copied_target, direct_target + 1);

        let planned_copied = optimize_dag(&copied, &[copied_target], &[], &world());
        let planned_copied = planned_copied.as_ref().unwrap_or(&copied);
        let planned_direct = optimize_dag(&direct, &[direct_target], &[], &world());
        let planned_direct = planned_direct.as_ref().unwrap_or(&direct);
        prop_assert_eq!(
            signature(planned_copied, copied_target),
            signature(planned_direct, direct_target),
            "copied:\n{:?}\ndirect:\n{:?}", planned_copied, planned_direct
        );
        for id in 0..direct.len() {
            let at = if id < 3 { id } else { id + 1 };
            prop_assert_eq!(
                &planned_copied.node(at).unwrap().call,
                &planned_direct.node(id).unwrap().call
            );
        }
    }

    /// A consumer outside the cone still counts: reading node `n` from a
    /// branch no target reaches constrains the cone's plan exactly as the
    /// same reader does when it is a target too — nothing is hoisted
    /// through `n`, none of its columns is dropped.
    #[test]
    fn a_consumer_outside_the_cone_counts_like_one_inside(
        steps in prop::collection::vec(step(), 1..7),
        n in 0usize..12,
    ) {
        let (mut dag, target) = build_dag(&steps);
        let n = n % dag.len();
        let reader = dag.add(SkillCall::ShowHead { n: 3 }, vec![n]).unwrap();

        let outside = optimize_dag(&dag, &[target], &[], &world());
        let outside = outside.as_ref().unwrap_or(&dag);
        let inside = optimize_dag(&dag, &[target, reader], &[], &world());
        let inside = inside.as_ref().unwrap_or(&dag);
        for id in 0..=target {
            prop_assert_eq!(
                outside.node(id).unwrap(), inside.node(id).unwrap(),
                "node {} (reader on {}) of\n{:?}", id, n, dag
            );
        }
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

/// The optimizer's two showcase shapes, at a size the property never
/// draws. A 3-join star — 20 000 facts, joined first (as written) to a
/// fan-out dimension of 500 keys × 10 rows, then to a unique-key dimension
/// that covers 200 of 10 000 keys — and a 24-column table of which a
/// filter and an aggregate read two.
fn showcase_world() -> Env {
    let ints = |n: usize, f: fn(i64) -> i64| Column::from_ints((0..n as i64).map(f).collect());
    let floats = |n: usize, f: fn(usize) -> f64| Column::from_floats((0..n).map(f).collect());
    let fact = Table::new(vec![
        ("fk", ints(20_000, |i| i % 500)),
        ("uk", ints(20_000, |i| (i * 7919) % 10_000)),
        ("v", floats(20_000, |i| (i % 997) as f64)),
    ])
    .unwrap();
    let fan = Table::new(vec![
        ("k", ints(5_000, |i| i % 500)),
        ("fw", floats(5_000, |i| i as f64)),
    ])
    .unwrap();
    let sel = Table::new(vec![
        ("k", ints(200, |i| i)),
        ("sw", floats(200, |i| (i * 2) as f64)),
    ])
    .unwrap();
    let mut wide = Table::new(vec![("day", ints(4_000, |i| i / 1000))]).unwrap();
    for c in 1..24i64 {
        let metric = (0..4_000i64).map(|i| (i * c) % 1009).collect();
        wide.add_column(&format!("m{c}"), Column::from_ints(metric))
            .unwrap();
    }
    let mut env = Env::new();
    let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
    for (name, t, block_rows) in [
        ("fact", &fact, 8192),
        ("fan", &fan, 4096),
        ("sel", &sel, 512),
        ("wide", &wide, 8192),
    ] {
        db.create_table_with_blocks(name, t, block_rows).unwrap();
    }
    env.catalog.add_database(db).unwrap();
    env
}

/// Run `target` over a fresh [`showcase_world`], optimized or as written:
/// its output and the bytes its scans charged.
fn run_showcase(
    dag: &SkillDag,
    target: datachat::skills::NodeId,
    optimize: bool,
) -> (datachat::skills::SkillOutput, u64) {
    let mut env = showcase_world();
    let mut ex = Executor::new();
    ex.optimize = optimize;
    let out = ex.run(dag, target, &mut env).expect("the showcase runs");
    (out, env.scan_tally.bytes_scanned)
}

/// Reordering the star's joins and narrowing its loads changes neither its
/// answer nor makes it read more. Narrowing the wide table's load to its
/// two live columns reads exactly what a scan of those two columns charges,
/// strictly less than the whole table.
#[test]
fn a_star_join_and_a_wide_projection_match_as_written_and_read_less() {
    let sum_by = |column: &str, key: &str| SkillCall::Compute {
        aggs: vec![AggSpec::new(AggFunc::Sum, column, "total")],
        for_each: vec![key.into()],
    };
    let join = |other: &str, left: &str| SkillCall::Join {
        other: other.into(),
        left_on: vec![left.into()],
        right_on: vec!["k".into()],
        how: JoinType::Inner,
    };
    let mut star = SkillDag::new();
    let (fact, fan, sel) = (
        load(&mut star, "fact"),
        load(&mut star, "fan"),
        load(&mut star, "sel"),
    );
    let by_fan = star.add(join("fan", "fk"), vec![fact, fan]).unwrap();
    let by_sel = star.add(join("sel", "uk"), vec![by_fan, sel]).unwrap();
    let star_target = star.add(sum_by("v", "fk"), vec![by_sel]).unwrap();
    let (on, on_bytes) = run_showcase(&star, star_target, true);
    let (off, off_bytes) = run_showcase(&star, star_target, false);
    assert_eq!(on, off, "the optimized star diverges");
    assert!(
        on_bytes <= off_bytes,
        "the optimized star scanned {on_bytes} bytes, as written {off_bytes}"
    );

    let mut wide = SkillDag::new();
    let table = load(&mut wide, "wide");
    let keep = SkillCall::KeepRows {
        predicate: Expr::col("day").gt(Expr::lit(0i64)),
    };
    let steps = [Step::Chain(keep), Step::Chain(sum_by("m1", "day"))];
    let wide_target = append_steps_over(&mut wide, table, &steps);
    let (on, on_bytes) = run_showcase(&wide, wide_target, true);
    let (off, off_bytes) = run_showcase(&wide, wide_target, false);
    assert_eq!(on, off, "the optimized projection diverges");
    let two_columns = datachat::storage::ScanOptions {
        columns: Some(vec!["day".into(), "m1".into()]),
        ..datachat::storage::ScanOptions::full()
    };
    let env = showcase_world();
    let db = env.catalog.database("MainDatabase").unwrap();
    let (_, receipt) = db.scan("wide", &two_columns).unwrap();
    assert_eq!(
        on_bytes, receipt.bytes_scanned,
        "the optimized projection reads more than its two live columns"
    );
    assert!(
        on_bytes < off_bytes,
        "the optimized projection scanned {on_bytes} bytes, as written {off_bytes}"
    );
}

/// A rewrite may not drop the column that makes a plan fail. Three joins
/// against `region_notes` after two `Distinct`s fail as written — the
/// third join's `note_right` is a duplicate, the second already named its
/// `note` so — and nothing downstream reads `note`, so a narrowing that
/// reached under the failing join would let the optimized plan succeed.
#[test]
fn a_failing_join_fails_optimized_as_written() {
    let distinct = || Step::Chain(SkillCall::Distinct { columns: vec![] });
    let keep = SkillCall::KeepColumns {
        columns: vec!["price".into(), "quantity".into()],
    };
    let steps = [
        distinct(),
        distinct(),
        Step::JoinFanout,
        Step::JoinFanout,
        Step::JoinFanout,
        Step::Chain(keep),
    ];
    let (dag, target) = build_dag(&steps);
    for optimize in [false, true] {
        let mut ex = Executor::new();
        ex.optimize = optimize;
        let failed = ex.run(&dag, target, &mut world()).is_err();
        assert!(failed, "the plan succeeds with optimize = {optimize}");
    }
}
