//! Property test for the estimation pass's soundness contract (PR 8).
//!
//! Random blocked tables (nullable ints, floats with NaN, dictionary
//! strings, including zero-row tables) are loaded through random
//! predicate/join shapes, and the executed result is checked against the
//! static estimate:
//!
//! - `bytes_lo <= actual scanned bytes <= bytes_hi` on a cold cache
//!   (`Executor::run`; the default retrying policy, meeting no fault, is
//!   checked to be the same run);
//! - `rows_lo <= actual output rows`, and `rows_hi >= actual output
//!   rows` whenever the estimator claims an upper bound at all;
//! - for a single load over a table with block detail, `bytes_lo ==
//!   bytes_hi ==` the bytes actually charged: the estimator prices a scan
//!   by calling the storage layer's scan plan, so exactness holds by
//!   construction.
//!
//! `t` is stored in memory and `t2` in a block file, so joins read both
//! backends.
//!
//! Executions that fail (e.g. type-confused predicates the analyzer
//! flags separately) are out of scope: soundness is a statement about
//! runs that produce an answer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use datachat::analyze::{analyze_dag, AnalysisContext};
use datachat::engine::{AggSpec, Column, Expr, JoinType, Table};
use datachat::skills::{Env, ExecPolicy, Executor, NodeId, SkillCall, SkillDag};

/// One generated column value set plus the table it assembles into.
#[derive(Debug, Clone)]
struct GenTable {
    days: Vec<Option<i64>>,
    scores: Vec<Option<f64>>,
    labels: Vec<String>,
    block_rows: usize,
}

impl GenTable {
    fn to_table(&self) -> Table {
        Table::new(vec![
            ("day", Column::from_opt_ints(self.days.clone())),
            ("score", Column::from_opt_floats(self.scores.clone())),
            (
                "label",
                Column::from_strs(self.labels.iter().map(|s| s.as_str()).collect::<Vec<_>>())
                    .dict_encode(),
            ),
        ])
        .expect("generated columns are same-length")
    }
}

fn gen_table(max_rows: usize) -> impl Strategy<Value = GenTable> {
    // The vendored proptest's `prop_oneof!` is unweighted; repeated arms
    // stand in for weights. Columns are generated at `max_rows` length
    // and truncated to a random row count so all three stay aligned
    // (the stand-in has no `prop_flat_map`).
    let day = prop_oneof![
        (-5i64..60).prop_map(Some),
        (-5i64..60).prop_map(Some),
        (-5i64..60).prop_map(Some),
        Just(None),
    ];
    let score = prop_oneof![
        (-2.0f64..100.0).prop_map(Some),
        (-2.0f64..100.0).prop_map(Some),
        (-2.0f64..100.0).prop_map(Some),
        (-2.0f64..100.0).prop_map(Some),
        Just(Some(f64::NAN)),
        Just(None),
    ];
    let label = prop_oneof![
        Just("r0".to_string()),
        Just("r1".to_string()),
        Just("r2".to_string()),
        Just("zzz".to_string()),
    ];
    (
        0..=max_rows,
        1usize..8,
        prop::collection::vec(day, max_rows..max_rows + 1),
        prop::collection::vec(score, max_rows..max_rows + 1),
        prop::collection::vec(label, max_rows..max_rows + 1),
    )
        .prop_map(|(rows, block_rows, mut days, mut scores, mut labels)| {
            days.truncate(rows);
            scores.truncate(rows);
            labels.truncate(rows);
            GenTable {
                days,
                scores,
                labels,
                block_rows,
            }
        })
}

/// A comparison leaf over a real column (or a column the table does not
/// have — the scan's plan ignores such predicates wholesale, and the
/// estimator calls that plan).
fn leaf() -> impl Strategy<Value = Expr> {
    let int_lit = -10i64..70;
    let float_lit = -5.0f64..110.0;
    let pair = prop_oneof![
        (Just("day"), int_lit.clone()).prop_map(|(c, v)| (c, Expr::lit(v))),
        (Just("score"), float_lit).prop_map(|(c, v)| (c, Expr::lit(v))),
        prop_oneof![Just("r0"), Just("r1"), Just("zzz"), Just("nope")]
            .prop_map(|v| ("label", Expr::lit(v))),
        (Just("ghost"), int_lit).prop_map(|(c, v)| (c, Expr::lit(v))),
    ];
    (pair, 0u8..5, 0u8..2).prop_map(|((col, lit), op, negate)| {
        let col = Expr::col(col);
        let e = match op {
            0 => col.eq(lit),
            1 => col.lt(lit),
            2 => col.le(lit),
            3 => col.gt(lit),
            _ => col.ge(lit),
        };
        if negate == 1 {
            e.not()
        } else {
            e
        }
    })
}

fn predicate() -> impl Strategy<Value = Expr> {
    prop_oneof![
        leaf(),
        leaf(),
        leaf(),
        (leaf(), leaf(), 0u8..2).prop_map(|(a, b, conj)| {
            if conj == 1 {
                a.and(b)
            } else {
                a.or(b)
            }
        }),
        (leaf(), leaf(), 0u8..2).prop_map(|(a, b, conj)| {
            if conj == 1 {
                a.and(b)
            } else {
                a.or(b)
            }
        }),
    ]
}

/// The DAG shapes under test: bare load, filtered load (both polarities,
/// so pushdown rewrites fire), an equi-join of two distinct tables, and
/// the shapes whose row rules read catalog statistics — group-bys bounded
/// by a dictionary (`label`) or a zone-map span (`day`), keyed and
/// whole-row distincts, caps, concatenations of both backends, and a sort
/// between a load and a filter (which keeps the filter off the scan's
/// per-block refinement).
#[derive(Debug, Clone)]
enum Shape {
    Plain,
    Keep(Expr),
    Drop(Expr),
    Join(JoinType),
    /// Counted per these keys; none is the global aggregate.
    Compute(Vec<&'static str>),
    /// Distinct on these keys; none is whole-row.
    Distinct(Vec<&'static str>),
    Limit(usize),
    Top(usize),
    /// `t` then `t2`, removing duplicates or not.
    Concat(bool),
    SortThenKeep(Expr),
}

fn shape() -> impl Strategy<Value = Shape> {
    let keys = || {
        prop_oneof![
            Just(vec![]),
            Just(vec!["day"]),
            Just(vec!["label"]),
            Just(vec!["label", "day"]),
        ]
    };
    prop_oneof![
        Just(Shape::Plain),
        predicate().prop_map(Shape::Keep),
        predicate().prop_map(Shape::Keep),
        predicate().prop_map(Shape::Keep),
        predicate().prop_map(Shape::Drop),
        predicate().prop_map(Shape::Drop),
        prop_oneof![
            Just(JoinType::Inner),
            Just(JoinType::Left),
            Just(JoinType::Right),
            Just(JoinType::Full),
        ]
        .prop_map(Shape::Join),
        keys().prop_map(Shape::Compute),
        keys().prop_map(Shape::Distinct),
        (0usize..50).prop_map(Shape::Limit),
        (0usize..50).prop_map(Shape::Top),
        prop_oneof![Just(false), Just(true)].prop_map(Shape::Concat),
        predicate().prop_map(Shape::SortThenKeep),
    ]
}

/// An env whose block file lives in a directory of its own, removed with
/// the env.
struct DiskEnv {
    env: Env,
    dir: std::path::PathBuf,
}

impl Drop for DiskEnv {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `t` in memory, `t2` in a block file.
fn build_env(t: &GenTable, t2: &GenTable) -> DiskEnv {
    static ENVS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dc-estimator-soundness-{}-{}",
        std::process::id(),
        ENVS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut env = Env::new();
    let mut db =
        datachat::storage::CloudDatabase::new("Main", datachat::storage::Pricing::default_cloud());
    db.create_table_with_blocks("t", &t.to_table(), t.block_rows)
        .unwrap();
    db.create_table_on_disk("t2", &t2.to_table(), t2.block_rows, &dir)
        .unwrap();
    env.catalog.add_database(db).unwrap();
    DiskEnv { env, dir }
}

fn build_dag(shape: &Shape) -> (SkillDag, NodeId) {
    let mut dag = SkillDag::new();
    let load = dag.add(SkillCall::load_table("Main", "t"), vec![]).unwrap();
    let names = |keys: &[&str]| keys.iter().map(|k| k.to_string()).collect::<Vec<_>>();
    let mut on_load = |call: SkillCall| dag.add(call, vec![load]).unwrap();
    let target = match shape {
        Shape::Plain => load,
        Shape::Keep(p) => on_load(SkillCall::KeepRows {
            predicate: p.clone(),
        }),
        Shape::Drop(p) => on_load(SkillCall::DropRows {
            predicate: p.clone(),
        }),
        Shape::Compute(keys) => on_load(SkillCall::Compute {
            aggs: vec![AggSpec::count_records("n")],
            for_each: names(keys),
        }),
        Shape::Distinct(keys) => on_load(SkillCall::Distinct {
            columns: names(keys),
        }),
        Shape::Limit(n) => on_load(SkillCall::Limit { n: *n }),
        Shape::Top(n) => on_load(SkillCall::Top {
            column: "day".into(),
            n: *n,
        }),
        Shape::SortThenKeep(p) => {
            let sort = on_load(SkillCall::Sort {
                keys: vec![("score".into(), false)],
            });
            let keep = SkillCall::KeepRows {
                predicate: p.clone(),
            };
            dag.add(keep, vec![sort]).unwrap()
        }
        Shape::Join(how) => {
            let right = dag
                .add(SkillCall::load_table("Main", "t2"), vec![])
                .unwrap();
            let join = SkillCall::Join {
                other: "t2".into(),
                left_on: vec!["day".into()],
                right_on: vec!["day".into()],
                how: *how,
            };
            dag.add(join, vec![load, right]).unwrap()
        }
        Shape::Concat(remove_duplicates) => {
            let right = dag
                .add(SkillCall::load_table("Main", "t2"), vec![])
                .unwrap();
            let concat = SkillCall::Concat {
                other: "t2".into(),
                remove_duplicates: *remove_duplicates,
            };
            dag.add(concat, vec![load, right]).unwrap()
        }
    };
    (dag, target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn estimates_bound_actual_execution(
        t in gen_table(40),
        t2 in gen_table(12),
        shape in shape(),
    ) {
        let (dag, target) = build_dag(&shape);
        let ctx = AnalysisContext::from_env(&build_env(&t, &t2).env);
        let analysis = analyze_dag(&dag, &[target], &ctx);
        let est = analysis.estimates.get(target);

        // The driver plans the DAG with the call the estimator priced it
        // with (targets protected, nothing vetoed). Cold cache, no faults.
        let mut disk_env = build_env(&t, &t2);
        let env = &mut disk_env.env;
        let Ok(out) = Executor::new().run(&dag, target, env) else {
            // Failed runs (e.g. type-confused residual predicates) are
            // covered by the analyzer's own diagnostics, not soundness.
            return Ok(());
        };
        let actual_rows = out.as_table().map(|t| t.num_rows() as u64);
        let actual = env.scan_tally.bytes_scanned;

        // A retrying policy that meets no fault is the same run.
        let mut env2 = build_env(&t, &t2);
        let report = Executor::new()
            .run_resilient(&dag, target, &mut env2.env, &ExecPolicy::default());
        prop_assert!(report.is_ok_and(|r| r.succeeded()));
        prop_assert_eq!(env2.env.scan_tally.bytes_scanned, actual);

        let lo = analysis.estimates.scan_bytes_lo;
        let hi = analysis.estimates.scan_bytes_hi;
        prop_assert!(
            actual <= hi,
            "scanned {actual} bytes > estimated upper bound {hi}"
        );
        prop_assert!(
            lo <= actual,
            "guaranteed lower bound {lo} > actual {actual} bytes"
        );
        if !matches!(shape, Shape::Join(_)) {
            prop_assert!(
                lo == actual && hi == actual,
                "a single load is priced by its scan's plan: [{lo}, {hi}] vs {actual} bytes"
            );
        }

        if let (Some(est), Some(rows)) = (est, actual_rows) {
            prop_assert!(
                est.rows_lo <= rows,
                "rows_lo {} > actual {rows} rows",
                est.rows_lo
            );
            if let Some(hi) = est.rows_hi {
                prop_assert!(rows <= hi, "actual {rows} rows > rows_hi {hi}");
            }
        }
    }
}

/// A table of `days` (scores count up from 0; one label) in blocks of 4.
fn table(days: &[i64]) -> GenTable {
    GenTable {
        days: days.iter().map(|&d| Some(d)).collect(),
        scores: (0..days.len()).map(|i| Some(i as f64)).collect(),
        labels: vec!["r0".to_string(); days.len()],
        block_rows: 4,
    }
}

/// The estimated rows of `call` over `t` (and `t2` as its second input),
/// and the table it makes when run cold.
fn estimate_and_run(
    t: &GenTable,
    t2: &GenTable,
    call: SkillCall,
) -> (u64, Option<u64>, Arc<Table>) {
    let mut dag = SkillDag::new();
    let mut inputs = vec![dag.add(SkillCall::load_table("Main", "t"), vec![]).unwrap()];
    if matches!(call, SkillCall::Join { .. }) {
        inputs.push(
            dag.add(SkillCall::load_table("Main", "t2"), vec![])
                .unwrap(),
        );
    }
    let target = dag.add(call, inputs).unwrap();
    let ctx = AnalysisContext::from_env(&build_env(t, t2).env);
    let est = analyze_dag(&dag, &[target], &ctx)
        .estimates
        .get(target)
        .cloned();
    let est = est.expect("the target is estimated");
    let mut env = build_env(t, t2);
    let out = Executor::new()
        .table_of(&dag, target, &mut env.env)
        .unwrap();
    (est.rows_lo, est.rows_hi, out)
}

fn join(how: JoinType) -> SkillCall {
    SkillCall::Join {
        other: "t2".into(),
        left_on: vec!["day".into()],
        right_on: vec!["day".into()],
        how,
    }
}

/// An outer join keeps each unmatched row of its preserved side once, so
/// it can make more rows than there are pairs: three left rows against an
/// empty right side, and one row against three it does not match.
#[test]
fn an_outer_join_can_make_more_rows_than_pairs() {
    let (lo, hi, out) = estimate_and_run(&table(&[1, 2, 3]), &table(&[]), join(JoinType::Left));
    let rows = out.num_rows() as u64;
    assert_eq!(rows, 3);
    assert!(
        lo <= rows && hi.is_some_and(|hi| rows <= hi),
        "[{lo}, {hi:?}]"
    );
    let (lo, hi, out) = estimate_and_run(&table(&[1]), &table(&[5, 6, 7]), join(JoinType::Full));
    let rows = out.num_rows() as u64;
    assert_eq!(rows, 4);
    assert!(
        lo <= rows && hi.is_some_and(|hi| rows <= hi),
        "[{lo}, {hi:?}]"
    );
}

/// A forecast is the predicted rows alone, one per step of the horizon,
/// however many rows of history it was fitted on; an `Int` time column
/// steps on as `Int`, the type its contract declares.
#[test]
fn a_forecast_makes_one_row_per_step_of_its_horizon() {
    let forecast = SkillCall::PredictTimeSeries {
        measures: vec!["score".into()],
        horizon: 2,
        time_column: "day".into(),
    };
    let history: Vec<i64> = (0..10).collect();
    let (lo, hi, out) = estimate_and_run(&table(&history), &table(&[]), forecast);
    assert_eq!(out.num_rows(), 2);
    assert_eq!(out.column("day").unwrap(), &Column::from_ints(vec![10, 11]));
    assert_eq!((lo, hi), (2, Some(2)));
}
