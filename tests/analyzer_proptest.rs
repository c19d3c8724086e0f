//! The analyzer's soundness property, fuzzed: any DAG the analyzer
//! *accepts* (no Error-severity findings) must execute without schema
//! errors on the serial engine. The generator deliberately mixes valid
//! and invalid column references and type combinations so both the
//! accept and the reject paths are exercised.

use datachat::analyze::{analyze_dag, AnalysisContext};
use datachat::engine::{AggFunc, AggSpec, DataType, Expr};
use datachat::skills::{Env, Executor, SkillCall, SkillDag};
use proptest::prelude::*;

/// Column pool: six real sales columns plus two that do not exist, so
/// generated programs are rejected roughly as often as they are accepted.
fn column() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("order_id".to_string()),
        Just("order_date".to_string()),
        Just("region".to_string()),
        Just("product".to_string()),
        Just("price".to_string()),
        Just("quantity".to_string()),
        Just("bogus".to_string()),
        Just("ghost_col".to_string()),
    ]
}

fn agg_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::CountRecords),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

fn dtype() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Str),
    ]
}

/// One chained transform over the current dataset. Every variant here is
/// fully modeled by the schema pass, so analyzer acceptance must imply
/// runtime success.
fn transform() -> impl Strategy<Value = SkillCall> {
    prop_oneof![
        (column(), -50i64..50).prop_map(|(c, v)| SkillCall::KeepRows {
            predicate: Expr::col(c).gt(Expr::lit(v)),
        }),
        prop::collection::vec(column(), 1..4).prop_map(|mut columns| {
            columns.sort();
            columns.dedup();
            SkillCall::KeepColumns { columns }
        }),
        (column(), "[a-z]{3,8}").prop_map(|(from, to)| SkillCall::RenameColumn { from, to }),
        (column(), column()).prop_map(|(a, b)| SkillCall::CreateColumn {
            name: "derived".into(),
            expr: Expr::col(a).add(Expr::col(b)),
        }),
        (agg_func(), column(), column()).prop_map(|(func, col, key)| {
            let agg_column = (func != AggFunc::CountRecords).then_some(col);
            let output = AggSpec::default_output(func, agg_column.as_deref());
            SkillCall::Compute {
                aggs: vec![AggSpec {
                    func,
                    column: agg_column,
                    output,
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
        (1u64..100, 0u64..8).prop_map(|(pct, seed)| SkillCall::Sample {
            fraction: pct as f64 / 100.0,
            seed,
        }),
        (column(), dtype()).prop_map(|(column, to)| SkillCall::CastColumn { column, to }),
        (column(), -3i64..10).prop_map(|(column, width)| SkillCall::BinColumn {
            column,
            width,
            name: None,
        }),
        column().prop_map(|column| SkillCall::TrimColumn { column }),
    ]
}

fn sales_env() -> Env {
    let mut env = Env::new();
    let table = datachat::storage::demo::sales(40, 3);
    let mut db = datachat::storage::CloudDatabase::new(
        "MainDatabase",
        datachat::storage::Pricing::default_cloud(),
    );
    db.create_table("sales", &table).unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

proptest! {
    #[test]
    fn accepted_dags_execute_cleanly(calls in prop::collection::vec(transform(), 1..7)) {
        let mut env = sales_env();
        let ctx = AnalysisContext::from_env(&env);

        let mut dag = SkillDag::new();
        let mut cur = dag
            .add(
                SkillCall::load_table("MainDatabase", "sales"),
                vec![],
            )
            .unwrap();
        for call in calls {
            cur = dag.add(call, vec![cur]).unwrap();
        }

        let analysis = analyze_dag(&dag, &[cur], &ctx);
        if analysis.has_errors() {
            // Rejected programs are out of scope here (the golden corpus
            // covers rejection shapes); the property is about acceptance.
            return Ok(());
        }

        // Analyzer accepted: the serial engine must execute it cleanly.
        let mut ex = Executor::new();
        let result = ex.run(&dag, cur, &mut env);
        prop_assert!(
            result.is_ok(),
            "analyzer accepted but execution failed: {}\nDAG:\n{:?}",
            result.err().map(|e| e.to_string()).unwrap_or_default(),
            dag
        );
    }
}
