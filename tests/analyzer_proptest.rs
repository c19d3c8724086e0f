//! The analyzer's soundness property, fuzzed: any DAG the analyzer
//! *accepts* (no Error-severity findings) must execute without schema
//! errors on the serial engine. The generator deliberately mixes valid
//! and invalid column references, type combinations and literals (null
//! among them) so both the accept and the reject paths are exercised.
//!
//! The driver `debug_assert!`s every flow table it records against the
//! skill contract the analyzer calls, so in a debug build every accepted
//! case also checks each node's declared schema against the one it made.

use datachat::analyze::{analyze_dag, AnalysisContext};
use datachat::engine::{
    AggFunc, AggSpec, BinaryOp, Column, DataType, Expr, JoinType, Table, Value,
};
use datachat::skills::{DatePart, Env, Executor, SkillCall, SkillDag};
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

/// A literal of every type, null included.
fn literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|v| Value::Float(v as f64 / 4.0)),
        Just(Value::Str("north".to_string())),
        "[a-z]{1,6}".prop_map(Value::Str),
        Just(Value::Bool(true)),
        (19_300i32..19_800).prop_map(Value::Date),
    ]
}

/// A column and a literal, of one type as often as not.
fn column_and_literal() -> impl Strategy<Value = (String, Value)> {
    prop_oneof![
        (column(), literal()),
        (-50i64..50).prop_map(|v| ("price".to_string(), Value::Float(v as f64 * 4.0))),
        (0i64..20).prop_map(|v| ("quantity".to_string(), Value::Int(v))),
        Just(("region".to_string(), Value::Str("north".to_string()))),
        (19_300i32..19_800).prop_map(|d| ("order_date".to_string(), Value::Date(d))),
    ]
}

fn comparison() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![Just(BinaryOp::Gt), Just(BinaryOp::Eq), Just(BinaryOp::Le)]
}

fn arithmetic() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Div)
    ]
}

fn date_part() -> impl Strategy<Value = DatePart> {
    prop_oneof![
        Just(DatePart::Year),
        Just(DatePart::Month),
        Just(DatePart::Day)
    ]
}

/// One chained transform over the current dataset.
fn transform() -> impl Strategy<Value = SkillCall> {
    prop_oneof![
        (column(), -50i64..50).prop_map(|(c, v)| SkillCall::KeepRows {
            predicate: Expr::col(c).gt(Expr::lit(v)),
        }),
        (column_and_literal(), comparison()).prop_map(|((c, v), op)| SkillCall::KeepRows {
            predicate: Expr::binary(Expr::col(c), op, Expr::Literal(v)),
        }),
        (column(), literal(), literal()).prop_map(|(c, lo, hi)| SkillCall::DropRows {
            predicate: Expr::col(c).between(Expr::Literal(lo), Expr::Literal(hi)),
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
        (column_and_literal(), arithmetic()).prop_map(|((c, v), op)| SkillCall::CreateColumn {
            name: "derived".into(),
            expr: Expr::binary(Expr::col(c), op, Expr::Literal(v)),
        }),
        literal().prop_map(|value| SkillCall::CreateConstantColumn {
            name: "constant".into(),
            value,
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
        column_and_literal().prop_map(|(column, value)| SkillCall::FillMissing { column, value }),
        (column_and_literal(), literal())
            .prop_map(|((column, from), to)| { SkillCall::ReplaceValues { column, from, to } }),
        (column_and_literal(), literal())
            .prop_map(|((column, to), from)| { SkillCall::ReplaceValues { column, from, to } }),
        (
            prop_oneof![column(), Just("order_date".to_string())],
            date_part()
        )
            .prop_map(|(column, part)| SkillCall::ExtractDatePart {
                column,
                part,
                name: None,
            },),
    ]
}

fn second_table() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("sales2"), Just("rates")]
}

/// A second load and how it meets the current dataset.
fn combine() -> impl Strategy<Value = (&'static str, SkillCall)> {
    let join = (
        column(),
        column(),
        prop_oneof![Just(JoinType::Inner), Just(JoinType::Left)],
    );
    prop_oneof![
        (second_table(), join).prop_map(|(table, (l, r, how))| {
            let join = SkillCall::Join {
                other: table.to_string(),
                left_on: vec![l],
                right_on: vec![r],
                how,
            };
            (table, join)
        }),
        second_table().prop_map(|table| {
            let concat = SkillCall::Concat {
                other: table.to_string(),
                remove_duplicates: false,
            };
            (table, concat)
        }),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Chain(SkillCall),
    Combine(&'static str, SkillCall),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        transform().prop_map(Step::Chain),
        transform().prop_map(Step::Chain),
        transform().prop_map(Step::Chain),
        combine().prop_map(|(table, call)| Step::Combine(table, call)),
    ]
}

/// `sales` and a smaller `sales2` of the same schema, and `rates`, whose
/// `order_id` is text and whose `price` is an integer.
fn sales_env() -> Env {
    let mut env = Env::new();
    let mut db = datachat::storage::CloudDatabase::new(
        "MainDatabase",
        datachat::storage::Pricing::default_cloud(),
    );
    db.create_table("sales", &datachat::storage::demo::sales(40, 3))
        .unwrap();
    db.create_table("sales2", &datachat::storage::demo::sales(10, 7))
        .unwrap();
    let rates = Table::new(vec![
        ("region", Column::from_strs(vec!["north", "south", "east"])),
        ("order_id", Column::from_strs(vec!["a", "b", "c"])),
        ("price", Column::from_ints(vec![10, 20, 30])),
        ("rate", Column::from_floats(vec![0.5, 1.5, 2.5])),
    ])
    .unwrap();
    db.create_table("rates", &rates).unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn accepted_dags_execute_cleanly(steps in prop::collection::vec(step(), 1..6)) {
        let mut env = sales_env();
        let ctx = AnalysisContext::from_env(&env);

        let mut dag = SkillDag::new();
        let mut cur = dag
            .add(
                SkillCall::load_table("MainDatabase", "sales"),
                vec![],
            )
            .unwrap();
        for step in steps {
            cur = match step {
                Step::Chain(call) => dag.add(call, vec![cur]).unwrap(),
                Step::Combine(table, call) => {
                    let load = SkillCall::load_table("MainDatabase", table);
                    let other = dag.add(load, vec![]).unwrap();
                    dag.add(call, vec![cur, other]).unwrap()
                }
            };
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
