//! Cross-crate property tests: the GEL ↔ skill ↔ Python round-trips and
//! the invariants that hold across the whole stack for randomized inputs.
//!
//! The call generator draws every one of the 50 `SkillCall` variants, with
//! names from anything a CSV header holds (spaces, quotes, commas, dots,
//! digits first, grammar words, non-ASCII) and values that include any
//! finite float. Each drawn call is one both surfaces can print: its floats
//! are finite, its join keys pair up, its outlier method has a name, and a
//! `Count` aggregate has a column (the Python API reads `Count()` as the
//! count of records). `tests/surface_regressions.rs` pins the refusals.

use datachat::engine::{AggFunc, AggSpec, DataType, Expr, JoinType, Value};
use datachat::gel::{parse_condition, parse_gel, try_format_skill};
use datachat::ml::{MlMethod, OutlierMethod};
use datachat::nl::{format_program, parse_pyapi};
use datachat::skills::{DatePart, SkillCall};
use datachat::viz::ChartType;
use proptest::prelude::*;

/// Words the GEL templates and list grammar are made of.
fn grammar_word() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("and"),
        Just("to"),
        Just("of"),
        Just("by"),
        Just("as"),
        Just("on"),
        Just("with"),
        Just("where"),
        Just("for each"),
        Just("records"),
        Just("values"),
        Just("descending"),
        Just("is"),
        Just("null"),
        Just("with text"),
        Just("version"),
        Just("and call it"),
        Just("rows"),
    ]
    .prop_map(String::from)
}

/// A column, dataset, file or model name: anything a CSV header holds.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,8}",
        "[ -~éİ—中]{1,12}",
        grammar_word(),
        ("[a-z]{1,4}", grammar_word(), "[a-z]{0,4}").prop_map(|(a, w, b)| format!("{a} {w} {b}")),
        prop_oneof![
            Just("a,b"),
            Just("two words"),
            Just("x\"y"),
            Just("it's"),
            Just("with.dot"),
            Just("1st"),
            Just("42"),
            Just("\"quoted\""),
            Just(" padded "),
            Just("end."),
            Just("back\\slash"),
        ]
        .prop_map(String::from),
    ]
}

fn names(lo: usize) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(name(), lo..4)
}

fn opt_name() -> impl Strategy<Value = Option<String>> {
    prop::option::of(name())
}

fn boolean() -> impl Strategy<Value = bool> {
    prop_oneof![Just(true), Just(false)]
}

/// Any finite float, and a few that used to print wrongly.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..u64::MAX)
            .prop_map(f64::from_bits)
            .prop_filter("finite", |f| f.is_finite()),
        prop_oneof![
            Just(1e20),
            Just(-0.0),
            Just(1.0 / 3.0),
            Just(0.92),
            Just(5e-324),
            Just(f64::MAX),
        ],
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        prop_oneof![i64::MIN..=i64::MAX, Just(i64::MIN), Just(i64::MAX)].prop_map(Value::Int),
        float().prop_map(Value::Float),
        name().prop_map(Value::Str),
        prop_oneof![
            Just("42"),
            Just("1.5"),
            Just("null"),
            Just("true"),
            Just("2020-01-01"),
            Just(""),
        ]
        .prop_map(|s| Value::Str(s.into())),
        (-50_000i32..50_000).prop_map(Value::Date),
        prop_oneof![
            Just(Value::Null),
            Just(Value::Bool(true)),
            Just(Value::Bool(false))
        ],
    ]
}

fn predicate() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (name(), 0usize..6, value()).prop_map(|(c, op, v)| {
            let (c, v) = (Expr::col(c), Expr::Literal(v));
            [
                c.clone().eq(v.clone()),
                c.clone().neq(v.clone()),
                c.clone().lt(v.clone()),
            ]
            .into_iter()
            .chain([c.clone().le(v.clone()), c.clone().gt(v.clone()), c.ge(v)])
            .nth(op)
            .unwrap()
        }),
        name().prop_map(|c| Expr::col(c).is_null()),
        (name(), value(), value())
            .prop_map(|(c, a, b)| Expr::col(c).between(Expr::Literal(a), Expr::Literal(b))),
        (name(), name(), float()).prop_map(|(a, b, f)| {
            Expr::col(a)
                .add(Expr::lit(f))
                .gt(Expr::lit(0i64))
                .and(Expr::col(b).is_not_null())
        }),
    ]
}

fn pick<T: Clone + std::fmt::Debug + 'static>(all: Vec<T>) -> impl Strategy<Value = T> {
    (0..all.len()).prop_map(move |i| all[i].clone())
}

fn agg_funcs() -> Vec<AggFunc> {
    use AggFunc::*;
    vec![
        Count,
        CountRecords,
        CountDistinct,
        Sum,
        Avg,
        Min,
        Max,
        Median,
        StdDev,
        Variance,
        First,
        Last,
    ]
}

fn aggs() -> impl Strategy<Value = Vec<AggSpec>> {
    use AggFunc::*;
    let agg =
        (pick(agg_funcs()), opt_name(), prop::option::of(name())).prop_map(|(func, col, out)| {
            let column = match func {
                CountRecords => col,
                _ => Some(col.unwrap_or_else(|| "c".into())),
            };
            let output = out.unwrap_or_else(|| AggSpec::default_output(func, column.as_deref()));
            AggSpec {
                func,
                column,
                output,
            }
        });
    prop::collection::vec(agg, 1..3)
}

fn skill_call() -> impl Strategy<Value = SkillCall> {
    use SkillCall::*;
    let charts = vec![
        ChartType::Line,
        ChartType::Bar,
        ChartType::Scatter,
        ChartType::Bubble,
        ChartType::Histogram,
        ChartType::Donut,
        ChartType::Box,
        ChartType::Violin,
        ChartType::Heatmap,
    ];
    let joins = vec![
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
    ];
    let types = vec![
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
        DataType::Date,
    ];
    let methods = vec![MlMethod::Auto, MlMethod::Linear, MlMethod::DecisionTree];
    let outliers = vec![
        OutlierMethod::default_zscore(),
        OutlierMethod::default_iqr(),
    ];
    prop_oneof![
        name().prop_map(|path| LoadFile { path }),
        name().prop_map(|url| LoadUrl { url }),
        (
            name(),
            name(),
            prop::option::of(names(1)),
            prop::option::of(predicate())
        )
            .prop_map(|(database, table, columns, predicate)| LoadTable {
                database,
                table,
                columns,
                predicate
            }),
        (name(), prop::option::of(0u64..u64::MAX))
            .prop_map(|(name, version)| UseDataset { name, version }),
        name().prop_map(|name| UseSnapshot { name }),
        name().prop_map(|column| DescribeColumn { column }),
        Just(DescribeDataset),
        Just(ListDatasets),
        (0usize..usize::MAX).prop_map(|n| ShowHead { n }),
        Just(CountRows),
        Just(ProfileMissing),
        (name(), names(0)).prop_map(|(kpi, by)| Visualize { kpi, by }),
        (
            pick(charts),
            opt_name(),
            opt_name(),
            opt_name(),
            (opt_name(), opt_name())
        )
            .prop_map(|(chart, x, y, color, (size, for_each))| Plot {
                chart,
                x,
                y,
                color,
                size,
                for_each
            }),
        predicate().prop_map(|predicate| KeepRows { predicate }),
        predicate().prop_map(|predicate| DropRows { predicate }),
        names(0).prop_map(|columns| KeepColumns { columns }),
        names(0).prop_map(|columns| DropColumns { columns }),
        (name(), name()).prop_map(|(from, to)| RenameColumn { from, to }),
        (name(), predicate()).prop_map(|(name, expr)| CreateColumn { name, expr }),
        (name(), value()).prop_map(|(name, value)| CreateConstantColumn { name, value }),
        (aggs(), names(0)).prop_map(|(aggs, for_each)| Compute { aggs, for_each }),
        (name(), name(), name(), pick(agg_funcs())).prop_map(|(index, columns, values, agg)| {
            Pivot {
                index,
                columns,
                values,
                agg,
            }
        }),
        prop::collection::vec((name(), boolean()), 0..4).prop_map(|keys| Sort { keys }),
        (name(), 0usize..usize::MAX).prop_map(|(column, n)| Top { column, n }),
        (0usize..usize::MAX).prop_map(|n| Limit { n }),
        (name(), boolean()).prop_map(|(other, remove_duplicates)| Concat {
            other,
            remove_duplicates
        }),
        (
            name(),
            prop::collection::vec((name(), opt_name()), 0..3),
            pick(joins)
        )
            .prop_map(|(other, keys, how)| {
                let left_on: Vec<String> = keys.iter().map(|(l, _)| l.clone()).collect();
                let right_on = keys.into_iter().map(|(l, r)| r.unwrap_or(l)).collect();
                Join {
                    other,
                    left_on,
                    right_on,
                    how,
                }
            }),
        names(0).prop_map(|columns| Distinct { columns }),
        names(0).prop_map(|columns| DropMissing { columns }),
        (name(), value()).prop_map(|(column, value)| FillMissing { column, value }),
        (name(), value(), value()).prop_map(|(column, from, to)| ReplaceValues {
            column,
            from,
            to
        }),
        (name(), pick(types)).prop_map(|(column, to)| CastColumn { column, to }),
        (name(), i64::MIN..i64::MAX, opt_name()).prop_map(|(column, width, name)| BinColumn {
            column,
            width,
            name
        }),
        (
            name(),
            pick(vec![DatePart::Year, DatePart::Month, DatePart::Day]),
            opt_name()
        )
            .prop_map(|(column, part, name)| ExtractDatePart { column, part, name }),
        name().prop_map(|column| TrimColumn { column }),
        (float(), 0u64..u64::MAX).prop_map(|(fraction, seed)| Sample { fraction, seed }),
        (0u64..u64::MAX).prop_map(|seed| ShuffleRows { seed }),
        (name(), name(), names(0), pick(methods)).prop_map(|(name, target, features, method)| {
            TrainModel {
                name,
                target,
                features,
                method,
            }
        }),
        name().prop_map(|model| Predict { model }),
        (names(0), 0usize..usize::MAX, name()).prop_map(|(measures, horizon, time_column)| {
            PredictTimeSeries {
                measures,
                horizon,
                time_column,
            }
        }),
        (name(), pick(outliers)).prop_map(|(column, method)| DetectOutliers { column, method }),
        (0usize..usize::MAX, names(0)).prop_map(|(k, features)| Cluster { k, features }),
        (name(), name()).prop_map(|(model, target)| EvaluateModel { model, target }),
        name().prop_map(|query| RunSql { query }),
        Just(ExportCsv),
        name().prop_map(|name| SaveArtifact { name }),
        name().prop_map(|name| Snapshot { name }),
        (name(), name()).prop_map(|(phrase, expansion)| Define { phrase, expansion }),
        name().prop_map(|text| Comment { text }),
        (name(), name()).prop_map(|(artifact, with_user)| ShareArtifact {
            artifact,
            with_user
        }),
    ]
}

/// Calls compare by their `Debug` text: `SkillCall`'s `==` compares
/// values numerically (`Int(2) == Float(2.0)`, `0.0 == -0.0`), and a round
/// trip must keep the type and every bit.
fn same(a: &SkillCall, b: &SkillCall) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn python_of(call: &SkillCall) -> String {
    format_program("data", std::slice::from_ref(call))
        .unwrap_or_else(|e| panic!("{call:?} has no Python form: {e}"))
}

fn from_python(python: &str) -> SkillCall {
    let program = parse_pyapi(python).unwrap_or_else(|e| panic!("{python:?} failed: {e}"));
    program.statements[0].calls[0].clone()
}

/// Arbitrary text, text behind a real GEL lead, and text inside a Python
/// call: non-ASCII, stray quotes, brackets and separators included.
fn untrusted_text() -> impl Strategy<Value = String> {
    let junk = "[ -~éİ—中\"'\n\t]{0,40}";
    let leads = vec![
        "Keep the rows where",
        "Load the columns",
        "Compute the",
        "Sort by",
        "Plot a bar chart",
        "Join with the dataset",
        "Sample",
        "Use the dataset",
        "Visualize",
        "Create a new column",
        "Replace",
        "Train a model to predict",
        "Detect outliers in the column",
        "Comment:",
    ];
    let methods = vec![
        "filter",
        "select",
        "compute",
        "sort",
        "join",
        "plot",
        "sample",
        "fillna",
        "cast",
        "with_constant",
        "train_model",
        "top",
    ];
    prop_oneof![
        junk,
        (pick(leads), junk).prop_map(|(l, j)| format!("{l} {j}")),
        (pick(methods), junk).prop_map(|(m, j)| format!("data.{m}({j}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every call prints as a GEL sentence that parses back to the
    /// identical call — the recipe round-trip §2.3 depends on.
    #[test]
    fn gel_roundtrip(call in skill_call()) {
        let text = try_format_skill(&call).unwrap_or_else(|e| panic!("{call:?}: {e}"));
        let parsed = parse_gel(&text).unwrap_or_else(|e| panic!("{text:?} failed: {e}"));
        prop_assert!(same(&parsed, &call), "{text:?} read back as {parsed:?}, not {call:?}");
    }

    /// The polyglot invariant of §4: every call has a Python form that
    /// reads back as itself, and Python → GEL → Python changes nothing.
    #[test]
    fn python_roundtrip_agrees_with_gel(call in skill_call()) {
        let python = python_of(&call);
        let parsed = from_python(&python);
        prop_assert!(same(&parsed, &call), "{python:?} read back as {parsed:?}, not {call:?}");
        let gel = try_format_skill(&parsed).unwrap_or_else(|e| panic!("{parsed:?}: {e}"));
        let via_gel = parse_gel(&gel).unwrap_or_else(|e| panic!("{gel:?} failed: {e}"));
        prop_assert_eq!(python_of(&via_gel), python, "via {}", gel);
    }

    /// Difficulty metrics are total and bounded on arbitrary questions.
    #[test]
    fn metrics_total_and_bounded(q in "[ -~]{0,80}") {
        let schema = datachat::nl::SchemaHints::single(
            "t",
            vec!["alpha".into(), "beta_gamma".into()],
        );
        let m = datachat::nl::misalignment(&q, &schema, &datachat::nl::SemanticLayer::new());
        prop_assert!((0.0..=1.0).contains(&m), "m = {m}");
        let c = datachat::nl::composition(&q);
        prop_assert!(c >= 0.0);
    }

    /// Recipes built from random calls render to text and re-parse.
    #[test]
    fn recipe_text_roundtrip(calls in prop::collection::vec(skill_call(), 1..6)) {
        let mut recipe = datachat::gel::Recipe::new();
        for c in &calls {
            recipe.push(c.clone());
        }
        let text: String = recipe
            .steps()
            .iter()
            .map(|c| try_format_skill(c).unwrap_or_else(|e| panic!("{c:?}: {e}")))
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = datachat::gel::Recipe::parse(&text).unwrap();
        prop_assert_eq!(format!("{:?}", reparsed.steps()), format!("{:?}", recipe.steps()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The three parsers of untrusted text answer `Ok` or a typed error on
    /// anything, never a panic.
    #[test]
    fn parsers_never_panic(text in untrusted_text()) {
        let _ = parse_gel(&text);
        let _ = parse_condition(&text);
        let _ = parse_pyapi(&text);
    }
}
