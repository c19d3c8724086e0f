//! Calls that a surface used to print as a different call, or not at all.
//!
//! Each test is one case a probe of the GEL and Python-API round trips
//! found: printed, read back, and compared by `Debug` text (so `Int(42)`
//! and `Str("42")`, or two floats a bit apart, differ). A call neither
//! surface can print must come back as an error, never as another call.

use datachat::engine::{DataType, Expr, Value};
use datachat::gel::{format_skill, parse_condition, parse_gel, try_format_skill};
use datachat::ml::OutlierMethod;
use datachat::nl::{format_program, parse_pyapi};
use datachat::skills::SkillCall;
use datachat::sql::parse_expr;

fn via_gel(call: &SkillCall) -> String {
    let text = format_skill(call);
    match parse_gel(&text) {
        Ok(back) => format!("{back:?}"),
        Err(e) => format!("{text:?} does not parse: {e}"),
    }
}

fn via_python(call: &SkillCall) -> String {
    let text = match format_program("data", std::slice::from_ref(call)) {
        Ok(text) => text,
        Err(e) => return format!("no Python form: {e}"),
    };
    match parse_pyapi(&text) {
        Ok(p) => format!("{:?}", p.statements[0].calls[0]),
        Err(e) => format!("{text:?} does not parse: {e}"),
    }
}

fn assert_gel_roundtrip(call: SkillCall) {
    assert_eq!(
        via_gel(&call),
        format!("{call:?}"),
        "GEL: {}",
        format_skill(&call)
    );
}

fn assert_python_roundtrip(call: SkillCall) {
    assert_eq!(via_python(&call), format!("{call:?}"));
}

fn keep_rows(column: &str, value: Value) -> SkillCall {
    SkillCall::KeepRows {
        predicate: Expr::col(column).gt(Expr::Literal(value)),
    }
}

#[test]
fn a_column_named_a_comma_b_is_kept_as_one_column() {
    assert_gel_roundtrip(SkillCall::KeepColumns {
        columns: vec!["a,b".into()],
    });
}

#[test]
fn a_sort_key_named_a_comma_b_keeps_its_name_and_its_direction() {
    assert_gel_roundtrip(SkillCall::Sort {
        keys: vec![("a,b".into(), false), ("y descending".into(), true)],
    });
}

#[test]
fn the_string_42_stays_a_string() {
    assert_gel_roundtrip(SkillCall::FillMissing {
        column: "x".into(),
        value: Value::Str("42".into()),
    });
    assert_gel_roundtrip(SkillCall::ReplaceValues {
        column: "x".into(),
        from: Value::Str("42".into()),
        to: Value::Str("2020-01-01".into()),
    });
}

#[test]
fn a_one_third_sample_comes_back_bit_for_bit() {
    assert_gel_roundtrip(SkillCall::Sample {
        fraction: 1.0 / 3.0,
        seed: 7,
    });
}

#[test]
fn a_1e20_literal_reads_back_on_both_surfaces() {
    assert!(parse_condition("x > 1e20").is_ok());
    assert_gel_roundtrip(keep_rows("x", Value::Float(1e20)));
    assert_python_roundtrip(keep_rows("x", Value::Float(1e20)));
    assert_python_roundtrip(SkillCall::Sample {
        fraction: 1e-7,
        seed: 1,
    });
}

#[test]
fn i64_min_reads_back_on_both_surfaces_and_its_magnitude_alone_is_an_error() {
    let call = keep_rows("x", Value::Int(i64::MIN));
    assert!(try_format_skill(&call).is_ok());
    assert_gel_roundtrip(call.clone());
    assert_python_roundtrip(call);
    assert!(parse_condition("x > 9223372036854775808").is_err());
    assert!(parse_expr("x - 9223372036854775808").is_err());
    assert_eq!(
        parse_expr("-9223372036854775808").unwrap(),
        Expr::Literal(Value::Int(i64::MIN))
    );
}

#[test]
fn a_python_filter_on_a_quoted_column_compares_the_column() {
    assert_python_roundtrip(keep_rows("two words", Value::Int(3)));
}

#[test]
fn a_python_list_holding_a_double_quote_lexes() {
    assert_python_roundtrip(SkillCall::KeepColumns {
        columns: vec!["x\"y".into()],
    });
}

#[test]
fn cast_column_has_a_python_form() {
    assert_python_roundtrip(SkillCall::CastColumn {
        column: "x".into(),
        to: DataType::Float,
    });
}

#[test]
fn replace_values_and_use_dataset_have_python_forms() {
    assert_python_roundtrip(SkillCall::ReplaceValues {
        column: "sex".into(),
        from: Value::Str("male".into()),
        to: Value::Str("m".into()),
    });
    assert_python_roundtrip(SkillCall::UseDataset {
        name: "fredgraph".into(),
        version: Some(1),
    });
}

#[test]
fn names_with_quotes_dots_and_leading_digits_read_back_on_both_surfaces() {
    for name in ["x\"y", "it's", "with.dot", "1st"] {
        assert_gel_roundtrip(keep_rows(name, Value::Int(3)));
        assert_python_roundtrip(keep_rows(name, Value::Int(3)));
        let rename = SkillCall::RenameColumn {
            from: name.into(),
            to: format!("{name} 2"),
        };
        assert_gel_roundtrip(rename.clone());
        assert_python_roundtrip(rename);
    }
}

#[test]
fn a_call_no_surface_can_print_is_an_error_not_another_call() {
    let unprintable = [
        SkillCall::FillMissing {
            column: "x".into(),
            value: Value::Float(f64::NAN),
        },
        keep_rows("x", Value::Float(f64::INFINITY)),
        SkillCall::DetectOutliers {
            column: "x".into(),
            method: OutlierMethod::ZScore { threshold: 2.5 },
        },
    ];
    for call in unprintable {
        assert!(parse_gel(&format_skill(&call)).is_err(), "{call:?}");
        assert!(
            format_program("data", std::slice::from_ref(&call)).is_err(),
            "{call:?}"
        );
    }
}
