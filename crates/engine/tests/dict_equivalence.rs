//! Property tests asserting every kernel is encoding-agnostic:
//! `encode → op → materialize` produces exactly the same table as the
//! op on plain `Column::Str` data — nulls, empty strings, empty
//! dictionaries and all included.
//!
//! Each property runs twice, once with the morsel threshold forced to
//! 1 row (many morsels) and once with it at `usize::MAX` (one morsel), so
//! the dict kernels' per-morsel work and their cross-morsel merges are
//! both exercised. Test names carry the `parallel` marker so the sanitizer
//! matrix picks this suite up.

use dc_engine::ops::{
    concat, distinct, filter, group_by, join, sample_fraction, sort_by, AggFunc, AggSpec, JoinType,
    SortKey,
};
use dc_engine::parallel::set_min_parallel_rows;
use dc_engine::stats::describe_table;
use dc_engine::{eval, Column, DataType, Expr, ScalarFunc, Table, Value};
use proptest::prelude::*;

/// Run `f` with every input split into many morsels (threshold 1) and
/// then with every input a single morsel (threshold usize::MAX), so
/// equivalence holds whatever morsel count a production table size gets.
fn on_both_schedulers(
    f: impl Fn() -> std::result::Result<(), TestCaseError>,
) -> std::result::Result<(), TestCaseError> {
    set_min_parallel_rows(1);
    let morsel = f();
    set_min_parallel_rows(usize::MAX);
    let serial = f();
    morsel.and(serial)
}

/// Keys over a tiny alphabet (lots of repeats), including the empty
/// string and nulls.
fn opt_key() -> impl Strategy<Value = Option<String>> {
    prop::option::of("[a-c]{0,2}")
}

fn opt_int() -> impl Strategy<Value = Option<i64>> {
    prop::option::of(-5i64..20)
}

fn table(rows: &[(Option<String>, Option<i64>)]) -> Table {
    Table::new(vec![
        (
            "k",
            Column::from_opt_strs(rows.iter().map(|(k, _)| k.clone()).collect()),
        ),
        (
            "v",
            Column::from_opt_ints(rows.iter().map(|(_, v)| *v).collect()),
        ),
    ])
    .unwrap()
}

/// The equivalence contract: the op output on the encoded table, once
/// materialized back to plain strings, is byte-for-byte the op output
/// on the plain table.
macro_rules! same {
    ($plain:expr, $dict:expr) => {{
        let plain = $plain;
        let dict = $dict;
        prop_assert_eq!(
            dict.materialize_strings(),
            plain.materialize_strings(),
            "dict result diverged from plain"
        );
        // Logical table equality must also hold across encodings.
        prop_assert_eq!(dict, plain);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_parallel_and_serial_match_plain(
        rows in prop::collection::vec((opt_key(), opt_int()), 0..200),
    ) {
        let plain = table(&rows);
        let enc = plain.encode_strings();
        let preds = [
            // Equality/inequality against a literal: translated to one
            // code comparison on the dict path.
            Expr::col("k").eq(Expr::lit("a")),
            Expr::col("k").neq(Expr::lit("b")),
            // Ordering against a literal uses dictionary rank.
            Expr::col("k").lt(Expr::lit("b")),
            // IN list with and without a null element (3VL).
            Expr::col("k").in_list(vec![Value::Str("a".into()), Value::Str("ca".into())]),
            Expr::col("k")
                .in_list(vec![Value::Str("a".into()), Value::Null])
                .not(),
            Expr::col("k").is_null().or(Expr::col("v").gt(Expr::lit(5i64))),
        ];
        on_both_schedulers(|| {
            for pred in &preds {
                same!(filter(&plain, pred).unwrap(), filter(&enc, pred).unwrap());
            }
            Ok(())
        }).unwrap();
    }

    #[test]
    fn eval_string_kernels_parallel_and_serial_match_plain(
        rows in prop::collection::vec((opt_key(), opt_key()), 0..200),
    ) {
        let plain = Table::new(vec![
            ("a", Column::from_opt_strs(rows.iter().map(|(a, _)| a.clone()).collect())),
            ("b", Column::from_opt_strs(rows.iter().map(|(_, b)| b.clone()).collect())),
        ])
        .unwrap();
        let enc = plain.encode_strings();
        let exprs = [
            // Column-to-column comparison (merged/shared dict paths).
            Expr::col("a").eq(Expr::col("b")),
            Expr::col("a").le(Expr::col("b")),
            // String transforms rewrite the dictionary once.
            Expr::func(ScalarFunc::Upper, vec![Expr::col("a")]),
            Expr::func(ScalarFunc::Length, vec![Expr::col("a")]),
            Expr::func(ScalarFunc::Concat, vec![Expr::col("a"), Expr::col("b")]),
            Expr::func(
                ScalarFunc::Contains,
                vec![Expr::col("a"), Expr::lit("a")],
            ),
            Expr::func(
                ScalarFunc::Replace,
                vec![Expr::col("a"), Expr::lit("a"), Expr::lit("z")],
            ),
            // Arithmetic concat via `+`.
            Expr::col("a").add(Expr::col("b")),
            // Casting dict → str must stay logically identical.
            Expr::col("a").cast(DataType::Str),
        ];
        on_both_schedulers(|| {
            for expr in &exprs {
                let p = eval::eval(&plain, expr).unwrap();
                let d = eval::eval(&enc, expr).unwrap();
                prop_assert_eq!(
                    d.materialize(),
                    p.materialize(),
                    "expr {:?} diverged",
                    expr
                );
            }
            Ok(())
        }).unwrap();
    }

    #[test]
    fn group_by_parallel_and_serial_match_plain(
        rows in prop::collection::vec((opt_key(), opt_int()), 0..200),
    ) {
        let plain = table(&rows);
        let enc = plain.encode_strings();
        let aggs = [
            AggSpec::count_records("n"),
            AggSpec::new(AggFunc::Sum, "v", "sum"),
            AggSpec::new(AggFunc::CountDistinct, "k", "kd"),
            AggSpec::new(AggFunc::Min, "k", "klo"),
            AggSpec::new(AggFunc::Max, "k", "khi"),
        ];
        on_both_schedulers(|| {
            same!(group_by(&plain, &["k"], &aggs).unwrap(), group_by(&enc, &["k"], &aggs).unwrap());
            same!(
                group_by(&plain, &["k", "v"], &aggs[..2]).unwrap(),
                group_by(&enc, &["k", "v"], &aggs[..2]).unwrap()
            );
            Ok(())
        }).unwrap();
    }

    #[test]
    fn join_parallel_and_serial_match_plain(
        lrows in prop::collection::vec((opt_key(), 0i64..100), 0..120),
        rrows in prop::collection::vec((opt_key(), opt_int()), 0..120),
    ) {
        let left = Table::new(vec![
            ("k", Column::from_opt_strs(lrows.iter().map(|(k, _)| k.clone()).collect())),
            ("payload", Column::from_ints(lrows.iter().map(|(_, v)| *v).collect())),
        ])
        .unwrap();
        let right = Table::new(vec![
            ("k", Column::from_opt_strs(rrows.iter().map(|(k, _)| k.clone()).collect())),
            ("tag", Column::from_opt_ints(rrows.iter().map(|(_, t)| *t).collect())),
        ])
        .unwrap();
        let (el, er) = (left.encode_strings(), right.encode_strings());
        on_both_schedulers(|| {
            for how in [JoinType::Inner, JoinType::Left, JoinType::Right, JoinType::Full] {
                let plain = join(&left, &right, &["k"], &["k"], how).unwrap();
                // Dict × dict (distinct dictionaries → code remap).
                same!(plain.clone(), join(&el, &er, &["k"], &["k"], how).unwrap());
                // Mixed encodings exercise the dict × plain probe.
                same!(plain.clone(), join(&el, &right, &["k"], &["k"], how).unwrap());
                same!(plain, join(&left, &er, &["k"], &["k"], how).unwrap());
            }
            Ok(())
        }).unwrap();
    }

    #[test]
    fn sort_distinct_parallel_and_serial_match_plain(
        rows in prop::collection::vec((opt_key(), opt_int()), 0..200),
    ) {
        let plain = table(&rows);
        let enc = plain.encode_strings();
        on_both_schedulers(|| {
            let keys = [SortKey::asc("k"), SortKey::desc("v")];
            same!(sort_by(&plain, &keys).unwrap(), sort_by(&enc, &keys).unwrap());
            let keys = [SortKey::desc("k")];
            same!(sort_by(&plain, &keys).unwrap(), sort_by(&enc, &keys).unwrap());
            same!(distinct(&plain, &["k"]).unwrap(), distinct(&enc, &["k"]).unwrap());
            same!(distinct(&plain, &[]).unwrap(), distinct(&enc, &[]).unwrap());
            Ok(())
        }).unwrap();
    }

    #[test]
    fn concat_sample_slice_parallel_and_serial_match_plain(
        arows in prop::collection::vec((opt_key(), opt_int()), 0..120),
        brows in prop::collection::vec((opt_key(), opt_int()), 0..120),
        seed in 0u64..32,
    ) {
        let (a, b) = (table(&arows), table(&brows));
        let (ea, eb) = (a.encode_strings(), b.encode_strings());
        on_both_schedulers(|| {
            let plain = concat(&[&a, &b], false).unwrap();
            // Dict + dict merges dictionaries; mixed pairs hit the
            // cross-encoding extend paths.
            same!(plain.clone(), concat(&[&ea, &eb], false).unwrap());
            same!(plain.clone(), concat(&[&ea, &b], false).unwrap());
            same!(plain, concat(&[&a, &eb], false).unwrap());
            same!(
                sample_fraction(&a, 0.5, seed).unwrap(),
                sample_fraction(&ea, 0.5, seed).unwrap()
            );
            same!(a.slice(1, 3), ea.slice(1, 3));
            same!(a.head(5), ea.head(5));
            Ok(())
        }).unwrap();
    }

    #[test]
    fn describe_parallel_and_serial_match_plain(
        rows in prop::collection::vec((opt_key(), opt_int()), 0..200),
    ) {
        let plain = table(&rows);
        let enc = plain.encode_strings();
        on_both_schedulers(|| {
            // Dict summaries read cardinality off the dictionary; they
            // must agree with the rendered-key path, mode tie-break
            // included.
            prop_assert_eq!(describe_table(&enc), describe_table(&plain));
            Ok(())
        }).unwrap();
    }
}

/// Deterministic edges the generators only rarely cover: all-null
/// columns (empty dictionary) and empty tables.
#[test]
fn all_null_and_empty_parallel_edges_match_plain() {
    let plain = Table::new(vec![
        ("k", Column::from_opt_strs(vec![None, None, None])),
        ("v", Column::from_ints(vec![1, 2, 3])),
    ])
    .unwrap();
    let enc = plain.encode_strings();
    let (_, dict, _) = enc.column("k").unwrap().as_dict().expect("encoded");
    assert!(dict.is_empty(), "all-null column must carry an empty dict");

    for threshold in [1, usize::MAX] {
        set_min_parallel_rows(threshold);
        let aggs = [AggSpec::count_records("n")];
        assert_eq!(
            group_by(&enc, &["k"], &aggs).unwrap(),
            group_by(&plain, &["k"], &aggs).unwrap()
        );
        assert_eq!(
            sort_by(&enc, &[SortKey::asc("k")]).unwrap(),
            sort_by(&plain, &[SortKey::asc("k")]).unwrap()
        );
        assert_eq!(
            distinct(&enc, &["k"]).unwrap(),
            distinct(&plain, &["k"]).unwrap()
        );
        let pred = Expr::col("k").eq(Expr::lit("a"));
        assert_eq!(filter(&enc, &pred).unwrap(), filter(&plain, &pred).unwrap());
        assert_eq!(
            join(&enc, &enc, &["k"], &["k"], JoinType::Full).unwrap(),
            join(&plain, &plain, &["k"], &["k"], JoinType::Full).unwrap()
        );

        // Empty tables stay equivalent too.
        let empty = plain.head(0);
        let eempty = enc.head(0);
        assert_eq!(
            distinct(&eempty, &[]).unwrap(),
            distinct(&empty, &[]).unwrap()
        );
        assert_eq!(
            sort_by(&eempty, &[SortKey::asc("k")]).unwrap(),
            sort_by(&empty, &[SortKey::asc("k")]).unwrap()
        );
        assert_eq!(describe_table(&eempty), describe_table(&empty));
    }
}
