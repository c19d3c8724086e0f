//! Property tests asserting that the morsel count never changes a result:
//! every public kernel returns the same table when its input is split into
//! many morsels (dispatch threshold 1) as when it is a single morsel
//! (threshold `usize::MAX`), including on null-heavy columns.
//!
//! That each kernel at one morsel equals an independent reference is checked
//! by the unit properties next to the `#[cfg(test)]` references in
//! `src/ops/{join,aggregate,sort}.rs`; together the two halves give
//! `N morsels == reference`.
//!
//! Under `--no-default-features` every input is one morsel whatever the
//! threshold, so both sides are the same run and the suite stays green in
//! both builds. Test names carry the `parallel` marker so the sanitizer
//! matrix picks this suite up.

use std::sync::Mutex;

use dc_engine::ops::{filter, group_by, join, sort_by, AggFunc, AggSpec, JoinType, SortKey};
use dc_engine::parallel::{
    min_parallel_rows, morsels, set_min_parallel_rows, DEFAULT_MIN_PARALLEL_ROWS,
};
use dc_engine::{eval, Column, Expr, Table, Value};
use proptest::prelude::*;

/// The threshold is process-wide and the tests of this file run on
/// parallel threads; whoever changes it holds this lock until it is back.
static THRESHOLD: Mutex<()> = Mutex::new(());

/// `f` over a single morsel, then over as many morsels as the threshold
/// allows (one per row on tiny inputs, so the merge logic always runs).
fn one_and_many_morsels<R>(f: impl Fn() -> R) -> (R, R) {
    let _held = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    set_min_parallel_rows(usize::MAX);
    let one = f();
    set_min_parallel_rows(1);
    let many = f();
    set_min_parallel_rows(DEFAULT_MIN_PARALLEL_ROWS);
    (one, many)
}

fn opt_int() -> impl Strategy<Value = Option<i64>> {
    prop::option::of(-5i64..20)
}

fn opt_key() -> impl Strategy<Value = Option<String>> {
    prop::option::of("[a-c]{1,2}")
}

const ALL_JOIN_TYPES: [JoinType; 4] = [
    JoinType::Inner,
    JoinType::Left,
    JoinType::Right,
    JoinType::Full,
];

#[test]
fn threshold_changes_only_the_parallel_morsel_count() {
    let _held = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    let prev = set_min_parallel_rows(4);
    assert_eq!(min_parallel_rows(), 4);
    assert_eq!(morsels(3), vec![0..3]);
    assert_eq!(morsels(100).len() > 1, cfg!(feature = "parallel"));
    assert_eq!(set_min_parallel_rows(prev), 4);
    assert_eq!(min_parallel_rows(), prev);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_and_eval_parallel_morsels_match_one_morsel(
        rows in prop::collection::vec((opt_int(), opt_key()), 0..300),
    ) {
        let t = Table::new(vec![
            ("x", Column::from_opt_ints(rows.iter().map(|(x, _)| *x).collect())),
            ("k", Column::from_opt_strs(rows.iter().map(|(_, k)| k.clone()).collect())),
        ])
        .unwrap();
        let pred = Expr::col("x").gt(Expr::lit(3i64)).or(Expr::col("k").is_null());
        let (one, many) = one_and_many_morsels(|| filter(&t, &pred).unwrap());
        prop_assert_eq!(many, one);
        let expr = Expr::col("x").mul(Expr::lit(2i64)).add(Expr::lit(1i64));
        let (one, many) = one_and_many_morsels(|| eval::eval(&t, &expr).unwrap());
        prop_assert_eq!(many, one);
    }

    #[test]
    fn group_by_parallel_morsels_match_one_morsel(
        rows in prop::collection::vec((opt_key(), opt_int(), opt_int()), 0..300),
    ) {
        // Float values are integer-valued so partial sums are exact in
        // f64 regardless of morsel association.
        let t = Table::new(vec![
            ("k", Column::from_opt_strs(rows.iter().map(|(k, _, _)| k.clone()).collect())),
            ("v", Column::from_opt_ints(rows.iter().map(|(_, v, _)| *v).collect())),
            (
                "f",
                Column::from_opt_floats(
                    rows.iter().map(|(_, _, f)| f.map(|x| x as f64)).collect(),
                ),
            ),
        ])
        .unwrap();
        let aggs = [
            AggSpec::count_records("n"),
            AggSpec::new(AggFunc::Count, "v", "cnt"),
            AggSpec::new(AggFunc::CountDistinct, "v", "dist"),
            AggSpec::new(AggFunc::Sum, "v", "sum"),
            AggSpec::new(AggFunc::Sum, "f", "fsum"),
            AggSpec::new(AggFunc::Avg, "f", "avg"),
            AggSpec::new(AggFunc::Min, "v", "lo"),
            AggSpec::new(AggFunc::Max, "v", "hi"),
            AggSpec::new(AggFunc::Median, "f", "mid"),
            AggSpec::new(AggFunc::First, "v", "first"),
            AggSpec::new(AggFunc::Last, "v", "last"),
        ];
        // Single key, multi-key, and the global (empty-key) group, which
        // is one row even over an empty table.
        for (keys, aggs) in [(&["k"][..], &aggs[..]), (&["k", "v"], &aggs[..4]), (&[], &aggs[..])] {
            let (one, many) = one_and_many_morsels(|| group_by(&t, keys, aggs).unwrap());
            prop_assert_eq!(many, one);
        }
    }

    #[test]
    fn group_by_moments_parallel_morsels_match_one_morsel_approximately(
        rows in prop::collection::vec((opt_key(), opt_int()), 0..300),
    ) {
        let t = Table::new(vec![
            ("k", Column::from_opt_strs(rows.iter().map(|(k, _)| k.clone()).collect())),
            ("v", Column::from_opt_ints(rows.iter().map(|(_, v)| *v).collect())),
        ])
        .unwrap();
        let aggs = [
            AggSpec::new(AggFunc::Variance, "v", "var"),
            AggSpec::new(AggFunc::StdDev, "v", "sd"),
        ];
        // Merging Welford accumulators across morsels is not bit-identical
        // to updating one accumulator row by row, so moments are compared
        // within a tolerance (and only across morsel counts: one morsel is
        // exact against the reference).
        let (one, many) = one_and_many_morsels(|| group_by(&t, &["k"], &aggs).unwrap());
        prop_assert_eq!(many.num_rows(), one.num_rows());
        for row in 0..many.num_rows() {
            prop_assert_eq!(many.value(row, "k").unwrap(), one.value(row, "k").unwrap());
            for col in ["var", "sd"] {
                match (many.value(row, col).unwrap(), one.value(row, col).unwrap()) {
                    (Value::Null, Value::Null) => {}
                    (Value::Float(a), Value::Float(b)) => {
                        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
                    }
                    (a, b) => prop_assert!(false, "mismatched moments {:?} vs {:?}", a, b),
                }
            }
        }
    }

    #[test]
    fn join_parallel_morsels_match_one_morsel(
        lrows in prop::collection::vec((prop::option::of(0i64..8), 0i64..100), 0..150),
        rrows in prop::collection::vec((prop::option::of(0i64..8), opt_key()), 0..150),
    ) {
        let left = Table::new(vec![
            ("id", Column::from_opt_ints(lrows.iter().map(|(k, _)| *k).collect())),
            ("payload", Column::from_ints(lrows.iter().map(|(_, v)| *v).collect())),
        ])
        .unwrap();
        let right = Table::new(vec![
            ("id", Column::from_opt_ints(rrows.iter().map(|(k, _)| *k).collect())),
            ("tag", Column::from_opt_strs(rrows.iter().map(|(_, t)| t.clone()).collect())),
        ])
        .unwrap();
        for how in ALL_JOIN_TYPES {
            let (one, many) =
                one_and_many_morsels(|| join(&left, &right, &["id"], &["id"], how).unwrap());
            prop_assert_eq!(many, one);
        }
    }

    #[test]
    fn multi_key_join_parallel_morsels_match_one_morsel(
        lrows in prop::collection::vec((opt_key(), prop::option::of(0i64..4)), 0..120),
        rrows in prop::collection::vec((opt_key(), prop::option::of(0i64..4)), 0..120),
    ) {
        let side = |rows: &[(Option<String>, Option<i64>)]| {
            Table::new(vec![
                ("a", Column::from_opt_strs(rows.iter().map(|(a, _)| a.clone()).collect())),
                ("b", Column::from_opt_ints(rows.iter().map(|(_, b)| *b).collect())),
            ])
            .unwrap()
        };
        let (left, right) = (side(&lrows), side(&rrows));
        for how in ALL_JOIN_TYPES {
            let (one, many) = one_and_many_morsels(|| {
                join(&left, &right, &["a", "b"], &["a", "b"], how).unwrap()
            });
            prop_assert_eq!(many, one);
        }
    }

    #[test]
    fn sort_parallel_morsels_match_one_morsel(
        rows in prop::collection::vec((opt_key(), opt_int()), 0..300),
    ) {
        // `pos` makes every row distinct, so equal outputs also mean ties
        // were broken the same way (stability across run merges).
        let t = Table::new(vec![
            ("k", Column::from_opt_strs(rows.iter().map(|(k, _)| k.clone()).collect())),
            ("v", Column::from_opt_ints(rows.iter().map(|(_, v)| *v).collect())),
            ("pos", Column::from_ints((0..rows.len() as i64).collect())),
        ])
        .unwrap();
        for keys in [vec![SortKey::asc("k"), SortKey::desc("v")], vec![SortKey::desc("v")]] {
            let (one, many) = one_and_many_morsels(|| sort_by(&t, &keys).unwrap());
            prop_assert_eq!(many, one);
        }
    }
}

/// A governed group-by whose refusal arrives mid-attempt: with a small
/// dispatch threshold 3 000 rows are several morsels, the budget admits the
/// first of them and refuses a later one, and the dropped attempt gives way
/// to hash partitions — each grouped as one morsel, so the result is the
/// unbudgeted *one-morsel* result to the bit, order-sensitive aggregates
/// and float moments included, in first-encounter order.
#[test]
fn governed_group_by_refused_among_parallel_morsels_matches_one_morsel() {
    use dc_engine::ops::group_by_with_mem;
    use dc_engine::MemContext;
    let n = 3000i64;
    let key = |i: i64| (i * 7919 % 1201 != 7).then_some(i * 7919 % 1201);
    let t = Table::new(vec![
        ("k", Column::from_opt_ints((0..n).map(key).collect())),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 97) as f64 * 0.37 - 11.0).collect()),
        ),
        (
            "s",
            Column::from_strs((0..n).map(|i| format!("s{}", i % 13)).collect()),
        ),
    ])
    .unwrap();
    use AggFunc::*;
    let aggs: Vec<AggSpec> = [First, Last, Median, CountDistinct, StdDev, Sum]
        .iter()
        .map(|f| AggSpec::new(*f, if *f == First { "s" } else { "v" }, f.name()))
        .collect();
    let _held = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    set_min_parallel_rows(usize::MAX);
    let want = group_by(&t, &["k"], &aggs).unwrap();
    set_min_parallel_rows(512);
    let morsels = morsels(n as usize).len();
    // Room for the scratch of the morsels in flight and the groups of the
    // first ones, not for all of them.
    let mut ctx = MemContext::with_budget(160 * 1024).unwrap();
    (ctx.fanout, ctx.spill_block_rows) = (4, 128);
    let got = group_by_with_mem(&t, &["k"], &aggs, Some(&ctx));
    set_min_parallel_rows(DEFAULT_MIN_PARALLEL_ROWS);
    assert_eq!(got.unwrap(), want);
    assert_eq!(morsels > 1, cfg!(feature = "parallel"));
    let gov = &ctx.governor;
    assert!(gov.peak() <= gov.budget() && gov.forced() == 0, "{gov:?}");
    assert!(
        gov.peak() > 64 * 1024,
        "the attempt was not underway: {gov:?}"
    );
    assert_eq!(std::fs::read_dir(&ctx.spill_root).unwrap().count(), 0);
}
