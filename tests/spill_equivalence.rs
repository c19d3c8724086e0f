//! Out-of-core equivalence: random join/group-by/sort pipelines over
//! nullable int/float/dict tables must produce byte-identical results
//! whether they run without a memory budget or under one of roughly 10% of
//! the input's size — the same kernel body either way
//! (`dc_engine::ops::spill`): the budget only decides how the work is cut
//! (sort runs, hash partitions of row ids) and which runs of `u64` records
//! go to disk. Inputs are never copied or written.
//!
//! The fact table holds about 29 bytes a row, and the first operator of
//! every pipeline shape books at least 8 for each of its rows (a sort
//! record, a join pair, or — once the whole input is refused — a row id in
//! a partition's list), so a 10% budget cannot keep that state resident:
//! every shape writes run files, asserted via `bytes_spilled > 0`. The
//! budget itself is asserted too: the governor's peak stays within it unless
//! a reservation had to be taken by force (a partition that could not be
//! split any further).
//!
//! Tables stay well under the 32k-row morsel threshold, so every kernel
//! body runs over a single morsel. Governed partitions whose ids stay
//! resident run on the worker pool, as many at once as the governor
//! admits, each one body over one morsel; a group's rows and a left row's
//! pairs stay in one partition, so the property must hold bit-for-bit
//! whatever the core count, float aggregates included.

use datachat::engine::ops::{
    group_by_with_mem, join_with_mem, sort_by_with_mem, AggFunc, AggSpec, JoinType, SortKey,
};
use datachat::engine::{Column, MemContext, Table};
use proptest::prelude::*;

/// Cheap deterministic stream so a case is fully described by its seed
/// (proptest shrinks the seed, not 3000-element vectors).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Fact side: nullable int key, nullable float value, nullable
/// dictionary-encoded category, and a unique row id for sort ties.
fn fact(n: usize, seed: u64) -> Table {
    let mut r = xorshift(seed);
    let ks: Vec<Option<i64>> = (0..n)
        .map(|_| {
            let x = r();
            (!x.is_multiple_of(13)).then_some((x % 37) as i64)
        })
        .collect();
    let vs: Vec<Option<f64>> = (0..n)
        .map(|_| {
            let x = r();
            (!x.is_multiple_of(11)).then_some((x % 1000) as f64 * 0.5 - 100.0)
        })
        .collect();
    let cs: Vec<Option<String>> = (0..n)
        .map(|_| {
            let x = r();
            (!x.is_multiple_of(7)).then_some(format!("c{}", x % 11))
        })
        .collect();
    Table::new(vec![
        ("k", Column::from_opt_ints(ks)),
        ("v", Column::from_opt_floats(vs)),
        ("c", Column::from_opt_strs(cs)),
        ("id", Column::from_ints((0..n as i64).collect())),
    ])
    .expect("fact builds")
    .encode_strings()
}

/// Dimension side: the same nullable key domain plus one payload column.
fn dim(m: usize, seed: u64, payload: &str) -> Table {
    let mut r = xorshift(seed);
    let ks: Vec<Option<i64>> = (0..m)
        .map(|_| {
            let x = r();
            (!x.is_multiple_of(17)).then_some((x % 37) as i64)
        })
        .collect();
    let ws: Vec<f64> = (0..m).map(|_| (r() % 500) as f64 * 0.25).collect();
    Table::new(vec![
        ("k", Column::from_opt_ints(ks)),
        (payload, Column::from_floats(ws)),
    ])
    .expect("dim builds")
}

/// One of nine pipeline shapes over the governed entry points. Shapes
/// with a group-by place it after any joins (its output schema drops the
/// value columns the other ops need), and sorts pick keys that exist at
/// that point in the pipeline.
fn run_pipeline(
    shape: u8,
    how: JoinType,
    t: &Table,
    d1: &Table,
    d2: &Table,
    mem: Option<&MemContext>,
) -> Table {
    let join = |cur: &Table, d: &Table| {
        join_with_mem(cur, d, &["k"], &["k"], how, mem).expect("pipeline join")
    };
    let group = |cur: &Table| {
        let aggs = [
            AggSpec::new(AggFunc::Sum, "v", "s"),
            AggSpec::new(AggFunc::Min, "v", "mn"),
            AggSpec::count_records("n"),
        ];
        group_by_with_mem(cur, &["k", "c"], &aggs, mem).expect("pipeline group-by")
    };
    let sort = |cur: &Table| {
        let keys = [SortKey::desc("v"), SortKey::asc("id")];
        sort_by_with_mem(cur, &keys, mem).expect("pipeline sort")
    };
    let sort_grouped = |cur: &Table| {
        let keys = [SortKey::asc("s"), SortKey::desc("n"), SortKey::asc("k")];
        sort_by_with_mem(cur, &keys, mem).expect("pipeline grouped sort")
    };
    match shape {
        0 => sort(t),
        1 => join(t, d1),
        2 => group(t),
        3 => sort(&join(t, d1)),
        4 => group(&join(t, d1)),
        5 => join(&sort(t), d1),
        6 => join(&join(t, d1), d2),
        7 => sort_grouped(&group(&join(t, d1))),
        _ => sort_grouped(&group(t)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Unbudgeted vs ~10%-budget runs of the same random pipeline are
    /// identical, the constrained run provably spills and keeps to its
    /// budget, and no spill files survive the ops.
    #[test]
    fn spilled_pipelines_match_in_memory(
        n in 600usize..3000,
        m in 40usize..300,
        seed in 0u64..1_000_000,
        shape in 0u8..9,
        how_sel in 0u8..4,
    ) {
        let how = [JoinType::Inner, JoinType::Left, JoinType::Right, JoinType::Full]
            [how_sel as usize];
        let t = fact(n, seed);
        let d1 = dim(m, seed ^ 0x9e37_79b9, "w1");
        let d2 = dim(m / 2 + 1, seed ^ 0x51ab_3c44, "w2");

        let expect = run_pipeline(shape, how, &t, &d1, &d2, None);
        let budget = (t.byte_size() as u64 / 10).max(1);
        let ctx = MemContext::with_budget(budget).expect("spill context builds");
        let got = run_pipeline(shape, how, &t, &d1, &d2, Some(&ctx));
        prop_assert_eq!(got, expect, "shape {} under a {}-byte budget diverged", shape, budget);

        let snap = ctx.metrics.snapshot();
        prop_assert!(snap.bytes_spilled > 0, "pipeline never spilled under a 10% budget");
        prop_assert!(snap.spill_partitions > 0);
        let gov = &ctx.governor;
        prop_assert!(gov.forced() > 0 || gov.peak() <= budget, "over budget unforced: {:?}", gov);
        prop_assert_eq!(gov.used(), 0, "reservations outlived the ops");
        let leaked = std::fs::read_dir(&ctx.spill_root).map(|rd| rd.count()).unwrap_or(0);
        prop_assert_eq!(leaked, 0, "spill files leaked");
    }
}

/// The out-of-core gate at a fixed size: 200 000 rows (an int id, a
/// 50-value dictionary key and a float value), joined on `id` with as many
/// probe rows, under a 3 MiB budget. The join's state over both sides' rows
/// and the sort's records (≥ 6.4 MB) cannot stay resident, so both write
/// run files; the 50-group `Sum` + `count_records` holds a group id per row
/// of a morsel and fifty groups — ≈ 2.4 MB at most, when the single-worker
/// build makes the whole input one morsel — and must not touch disk. All
/// three return what they return without a budget, and no spill directory
/// outlives them.
#[test]
fn a_budget_spills_the_join_and_the_sort_but_not_a_small_aggregate() {
    const ROWS: usize = 200_000;
    let t = Table::new(vec![
        ("id", Column::from_ints((0..ROWS as i64).collect())),
        (
            "k",
            Column::from_strs((0..ROWS).map(|i| format!("g{:02}", i % 50)).collect()),
        ),
        (
            "v",
            Column::from_floats((0..ROWS).map(|i| ((i * 7919) % 100_000) as f64).collect()),
        ),
    ])
    .expect("facts build")
    .encode_strings();
    let probe = Table::new(vec![("pid", Column::from_ints((0..ROWS as i64).collect()))])
        .expect("probe builds");
    let aggs = [
        AggSpec::new(AggFunc::Sum, "v", "s"),
        AggSpec::count_records("n"),
    ];
    let keys = [SortKey::desc("v"), SortKey::asc("id")];
    type Op<'a> = Box<dyn Fn(Option<&MemContext>) -> Table + 'a>;
    let ops: [(&str, bool, Op); 3] = [
        (
            "join",
            true,
            Box::new(|mem| {
                join_with_mem(&probe, &t, &["pid"], &["id"], JoinType::Inner, mem).expect("join")
            }),
        ),
        (
            "group-by",
            false,
            Box::new(|mem| group_by_with_mem(&t, &["k"], &aggs, mem).expect("group-by")),
        ),
        (
            "sort",
            true,
            Box::new(|mem| sort_by_with_mem(&t, &keys, mem).expect("sort")),
        ),
    ];

    let ctx = MemContext::with_budget(3 << 20).expect("spill context builds");
    for (name, spills, op) in &ops {
        let before = ctx.metrics.snapshot();
        let got = op(Some(&ctx));
        let spilled = ctx.metrics.snapshot().delta_since(before).bytes_spilled;
        assert_eq!(spilled > 0, *spills, "{name} spilled {spilled} bytes");
        assert!(
            got == op(None),
            "the budgeted {name} diverges from in-memory"
        );
    }
    let left = std::fs::read_dir(&ctx.spill_root).map_or(0, |dir| dir.count());
    assert_eq!(left, 0, "spill directories outlived the ops");
}
