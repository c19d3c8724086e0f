//! Soundness property for zone-map pruning: for ANY table and ANY
//! well-typed predicate, a pruned scan must return exactly the rows a
//! full scan followed by an engine filter returns — pruning may only
//! skip work, never rows. Tables mix nullable int/float/dictionary-
//! string columns, an all-null column, NaN floats, and empty inputs;
//! predicates exercise every prunable leaf plus And/Or/Not nesting.
//!
//! The reference filter runs through both engine entry points — `filter`
//! (the kernel the skills layer calls, which splits large tables into
//! morsels) and `filter_serial` (what the scan itself calls per block) —
//! so the property also pins that the two agree.

use dc_engine::ops::{filter, filter_serial};
use dc_engine::{Column, DataType, Expr, Table, Value};
use dc_storage::{BlockTable, ScanOptions};
use proptest::prelude::*;

const STRINGS: [&str; 5] = ["apple", "berry", "cherry", "date", "elder"];
const COLS: [&str; 4] = ["i", "f", "s", "n"];

/// One generated row: (nullable int, float selector, string selector).
/// Selectors are decoded in [`build_table`] so the whole row shape fits
/// the vendored proptest's tuple + range strategies.
type RowSeed = (Option<i64>, Option<u32>, u32);

fn build_table(rows: &[RowSeed]) -> Table {
    let n = rows.len();
    let ints = rows.iter().map(|r| r.0).collect();
    // Float selector: mostly small decimals, 39 → NaN.
    let floats = rows
        .iter()
        .map(|r| {
            r.1.map(|v| {
                if v >= 39 {
                    f64::NAN
                } else {
                    v as f64 / 10.0 - 2.0
                }
            })
        })
        .collect();
    // String selector: < 5 picks a dictionary value, the rest are null.
    let strs = rows
        .iter()
        .map(|r| (r.2 < 5).then(|| STRINGS[r.2 as usize].to_string()))
        .collect();
    Table::new(vec![
        ("i", Column::from_opt_ints(ints)),
        ("f", Column::from_opt_floats(floats)),
        ("s", Column::from_opt_strs(strs)),
        ("n", Column::nulls(DataType::Int, n)),
    ])
    .unwrap()
}

/// One predicate leaf: (kind, comparison op, int literal, aux selector).
type LeafSeed = (u32, u32, i64, u32);

fn build_leaf(&(kind, op, v, aux): &LeafSeed) -> Expr {
    let cmp = |col: &str, lit: Expr| {
        let c = Expr::col(col);
        match op % 6 {
            0 => c.eq(lit),
            1 => c.neq(lit),
            2 => c.lt(lit),
            3 => c.le(lit),
            4 => c.gt(lit),
            _ => c.ge(lit),
        }
    };
    match kind % 8 {
        0 => cmp("i", Expr::lit(v)),
        1 => cmp("f", Expr::lit(v as f64 / 2.0)),
        2 => cmp("s", Expr::lit(Value::Str(STRINGS[aux as usize % 5].into()))),
        3 => cmp("n", Expr::lit(v)),
        4 => Expr::col("i").between(Expr::lit(v), Expr::lit(v + (aux as i64 % 4))),
        5 => Expr::InList {
            expr: Box::new(Expr::col("s")),
            list: (0..=aux % 5)
                .map(|ix| Value::Str(STRINGS[ix as usize].into()))
                .collect(),
            negated: op % 2 == 1,
        },
        6 => Expr::col(COLS[aux as usize % 4]).is_null(),
        _ => Expr::col(COLS[aux as usize % 4]).is_not_null(),
    }
}

/// Fold leaves into one predicate, mixing And/Or/Not by selector.
fn build_predicate(leaves: &[(LeafSeed, u32)]) -> Expr {
    let mut expr: Option<Expr> = None;
    for (seed, comb) in leaves {
        let mut leaf = build_leaf(seed);
        if comb % 5 == 4 {
            leaf = leaf.not();
        }
        expr = Some(match expr {
            None => leaf,
            Some(e) if comb % 2 == 0 => e.and(leaf),
            Some(e) => e.or(leaf),
        });
    }
    expr.expect("at least one leaf")
}

fn leaf_strategy() -> impl Strategy<Value = (LeafSeed, u32)> {
    ((0u32..8, 0u32..6, -6i64..6, 0u32..8), 0u32..10)
}

/// Cell-wise table equality that treats NaN as equal to itself —
/// `Table`'s derived `PartialEq` inherits IEEE `NaN != NaN`, which
/// would fail rows that legitimately carry NaN through a filter.
fn same_table(a: &Table, b: &Table) -> bool {
    a.schema() == b.schema()
        && a.num_rows() == b.num_rows()
        && a.schema().names().iter().all(|col| {
            (0..a.num_rows())
                .all(|r| a.value(r, col).unwrap().render() == b.value(r, col).unwrap().render())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pruned scan ≡ full scan + filter, and the receipt's pruning
    /// arithmetic accounts for every byte and block of the full scan.
    #[test]
    fn pruned_scan_equals_filter_over_full_scan(
        rows in prop::collection::vec(
            (prop::option::of(-5i64..5), prop::option::of(0u32..40), 0u32..8),
            0..48,
        ),
        leaves in prop::collection::vec(leaf_strategy(), 1..4),
        block_rows in 1usize..8,
    ) {
        let t = build_table(&rows);
        let pred = build_predicate(&leaves);
        let bt = BlockTable::new(&t, block_rows).unwrap();
        let (full, full_receipt) = bt.scan(&ScanOptions::full()).unwrap();
        let expected = filter(&full, &pred).unwrap();
        prop_assert!(same_table(&filter_serial(&full, &pred).unwrap(), &expected));

        let mut opts = ScanOptions::full();
        opts.predicate = Some(pred.clone());
        let (pruned, receipt) = bt.scan(&opts).unwrap();
        prop_assert!(
            same_table(&pruned, &expected),
            "pruned scan diverged for {:?}:\n  pruned   {:?}\n  expected {:?}",
            pred, pruned, expected
        );

        // Pruning only ever removes cost, and the split is exact: what
        // was scanned plus what was skipped is the full-scan footprint.
        // Faulted bytes can never exceed the logical charge.
        prop_assert!(receipt.bytes_scanned <= full_receipt.bytes_scanned);
        prop_assert!(receipt.bytes_read <= receipt.bytes_scanned);
        prop_assert!(full_receipt.bytes_read <= full_receipt.bytes_scanned);
        prop_assert_eq!(
            receipt.bytes_scanned + receipt.bytes_pruned,
            full_receipt.bytes_scanned
        );
        prop_assert_eq!(
            receipt.blocks_scanned + receipt.blocks_pruned,
            receipt.total_blocks
        );
    }

    /// Pruning composes with block sampling: the degraded (sampled)
    /// scan with a predicate equals filtering the sampled scan, for any
    /// seed — the row mask depends only on row counts, never on which
    /// blocks were pruned.
    #[test]
    fn pruned_sampled_scan_equals_filter_over_sampled_scan(
        rows in prop::collection::vec(
            (prop::option::of(-5i64..5), prop::option::of(0u32..40), 0u32..8),
            0..48,
        ),
        leaves in prop::collection::vec(leaf_strategy(), 1..4),
        seed in 0u64..200,
    ) {
        let t = build_table(&rows);
        let pred = build_predicate(&leaves);
        let bt = BlockTable::new(&t, 5).unwrap();
        let (sampled, _) = bt.scan(&ScanOptions::block_sampled(0.5, seed)).unwrap();
        let expected = filter(&sampled, &pred).unwrap();

        let mut opts = ScanOptions::block_sampled(0.5, seed);
        opts.predicate = Some(pred);
        let (out, _) = bt.scan(&opts).unwrap();
        prop_assert!(same_table(&out, &expected));
    }
}
