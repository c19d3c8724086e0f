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
//!
//! Both properties also store the same rows on both backends — in RAM and
//! in a block file — and scan them under full, projected, filtered,
//! all-pruned, block-sampled and row-sampled options: the one scan must
//! return equal tables and equal receipts (only `bytes_read`, what was
//! faulted off storage, may differ, and never exceeds `bytes_scanned`),
//! and make the same fault-injector calls. The static estimator prices a
//! load with the same plan, so this pins its input too.

use std::path::PathBuf;
use std::sync::Arc;

use dc_engine::ops::{filter, filter_serial};
use dc_engine::{Column, DataType, Expr, Table, Value};
use dc_storage::{
    BlockTable, CloudDatabase, FaultConfig, FaultInjector, Pricing, ScanOptions, ScanReceipt,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// A directory for one case's block file, removed with the case.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("dc-pruning-{}-{tag}", std::process::id()));
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One database holding `t` twice — `ram` in memory, `disk` in a block
/// file under `dir` — behind a fault injector that injects nothing and
/// counts every call.
fn both_backends(
    t: &Table,
    block_rows: usize,
    dir: &ScratchDir,
) -> (CloudDatabase, Arc<FaultInjector>) {
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("ram", t, block_rows).unwrap();
    db.create_table_on_disk("disk", t, block_rows, &dir.0)
        .unwrap();
    let injector = Arc::new(FaultInjector::new(FaultConfig::disabled()));
    db.set_fault_injector(Arc::clone(&injector));
    (db, injector)
}

/// Scan both backends under `opts` and require one answer: equal tables
/// (schema and dtypes included), receipts equal field by field but for
/// `bytes_read <= bytes_scanned`, and the same `on_scan` /
/// `on_block_read` calls. Returns the in-memory scan.
fn backends_agree(
    db: &CloudDatabase,
    injector: &FaultInjector,
    opts: &ScanOptions,
) -> Result<(Table, ScanReceipt), TestCaseError> {
    let scan = |table: &str| {
        let before = injector.stats().ops_seen;
        let out = db.scan(table, opts).unwrap();
        let after = injector.stats().ops_seen;
        (out, [after[0] - before[0], after[1] - before[1]])
    };
    let ((ram, r), ram_calls) = scan("ram");
    let ((disk, d), disk_calls) = scan("disk");
    prop_assert!(
        same_table(&ram, &disk),
        "backends diverged under {:?}:\n  ram  {:?}\n  disk {:?}",
        opts,
        ram,
        disk
    );
    let fields = |r: &ScanReceipt| {
        let blocks = (r.blocks_scanned, r.blocks_pruned, r.total_blocks);
        (r.bytes_scanned, r.bytes_pruned, r.rows_scanned, blocks)
    };
    prop_assert_eq!(fields(&r), fields(&d));
    prop_assert!(r.bytes_read <= r.bytes_scanned && d.bytes_read <= d.bytes_scanned);
    prop_assert_eq!(ram_calls, disk_calls);
    prop_assert_eq!(ram_calls, [1, r.blocks_scanned]);
    Ok((ram, r))
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

        // The same rows on disk answer every option alike.
        let dir = ScratchDir::new("pruned");
        let (db, injector) = both_backends(&t, block_rows, &dir);
        let (out, r) = backends_agree(&db, &injector, &ScanOptions::full())?;
        let unpriced = ScanReceipt { cost_dollars: 0.0, ..r };
        prop_assert!(same_table(&out, &full) && unpriced == full_receipt);
        let (out, _) = backends_agree(&db, &injector, &opts)?;
        prop_assert!(same_table(&out, &expected));
        let projected = ScanOptions {
            columns: Some(vec!["s".into(), "i".into()]),
            predicate: Some(pred.clone()),
            ..ScanOptions::default()
        };
        backends_agree(&db, &injector, &projected)?;
        let nothing = ScanOptions {
            columns: Some(vec!["f".into()]),
            predicate: Some(Expr::lit(false)),
            ..ScanOptions::default()
        };
        let (none, r) = backends_agree(&db, &injector, &nothing)?;
        prop_assert_eq!((none.num_rows(), r.blocks_scanned), (0, 0));
        prop_assert_eq!(none.schema().names(), vec!["f"]);
        let mut rows_sampled = ScanOptions::row_sampled(0.5, block_rows as u64);
        rows_sampled.predicate = Some(pred);
        backends_agree(&db, &injector, &rows_sampled)?;
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

        let dir = ScratchDir::new("sampled");
        let (db, injector) = both_backends(&t, 5, &dir);
        backends_agree(&db, &injector, &ScanOptions::block_sampled(0.5, seed))?;
        backends_agree(&db, &injector, &opts)?;
    }
}

/// What pruning is for, at a size the properties never draw: 20 000 rows
/// clustered on an int `id` and a dictionary `key` (one value per 20 rows)
/// in 1 024-row blocks, on both backends. An int range and a dict
/// `BETWEEN` that keep the same 0.1 %, 1 % and 10 % of the rows return the
/// rows a filter of the full scan keeps, charge **strictly** fewer bytes
/// than the full scan, and account for every byte of it as scanned or
/// pruned.
#[test]
fn selective_predicates_scan_strictly_fewer_bytes_on_both_backends() {
    const ROWS: usize = 20_000;
    let t = Table::new(vec![
        ("id", Column::from_ints((0..ROWS as i64).collect())),
        (
            "key",
            Column::from_strs((0..ROWS).map(|i| format!("key_{:06}", i / 20)).collect())
                .dict_encode(),
        ),
        (
            "v",
            Column::from_floats((0..ROWS).map(|i| (i % 997) as f64).collect()),
        ),
    ])
    .unwrap();
    let dir = ScratchDir::new("selective");
    let (db, injector) = both_backends(&t, 1024, &dir);
    let (full, full_receipt) = backends_agree(&db, &injector, &ScanOptions::full()).unwrap();
    let key = |k: usize| Expr::lit(Value::Str(format!("key_{k:06}")));
    for percent in [0.1, 1.0, 10.0] {
        let rows = (ROWS as f64 * percent / 100.0) as usize;
        let int = Expr::col("id").lt(Expr::lit(rows as i64));
        let dict = Expr::col("key").between(key(0), key(rows / 20 - 1));
        for pred in [int, dict] {
            let opts = ScanOptions {
                predicate: Some(pred.clone()),
                ..ScanOptions::full()
            };
            let (out, r) = backends_agree(&db, &injector, &opts).unwrap();
            let expected = filter(&full, &pred).unwrap();
            assert!(same_table(&out, &expected), "{pred:?}: pruned rows diverge");
            assert_eq!(out.num_rows(), rows, "{pred:?}");
            assert!(
                r.bytes_scanned < full_receipt.bytes_scanned,
                "{pred:?}: the pruned scan charged {} bytes, the full scan {}",
                r.bytes_scanned,
                full_receipt.bytes_scanned
            );
            assert_eq!(
                r.bytes_scanned + r.bytes_pruned,
                full_receipt.bytes_scanned,
                "{pred:?}: scanned + pruned != the full scan"
            );
        }
    }
}

/// The edges the properties only sometimes draw: a zero-row table, and a
/// scan whose every block is pruned. Both backends return the empty table
/// of the stored (or projected) schema — `Table::empty_with_schema` — with
/// the same dtypes, and charge nothing for an all-pruned scan.
#[test]
fn backends_agree_on_an_empty_table_and_an_all_pruned_scan() {
    let check = |rows: &[RowSeed], tag: &str| -> Result<(), TestCaseError> {
        let t = build_table(rows);
        let dir = ScratchDir::new(tag);
        let (db, injector) = both_backends(&t, 4, &dir);
        let (empty, r) = backends_agree(&db, &injector, &ScanOptions::full())?;
        prop_assert_eq!(empty.num_rows(), rows.len());
        prop_assert_eq!(r.blocks_scanned, 1);
        let pruned = ScanOptions {
            predicate: Some(Expr::col("i").gt(Expr::lit(100i64))),
            ..ScanOptions::default()
        };
        let (none, r) = backends_agree(&db, &injector, &pruned)?;
        prop_assert_eq!((none.num_rows(), r.bytes_scanned), (0, 0));
        prop_assert_eq!(none.schema(), t.schema());
        prop_assert_eq!(r.blocks_pruned, r.total_blocks);
        Ok(())
    };
    check(&[], "empty").unwrap();
    check(
        &[
            (Some(1), Some(3), 0),
            (None, None, 7),
            (Some(-4), Some(39), 2),
        ],
        "pruned",
    )
    .unwrap();
}
