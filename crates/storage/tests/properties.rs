//! Property tests for the storage layer's invariants.
//!
//! The `*_parallel_*` tests scan with the dispatch threshold at 1 (every
//! scan fetches its blocks on the worker pool) and at `usize::MAX` (every
//! scan runs its blocks inline) and require one answer. The `parallel` in
//! their names is what the sanitizer matrix selects.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dc_engine::parallel::set_min_parallel_rows;
use dc_engine::{Column, Expr, Table, Value};
use dc_storage::{
    BlockTable, CancelToken, CloudDatabase, FaultConfig, FaultInjector, FaultOp, FaultStats,
    InjectedFault, Pricing, ScanOptions, ScanReceipt, SnapshotStore, StorageError,
};
use proptest::prelude::*;

fn table(n: usize) -> Table {
    Table::new(vec![
        ("id", Column::from_ints((0..n as i64).collect())),
        (
            "v",
            Column::from_floats((0..n).map(|i| i as f64 / 3.0).collect()),
        ),
    ])
    .unwrap()
}

proptest! {
    /// A full scan reassembles exactly the stored table, for any block
    /// size.
    #[test]
    fn full_scan_is_identity(rows in 0usize..3000, block_rows in 1usize..500) {
        let t = table(rows);
        let bt = BlockTable::new(&t, block_rows).unwrap();
        let (out, receipt) = bt.scan(&ScanOptions::full()).unwrap();
        prop_assert_eq!(&out, &t);
        prop_assert_eq!(receipt.rows_scanned as usize, rows);
        prop_assert_eq!(receipt.blocks_scanned, receipt.total_blocks);
    }

    /// Block count is ceil(rows / block_rows) (min 1).
    #[test]
    fn block_count_formula(rows in 0usize..5000, block_rows in 1usize..700) {
        let bt = BlockTable::new(&table(rows), block_rows).unwrap();
        let expected = if rows == 0 { 1 } else { rows.div_ceil(block_rows) };
        prop_assert_eq!(bt.num_blocks(), expected);
    }

    /// Block sampling returns a subset of the table's rows (no invented
    /// data) and scans no more bytes than a full scan.
    #[test]
    fn block_sample_is_subset(seed in 0u64..500, rate in 1u32..100) {
        let t = table(2000);
        let bt = BlockTable::new(&t, 128).unwrap();
        let rate = rate as f64 / 100.0;
        let (sample, receipt) = bt.scan(&ScanOptions::block_sampled(rate, seed)).unwrap();
        let (_, full) = bt.scan(&ScanOptions::full()).unwrap();
        prop_assert!(receipt.bytes_scanned <= full.bytes_scanned);
        prop_assert!(receipt.bytes_read <= receipt.bytes_scanned);
        prop_assert!(sample.num_rows() <= t.num_rows());
        // Every sampled id exists in the source (block sampling never
        // fabricates rows).
        for r in 0..sample.num_rows() {
            let id = sample.value(r, "id").unwrap().as_i64().unwrap();
            prop_assert!((0..2000).contains(&id));
        }
        // Determinism.
        let (again, _) = bt.scan(&ScanOptions::block_sampled(rate, seed)).unwrap();
        prop_assert_eq!(sample, again);
    }

    /// Scan cost is linear in bytes under consumption pricing, for any
    /// rate.
    #[test]
    fn cost_linear_in_bytes(dollars_per_tb in 0.1f64..10_000.0, bytes in 0u64..10_000_000_000) {
        let p = Pricing::PerTbScanned { dollars_per_tb };
        let unit = p.scan_cost(1_000_000);
        let cost = p.scan_cost(bytes);
        prop_assert!((cost - unit * bytes as f64 / 1e6).abs() < 1e-9 * (1.0 + cost.abs()));
    }

    /// The database meter equals the sum of its receipts.
    #[test]
    fn meter_sums_receipts(scans in prop::collection::vec(1u32..100, 1..10)) {
        let mut db = CloudDatabase::new("d", Pricing::default_cloud());
        db.create_table_with_blocks("t", &table(1000), 64).unwrap();
        let mut bytes = 0u64;
        for (i, rate) in scans.iter().enumerate() {
            let rate = *rate as f64 / 100.0;
            let (_, receipt) = db
                .scan("t", &ScanOptions::block_sampled(rate, i as u64))
                .unwrap();
            bytes += receipt.bytes_scanned;
        }
        prop_assert_eq!(db.meter().bytes(), bytes);
        prop_assert_eq!(db.meter().queries(), scans.len() as u64);
    }

    /// Snapshot store: create/read/refresh/delete lifecycle is total and
    /// reads are always free.
    #[test]
    fn snapshot_lifecycle(sizes in prop::collection::vec(0usize..500, 1..8)) {
        let mut store = SnapshotStore::new();
        for (i, &n) in sizes.iter().enumerate() {
            let name = format!("s{i}");
            store.create(&name, table(n), "src", vec![], None).unwrap();
            prop_assert_eq!(store.read(&name).unwrap().num_rows(), n);
            let v = store.refresh(&name, table(n + 1)).unwrap();
            prop_assert_eq!(v, 2);
        }
        prop_assert_eq!(store.meter().dollars(), 0.0);
        prop_assert_eq!(store.names().len(), sizes.len());
        for i in 0..sizes.len() {
            store.delete(&format!("s{i}")).unwrap();
        }
        prop_assert!(store.names().is_empty());
    }
}

/// The threshold is process-wide and the tests of this file run on
/// parallel threads; whoever changes it holds this lock until it is back.
static THRESHOLD: Mutex<()> = Mutex::new(());

/// `f` with every scan's blocks inline, then with every scan's blocks on
/// the pool.
fn serial_and_parallel<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let _held = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    let previous = set_min_parallel_rows(usize::MAX);
    let serial = f();
    set_min_parallel_rows(1);
    let parallel = f();
    set_min_parallel_rows(previous);
    (serial, parallel)
}

/// A directory for one case's block files, removed with the case.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("dc-properties-{}-{tag}", std::process::id()));
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `rows` rows of an int, a float, a string column stored dict-encoded
/// and a nullable int, stored twice: `ram` in memory and `disk` in a
/// block file under `dir`.
fn both_backends(rows: usize, block_rows: usize, dir: &ScratchDir) -> CloudDatabase {
    let t = Table::new(vec![
        ("id", Column::from_ints((0..rows as i64).collect())),
        (
            "v",
            Column::from_floats((0..rows).map(|i| (i * 7 % 101) as f64 / 4.0).collect()),
        ),
        (
            "cat",
            Column::from_strs((0..rows).map(|i| format!("c{}", i / 50 % 9)).collect()),
        ),
        (
            "n",
            Column::from_opt_ints(
                (0..rows)
                    .map(|i| (i % 5 != 2).then_some(i as i64 % 13))
                    .collect(),
            ),
        ),
    ])
    .unwrap();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("ram", &t, block_rows).unwrap();
    db.create_table_on_disk("disk", &t, block_rows, &dir.0)
        .unwrap();
    db
}

/// Scan options from selectors: a pushed predicate (or none), a
/// projection (or none), a block sample and a row sample.
fn scan_options(pred: u32, k: i64, proj: u32, block: u32, row: u32, seed: u64) -> ScanOptions {
    let predicate = match pred % 5 {
        0 => None,
        1 => Some(Expr::col("id").lt(Expr::lit(k * 40))),
        2 => Some(Expr::col("cat").eq(Expr::lit(Value::Str(format!("c{}", k % 9))))),
        3 => Some(
            (Expr::col("v").ge(Expr::lit(k as f64)))
                .and(Expr::col("n").is_not_null())
                .or(Expr::col("id").gt(Expr::lit(k * 90))),
        ),
        _ => Some(Expr::col("id").between(Expr::lit(k * 20), Expr::lit(k * 60))),
    };
    let columns = match proj % 4 {
        0 => None,
        1 => Some(vec!["v", "id"]),
        2 => Some(vec!["cat"]),
        _ => Some(vec!["n", "cat", "id"]),
    };
    ScanOptions {
        columns: columns.map(|cols| cols.into_iter().map(String::from).collect()),
        block_sample: (block > 0).then(|| block as f64 / 10.0),
        row_sample: (row > 0).then(|| row as f64 / 10.0),
        predicate,
        seed,
        cancel: None,
    }
}

/// What one scan answered, comparable across runs: the table and the
/// receipt, or the error.
type Outcome = std::result::Result<(Table, ScanReceipt), StorageError>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fetching, decoding and filtering a scan's blocks on the pool returns
    /// the table and the receipt the inline scan returns, on both backends,
    /// under any predicate, projection and sampling.
    #[test]
    fn block_parallel_scan_is_the_serial_scan(
        rows in 0usize..2500,
        block_rows in 1usize..400,
        shape in (0u32..5, 0i64..25, 0u32..4, 0u32..11, 0u32..11),
        seed in 0u64..1000,
    ) {
        let (pred, k, proj, block, row) = shape;
        let dir = ScratchDir::new(&format!("equal-{seed}-{rows}"));
        let db = both_backends(rows, block_rows, &dir);
        let opts = scan_options(pred, k, proj, block, row, seed);
        for backend in ["ram", "disk"] {
            let (serial, parallel) = serial_and_parallel(|| db.scan(backend, &opts).unwrap());
            prop_assert_eq!(&serial.0, &parallel.0, "{} under {:?}", backend, opts);
            prop_assert_eq!(&serial.1, &parallel.1, "{} under {:?}", backend, opts);
            prop_assert!(serial.1.bytes_read <= serial.1.bytes_scanned);
        }
    }

    /// A seeded injector — slow blocks, and a scheduled block-read fault at
    /// occurrence `fault_at` — sees the same calls in the same order and
    /// fails the same scan whether the blocks are fetched inline or on the
    /// pool: every outcome and the injector's counters after every scan are
    /// equal. As in a block-at-a-time loop, the faulted block is the last
    /// one of its scan the injector sees.
    #[test]
    fn faulty_block_reads_fail_alike_parallel_and_serial(
        block_rows in 8usize..64,
        fault in (0u64..40, 0u32..2),
        shape in (0u32..5, 0i64..25, 0u32..4),
        seed in 0u64..1000,
    ) {
        let ((fault_at, unavailable), (pred, k, proj)) = (fault, shape);
        let dir = ScratchDir::new(&format!("faults-{seed}-{block_rows}"));
        let mut db = both_backends(600, block_rows, &dir);
        let fault = match unavailable {
            0 => InjectedFault::Transient,
            _ => InjectedFault::Unavailable,
        };
        let config = FaultConfig {
            seed,
            slow_block_p: 0.2,
            slow_block_ms: 1,
            ..FaultConfig::disabled()
        }
        .schedule(FaultOp::BlockRead, fault_at, fault);
        let opts = [
            scan_options(pred, k, proj, 0, 0, seed),
            ScanOptions::full(),
            scan_options(pred + 1, k, proj + 1, 0, 5, seed),
        ];
        let run = |db: &mut CloudDatabase| -> Vec<(Outcome, FaultStats)> {
            let injector = Arc::new(FaultInjector::new(config.clone()));
            db.set_fault_injector(Arc::clone(&injector));
            let scans = ["ram", "disk"].into_iter().flat_map(|b| opts.iter().map(move |o| (b, o)));
            scans
                .map(|(backend, o)| (db.scan(backend, o), injector.stats()))
                .collect()
        };
        let (serial, parallel) = serial_and_parallel(|| run(&mut db));
        prop_assert_eq!(&serial, &parallel);
        let failed: Vec<&FaultStats> = (serial.iter())
            .filter_map(|(outcome, stats)| outcome.is_err().then_some(stats))
            .collect();
        let seen = |stats: &FaultStats| stats.ops_seen[1];
        match failed[..] {
            [] => prop_assert!(seen(&serial[serial.len() - 1].1) <= fault_at),
            [stats] => prop_assert_eq!(seen(stats), fault_at + 1),
            _ => prop_assert!(false, "one scheduled fault failed {} scans", failed.len()),
        }
    }
}

/// A scan whose token fired before it started returns the retryable
/// cancellation on both backends, inline and on the pool, and fetches no
/// block: the injector sees each scan's start and no block read.
#[test]
fn a_cancelled_scan_fetches_nothing_parallel_or_serial() {
    let dir = ScratchDir::new("cancelled");
    let mut db = both_backends(5_000, 100, &dir);
    let token = CancelToken::new();
    token.cancel();
    let opts = ScanOptions {
        cancel: Some(token),
        ..ScanOptions::full()
    };
    for backend in ["ram", "disk"] {
        let injector = Arc::new(FaultInjector::new(FaultConfig::disabled()));
        db.set_fault_injector(Arc::clone(&injector));
        let (serial, parallel) = serial_and_parallel(|| db.scan(backend, &opts).unwrap_err());
        assert_eq!(serial, parallel);
        assert!(
            matches!(serial, StorageError::Transient { .. }),
            "{serial:?}"
        );
        assert_eq!(injector.stats().ops_seen, [2, 0, 0, 0, 0], "{backend}");
    }
}
