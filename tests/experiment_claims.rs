//! Small-scale assertions of the paper experiments' headline claims — the
//! same properties the `dc-bench` table, figure and §3 binaries report at
//! full scale. The engine-level gates (pruning, optimizer bytes, spilling,
//! serving under faults) live beside the properties of their layer:
//! `crates/storage/tests/pruning_properties.rs`,
//! `tests/optimizer_equivalence.rs`, `tests/spill_equivalence.rs` and
//! `tests/serve_properties.rs`.

use datachat::engine::{Column, Expr, Table};
use datachat::nl::metrics::Zone;
use datachat::skills::{plan, slice, ExecutionTask, SkillCall, SkillDag};
use datachat::spider::{t_custom, t_spider, zone_histogram};
use datachat::sql::{execute, generate_sql, ExecStats, QueryStep};
use datachat::storage::{demo, CloudDatabase, Pricing, ScanOptions};

#[test]
fn sec3_block_sampling_cost_proportionality() {
    let mut db = CloudDatabase::new("c", Pricing::default_cloud());
    db.create_table("iot", &demo::iot_readings(100_000, 3))
        .unwrap();
    let (_, full) = db.scan("iot", &ScanOptions::full()).unwrap();
    let (_, sampled) = db.scan("iot", &ScanOptions::block_sampled(0.1, 5)).unwrap();
    let ratio = full.bytes_scanned as f64 / sampled.bytes_scanned as f64;
    assert!(
        (5.0..20.0).contains(&ratio),
        "10% sample ratio = {ratio:.1}"
    );
    assert!(full.bytes_read <= full.bytes_scanned);
    assert!(sampled.bytes_read <= sampled.bytes_scanned);
    // Row sampling scans everything (the §3 contrast).
    let (_, rowwise) = db.scan("iot", &ScanOptions::row_sampled(0.1, 5)).unwrap();
    assert_eq!(rowwise.bytes_scanned, full.bytes_scanned);
    assert!(rowwise.bytes_read <= rowwise.bytes_scanned);
}

#[test]
fn sec22_flattening_reduces_blocks_and_rows() {
    let mut provider = std::collections::HashMap::new();
    provider.insert(
        "base_table".to_string(),
        Table::new(vec![
            ("a", Column::from_ints((0..10_000).collect::<Vec<i64>>())),
            ("b", Column::from_ints((0..10_000).collect::<Vec<i64>>())),
            ("c", Column::from_ints((0..10_000).collect::<Vec<i64>>())),
        ])
        .unwrap(),
    );
    let steps = vec![
        QueryStep::Scan {
            table: "base_table".into(),
        },
        QueryStep::SelectColumns {
            columns: vec!["a".into(), "b".into(), "c".into()],
        },
        QueryStep::SelectColumns {
            columns: vec!["a".into(), "b".into()],
        },
        QueryStep::SelectColumns {
            columns: vec!["a".into()],
        },
    ];
    let nested = generate_sql(&steps, false).unwrap();
    let flat = generate_sql(&steps, true).unwrap();
    assert_eq!(flat.to_sql(), "SELECT a FROM base_table");
    let mut sn = ExecStats::default();
    let mut sf = ExecStats::default();
    let rn = execute(&nested, &provider, &mut sn).unwrap();
    let rf = execute(&flat, &provider, &mut sf).unwrap();
    assert_eq!(rn, rf);
    assert!(sn.query_blocks > sf.query_blocks);
    assert!(sn.rows_materialized >= 3 * sf.rows_materialized);
}

#[test]
fn fig4_three_skills_one_task() {
    let mut dag = SkillDag::new();
    let l = dag.add(SkillCall::load_table("db", "t"), vec![]).unwrap();
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").gt(Expr::lit(1i64)),
            },
            vec![l],
        )
        .unwrap();
    let lim = dag.add(SkillCall::Limit { n: 100 }, vec![f]).unwrap();
    let tasks = plan(&dag, lim).unwrap();
    assert_eq!(tasks.len(), 1);
    assert!(matches!(&tasks[0], ExecutionTask::Sql { covers, .. } if covers.len() == 3));
}

#[test]
fn fig5_slicing_shrinks_exploratory_dags() {
    let mut dag = SkillDag::new();
    let l = dag.add(SkillCall::load_table("db", "t"), vec![]).unwrap();
    let _peek = dag.add(SkillCall::DescribeDataset, vec![l]).unwrap();
    let dead = dag
        .add(
            SkillCall::Sort {
                keys: vec![("x".into(), true)],
            },
            vec![l],
        )
        .unwrap();
    let _dead2 = dag.add(SkillCall::Limit { n: 5 }, vec![dead]).unwrap();
    let f1 = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").gt(Expr::lit(1i64)),
            },
            vec![l],
        )
        .unwrap();
    let f2 = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("y").lt(Expr::lit(5i64)),
            },
            vec![f1],
        )
        .unwrap();
    let (sliced, stats) = slice(&dag, f2).unwrap();
    assert_eq!(sliced.len(), 2); // load + merged filter
    assert!(stats.final_nodes < stats.original_nodes / 2);
}

#[test]
fn fig7_zone_marginals_and_table2_stratification() {
    // The full dev split is exercised by the fig7 binary; here the
    // stratified test sets assert the Table 2 sample counts.
    let spider = t_spider(3);
    assert_eq!(spider.len(), 100);
    for (_, n) in zone_histogram(&spider) {
        assert_eq!(n, 25);
    }
    let custom = t_custom(3);
    let hist = zone_histogram(&custom);
    let count = |z: Zone| hist.iter().find(|(h, _)| *h == z).unwrap().1;
    assert_eq!(
        (
            count(Zone::LowLow),
            count(Zone::LowHigh),
            count(Zone::HighLow),
            count(Zone::HighHigh)
        ),
        (20, 22, 26, 22)
    );
}

#[test]
fn table2_shape_holds_on_a_small_slice() {
    // A 20-sample smoke version of the Table 2 harness: easy zone beats
    // the hardest zone.
    let system = datachat::spider::spider_system(7);
    let samples: Vec<_> = t_spider(7)
        .into_iter()
        .filter(|s| matches!(s.zone, Zone::LowLow | Zone::HighHigh))
        .take(24)
        .collect();
    let rows = datachat::spider::evaluate(&samples, &system, 60);
    let ea = |z: Zone| rows.iter().find(|r| r.zone == z).unwrap().mean_ea;
    assert!(
        ea(Zone::LowLow) >= ea(Zone::HighHigh),
        "(low,low) {} must beat (high,high) {}",
        ea(Zone::LowLow),
        ea(Zone::HighHigh)
    );
}

#[test]
fn snapshots_make_iteration_free() {
    let mut store = datachat::storage::SnapshotStore::new();
    let data = demo::sales(1_000, 1);
    store
        .create(
            "s",
            data,
            "cloud.sales",
            vec!["Use the dataset sales".into()],
            None,
        )
        .unwrap();
    for _ in 0..10 {
        store.read("s").unwrap();
    }
    assert_eq!(store.meter().dollars(), 0.0);
    assert_eq!(store.meter().queries(), 10);
}
