//! Criterion bench for the engine's core kernels — the substrate every
//! skill bottoms out in. Not a paper figure; a regression guard for the
//! operators whose cost the §2/§3 experiments depend on.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_engine::ops::{filter, group_by, join, sort_by, AggFunc, AggSpec, JoinType, SortKey};
use dc_engine::{Column, Expr, Table};

fn events(n: usize) -> Table {
    Table::new(vec![
        ("id", Column::from_ints((0..n as i64).collect())),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 50)).collect::<Vec<_>>()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("table builds")
}

fn bench_engine(c: &mut Criterion) {
    let t = events(200_000);
    let small = events(20_000);

    let mut group = c.benchmark_group("engine_ops");
    group.sample_size(10);
    let pred = Expr::col("v").gt(Expr::lit(500.0));
    group.bench_function("filter_200k", |b| {
        b.iter(|| filter(&t, &pred).expect("filters"))
    });
    let aggs = [
        AggSpec::new(AggFunc::Sum, "v", "s"),
        AggSpec::count_records("n"),
    ];
    group.bench_function("group_by_200k_50groups", |b| {
        b.iter(|| group_by(&t, &["k"], &aggs).expect("groups"))
    });
    let sort_keys = [SortKey::desc("v"), SortKey::asc("id")];
    group.bench_function("sort_200k", |b| {
        b.iter(|| sort_by(&t, &sort_keys).expect("sorts"))
    });
    group.bench_function("hash_join_20k_x_20k", |b| {
        b.iter(|| join(&small, &small, &["id"], &["id"], JoinType::Inner).expect("joins"))
    });
    group.bench_function("csv_roundtrip_20k", |b| {
        b.iter(|| {
            let text = dc_engine::csv::write_csv(&small);
            dc_engine::csv::read_csv(&text).expect("parses")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
