//! Criterion bench for §2.2's caching layer: re-requesting results over a
//! shared skill sub-DAG with the executor cache on (warm) vs a fresh
//! executor each time (cold). Ablations: caching on/off and the
//! pure-pointer-copy cost of a fully warm `table_of`.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_engine::{AggSpec, Column, Expr, Table};
use dc_skills::{Env, Executor, SkillCall, SkillDag};
use dc_storage::{CloudDatabase, Pricing};

fn setup() -> (Env, SkillDag, dc_skills::NodeId, dc_skills::NodeId) {
    let mut env = Env::new();
    let n = 100_000usize;
    let t = Table::new(vec![
        ("x", Column::from_ints((0..n as i64).collect())),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 20)).collect::<Vec<_>>()),
        ),
    ])
    .expect("table builds");
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table("events", &t).expect("create");
    env.catalog.add_database(db).expect("add db");

    let mut dag = SkillDag::new();
    let load = dag
        .add(SkillCall::load_table("db", "events"), vec![])
        .expect("load");
    let shared = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").gt(Expr::lit(1000i64)),
            },
            vec![load],
        )
        .expect("filter");
    let a = dag
        .add(
            SkillCall::Compute {
                aggs: vec![AggSpec::count_records("n")],
                for_each: vec!["k".into()],
            },
            vec![shared],
        )
        .expect("agg");
    let b = dag
        .add(SkillCall::Limit { n: 10 }, vec![shared])
        .expect("limit");
    (env, dag, a, b)
}

fn bench_dag_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_cache");
    group.sample_size(10);

    group.bench_function("cold_no_cache", |bch| {
        let (mut env, dag, a, b) = setup();
        bch.iter(|| {
            // A fresh executor per request: nothing shared.
            let mut ex = Executor::new();
            ex.run(&dag, a, &mut env).expect("run a");
            let mut ex = Executor::new();
            ex.run(&dag, b, &mut env).expect("run b")
        })
    });

    group.bench_function("warm_shared_subdag", |bch| {
        let (mut env, dag, a, b) = setup();
        let mut ex = Executor::new();
        ex.run(&dag, a, &mut env).expect("prime");
        bch.iter(|| {
            // The load+filter sub-DAG is shared; only the tails differ.
            ex.run(&dag, a, &mut env).expect("run a");
            ex.run(&dag, b, &mut env).expect("run b")
        })
    });

    group.bench_function("warm_cache_hit_table_of", |bch| {
        let (mut env, dag, a, _) = setup();
        let mut ex = Executor::new();
        ex.run(&dag, a, &mut env).expect("prime");
        bch.iter(|| {
            // Fully warm: the result table comes back as a shared Arc
            // handle — a pointer copy, not a deep clone of the table.
            ex.table_of(&dag, a, &mut env).expect("hit")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_dag_cache);
criterion_main!(benches);
