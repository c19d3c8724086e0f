//! Integration tests for the cross-session materialized sub-DAG cache:
//! zero-copy hits with zero charged scan bytes, versioned invalidation
//! across catalog and snapshot mutations, degraded-result exclusion,
//! side-effect exclusion, concurrent hits under the wave scheduler, and
//! concurrent admissions that evict one another's entries.

use std::sync::Arc;

use dc_engine::{Column, Expr, Table};
use dc_skills::resilient::{ExecPolicy, NodeOutcome};
use dc_skills::{Env, Executor, MaterializedCache, SkillCall, SkillDag, SkillOutput};
use dc_storage::{CloudDatabase, FaultConfig, FaultInjector, Pricing};

fn table(n: usize, offset: i64) -> Table {
    Table::new(vec![
        (
            "x",
            Column::from_ints((0..n as i64).map(|i| i + offset).collect()),
        ),
        (
            "y",
            Column::from_floats((0..n).map(|i| i as f64 * 0.5).collect()),
        ),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 5)).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

/// An environment holding `events` in database `db`, attached to
/// `shared` as its cross-session cache tier.
fn env_with_cache(shared: &Arc<MaterializedCache>) -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("events", &table(4_000, 0), 256)
        .unwrap();
    env.catalog.add_database(db).unwrap();
    env.shared_cache = Some(Arc::clone(shared));
    env
}

/// load events → filter → group-count; returns (dag, compute node).
fn pipeline() -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let l = dag
        .add(SkillCall::load_table("db", "events"), vec![])
        .unwrap();
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").ge(Expr::lit(100i64)),
            },
            vec![l],
        )
        .unwrap();
    let c = dag
        .add(
            SkillCall::Compute {
                aggs: vec![dc_engine::AggSpec::count_records("n")],
                for_each: vec!["k".into()],
            },
            vec![f],
        )
        .unwrap();
    (dag, c)
}

#[test]
fn cross_executor_hit_charges_zero_scan_bytes_and_is_zero_copy() {
    let shared = Arc::new(MaterializedCache::new(64 << 20));
    let mut env = env_with_cache(&shared);
    let (dag, target) = pipeline();

    let mut cold = Executor::new();
    let expected = cold.run(&dag, target, &mut env).unwrap();
    assert_eq!(cold.stats.shared_hits, 0);
    let meter = env.catalog.database("db").unwrap().meter();
    let (cold_queries, cold_bytes) = (meter.queries(), meter.bytes());
    assert!(cold_bytes > 0);

    // A different executor (a different session) has a cold local cache
    // but meets the first one in the shared tier: identical output, not
    // one more byte or query charged against the catalog.
    let mut warm = Executor::new();
    let out = warm.run(&dag, target, &mut env).unwrap();
    assert_eq!(out, expected);
    assert_eq!(warm.stats.nodes_executed, 0);
    assert!(warm.stats.shared_hits >= 1);
    assert!(warm.stats.bytes_saved > 0);
    let meter = env.catalog.database("db").unwrap().meter();
    assert_eq!(meter.queries(), cold_queries);
    assert_eq!(meter.bytes(), cold_bytes);

    // Hits share the resident allocation — pointer copies, never deep
    // clones: two independent warm executors see the same `Arc`.
    let mut warm2 = Executor::new();
    let t1 = warm.table_of(&dag, target, &mut env).unwrap();
    let t2 = warm2.table_of(&dag, target, &mut env).unwrap();
    assert!(Arc::ptr_eq(&t1, &t2));
}

#[test]
fn drop_and_recreate_table_invalidates_both_tiers() {
    let shared = Arc::new(MaterializedCache::new(64 << 20));
    let mut env = env_with_cache(&shared);
    let (dag, target) = pipeline();

    let mut ex = Executor::new();
    let stale = ex.run(&dag, target, &mut env).unwrap();

    // Mutate the source: same name, shifted values.
    let db = env.catalog.database_mut("db").unwrap();
    db.drop_table("events").unwrap();
    db.create_table_with_blocks("events", &table(4_000, 1_000), 256)
        .unwrap();

    // The same executor re-interns under the new table version and must
    // recompute rather than serve its own stale entry...
    let fresh_same = ex.run(&dag, target, &mut env).unwrap();
    // ...and a new executor must not be served the stale shared entry.
    let fresh_new = Executor::new().run(&dag, target, &mut env).unwrap();
    assert_eq!(fresh_same, fresh_new);
    assert_ne!(stale, fresh_new, "mutation must change the result");

    let expected = {
        let mut clean_env = Env::new();
        let mut db = CloudDatabase::new("db", Pricing::default_cloud());
        db.create_table_with_blocks("events", &table(4_000, 1_000), 256)
            .unwrap();
        clean_env.catalog.add_database(db).unwrap();
        Executor::new().run(&dag, target, &mut clean_env).unwrap()
    };
    assert_eq!(fresh_new, expected);
}

#[test]
fn snapshot_refresh_invalidates_cached_reads() {
    let shared = Arc::new(MaterializedCache::new(64 << 20));
    let mut env = env_with_cache(&shared);
    env.snapshots
        .create("sample", table(100, 0), "db.events", vec![], None)
        .unwrap();
    let mut dag = SkillDag::new();
    let s = dag
        .add(
            SkillCall::UseSnapshot {
                name: "sample".into(),
            },
            vec![],
        )
        .unwrap();
    let count = dag.add(SkillCall::CountRows, vec![s]).unwrap();

    let mut ex = Executor::new();
    let out = ex.run(&dag, count, &mut env).unwrap();
    assert_eq!(out, dc_skills::SkillOutput::Text("100".into()));

    env.snapshots.refresh("sample", table(55, 0)).unwrap();
    // The long-lived executor's local cache holds the old read; the
    // store-version salt makes it unreachable.
    let out = ex.run(&dag, count, &mut env).unwrap();
    assert_eq!(out, dc_skills::SkillOutput::Text("55".into()));

    // Delete + recreate under the same name is a new incarnation too.
    env.snapshots.delete("sample").unwrap();
    env.snapshots
        .create("sample", table(7, 0), "db.events", vec![], None)
        .unwrap();
    let out = ex.run(&dag, count, &mut env).unwrap();
    assert_eq!(out, dc_skills::SkillOutput::Text("7".into()));
}

#[test]
fn degraded_results_are_never_admitted_to_the_shared_cache() {
    let shared = Arc::new(MaterializedCache::new(64 << 20));
    let mut env = env_with_cache(&shared);
    let (dag, target) = pipeline();

    // Every full scan fails; the load only completes via the degraded
    // (block-sampled) fallback.
    let inj = Arc::new(FaultInjector::new(FaultConfig {
        scan_transient_p: 1.0,
        spare_sampled_scans: true,
        seed: 3,
        ..FaultConfig::disabled()
    }));
    env.catalog.set_fault_injector(&inj);
    let policy = ExecPolicy {
        degrade_after: Some(1),
        degraded_fraction: 0.25,
        ..ExecPolicy::default()
    };
    let mut ex = Executor::new();
    let report = ex.run_resilient(&dag, target, &mut env, &policy).unwrap();
    assert!(report.succeeded());
    assert!(!report.degraded_nodes().is_empty(), "load must degrade");

    // Neither the sampled load nor anything computed from it may be
    // published as authoritative.
    assert_eq!(shared.stats().insertions, 0);
    assert_eq!(shared.len(), 0);

    // The local cache keeps the degraded result for resume semantics.
    let report2 = ex.run_resilient(&dag, target, &mut env, &policy).unwrap();
    assert!(report2
        .nodes
        .iter()
        .all(|n| matches!(n.outcome, NodeOutcome::CacheHit)));

    // With faults gone, a fresh session computes the authoritative
    // result — and only that run populates the shared tier.
    env.catalog.clear_fault_injector();
    let mut ex2 = Executor::new();
    let full = ex2.run(&dag, target, &mut env).unwrap();
    assert_eq!(ex2.stats.shared_hits, 0, "no stale degraded entry served");
    assert!(shared.stats().insertions > 0);
    let n_col = full.as_table().unwrap().column("n").unwrap().clone();
    let full_n: f64 = (0..n_col.len())
        .map(|i| n_col.numeric_at(i).unwrap_or(0.0))
        .sum();
    assert_eq!(full_n as i64, 3_900);
}

#[test]
fn side_effecting_nodes_stay_out_of_the_shared_cache() {
    let shared = Arc::new(MaterializedCache::new(64 << 20));
    let mut env = env_with_cache(&shared);
    let mut dag = SkillDag::new();
    let l = dag
        .add(SkillCall::load_table("db", "events"), vec![])
        .unwrap();
    let t = dag
        .add(
            SkillCall::TrainModel {
                name: "m".into(),
                target: "y".into(),
                features: vec!["x".into()],
                method: dc_ml::MlMethod::Auto,
            },
            vec![l],
        )
        .unwrap();
    Executor::new().run(&dag, t, &mut env).unwrap();
    // Only the version-addressable load is shared; the model-registry
    // write must re-execute per session so its side effect happens.
    assert_eq!(shared.stats().insertions, 1);
    assert!(env.model_names().contains(&"m"));
}

/// Concurrent sessions hammering one shared cache (exercised by the TSan
/// job, which selects tests whose names contain "parallel"): all
/// sessions agree on the result regardless of who populated the cache.
#[test]
fn parallel_sessions_share_one_cache_consistently() {
    let shared = Arc::new(MaterializedCache::new(64 << 20));
    let (dag, target) = pipeline();
    let dag = Arc::new(dag);
    let wave = || -> Vec<_> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let dag = Arc::clone(&dag);
                    scope.spawn(move || {
                        // Each session has its own environment view of the
                        // same logical catalog (identical data, identical
                        // version history) plus the shared cache handle.
                        let mut env = env_with_cache(&shared);
                        let mut ex = Executor::new();
                        ex.run(&dag, target, &mut env).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    let outputs = wave();
    for out in &outputs[1..] {
        assert_eq!(out, &outputs[0]);
    }
    let stats = shared.stats();
    assert!(stats.insertions >= 1);
    // Every probe either hit or raced the first population; nothing
    // else can happen on identical version-salted keys.
    assert_eq!(stats.hits + stats.misses, stats.hits + stats.insertions);

    // A second wave finds the result resident, so four threads are handed
    // — and read, compare and drop — one entry's column buffers at once.
    let hits = wave();
    assert_eq!(shared.stats().insertions, stats.insertions);
    let first = hits[0].as_table().unwrap();
    for out in &hits {
        assert_eq!(out, &outputs[0]);
        assert!(out.as_table().unwrap().shares_columns_with(first));
    }
}

#[test]
fn eviction_under_concurrent_admits_parallel_4_threads() {
    // Each thread admits its own keys into a cache that holds about eighty
    // entries, so the threads evict each other's entries while each probes
    // its newest key and a neighbour's.
    const PER_THREAD: u64 = 400;
    let rows = |key: u64| 16 + (key % 48) as usize;
    let footprint = |key: u64| (key % 7) * 1_000;
    let capacity = 64 << 10;
    let shared = MaterializedCache::new(capacity);
    let start = std::sync::Barrier::new(4);
    let probes: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut probes = 0;
                    for i in 0..PER_THREAD {
                        let key = (t << 32) | i;
                        let flow = Arc::new(table(rows(key), key as i64));
                        let out = SkillOutput::Table(flow.as_ref().clone());
                        shared.admit(u128::from(key), out, flow, footprint(key));
                        let theirs = (((t + 1) % 4) << 32) | i.saturating_sub(1);
                        for k in [key, theirs] {
                            probes += 1;
                            // A hit is the entry admitted under that key.
                            if let Some(hit) = shared.get(u128::from(k)) {
                                assert_eq!(hit.footprint_bytes, footprint(k));
                                assert_eq!(hit.table.num_rows(), rows(k));
                            }
                        }
                    }
                    probes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let s = shared.stats();
    assert!(s.resident_bytes <= capacity);
    assert_eq!(s.hits + s.misses, probes);
    assert_eq!(s.rejected, 0);
    assert!(s.evictions > 0 && s.hits > 0);
    // No key is admitted twice, so there are no replacements.
    assert_eq!(s.insertions - s.evictions, s.entries as u64);
    assert_eq!(s.insertions, 4 * PER_THREAD);
}
