//! Cross-session materialized-cache speedup on an overlapping
//! many-session workload, emitted as machine-readable JSON
//! (`BENCH_cache.json`).
//!
//! The workload models the platform's collaborative steady state: many
//! sessions, each with its own executor (cold per-run cache), all asking
//! overlapping questions of the same warehouse table. `cold` runs the
//! whole fleet without a shared cache, so every session re-scans and
//! recomputes; `warm` hands every session one `MaterializedCache`, so
//! the first session materializes each sub-DAG and the rest hit it
//! zero-copy at zero charged scan bytes.
//!
//! `--smoke` skips timing and gates correctness: warm hits must return
//! byte-identical rows to the cold computation while charging 0
//! additional scan bytes against the catalog meter.

use std::sync::Arc;
use std::time::Instant;

use dc_engine::{AggFunc, AggSpec, Column, Expr, Table};
use dc_skills::{Env, Executor, MaterializedCache, SkillCall, SkillDag, SkillOutput};
use dc_storage::{CloudDatabase, Pricing};

const ROWS: usize = 1_000_000;
const SESSIONS: usize = 32;

fn warehouse_table(n: usize) -> Table {
    Table::new(vec![
        ("x", Column::from_ints((0..n as i64).collect())),
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

fn build_env(rows: usize, shared: Option<&Arc<MaterializedCache>>) -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("warehouse", Pricing::default_cloud());
    db.create_table_with_blocks("events", &warehouse_table(rows), 8192)
        .expect("create events");
    env.catalog.add_database(db).expect("add db");
    env.shared_cache = shared.map(Arc::clone);
    env
}

fn load(dag: &mut SkillDag) -> usize {
    dag.add(SkillCall::load_table("warehouse", "events"), vec![])
        .expect("load node")
}

fn compute(dag: &mut SkillDag, input: usize, aggs: Vec<AggSpec>) -> usize {
    dag.add(
        SkillCall::Compute {
            aggs,
            for_each: vec!["k".into()],
        },
        vec![input],
    )
    .expect("compute node")
}

/// The overlapping question set every session asks. Each pipeline ends
/// in a grouped aggregate, so outputs are small while the intermediate
/// scans and filters carry the cost.
fn pipelines(rows: usize) -> Vec<(&'static str, SkillDag, usize)> {
    let mut out = Vec::new();

    let mut dag = SkillDag::new();
    let l = load(&mut dag);
    let c = compute(
        &mut dag,
        l,
        vec![
            AggSpec::new(AggFunc::Sum, "v", "total"),
            AggSpec::count_records("n"),
        ],
    );
    out.push(("agg_by_key", dag, c));

    let mut dag = SkillDag::new();
    let l = load(&mut dag);
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").ge(Expr::lit((rows / 4) as i64)),
            },
            vec![l],
        )
        .expect("filter node");
    let c = compute(&mut dag, f, vec![AggSpec::new(AggFunc::Sum, "v", "total")]);
    out.push(("tail_sum", dag, c));

    let mut dag = SkillDag::new();
    let l = load(&mut dag);
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").lt(Expr::lit((rows / 2) as i64)),
            },
            vec![l],
        )
        .expect("filter node");
    let c = compute(&mut dag, f, vec![AggSpec::new(AggFunc::Avg, "v", "mean")]);
    out.push(("head_avg", dag, c));

    let mut dag = SkillDag::new();
    let l = load(&mut dag);
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("v").gt(Expr::lit(500.0)),
            },
            vec![l],
        )
        .expect("filter node");
    let c = compute(&mut dag, f, vec![AggSpec::count_records("n")]);
    out.push(("hot_rows", dag, c));

    out
}

struct FleetRun {
    /// Wall-clock nanoseconds per session, in session order.
    session_ns: Vec<u128>,
    /// Every session's outputs, in (session, pipeline) order.
    outputs: Vec<SkillOutput>,
    /// Catalog meter bytes after each session.
    meter_bytes: Vec<u64>,
    /// Sum of executor shared-tier hits across the fleet.
    shared_hits: u64,
    /// Sum of scan bytes the caches saved across the fleet.
    bytes_saved: u64,
}

/// Run `sessions` fresh executors over the question set against one
/// environment. `shared` switches the cross-session tier on.
fn run_fleet(rows: usize, sessions: usize, shared: Option<&Arc<MaterializedCache>>) -> FleetRun {
    let mut env = build_env(rows, shared);
    let work = pipelines(rows);
    // One untimed session against a cache-less view of the environment:
    // faults in the block pages and grows the allocator arenas, so the
    // timed fleet measures steady-state compute in both modes instead of
    // first-touch costs that have nothing to do with caching.
    let detached = env.shared_cache.take();
    {
        // Scoped so the prewarm executor's result cache frees before
        // timing starts — otherwise session 1 first-touches a second
        // working set on top of the prewarm one.
        let mut prewarm = Executor::new();
        for (_, dag, target) in &work {
            prewarm.run(dag, *target, &mut env).expect("prewarm runs");
        }
    }
    env.shared_cache = detached;
    let meter_base = env
        .catalog
        .database("warehouse")
        .expect("db")
        .meter()
        .bytes();
    let mut run = FleetRun {
        session_ns: Vec::new(),
        outputs: Vec::new(),
        meter_bytes: Vec::new(),
        shared_hits: 0,
        bytes_saved: 0,
    };
    for _ in 0..sessions {
        let mut ex = Executor::new();
        let start = Instant::now();
        for (_, dag, target) in &work {
            run.outputs
                .push(ex.run(dag, *target, &mut env).expect("pipeline runs"));
        }
        run.session_ns.push(start.elapsed().as_nanos());
        run.meter_bytes.push(
            env.catalog
                .database("warehouse")
                .expect("db")
                .meter()
                .bytes()
                - meter_base,
        );
        run.shared_hits += ex.stats.shared_hits;
        run.bytes_saved += ex.stats.bytes_saved;
    }
    run
}

/// Correctness gate shared by `--smoke` and the timed run: byte-identical
/// outputs everywhere, and zero charged scan bytes for every warm
/// session after the first.
fn divergences(cold: &FleetRun, warm: &FleetRun, sessions: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let per_session = cold.outputs.len() / sessions;
    for (i, (c, w)) in cold.outputs.iter().zip(&warm.outputs).enumerate() {
        if c != w {
            bad.push(format!(
                "session {} pipeline {}: warm output diverges from cold",
                i / per_session,
                i % per_session
            ));
        }
    }
    for s in 1..sessions {
        let delta = warm.meter_bytes[s] - warm.meter_bytes[s - 1];
        if delta != 0 {
            bad.push(format!(
                "warm session {s} charged {delta} scan bytes; hits must charge 0"
            ));
        }
    }
    if warm.shared_hits == 0 {
        bad.push("warm fleet recorded no shared-cache hits".into());
    }
    bad
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        let sessions = 4;
        let cold = run_fleet(20_000, sessions, None);
        let shared = Arc::new(MaterializedCache::new(MaterializedCache::DEFAULT_CAPACITY));
        let warm = run_fleet(20_000, sessions, Some(&shared));
        let bad = divergences(&cold, &warm, sessions);
        if !bad.is_empty() {
            eprintln!("smoke FAILED: {bad:?}");
            std::process::exit(1);
        }
        println!(
            "smoke ok: {} warm hits returned byte-identical rows at 0 charged scan bytes",
            warm.shared_hits
        );
        return;
    }

    let cold = run_fleet(ROWS, SESSIONS, None);
    let shared = Arc::new(MaterializedCache::new(1 << 30));
    let warm = run_fleet(ROWS, SESSIONS, Some(&shared));
    let bad = divergences(&cold, &warm, SESSIONS);
    assert!(bad.is_empty(), "warm/cold divergence: {bad:?}");

    let cold_total: u128 = cold.session_ns.iter().sum();
    let warm_total: u128 = warm.session_ns.iter().sum();
    let speedup = cold_total as f64 / warm_total as f64;
    for (mode, fleet, total) in [("cold", &cold, cold_total), ("warm", &warm, warm_total)] {
        println!(
            "{mode:<5} {:>10.2} ms aggregate ({} sessions x {} pipelines, {} shared hits, {} bytes saved)",
            total as f64 / 1e6,
            SESSIONS,
            fleet.outputs.len() / SESSIONS,
            fleet.shared_hits,
            fleet.bytes_saved,
        );
    }
    println!("aggregate warm-vs-cold speedup: {speedup:.2}x");
    let stats = shared.stats();

    // Hand-rolled JSON: the workspace deliberately carries no serde.
    let record = |mode: &str, fleet: &FleetRun, total: u128| {
        format!(
            "  {{\"mode\": \"{}\", \"sessions\": {}, \"pipelines\": {}, \"rows\": {}, \
             \"aggregate_ns\": {}, \"first_session_ns\": {}, \"bytes_scanned\": {}, \
             \"shared_hits\": {}, \"bytes_saved\": {}, \"session_ns\": [{}]}}",
            mode,
            SESSIONS,
            fleet.outputs.len() / SESSIONS,
            ROWS,
            total,
            fleet.session_ns[0],
            fleet.meter_bytes.last().unwrap(),
            fleet.shared_hits,
            fleet.bytes_saved,
            fleet
                .session_ns
                .iter()
                .map(|ns| ns.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        )
    };
    let json = format!(
        "{{\n\"fleets\": [\n{},\n{}\n],\n\"speedup\": {:.2},\n\"cache\": {{\"entries\": {}, \
         \"resident_bytes\": {}, \"hits\": {}, \"insertions\": {}, \"evictions\": {}}}\n}}\n",
        record("cold", &cold, cold_total),
        record("warm", &warm, warm_total),
        speedup,
        stats.entries,
        stats.resident_bytes,
        stats.hits,
        stats.insertions,
        stats.evictions,
    );
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("wrote BENCH_cache.json");

    assert!(
        speedup > 10.0,
        "aggregate warm speedup {speedup:.2}x is below the 10x bar"
    );
}
