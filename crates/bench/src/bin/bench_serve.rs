//! Multi-tenant serving under a noisy neighbor, emitted as
//! machine-readable JSON (`BENCH_serve.json`).
//!
//! The workload models a platform hosting one shared warehouse for many
//! chat tenants. A fleet of *interactive* tenants runs short
//! filter+aggregate questions closed-loop; one *noisy* tenant loops
//! million-row join pipelines. Three phases:
//!
//! * **baseline** — the interactive fleet alone. p50/p99 here is the
//!   no-neighbor reference.
//! * **contended** — the same fleet plus the noisy tenant. The serving
//!   layer's admission control, weighted round-robin, and time-sliced
//!   preemption are what keep the interactive p99 within the paper-style
//!   "no starvation" bar: **p99(contended) ≤ 3 × p99(baseline)**.
//! * **overload** — queue depths and scan budgets shrunk so admission
//!   control actually sheds: every over-capacity / over-budget
//!   submission must be answered with a typed rejection, and every
//!   admitted job must still be answered exactly once.
//!
//! `--smoke` shrinks the tables and fleet and gates only the
//! correctness/accounting invariants (latency needs a quiet machine).
//! `--chaos --seed N` additionally injects seeded transient scan faults
//! and slow blocks into the shared catalog, proving the invariants hold
//! while the resilient executor absorbs storage failures mid-slice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dc_collab::EnvHandle;
use dc_engine::{AggFunc, AggSpec, Column, Expr, JoinType, Table};
use dc_serve::{
    Request, ReservationMode, ServeConfig, ServeError, ServiceStats, SessionService, TenantConfig,
};
use dc_skills::{Env, SkillCall};
use dc_storage::{BudgetConfig, CloudDatabase, FaultConfig, FaultInjector, Pricing};

/// Workload sizing, switched by `--smoke`.
#[derive(Clone, Copy)]
struct Scale {
    event_rows: usize,
    ticket_rows: usize,
    interactive_tenants: usize,
    /// Closed-loop iterations per interactive tenant, per phase.
    iterations: usize,
}

const FULL: Scale = Scale {
    event_rows: 1_000_000,
    ticket_rows: 30_000,
    interactive_tenants: 31,
    iterations: 6,
};

const SMOKE: Scale = Scale {
    event_rows: 40_000,
    ticket_rows: 2_000,
    interactive_tenants: 7,
    iterations: 3,
};

const DIM_ROWS: usize = 1_000;

fn events_table(n: usize) -> Table {
    Table::new(vec![
        ("x", Column::from_ints((0..n as i64).collect())),
        (
            "gid",
            Column::from_ints((0..n).map(|i| (i % DIM_ROWS) as i64).collect::<Vec<_>>()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("events table")
}

fn dims_table() -> Table {
    Table::new(vec![
        ("gid", Column::from_ints((0..DIM_ROWS as i64).collect())),
        (
            "label",
            Column::from_strs(
                (0..DIM_ROWS)
                    .map(|i| format!("seg{}", i % 20))
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
    .expect("dims table")
}

fn tickets_table(n: usize) -> Table {
    Table::new(vec![
        (
            "priority",
            Column::from_ints((0..n).map(|i| (i % 100) as i64).collect::<Vec<_>>()),
        ),
        (
            "status",
            Column::from_strs((0..n).map(|i| format!("s{}", i % 6)).collect::<Vec<_>>()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 31) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("tickets table")
}

/// Day-clustered log: `day` rises monotonically, so a blocked layout
/// gives zone maps that genuinely prune day-range filters (unlike
/// `tickets.priority`, which cycles inside every block). This is the
/// table the estimator-based admission phase scans.
fn history_table(n: usize) -> Table {
    Table::new(vec![
        (
            "day",
            Column::from_ints((0..n).map(|i| (i * 100 / n) as i64).collect::<Vec<_>>()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 53) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("history table")
}

/// One shared world per phase: a consumption-priced warehouse with the
/// big events table, the small join dimension, and the interactive
/// tickets table. `chaos_seed` arms seeded fault injection.
fn build_world(scale: Scale, chaos_seed: Option<u64>) -> EnvHandle {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("warehouse", Pricing::default_cloud());
    db.create_table("events", &events_table(scale.event_rows))
        .expect("create events");
    db.create_table("dims", &dims_table()).expect("create dims");
    db.create_table("tickets", &tickets_table(scale.ticket_rows))
        .expect("create tickets");
    let history_rows = (scale.event_rows / 10).max(100);
    db.create_table_with_blocks(
        "history",
        &history_table(history_rows),
        (history_rows / 50).max(1),
    )
    .expect("create history");
    env.catalog.add_database(db).expect("add db");
    if let Some(seed) = chaos_seed {
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            seed,
            scan_transient_p: 0.20,
            slow_block_p: 0.05,
            slow_block_ms: 1,
            ..FaultConfig::disabled()
        }));
        env.catalog.set_fault_injector(&injector);
    }
    EnvHandle::new(env)
}

/// Interactive question: short filter + grouped count over tickets.
fn interactive_request() -> Request {
    Request::new(vec![
        SkillCall::load_table("warehouse", "tickets"),
        SkillCall::KeepRows {
            predicate: Expr::col("priority").gt(Expr::lit(50i64)),
        },
        SkillCall::Compute {
            aggs: vec![AggSpec::count_records("n")],
            for_each: vec!["status".into()],
        },
    ])
}

/// Budget-fleet question: a selective day-range slice of the clustered
/// history log. Submit-time pushdown fuses the filter into the load, so
/// the estimator's reservation is the ~10% of blocks that survive
/// pruning, while full-byte reservations still price the whole table.
fn budget_fleet_request() -> Request {
    Request::new(vec![
        SkillCall::load_table("warehouse", "history"),
        SkillCall::KeepRows {
            predicate: Expr::col("day").ge(Expr::lit(90i64)),
        },
        SkillCall::Compute {
            aggs: vec![AggSpec::count_records("n")],
            for_each: vec![],
        },
    ])
}

/// Noisy pipeline: load the whole events table, join it against the
/// dimension (bound once per session under the name `dims`), aggregate.
fn noisy_join_request() -> Request {
    Request::new(vec![
        SkillCall::load_table("warehouse", "events"),
        SkillCall::Join {
            other: "dims".into(),
            left_on: vec!["gid".into()],
            right_on: vec!["gid".into()],
            how: JoinType::Inner,
        },
        SkillCall::Compute {
            aggs: vec![AggSpec::new(AggFunc::Sum, "v", "total")],
            for_each: vec!["label".into()],
        },
    ])
}

fn noisy_prelude_request() -> Request {
    Request::new(vec![SkillCall::load_table("warehouse", "dims")]).named("dims")
}

struct PhaseOut {
    /// Interactive request wall latencies, milliseconds.
    lat_ms: Vec<f64>,
    p50_ms: f64,
    p99_ms: f64,
    /// Interactive completions per second of phase wall time.
    jobs_per_sec: f64,
    noisy_iterations: u64,
    noisy_failures: u64,
    stats: ServiceStats,
    violations: Vec<String>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Run one phase: `scale.interactive_tenants` closed-loop clients, plus
/// (optionally) one noisy tenant looping heavy joins until the clients
/// finish. Returns latency stats and invariant violations.
fn run_phase(scale: Scale, with_noisy: bool, chaos_seed: Option<u64>) -> PhaseOut {
    let env = build_world(scale, chaos_seed);
    let service = SessionService::start(
        env,
        ServeConfig {
            workers: 4,
            // Generous in the measured phases: admission never sheds, so
            // latency reflects scheduling, not rejection-and-retry.
            global_queue_limit: 4096,
            ..ServeConfig::default()
        },
    );
    let tenants: Vec<String> = (0..scale.interactive_tenants)
        .map(|t| format!("analyst-{t}"))
        .collect();
    for name in &tenants {
        service
            .register_tenant(name, TenantConfig::new().queue_limit(64))
            .unwrap();
    }
    if with_noisy {
        service
            .register_tenant("noisy", TenantConfig::new().queue_limit(8))
            .unwrap();
        let prelude = service.run("noisy", noisy_prelude_request());
        assert!(prelude.outcome.is_ok(), "{:?}", prelude.outcome);
    }

    let stop = AtomicBool::new(false);
    let noisy_iterations = AtomicU64::new(0);
    let noisy_failures = AtomicU64::new(0);
    let mut violations: Vec<String> = Vec::new();
    let started = Instant::now();
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut interactive_wall = 0.0f64;

    let service_ref = &service;
    let stop_ref = &stop;
    std::thread::scope(|scope| {
        let noisy_iterations = &noisy_iterations;
        let noisy_failures = &noisy_failures;
        let noisy_thread = with_noisy.then(|| {
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Relaxed) {
                    let result = service_ref.run("noisy", noisy_join_request());
                    match result.outcome {
                        Ok(_) => {
                            noisy_iterations.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::ShuttingDown) => break,
                        // Under chaos the join can exhaust its retries or
                        // preemption allowance — typed, not lost.
                        Err(_) => {
                            noisy_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        });
        let clients: Vec<_> = tenants
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(scale.iterations);
                    let mut bad = Vec::new();
                    for i in 0..scale.iterations {
                        let result = service_ref.run(name, interactive_request());
                        match result.outcome {
                            Ok(_) => lats.push(result.wall.as_secs_f64() * 1e3),
                            Err(err) => bad.push(format!(
                                "{name} iteration {i}: interactive job failed: {err}"
                            )),
                        }
                    }
                    (lats, bad)
                })
            })
            .collect();
        for client in clients {
            let (lats, bad) = client.join().expect("client thread");
            lat_ms.extend(lats);
            violations.extend(bad);
        }
        interactive_wall = started.elapsed().as_secs_f64();
        // With the fleet gone the noisy tenant owns the pool
        // (work-conserving fair share): let it bank at least one full
        // pipeline so "fair" provably doesn't mean "starved".
        if with_noisy {
            let drain_deadline = Instant::now() + std::time::Duration::from_secs(60);
            while noisy_iterations.load(Ordering::Relaxed) == 0
                && noisy_failures.load(Ordering::Relaxed) < 5
                && Instant::now() < drain_deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(noisy) = noisy_thread {
            noisy.join().expect("noisy thread");
        }
    });

    let wall = interactive_wall;
    let stats = service.stats();
    // Exactly-once accounting: every admitted job got an answer (the
    // closed loops waited on each one), none rejected in measured phases.
    if stats.admitted != stats.answered() {
        violations.push(format!(
            "lost jobs: admitted {} != answered {}",
            stats.admitted,
            stats.answered()
        ));
    }
    if stats.rejected_queue + stats.rejected_budget != 0 {
        violations.push(format!(
            "unexpected rejections in measured phase: {stats:?}"
        ));
    }
    let expected = (scale.interactive_tenants * scale.iterations) as u64;
    let completed_interactive = lat_ms.len() as u64;
    if chaos_seed.is_none() && completed_interactive != expected {
        violations.push(format!(
            "interactive completions {completed_interactive} != submitted {expected}"
        ));
    }
    service.shutdown();

    let mut sorted = lat_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PhaseOut {
        p50_ms: percentile(&sorted, 0.50),
        p99_ms: percentile(&sorted, 0.99),
        jobs_per_sec: completed_interactive as f64 / wall,
        noisy_iterations: noisy_iterations.load(Ordering::Relaxed),
        noisy_failures: noisy_failures.load(Ordering::Relaxed),
        stats,
        violations,
        lat_ms,
    }
}

struct OverloadOut {
    rejected_budget: u64,
    rejected_queue: u64,
    shed_at_shutdown: u64,
    stats: ServiceStats,
    violations: Vec<String>,
}

/// Overload + budget phase: a tiny-budget tenant and a burst tenant with
/// a shallow queue, submitted open-loop. Every rejection must be typed;
/// every admitted job must still be answered.
fn run_overload(scale: Scale, chaos_seed: Option<u64>) -> OverloadOut {
    let env = build_world(scale, chaos_seed);
    let events_bytes = env.with(|env| {
        env.catalog
            .database("warehouse")
            .unwrap()
            .table("events")
            .unwrap()
            .total_bytes()
    });
    let service = SessionService::start(
        env,
        ServeConfig {
            workers: 2,
            global_queue_limit: 16,
            ..ServeConfig::default()
        },
    );
    // Budget covers roughly three event scans, no refill: the fourth
    // submission must bounce with a typed budget rejection.
    service
        .register_tenant(
            "metered",
            TenantConfig::new()
                .queue_limit(16)
                .budget(BudgetConfig::fixed(events_bytes * 3 + events_bytes / 2)),
        )
        .unwrap();
    service
        .register_tenant("burst", TenantConfig::new().queue_limit(4))
        .unwrap();

    let mut violations = Vec::new();
    let mut rejected_budget = 0u64;
    let mut rejected_queue = 0u64;
    let mut handles = Vec::new();

    // Open-loop: 8 metered scans (budget admits ~3 before settlement
    // refunds trickle back) and 40 burst questions against depth-4/16
    // queues drained by 2 workers.
    for i in 0..8 {
        match service.submit(
            "metered",
            Request::new(vec![SkillCall::load_table("warehouse", "events")]),
        ) {
            Ok(h) => handles.push(h),
            Err(ServeError::Rejected { reason, .. }) => {
                rejected_budget += 1;
                if reason != dc_serve::RejectReason::BudgetExhausted {
                    violations.push(format!("metered submit {i}: wrong reason {reason:?}"));
                }
            }
            Err(other) => violations.push(format!("metered submit {i}: untyped: {other}")),
        }
    }
    for i in 0..40 {
        match service.submit("burst", interactive_request()) {
            Ok(h) => handles.push(h),
            Err(ServeError::Rejected { retry_after, .. }) => {
                rejected_queue += 1;
                if retry_after.is_none() {
                    violations.push(format!("burst submit {i}: queue rejection without hint"));
                }
            }
            Err(other) => violations.push(format!("burst submit {i}: untyped: {other}")),
        }
    }

    // Every admitted handle resolves with some typed answer.
    for handle in handles {
        let result = handle.wait();
        if let Err(err) = &result.outcome {
            match err {
                ServeError::Rejected { .. }
                | ServeError::Failed { .. }
                | ServeError::Evicted { .. }
                | ServeError::ShuttingDown => {}
                other => violations.push(format!("admitted job answered oddly: {other}")),
            }
        }
    }
    let stats = service.stats();
    if stats.admitted != stats.answered() {
        violations.push(format!(
            "overload lost jobs: admitted {} != answered {}",
            stats.admitted,
            stats.answered()
        ));
    }
    if rejected_budget == 0 {
        violations.push("no budget rejection observed (budget too large?)".into());
    }
    if rejected_queue == 0 {
        violations.push("no queue rejection observed (queues too deep?)".into());
    }
    if let Some((_avail, deposited, charged)) = service.budget_state("metered") {
        if charged > deposited {
            violations.push(format!(
                "budget overcharge: charged {charged} > deposited {deposited}"
            ));
        }
    }
    let shed = stats.shed_at_shutdown;
    service.shutdown();
    OverloadOut {
        rejected_budget,
        rejected_queue,
        shed_at_shutdown: shed,
        stats,
        violations,
    }
}

struct BudgetFleetOut {
    admitted: u64,
    rejected_budget: u64,
    violations: Vec<String>,
}

/// Budget-constrained interactive fleet: one tenant whose fixed deposit
/// is *smaller than a single full history scan*, submitting selective
/// day-range questions open-loop. Under [`ReservationMode::FullBytes`]
/// every submission is dead on arrival; under the default
/// [`ReservationMode::Estimated`] the analyzer's pruned-scan bound fits
/// several jobs into the same deposit. The strict `Estimated > FullBytes`
/// admission comparison in `main` is the PR's acceptance gate.
fn run_budget_fleet(
    scale: Scale,
    mode: ReservationMode,
    chaos_seed: Option<u64>,
) -> BudgetFleetOut {
    let env = build_world(scale, chaos_seed);
    let history_bytes = env.with(|env| {
        env.catalog
            .database("warehouse")
            .unwrap()
            .table("history")
            .unwrap()
            .total_bytes()
    });
    let service = SessionService::start(
        env,
        ServeConfig {
            workers: 2,
            global_queue_limit: 64,
            reservation: mode,
            ..ServeConfig::default()
        },
    );
    service
        .register_tenant(
            "capped",
            TenantConfig::new()
                .queue_limit(32)
                .budget(BudgetConfig::fixed(history_bytes * 6 / 10)),
        )
        .unwrap();

    let mut violations = Vec::new();
    let mut rejected_budget = 0u64;
    let mut handles = Vec::new();
    for i in 0..10 {
        match service.submit("capped", budget_fleet_request()) {
            Ok(h) => handles.push(h),
            Err(ServeError::Rejected { reason, .. }) => {
                if reason == dc_serve::RejectReason::BudgetExhausted {
                    rejected_budget += 1;
                } else {
                    violations.push(format!("capped submit {i}: wrong reason {reason:?}"));
                }
            }
            Err(other) => violations.push(format!("capped submit {i}: untyped: {other}")),
        }
    }
    let admitted = handles.len() as u64;
    // Exactly-once: every admitted job resolves with a typed answer.
    for handle in handles {
        let result = handle.wait();
        if let Err(err) = &result.outcome {
            match err {
                ServeError::Failed { .. }
                | ServeError::Evicted { .. }
                | ServeError::ShuttingDown => {}
                other => violations.push(format!("budget-fleet job answered oddly: {other}")),
            }
        }
    }
    let stats = service.stats();
    if stats.admitted != stats.answered() {
        violations.push(format!(
            "budget fleet lost jobs: admitted {} != answered {}",
            stats.admitted,
            stats.answered()
        ));
    }
    if let Some((_avail, deposited, charged)) = service.budget_state("capped") {
        if charged > deposited {
            violations.push(format!(
                "budget fleet overcharge: charged {charged} > deposited {deposited}"
            ));
        }
    }
    service.shutdown();
    BudgetFleetOut {
        admitted,
        rejected_budget,
        violations,
    }
}

fn phase_json(name: &str, p: &PhaseOut) -> String {
    format!(
        "  {{\"phase\": \"{}\", \"interactive_jobs\": {}, \"p50_ms\": {:.3}, \
         \"p99_ms\": {:.3}, \"jobs_per_sec\": {:.1}, \"noisy_iterations\": {}, \
         \"noisy_failures\": {}, \"preemptions\": {}, \"admitted\": {}, \"answered\": {}}}",
        name,
        p.lat_ms.len(),
        p.p50_ms,
        p.p99_ms,
        p.jobs_per_sec,
        p.noisy_iterations,
        p.noisy_failures,
        p.stats.preemptions,
        p.stats.admitted,
        p.stats.answered(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let chaos = args.iter().any(|a| a == "--chaos");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(7);
    let chaos_seed = chaos.then_some(seed);
    let scale = if smoke { SMOKE } else { FULL };

    let started = Instant::now();
    let baseline = run_phase(scale, false, chaos_seed);
    let contended = run_phase(scale, true, chaos_seed);
    let overload = run_overload(scale, chaos_seed);
    let fleet_full = run_budget_fleet(scale, ReservationMode::FullBytes, chaos_seed);
    let fleet_est = run_budget_fleet(scale, ReservationMode::Estimated, chaos_seed);

    let mut violations = Vec::new();
    violations.extend(baseline.violations.iter().cloned());
    violations.extend(contended.violations.iter().cloned());
    violations.extend(overload.violations.iter().cloned());
    violations.extend(fleet_full.violations.iter().cloned());
    violations.extend(fleet_est.violations.iter().cloned());
    if fleet_est.admitted <= fleet_full.admitted {
        violations.push(format!(
            "estimator-based reservations admitted {} jobs vs {} under full-byte \
             reservations (must be strictly more)",
            fleet_est.admitted, fleet_full.admitted
        ));
    }

    let ratio = if baseline.p99_ms > 0.0 {
        contended.p99_ms / baseline.p99_ms
    } else {
        f64::INFINITY
    };
    println!(
        "baseline : p50 {:>8.2} ms  p99 {:>8.2} ms  {:>7.1} jobs/s",
        baseline.p50_ms, baseline.p99_ms, baseline.jobs_per_sec
    );
    println!(
        "contended: p50 {:>8.2} ms  p99 {:>8.2} ms  {:>7.1} jobs/s  ({} noisy joins, {} preemptions)",
        contended.p50_ms,
        contended.p99_ms,
        contended.jobs_per_sec,
        contended.noisy_iterations,
        contended.stats.preemptions,
    );
    println!("noisy-neighbor p99 ratio: {ratio:.2}x (bar: 3x)");
    println!(
        "overload : {} budget rejections, {} queue rejections, {} shed at shutdown, {} admitted all answered",
        overload.rejected_budget,
        overload.rejected_queue,
        overload.shed_at_shutdown,
        overload.stats.admitted,
    );
    println!(
        "budget fleet: estimated reservations admitted {}/10 (rejected {}), \
         full-byte admitted {}/10 (rejected {})",
        fleet_est.admitted,
        fleet_est.rejected_budget,
        fleet_full.admitted,
        fleet_full.rejected_budget,
    );

    if !smoke {
        let json = format!(
            "{{\n\"scale\": {{\"event_rows\": {}, \"ticket_rows\": {}, \
             \"interactive_tenants\": {}, \"iterations\": {}}},\n\
             \"chaos_seed\": {},\n\"phases\": [\n{},\n{}\n],\n\
             \"noisy_p99_ratio\": {:.3},\n\
             \"overload\": {{\"rejected_budget\": {}, \"rejected_queue\": {}, \
             \"shed_at_shutdown\": {}, \"admitted\": {}, \"answered\": {}}},\n\
             \"budget_fleet\": {{\"estimated_admitted\": {}, \"estimated_rejected\": {}, \
             \"full_bytes_admitted\": {}, \"full_bytes_rejected\": {}}},\n\
             \"total_wall_s\": {:.2}\n}}\n",
            scale.event_rows,
            scale.ticket_rows,
            scale.interactive_tenants,
            scale.iterations,
            chaos_seed.map_or("null".to_string(), |s| s.to_string()),
            phase_json("baseline", &baseline),
            phase_json("contended", &contended),
            ratio,
            overload.rejected_budget,
            overload.rejected_queue,
            overload.shed_at_shutdown,
            overload.stats.admitted,
            overload.stats.answered(),
            fleet_est.admitted,
            fleet_est.rejected_budget,
            fleet_full.admitted,
            fleet_full.rejected_budget,
            started.elapsed().as_secs_f64(),
        );
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json");
    }

    if !violations.is_empty() {
        eprintln!("serve bench FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }

    // The latency fairness bar only binds in the full timed run on a
    // quiet machine; smoke/chaos runs gate the correctness invariants
    // above (exactly-once answers, typed rejections, budget accounting).
    if !smoke && !chaos {
        assert!(
            ratio <= 3.0,
            "interactive p99 under a noisy neighbor is {ratio:.2}x baseline (bar: 3x)"
        );
        assert!(
            contended.noisy_iterations >= 1,
            "the noisy tenant must actually make progress"
        );
    }
    println!("serve bench ok");
}
