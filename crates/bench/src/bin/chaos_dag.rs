//! Chaos driver: randomized fault schedules over generated skill DAGs,
//! asserting the resilient executor's recovery invariants.
//!
//! Three experiments per generated DAG:
//!
//! 1. **recovery** — with ≤30% transient scan faults plus slow blocks,
//!    every DAG completes with zero user-visible failures and its result
//!    table is identical to the fault-free run;
//! 2. **outage + resume** — a forced non-retryable fault fails only its
//!    dependent subgraph, and running the target again re-executes exactly
//!    the failed frontier (everything else is served from the checkpoint
//!    cache);
//! 3. **panic isolation** — a panicking skill yields a node-level error
//!    while its wave siblings complete.
//!
//! Usage: `chaos_dag [--seed N] [--dags N]`. Exits non-zero if any
//! invariant is violated, so CI can run it under fixed seeds.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dc_engine::{Column, Expr, JoinType, Table};
use dc_skills::resilient::{ExecPolicy, NodeOutcome, RetryPolicy};
use dc_skills::{Env, Executor, SkillCall, SkillDag, SkillError};
use dc_storage::{CloudDatabase, FaultConfig, FaultInjector, FaultOp, InjectedFault, Pricing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLES: [&str; 3] = ["a", "b", "c"];
const BOMB_LIMIT: usize = 987_654;

fn base_table(n: usize, offset: i64) -> Table {
    Table::new(vec![
        (
            "x",
            Column::from_ints((offset..offset + n as i64).collect()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 97) as f64 / 9.0).collect()),
        ),
    ])
    .expect("table")
}

fn fresh_env() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    for (i, name) in TABLES.iter().enumerate() {
        db.create_table_with_blocks(*name, &base_table(2_000, i as i64 * 500), 128)
            .expect("create table");
    }
    env.catalog.add_database(db).expect("add db");
    env
}

/// Project a node down to the join key, so using it as a join's right
/// side never collides with left columns (right key columns are dropped
/// by the engine's join).
fn keyed(dag: &mut SkillDag, input: usize) -> usize {
    dag.add(
        SkillCall::KeepColumns {
            columns: vec!["x".into()],
        },
        vec![input],
    )
    .expect("add projection")
}

/// Generate a random connected DAG: a few loads, a random middle of pure
/// transforms (filters, limits, sorts, distincts, joins), and a final
/// join/sort so the target depends on most of the graph.
fn gen_dag(rng: &mut StdRng) -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let mut nodes: Vec<usize> = Vec::new();
    let n_loads = rng.random_range(1..=2usize);
    for i in 0..n_loads {
        let t = TABLES[(i + rng.random_range(0..TABLES.len())) % TABLES.len()];
        nodes.push(
            dag.add(SkillCall::load_table("db", t), vec![])
                .expect("add load"),
        );
    }
    let n_mid = rng.random_range(3..=8usize);
    for _ in 0..n_mid {
        let input = nodes[rng.random_range(0..nodes.len())];
        let node = match rng.random_range(0..5u32) {
            0 => dag.add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").ge(Expr::lit(rng.random_range(0..800i64))),
                },
                vec![input],
            ),
            1 => dag.add(
                SkillCall::Limit {
                    n: rng.random_range(100..1500usize),
                },
                vec![input],
            ),
            2 => dag.add(
                SkillCall::Sort {
                    keys: vec![("x".into(), rng.random_range(0..2u32) == 0)],
                },
                vec![input],
            ),
            3 => dag.add(SkillCall::Distinct { columns: vec![] }, vec![input]),
            _ => {
                let other = nodes[rng.random_range(0..nodes.len())];
                let keyed = keyed(&mut dag, other);
                dag.add(
                    SkillCall::Join {
                        other: "x".into(),
                        left_on: vec!["x".into()],
                        right_on: vec!["x".into()],
                        how: JoinType::Inner,
                    },
                    vec![input, keyed],
                )
            }
        }
        .expect("add node");
        nodes.push(node);
    }
    // Tie two random nodes together so the target spans the graph.
    let a = nodes[rng.random_range(0..nodes.len())];
    let b = nodes[rng.random_range(0..nodes.len())];
    let keyed_b = keyed(&mut dag, b);
    let j = dag
        .add(
            SkillCall::Join {
                other: "x".into(),
                left_on: vec!["x".into()],
                right_on: vec!["x".into()],
                how: JoinType::Inner,
            },
            vec![a, keyed_b],
        )
        .expect("add join");
    let target = dag
        .add(
            SkillCall::Sort {
                keys: vec![("x".into(), true)],
            },
            vec![j],
        )
        .expect("add sort");
    (dag, target)
}

fn fast_retry(seed: u64) -> ExecPolicy {
    ExecPolicy {
        retry: RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            jitter_seed: seed,
        },
        ..ExecPolicy::default()
    }
}

/// Experiment 1: randomized retryable faults are fully absorbed.
fn check_recovery(
    dag: &SkillDag,
    target: usize,
    expected: &Table,
    seed: u64,
    violations: &mut Vec<String>,
) -> (u64, u64) {
    let mut env = fresh_env();
    let inj = Arc::new(FaultInjector::new(FaultConfig {
        seed,
        scan_transient_p: 0.30,
        slow_block_p: 0.05,
        slow_block_ms: 1,
        ..FaultConfig::disabled()
    }));
    env.catalog.set_fault_injector(&inj);
    let mut ex = Executor::new();
    let report = match ex.run_resilient(dag, target, &mut env, &fast_retry(seed)) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("recovery: structural error: {e}"));
            return (0, 0);
        }
    };
    match &report.output {
        None => violations.push(format!(
            "recovery: user-visible failure under retryable-only faults: {:?}",
            report.first_error()
        )),
        Some(out) => {
            if out.as_table() != Some(expected) {
                violations.push("recovery: result differs from fault-free run".into());
            }
        }
    }
    for node in &report.nodes {
        if node.faults_absorbed != node.attempts.saturating_sub(1) {
            violations.push(format!(
                "recovery: node {} attempts/absorbed mismatch ({}/{})",
                node.node, node.attempts, node.faults_absorbed
            ));
        }
    }
    (report.faults_absorbed(), inj.stats().total_injected())
}

/// Experiment 2: a forced outage poisons only its dependent subgraph and
/// running the target again re-runs exactly the failed frontier.
fn check_outage_resume(
    dag: &SkillDag,
    target: usize,
    expected: &Table,
    seed: u64,
    violations: &mut Vec<String>,
) {
    let mut env = fresh_env();
    let inj = Arc::new(FaultInjector::new(FaultConfig::disabled().schedule(
        FaultOp::Scan,
        0,
        InjectedFault::Unavailable,
    )));
    env.catalog.set_fault_injector(&inj);
    let mut ex = Executor::new();
    let report = match ex.run_resilient(dag, target, &mut env, &fast_retry(seed)) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("outage: structural error: {e}"));
            return;
        }
    };
    if report.succeeded() {
        violations.push("outage: forced Unavailable did not surface".into());
        return;
    }
    let failed = report.failed_nodes();
    if failed.len() != 1 {
        violations.push(format!("outage: expected 1 failed node, got {failed:?}"));
    }
    // Every skipped node must be blocked (transitively) on the failure,
    // and everything else must have completed.
    let skipped = report.skipped_nodes();
    for node in &report.nodes {
        match &node.outcome {
            NodeOutcome::Skipped { blocked_on } => {
                if !failed.contains(blocked_on) && !skipped.contains(blocked_on) {
                    violations.push(format!(
                        "outage: node {} skipped on healthy node {}",
                        node.node, blocked_on
                    ));
                }
            }
            NodeOutcome::Failed(_) | NodeOutcome::Ok | NodeOutcome::CacheHit => {}
        }
    }
    let resumed = match ex.run_resilient(dag, target, &mut env, &fast_retry(seed)) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("resume: structural error: {e}"));
            return;
        }
    };
    // Resume must re-execute exactly the failed frontier: every node that
    // runs now was failed/skipped before, and every node that completed
    // before is served from the checkpoint cache (structural duplicates
    // of a re-run node are legitimately skipped-then-aliased, so they
    // count as part of the frontier too).
    for node in &resumed.nodes {
        match &node.outcome {
            NodeOutcome::Ok => {
                if !failed.contains(&node.node) && !skipped.contains(&node.node) {
                    violations.push(format!(
                        "resume: node {} re-ran but was not in the failed frontier",
                        node.node
                    ));
                }
            }
            NodeOutcome::CacheHit => {
                if failed.contains(&node.node) {
                    violations.push(format!(
                        "resume: failed node {} served from cache without re-running",
                        node.node
                    ));
                }
            }
            NodeOutcome::Failed(e) => {
                violations.push(format!("resume: node {} failed again: {e}", node.node))
            }
            NodeOutcome::Skipped { .. } => {
                violations.push(format!("resume: node {} still skipped", node.node))
            }
        }
    }
    match resumed.output {
        Some(out) if out.as_table() == Some(expected) => {}
        Some(_) => violations.push("resume: result differs from fault-free run".into()),
        None => violations.push(format!(
            "resume: still failing: {:?}",
            resumed.first_error()
        )),
    }
}

/// Experiment 3: a panicking skill is contained to its node while wave
/// siblings complete.
fn check_panic_isolation(dag: &SkillDag, target: usize, seed: u64, violations: &mut Vec<String>) {
    // Extend the DAG: a bomb node beside the old target, joined on top,
    // so the bomb and the old target's subtree share waves.
    let mut dag = dag.clone();
    let old_target_input = target;
    let key_only = keyed(&mut dag, old_target_input);
    let bomb = dag
        .add(SkillCall::Limit { n: BOMB_LIMIT }, vec![key_only])
        .expect("add bomb");
    let new_target = dag
        .add(
            SkillCall::Join {
                other: "x".into(),
                left_on: vec!["x".into()],
                right_on: vec!["x".into()],
                how: JoinType::Inner,
            },
            vec![old_target_input, bomb],
        )
        .expect("add join");

    let mut env = fresh_env();
    let mut ex = Executor::new();
    ex.set_before_execute(|call| {
        if matches!(call, SkillCall::Limit { n: BOMB_LIMIT }) {
            panic!("chaos bomb");
        }
    });
    // The bomb's panic is caught at the node boundary; silence the
    // default hook so the driver's output stays readable.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = ex.run_resilient(&dag, new_target, &mut env, &fast_retry(seed));
    std::panic::set_hook(prev_hook);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!(
                "panic: scheduler aborted instead of isolating: {e}"
            ));
            return;
        }
    };
    match report.node(bomb).map(|n| &n.outcome) {
        Some(NodeOutcome::Failed(SkillError::Panic { .. })) => {}
        other => violations.push(format!(
            "panic: bomb node should fail with a panic error, got {other:?}"
        )),
    }
    // Everything the bomb does not feed must have completed.
    for node in &report.nodes {
        if node.node == bomb || node.node == new_target {
            continue;
        }
        if matches!(
            node.outcome,
            NodeOutcome::Failed(_) | NodeOutcome::Skipped { .. }
        ) {
            violations.push(format!(
                "panic: healthy node {} did not complete: {:?}",
                node.node, node.outcome
            ));
        }
    }
}

fn main() -> ExitCode {
    let mut seed = 7u64;
    let mut n_dags = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N");
            }
            "--dags" => {
                n_dags = args.next().and_then(|v| v.parse().ok()).expect("--dags N");
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    println!("chaos_dag: seed={seed} dags={n_dags} transient_rate=0.30");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut violations: Vec<String> = Vec::new();
    let mut total_absorbed = 0u64;
    let mut total_injected = 0u64;

    for i in 0..n_dags {
        let (dag, target) = gen_dag(&mut rng);
        let mut env = fresh_env();
        let expected = Executor::new()
            .run(&dag, target, &mut env)
            .expect("fault-free run")
            .as_table()
            .expect("table output")
            .clone();

        let chaos_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        let (absorbed, injected) =
            check_recovery(&dag, target, &expected, chaos_seed, &mut violations);
        total_absorbed += absorbed;
        total_injected += injected;
        check_outage_resume(&dag, target, &expected, chaos_seed, &mut violations);
        check_panic_isolation(&dag, target, chaos_seed, &mut violations);

        println!(
            "  dag {i:>2}: {} nodes, recovery absorbed {absorbed} fault(s)",
            dag.len()
        );
    }

    println!(
        "\nsummary: dags={n_dags} faults_injected={total_injected} \
         faults_absorbed={total_absorbed} violations={}",
        violations.len()
    );
    if violations.is_empty() {
        println!("all recovery invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}
