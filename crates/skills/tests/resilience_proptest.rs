//! Property: under any retryable-only fault schedule, resilient
//! execution is invisible — the result is identical to a fault-free
//! serial run of the same DAG.

use std::sync::Arc;
use std::time::Duration;

use dc_engine::{Column, Expr, JoinType, Table};
use dc_skills::resilient::{ExecPolicy, RetryPolicy};
use dc_skills::{Env, Executor, SkillCall, SkillDag};
use dc_storage::{CloudDatabase, FaultConfig, FaultInjector, FaultOp, InjectedFault, Pricing};
use proptest::prelude::*;

fn table(n: usize, offset: i64) -> Table {
    Table::new(vec![
        (
            "x",
            Column::from_ints((offset..offset + n as i64).collect()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| i as f64 / 7.0).collect()),
        ),
    ])
    .unwrap()
}

fn env() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("a", &table(1_000, 0), 128)
        .unwrap();
    db.create_table_with_blocks("b", &table(1_000, 500), 128)
        .unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

/// loadA → filter ─┐
///                 ├─ join → sort (the target)
/// loadB ──────────┘
fn dag() -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let la = dag.add(SkillCall::load_table("db", "a"), vec![]).unwrap();
    let fa = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").ge(Expr::lit(250i64)),
            },
            vec![la],
        )
        .unwrap();
    let lb = dag.add(SkillCall::load_table("db", "b"), vec![]).unwrap();
    let j = dag
        .add(
            SkillCall::Join {
                other: "b".into(),
                left_on: vec!["x".into()],
                right_on: vec!["x".into()],
                how: JoinType::Inner,
            },
            vec![fa, lb],
        )
        .unwrap();
    let s = dag
        .add(
            SkillCall::Sort {
                keys: vec![("x".into(), true)],
            },
            vec![j],
        )
        .unwrap();
    (dag, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mix of scheduled and probabilistic *retryable* faults
    /// (transient scan failures, slow blocks) is fully absorbed: the
    /// resilient run completes and its table equals the fault-free run.
    #[test]
    fn retryable_faults_never_change_results(
        seed in 0u64..1_000,
        transient_p in 0.0f64..0.30,
        schedule in prop::collection::vec(
            (0usize..2usize, 0u64..24u64, 0usize..2usize),
            0..8,
        ),
    ) {
        let (dag, target) = dag();
        let mut env0 = env();
        let expected = Executor::new().run(&dag, target, &mut env0).unwrap();

        let mut cfg = FaultConfig {
            seed,
            scan_transient_p: transient_p,
            ..FaultConfig::disabled()
        };
        for (op, occurrence, kind) in schedule {
            let op = if op == 0 { FaultOp::Scan } else { FaultOp::BlockRead };
            let fault = if kind == 0 {
                InjectedFault::Transient
            } else {
                InjectedFault::SlowMs(2)
            };
            cfg = cfg.schedule(op, occurrence, fault);
        }
        let mut env = env();
        let inj = Arc::new(FaultInjector::new(cfg));
        env.catalog.set_fault_injector(&inj);

        let policy = ExecPolicy {
            retry: RetryPolicy {
                max_attempts: 12,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
                jitter_seed: seed,
            },
            ..ExecPolicy::default()
        };
        let mut ex = Executor::new();
        let report = ex.run_resilient(&dag, target, &mut env, &policy).unwrap();

        prop_assert!(
            report.succeeded(),
            "retryable-only faults must never surface: {:?}",
            report.first_error()
        );
        prop_assert_eq!(
            report.output.as_ref().unwrap().as_table().unwrap(),
            expected.as_table().unwrap()
        );
        // Accounting invariants: every node ran at least once, and every
        // extra attempt corresponds to an absorbed fault.
        for node in &report.nodes {
            prop_assert!(node.attempts >= 1);
            prop_assert_eq!(node.faults_absorbed, node.attempts - 1);
        }
        prop_assert_eq!(ex.stats.retries, report.faults_absorbed());
    }
}
