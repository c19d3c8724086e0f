//! Serving-layer properties under random multi-tenant interleavings:
//!
//! 1. **No admitted job is lost or double-executed.** Every handle is
//!    answered exactly once (double answers panic structurally in the
//!    fill cell; a lost job would leave `answered() < admitted`).
//! 2. **Budgets never over-charge.** For every metered tenant,
//!    `charged ≤ deposited` after the dust settles.
//!    And no job charges more than admission reserved for it: the
//!    reservation prices the planned steps the slices run, against a cold
//!    cache, and a warm one only charges less.
//! 3. **Serving equals serial.** Each tenant's outcomes — success/failure
//!    per request, and the output when successful — match replaying the
//!    same program serially in a private session, no matter how the pool
//!    interleaved tenants or how often jobs were preempted.
//!
//! Property 1 and `charged ≤ deposited` also hold on flaky storage —
//! seeded transient scan failures and slow blocks — where a budget may turn
//! submissions away and a job may fail or be evicted, but only ever with a
//! typed answer.

use std::sync::Arc;
use std::time::Duration;

use datachat::collab::{EnvHandle, Session};
use datachat::engine::{AggFunc, AggSpec, Expr};
use datachat::serve::{
    RejectReason, Request, ServeConfig, ServeError, SessionService, TenantConfig,
};
use datachat::skills::{Env, ExecPolicy, SkillCall, SkillOutput};
use datachat::storage::{
    BudgetConfig, Catalog, CloudDatabase, FaultConfig, FaultInjector, Pricing,
};
use proptest::prelude::*;

/// One world: a cloud database with the synthetic sales table. Demo
/// generators are seed-deterministic, so every call builds the same
/// logical world — the concurrent run and the serial replay agree on
/// the data by construction.
fn world() -> EnvHandle {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("cloud", Pricing::default_cloud());
    db.create_table("sales", &datachat::storage::demo::sales(400, 7))
        .unwrap();
    let mut catalog = Catalog::new();
    catalog.add_database(db).unwrap();
    env.catalog = catalog;
    EnvHandle::new(env)
}

/// [`world`] behind a seeded fault injector: a fifth of all scans fail
/// transiently and one block read in twenty stalls for a millisecond.
fn faulty_world(seed: u64) -> EnvHandle {
    let env = world();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed,
        scan_transient_p: 0.20,
        slow_block_p: 0.05,
        slow_block_ms: 1,
        ..FaultConfig::disabled()
    }));
    env.with(|env| env.catalog.set_fault_injector(&injector));
    env
}

/// Deterministic transform pool, indexed by the generated bytes. Some
/// entries are schema-valid only in some positions (e.g. `price` after a
/// `CountRows`), so both success and typed-failure paths get exercised.
/// Indices from 14 up, which only the fault property draws, sum a string
/// column: the job scans, then fails at run time.
fn transform(idx: u8) -> SkillCall {
    if idx >= 14 {
        return SkillCall::Compute {
            aggs: vec![AggSpec::new(AggFunc::Sum, "region", "total")],
            for_each: vec!["quantity".into()],
        };
    }
    match idx % 7 {
        0 => SkillCall::KeepRows {
            predicate: Expr::col("price").gt(Expr::lit(40i64)),
        },
        1 => SkillCall::KeepColumns {
            columns: vec!["region".into(), "price".into(), "quantity".into()],
        },
        2 => SkillCall::Sort {
            keys: vec![("price".into(), false)],
        },
        3 => SkillCall::Limit { n: 25 },
        4 => SkillCall::CountRows,
        5 => SkillCall::Top {
            column: "quantity".into(),
            n: 10,
        },
        _ => SkillCall::Distinct { columns: vec![] },
    }
}

fn request_steps(transforms: &[u8]) -> Vec<SkillCall> {
    let mut steps = vec![SkillCall::load_table("cloud", "sales")];
    steps.extend(transforms.iter().map(|&i| transform(i)));
    steps
}

/// Serial oracle: replay one tenant's requests in a fresh session against
/// a fresh world, one step at a time, recording each request's final
/// outcome.
fn serial_outcomes(programs: &[Vec<u8>]) -> Vec<Option<SkillOutput>> {
    let session = Session::new(0, "oracle", world(), ExecPolicy::plain());
    programs
        .iter()
        .map(|transforms| {
            let mut last = None;
            for step in request_steps(transforms) {
                match session.submit("oracle", step) {
                    Ok(out) => last = Some(out),
                    Err(_) => return None,
                }
            }
            last
        })
        .collect()
}

/// Three workers and tiny quanta (lots of preempt/resume) over `env`, and
/// one tenant per deposit, named `tenant-{t}`.
fn start_tenants(env: EnvHandle, deposits: &[u64]) -> (SessionService, Vec<String>) {
    let service = SessionService::start(
        env,
        ServeConfig {
            workers: 3,
            initial_quantum: Duration::from_micros(500),
            max_preemptions: 64,
            ..ServeConfig::default()
        },
    );
    let names: Vec<String> = (0..deposits.len()).map(|t| format!("tenant-{t}")).collect();
    for (name, &deposit) in names.iter().zip(deposits) {
        let budget = BudgetConfig::fixed(deposit);
        service
            .register_tenant(name, TenantConfig::new().budget(budget))
            .unwrap();
    }
    (service, names)
}

/// The order requests are submitted in, as `(tenant, request)`: the
/// generated schedule picks which tenant submits next, and whatever it
/// missed follows round-robin; each tenant's requests keep their order.
fn interleave(requests: &[usize], schedule: &[usize]) -> Vec<(usize, usize)> {
    let tenants = requests.len();
    let rounds = requests.iter().max().copied().unwrap_or(0);
    let picks = schedule.iter().map(|&s| s % tenants);
    let mut next = vec![0; tenants];
    (picks.chain((0..tenants).cycle().take(tenants * rounds)))
        .filter_map(|t| {
            let r = next[t];
            next[t] += usize::from(r < requests[t]);
            (r < requests[t]).then_some((t, r))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// K tenants, random programs, random submission interleaving, tiny
    /// quanta (lots of preempt/resume): nothing lost, nothing doubled,
    /// budgets respected, results serial-equivalent.
    #[test]
    fn interleaved_tenants_match_serial(
        programs in prop::collection::vec(          // per tenant ...
            prop::collection::vec(                  // ... per request ...
                prop::collection::vec(0u8..14, 0..4), // ... transform indices
                1..4,
            ),
            2..5,
        ),
        schedule in prop::collection::vec(0usize..8, 0..24),
    ) {
        // Ample budgets: settlement paths run, admission never bounces.
        let (service, tenants) = start_tenants(world(), &vec![1 << 40; programs.len()]);
        let requests: Vec<usize> = programs.iter().map(Vec::len).collect();
        let order = interleave(&requests, &schedule);
        prop_assert_eq!(order.len(), requests.iter().sum::<usize>(), "all requests submitted");
        let mut handles: Vec<Vec<_>> =
            (0..programs.len()).map(|_| Vec::new()).collect();
        for (t, r) in order {
            let req = Request::new(request_steps(&programs[t][r]));
            handles[t].push(service.submit(&tenants[t], req).unwrap());
        }

        // Exactly-once delivery: every handle resolves (lost jobs would
        // hang; doubles would panic the fill cell).
        let mut served: Vec<Vec<Option<SkillOutput>>> = Vec::new();
        for hs in handles {
            let mut outcomes = Vec::new();
            for h in hs {
                let result = h.wait();
                prop_assert!(result.bytes_charged <= result.bytes_reserved,
                    "{}: job {} charged {} against a reservation of {}",
                    result.tenant, result.id, result.bytes_charged, result.bytes_reserved);
                outcomes.push(result.outcome.ok());
            }
            served.push(outcomes);
        }

        // Counter form of the same invariant.
        let stats = service.stats();
        prop_assert_eq!(stats.admitted, stats.answered(),
            "every admitted job answered: {:?}", stats);
        prop_assert_eq!(stats.rejected_queue + stats.rejected_budget, 0,
            "ample limits admit everything: {:?}", stats);

        // Budget invariant.
        for name in &tenants {
            let (_avail, deposited, charged) = service.budget_state(name).unwrap();
            prop_assert!(charged <= deposited,
                "{name}: charged {charged} > deposited {deposited}");
        }

        // Serial equivalence, tenant by tenant.
        for (t, program) in programs.iter().enumerate() {
            let oracle = serial_outcomes(program);
            prop_assert_eq!(&served[t], &oracle,
                "tenant {} diverged from serial replay", t);
        }
        service.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same interleavings on flaky storage, with budgets worth a few
    /// full scans each. Every submission is admitted or turned away for
    /// its budget, every admitted job is answered exactly once with an
    /// output or a typed failure (never a skill's panic), and every job's
    /// charge and reservation are settled against its tenant's budget.
    /// Retried scans may charge a job past its reservation and a faulted
    /// job may fail where a serial run succeeds, so neither per-job bounds
    /// nor serial equivalence are asked for here.
    #[test]
    fn faulty_storage_loses_no_job_and_overcharges_no_budget(
        tenants in prop::collection::vec(
            (
                1u64..8,                                  // deposit, in half scans
                prop::collection::vec(                    // requests ...
                    prop::collection::vec(0u8..16, 0..4), // ... of transforms
                    1..5,
                ),
            ),
            2..5,
        ),
        schedule in prop::collection::vec(0usize..8, 0..24),
        seed in 0u64..1_000,
    ) {
        let env = faulty_world(seed);
        let full_scan = env.with(|env| {
            let db = env.catalog.database("cloud").unwrap();
            db.source("sales").unwrap().total_bytes()
        });
        let deposits: Vec<u64> = tenants.iter().map(|(halves, _)| full_scan * halves / 2).collect();
        let (service, names) = start_tenants(env, &deposits);
        let requests: Vec<usize> = tenants.iter().map(|(_, programs)| programs.len()).collect();
        let mut handles: Vec<Vec<_>> = (0..tenants.len()).map(|_| Vec::new()).collect();
        let mut rejected = 0u64;
        for (t, r) in interleave(&requests, &schedule) {
            let req = Request::new(request_steps(&tenants[t].1[r]));
            match service.submit(&names[t], req) {
                Ok(handle) => handles[t].push(handle),
                Err(ServeError::Rejected { reason: RejectReason::BudgetExhausted, .. }) => {
                    rejected += 1;
                }
                Err(other) => prop_assert!(false, "{}: untyped admission: {other}", names[t]),
            }
        }

        let mut charged_by_jobs = vec![0u64; tenants.len()];
        for (t, hs) in handles.into_iter().enumerate() {
            for h in hs {
                let result = h.wait();
                charged_by_jobs[t] += result.bytes_charged;
                match &result.outcome {
                    Ok(_) | Err(ServeError::Evicted { .. }) => {}
                    Err(ServeError::Failed { message, .. }) => prop_assert!(
                        !message.contains("panicked"),
                        "{}: job {} panicked: {message}", result.tenant, result.id
                    ),
                    Err(other) => prop_assert!(
                        false, "{}: job {} answered {other}", result.tenant, result.id
                    ),
                }
            }
        }

        let stats = service.stats();
        prop_assert_eq!(stats.admitted, stats.answered(), "every admitted job answered: {:?}", stats);
        prop_assert_eq!(stats.rejected_budget, rejected, "{:?}", stats);
        prop_assert_eq!(stats.rejected_queue, 0, "{:?}", stats);

        for (t, name) in names.iter().enumerate() {
            let (available, deposited, charged) = service.budget_state(name).unwrap();
            prop_assert!(charged <= deposited, "{name}: charged {charged} > deposited {deposited}");
            // Settlement booked every job's receipts on the budget ...
            let booked = service.tenant_stats(name).unwrap().bytes_charged;
            prop_assert_eq!(charged, booked, "{}: budget charged vs jobs' receipts", name);
            prop_assert_eq!(charged, charged_by_jobs[t], "{}: budget charged vs answers", name);
            // ... and handed back every reservation's unused rest (an
            // overdraft is floored, never carried).
            prop_assert!(
                available + charged >= deposited,
                "{name}: {available} available + {charged} charged < {deposited} deposited"
            );
        }
        service.shutdown();
    }
}
