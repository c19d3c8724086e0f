//! # dc-serve — the multi-tenant session service
//!
//! DataChat's front door is conversational, but the platform behind it
//! is shared: one catalog, one snapshot store, one materialized-result
//! cache, thousands of concurrent chat sessions (§2, §4 of the paper).
//! This crate is the serving layer that makes that sharing safe:
//!
//! * **Admission control** — bounded per-tenant submission queues plus a
//!   global depth limit. Over-capacity submissions are load-shed with a
//!   typed [`ServeError::Rejected`] carrying a `retry_after` hint; the
//!   service never panics or hangs on overload.
//! * **Per-tenant scan-byte budgets** — token buckets
//!   ([`dc_storage::ByteBudget`]) metered in the same bytes the storage
//!   receipts charge. Admission reserves an upper bound; settlement
//!   books actual receipts and refunds the rest, so a tenant can never
//!   be charged more than its deposits.
//! * **Fair scheduling** — weighted fair time-sharing (start-time fair
//!   queueing) over tenant queues, one in-flight job per tenant,
//!   time-sliced execution via the resilient executor's
//!   `run_budget`/cancellation machinery. Slices are charged by elapsed
//!   time against the tenant's weight, so one tenant's million-row join
//!   cannot starve another tenant's interactive query no matter how
//!   long its slices run.
//! * **Graceful degradation** — saturation means queueing, then typed
//!   rejection, never lost work. Long jobs are preempted and *resumed*
//!   from checkpointed sub-results, not cancelled and restarted.
//!
//! ## Invariants (asserted by tests, proptests, and the chaos bench)
//!
//! 1. Every admitted job is answered exactly once — a result, a typed
//!    failure, an eviction, or `ShuttingDown`. (Answering twice panics
//!    in [`JobHandle`]'s fill cell; losing a job would hang its waiter.)
//! 2. A tenant's jobs execute in submission order, so concurrent serving
//!    produces the same per-tenant results as a serial run.
//! 3. `charged ≤ deposited` per tenant budget, under faults and
//!    preemption.
//! 4. Over-capacity and over-budget submissions get typed rejections
//!    with retry hints.
//!
//! ```
//! use dc_collab::EnvHandle;
//! use dc_serve::{Request, ServeConfig, SessionService, TenantConfig};
//! use dc_skills::Env;
//!
//! let service = SessionService::start(EnvHandle::new(Env::new()), ServeConfig::default());
//! service.register_tenant("alice", TenantConfig::new()).unwrap();
//! let result = service.run("alice", Request::gel("List the datasets").unwrap());
//! assert!(result.outcome.is_ok());
//! ```

pub mod error;
pub mod job;
mod scheduler;
pub mod service;
pub mod tenant;

pub use error::{RejectReason, Result, ServeError};
pub use job::{JobHandle, JobResult, Request};
pub use service::{ServeConfig, ServiceStats, SessionService};
pub use tenant::{TenantConfig, TenantStats};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use dc_collab::EnvHandle;
    use dc_skills::{Env, SkillCall};
    use dc_storage::{BudgetConfig, Catalog, CloudDatabase, Pricing};

    use super::*;

    /// A world with one cloud database holding a synthetic sales table.
    fn world(rows: usize) -> EnvHandle {
        let mut env = Env::new();
        let mut db = CloudDatabase::new("cloud", Pricing::default_cloud());
        let sales = dc_storage::demo::sales(rows, 7);
        db.create_table("sales", &sales).unwrap();
        let mut catalog = Catalog::new();
        catalog.add_database(db).unwrap();
        env.catalog = catalog;
        EnvHandle::new(env)
    }

    fn load_and_count() -> Request {
        Request::new(vec![
            SkillCall::load_table("cloud", "sales"),
            SkillCall::CountRows,
        ])
    }

    #[test]
    fn single_tenant_end_to_end() {
        let service = SessionService::start(world(500), ServeConfig::default());
        service
            .register_tenant("alice", TenantConfig::new())
            .unwrap();
        let result = service.run("alice", load_and_count());
        assert!(result.outcome.is_ok(), "{:?}", result.outcome);
        assert!(result.bytes_charged > 0, "a cloud scan charges bytes");
        let stats = service.tenant_stats("alice").unwrap();
        assert_eq!((stats.admitted, stats.completed), (1, 1));
    }

    #[test]
    fn queue_limits_reject_typed() {
        let config = ServeConfig {
            workers: 0,
            global_queue_limit: 1,
            ..ServeConfig::default()
        };
        let service = SessionService::start(world(50), config);
        service
            .register_tenant("a", TenantConfig::new().queue_limit(0))
            .unwrap();
        service.register_tenant("b", TenantConfig::new()).unwrap();
        // Tenant-level limit fires even with global room.
        match service.submit("a", load_and_count()) {
            Err(ServeError::Rejected {
                reason,
                retry_after,
                ..
            }) => {
                assert_eq!(reason, RejectReason::TenantQueueFull);
                assert!(retry_after.is_some());
            }
            other => panic!("expected tenant-queue rejection, got {other:?}"),
        }
        // Fill the single global slot, then the global limit fires.
        service.submit("b", load_and_count()).unwrap();
        match service.submit("b", load_and_count()) {
            Err(ServeError::Rejected {
                reason,
                retry_after,
                ..
            }) => {
                assert_eq!(reason, RejectReason::GlobalQueueFull);
                assert!(retry_after.is_some());
            }
            other => panic!("expected global-queue rejection, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_rejects_typed() {
        let service = SessionService::start(world(500), ServeConfig::default());
        service
            .register_tenant("tiny", TenantConfig::new().budget(BudgetConfig::fixed(1)))
            .unwrap();
        match service.submit("tiny", load_and_count()) {
            Err(ServeError::Rejected {
                reason,
                retry_after,
                ..
            }) => {
                assert_eq!(reason, RejectReason::BudgetExhausted);
                // A fixed budget smaller than the table can never cover
                // the reservation: typed as unreachable, not a wait.
                assert_eq!(retry_after, None);
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
        let stats = service.tenant_stats("tiny").unwrap();
        assert_eq!(stats.rejected_budget, 1);
    }

    #[test]
    fn budget_charged_never_exceeds_deposited() {
        let service = SessionService::start(world(800), ServeConfig::default());
        service
            .register_tenant(
                "metered",
                TenantConfig::new().budget(BudgetConfig::fixed(1 << 30)),
            )
            .unwrap();
        for _ in 0..4 {
            let result = service.run("metered", load_and_count());
            assert!(result.outcome.is_ok(), "{:?}", result.outcome);
        }
        let (_avail, deposited, charged) = service.budget_state("metered").unwrap();
        assert!(charged > 0, "metered scans book bytes");
        assert!(
            charged <= deposited,
            "charged {charged} > deposited {deposited}"
        );
    }

    #[test]
    fn unknown_tenant_and_bad_request() {
        let service = SessionService::start(world(10), ServeConfig::default());
        assert!(matches!(
            service.submit("ghost", load_and_count()),
            Err(ServeError::UnknownTenant { .. })
        ));
        service.register_tenant("a", TenantConfig::new()).unwrap();
        assert!(matches!(
            service.submit("a", Request::new(vec![])),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            service.register_tenant("a", TenantConfig::new()),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn shutdown_answers_every_queued_job() {
        let config = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let service = SessionService::start(world(50), config);
        service.register_tenant("a", TenantConfig::new()).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| service.submit("a", load_and_count()).unwrap())
            .collect();
        let stats_before = service.stats();
        assert_eq!(stats_before.admitted, 3);
        service.shutdown();
        for handle in handles {
            let result = handle.wait();
            assert_eq!(result.outcome, Err(ServeError::ShuttingDown));
        }
    }

    #[test]
    fn mem_budget_spills_and_books_bytes_per_tenant() {
        // A sort over 5 000 sales rows cannot hold its state inside an
        // 8 KiB operator budget, so each slice runs the sort out of
        // core. The answer must match the unbudgeted service's, and the
        // spill traffic must land on the tenant's counters.
        let request = || {
            Request::new(vec![
                SkillCall::load_table("cloud", "sales"),
                SkillCall::Sort {
                    keys: vec![("order_id".into(), false)],
                },
            ])
        };
        let plain = SessionService::start(world(5_000), ServeConfig::default());
        plain.register_tenant("t", TenantConfig::new()).unwrap();
        let expected = plain.run("t", request());
        let expected = expected.outcome.unwrap();

        let config = ServeConfig {
            mem_budget: Some(8 * 1024),
            ..ServeConfig::default()
        };
        let service = SessionService::start(world(5_000), config);
        service.register_tenant("t", TenantConfig::new()).unwrap();
        let result = service.run("t", request());
        let output = result.outcome.as_ref().unwrap();
        assert_eq!(
            output.as_table().unwrap(),
            expected.as_table().unwrap(),
            "out-of-core serving must not change answers"
        );
        assert!(
            result.bytes_spilled > 0,
            "an 8 KiB budget must force the sort to spill"
        );
        let stats = service.tenant_stats("t").unwrap();
        assert_eq!(
            stats.bytes_spilled, result.bytes_spilled,
            "tenant accounting must match the job's spill telemetry"
        );
        assert!(result.bytes_charged > 0, "scan accounting is unaffected");
    }

    #[test]
    fn tiny_quantum_preempts_and_resumes() {
        let config = ServeConfig {
            workers: 1,
            initial_quantum: Duration::from_micros(200),
            max_preemptions: 32,
            ..ServeConfig::default()
        };
        let service = SessionService::start(world(5_000), config);
        service
            .register_tenant("slow", TenantConfig::new())
            .unwrap();
        let mut steps = vec![SkillCall::load_table("cloud", "sales")];
        for _ in 0..20 {
            steps.push(SkillCall::CountRows);
        }
        let result = service.run("slow", Request::new(steps));
        assert!(result.outcome.is_ok(), "{:?}", result.outcome);
        assert!(
            result.preemptions >= 1,
            "a 200µs quantum preempts a 21-step program at least once"
        );
        let stats = service.tenant_stats("slow").unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.preemptions, result.preemptions as u64);
    }
}
