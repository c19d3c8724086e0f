//! # dc-skills — the skill layer (§2 of the paper)
//!
//! DataChat's core abstraction: ~50 high-level, declarative [`skill`]s
//! organized into the categories of Table 1. Users (or the GEL parser, the
//! Python API, or NL2Code) build a lazy [`dag::SkillDag`]; execution
//! converts it to tasks:
//!
//! * [`contract`] — what each skill call makes from its inputs: its
//!   output schema, its findings, its column reads and demand — the one
//!   table the analyzer, the optimizer and the driver's debug check read;
//! * [`planner`] — consolidates SQL-able runs into single flattened SQL
//!   queries (Figure 4) via `dc-sql`'s generator;
//! * [`exec`] — the interpreter with a shared sub-DAG result cache
//!   (§2.2's caching layer);
//! * [`optimize`] — the one plan step: cost-based rewrites over a DAG
//!   that preserve node ids;
//! * [`surface`] — one description of each skill's GEL and Python-API
//!   surface, which both parsers and printers and the registry read;
//! * [`slicing`] — dead-step elimination plus adjacent-call merging, so
//!   saved artifacts carry minimal recipes (Figure 5);
//! * [`env`] — the world skills run against (catalog, snapshots, virtual
//!   files/URLs, models, phrase definitions);
//! * [`resilient`] — the one driver that plans and walks a DAG, and its
//!   policy: retry with backoff, per-node budgets, panic isolation,
//!   degraded scans, and checkpointed resume.

pub mod cache;
pub mod contract;
pub mod dag;
pub mod env;
pub mod error;
pub mod exec;
pub mod optimize;
pub mod output;
pub mod planner;
pub mod resilient;
pub mod skill;
pub mod slicing;
pub mod surface;

pub use cache::{
    sub_dag_keys, CacheHit, CacheStats, MaterializedCache, SharedKey, SubDagKey, TenantCacheStats,
};
pub use contract::{
    contract, load_scan, Contract, Finding, FindingKind, ModelInfo, RowBounds, RowInput, Sources,
};
pub use dag::{NodeId, SkillDag, SkillNode};
pub use env::{rewrite_use_dataset, Env, ScanTally};
pub use error::{Result, SkillError};
pub use exec::{execute_call, needs_env, structural_ids, Executor, ExecutorStats, SubDagId};
pub use optimize::{
    join_order_advice, optimize_dag, plan_linear, plan_pushdown, JoinOrderAdvice, PlanStats,
};
pub use output::SkillOutput;
pub use planner::{as_query_step, plan, ExecutionTask};
pub use resilient::{ExecPolicy, ExecReport, NodeOutcome, NodeReport, RetryPolicy};
pub use skill::{Category, DatePart, SkillCall};
pub use slicing::{slice, sliced_recipe, SliceStats};
pub use surface::{registry, SkillInfo};
