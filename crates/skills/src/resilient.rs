//! The DAG driver: the one body that plans and walks a [`SkillDag`], and
//! the policy it walks it under — retry, timeouts, panic isolation,
//! degraded scans, and checkpointed resume.
//!
//! Every run goes through [`Executor::run_resilient`]: cut the target's
//! cone out of the DAG ([`SkillDag::cone`]: a compact copy of the nodes the
//! target depends on), plan it once with the plan step
//! ([`crate::optimize`]), key every node ([`crate::cache::sub_dag_keys`]),
//! serve what a cache tier holds, then execute the rest in topological
//! *waves* under an [`ExecPolicy`]. The driver touches nothing outside the cone, so a run
//! costs what its target depends on however many nodes the session's DAG
//! has collected; the caller's node ids are translated at the driver's
//! edge (the target on the way in, the [`NodeReport`]s on the way out).
//! [`Executor::run`] and [`Executor::table_of`] are that body under
//! [`ExecPolicy::plain`] (one attempt, no budget), returning the target's
//! output or the first failure; the other policies add:
//!
//! * **retry** — nodes failing with a retryable error (see
//!   [`SkillError::is_retryable`]) re-execute with exponential backoff
//!   plus deterministic jitter;
//! * **budget** — each attempt gets a wall-clock budget; storage scans
//!   observe it cooperatively through the environment's
//!   [`dc_storage::CancelToken`], pure compute is timed post-hoc; either
//!   way an over-budget attempt becomes a retryable timeout;
//! * **degraded scans** — after `degrade_after` failed full-scan
//!   attempts, a `LoadTable` node falls back to a block-sampled scan
//!   (§3's cheap path) and its result is flagged `degraded`.
//!
//! Under every policy, each attempt runs under `catch_unwind`, so a
//! panicking skill poisons its node (and dependents), never the driver,
//! its caller, or sibling nodes in the same wave; and completed results
//! stay checkpointed under their sub-DAG keys, so running the same target
//! again re-executes exactly the failed frontier and its dependents.
//!
//! The whole run is summarized in an [`ExecReport`]: per-node attempts,
//! faults absorbed, degraded flags, scan and spill bytes, and wall time.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_engine::{parallel, MemContext, SpillSnapshot, Table};
use dc_storage::{CancelToken, ScanOptions};

use crate::cache::{sub_dag_keys, SharedKey, SubDagKey};
use crate::dag::{NodeId, SkillDag, SkillNode};
use crate::env::{Env, ScanTally};
use crate::error::{Result, SkillError};
use crate::exec::{
    execute_call, execute_pure_call_with_mem, load_table, needs_env, BeforeExecuteHook, Executor,
};
use crate::output::SkillOutput;
use crate::skill::SkillCall;

/// Retry schedule for retryable node failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per node (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter mixed into each backoff.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(16),
            jitter_seed: 0x5EED,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (the attempt that just
    /// failed, 1-based) of `node`: `base * 2^(attempt-1)` capped at
    /// `max_backoff`, plus up to +50% deterministic jitter derived from
    /// `(jitter_seed, node, attempt)` — identical inputs always sleep
    /// identically, so chaos runs replay exactly.
    pub fn backoff(&self, node: NodeId, attempt: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
        let capped = doubled.min(self.max_backoff);
        let half = (capped.as_nanos() as u64) / 2;
        if half == 0 {
            return capped;
        }
        let h = splitmix64(self.jitter_seed ^ (node as u64) ^ ((attempt as u64) << 32));
        capped + Duration::from_nanos(h % (half + 1))
    }
}

/// Seed for a degraded scan's block choices.
const DEGRADED_SEED: u64 = 7;

/// Everything the driver is allowed to do about failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Retry schedule for retryable errors.
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock budget. `None` = unbounded.
    pub node_budget: Option<Duration>,
    /// Whole-run wall-clock slice. Once it expires mid-run, nodes that
    /// have not started yet fail fast with a retryable
    /// [`SkillError::Timeout`] at **zero attempts**, while everything
    /// that already completed stays checkpointed in the cache — so running
    /// the same target again picks up exactly where the slice ended.
    /// Scans started inside the slice are armed with the remaining time
    /// and cancel cooperatively at block boundaries; pure compute that
    /// already started is allowed to finish and commit (work is never
    /// thrown away retroactively). This is the preemption hook a serving
    /// layer uses for time-sliced fair scheduling. `None` = unbounded.
    pub run_budget: Option<Duration>,
    /// After this many failed full-scan attempts, a `LoadTable` node
    /// retries as a block-sampled scan and marks its result degraded.
    /// `None` disables degradation.
    pub degrade_after: Option<u32>,
    /// Block fraction for degraded scans.
    pub degraded_fraction: f64,
    /// Out-of-core memory budget in bytes for operator state (hash
    /// tables, aggregation state, sort buffers). When set and the
    /// environment carries no [`MemContext`] of its own, the run installs
    /// a fresh context (budget + temp spill directory, removed at run
    /// end) so join/group-by/sort spill instead of exceeding the budget.
    /// `None` = unbounded in-memory execution.
    pub mem_budget: Option<u64>,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            retry: RetryPolicy::default(),
            node_budget: None,
            run_budget: None,
            degrade_after: None,
            degraded_fraction: 0.2,
            mem_budget: None,
        }
    }
}

impl ExecPolicy {
    /// What [`Executor::run`] and [`Executor::table_of`] run under: one
    /// attempt, no node, run or memory budget, no degradation.
    pub fn plain() -> ExecPolicy {
        ExecPolicy {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..ExecPolicy::default()
        }
    }
}

/// How one node ended up.
#[derive(Debug, Clone)]
pub enum NodeOutcome {
    /// Executed successfully (possibly after retries).
    Ok,
    /// Served from the structural sub-DAG cache (includes results
    /// checkpointed by an earlier, partially failed run).
    CacheHit,
    /// All attempts exhausted (or a non-retryable error/panic).
    Failed(SkillError),
    /// Not attempted because an input node failed or was skipped.
    Skipped { blocked_on: NodeId },
}

/// Per-node resilience accounting.
#[derive(Debug, Clone)]
pub struct NodeReport {
    pub node: NodeId,
    /// Skill name, for human-readable summaries.
    pub skill: String,
    pub outcome: NodeOutcome,
    /// Execution attempts made (0 for cache hits and skips).
    pub attempts: u32,
    /// Retryable failures absorbed by retry/degradation instead of
    /// surfacing to the user.
    pub faults_absorbed: u32,
    /// Whether the result came from a degraded (block-sampled) scan.
    pub degraded: bool,
    /// Wall time spent on this node across all attempts and backoffs.
    pub wall: Duration,
    /// Storage bytes this node's scans charged (all attempts).
    pub bytes_scanned: u64,
    /// Storage bytes zone-map pruning saved this node's scans.
    pub bytes_pruned: u64,
    /// Bytes this node's operators wrote to spill files (all attempts).
    /// On more than one core attribution is best-effort:
    /// concurrently spilling siblings may book into each other's delta,
    /// but [`ExecReport::bytes_spilled`] stays exact run-wide.
    pub bytes_spilled: u64,
    /// Spill partitions / sort runs this node wrote (same caveat).
    pub spill_partitions: u64,
}

impl NodeReport {
    fn new(node: &SkillNode, outcome: NodeOutcome) -> NodeReport {
        NodeReport {
            node: node.id,
            skill: node.call.name().to_string(),
            outcome,
            attempts: 0,
            faults_absorbed: 0,
            degraded: false,
            wall: Duration::ZERO,
            bytes_scanned: 0,
            bytes_pruned: 0,
            bytes_spilled: 0,
            spill_partitions: 0,
        }
    }
}

/// The observable summary of one run.
#[derive(Debug)]
pub struct ExecReport {
    /// The requested node.
    pub target: NodeId,
    /// The target's output, when the run reached it.
    pub output: Option<SkillOutput>,
    /// Per-node reports, in topological order of the executed slice.
    pub nodes: Vec<NodeReport>,
    /// Sub-DAG results this run served from a cache tier (local or
    /// cross-session) instead of executing.
    pub cache_hits: u64,
    /// Scan footprint (`bytes_scanned + bytes_pruned`) those hits
    /// avoided re-charging against storage.
    pub bytes_saved: u64,
    /// Bytes written to spill files across the whole run (exact: measured
    /// as a delta on the run's shared spill metrics).
    pub bytes_spilled: u64,
    /// Spill partitions / sort runs written across the whole run.
    pub spill_partitions: u64,
}

impl ExecReport {
    /// Whether the target produced an output.
    pub fn succeeded(&self) -> bool {
        self.output.is_some()
    }

    /// The report for one node.
    pub fn node(&self, id: NodeId) -> Option<&NodeReport> {
        self.nodes.iter().find(|n| n.node == id)
    }

    /// Nodes that exhausted their attempts.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.outcome, NodeOutcome::Failed(_)))
            .map(|n| n.node)
            .collect()
    }

    /// Nodes skipped because an ancestor failed.
    pub fn skipped_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.outcome, NodeOutcome::Skipped { .. }))
            .map(|n| n.node)
            .collect()
    }

    /// Nodes whose result came from a degraded scan.
    pub fn degraded_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.degraded)
            .map(|n| n.node)
            .collect()
    }

    /// Total attempts across all nodes.
    pub fn total_attempts(&self) -> u64 {
        self.nodes.iter().map(|n| n.attempts as u64).sum()
    }

    /// Total retryable faults absorbed across all nodes.
    pub fn faults_absorbed(&self) -> u64 {
        self.nodes.iter().map(|n| n.faults_absorbed as u64).sum()
    }

    /// Total storage bytes scanned across all nodes.
    pub fn bytes_scanned(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_scanned).sum()
    }

    /// Total storage bytes zone-map pruning saved across all nodes.
    pub fn bytes_pruned(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_pruned).sum()
    }

    /// The first failure in topological order, if any.
    pub fn first_error(&self) -> Option<&SkillError> {
        self.nodes.iter().find_map(|n| match &n.outcome {
            NodeOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }

    /// The target's output, or the run's first failure in topological
    /// order as the error.
    pub fn into_output(self) -> Result<SkillOutput> {
        let ExecReport { output, nodes, .. } = self;
        if let Some(out) = output {
            return Ok(out);
        }
        Err(nodes
            .into_iter()
            .find_map(|n| match n.outcome {
                NodeOutcome::Failed(e) => Some(e),
                _ => None,
            })
            .unwrap_or_else(|| SkillError::invalid("execution produced no output")))
    }
}

/// What one node's attempt loop produced.
struct AttemptOutcome {
    result: Result<SkillOutput>,
    attempts: u32,
    faults_absorbed: u32,
    degraded: bool,
    wall: Duration,
}

/// The message a panic's `payload` carries.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The error of a skill that panicked with `payload`.
fn panic_error(call: &SkillCall, payload: Box<dyn std::any::Any + Send>) -> SkillError {
    SkillError::Panic {
        skill: call.name().to_string(),
        message: panic_message(&*payload),
    }
}

/// Run one node's attempt loop. `exec(degraded)` performs a single
/// attempt; `token` (when present) is armed with the budget around each
/// attempt so storage scans can cancel cooperatively.
fn run_attempts<F>(
    policy: &ExecPolicy,
    node: &SkillNode,
    token: Option<&CancelToken>,
    run_deadline: Option<Instant>,
    mut exec: F,
) -> AttemptOutcome
where
    F: FnMut(bool) -> Result<SkillOutput>,
{
    let call = &node.call;
    let can_degrade = matches!(call, SkillCall::LoadTable { .. });
    let started = Instant::now();
    let mut faults_absorbed = 0u32;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let degraded = can_degrade && policy.degrade_after.is_some_and(|n| attempt > n);
        // The token is armed with the tighter of the per-node budget and
        // what remains of the whole-run slice, so a scan started near the
        // end of a time slice yields at the next block boundary.
        let mut arm = policy.node_budget;
        if let Some(d) = run_deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            arm = Some(arm.map_or(remaining, |b| b.min(remaining)));
        }
        if let (Some(t), Some(budget)) = (token, arm) {
            t.arm(budget);
        }
        let attempt_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| exec(degraded)))
            .unwrap_or_else(|payload| Err(panic_error(call, payload)));
        if let Some(t) = token {
            t.disarm();
        }
        // Post-hoc budget enforcement for work that cannot observe the
        // token (pure compute): a late success still missed its budget.
        let result = match (result, policy.node_budget) {
            (Ok(_), Some(budget)) if attempt_start.elapsed() > budget => Err(SkillError::Timeout {
                skill: call.name().to_string(),
                budget_ms: budget.as_millis() as u64,
            }),
            (r, _) => r,
        };
        match result {
            // Retrying past the run slice would burn backoff sleeps on a
            // job that is about to be preempted anyway; surface the
            // (retryable) error instead so resume can finish the node.
            Err(e)
                if e.is_retryable()
                    && attempt < policy.retry.max_attempts
                    && run_deadline.is_none_or(|d| Instant::now() < d) =>
            {
                faults_absorbed += 1;
                std::thread::sleep(policy.retry.backoff(node.id, attempt));
            }
            result => {
                return AttemptOutcome {
                    degraded: degraded && result.is_ok(),
                    result,
                    attempts: attempt,
                    faults_absorbed,
                    wall: started.elapsed(),
                }
            }
        }
    }
}

/// The traffic on `mem`'s spill metrics since `before` was captured.
fn spill_since(mem: Option<&MemContext>, before: Option<SpillSnapshot>) -> SpillSnapshot {
    mem.zip(before)
        .map(|(m, before)| m.metrics.snapshot().delta_since(before))
        .unwrap_or_default()
}

/// A pure node of a wave with its input tables.
type PureJob<'d> = (&'d SkillNode, Vec<Arc<Table>>);

/// One pure node's whole attempt loop, on whichever pool thread claims it.
/// Pure compute cannot observe a cancel token, so its budget is enforced
/// post-hoc inside [`run_attempts`]. The returned [`SpillSnapshot`] is
/// this job's delta on the shared spill metrics (best-effort attribution
/// when siblings spill concurrently).
fn run_pure_job(
    policy: &ExecPolicy,
    (node, inputs): &PureJob<'_>,
    hook: Option<&BeforeExecuteHook>,
    mem: Option<&MemContext>,
) -> (AttemptOutcome, SpillSnapshot) {
    let spill_before = mem.map(|m| m.metrics.snapshot());
    let att = run_attempts(policy, node, None, None, |_| {
        if let Some(h) = hook {
            h(&node.call);
        }
        let refs: Vec<&Table> = inputs.iter().map(|t| t.as_ref()).collect();
        execute_pure_call_with_mem(&node.call, &refs, mem)
    });
    (att, spill_since(mem, spill_before))
}

/// What one drive over a DAG accumulates beside the executor's cache.
struct Run<'p> {
    policy: &'p ExecPolicy,
    /// The planned cone being walked.
    dag: &'p SkillDag,
    /// When the whole-run slice ends.
    deadline: Option<Instant>,
    /// Every cone node's key, indexed by cone id.
    keys: Vec<SubDagKey>,
    reports: HashMap<NodeId, NodeReport>,
    /// Sub-DAGs that failed or sit downstream of one. Tracked by sub-DAG
    /// key, not node id, so a failed representative also poisons its
    /// structural duplicates.
    unusable: HashSet<SharedKey>,
}

impl Run<'_> {
    fn key(&self, node: NodeId) -> SharedKey {
        self.keys[node].hash
    }

    /// Book how a node ended up; a failure or a skip poisons its sub-DAG.
    fn book(&mut self, report: NodeReport) {
        if matches!(
            report.outcome,
            NodeOutcome::Failed(_) | NodeOutcome::Skipped { .. }
        ) {
            self.unusable.insert(self.key(report.node));
        }
        self.reports.insert(report.node, report);
    }

    /// [`Run::book`] for a node that made no attempt.
    fn record(&mut self, node: &SkillNode, outcome: NodeOutcome) {
        self.book(NodeReport::new(node, outcome));
    }

    /// The first input of `node` that cannot be used, if any.
    fn blocked_on(&self, node: &SkillNode) -> Option<NodeId> {
        let blocked = |i: &&NodeId| self.unusable.contains(&self.key(**i));
        node.inputs.iter().find(blocked).copied()
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// A node the expired run slice preempted before it started: a
    /// retryable timeout at zero attempts, so running the target again
    /// picks it up as the frontier without any retry budget spent.
    fn preempt(&mut self, node: &SkillNode) {
        let skill = node.call.name().to_string();
        let budget_ms = self.policy.run_budget.unwrap_or_default().as_millis() as u64;
        self.record(
            node,
            NodeOutcome::Failed(SkillError::Timeout { skill, budget_ms }),
        );
    }
}

impl Executor {
    /// Execute `target` under `policy`, absorbing retryable faults,
    /// isolating panics, and degrading scans as configured. Never aborts
    /// the whole run for a node failure: the failure poisons exactly the
    /// dependent sub-DAG, everything else completes and is checkpointed
    /// in the cache. Structural errors (unknown node ids) still return
    /// `Err`.
    ///
    /// Under a one-attempt policy with no budget, `report.output` is what
    /// [`Executor::run`] returns, with the same stats and the same
    /// shared-cache admissions: they are one body. Running the same target
    /// again after a partial failure re-executes only the failed frontier
    /// and its dependents: completed sub-DAG results stay checkpointed.
    pub fn run_resilient(
        &mut self,
        dag: &SkillDag,
        target: NodeId,
        env: &mut Env,
        policy: &ExecPolicy,
    ) -> Result<ExecReport> {
        // Install a run-scoped memory context when the policy budgets one
        // and the environment carries none of its own. The context owns a
        // temp spill directory that is removed when it drops below.
        let installed = match policy.mem_budget {
            Some(budget) if env.memory.is_none() => {
                env.memory = Some(Arc::new(MemContext::with_budget(budget)?));
                true
            }
            _ => false,
        };
        let spill_before = env.memory.as_ref().map(|m| m.metrics.snapshot());
        let result = self.drive(dag, target, env, policy);
        let spill = spill_since(env.memory.as_deref(), spill_before);
        if installed {
            // Drop the run-scoped context (and its spill directory) even
            // when the run errored structurally.
            env.memory = None;
        }
        result.map(|(mut report, _)| {
            report.bytes_spilled = spill.bytes_spilled;
            report.spill_partitions = spill.spill_partitions;
            report
        })
    }

    /// The one body that plans and walks a DAG. Returns the report (its
    /// run-wide spill totals are the caller's to fill in) and the
    /// target's sub-DAG key.
    pub(crate) fn drive(
        &mut self,
        dag: &SkillDag,
        target: NodeId,
        env: &mut Env,
        policy: &ExecPolicy,
    ) -> Result<(ExecReport, SharedKey)> {
        // The whole-run slice starts now: planning, keying, and every wave
        // all count against it. A slice longer than an `Instant` can reach
        // has no end.
        let deadline = policy
            .run_budget
            .and_then(|b| Instant::now().checked_add(b));
        // The unit of a run is the target's cone: a compact copy of the
        // nodes it depends on (ids `0..k`, `cone.ids` back to the caller's
        // ids), so a step costs what it depends on however many nodes the
        // session has collected. Everything below speaks cone ids; the
        // caller's ids come back in at the edge — the target on the way in,
        // the report on the way out.
        // The one plan step. Its rewrites (reading a repeated load as its
        // first copy, done as the cone is cut; projection pushdown, filter
        // hoisting into scans, join reordering) preserve node ids and
        // filter nodes, so caching, reporting and error attribution are
        // unaffected. With `optimize` off the DAG runs exactly as written.
        let mut cone = dag.cone(&[target], &[], self.optimize)?;
        let written = |local: NodeId| cone.ids[local];
        let cone_target = cone
            .local(target)
            .ok_or(SkillError::NodeNotFound { id: target })?;
        if self.optimize {
            crate::optimize::plan_unit(&mut cone.dag, &[cone_target], &[], env);
        }
        let dag = &cone.dag;
        // Every node of the cone is one the target depends on.
        let order: Vec<NodeId> = (0..dag.len()).collect();
        let (hits_before, saved_before) = (self.stats.cache_hits, self.stats.bytes_saved);
        let mut run = Run {
            policy,
            dag,
            deadline,
            keys: sub_dag_keys(dag, Some(env)),
            reports: HashMap::with_capacity(order.len()),
            unusable: HashSet::new(),
        };

        // Structurally identical duplicates execute once; the aliases are
        // resolved against the cache after the run. The local cache is
        // probed first, then the cross-session tier.
        let mut pending: Vec<&SkillNode> = Vec::new();
        let mut aliases: Vec<(&SkillNode, NodeId)> = Vec::new();
        for &nid in &order {
            let node = dag.node(nid)?;
            let key = run.key(nid);
            if let Some(checkpoint) = self.checkpoints.get(&key) {
                self.stats.cache_hits += 1;
                self.stats.bytes_saved += checkpoint.footprint;
                run.record(node, NodeOutcome::CacheHit);
            } else if let Some(rep) = pending.iter().find(|p| run.key(p.id) == key) {
                self.stats.cache_hits += 1;
                aliases.push((node, rep.id));
            } else if self.probe_shared(env, run.keys[nid]) {
                run.record(node, NodeOutcome::CacheHit);
            } else {
                pending.push(node);
            }
        }

        // Wave loop: execute every node whose inputs are materialized,
        // skip nodes blocked on a failure, repeat.
        while !pending.is_empty() {
            let waiting = pending.len();
            let (mut wave, mut rest) = (Vec::new(), Vec::new());
            for node in pending {
                if let Some(blocked_on) = run.blocked_on(node) {
                    run.record(node, NodeOutcome::Skipped { blocked_on });
                } else if node
                    .inputs
                    .iter()
                    .all(|i| self.checkpoints.contains_key(&run.key(*i)))
                {
                    wave.push(node);
                } else {
                    rest.push(node);
                }
            }
            pending = rest;
            self.execute_wave(wave, env, &mut run);
            debug_assert!(pending.len() < waiting, "topological order makes progress");
            if pending.len() == waiting {
                break;
            }
        }

        // Aliases inherit their representative's fate.
        for (node, rep) in aliases {
            let outcome = if self.checkpoints.contains_key(&run.key(node.id)) {
                NodeOutcome::CacheHit
            } else {
                NodeOutcome::Skipped { blocked_on: rep }
            };
            run.record(node, outcome);
        }

        // A failed target never yields an output, even when an earlier run
        // checkpointed a result for its sub-DAG.
        let key = run.key(cone_target);
        let output = match self.checkpoints.get(&key) {
            Some(checkpoint) if !run.unusable.contains(&key) => Some(checkpoint.output.clone()),
            _ => None,
        };
        let walk = self.checkpoints.values().map(|c| c.flow.byte_size() as u64);
        debug_assert_eq!(self.cache_bytes(), walk.sum::<u64>(), "bytes counted");
        let mut nodes: Vec<NodeReport> = Vec::with_capacity(order.len());
        for nid in &order {
            if let Some(mut r) = run.reports.remove(nid) {
                r.node = written(r.node);
                if let NodeOutcome::Skipped { blocked_on } = &mut r.outcome {
                    *blocked_on = written(*blocked_on);
                }
                nodes.push(r);
            }
        }
        let report = ExecReport {
            target,
            output,
            nodes,
            cache_hits: self.stats.cache_hits - hits_before,
            bytes_saved: self.stats.bytes_saved - saved_before,
            bytes_spilled: 0,
            spill_partitions: 0,
        };
        Ok((report, key))
    }

    /// Execute one wave under the policy. Environment-dependent nodes run
    /// serially (they need `&mut Env`); pure nodes run through
    /// [`parallel::run_indexed`], one index per node, so they share the
    /// engine's pool and its [`parallel::num_threads`] budget with the
    /// kernels they call. Whichever thread claims a node owns its whole
    /// attempt loop.
    fn execute_wave(&mut self, wave: Vec<&SkillNode>, env: &mut Env, run: &mut Run<'_>) {
        let policy = run.policy;
        let mut pure: Vec<PureJob<'_>> = Vec::new();
        for node in wave {
            let inputs = self.input_tables(node, &run.keys);
            if !needs_env(&node.call, !node.inputs.is_empty()) {
                pure.push((node, inputs));
                continue;
            }
            if run.expired() {
                run.preempt(node);
                continue;
            }
            let hook = self.before_execute.clone();
            let token = env.cancel.clone();
            let tally_before = env.scan_tally;
            let spill_before = env.memory.as_ref().map(|m| m.metrics.snapshot());
            let att = run_attempts(policy, node, Some(&token), run.deadline, |degraded| {
                if let Some(h) = &hook {
                    h(&node.call);
                }
                if degraded {
                    // A block-sampled scan instead of the full one. The
                    // cost meter naturally records the cheaper path —
                    // only the blocks actually read are charged.
                    let opts = ScanOptions::block_sampled(policy.degraded_fraction, DEGRADED_SEED);
                    load_table(&node.call, env, opts)
                } else {
                    let refs: Vec<&Table> = inputs.iter().map(|t| t.as_ref()).collect();
                    execute_call(&node.call, &refs, env)
                }
            });
            let scan = env.scan_tally.delta_since(tally_before);
            let spill = spill_since(env.memory.as_deref(), spill_before);
            self.commit_attempt(node, inputs, att, scan, spill, env, run);
        }

        // Pure nodes are gated on the slice as a batch: once dispatched
        // they run to completion and commit (post-hoc node budgets aside),
        // so an expired slice preempts only work that has not started.
        if run.expired() {
            for (node, _) in pure {
                run.preempt(node);
            }
            return;
        }
        let (hook, mem) = (self.before_execute.as_ref(), env.memory.as_deref());
        let results: Vec<(AttemptOutcome, SpillSnapshot)> =
            parallel::run_indexed(pure.len(), |i| {
                let job = &pure[i];
                // Every attempt runs under catch_unwind, so a node that still
                // unwinds failed outside its skill; it fails like any other
                // panic, alone, instead of resuming in the driver.
                catch_unwind(AssertUnwindSafe(|| run_pure_job(policy, job, hook, mem)))
                    .unwrap_or_else(|payload| {
                        let att = AttemptOutcome {
                            result: Err(panic_error(&job.0.call, payload)),
                            attempts: 1,
                            faults_absorbed: 0,
                            degraded: false,
                            wall: Duration::ZERO,
                        };
                        (att, SpillSnapshot::default())
                    })
            });
        for ((node, inputs), (att, spill)) in pure.into_iter().zip(results) {
            self.commit_attempt(node, inputs, att, ScanTally::default(), spill, env, run);
        }
    }

    /// Fold one node's attempt outcome into cache, stats, and reports. A
    /// degraded result is committed to the *local* cache only (so resume
    /// and downstream nodes keep working on the sampled data) and marked
    /// tainted — `finish` never admits it, or anything derived from it,
    /// to the shared cross-session cache as authoritative.
    #[allow(clippy::too_many_arguments)]
    fn commit_attempt(
        &mut self,
        node: &SkillNode,
        inputs: Vec<Arc<Table>>,
        att: AttemptOutcome,
        scan: ScanTally,
        spill: SpillSnapshot,
        env: &Env,
        run: &mut Run<'_>,
    ) {
        self.stats.retries += att.attempts.saturating_sub(1) as u64;
        let outcome = match att.result {
            Ok(output) => {
                let own_scan_bytes = scan.bytes_scanned + scan.bytes_pruned;
                self.finish(
                    run.dag,
                    node,
                    &run.keys,
                    inputs,
                    output,
                    own_scan_bytes,
                    att.degraded,
                    env,
                );
                NodeOutcome::Ok
            }
            Err(e) => NodeOutcome::Failed(e),
        };
        let mut report = NodeReport::new(node, outcome);
        report.attempts = att.attempts;
        report.faults_absorbed = att.faults_absorbed;
        report.degraded = att.degraded;
        report.wall = att.wall;
        report.bytes_scanned = scan.bytes_scanned;
        report.bytes_pruned = scan.bytes_pruned;
        report.bytes_spilled = spill.bytes_spilled;
        report.spill_partitions = spill.spill_partitions;
        run.book(report);
    }
}
