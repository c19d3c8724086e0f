//! Pass 4: static cost & cardinality estimation (the DC03xx family).
//!
//! Propagates **row-count intervals** and **scan-byte bounds** through
//! the whole planned DAG. The pass prices the driver's plan exactly: it is
//! handed the DAG after the driver's one plan step (so a filter above a
//! load is priced as the load's scan predicate, the scan the driver
//! actually runs), a load's bytes are the storage layer's own scan plan
//! (`TableMeta::plan`, the function the scan itself runs — called, not
//! mirrored), and totals are deduped by the executor's own structural
//! sub-DAG ids (a repeated sub-DAG runs — and charges — once).
//!
//! Each node's rows are its skill contract's row rule
//! (`dc_skills::contract::rows`) over its inputs' intervals: this pass
//! walks the DAG with it, as the schema pass walks it with the schemas,
//! and keeps only what is its own — byte pricing, the governor state sizes
//! behind DC0208, the structural dedup, and the DC0301/0302/0303 lints.
//! The driver `debug_assert!`s every flow table's row count
//! against the same rule for the inputs' actual rows, so every debug run
//! checks these intervals.
//!
//! ## Soundness contract
//!
//! Estimates are two-sided intervals with a *directional* guarantee (what
//! is modeled is exact; what is data-dependent degrades):
//!
//! * `rows_hi` / `bytes_hi` are **upper bounds**: cold-cache, non-faulty
//!   execution never produces more rows or charges more scan bytes than
//!   estimated. Data-dependent cardinalities (joins, `RunSql`, `Pivot`
//!   headers) degrade *up* — to every pair, or to "unknown".
//! * `rows_lo` / `bytes_lo` are **guaranteed lower bounds** under the
//!   same cold-cache assumption: a warm materialized cache can only
//!   reduce the actual cost, so
//!   the DC0301 budget lint — which fires on the lower bound — is
//!   phrased as "executing this against storage must exhaust the
//!   budget", never the other way around.
//!
//! Retried scans under fault injection charge per attempt and can exceed
//! `bytes_hi`; the serve layer's budget settlement absorbs that overdraft
//! (see DESIGN.md §12 for the full degradation table).

use std::collections::{BTreeSet, HashMap, HashSet};

use dc_engine::ops::spill;
use dc_engine::{DataType, Schema};
use dc_skills::contract::{self, load_scan, RowBounds, RowInput};
use dc_skills::{structural_ids, NodeId, PlanStats, SkillCall, SkillDag, SkillNode, SubDagKey};

use crate::context::AnalysisContext;
use crate::diag::{Code, Diagnostic, Fix, Span};

/// DC0302 fires when a join's *guaranteed* output cardinality is at
/// least this many times both inputs' upper bounds.
pub const EXPLOSIVE_JOIN_FACTOR: u64 = 4;

/// Statically derived bounds for one node of the planned DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEstimate {
    pub node: NodeId,
    /// Guaranteed minimum output rows (cold cache, no faults).
    pub rows_lo: u64,
    /// Maximum possible output rows; `None` = statically unknown
    /// (data-dependent, e.g. `RunSql`).
    pub rows_hi: Option<u64>,
    /// Guaranteed scan bytes this node charges the §3 meter when it
    /// executes against storage (zero for pure transforms).
    pub bytes_lo: u64,
    /// Upper bound on the node's scan charge.
    pub bytes_hi: u64,
    /// Heuristic output footprint in bytes (drives DC0303); `None` when
    /// rows or schema are unknown.
    pub out_bytes: Option<u64>,
    /// Guaranteed lower bound on the state this operator books with the
    /// memory governor for its whole input, from the engine's own
    /// `dc_engine::ops::spill::*_state_bytes`: the records of a sort, the
    /// index and pairs of a join, the groups a group-by is certain to
    /// form. Zero for streaming operators. Against a budget this is the
    /// "will spill" signal — if it exceeds the budget, the governor is
    /// certain to refuse it and the operator bounds its state by
    /// partitioning, releasing sort runs, id lists or join pairs to disk.
    pub state_bytes_lo: u64,
}

/// The whole-DAG estimate: per-node bounds plus structurally deduped
/// pipeline totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DagEstimates {
    /// Estimates for every node reachable from the analysis targets, in
    /// topological (id) order.
    pub nodes: Vec<NodeEstimate>,
    /// Guaranteed pipeline scan bytes, with each structural sub-DAG
    /// priced once (the executor's cache runs duplicates once).
    pub scan_bytes_lo: u64,
    /// Upper bound on pipeline scan bytes, deduped the same way.
    pub scan_bytes_hi: u64,
}

impl DagEstimates {
    /// The estimate for one node, if it was reachable.
    pub fn get(&self, node: NodeId) -> Option<&NodeEstimate> {
        self.nodes.iter().find(|e| e.node == node)
    }

    /// Nodes whose guaranteed-lower-bound operator state exceeds
    /// `budget` bytes — the ones a memory governor with that budget is
    /// certain to push out of core.
    pub fn spilling_nodes(&self, budget: u64) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|e| e.state_bytes_lo > budget)
            .map(|e| e.node)
            .collect()
    }
}

/// Heuristic bytes-per-row of a schema, mirroring `Column::byte_size`'s
/// per-dtype costs (validity bitmap amortized in; strings priced at the
/// 24-byte header plus a nominal 8-byte payload).
fn row_width(schema: &Schema) -> u64 {
    let w: u64 = schema
        .fields()
        .iter()
        .map(|f| match f.dtype {
            DataType::Bool => 2u64,
            DataType::Int | DataType::Float => 9,
            DataType::Date => 5,
            DataType::Str => 32,
        })
        .sum();
    w.max(1)
}

/// A load's rows, what its scan charges (exactly), and the stored
/// footprint of the rows a full-width scan re-emits (`None` for a projected
/// scan, whose narrower rows the width model prices instead) — all from
/// the scan's one plan, its rows by the contract's rule for it. `None` for
/// other calls, unknown tables, and scans that cannot be planned (they
/// fail before charging anything).
fn load_price(ctx: &AnalysisContext, call: &SkillCall) -> Option<(RowBounds, u64, Option<u64>)> {
    let (database, table, scan) = load_scan(call)?;
    let meta = ctx.table(database, table)?;
    let plan = meta.plan(&scan).ok()?;
    let stored = meta.num_rows() as u128;
    let out_bytes = (stored > 0 && scan.columns.is_none())
        .then(|| (u128::from(meta.total_bytes()) * u128::from(plan.rows_scanned) / stored) as u64);
    Some((
        contract::scan_rows(meta, &plan),
        plan.bytes_scanned,
        out_bytes,
    ))
}

/// Run the estimation pass over `dag` — the plan the driver runs, i.e. the
/// written DAG after the plan step (`analyze_dag` plans once) — and emit
/// the DC03xx lints. `schemas` is the schema pass's per-node result (used
/// for the footprint model); `targets` scope reachability (empty = whole
/// DAG).
pub fn estimate_pass(
    dag: &SkillDag,
    targets: &[NodeId],
    ctx: &AnalysisContext,
    schemas: &HashMap<NodeId, Option<Schema>>,
    diags: &mut Vec<Diagnostic>,
) -> DagEstimates {
    // Reachability: union of the targets' ancestor chains (node ids are
    // topological — inputs always precede consumers).
    let reachable: BTreeSet<NodeId> = if targets.is_empty() {
        dag.nodes().iter().map(|n| n.id).collect()
    } else {
        let mut set = BTreeSet::new();
        for &t in targets {
            if let Ok(order) = dag.ancestors(t) {
                set.extend(order);
            }
        }
        set
    };

    let mut rows: HashMap<NodeId, RowBounds> = HashMap::new();
    let mut estimates: Vec<NodeEstimate> = Vec::new();
    for node in dag.nodes() {
        if !reachable.contains(&node.id) {
            continue;
        }
        let inputs: Vec<RowInput> = (node.inputs.iter())
            .map(|&id| RowInput {
                rows: rows.get(&id).copied().unwrap_or(RowBounds::UNKNOWN),
                dag,
                node: id,
            })
            .collect();
        let (bounds, bytes, load_out_bytes) = match load_price(ctx, &node.call) {
            Some(priced) => priced,
            None => (contract::rows(&node.call, &inputs, ctx), 0, None),
        };
        let out_bytes = load_out_bytes.or_else(|| {
            let schema = schemas.get(&node.id).and_then(|s| s.as_ref())?;
            bounds.hi.map(|h| h.saturating_mul(row_width(schema)))
        });
        // Guaranteed-lower-bound operator state: the engine's own state
        // sizes (what its kernels book with the governor), called with
        // this pass's lower bounds. A sort holds a record per input row, a
        // hash join an index entry per build (second-input) row and a pair
        // per probe row, a group-by its groups — of which only the output's
        // lower bound is certain, however many rows go in.
        let input = |i: usize| inputs.get(i).map_or(RowBounds::UNKNOWN, |input| input.rows);
        let state_bytes_lo = match &node.call {
            SkillCall::Sort { keys } => spill::sort_state_bytes(input(0).lo, keys.len() as u64),
            SkillCall::Compute { aggs, for_each } => {
                let widths = spill::group_widths(for_each.len(), aggs.iter().map(|a| a.func));
                spill::group_state_bytes(0, bounds.lo, widths)
            }
            SkillCall::Join { left_on, .. } => {
                explosive_join(node, input(0), input(1), bounds, diags);
                spill::join_state_bytes(input(1).lo, input(0).lo, left_on.len() as u64)
            }
            _ => 0,
        };
        rows.insert(node.id, bounds);
        estimates.push(NodeEstimate {
            node: node.id,
            rows_lo: bounds.lo,
            rows_hi: bounds.hi,
            bytes_lo: bytes,
            bytes_hi: bytes,
            out_bytes,
            state_bytes_lo,
        });
    }

    // Pipeline totals, priced once per structural sub-DAG — the
    // executor's cache (and the cross-session materialized cache) runs
    // each unique sub-DAG at most once per session.
    let sids = structural_ids(dag);
    let mut priced: BTreeSet<u64> = BTreeSet::new();
    let mut scan_bytes_lo = 0u64;
    let mut scan_bytes_hi = 0u64;
    for est in &estimates {
        let fresh = match sids.get(&est.node) {
            Some(&sid) => priced.insert(sid),
            None => true,
        };
        if fresh {
            scan_bytes_lo = scan_bytes_lo.saturating_add(est.bytes_lo);
            scan_bytes_hi = scan_bytes_hi.saturating_add(est.bytes_hi);
        }
    }

    // DC0301: even the guaranteed-lower-bound cost exceeds the tenant's
    // remaining byte budget — execution *must* be evicted mid-run, so
    // reject preflight, before any scan is charged.
    if let Some(budget) = ctx.remaining_budget() {
        if scan_bytes_lo > budget {
            let worst = estimates
                .iter()
                .filter(|e| e.bytes_lo > 0)
                .max_by_key(|e| e.bytes_lo);
            let span = worst
                .and_then(|e| dag.node(e.node).ok().map(|n| (e.node, n.call.name())))
                .map(|(id, name)| Span::node(id, name))
                .unwrap_or_else(Span::none);
            diags.push(
                Diagnostic::new(
                    Code::PredictedBudgetExhaustion,
                    format!(
                        "this pipeline is guaranteed to scan at least {scan_bytes_lo} \
                         bytes, but the tenant's remaining byte budget is {budget}; \
                         execution would be evicted mid-run with BudgetExhausted"
                    ),
                )
                .with_span(span)
                .with_fix(Fix::new(
                    "filter or sample the scans to fit the budget, read a snapshot, \
                     or wait for the budget to refill",
                )),
            );
        }
    }

    // DC0208: the operator's guaranteed-lower-bound state exceeds the
    // executor's memory budget, so the governor is certain to refuse it
    // and the operator will run out of core. Warning, not error —
    // spilling is correct, just slower — with the number of budget-sized
    // pieces that state comes to.
    if let Some(budget) = ctx.mem_budget() {
        for est in &estimates {
            if est.state_bytes_lo <= budget {
                continue;
            }
            let Ok(node) = dag.node(est.node) else {
                continue;
            };
            let partitions = est.state_bytes_lo.div_ceil(budget.max(1)).max(2);
            diags.push(
                Diagnostic::new(
                    Code::PredictedSpill,
                    format!(
                        "{} must hold at least {} bytes of state, over the \
                         {budget}-byte operator-memory budget; the governor will refuse \
                         it and the operator runs out of core, in ~{partitions} \
                         partitions or runs",
                        node.call.name(),
                        est.state_bytes_lo,
                    ),
                )
                .with_span(Span::node(est.node, node.call.name()))
                .with_fix(Fix::new(format!(
                    "filter, project, or aggregate earlier so the {}'s state fits in \
                     memory, or raise the memory budget to at least {} bytes to keep \
                     it in core",
                    node.call.name(),
                    est.state_bytes_lo,
                ))),
            );
        }
    }

    // DC0303: the node's estimated output can never be admitted to the
    // shared materialized cache (residency double-counts the table), so
    // the sub-DAG is re-derived on every run. Reported once at the node
    // that first crosses the capacity line.
    if let Some(capacity) = ctx.cache_capacity() {
        let exceeds = |id: NodeId| {
            estimates
                .iter()
                .find(|e| e.node == id)
                .and_then(|e| e.out_bytes)
                .is_some_and(|b| b.saturating_mul(2) > capacity)
        };
        for est in &estimates {
            let Some(out) = est.out_bytes else { continue };
            if out.saturating_mul(2) <= capacity {
                continue;
            }
            let Ok(node) = dag.node(est.node) else {
                continue;
            };
            if !node.call.transforms_data() || node.inputs.iter().any(|&i| exceeds(i)) {
                continue; // pass-throughs and already-flagged lineage
            }
            diags.push(
                Diagnostic::new(
                    Code::UncacheableResult,
                    format!(
                        "estimated output footprint (~{out} bytes, doubled for cache \
                         residency) exceeds the materialized cache capacity \
                         ({capacity} bytes); this result can never be shared and \
                         every re-run re-pays the full derivation"
                    ),
                )
                .with_span(Span::node(est.node, node.call.name()))
                .with_fix(Fix::new(
                    "reduce the result (filter, aggregate, or project) before the \
                     expensive step, or snapshot it instead of relying on the cache",
                )),
            );
        }
    }

    DagEstimates {
        nodes: estimates,
        scan_bytes_lo,
        scan_bytes_hi,
    }
}

/// DC0302: a join whose output is *guaranteed* to reach `k`× both inputs'
/// upper bounds — an accidental cross join, not a skew possibility.
fn explosive_join(
    node: &SkillNode,
    left: RowBounds,
    right: RowBounds,
    out: RowBounds,
    diags: &mut Vec<Diagnostic>,
) {
    let (Some(lh), Some(rh)) = (left.hi, right.hi) else {
        return;
    };
    let k = EXPLOSIVE_JOIN_FACTOR;
    if out.lo == 0 || out.lo < lh.saturating_mul(k) || out.lo < rh.saturating_mul(k) {
        return;
    }
    diags.push(
        Diagnostic::new(
            Code::ExplosiveJoin,
            format!(
                "join output is guaranteed to reach {} rows — at least \
                 {k}× both inputs (≤{lh} and ≤{rh} rows); the join keys \
                 do not discriminate (empty or constant on both sides), \
                 so this is effectively a cross join",
                out.lo
            ),
        )
        .with_span(Span::node(node.id, node.call.name()))
        .with_fix(Fix::new(
            "join on a key that actually distinguishes rows, or filter \
             both sides before joining",
        )),
    );
}

/// Admission estimates for a linear chat program (`dc-serve`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepEstimates {
    /// Sum of every step's scan-byte bound, each load priced as if it ran
    /// cold.
    pub total: u64,
    /// Total reservation: per-step bounds deduped by load identity, the
    /// same dedup the executor's structural cache applies (a program
    /// loading one table twice scans it once).
    pub reserve: u64,
}

/// Price a serve request's steps directly against the live environment:
/// each load is the storage layer's plan of its scan over the table's
/// resident metadata (free under the §3 meter; resident for a disk-backed
/// table too, so both backends price alike). The steps are priced as
/// submitted — run them through `dc_skills::plan_linear` first to price
/// the planned steps the service will execute.
pub fn estimate_steps(env: &dc_skills::Env, steps: &[SkillCall]) -> StepEstimates {
    let mut priced = HashSet::new();
    let (mut total, mut reserve) = (0u64, 0u64);
    for step in steps {
        let Some((database, table, scan)) = load_scan(step) else {
            continue;
        };
        // An unknown table: the step will fail before scanning.
        let plan = env
            .table_meta(database, table)
            .and_then(|t| t.plan(&scan).ok());
        let bytes = plan.map_or(0, |p| p.bytes_scanned);
        total = total.saturating_add(bytes);
        // Identical loads share a sub-DAG key, hit the session cache and
        // charge once.
        if priced.insert(SubDagKey::of(step, None, &[]).hash) {
            reserve = reserve.saturating_add(bytes);
        }
    }
    StepEstimates { total, reserve }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_dag;
    use dc_engine::Expr;
    use dc_storage::{BlockSource, BlockTable, TableMeta};

    /// The stored metadata of `csv` in blocks of `block_rows`.
    fn meta_of(csv: &str, block_rows: usize) -> TableMeta {
        let t = dc_engine::csv::read_csv(csv).unwrap();
        BlockTable::new(&t, block_rows).unwrap().meta().clone()
    }

    /// A table whose `day` column is monotone (0,0,1,1,2,2,...), split
    /// into 2-row blocks so zone maps genuinely prune.
    fn ctx_with(rows: usize) -> AnalysisContext {
        let mut csv = String::from("day,label\n");
        for i in 0..rows {
            csv.push_str(&format!("{},r{}\n", i / 2, i % 3));
        }
        let mut ctx = AnalysisContext::new();
        ctx.add_table("db", "history", meta_of(&csv, 2));
        ctx
    }

    fn load() -> SkillCall {
        SkillCall::load_table("db", "history")
    }

    #[test]
    fn filtered_scan_prunes_blocks_statically() {
        let ctx = ctx_with(20);
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("day").ge(Expr::lit(8i64)),
                },
                vec![l],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[f], &ctx);
        let full = ctx.table("db", "history").unwrap().total_bytes();
        let scan = a.estimates.get(l).unwrap();
        // Blocks with day < 8 are pruned: the bound is far below full
        // scan but still nonzero (tail blocks + dictionary).
        assert!(
            scan.bytes_hi > 0 && scan.bytes_hi < full,
            "{scan:?} vs {full}"
        );
        assert_eq!(scan.bytes_lo, scan.bytes_hi);
        // day ∈ [8, 9] → exactly 4 rows, and the pruned blocks make the
        // bound tight: rows_lo = rows_hi = 4 (every kept block is AllTrue).
        assert_eq!(a.estimates.get(f).unwrap().rows_hi, Some(4));
        assert_eq!(a.estimates.get(f).unwrap().rows_lo, 4);
    }

    #[test]
    fn unfiltered_load_is_exact() {
        let ctx = ctx_with(10);
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let a = analyze_dag(&dag, &[l], &ctx);
        let meta = ctx.table("db", "history").unwrap();
        let e = a.estimates.get(l).unwrap();
        assert_eq!(e.bytes_lo, meta.total_bytes());
        assert_eq!(e.bytes_hi, meta.total_bytes());
        assert_eq!(e.rows_hi, Some(meta.num_rows() as u64));
        assert_eq!(e.rows_lo, meta.num_rows() as u64);
    }

    #[test]
    fn duplicate_loads_priced_once() {
        let ctx = ctx_with(10);
        let mut dag = SkillDag::new();
        let a1 = dag.add(load(), vec![]).unwrap();
        let a2 = dag.add(load(), vec![]).unwrap();
        let c = dag
            .add(
                SkillCall::Concat {
                    other: "x".into(),
                    remove_duplicates: false,
                },
                vec![a1, a2],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[c], &ctx);
        let full = ctx.table("db", "history").unwrap().total_bytes();
        assert_eq!(a.estimates.scan_bytes_hi, full, "structural dedup");
        // Concat output doubles the rows.
        assert_eq!(a.estimates.get(c).unwrap().rows_hi, Some(20));
    }

    #[test]
    fn group_by_bounded_by_dictionary_cardinality() {
        let ctx = ctx_with(60); // label has 3 distinct values
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let g = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec::count_records("n")],
                    for_each: vec!["label".into()],
                },
                vec![l],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[g], &ctx);
        assert_eq!(a.estimates.get(g).unwrap().rows_hi, Some(3));
    }

    #[test]
    fn budget_lint_fires_on_guaranteed_overrun() {
        let mut ctx = ctx_with(20);
        ctx.set_remaining_budget(1); // far below any full scan
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let a = analyze_dag(&dag, &[l], &ctx);
        let hits = a.with_code(Code::PredictedBudgetExhaustion);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].is_error());
        assert_eq!(hits[0].span.node, Some(l));
    }

    #[test]
    fn budget_lint_respects_lower_bound() {
        // A filtered load is priced at what its scan charges, not at the
        // table's size: `x > 5` prunes every block of `x ∈ [0, 4]`, so the
        // guaranteed cost is 0 and the lint must not fire.
        let mut csv = String::from("x\n");
        for i in 0..1000 {
            csv.push_str(&format!("{}\n", i % 5));
        }
        let mut ctx = AnalysisContext::new();
        ctx.add_table("db", "t", meta_of(&csv, 250));
        ctx.set_remaining_budget(1);
        let full = ctx.table("db", "t").unwrap().total_bytes();
        assert!(full > 1);
        let mut dag = SkillDag::new();
        let l = dag
            .add(
                SkillCall::LoadTable {
                    database: "db".into(),
                    table: "t".into(),
                    columns: None,
                    predicate: Some(Expr::col("x").gt(Expr::lit(5i64))),
                },
                vec![],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[l], &ctx);
        assert!(a.with_code(Code::PredictedBudgetExhaustion).is_empty());
        let e = a.estimates.get(l).unwrap();
        assert_eq!((e.bytes_lo, e.bytes_hi), (0, 0));
    }

    #[test]
    fn constant_key_join_flagged_explosive() {
        // Both sides' `k` column is the constant 7.
        let mut csv = String::from("k,v\n");
        for i in 0..40 {
            csv.push_str(&format!("7,{i}\n"));
        }
        let mut ctx = AnalysisContext::new();
        ctx.add_table("db", "pairs", meta_of(&csv, 8));
        let mut dag = SkillDag::new();
        let a1 = dag
            .add(SkillCall::load_table("db", "pairs"), vec![])
            .unwrap();
        let a2 = dag
            .add(SkillCall::load_table("db", "pairs"), vec![])
            .unwrap();
        let j = dag
            .add(
                SkillCall::Join {
                    other: "x".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["k".into()],
                    how: dc_engine::JoinType::Inner,
                },
                vec![a1, a2],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[j], &ctx);
        let hits = a.with_code(Code::ExplosiveJoin);
        assert_eq!(hits.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(hits[0].span.node, Some(j));
        // 40×40 guaranteed.
        assert_eq!(a.estimates.get(j).unwrap().rows_lo, 1600);
    }

    #[test]
    fn discriminating_join_not_flagged() {
        let ctx = ctx_with(20);
        let mut dag = SkillDag::new();
        let a1 = dag.add(load(), vec![]).unwrap();
        let a2 = dag.add(load(), vec![]).unwrap();
        let j = dag
            .add(
                SkillCall::Join {
                    other: "x".into(),
                    left_on: vec!["day".into()],
                    right_on: vec!["day".into()],
                    how: dc_engine::JoinType::Inner,
                },
                vec![a1, a2],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[j], &ctx);
        assert!(a.with_code(Code::ExplosiveJoin).is_empty());
    }

    #[test]
    fn uncacheable_result_flagged_once_at_entry() {
        let mut ctx = ctx_with(40);
        ctx.set_cache_capacity(64); // tiny: any real table exceeds it
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let s = dag
            .add(
                SkillCall::Sort {
                    keys: vec![("day".into(), true)],
                },
                vec![l],
            )
            .unwrap();
        let a = analyze_dag(&dag, &[s], &ctx);
        let hits = a.with_code(Code::UncacheableResult);
        // Fires at the load (the first node over capacity), not again at
        // the sort whose input already exceeded.
        assert_eq!(hits.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(hits[0].span.node, Some(l));
        assert_eq!(hits[0].severity, crate::Severity::Warning);
    }

    #[test]
    fn estimate_steps_dedupes_and_prunes() {
        let mut env = dc_skills::Env::new();
        let mut csv = String::from("day,label\n");
        for i in 0..40 {
            csv.push_str(&format!("{},r{}\n", i / 2, i % 3));
        }
        let t = dc_engine::csv::read_csv(&csv).unwrap();
        let mut db = dc_storage::CloudDatabase::new("db", dc_storage::Pricing::default_cloud());
        db.create_table_with_blocks("history", &t, 4).unwrap();
        env.catalog.add_database(db).unwrap();

        let full = env
            .catalog
            .database("db")
            .unwrap()
            .table("history")
            .unwrap()
            .total_bytes();
        // Duplicate full loads reserve once.
        let est = estimate_steps(&env, &[load(), load()]);
        assert_eq!(est.total, 2 * full);
        assert_eq!(est.reserve, full);
        // A selective fused load reserves far less than full.
        let fused = SkillCall::LoadTable {
            database: "db".into(),
            table: "history".into(),
            columns: None,
            predicate: Some(Expr::col("day").ge(Expr::lit(18i64))),
        };
        let est = estimate_steps(&env, &[fused]);
        assert!(est.reserve > 0 && est.reserve < full, "{est:?} vs {full}");
    }

    #[test]
    fn limits_and_unknowns_degrade_conservatively() {
        let ctx = ctx_with(20);
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let sql = dag
            .add(
                SkillCall::RunSql {
                    query: "select 1".into(),
                },
                vec![],
            )
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 5 }, vec![l]).unwrap();
        let a = analyze_dag(&dag, &[lim, sql], &ctx);
        assert_eq!(a.estimates.get(lim).unwrap().rows_hi, Some(5));
        assert_eq!(a.estimates.get(lim).unwrap().rows_lo, 5);
        assert_eq!(a.estimates.get(sql).unwrap().rows_hi, None);
    }
}
