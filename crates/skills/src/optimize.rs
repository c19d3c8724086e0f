//! The plan step: cost-based rewrites over a [`SkillDag`].
//!
//! One pass, `plan_unit`, is what the driver ([`crate::resilient`]) runs
//! before walking a DAG and what the static estimator runs, through
//! [`optimize_dag`], before pricing it. **What it plans is the targets'
//! cone** — the nodes they depend on, cut out of the DAG as a compact copy
//! (`SkillDag::cone`) — never the whole DAG: a session's DAG grows for
//! as long as the session lives (§2.4), and a step must cost what it
//! depends on, not what the session has collected. Every pass below loops
//! over the unit it is handed and sizes its side tables by it. The rest of
//! the DAG reaches a cone's plan in exactly three ways, all carried by the
//! cone itself: a cone node's consumer count includes its consumers
//! outside the cone (a node somebody else reads is not sole-consumed:
//! nothing hoists or merges through it, and it keeps all its columns), a
//! load that repeats an earlier load of the DAG is read as that first load
//! and counted with it (the DAG knows each load's first copy, so the cut
//! finds it without looking at the rest), and a name bound to a cone node
//! protects it. A request's step list has no DAG yet; [`plan_linear`]
//! lowers it to one and plans that.
//!
//! Four rewrite families:
//!
//! 1. **Projection pushdown** — a column-liveness pass threads the
//!    minimal live column set of every unprotected [`SkillCall::LoadTable`]
//!    that reads all columns into its `columns`, so the storage scan
//!    never reads (or charges for) dead columns.
//! 2. **Filter hoisting** — prunable conjuncts of `KeepRows` /
//!    `DropRows` predicates sink below joins, concats, group-bys and the
//!    wrangling steps whose semantics provably pass the referenced
//!    columns through unchanged, landing as the `predicate` of the
//!    source loads that have none, where per-block zone maps skip blocks
//!    that cannot contain a matching row. [`plan_pushdown`] is this rule
//!    alone, for callers with no statistics (a whole-DAG analysis).
//! 3. **Join-order selection** — chains/stars of 2–4 inner joins are
//!    re-ordered by estimator-style interval upper bounds (dictionary
//!    cardinalities and provable key uniqueness); the written order is
//!    kept on ties or unbounded estimates.
//! 4. **Flattening** — adjacent `KeepRows` pairs merge into one
//!    conjunction (so deeper predicates reach the scan), and the
//!    consumers of a duplicate load read the first copy instead (done as
//!    the cone is cut: `SkillDag::cone`).
//!
//! The column names every rule reads, and the demand projection threads
//! back to the loads, are the nodes' skill contracts ([`crate::contract`](mod@crate::contract)),
//! the ones the analyzer walks and the driver checks flow tables against.
//!
//! Every rewrite keeps one discipline: node ids and node count never
//! change (calls are swapped in place, edges only redirect to structural
//! twins), targets / vetoed nodes / name-bound nodes are never rewritten
//! and never observe different bytes, and the filter nodes above hoisted
//! predicates still evaluate their full predicate, so pushed filters are
//! purely an optimization.
//!
//! The pass is deterministic: given the same DAG and the same
//! [`PlanStats`] answers it produces the same plan. A provider answers one
//! question — a catalog table's resident [`TableMeta`] — and every
//! statistic the rules read (schema, rows, dictionary cardinality,
//! uniqueness) is computed here from it, once; the contract's row rule
//! ([`crate::contract::rows`]) reads its group and constant-key bounds
//! from the same helpers. The driver ([`Env`]) and
//! the static estimator (`dc-analyze`'s context) hand out the same meta
//! for every catalog table, in-memory or disk-backed, so they plan alike;
//! saved artifacts, snapshots and file loads have no statistics on either
//! side and are never rewritten by them.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use dc_engine::expr::prune::{conjoin, nnf, prunable_conjuncts, ColumnStats};
use dc_engine::{DataType, Expr, Schema, Value};
use dc_storage::TableMeta;

use crate::contract::{contract, load_scan, Contract, Demand};
use crate::dag::{NodeId, SkillDag, SkillNode};
use crate::env::Env;
use crate::skill::SkillCall;

/// The statistics the optimizer plans against: a catalog table's resident
/// metadata. Implemented by [`Env`] (live catalog) and by `dc-analyze`'s
/// `AnalysisContext` (static snapshot), so plan-time and analysis-time
/// rewrites agree.
///
/// The schema drives the *semantic* rewrites (projection, hoisting); row
/// counts, dictionary cardinalities and uniqueness proofs drive only the
/// join-order *cost* comparison.
pub trait PlanStats {
    /// The resident metadata of a catalog table, if it exists.
    fn table_meta(&self, database: &str, table: &str) -> Option<&TableMeta>;
}

/// Answers come from the catalog's resident table metadata, so an
/// in-memory and a disk-backed copy of one table plan identically.
impl PlanStats for Env {
    fn table_meta(&self, database: &str, table: &str) -> Option<&TableMeta> {
        self.catalog.database(database).ok()?.source(table).ok()
    }
}

/// Dictionary cardinality of a dictionary-encoded column.
fn column_distinct(meta: &TableMeta, column: &str) -> Option<u64> {
    meta.dict_sizes()
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(column))
        .map(|(_, n)| *n as u64)
}

/// Every non-empty block's zone map of `column` folded into one for the
/// whole table: summed counts, and the least minimum and greatest maximum
/// when every block has them.
fn column_stats(meta: &TableMeta, column: &str) -> Option<ColumnStats> {
    let ci = meta.schema().index_of(column)?;
    let mut blocks = meta.blocks().iter().filter(|b| b.rows > 0);
    let mut folded = blocks.next()?.columns[ci].clone();
    for s in blocks.map(|b| &b.columns[ci]) {
        folded.null_count += s.null_count;
        folded.row_count += s.row_count;
        let pick = |a: Option<Value>, b: &Option<Value>, keep: Ordering| match (a, b) {
            (Some(a), Some(b)) if a.partial_cmp_sql(b) == Some(keep) => Some(b.clone()),
            (Some(a), Some(_)) => Some(a),
            _ => None,
        };
        folded.min = pick(folded.min.take(), &s.min, Ordering::Greater);
        folded.max = pick(folded.max.take(), &s.max, Ordering::Less);
    }
    Some(folded)
}

/// Upper bound on the distinct values, a null group included, that
/// `column` can take anywhere in the table: its dictionary's size, or the
/// span of its zone maps. `None` when neither bounds it.
pub(crate) fn column_groups(meta: &TableMeta, column: &str) -> Option<u64> {
    let stats = column_stats(meta, column);
    let null_group = |s: &ColumnStats| u64::from(s.null_count > 0);
    // The table-wide dictionary bounds the values however the rows were
    // filtered downstream.
    if let Some(len) = column_distinct(meta, column) {
        return Some(len + stats.as_ref().map_or(1, null_group));
    }
    let s = stats?;
    let span = match (&s.dtype, &s.min, &s.max) {
        (DataType::Bool, ..) => 2,
        (_, Some(Value::Int(lo)), Some(Value::Int(hi))) => hi.abs_diff(*lo).saturating_add(1),
        (_, Some(Value::Date(lo)), Some(Value::Date(hi))) => hi.abs_diff(*lo) as u64 + 1,
        (DataType::Int | DataType::Date, ..) => return None,
        // A provably constant column has one value.
        (_, Some(a), Some(b)) if a.partial_cmp_sql(b) == Some(Ordering::Equal) => 1,
        _ => return None,
    };
    Some(span.saturating_add(null_group(&s)))
}

/// The one value `column` holds in every row, when the zone maps prove it
/// constant and null-free.
pub(crate) fn column_constant(meta: &TableMeta, column: &str) -> Option<Value> {
    let s = column_stats(meta, column).filter(|s| s.null_count == 0)?;
    match (s.min, &s.max) {
        (Some(a), Some(b)) if a.partial_cmp_sql(b) == Some(Ordering::Equal) => Some(a),
        _ => None,
    }
}

/// Whether every row of `column` is provably distinct and non-null: a
/// null-free dictionary column with one entry per row, or an integer
/// column [`int_blocks_unique`] proves. Only ever `true` on a proof — join
/// reordering relies on uniqueness for exact row-order preservation, not
/// just cost.
fn column_unique(meta: &TableMeta, column: &str) -> bool {
    let Some(ci) = meta.schema().index_of(column) else {
        return false;
    };
    let stats = || meta.blocks().iter().map(|b| &b.columns[ci]);
    let no_nulls = stats().all(|s| s.null_count == 0);
    (no_nulls && column_distinct(meta, column) == Some(meta.num_rows() as u64))
        || int_blocks_unique(stats())
}

/// Uniqueness proof for an integer column from per-block statistics:
/// every block is a dense null-free run (`max - min + 1 == rows`) and
/// the block ranges are pairwise disjoint, so all values are distinct.
/// This is exactly the shape of surrogate-key columns.
fn int_blocks_unique<'a>(blocks: impl Iterator<Item = &'a ColumnStats>) -> bool {
    let mut spans: Vec<(i64, i64)> = Vec::new();
    let mut any = false;
    for b in blocks {
        any = true;
        if b.null_count != 0 {
            return false;
        }
        if b.row_count == 0 {
            continue;
        }
        let (Some(Value::Int(lo)), Some(Value::Int(hi))) = (&b.min, &b.max) else {
            return false;
        };
        if hi.saturating_sub(*lo).saturating_add(1) != b.row_count as i64 {
            return false;
        }
        spans.push((*lo, *hi));
    }
    spans.sort_unstable();
    any && spans.windows(2).all(|w| w[0].1 < w[1].0)
}

/// Optimize `dag` for `targets`. Returns the rewritten DAG, or `None`
/// when no rewrite applies (execute the input as written). `vetoed`
/// nodes (analyzer rejections) are protected exactly like targets.
///
/// The unit that is planned is the targets' cone — the nodes they depend
/// on — and the answer is that plan written back onto a copy of `dag`:
/// nodes no target reaches are returned as written (nothing executes or
/// prices them), and what the rest of `dag` holds changes the plan only
/// through the consumer counts and name bindings of the cone's own nodes
/// and through the earlier loads its loads repeat.
/// The driver plans the same cone with the same `plan_unit` and walks it
/// without the copy, so what this returns on the cone is what runs.
pub fn optimize_dag(
    dag: &SkillDag,
    targets: &[NodeId],
    vetoed: &[NodeId],
    stats: &dyn PlanStats,
) -> Option<SkillDag> {
    let mut cone = dag.cone(targets, vetoed, true).ok()?;
    let local =
        |nodes: &[NodeId]| -> Vec<NodeId> { nodes.iter().filter_map(|&n| cone.local(n)).collect() };
    let (targets, vetoed) = (local(targets), local(vetoed));
    if !plan_unit(&mut cone.dag, &targets, &vetoed, stats) && !cone.merged {
        return None;
    }
    let mut out = dag.clone();
    out.write_back(cone);
    Some(out)
}

/// The plan step over one unit: every rewrite family, in place. `dag` is
/// what will run — a cone cut by [`SkillDag::cone`], whose consumer counts
/// and name-bound flags still speak for the DAG it came from — and
/// `targets` / `vetoed` are ids in it. Returns whether anything changed.
pub(crate) fn plan_unit(
    dag: &mut SkillDag,
    targets: &[NodeId],
    vetoed: &[NodeId],
    stats: &dyn PlanStats,
) -> bool {
    let mut changed = false;
    let protected = protected_set(dag, targets, vetoed);
    let vetoed = node_mask(dag, vetoed);
    merge_adjacent_keeps(dag, &protected, &vetoed, &mut changed);
    // Neither rewrite above moves a column name; a join reorder does.
    let mut contracts = contracts_of(dag, stats);
    if reorder_joins(dag, &protected, stats, &schemas_of(&contracts)) {
        changed = true;
        contracts = contracts_of(dag, stats);
    }
    for (load, predicate) in hoist_filters(dag, &protected, &vetoed, &schemas_of(&contracts)) {
        changed |= set_scan(dag, load, None, Some(predicate));
    }
    project_loads(dag, targets, &protected, &contracts, &mut changed);
    changed
}

/// The filter-hoisting rule alone, for callers with no statistics at
/// hand: every prunable conjunct of a `KeepRows` / `DropRows` that
/// [`optimize_dag`] would sink into a scan without knowing a column name
/// (so it stops at joins) lands on its load; nothing else is rewritten.
/// Returns `None` when nothing is eligible (the caller keeps using the
/// original DAG, uncloned) — which is the case for every DAG
/// [`optimize_dag`] has been over, so the driver does not call this.
///
/// `protected` loads are never rewritten — the materialization target's
/// observable output must stay the raw table — and neither are
/// name-bound ones. `vetoed` nodes neither get rewritten nor push their
/// predicate: a predicate that never earned the right to run must not
/// sneak into a scan either.
pub fn plan_pushdown(dag: &SkillDag, protected: &[NodeId], vetoed: &[NodeId]) -> Option<SkillDag> {
    let unknown = vec![None; dag.len()];
    let protected = protected_set(dag, protected, vetoed);
    let pushed = hoist_filters(dag, &protected, &node_mask(dag, vetoed), &unknown);
    if pushed.is_empty() {
        return None;
    }
    let mut out = dag.clone();
    for (load, predicate) in pushed {
        set_scan(&mut out, load, None, Some(predicate));
    }
    Some(out)
}

/// The whole plan step for a *linear* program (a `dc-serve` request),
/// where each step is staged and executed one at a time and only the
/// final step's output is observable.
///
/// Planning the session DAG cannot help a step-at-a-time executor: by the
/// time the filter step arrives, its load has already been materialized as
/// a full scan (the load was that slice's target, hence protected), and
/// the fused re-plan is a *different* structural sub-DAG — a cache miss
/// that scans again; the projection the last step's plan adds is one more.
/// Planning the step list up front, once and as a whole, fixes both: the
/// load step itself carries the predicate and the live columns and charges
/// exactly those bytes, the filter step is a cheap re-evaluation over the
/// reduced rows, and because no rule adds to a predicate or a column list
/// a load already has, the planned load stays a structural cache hit slice
/// after slice. What this returns is the program that runs, so it is also
/// the program to price.
///
/// The step list is lowered by [`SkillDag::lower`], the rule the session
/// stages it by, and planned with the final step — the program's
/// delivered, optionally name-bound result — as the sole protected
/// target. Returns the planned calls of the steps alone (a stored dataset
/// the rule adds for a `Join` is no step), or `None` when no rewrite
/// applies.
pub fn plan_linear(steps: &[SkillCall], stats: &dyn PlanStats) -> Option<Vec<SkillCall>> {
    let (dag, node_of_step) = SkillDag::lower(steps, &[]).ok()?;
    let planned = optimize_dag(&dag, &[*node_of_step.last()?], &[], stats)?;
    Some(planned.into_calls(&node_of_step))
}

/// `nodes` as a per-node flag.
fn node_mask(dag: &SkillDag, nodes: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; dag.len()];
    for &n in nodes {
        if let Some(slot) = mask.get_mut(n) {
            *slot = true;
        }
    }
    mask
}

/// Nodes whose call and output bytes must survive every rewrite:
/// requested targets, analyzer-vetoed nodes, and anything bound to a
/// dataset name (addressable by `Use the dataset`).
fn protected_set(dag: &SkillDag, targets: &[NodeId], vetoed: &[NodeId]) -> Vec<bool> {
    let mut protected: Vec<bool> = (0..dag.len()).map(|id| dag.is_bound(id)).collect();
    for &n in targets.iter().chain(vetoed) {
        if let Some(p) = protected.get_mut(n) {
            *p = true;
        }
    }
    protected
}

/// Merge `KeepRows(p1) → KeepRows(p2)` chains by conjoining downstream
/// predicates into the upstream node (descending, so whole chains
/// cascade toward the scan). The downstream filter re-applies its own
/// predicate, which is a row-preserving no-op, so results are
/// unchanged; the upstream conjunction is what hoisting can now fuse
/// into the scan.
fn merge_adjacent_keeps(
    dag: &mut SkillDag,
    protected: &[bool],
    vetoed: &[bool],
    changed: &mut bool,
) {
    for id in (0..dag.len()).rev() {
        if vetoed[id] {
            // An analyzer-rejected predicate never earned the right to
            // run anywhere — merging it upstream would execute it at the
            // unvetoed node (and let hoisting sink it into a scan).
            continue;
        }
        let keep = |id: NodeId| match dag.node(id) {
            Ok(SkillNode {
                call: SkillCall::KeepRows { predicate },
                inputs,
                ..
            }) => Some((predicate, inputs.first().copied())),
            _ => None,
        };
        let Some((p2, Some(up))) = keep(id) else {
            continue;
        };
        if protected[up] || dag.consumer_counts()[up] != 1 {
            continue;
        }
        let Some((p1, _)) = keep(up) else {
            continue;
        };
        let merged = p1.clone().and(p2.clone());
        if dag
            .update_call(up, SkillCall::KeepRows { predicate: merged })
            .is_ok()
        {
            *changed = true;
        }
    }
}

// ---------------------------------------------------------------------
// Column names and column demand, from the skill contracts
// ---------------------------------------------------------------------

/// Each node's [`Contract`] over the unit, in node order. A node whose
/// contract has findings is one the analyzer rejects: its schema is
/// dropped, so nothing downstream of it is rewritten by name.
fn contracts_of(dag: &SkillDag, stats: &dyn PlanStats) -> Vec<Contract> {
    let mut contracts: Vec<Contract> = Vec::with_capacity(dag.len());
    for node in dag.nodes() {
        let inputs: Vec<Option<&Schema>> = (node.inputs.iter())
            .map(|&i| contracts[i].schema.as_ref())
            .collect();
        let mut c = contract(&node.call, &inputs, stats, &());
        if !c.findings.is_empty() {
            c.schema = None;
        }
        contracts.push(c);
    }
    contracts
}

/// Each node's output schema, `None` when unknown, which every rewrite
/// below treats as "hands off".
fn schemas_of(contracts: &[Contract]) -> Vec<Option<&Schema>> {
    contracts.iter().map(|c| c.schema.as_ref()).collect()
}

fn expr_cols(e: &Expr) -> Vec<String> {
    let mut v = Vec::new();
    e.referenced_columns(&mut v);
    v.into_iter().map(|c| c.to_ascii_lowercase()).collect()
}

fn lower<'a>(names: impl IntoIterator<Item = &'a String>) -> Vec<String> {
    names.into_iter().map(|n| n.to_ascii_lowercase()).collect()
}

/// A schema's column names, lowercased.
fn lower_names(schema: &Schema) -> Vec<String> {
    lower(schema.fields().iter().map(|f| &f.name))
}

/// Reverse liveness pass: the column demand placed on every node's
/// output. Protected nodes demand everything (their bytes are
/// observable); each node's contract then turns the demand on its output
/// into the demand on each input. A node whose contract has findings
/// demands everything of its inputs: narrowing under a failing node could
/// drop the column that makes it fail, and the optimizer never rescues an
/// error.
fn demands(dag: &SkillDag, protected: &[bool], contracts: &[Contract]) -> Vec<Demand> {
    let mut demand: Vec<Demand> = vec![Demand::none(); dag.len()];
    // A node that someone outside the unit consumes is observable there
    // too: whichever cone it is planned from, it keeps every column.
    let mut inside = vec![0usize; dag.len()];
    for &input in dag.nodes().iter().flat_map(|n| &n.inputs) {
        inside[input] += 1;
    }
    for id in 0..dag.len() {
        if protected[id] || dag.consumer_counts()[id] > inside[id] {
            demand[id] = Demand::All;
        }
    }
    for node in dag.nodes().iter().rev() {
        let inputs: Vec<Option<&Schema>> = (node.inputs.iter())
            .map(|&i| contracts[i].schema.as_ref())
            .collect();
        let contract = &contracts[node.id];
        let per_input = match contract.findings.is_empty() {
            true => contract.demand(&demand[node.id], &inputs),
            false => vec![],
        };
        for (slot, &input) in node.inputs.iter().enumerate() {
            let nd = per_input.get(slot).cloned().unwrap_or(Demand::All);
            demand[input].absorb(nd);
        }
    }
    demand
}

/// Rewrite unprotected loads whose live column set is a strict subset
/// of the table schema to scan those `columns` only. Columns
/// are emitted in schema order (projection never reorders), demands
/// that fail to resolve against the schema veto the rewrite, and an
/// empty live set keeps the first column so row counts survive.
/// `contracts` may predate filter hoisting: a pushed predicate renames
/// nothing, and a load's schema is its table's.
fn project_loads(
    dag: &mut SkillDag,
    targets: &[NodeId],
    protected: &[bool],
    contracts: &[Contract],
    changed: &mut bool,
) {
    let demand = demands(dag, protected, contracts);
    for id in 0..dag.len() {
        if protected[id] {
            continue;
        }
        if dag.consumer_counts()[id] == 0 && !targets.contains(&id) {
            // Dead branch: never executed for these targets, and
            // rewriting it would only obscure DC0101's report.
            continue;
        }
        let Ok(SkillCall::LoadTable { columns: None, .. }) = dag.node(id).map(|n| &n.call) else {
            continue;
        };
        let (Demand::Cols(live), Some(schema)) = (&demand[id], &contracts[id].schema) else {
            continue;
        };
        let fields: Vec<&String> = schema.fields().iter().map(|f| &f.name).collect();
        if !(live.iter()).all(|c| fields.iter().any(|f| f.eq_ignore_ascii_case(c))) {
            continue;
        }
        let mut columns: Vec<String> = (fields.iter())
            .filter(|f| live.contains(&f.to_ascii_lowercase()))
            .map(|f| f.to_string())
            .collect();
        if columns.is_empty() {
            columns.extend(fields.first().map(|f| f.to_string()));
        }
        if columns.len() == fields.len() {
            continue;
        }
        *changed |= set_scan(dag, id, Some(columns), None);
    }
}

/// Give load `id` the column list and/or the scan predicate planned for
/// it, keeping what it already carries; whether there was a load to edit.
fn set_scan(
    dag: &mut SkillDag,
    id: NodeId,
    columns: Option<Vec<String>>,
    predicate: Option<Expr>,
) -> bool {
    let Ok(SkillCall::LoadTable {
        database,
        table,
        columns: had_columns,
        predicate: had_predicate,
    }) = dag.node(id).map(|n| &n.call)
    else {
        return false;
    };
    let call = SkillCall::LoadTable {
        database: database.clone(),
        table: table.clone(),
        columns: columns.or_else(|| had_columns.clone()),
        predicate: predicate.or_else(|| had_predicate.clone()),
    };
    dag.update_call(id, call).is_ok()
}

// ---------------------------------------------------------------------
// Filter hoisting
// ---------------------------------------------------------------------

/// Sink the prunable conjuncts of every filter toward source loads,
/// through operators that provably pass the referenced columns'
/// values and the filter's row semantics through, and return the
/// predicate each reached load should scan with. Each node strictly
/// below the filter must be sole-consumed and unprotected (its output
/// loses rows the filter would have dropped anyway); the filter node
/// itself stays and re-evaluates its full predicate over the reduced
/// rows, so a pushed predicate is purely an optimization and error
/// attribution for a bad one is unchanged. `DropRows` keeps rows where
/// the predicate is FALSE, so its pushable form is the Kleene
/// negation-normal-form of `NOT predicate`.
///
/// A load takes one predicate, from the first filter (in node order)
/// to reach it, and one that already carries a predicate takes none: a
/// scan predicate is never conjoined onto, so planning a planned DAG
/// again changes nothing.
fn hoist_filters(
    dag: &SkillDag,
    protected: &[bool],
    vetoed: &[bool],
    schemas: &[Option<&Schema>],
) -> Vec<(NodeId, Expr)> {
    let cx = SinkCx {
        dag,
        protected,
        counts: dag.consumer_counts(),
        schemas,
    };
    let mut pushed = Vec::new();
    for node in dag.nodes() {
        if vetoed[node.id] {
            // A vetoed filter's predicate never earned the right to run
            // anywhere. Target/name-bound filters may still sink: the
            // rewrite leaves their node (and output) untouched — the
            // prefilter only removes rows they would drop anyway.
            continue;
        }
        let keep = match &node.call {
            SkillCall::KeepRows { predicate } => predicate.clone(),
            SkillCall::DropRows { predicate } => nnf(predicate.clone().not()),
            _ => continue,
        };
        if let Some(&below) = node.inputs.first() {
            cx.sink(below, prunable_conjuncts(&keep), &mut pushed);
        }
    }
    pushed
}

/// What [`SinkCx::sink`] consults on the way down.
struct SinkCx<'a> {
    dag: &'a SkillDag,
    protected: &'a [bool],
    counts: &'a [usize],
    /// Output schema per node; all `None` without statistics, and then
    /// nothing sinks through a join.
    schemas: &'a [Option<&'a Schema>],
}

impl SinkCx<'_> {
    /// Recursive descent of one conjunct set from a filter toward loads.
    fn sink(&self, id: NodeId, conjuncts: Vec<Expr>, pushed: &mut Vec<(NodeId, Expr)>) {
        use SkillCall::*;
        if conjuncts.is_empty() || self.protected[id] || self.counts[id] != 1 {
            return;
        }
        let Ok(node) = self.dag.node(id) else {
            return;
        };
        let not_touching = |conjuncts: Vec<Expr>, touched: &[&String]| -> Vec<Expr> {
            let touches = |c: &Expr| {
                let cols = expr_cols(c);
                (touched.iter()).any(|t| cols.iter().any(|x| x.eq_ignore_ascii_case(t)))
            };
            conjuncts.into_iter().filter(|c| !touches(c)).collect()
        };
        // Conjuncts that read nothing but `keys` (lowercased).
        let only_over = |conjuncts: Vec<Expr>, keys: &[String]| -> Vec<Expr> {
            let over = |c: &Expr| expr_cols(c).iter().all(|x| keys.contains(x));
            conjuncts.into_iter().filter(over).collect()
        };
        let pass = match &node.call {
            LoadTable {
                predicate: None, ..
            } => {
                if !pushed.iter().any(|(load, _)| *load == id) {
                    pushed.extend(conjoin(conjuncts).map(|p| (id, p)));
                }
                return;
            }
            // Row-removing and row-preserving operators that keep every
            // referenced column's values intact pass all conjuncts through.
            KeepRows { .. } | DropRows { .. } | Sort { .. } | DropMissing { .. } => conjuncts,
            // Empty = whole-row distinct: duplicate rows agree on every
            // column, so a prefilter removes whole duplicate classes.
            // Keyed distinct keeps its first-occurrence representative
            // only if the conjunct is constant per key.
            Distinct { columns } if columns.is_empty() => conjuncts,
            Distinct { columns } => only_over(conjuncts, &lower(columns)),
            // Group keys partition rows: a conjunct over key columns is
            // constant per group, so prefiltering removes exactly the
            // groups the filter above would drop, and aggregates of the
            // surviving groups see every one of their rows.
            Compute { for_each, .. } => only_over(conjuncts, &lower(for_each)),
            Concat { .. } => {
                for &next in &node.inputs {
                    self.sink(next, conjuncts.clone(), pushed);
                }
                return;
            }
            Join { right_on, how, .. } => {
                // Only inner joins: an outer join null-pads the other side
                // for unmatched rows, so prefiltering an input with a
                // prunable conjunct (e.g. `c IS NULL`) manufactures padded
                // rows the upper filter then keeps — the classic left-join
                // anti-join idiom would return wrong rows.
                let &[li, ri] = &node.inputs[..] else {
                    return;
                };
                let (Some(l), Some(r)) = (self.schemas[li], self.schemas[ri]) else {
                    return;
                };
                if *how != dc_engine::JoinType::Inner {
                    return;
                }
                let llow = lower_names(l);
                // Right columns only route when they appear unsuffixed in
                // the join output: non-key and not shadowed by a left name.
                let mut rlow = lower_names(r);
                rlow.retain(|f| {
                    !right_on.iter().any(|k| k.eq_ignore_ascii_case(f)) && !llow.contains(f)
                });
                let (left_c, rest): (Vec<Expr>, Vec<Expr>) = conjuncts
                    .into_iter()
                    .partition(|c| expr_cols(c).iter().all(|x| llow.contains(x)));
                self.sink(li, left_c, pushed);
                self.sink(ri, only_over(rest, &rlow), pushed);
                return;
            }
            FillMissing { column, .. } | ReplaceValues { column, .. } | TrimColumn { column } => {
                not_touching(conjuncts, &[column])
            }
            CreateColumn { name, .. }
            | CreateConstantColumn { name, .. }
            | ExtractDatePart {
                name: Some(name), ..
            } => not_touching(conjuncts, &[name]),
            RenameColumn { from, to } => not_touching(conjuncts, &[from, to]),
            // Everything else either selects rows by position or sample
            // (Limit/Top/Sample/ShuffleRows), can fail per-row (CastColumn,
            // BinColumn), renders its input (display skills), is a load
            // that already scans with a predicate, or is not modeled —
            // prefiltering through those changes behavior.
            _ => return,
        };
        if let Some(&next) = node.inputs.first() {
            self.sink(next, pass, pushed);
        }
    }
}

// ---------------------------------------------------------------------
// Join-order selection
// ---------------------------------------------------------------------

/// One join of a star: the join node, its dimension load, and the call
/// pieces that travel together when the order changes.
#[derive(Debug, Clone)]
struct StarJoin {
    join: NodeId,
    dim: NodeId,
    other: String,
    left_on: Vec<String>,
    right_on: Vec<String>,
}

/// A left-deep chain of inner joins rooted at `base`.
#[derive(Debug)]
struct Star {
    base: NodeId,
    joins: Vec<StarJoin>,
}

/// Per-dimension cost-model inputs.
struct DimCost {
    /// Upper bound on output-rows multiplication per probe row:
    /// 1 for provably unique keys, `rows - distinct + 1` when the
    /// dictionary cardinality is known, `rows` as a last resort.
    mult: Option<u64>,
    /// Whether `mult` came from real statistics (no rows-fallback).
    bounded: bool,
    /// Whether the join key is provably unique in the data.
    unique: bool,
    table: String,
}

/// Collect maximal left-deep inner-join chains whose second inputs are
/// load nodes. Chains longer than 4 joins are skipped (the enumeration
/// window of the tentpole).
/// `(inputs, other, left_on, right_on)` of an inner-join node.
type JoinParts = (Vec<NodeId>, String, Vec<String>, Vec<String>);

fn collect_stars(dag: &SkillDag, consumers: &Consumers) -> Vec<Star> {
    use SkillCall::*;
    let inner_join = |id: NodeId| -> Option<JoinParts> {
        let node = dag.node(id).ok()?;
        match &node.call {
            Join {
                other,
                left_on,
                right_on,
                how,
            } if *how == dc_engine::JoinType::Inner => Some((
                node.inputs.clone(),
                other.clone(),
                left_on.clone(),
                right_on.clone(),
            )),
            _ => None,
        }
    };
    let mut stars = Vec::new();
    let mut in_chain = vec![false; dag.len()];
    for id in 0..dag.len() {
        if in_chain[id] {
            continue;
        }
        let Some((inputs, other, left_on, right_on)) = inner_join(id) else {
            continue;
        };
        // Chain starts where input[0] is not itself an inner join.
        if inputs.first().is_some_and(|&b| inner_join(b).is_some()) {
            continue;
        }
        let (Some(&base), Some(&dim)) = (inputs.first(), inputs.get(1)) else {
            continue;
        };
        let mut joins = vec![StarJoin {
            join: id,
            dim,
            other,
            left_on,
            right_on,
        }];
        let mut cur = id;
        loop {
            in_chain[cur] = true;
            let Some(next) = consumers.sole(dag, cur) else {
                break;
            };
            let Some((inputs, other, left_on, right_on)) = inner_join(next) else {
                break;
            };
            if inputs.first() != Some(&cur) {
                break;
            }
            let Some(&dim) = inputs.get(1) else { break };
            joins.push(StarJoin {
                join: next,
                dim,
                other,
                left_on,
                right_on,
            });
            cur = next;
        }
        if joins.len() < 2 || joins.len() > 4 {
            continue;
        }
        let dim_is_load = |j: &StarJoin| {
            dag.node(j.dim)
                .is_ok_and(|n| matches!(n.call, SkillCall::LoadTable { .. }))
        };
        if !joins.iter().all(dim_is_load) {
            continue;
        }
        stars.push(Star { base, joins });
    }
    stars
}

fn dim_cost(dag: &SkillDag, j: &StarJoin, stats: &dyn PlanStats) -> Option<DimCost> {
    let (database, table, _) = load_scan(&dag.node(j.dim).ok()?.call)?;
    let meta = stats.table_meta(database, table);
    let key = match &j.right_on[..] {
        [key] => Some(key.as_str()),
        _ => None,
    };
    let unique = meta.zip(key).is_some_and(|(m, k)| column_unique(m, k));
    let rows = meta.map(|m| m.num_rows() as u64);
    let distinct = meta.zip(key).and_then(|(m, k)| column_distinct(m, k));
    let (mult, bounded) = match (unique, rows, distinct) {
        (true, ..) => (Some(1), true),
        (_, Some(r), Some(v)) => (Some(r.saturating_sub(v).saturating_add(1)), true),
        (_, Some(r), None) => (Some(r), false),
        (_, None, _) => (None, false),
    };
    Some(DimCost {
        mult,
        bounded,
        unique,
        table: table.to_string(),
    })
}

/// Sum of intermediate-result row bounds for one join order (the final
/// join's output is the same size in every order, so it is excluded).
fn order_cost(perm: &[usize], mults: &[u64]) -> u128 {
    let mut rows: u128 = 1;
    let mut cost: u128 = 0;
    for (i, &p) in perm.iter().enumerate() {
        rows = rows.saturating_mul(mults[p] as u128);
        if i + 1 < perm.len() {
            cost = cost.saturating_add(rows);
        }
    }
    cost
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    fn heap(k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, cur, out);
            if k.is_multiple_of(2) {
                cur.swap(i, k - 1);
            } else {
                cur.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut cur, &mut out);
    out
}

/// The join order with the least [`order_cost`] over the dimensions'
/// multipliers, and that cost; the written order (`0..n`) wins ties.
fn best_order(mults: &[u64]) -> (Vec<usize>, u128) {
    let written: Vec<usize> = (0..mults.len()).collect();
    let mut best = (written.clone(), order_cost(&written, mults));
    for perm in permutations(mults.len()) {
        let cost = order_cost(&perm, mults);
        if cost < best.1 {
            best = (perm, cost);
        }
    }
    best
}

/// Columns a dimension contributes to the join output (lowercased,
/// non-key fields), or `None` when the schema is unknown.
fn dim_nonkeys(dag: &SkillDag, j: &StarJoin, stats: &dyn PlanStats) -> Option<Vec<String>> {
    let node = dag.node(j.dim).ok()?;
    let (database, table) = match &node.call {
        SkillCall::LoadTable {
            database,
            table,
            columns: None,
            ..
        } => (database, table),
        _ => return None,
    };
    let schema = stats.table_meta(database, table)?.schema();
    // Every right_on key must exist in the dimension schema.
    for k in &j.right_on {
        schema.field(k)?;
    }
    Some(
        schema
            .fields()
            .iter()
            .map(|f| f.name.to_ascii_lowercase())
            .filter(|f| !j.right_on.iter().any(|k| k.eq_ignore_ascii_case(f)))
            .collect(),
    )
}

/// Whether the star's written order and every permutation produce the
/// same rows in the same order and route every key to the base: all
/// left keys come from the base, no dimension column shadows another
/// or the base, and at most one dimension can fan rows out.
fn star_semantics_ok(
    star: &Star,
    base: Option<&Schema>,
    nonkeys: &[Vec<String>],
    costs: &[DimCost],
) -> bool {
    let Some(base) = base else { return false };
    let base_low = lower_names(base);
    for j in &star.joins {
        if !j
            .left_on
            .iter()
            .all(|k| base_low.contains(&k.to_ascii_lowercase()))
        {
            return false;
        }
    }
    // Dimension payload columns must not collide with the base or each
    // other (no `_right` suffixing anywhere, in any order).
    let mut seen: BTreeSet<String> = base_low.into_iter().collect();
    for nk in nonkeys {
        for c in nk {
            if !seen.insert(c.clone()) {
                return false;
            }
        }
    }
    costs.iter().filter(|c| !c.unique).count() <= 1
}

/// Walk from the chain root through its sole consumers until an
/// operator whose output is independent of input column order
/// (`KeepColumns`, `Compute`, or a terminal `CountRows`). Intermediate
/// row-preserving steps may pass through but must be unprotected and
/// sole-consumed, since their outputs carry the permuted column order.
fn order_insensitive_downstream(
    dag: &SkillDag,
    consumers: &Consumers,
    protected: &[bool],
    root: NodeId,
) -> bool {
    use SkillCall::*;
    let counts = dag.consumer_counts();
    let mut cur = root;
    loop {
        if counts[cur] == 0 {
            // Nothing observes the permuted order (the root itself is
            // already known unprotected and un-targeted).
            return cur != root;
        }
        let Some(next) = consumers.sole(dag, cur) else {
            return false;
        };
        let Ok(node) = dag.node(next) else {
            return false;
        };
        match &node.call {
            KeepColumns { .. } | Compute { .. } => return true,
            CountRows => {
                if counts[next] == 0 {
                    return true;
                }
                cur = next;
            }
            KeepRows { .. } | DropRows { .. } | Sort { .. } | Top { .. } | Limit { .. } => {
                if protected[next] {
                    return false;
                }
                cur = next;
            }
            _ => return false,
        }
    }
}

/// Pick the cheapest join order for every eligible star and swap the
/// dimension loads' calls (and each join's key tuple) in place — node
/// ids and edges never change. Written order wins ties and anything
/// the cost model cannot bound. Returns whether any star was reordered
/// (`schemas`, the DAG's output schemas as given, are stale then).
fn reorder_joins(
    dag: &mut SkillDag,
    protected: &[bool],
    stats: &dyn PlanStats,
    schemas: &[Option<&Schema>],
) -> bool {
    let consumers = consumer_lists(dag);
    let mut reordered = false;
    for star in collect_stars(dag, &consumers) {
        let n = star.joins.len();
        // Safety conditions: every rewritten node unprotected, interior
        // results and dimensions sole-consumed, downstream insensitive
        // to the column-order change at the root.
        if star
            .joins
            .iter()
            .any(|j| protected[j.join] || protected[j.dim])
        {
            continue;
        }
        let counts = dag.consumer_counts();
        if star.joins.iter().any(|j| counts[j.dim] != 1) {
            continue;
        }
        if star.joins[..n - 1].iter().any(|j| counts[j.join] != 1) {
            continue;
        }
        let root = star.joins[n - 1].join;
        if !order_insensitive_downstream(dag, &consumers, protected, root) {
            continue;
        }
        let Some(costs) = star
            .joins
            .iter()
            .map(|j| dim_cost(dag, j, stats))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let Some(nonkeys) = star
            .joins
            .iter()
            .map(|j| dim_nonkeys(dag, j, stats))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        if !star_semantics_ok(&star, schemas[star.base], &nonkeys, &costs) {
            continue;
        }
        let Some(mults) = costs.iter().map(|c| c.mult).collect::<Option<Vec<_>>>() else {
            continue;
        };
        let (best, _) = best_order(&mults);
        if best.iter().copied().eq(0..n) {
            continue;
        }
        let dim_call = |j: &StarJoin| dag.node(j.dim).map(|n| n.call.clone()).ok();
        let Some(dim_calls) = star.joins.iter().map(dim_call).collect::<Option<Vec<_>>>() else {
            continue;
        };
        for (slot, &src) in best.iter().enumerate() {
            let j = &star.joins[slot];
            let s = &star.joins[src];
            let _ = dag.update_call(j.dim, dim_calls[src].clone());
            let _ = dag.update_call(
                j.join,
                SkillCall::Join {
                    other: s.other.clone(),
                    left_on: s.left_on.clone(),
                    right_on: s.right_on.clone(),
                    how: dc_engine::JoinType::Inner,
                },
            );
        }
        reordered = true;
    }
    reordered
}

/// The consumers of each node that are in the planned unit. The unit's
/// consumer counts say how many there are in all.
struct Consumers(Vec<Vec<NodeId>>);

fn consumer_lists(dag: &SkillDag) -> Consumers {
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); dag.len()];
    for node in dag.nodes() {
        for &input in &node.inputs {
            consumers[input].push(node.id);
        }
    }
    Consumers(consumers)
}

impl Consumers {
    /// The one consumer of a node that has exactly one, when it is in the
    /// unit. A node whose only consumer was left outside has none here.
    fn sole(&self, dag: &SkillDag, id: NodeId) -> Option<NodeId> {
        match (dag.consumer_counts()[id], &self.0[id][..]) {
            (1, &[next]) => Some(next),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Join-order advice (DC0207)
// ---------------------------------------------------------------------

/// One provably suboptimal written join order, for the analyzer's
/// DC0207 lint. Costs are the optimizer's interval upper bounds on
/// intermediate rows; both sides are fully statistics-backed (no
/// row-count fallbacks), so the ratio is a proof, not a guess.
#[derive(Debug, Clone)]
pub struct JoinOrderAdvice {
    /// The first join whose position differs from the best order.
    pub join: NodeId,
    /// Upper-bound cost of the order as written.
    pub written_cost: u64,
    /// Upper-bound cost of the best order.
    pub best_cost: u64,
    /// Dimension tables in written order.
    pub written_tables: Vec<String>,
    /// Dimension tables in the best order.
    pub best_tables: Vec<String>,
}

/// Statically rank every 2–4 inner-join chain's written order against
/// the best order. Unlike [`optimize_dag`]'s rewrite, this advises the
/// plan *as written* — protection and sole-consumer guards don't apply
/// because nothing is rewritten — but it only speaks when every
/// multiplier is statistics-backed.
pub fn join_order_advice(dag: &SkillDag, stats: &dyn PlanStats) -> Vec<JoinOrderAdvice> {
    let consumers = consumer_lists(dag);
    let contracts = contracts_of(dag, stats);
    let schemas = schemas_of(&contracts);
    let mut advice = Vec::new();
    for star in collect_stars(dag, &consumers) {
        let n = star.joins.len();
        let Some(costs) = star
            .joins
            .iter()
            .map(|j| dim_cost(dag, j, stats))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        if costs.iter().any(|c| !c.bounded) {
            continue;
        }
        let Some(base) = schemas[star.base] else {
            continue;
        };
        let base_low = lower_names(base);
        if !star.joins.iter().all(|j| {
            j.left_on
                .iter()
                .all(|k| base_low.contains(&k.to_ascii_lowercase()))
        }) {
            continue;
        }
        let mults: Vec<u64> = costs.iter().map(|c| c.mult.unwrap_or(u64::MAX)).collect();
        let written: Vec<usize> = (0..n).collect();
        let written_cost = order_cost(&written, &mults);
        let (best, best_cost) = best_order(&mults);
        if best_cost == 0 || written_cost < best_cost.saturating_mul(4) {
            continue;
        }
        let first_diff = best.iter().zip(&written).position(|(a, b)| a != b);
        advice.push(JoinOrderAdvice {
            join: star.joins[first_diff.unwrap_or(0)].join,
            written_cost: u64::try_from(written_cost).unwrap_or(u64::MAX),
            best_cost: u64::try_from(best_cost).unwrap_or(u64::MAX),
            written_tables: costs.iter().map(|c| c.table.clone()).collect(),
            best_tables: best.iter().map(|&i| costs[i].table.clone()).collect(),
        });
    }
    advice
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{Column, JoinType, Table};
    use dc_storage::{CloudDatabase, Pricing};

    fn env_with(tables: &[(&str, Table, usize)]) -> Env {
        let mut env = Env::new();
        let mut db = CloudDatabase::new("Main", Pricing::default_cloud());
        for (name, table, block_rows) in tables {
            db.create_table_with_blocks(*name, table, *block_rows)
                .unwrap();
        }
        env.catalog.add_database(db).unwrap();
        env
    }

    fn wide_table(rows: usize) -> Table {
        Table::new(vec![
            ("k", Column::from_ints((0..rows as i64).collect())),
            ("a", Column::from_ints(vec![1; rows])),
            ("b", Column::from_ints(vec![2; rows])),
            ("c", Column::from_ints(vec![3; rows])),
        ])
        .unwrap()
    }

    #[test]
    fn projection_narrows_a_load_below_a_compute() {
        let env = env_with(&[("wide", wide_table(64), 16)]);
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let agg = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec {
                        func: dc_engine::AggFunc::Sum,
                        column: Some("a".into()),
                        output: "sum_a".into(),
                    }],
                    for_each: vec!["k".into()],
                },
                vec![load],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[agg], &[], &env).expect("rewrite applies");
        match &out.node(load).unwrap().call {
            SkillCall::LoadTable {
                columns: Some(columns),
                ..
            } => {
                assert_eq!(columns, &["k".to_string(), "a".to_string()]);
            }
            other => panic!("expected projected load, got {other:?}"),
        }
    }

    #[test]
    fn target_loads_are_never_projected() {
        let env = env_with(&[("wide", wide_table(64), 16)]);
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        assert!(optimize_dag(&dag, &[load], &[], &env).is_none());
    }

    #[test]
    fn filters_hoist_below_a_join_to_the_owning_side() {
        let env = env_with(&[("wide", wide_table(64), 16), ("dims", dim_table(8), 8)]);
        let mut dag = SkillDag::new();
        let fact = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let dim = dag
            .add(SkillCall::load_table("Main", "dims"), vec![])
            .unwrap();
        let join = dag
            .add(
                SkillCall::Join {
                    other: "dims".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["id".into()],
                    how: JoinType::Inner,
                },
                vec![fact, dim],
            )
            .unwrap();
        let filter = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("a").gt(Expr::lit(0)),
                },
                vec![join],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[filter], &[], &env).expect("rewrite applies");
        match &out.node(fact).unwrap().call {
            SkillCall::LoadTable {
                predicate: Some(_), ..
            } => {}
            other => panic!("expected hoisted predicate on the fact load, got {other:?}"),
        }
        // The filter itself still evaluates in full.
        assert!(matches!(
            out.node(filter).unwrap().call,
            SkillCall::KeepRows { .. }
        ));
    }

    #[test]
    fn filters_never_hoist_through_outer_joins() {
        // `label IS NULL` is prunable, but prefiltering the right side
        // of a LEFT join would turn matched rows into null-padded rows
        // the upper filter then keeps (the left-join anti-join idiom).
        let env = env_with(&[("wide", wide_table(64), 16), ("dims", dim_table(8), 8)]);
        let mut dag = SkillDag::new();
        let fact = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let dim = dag
            .add(SkillCall::load_table("Main", "dims"), vec![])
            .unwrap();
        let join = dag
            .add(
                SkillCall::Join {
                    other: "dims".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["id".into()],
                    how: JoinType::Left,
                },
                vec![fact, dim],
            )
            .unwrap();
        let filter = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("label").is_null(),
                },
                vec![join],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[filter], &[], &env);
        if let Some(out) = out {
            for id in [fact, dim] {
                match &out.node(id).unwrap().call {
                    SkillCall::LoadTable {
                        predicate: None, ..
                    } => {}
                    other => panic!("predicate leaked through an outer join: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn demanding_a_suffixed_column_keeps_the_shadowing_left_column() {
        // The join output has `a_right` only because the left side also
        // has `a`; dropping left `a` would emit the right column
        // unsuffixed and break the `a_right` reference downstream.
        let shadow = Table::new(vec![
            ("id", Column::from_ints((0..8).collect())),
            ("a", Column::from_ints(vec![9; 8])),
        ])
        .unwrap();
        let env = env_with(&[("wide", wide_table(64), 16), ("shadow", shadow, 8)]);
        let mut dag = SkillDag::new();
        let fact = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let dim = dag
            .add(SkillCall::load_table("Main", "shadow"), vec![])
            .unwrap();
        let join = dag
            .add(
                SkillCall::Join {
                    other: "shadow".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["id".into()],
                    how: JoinType::Inner,
                },
                vec![fact, dim],
            )
            .unwrap();
        let keep = dag
            .add(
                SkillCall::KeepColumns {
                    columns: vec!["a_right".into()],
                },
                vec![join],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[keep], &[], &env).expect("rewrite applies");
        match &out.node(fact).unwrap().call {
            SkillCall::LoadTable {
                columns: Some(columns),
                ..
            } => {
                assert_eq!(columns, &["k".to_string(), "a".to_string()]);
            }
            other => panic!("expected projected fact load, got {other:?}"),
        }
    }

    #[test]
    fn rename_onto_an_existing_column_keeps_the_target_alive() {
        // `rename a -> b` fails with DuplicateColumn because `b` exists;
        // projection must not drop `b` and convert that deterministic
        // failure into a silent success. Nothing under a failing node is
        // narrowed, so the load keeps every column.
        let env = env_with(&[("wide", wide_table(64), 16)]);
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let ren = dag
            .add(
                SkillCall::RenameColumn {
                    from: "a".into(),
                    to: "b".into(),
                },
                vec![load],
            )
            .unwrap();
        let agg = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec {
                        func: dc_engine::AggFunc::Sum,
                        column: Some("b".into()),
                        output: "sum_b".into(),
                    }],
                    for_each: vec!["k".into()],
                },
                vec![ren],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[agg], &[], &env).unwrap_or(dag);
        match &out.node(load).unwrap().call {
            SkillCall::LoadTable { columns: None, .. } => {}
            other => panic!("expected the whole load, got {other:?}"),
        }
        // The common case (fresh target name) still projects tightly.
        let mut dag2 = SkillDag::new();
        let load2 = dag2
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let ren2 = dag2
            .add(
                SkillCall::RenameColumn {
                    from: "a".into(),
                    to: "z".into(),
                },
                vec![load2],
            )
            .unwrap();
        let agg2 = dag2
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec {
                        func: dc_engine::AggFunc::Sum,
                        column: Some("z".into()),
                        output: "sum_z".into(),
                    }],
                    for_each: vec!["k".into()],
                },
                vec![ren2],
            )
            .unwrap();
        let out2 = optimize_dag(&dag2, &[agg2], &[], &env).expect("rewrite applies");
        match &out2.node(load2).unwrap().call {
            SkillCall::LoadTable {
                columns: Some(columns),
                ..
            } => {
                assert_eq!(columns, &["k".to_string(), "a".to_string()]);
            }
            other => panic!("expected projected load, got {other:?}"),
        }
    }

    #[test]
    fn vetoed_filters_never_merge_upstream() {
        let env = env_with(&[("wide", wide_table(16), 8)]);
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let f1 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("a").gt(Expr::lit(0)),
                },
                vec![load],
            )
            .unwrap();
        let f2 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("b").gt(Expr::lit(1)),
                },
                vec![f1],
            )
            .unwrap();
        // f2 is analyzer-vetoed: its predicate must not execute at f1
        // (nor reach the scan via f1's hoist).
        if let Some(out) = optimize_dag(&dag, &[f2], &[f2], &env) {
            let SkillCall::KeepRows { predicate } = &out.node(f1).unwrap().call else {
                panic!("expected KeepRows at f1");
            };
            let mut cols = Vec::new();
            predicate.referenced_columns(&mut cols);
            assert_eq!(cols, vec!["a".to_string()]);
            if let SkillCall::LoadTable {
                predicate: Some(predicate),
                ..
            } = &out.node(load).unwrap().call
            {
                let mut cols = Vec::new();
                predicate.referenced_columns(&mut cols);
                assert!(
                    !cols.contains(&"b".to_string()),
                    "vetoed predicate reached the scan"
                );
            }
        }
    }

    fn dim_table(rows: usize) -> Table {
        Table::new(vec![
            ("id", Column::from_ints((0..rows as i64).collect())),
            ("label", Column::from_ints(vec![7; rows])),
        ])
        .unwrap()
    }

    fn fanout_table(rows: usize, distinct: usize) -> Table {
        Table::new(vec![
            (
                "k",
                Column::from_strs(
                    (0..rows)
                        .map(|i| format!("g{}", i % distinct))
                        .collect::<Vec<_>>(),
                )
                .dict_encode(),
            ),
            (
                "tag",
                Column::from_strs((0..rows).map(|i| ["x", "y"][i % 2]).collect::<Vec<_>>())
                    .dict_encode(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn join_order_moves_the_fanout_dimension_last() {
        let rows = 32usize;
        let fact = Table::new(vec![
            ("fk", Column::from_ints((0..rows as i64).collect())),
            (
                "gk",
                Column::from_strs((0..rows).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>())
                    .dict_encode(),
            ),
            ("v", Column::from_ints(vec![1; rows])),
        ])
        .unwrap();
        let env = env_with(&[
            ("fact", fact, 8),
            ("fan", fanout_table(16, 4), 8),
            ("uni", dim_table(32), 8),
        ]);
        let mut dag = SkillDag::new();
        let base = dag
            .add(SkillCall::load_table("Main", "fact"), vec![])
            .unwrap();
        let d1 = dag
            .add(SkillCall::load_table("Main", "fan"), vec![])
            .unwrap();
        let j1 = dag
            .add(
                SkillCall::Join {
                    other: "fan".into(),
                    left_on: vec!["gk".into()],
                    right_on: vec!["k".into()],
                    how: JoinType::Inner,
                },
                vec![base, d1],
            )
            .unwrap();
        let d2 = dag
            .add(SkillCall::load_table("Main", "uni"), vec![])
            .unwrap();
        let j2 = dag
            .add(
                SkillCall::Join {
                    other: "uni".into(),
                    left_on: vec!["fk".into()],
                    right_on: vec!["id".into()],
                    how: JoinType::Inner,
                },
                vec![j1, d2],
            )
            .unwrap();
        let count = dag.add(SkillCall::CountRows, vec![j2]).unwrap();
        let out = optimize_dag(&dag, &[count], &[], &env).expect("rewrite applies");
        // The unique dimension now joins first; the fanout moved last.
        match &out.node(j1).unwrap().call {
            SkillCall::Join { other, .. } => assert_eq!(other, "uni"),
            other => panic!("expected join, got {other:?}"),
        }
        match &out.node(d1).unwrap().call {
            SkillCall::LoadTable { table, .. } => assert_eq!(table, "uni"),
            other => panic!("expected load of uni, got {other:?}"),
        }
        // Advice on the written DAG flags the same star.
        let advice = join_order_advice(&dag, &env);
        assert_eq!(advice.len(), 1);
        assert!(advice[0].written_cost >= advice[0].best_cost * 4);
        assert_eq!(advice[0].best_tables, vec!["uni", "fan"]);
    }

    #[test]
    fn duplicate_loads_dedup_to_one_node() {
        let env = env_with(&[("wide", wide_table(16), 8)]);
        let mut dag = SkillDag::new();
        let l1 = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let l2 = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let cat = dag
            .add(
                SkillCall::Concat {
                    other: "self".into(),
                    remove_duplicates: false,
                },
                vec![l1, l2],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[cat], &[], &env).expect("rewrite applies");
        assert_eq!(out.node(cat).unwrap().inputs, vec![l1, l1]);
        let _ = l2;
    }

    #[test]
    fn adjacent_keeps_merge_into_a_conjunction() {
        let env = env_with(&[("wide", wide_table(16), 8)]);
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("Main", "wide"), vec![])
            .unwrap();
        let f1 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("a").gt(Expr::lit(0)),
                },
                vec![load],
            )
            .unwrap();
        let f2 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("b").gt(Expr::lit(1)),
                },
                vec![f1],
            )
            .unwrap();
        let out = optimize_dag(&dag, &[f2], &[], &env).expect("rewrite applies");
        let SkillCall::KeepRows { predicate } = &out.node(f1).unwrap().call else {
            panic!("expected KeepRows");
        };
        let mut cols = Vec::new();
        predicate.referenced_columns(&mut cols);
        assert!(cols.contains(&"a".to_string()) && cols.contains(&"b".to_string()));
    }

    #[test]
    fn int_blocks_unique_requires_dense_disjoint_spans() {
        let dense = |lo: i64, hi: i64| ColumnStats {
            dtype: dc_engine::DataType::Int,
            min: Some(Value::Int(lo)),
            max: Some(Value::Int(hi)),
            null_count: 0,
            row_count: (hi - lo + 1) as u64,
        };
        assert!(int_blocks_unique([dense(0, 9), dense(10, 19)].iter()));
        assert!(!int_blocks_unique([dense(0, 9), dense(5, 14)].iter()));
        assert!(!int_blocks_unique(std::iter::empty()));
    }

    #[test]
    fn column_unique_reads_the_same_proof_off_either_backend() {
        let rows = 40;
        let names = |null_at: Option<usize>| {
            let name = |i: usize| (Some(i) != null_at).then(|| format!("n{i}"));
            Column::from_opt_strs((0..rows).map(name).collect())
        };
        let t = Table::new(vec![
            ("dense", Column::from_ints((0..rows as i64).collect())),
            (
                "overlap",
                Column::from_ints((0..rows as i64).map(|i| i % 20).collect()),
            ),
            ("name", names(None)),
            ("name_null", names(Some(7))),
        ])
        .unwrap();
        let dir = std::env::temp_dir().join(format!("dc-skills-unique-{}", std::process::id()));
        let mut db = CloudDatabase::new("Main", Pricing::default_cloud());
        db.create_table_with_blocks("mem", &t, 10).unwrap();
        db.create_table_on_disk("disk", &t, 10, &dir).unwrap();
        let mut env = Env::new();
        env.catalog.add_database(db).unwrap();
        for table in ["mem", "disk"] {
            let meta = env.table_meta("Main", table).unwrap();
            // Dense, disjoint 10-row int spans.
            assert!(column_unique(meta, "dense"), "{table}");
            // Spans 0..=9 and 10..=19, each twice.
            assert!(!column_unique(meta, "overlap"), "{table}");
            // A dictionary as large as the table, no nulls.
            assert_eq!(column_distinct(meta, "name"), Some(rows as u64));
            assert!(column_unique(meta, "name"), "{table}");
            assert!(!column_unique(meta, "name_null"), "{table}");
        }
        // Dropping the catalog removes the block file it owns.
        drop(env);
        std::fs::remove_dir(&dir).unwrap();
    }

    // ----- the unit of planning is the targets' cone -----

    /// [`Env`]'s answers, counting the lookups.
    struct CountingStats<'e> {
        env: &'e Env,
        meta_calls: std::cell::Cell<usize>,
    }

    impl PlanStats for CountingStats<'_> {
        fn table_meta(&self, database: &str, table: &str) -> Option<&TableMeta> {
            self.meta_calls.set(self.meta_calls.get() + 1);
            self.env.table_meta(database, table)
        }
    }

    /// One load → filter → compute job over `wide`, its filter on `k > floor`.
    fn add_job(dag: &mut SkillDag, floor: i64) -> [NodeId; 3] {
        add_job_over(dag, "wide", floor)
    }

    fn add_job_over(dag: &mut SkillDag, table: &str, floor: i64) -> [NodeId; 3] {
        let load = dag
            .add(SkillCall::load_table("Main", table), vec![])
            .unwrap();
        let keep = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("k").gt(Expr::lit(floor)),
                },
                vec![load],
            )
            .unwrap();
        let agg = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec {
                        func: dc_engine::AggFunc::Sum,
                        column: Some("a".into()),
                        output: "sum_a".into(),
                    }],
                    for_each: vec!["b".into()],
                },
                vec![keep],
            )
            .unwrap();
        [load, keep, agg]
    }

    #[test]
    fn planning_a_cone_costs_the_cone_and_gives_the_plan_of_the_cone_alone() {
        let env = env_with(&[("wide", wide_table(64), 16), ("other", wide_table(64), 16)]);
        let mut session = SkillDag::new();
        for job in 0..1_000 {
            add_job_over(&mut session, "other", job);
        }
        let cone = add_job(&mut session, 7);

        let stats = CountingStats {
            env: &env,
            meta_calls: std::cell::Cell::new(0),
        };
        let planned = optimize_dag(&session, &[cone[2]], &[], &stats).expect("rewrite applies");
        assert_eq!(stats.meta_calls.get(), 1, "one load in the cone");

        let mut alone = SkillDag::new();
        let ids = add_job(&mut alone, 7);
        let alone = optimize_dag(&alone, &[ids[2]], &[], &env).expect("rewrite applies");
        for (in_session, by_itself) in cone.iter().zip(ids) {
            assert_eq!(
                planned.node(*in_session).unwrap().call,
                alone.node(by_itself).unwrap().call
            );
        }
        // The load scans with the predicate and the live columns only.
        assert_eq!(
            planned.node(cone[0]).unwrap().call,
            SkillCall::LoadTable {
                database: "Main".into(),
                table: "wide".into(),
                columns: Some(vec!["k".into(), "a".into(), "b".into()]),
                predicate: Some(Expr::col("k").gt(Expr::lit(7))),
            }
        );
        // Nothing no target reaches is rewritten.
        for id in 0..cone[0] {
            assert_eq!(planned.node(id).unwrap(), session.node(id).unwrap());
        }
    }

    #[test]
    fn a_repeated_load_is_the_sessions_first_copy_of_it() {
        let env = env_with(&[("wide", wide_table(64), 16)]);
        let mut session = SkillDag::new();
        let [first, ..] = add_job(&mut session, 1);
        for job in 2..200 {
            add_job(&mut session, job);
        }
        let [copy, keep, agg] = add_job(&mut session, 7);

        let stats = CountingStats {
            env: &env,
            meta_calls: std::cell::Cell::new(0),
        };
        // The job's filter reads the first load, which two hundred filters
        // read: nothing is pushed into it and it keeps its columns.
        let planned = optimize_dag(&session, &[agg], &[], &stats).expect("the edge moves");
        assert_eq!(stats.meta_calls.get(), 1, "one load in the cone");
        assert_eq!(planned.node(keep).unwrap().inputs, vec![first]);
        assert_eq!(planned.node(first).unwrap(), session.node(first).unwrap());
        assert_eq!(planned.consumer_counts()[copy], 0);
        // Planned again, the plan has nothing left to do.
        assert!(optimize_dag(&planned, &[agg], &[], &env).is_none());

        // A copy that is the target, or that a name is bound to, is
        // observable as itself: its consumers stay with it, and the first
        // load is read by one filter less.
        assert!(optimize_dag(&session, &[copy], &[], &env).is_none());
        session.bind_name("mine", copy).unwrap();
        assert!(optimize_dag(&session, &[agg], &[], &env).is_none());
        let cone = session.cone(&[first], &[], true).unwrap();
        assert_eq!(cone.dag.consumer_counts(), &[199]);
    }

    #[test]
    fn a_consumer_outside_the_cone_still_counts() {
        let env = env_with(&[("wide", wide_table(64), 16)]);
        let mut dag = SkillDag::new();
        let [load, _, agg] = add_job(&mut dag, 7);
        // Somebody else reads the load, from outside the target's cone:
        // the filter must not reach the scan, nor may a column go.
        let _head = dag.add(SkillCall::ShowHead { n: 3 }, vec![load]).unwrap();
        assert!(optimize_dag(&dag, &[agg], &[], &env).is_none());
        // Read further up, it shields nothing below the filter.
        let mut dag = SkillDag::new();
        let [load, keep, agg] = add_job(&mut dag, 7);
        let _head = dag.add(SkillCall::ShowHead { n: 3 }, vec![keep]).unwrap();
        let planned = optimize_dag(&dag, &[agg], &[], &env).expect("rewrite applies");
        assert!(pushed_predicate(&planned, load).is_some());
    }

    #[test]
    fn linear_plan_gives_the_load_step_its_predicate_and_its_columns() {
        let env = env_with(&[("wide", wide_table(64), 16)]);
        let mut dag = SkillDag::new();
        add_job(&mut dag, 7);
        let steps: Vec<SkillCall> = dag.nodes().iter().map(|n| n.call.clone()).collect();
        let planned = plan_linear(&steps, &env).expect("the load step is eligible");
        assert_eq!(
            planned[0],
            SkillCall::LoadTable {
                database: "Main".into(),
                table: "wide".into(),
                columns: Some(vec!["k".into(), "a".into(), "b".into()]),
                predicate: Some(Expr::col("k").gt(Expr::lit(7))),
            }
        );
        assert_eq!(planned[1..], steps[1..]);
        // Planned steps are a fixed point: staged one at a time, no later
        // plan finds anything to add to the load.
        assert!(plan_linear(&planned, &env).is_none());
        // A program that continues an earlier request has no load to plan.
        assert!(plan_linear(&steps[1..], &env).is_none());
    }

    // ----- the filter-hoisting rule alone: `plan_pushdown` -----

    fn bare_load(dag: &mut SkillDag) -> NodeId {
        dag.add(SkillCall::load_table("db", "t"), vec![]).unwrap()
    }

    fn pushed_predicate(dag: &SkillDag, id: NodeId) -> Option<&Expr> {
        match &dag.node(id).unwrap().call {
            SkillCall::LoadTable { predicate, .. } => predicate.as_ref(),
            _ => None,
        }
    }

    #[test]
    fn keep_rows_predicate_is_pushed_verbatim() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let pred = Expr::col("x").gt(Expr::lit(5));
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: pred.clone(),
                },
                vec![l],
            )
            .unwrap();
        let planned = plan_pushdown(&dag, &[f], &[]).unwrap();
        assert_eq!(pushed_predicate(&planned, l), Some(&pred));
        // The filter node itself is untouched.
        assert_eq!(planned.node(f).unwrap().call, dag.node(f).unwrap().call);
    }

    #[test]
    fn drop_rows_pushes_the_negation() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let f = dag
            .add(
                SkillCall::DropRows {
                    predicate: Expr::col("x").le(Expr::lit(5)),
                },
                vec![l],
            )
            .unwrap();
        let planned = plan_pushdown(&dag, &[f], &[]).unwrap();
        assert_eq!(
            pushed_predicate(&planned, l),
            Some(&Expr::col("x").gt(Expr::lit(5)))
        );
    }

    #[test]
    fn only_prunable_conjuncts_are_pushed() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let pred = Expr::col("x")
            .gt(Expr::lit(5))
            .and(Expr::col("x").add(Expr::col("y")).lt(Expr::lit(10)));
        let f = dag
            .add(SkillCall::KeepRows { predicate: pred }, vec![l])
            .unwrap();
        let planned = plan_pushdown(&dag, &[f], &[]).unwrap();
        assert_eq!(
            pushed_predicate(&planned, l),
            Some(&Expr::col("x").gt(Expr::lit(5)))
        );
    }

    #[test]
    fn no_rewrite_without_prunable_form() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").add(Expr::lit(1)).gt(Expr::lit(5)),
                },
                vec![l],
            )
            .unwrap();
        assert!(plan_pushdown(&dag, &[f], &[]).is_none());
    }

    #[test]
    fn shared_load_is_not_rewritten() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(5)),
                },
                vec![l],
            )
            .unwrap();
        // A second consumer needs the unfiltered rows.
        let _head = dag.add(SkillCall::ShowHead { n: 3 }, vec![l]).unwrap();
        assert!(plan_pushdown(&dag, &[f], &[]).is_none());
    }

    #[test]
    fn target_and_named_loads_are_protected() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(5)),
                },
                vec![l],
            )
            .unwrap();
        // Materializing the load itself must return unfiltered rows.
        assert!(plan_pushdown(&dag, &[l, f], &[]).is_none());
        // A name binding makes the load addressable later.
        dag.bind_name("raw", l).unwrap();
        assert!(plan_pushdown(&dag, &[f], &[]).is_none());
    }

    /// The filter-hoisting rule alone over a step list, lowered the way
    /// [`plan_linear`] lowers it.
    fn pushdown_steps(steps: &[SkillCall]) -> Option<Vec<SkillCall>> {
        let (dag, node_of_step) = SkillDag::lower(steps, &[]).ok()?;
        let planned = plan_pushdown(&dag, &[*node_of_step.last()?], &[])?;
        Some(planned.into_calls(&node_of_step))
    }

    #[test]
    fn linear_pushdown_fuses_interior_loads() {
        let steps = vec![
            SkillCall::load_table("db", "t"),
            SkillCall::KeepRows {
                predicate: Expr::col("x").gt(Expr::lit(5)),
            },
            SkillCall::CountRows,
        ];
        let fused = pushdown_steps(&steps).unwrap();
        assert_eq!(
            fused[0],
            SkillCall::LoadTable {
                database: "db".into(),
                table: "t".into(),
                columns: None,
                predicate: Some(Expr::col("x").gt(Expr::lit(5))),
            }
        );
        // The filter step stays in place; only the load changed.
        assert_eq!(fused[1], steps[1]);
        assert_eq!(fused[2], steps[2]);

        // DropRows pushes the negation-normal-form of NOT pred.
        let steps = vec![
            SkillCall::load_table("db", "t"),
            SkillCall::DropRows {
                predicate: Expr::col("x").le(Expr::lit(5)),
            },
        ];
        let fused = pushdown_steps(&steps).unwrap();
        assert_eq!(
            fused[0],
            SkillCall::LoadTable {
                database: "db".into(),
                table: "t".into(),
                columns: None,
                predicate: Some(Expr::col("x").gt(Expr::lit(5))),
            }
        );
    }

    #[test]
    fn linear_pushdown_leaves_ineligible_programs_alone() {
        // A trailing load is the delivered result — untouched.
        let steps = vec![SkillCall::load_table("db", "t")];
        assert!(pushdown_steps(&steps).is_none());
        // A non-filter consumer blocks fusion.
        let steps = vec![SkillCall::load_table("db", "t"), SkillCall::CountRows];
        assert!(pushdown_steps(&steps).is_none());
        // An unprunable predicate has nothing to push.
        let steps = vec![
            SkillCall::load_table("db", "t"),
            SkillCall::KeepRows {
                predicate: Expr::col("x").add(Expr::lit(1)).gt(Expr::lit(5)),
            },
        ];
        assert!(pushdown_steps(&steps).is_none());
    }

    #[test]
    fn rejected_filter_blocks_the_rewrite() {
        let mut dag = SkillDag::new();
        let l = bare_load(&mut dag);
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(5)),
                },
                vec![l],
            )
            .unwrap();
        let t = dag.add(SkillCall::ShowHead { n: 3 }, vec![f]).unwrap();
        // Normally pushable...
        assert!(plan_pushdown(&dag, &[t], &[]).is_some());
        // ...but not when the filter node is protected (e.g. rejected).
        assert!(plan_pushdown(&dag, &[t], &[f]).is_none());
    }
}
