//! Pass 3: cost lints, priced with each table's `dc_storage::TableMeta`.
//!
//! §3's consumption meter charges recipes by bytes scanned. Two shapes
//! waste scan budget without changing results, and both are visible
//! statically:
//!
//! * **DC0201** — a full `LoadTable` scan that only feeds a `Sample`
//!   node. Block sampling reads `ceil(fraction × blocks)` blocks instead
//!   of all of them; the full scan pays for rows the sampler discards.
//! * **DC0202** — a `LoadTable` of a table that already has a same-named
//!   snapshot. Snapshot reads are priced at a fixed per-read cost, so
//!   re-scanning the live table re-pays the full byte price every run.
//! * **DC0203** — a scanned table has a string column whose dictionary is
//!   nearly as large as the table itself. Dictionary encoding only pays
//!   off when values repeat; at ≈ one distinct value per row the table
//!   stores every string *plus* a 4-byte code per row, and dict-aware
//!   kernels degenerate to per-row string work.
//! * **DC0204** — a `KeepRows` directly above a `LoadTable` whose
//!   predicate has no prunable conjunct. The planner pushes prunable
//!   conjuncts into the scan, where zone maps skip whole blocks; a
//!   predicate with none (e.g. `NOT (price <= 10)` or `x + 1 > 5`)
//!   forces a full scan even when an equivalent column-vs-literal form
//!   would prune.
//! * **DC0205** — a step re-derives, through live table scans, the exact
//!   sub-DAG an earlier `Snapshot` step materializes. The snapshot holds
//!   that result at a fixed per-read price (and the shared materialized
//!   cache holds it at zero), so the recomputation re-pays the scan
//!   bytes for a result that already exists.

use std::collections::HashMap;

use dc_engine::expr::prune::{nnf, prunable_conjuncts};
use dc_skills::{structural_ids, NodeId, SkillCall, SkillDag};
use dc_storage::{ScanOptions, TableMeta};

use crate::context::AnalysisContext;
use crate::diag::{Code, Diagnostic, Fix, Span};
use crate::schema_pass::ancestor_sets;

/// DC0206 fires only when the dead columns' payload reaches this many
/// bytes — narrowing a scan that saves less than a block of I/O is
/// noise, not advice.
pub const DEAD_COLUMN_BYTES: u64 = 32 * 1024;

/// Run the cost lints.
pub fn cost_pass(dag: &SkillDag, ctx: &AnalysisContext, diags: &mut Vec<Diagnostic>) {
    // The catalog loads and their tables' metadata, for DC0201.
    let mut loads: Vec<(NodeId, &TableMeta)> = Vec::new();
    for node in dag.nodes() {
        // A load with a scan predicate carries the same full-scan worst
        // case (an unselective predicate prunes nothing), so it gets the
        // same lints as a plain one.
        if let SkillCall::LoadTable {
            database, table, ..
        } = &node.call
        {
            let Some(meta) = ctx.table(database, table) else {
                continue; // unknown table: the schema pass already errored
            };
            loads.push((node.id, meta));
            if let Some(snap) = ctx.snapshot_like(table) {
                diags.push(
                    Diagnostic::new(
                        Code::FullScanCouldSnapshot,
                        format!(
                            "full scan of {database:?}.{table:?} (~{} bytes) re-reads a \
                             table that snapshot {snap:?} already captures",
                            meta.total_bytes()
                        ),
                    )
                    .with_span(Span::node(node.id, node.call.name()))
                    .with_fix(Fix::replace(
                        format!("read the fixed-cost snapshot {snap:?} instead"),
                        format!("Use the snapshot {snap}"),
                    )),
                );
            }
            // DC0203: a dictionary that covers ≥90% of the rows never
            // deduplicates; the 100-row floor keeps tiny fixtures quiet.
            let rows = meta.num_rows();
            for (column, dict_len) in meta.dict_sizes() {
                if rows >= 100 && dict_len * 10 >= rows * 9 {
                    diags.push(
                        Diagnostic::new(
                            Code::HighCardinalityDict,
                            format!(
                                "column {column:?} of {database:?}.{table:?} has {dict_len} \
                                 distinct values over {rows} rows; its dictionary deduplicates \
                                 almost nothing, so encoding adds 4 bytes/row of codes on \
                                 top of the full string payload"
                            ),
                        )
                        .with_span(Span::node(node.id, node.call.name()))
                        .with_fix(Fix::new(format!(
                            "treat {column:?} as an identifier: avoid grouping or joining \
                             on it, or project it away before wide scans"
                        ))),
                    );
                }
            }
        }
    }

    // DC0204: a filter directly above a scan that pushdown cannot use.
    // The planner takes KeepRows predicates verbatim, so only conjuncts
    // already in column-vs-literal form reach the zone maps (and only a
    // load that scans with no predicate yet takes one).
    for node in dag.nodes() {
        let SkillCall::KeepRows { predicate } = &node.call else {
            continue;
        };
        let [input] = node.inputs[..] else { continue };
        let feeds_scan = dag.node(input).is_ok_and(|n| {
            matches!(
                n.call,
                SkillCall::LoadTable {
                    predicate: None,
                    ..
                }
            )
        });
        if !feeds_scan || !prunable_conjuncts(predicate).is_empty() {
            continue;
        }
        let mut diag = Diagnostic::new(
            Code::UnprunablePredicate,
            format!(
                "the filter above the scan at step {input} has no prunable conjunct, \
                 so predicate pushdown cannot skip any blocks and the scan stays full"
            ),
        )
        .with_span(Span::node(node.id, node.call.name()));
        // Suggest the normalized form only when it actually unlocks
        // pruning (e.g. `NOT (price <= 10)` → `price > 10`).
        let normalized = nnf(predicate.clone());
        if !prunable_conjuncts(&normalized).is_empty() {
            diag = diag.with_fix(Fix::replace(
                "rewrite the predicate in prunable column-vs-literal form".to_string(),
                format!("Keep the rows where {}", normalized.to_sql()),
            ));
        }
        diags.push(diag);
    }

    // DC0201: a Sample node downstream of a multi-block full scan.
    let ancestors = ancestor_sets(dag);
    let upstream_of = |node: NodeId, candidate: NodeId| {
        ancestors
            .get(node)
            .is_some_and(|set| set.get(candidate).copied().unwrap_or(false))
    };
    for node in dag.nodes() {
        let SkillCall::Sample { fraction, .. } = &node.call else {
            continue;
        };
        for &(load, meta) in &loads {
            let blocks = meta.num_blocks();
            if upstream_of(node.id, load) && blocks >= 2 {
                let sampled = ((blocks as f64) * fraction).ceil() as usize;
                diags.push(
                    Diagnostic::new(
                        Code::FullScanCouldSample,
                        format!(
                            "sampling {fraction} of a full scan (step {load}, {blocks} blocks, \
                             ~{} bytes); a block-sampled scan would read ~{} block(s)",
                            meta.total_bytes(),
                            sampled.max(1)
                        ),
                    )
                    .with_span(Span::node(node.id, node.call.name())),
                );
            }
        }
    }

    // DC0205: a step downstream of fresh scans recomputes the exact
    // sub-DAG a Snapshot step already materializes. Keyed on the same
    // structural ids the executor's cache uses; only re-derivations that
    // actually touch storage are flagged (a pure duplicate is DC0102's
    // business and costs nothing under the §3 meter).
    let sids = structural_ids(dag);
    let mut materialized: HashMap<u64, (NodeId, &str)> = HashMap::new();
    for node in dag.nodes() {
        let SkillCall::Snapshot { name } = &node.call else {
            continue;
        };
        let [input] = node.inputs[..] else { continue };
        if let Some(&sid) = sids.get(&input) {
            materialized.entry(sid).or_insert((node.id, name.as_str()));
        }
    }
    if !materialized.is_empty() {
        let load_ids: Vec<NodeId> = dag
            .nodes()
            .iter()
            .filter(|n| matches!(n.call, SkillCall::LoadTable { .. }))
            .map(|n| n.id)
            .collect();
        for node in dag.nodes() {
            let Some(&sid) = sids.get(&node.id) else {
                continue;
            };
            let Some(&(snap, name)) = materialized.get(&sid) else {
                continue;
            };
            if node.id <= snap {
                continue; // the materialized prefix itself
            }
            let rescans = load_ids
                .iter()
                .any(|&l| l == node.id || upstream_of(node.id, l));
            if !rescans {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    Code::SnapshotPrefixReload,
                    format!(
                        "step re-loads and recomputes the exact sub-DAG that snapshot \
                         {name:?} (step {snap}) already materializes at fixed read cost"
                    ),
                )
                .with_span(Span::node(node.id, node.call.name()))
                .with_fix(Fix::replace(
                    format!("read the materialized snapshot {name:?} instead of re-scanning"),
                    format!("Use the snapshot {name}"),
                )),
            );
        }
    }
}

/// Optimizer-backed lints: rewrites the cost optimizer would apply that
/// are worth surfacing to the author even though the executor applies
/// them transparently.
///
/// * **DC0206** — a scan loads columns no reachable step ever reads.
///   Detected by diffing `planned` — the analysis's one run of the plan
///   step over `dag` — against the written loads it narrowed to a column
///   list. Fires only when the dead columns add at least
///   [`DEAD_COLUMN_BYTES`] to a full scan — the storage layer's own plan
///   of the table's full scan against its narrowed one. The executor
///   already skips the waste, but the recipe as written over-states its
///   own byte footprint.
/// * **DC0207** — an inner-join chain whose written order is provably
///   ≥4× worse (by the sound intermediate-row bound) than the best
///   order. Advised on the *written* DAG via
///   [`dc_skills::join_order_advice`], so it fires even when
///   name-bindings block the automatic rewrite.
pub fn optimizer_lints(
    dag: &SkillDag,
    planned: &SkillDag,
    ctx: &AnalysisContext,
    diags: &mut Vec<Diagnostic>,
) {
    // DC0206: diff the planned loads against the written ones.
    for node in planned.nodes() {
        let SkillCall::LoadTable {
            database,
            table,
            columns: Some(columns),
            predicate,
        } = &node.call
        else {
            continue;
        };
        // Only loads the optimizer itself narrowed; a projected load the
        // author wrote is already as narrow as they asked for.
        let written = dag.node(node.id).map(|n| &n.call);
        if !matches!(written, Ok(SkillCall::LoadTable { columns: None, .. })) {
            continue;
        }
        let Some(meta) = ctx.table(database, table) else {
            continue;
        };
        let narrow = ScanOptions {
            columns: Some(columns.clone()),
            ..ScanOptions::default()
        };
        let full = ScanOptions::default();
        let (Ok(all), Ok(live)) = (meta.plan(&full), meta.plan(&narrow)) else {
            continue;
        };
        let dead_bytes = all.bytes_scanned - live.bytes_scanned;
        if dead_bytes < DEAD_COLUMN_BYTES {
            continue;
        }
        let dead_names: Vec<&str> = meta
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(ci, _)| !live.read_cols.contains(ci))
            .map(|(_, f)| f.name.as_str())
            .collect();
        let filter = predicate
            .as_ref()
            .map_or(String::new(), |p| format!(" where {}", p.to_sql()));
        let replacement = format!(
            "Load the columns {} of the table {table} from the database {database}{filter}",
            columns.join(", ")
        );
        diags.push(
            Diagnostic::new(
                Code::DeadColumnLoaded,
                format!(
                    "the scan of {database:?}.{table:?} loads {} column(s) ({}) that no \
                     reachable step reads, ~{dead_bytes} wasted bytes per run",
                    dead_names.len(),
                    dead_names.join(", "),
                ),
            )
            .with_span(Span::node(node.id, node.call.name()))
            .with_fix(Fix::replace(
                format!(
                    "load only the columns the recipe uses ({})",
                    columns.join(", ")
                ),
                replacement,
            )),
        );
    }

    // DC0207: join_order_advice only returns chains whose written cost is
    // provably ≥4× the best order's bound, so every entry is a finding.
    for advice in dc_skills::join_order_advice(dag, ctx) {
        let ratio = advice.written_cost / advice.best_cost.max(1);
        let name = dag.node(advice.join).map_or("Join", |n| n.call.name());
        diags.push(
            Diagnostic::new(
                Code::SuboptimalJoinOrder,
                format!(
                    "this inner-join chain joins [{}] in written order with an \
                     intermediate-row bound of {}; joining [{}] instead bounds it at {} \
                     ({ratio}x smaller)",
                    advice.written_tables.join(", "),
                    advice.written_cost,
                    advice.best_tables.join(", "),
                    advice.best_cost,
                ),
            )
            .with_span(Span::node(advice.join, name))
            .with_fix(Fix::new(
                "join the most selective (unique-key) dimensions first and the \
                 fan-out dimension last",
            )),
        );
    }
}
