//! The staged replay of a GEL recipe: the same steps `Executor::run` takes,
//! one public function at a time, with a span around each.
//!
//! parse -> to_dag -> validate_recipe -> optimize_dag -> plan_pushdown ->
//! execute_call per node. Loads are the `storage.scan` layer, every other
//! skill an `engine.*` layer chosen from `SkillCall::name()`. The replay is
//! sequential, so counter deltas read around a call belong to that call.

use std::collections::HashMap;
use std::sync::Arc;

use dc_analyze::AnalysisContext;
use dc_engine::Table;
use dc_gel::Recipe;
use dc_skills::{execute_call, optimize_dag, plan_pushdown, structural_ids, Env, SkillOutput};
use dc_storage::CostMeter;

use crate::metrics::{process_read_bytes, read_probe_cost};
use crate::trace::{SpanId, Tracer};

/// The layer a skill's time is booked under.
pub fn layer_of(skill: &str) -> &'static str {
    match skill {
        s if s.starts_with("Load") => "storage.scan",
        "KeepRows" | "DropRows" => "engine.filter",
        "CreateColumn" | "KeepColumns" | "DropColumns" | "RenameColumn" => "engine.project",
        "Compute" => "engine.group_by",
        "Join" => "engine.join",
        "Sort" => "engine.sort",
        _ => "engine.other",
    }
}

/// The table a `Load the [columns .. of the] table T from the database D ..`
/// sentence reads, taken from the canonical GEL text so the harness never
/// has to look inside a `SkillCall`.
pub fn loaded_table(gel: &str) -> Option<&str> {
    let rest = &gel[gel.find("table ")? + "table ".len()..];
    rest.split_whitespace().next()
}

/// Counts that have no place on a span.
#[derive(Debug, Default, Clone)]
pub struct ReplayCounts {
    pub sentences: u64,
    pub recipes: u64,
    /// Upper bound on scan bytes from the analyzer, summed over recipes.
    pub bytes_estimated_hi: u64,
    pub blocks_scanned: u64,
    /// Blocks of every table a load touched, pruned or not.
    pub blocks_total: u64,
    /// Stored bytes of every table a load touched, all columns.
    pub table_bytes: u64,
    /// `rchar` delta around loads: bytes really read from block files.
    pub bytes_read: u64,
    pub spill_partitions: u64,
    /// Time of join / group-by / sort calls under the memory budget and of
    /// the same calls re-run without one, by layer, in nanoseconds.
    pub governed_ns: HashMap<&'static str, u64>,
    pub unbounded_ns: HashMap<&'static str, u64>,
}

fn blocks_and_bytes(env: &Env, database: &str, table: &str) -> (u64, u64) {
    let Ok(db) = env.catalog.database(database) else {
        return (0, 0);
    };
    if let Ok(t) = db.table(table) {
        (t.num_blocks() as u64, t.total_bytes())
    } else if let Ok(t) = db.disk_table(table) {
        (t.num_blocks() as u64, t.total_bytes())
    } else {
        (0, 0)
    }
}

/// Replay one recipe under `parent`, returning the final step's output.
#[allow(clippy::too_many_arguments)]
pub fn replay_recipe(
    text: &str,
    database: &str,
    env: &mut Env,
    meter: &CostMeter,
    tracer: &mut Tracer,
    op: u64,
    parent: SpanId,
    counts: &mut ReplayCounts,
) -> Result<SkillOutput, String> {
    let p = Some(parent);
    let recipe = tracer
        .scope(op, p, "gel.parse", "Recipe::parse", || Recipe::parse(text))
        .map_err(|e| e.to_string())?;
    counts.sentences += recipe.len() as u64;
    counts.recipes += 1;
    let (dag, node_of_step) = tracer
        .scope(op, p, "gel.to_dag", "Recipe::to_dag", || recipe.to_dag())
        .map_err(|e| e.to_string())?;
    let target = *node_of_step.last().ok_or("empty recipe")?;

    let analysis = tracer.scope(op, p, "analyze.preflight", "validate_recipe", || {
        dc_gel::validate_recipe(&recipe, &AnalysisContext::from_env(env))
    });
    // Findings ride along, as under the platform's default `Warn` policy.
    counts.bytes_estimated_hi += analysis.estimates.scan_bytes_hi;

    let optimized = tracer.scope(op, p, "skills.optimize", "optimize_dag", || {
        optimize_dag(&dag, &[target], &[], env)
    });
    let dag = optimized.as_ref().unwrap_or(&dag);
    let planned = tracer.scope(op, p, "skills.pushdown", "plan_pushdown", || {
        plan_pushdown(dag, &[target], &[])
    });
    let dag = planned.as_ref().unwrap_or(dag);

    // One result per structural sub-DAG, as the executor's own cache keeps.
    let ids = structural_ids(dag);
    let mut done: HashMap<u64, (SkillOutput, Arc<Table>)> = HashMap::new();
    for nid in dag.ancestors(target).map_err(|e| e.to_string())? {
        if done.contains_key(&ids[&nid]) {
            continue;
        }
        let node = dag.node(nid).map_err(|e| e.to_string())?;
        let inputs: Vec<Arc<Table>> = node
            .inputs
            .iter()
            .map(|i| Arc::clone(&done[&ids[i]].1))
            .collect();
        let refs: Vec<&Table> = inputs.iter().map(|t| t.as_ref()).collect();
        let rows_in: u64 = refs.iter().map(|t| t.num_rows() as u64).sum();
        let skill = node.call.name();
        let layer = layer_of(skill);

        let tally = env.scan_tally;
        let blocks = meter.blocks();
        let read = if layer == "storage.scan" {
            process_read_bytes()
        } else {
            0
        };
        let spill = env.memory.as_ref().map(|m| m.metrics.snapshot());
        let span = tracer.begin(op, p, layer, skill);
        let output = execute_call(&node.call, &refs, env);
        tracer.end(span);
        let output = output.map_err(|e| format!("{skill}: {e}"))?;
        let rows_out = output.as_table().map_or(0, |t| t.num_rows() as u64);
        let mut bytes = 0;
        if layer == "storage.scan" {
            let scanned = env.scan_tally.delta_since(tally);
            bytes = scanned.bytes_scanned;
            counts.blocks_scanned += meter.blocks() - blocks;
            counts.bytes_read += (process_read_bytes() - read).saturating_sub(read_probe_cost());
            if let Some(table) = loaded_table(&dc_gel::format_skill(&node.call)) {
                let (b, total) = blocks_and_bytes(env, database, table);
                counts.blocks_total += b;
                counts.table_bytes += total;
            }
        } else if let (Some(before), Some(mem)) = (spill, env.memory.as_ref()) {
            let delta = mem.metrics.snapshot().delta_since(before);
            bytes = delta.bytes_spilled;
            counts.spill_partitions += delta.spill_partitions;
        }
        tracer.annotate(span, rows_in, rows_out, bytes);

        // The same call without the budget: the base of the spill slowdown
        // ratios. Booked to the harness, since no real refresh runs it.
        if matches!(layer, "engine.join" | "engine.group_by" | "engine.sort") {
            if let Some(mem) = env.memory.take() {
                let rerun = tracer.begin(op, p, "harness", format!("{skill} without budget"));
                let unbounded = execute_call(&node.call, &refs, env);
                tracer.end(rerun);
                *counts.unbounded_ns.entry(layer).or_insert(0) +=
                    tracer.spans()[rerun].duration_ns();
                *counts.governed_ns.entry(layer).or_insert(0) += tracer.spans()[span].duration_ns();
                env.memory = Some(mem);
                if unbounded.ok().as_ref() != Some(&output) {
                    return Err(format!("{skill}: governed and unbounded outputs differ"));
                }
            }
        }

        let flow = match output.as_table() {
            Some(t) if node.call.transforms_data() => Arc::new(t.clone()),
            _ => inputs
                .into_iter()
                .next()
                .unwrap_or_else(|| Arc::new(Table::empty())),
        };
        done.insert(ids[&nid], (output, flow));
    }
    done.remove(&ids[&target])
        .map(|(output, _)| output)
        .ok_or_else(|| "target was not executed".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_follow_skill_names() {
        assert_eq!(layer_of("LoadTable"), "storage.scan");
        assert_eq!(layer_of("LoadTableProjected"), "storage.scan");
        assert_eq!(layer_of("KeepRows"), "engine.filter");
        assert_eq!(layer_of("Compute"), "engine.group_by");
        assert_eq!(layer_of("Join"), "engine.join");
        assert_eq!(layer_of("Sort"), "engine.sort");
        assert_eq!(layer_of("ShowHead"), "engine.other");
    }

    #[test]
    fn table_name_comes_from_the_gel_text() {
        assert_eq!(
            loaded_table("Load the table facts from the database bench"),
            Some("facts")
        );
        assert_eq!(
            loaded_table("Load the columns day, qty of the table facts from the database bench where (day >= 3)"),
            Some("facts")
        );
        assert_eq!(loaded_table("Sort by price"), None);
    }
}
