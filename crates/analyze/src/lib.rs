//! # dc-analyze — whole-pipeline static analysis (§2.2, §3, §4.5)
//!
//! DataChat plans an entire skill DAG before executing any of it, which
//! makes the platform unusually amenable to static analysis: every
//! dataset, column, model, and scan is named in the plan. This crate
//! analyzes a planned [`SkillDag`] *before* `Executor::run`, in four
//! passes over one shared [`Diagnostic`] framework:
//!
//! 1. **Schema & type propagation** ([`schema_pass`](fn@schema_pass)) — asks each node's
//!    skill contract (`dc_skills::contract`) for its output schema over
//!    its inputs' and the catalog's, rejecting unknown columns (`DC0002`),
//!    dtype mismatches (`DC0003`), and invalid composition (`DC0004`)
//!    with node-level provenance.
//! 2. **Dataflow lints** ([`dataflow`]) — dead nodes (`DC0101`),
//!    duplicate sub-DAGs (`DC0102`) via the executor's own structural
//!    interning, use-before-define (`DC0103`).
//! 3. **Cost lints** ([`cost`]) — priced from each table's stored
//!    `dc_storage::TableMeta`, flagging full scans that could be block
//!    samples (`DC0201`), snapshot reads (`DC0202`), and string columns
//!    whose dictionaries deduplicate nothing (`DC0203`).
//! 4. **Cost & cardinality estimation** ([`estimate`]) — propagates
//!    row-count intervals and scan-byte bounds through the planned DAG:
//!    each node's rows are its skill contract's row rule
//!    (`dc_skills::contract::rows`, the one the driver asserts every debug
//!    run against), each load's bytes its scan's own plan, and totals are
//!    deduped by structural sub-DAG identity. Emits
//!    `DC0301` (guaranteed budget exhaustion), `DC0302` (join output
//!    guaranteed to explode), and `DC0303` (result too large for the
//!    shared materialized cache). `dc-serve` admission reserves the
//!    estimator's byte bound instead of full table bytes.
//!
//! The same [`Diagnostic`] type is emitted by the GEL recipe validator
//! (`dc-gel`) and the NL2Code program checker (`dc-nl`), so every layer
//! of the platform reports findings in one shape with stable codes.
//!
//! The analyzer is *sound for accepted pipelines*: it checks each call
//! with the contract the driver asserts every flow table against in debug
//! builds (same case sensitivity, same dtype rules, same naming — one
//! declaration, not a copy), so an accepted DAG only fails at run time
//! for data-dependent reasons no schema can see. When semantics are
//! data-dependent (`Pivot` headers, `RunSql`), the schema becomes
//! unknown and downstream checking disables rather than guessing.

pub mod context;
pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod estimate;
pub mod schema_pass;

use std::collections::HashMap;

use dc_skills::{optimize_dag, plan_pushdown, NodeId, SkillDag};

pub use context::{AnalysisContext, ModelInfo};
pub use cost::cost_pass;
pub use dataflow::dataflow_pass;
pub use diag::{Code, Diagnostic, Fix, Severity, Span};
pub use estimate::{estimate_pass, estimate_steps, DagEstimates, NodeEstimate, StepEstimates};
pub use schema_pass::{schema_pass, FlowSchemas};

/// What the platform does with analyzer findings before executing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnalysisPolicy {
    /// Report diagnostics but execute anyway (errors surface at run
    /// time, as before the analyzer existed).
    #[default]
    Warn,
    /// Refuse to execute a pipeline with `Error`-severity diagnostics.
    Deny,
}

/// The result of analyzing one pipeline.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// All findings, in pass order (schema, dataflow, cost, estimate).
    pub diagnostics: Vec<Diagnostic>,
    /// Inferred output schema per node (`None` = statically unknown).
    pub schemas: HashMap<NodeId, Option<dc_engine::Schema>>,
    /// Row-count and scan-byte bounds per reachable node, with
    /// structurally deduped pipeline totals.
    pub estimates: DagEstimates,
}

impl Analysis {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any finding blocks execution.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.is_error())
    }

    /// The highest severity present, or `None` for a clean report.
    pub fn status(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Findings with a given code, for tests and tooling.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Render the report as stable, line-oriented text (one diagnostic
    /// per line, then a summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let fixed = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Fixed)
            .count();
        out.push_str(&format!(
            "analysis: {errors} error(s), {warnings} warning(s), {fixed} auto-fixed\n"
        ));
        out
    }
}

/// Analyze a planned DAG against `targets` — the nodes whose results the
/// pipeline delivers (for a linear recipe, the last node). All passes run;
/// the report is never short-circuited, so one call yields every finding
/// the analyzer can make.
///
/// The plan step runs once, as the driver runs it (`optimize_dag` over the
/// targets' cone), and both DC0206 and the estimation pass read that plan.
/// Whole-DAG analyses (no targets) have no plan to mirror — every node is
/// observable — so they take the filter-hoisting rule alone, which needs
/// no statistics.
pub fn analyze_dag(dag: &SkillDag, targets: &[NodeId], ctx: &AnalysisContext) -> Analysis {
    let mut diagnostics = Vec::new();
    let schemas = schema_pass::schema_pass(dag, ctx, &mut diagnostics);
    dataflow::dataflow_pass(dag, targets, &mut diagnostics);
    cost::cost_pass(dag, ctx, &mut diagnostics);
    let planned = match targets {
        [] => plan_pushdown(dag, targets, &[]),
        _ => optimize_dag(dag, targets, &[], ctx),
    };
    let plan = planned.as_ref().unwrap_or(dag);
    cost::optimizer_lints(dag, plan, ctx, &mut diagnostics);
    let estimates = estimate::estimate_pass(plan, targets, ctx, &schemas, &mut diagnostics);
    Analysis {
        diagnostics,
        schemas,
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{AggFunc, AggSpec, Column, DataType, Expr, Table};
    use dc_skills::SkillCall;
    use dc_storage::{BlockSource, BlockTable, TableMeta};

    /// `sales` stored in `blocks` blocks, its `region` a dictionary of
    /// `regions` values.
    fn sales(rows: usize, blocks: usize, regions: usize) -> TableMeta {
        let n = rows as i64;
        let region = (0..rows).map(|i| format!("r{}", i % regions));
        let t = Table::new(vec![
            ("order_id", Column::from_ints((0..n).collect())),
            ("region", Column::from_strs(region.collect())),
            (
                "price",
                Column::from_floats((0..n).map(|i| i as f64).collect()),
            ),
            (
                "quantity",
                Column::from_ints((0..n).map(|i| i % 7).collect()),
            ),
            ("order_date", Column::from_dates((0..rows as i32).collect())),
        ])
        .unwrap();
        BlockTable::new(&t, rows / blocks).unwrap().meta().clone()
    }

    fn ctx() -> AnalysisContext {
        let mut ctx = AnalysisContext::new();
        ctx.add_table("Main", "sales", sales(100, 4, 4));
        ctx
    }

    fn load(dag: &mut SkillDag) -> NodeId {
        dag.add(SkillCall::load_table("Main", "sales"), vec![])
            .unwrap()
    }

    #[test]
    fn clean_pipeline_reports_nothing() {
        let mut dag = SkillDag::new();
        let l = load(&mut dag);
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("price").gt(Expr::lit(1.0)),
                },
                vec![l],
            )
            .unwrap();
        let g = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![AggSpec {
                        func: AggFunc::Sum,
                        column: Some("price".into()),
                        output: "total".into(),
                    }],
                    for_each: vec!["region".into()],
                },
                vec![f],
            )
            .unwrap();
        let ctx = ctx();
        let report = analyze_dag(&dag, &[g], &ctx);
        assert!(report.diagnostics.is_empty(), "{}", report.render());
        let schema = report.schemas[&g].as_ref().unwrap();
        assert_eq!(schema.names(), vec!["region", "total"]);
        assert_eq!(schema.field("total").unwrap().dtype, DataType::Float);
        // The load is priced as the planned scan: two of five columns.
        let scan = report.estimates.get(l).unwrap();
        let full = ctx.table("Main", "sales").unwrap().total_bytes();
        assert_eq!(scan.bytes_lo, scan.bytes_hi);
        assert!(
            0 < scan.bytes_hi && scan.bytes_hi < full,
            "{scan:?} vs {full}"
        );
    }

    #[test]
    fn unknown_column_and_dead_node_and_costs() {
        let mut dag = SkillDag::new();
        let l = load(&mut dag);
        let bad = dag
            .add(
                SkillCall::DescribeColumn {
                    column: "bogus".into(),
                },
                vec![l],
            )
            .unwrap();
        let dead = dag.add(SkillCall::CountRows, vec![l]).unwrap();
        let report = analyze_dag(&dag, &[bad], &ctx());
        assert!(report.has_errors());
        let unknown = report.with_code(Code::UnknownColumn);
        assert_eq!(unknown.len(), 1);
        assert_eq!(unknown[0].span.node, Some(bad));
        let dn = report.with_code(Code::DeadNode);
        assert_eq!(dn.len(), 1);
        assert_eq!(dn[0].span.node, Some(dead));
    }

    #[test]
    fn unprunable_filter_warns_with_a_prunable_rewrite() {
        let mut dag = SkillDag::new();
        let l = load(&mut dag);
        // `NOT (price <= 1)` defeats verbatim pushdown, but its
        // negation-normal-form `price > 1` would prune.
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("price").le(Expr::lit(1.0)).not(),
                },
                vec![l],
            )
            .unwrap();
        let c = dag.add(SkillCall::CountRows, vec![f]).unwrap();
        let report = analyze_dag(&dag, &[c], &ctx());
        let hits = report.with_code(Code::UnprunablePredicate);
        assert_eq!(hits.len(), 1, "{}", report.render());
        assert_eq!(hits[0].severity, Severity::Warning);
        assert_eq!(hits[0].span.node, Some(f));
        let fix = hits[0].fix.as_ref().expect("rewrite exists");
        let replacement = fix.replacement.as_ref().unwrap();
        assert!(replacement.contains("price"), "{replacement}");
        assert!(replacement.contains('>'), "{replacement}");

        // A genuinely unprunable predicate still warns, but without a
        // suggested rewrite — there is no equivalent prunable form.
        let mut dag2 = SkillDag::new();
        let l2 = load(&mut dag2);
        let f2 = dag2
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("price")
                        .add(Expr::col("quantity"))
                        .gt(Expr::lit(1.0)),
                },
                vec![l2],
            )
            .unwrap();
        let c2 = dag2.add(SkillCall::CountRows, vec![f2]).unwrap();
        let report = analyze_dag(&dag2, &[c2], &ctx());
        let hits = report.with_code(Code::UnprunablePredicate);
        assert_eq!(hits.len(), 1, "{}", report.render());
        assert!(hits[0].fix.is_none());

        // A prunable filter above a scan is exactly what pushdown wants.
        let mut dag3 = SkillDag::new();
        let l3 = load(&mut dag3);
        let f3 = dag3
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("price").gt(Expr::lit(1.0)),
                },
                vec![l3],
            )
            .unwrap();
        let c3 = dag3.add(SkillCall::CountRows, vec![f3]).unwrap();
        let report = analyze_dag(&dag3, &[c3], &ctx());
        assert!(report.with_code(Code::UnprunablePredicate).is_empty());
    }

    #[test]
    fn snapshot_prefix_reload_flagged_on_rescanning_duplicate() {
        let mut dag = SkillDag::new();
        let l = load(&mut dag);
        let pred = Expr::col("price").gt(Expr::lit(1.0));
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: pred.clone(),
                },
                vec![l],
            )
            .unwrap();
        let snap = dag
            .add(
                SkillCall::Snapshot {
                    name: "pricey".into(),
                },
                vec![f],
            )
            .unwrap();
        // The same prefix rebuilt from a fresh scan after the snapshot.
        let l2 = load(&mut dag);
        let f2 = dag
            .add(SkillCall::KeepRows { predicate: pred }, vec![l2])
            .unwrap();
        let c = dag.add(SkillCall::CountRows, vec![f2]).unwrap();
        let report = analyze_dag(&dag, &[snap, c], &ctx());
        let hits = report.with_code(Code::SnapshotPrefixReload);
        assert_eq!(hits.len(), 1, "{}", report.render());
        assert_eq!(hits[0].severity, Severity::Warning);
        assert_eq!(hits[0].span.node, Some(f2));
        let fix = hits[0].fix.as_ref().expect("snapshot rewrite");
        assert_eq!(fix.replacement.as_deref(), Some("Use the snapshot pricey"));
        // The duplicates themselves stay DC0102's findings.
        assert_eq!(report.with_code(Code::DuplicateSubDag).len(), 2);
    }

    #[test]
    fn policy_default_is_warn() {
        assert_eq!(AnalysisPolicy::default(), AnalysisPolicy::Warn);
    }

    #[test]
    fn high_cardinality_dict_flagged() {
        // order_id-like region: ~one distinct string per row.
        let mut ctx = AnalysisContext::new();
        ctx.add_table("Main", "sales", sales(1000, 4, 950));
        let mut dag = SkillDag::new();
        let l = load(&mut dag);
        let c = dag.add(SkillCall::CountRows, vec![l]).unwrap();
        let report = analyze_dag(&dag, &[c], &ctx);
        let hits = report.with_code(Code::HighCardinalityDict);
        assert_eq!(hits.len(), 1, "{}", report.render());
        assert_eq!(hits[0].severity, Severity::Warning);
        assert_eq!(hits[0].span.node, Some(l));
        assert!(hits[0].message.contains("region"), "{}", hits[0].message);
        // Under the 100-row floor nothing fires even at full cardinality.
        let mut small = AnalysisContext::new();
        small.add_table("Main", "sales", sales(50, 1, 50));
        let report = analyze_dag(&dag, &[c], &small);
        assert!(report.with_code(Code::HighCardinalityDict).is_empty());
    }
}
