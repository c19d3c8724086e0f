//! The program checker (§4.5).
//!
//! "Converts the LLM-generated analytics program into an abstract
//! representation, keeping track of data and functional dependencies ...
//! performs syntax and type checks and validates the composition of
//! functions ... streamlines the analytics program by removing redundant
//! lines of code such as print statements."

use std::collections::BTreeMap;

use dc_skills::contract::{self, derived};
use dc_skills::SkillCall;

use crate::error::{NlError, Result};
use crate::pyapi::{parse_pyapi, PyProgram, PyStatement};
use crate::semantic::SchemaHints;

// The checker reports through the platform-wide diagnostics framework:
// stable `DC0xxx` codes, shared severities, and statement-level spans,
// uniform with the DAG analyzer and the GEL validator.
pub use dc_analyze::{Code, Diagnostic, Severity, Span};

/// One checker finding — an alias for the shared diagnostic type.
pub type CheckIssue = Diagnostic;

/// A validated (and streamlined) program.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProgram {
    pub program: PyProgram,
    pub issues: Vec<CheckIssue>,
}

impl CheckedProgram {
    /// Whether the program survived with no hard errors.
    pub fn is_valid(&self) -> bool {
        !self.issues.iter().any(|i| i.severity == Severity::Error)
    }

    /// Hard errors only.
    pub fn errors(&self) -> Vec<&CheckIssue> {
        self.issues
            .iter()
            .filter(|i| i.severity == Severity::Error)
            .collect()
    }

    /// Findings that still need attention — everything except the
    /// auto-repaired [`Severity::Fixed`] ones, which the pipeline
    /// already healed.
    pub fn unresolved(&self) -> Vec<&CheckIssue> {
        self.issues
            .iter()
            .filter(|i| i.severity != Severity::Fixed)
            .collect()
    }

    /// Number of findings the checker repaired automatically.
    pub fn fixed_count(&self) -> usize {
        self.issues
            .iter()
            .filter(|i| i.severity == Severity::Fixed)
            .count()
    }
}

/// Columns a call adds to its input's, tracked forward as a statement's
/// schema evolves. What it reads is the skill contract's declaration; what
/// it makes the checker tracks itself, by name, since it has no types.
fn creates(call: &SkillCall) -> Vec<String> {
    match call {
        SkillCall::DetectOutliers { column, .. } => vec![format!("IsOutlier_{column}")],
        SkillCall::Cluster { .. } => vec!["Cluster".to_string()],
        _ => derived(call)
            .map(|(name, _)| name.into_owned())
            .into_iter()
            .collect(),
    }
}

/// Validate and streamline a generated program against schema hints.
///
/// Checks, in order:
/// 1. syntax (parse failure is a hard [`NlError`]);
/// 2. dead-code removal: print statements and assignments never used;
/// 3. dataset references resolve to schema tables or earlier assignments;
/// 4. column references resolve against the evolving per-statement schema
///    (projection narrows it; compute replaces it; created columns
///    extend it);
/// 5. composition rules (e.g. a KeepColumns after Compute must name
///    produced columns — covered by the schema evolution in 4).
pub fn check(source: &str, schema: &SchemaHints) -> Result<CheckedProgram> {
    let parsed = parse_pyapi(source)?;
    let mut issues: Vec<CheckIssue> = Vec::new();

    // 2a. Strip prints. Spans are 1-based statement ordinals in the
    // *generated* program, which is what the user sees in the trace.
    let mut statements: Vec<PyStatement> = Vec::new();
    for (i, st) in parsed.statements.into_iter().enumerate() {
        if st.is_print {
            issues.push(
                Diagnostic::new(Code::RemovedPrint, "removed print statement")
                    .with_span(Span::step(i + 1, "print")),
            );
        } else {
            statements.push(st);
        }
    }
    // 2b. Strip assignments whose target is never used later.
    let used_roots: Vec<String> = statements.iter().map(|s| s.root.clone()).collect();
    let mut kept: Vec<PyStatement> = Vec::new();
    for (i, st) in statements.iter().enumerate() {
        if let Some(target) = &st.target {
            let used_later = used_roots[i + 1..]
                .iter()
                .any(|r| r.eq_ignore_ascii_case(target));
            let is_last = i == statements.len() - 1;
            if !used_later && !is_last {
                issues.push(
                    Diagnostic::new(
                        Code::RemovedUnusedCode,
                        format!("removed unused assignment to {target}"),
                    )
                    .with_span(Span::step(i + 1, target.clone())),
                );
                continue;
            }
        }
        kept.push(st.clone());
    }

    // 3 + 4. Reference and composition checks with schema evolution.
    let mut var_schemas: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (si, st) in kept.iter().enumerate() {
        let root_lower = st.root.to_lowercase();
        let mut cols: Vec<String> = if let Some(cols) = var_schemas.get(&root_lower) {
            cols.clone()
        } else if let Some((_, cols)) = st.schema_lookup(schema) {
            cols
        } else {
            issues.push(
                Diagnostic::new(
                    Code::UnknownDataset,
                    format!("unknown dataset {:?}", st.root),
                )
                .with_span(Span::step(si + 1, st.root.clone())),
            );
            continue;
        };
        for call in &st.calls {
            let reads = contract::reads(call).into_iter().next().unwrap_or_default();
            for r in &reads {
                if !cols.iter().any(|c| c.eq_ignore_ascii_case(r)) {
                    issues.push(
                        Diagnostic::new(
                            Code::UnknownColumn,
                            format!(
                                "column {r:?} is not available at step {} (have: {})",
                                call.name(),
                                cols.join(", ")
                            ),
                        )
                        .with_span(Span::step(si + 1, call.name())),
                    );
                }
            }
            // Evolve the schema.
            match call {
                SkillCall::KeepColumns { columns } => cols = columns.clone(),
                SkillCall::DropColumns { columns } => {
                    cols.retain(|c| !columns.iter().any(|d| d.eq_ignore_ascii_case(c)));
                }
                SkillCall::RenameColumn { from, to } => {
                    for c in cols.iter_mut() {
                        if c.eq_ignore_ascii_case(from) {
                            *c = to.clone();
                        }
                    }
                }
                SkillCall::Compute { aggs, for_each } => {
                    cols = for_each.clone();
                    cols.extend(aggs.iter().map(|a| a.output.clone()));
                }
                SkillCall::PredictTimeSeries {
                    measures,
                    time_column,
                    ..
                } => {
                    cols = vec![time_column.clone()];
                    cols.extend(measures.clone());
                    cols.push("RecordType".to_string());
                }
                SkillCall::Join {
                    other, right_on, ..
                } => {
                    if let Some(other_cols) = lookup_table(schema, other)
                        .or_else(|| var_schemas.get(&other.to_lowercase()).cloned())
                    {
                        for c in other_cols {
                            let is_key = right_on.iter().any(|k| k.eq_ignore_ascii_case(&c));
                            if !is_key && !cols.iter().any(|e| e.eq_ignore_ascii_case(&c)) {
                                cols.push(c);
                            }
                        }
                    } else {
                        issues.push(
                            Diagnostic::new(
                                Code::UnknownDataset,
                                format!("unknown join dataset {other:?}"),
                            )
                            .with_span(Span::step(si + 1, call.name())),
                        );
                    }
                }
                _ => {
                    for c in creates(call) {
                        if !cols.iter().any(|e| e.eq_ignore_ascii_case(&c)) {
                            cols.push(c);
                        }
                    }
                }
            }
        }
        // Only assignments bind names; a bare chain leaves the root's
        // schema untouched (method chains do not mutate their receiver).
        if let Some(target) = &st.target {
            var_schemas.insert(target.to_lowercase(), cols);
        }
    }

    if kept.is_empty() {
        return Err(NlError::check("program has no effective statements"));
    }
    Ok(CheckedProgram {
        program: PyProgram { statements: kept },
        issues,
    })
}

fn lookup_table(schema: &SchemaHints, name: &str) -> Option<Vec<String>> {
    schema
        .tables
        .iter()
        .find(|(t, _)| t.eq_ignore_ascii_case(name))
        .map(|(_, cols)| cols.clone())
}

impl PyStatement {
    fn schema_lookup(&self, schema: &SchemaHints) -> Option<(String, Vec<String>)> {
        schema
            .tables
            .iter()
            .find(|(t, _)| t.eq_ignore_ascii_case(&self.root))
            .map(|(t, cols)| (t.clone(), cols.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaHints {
        let mut s = SchemaHints::single(
            "sales",
            vec![
                "order_id".into(),
                "region".into(),
                "price".into(),
                "quantity".into(),
            ],
        );
        s.tables.insert(
            "customers".into(),
            vec!["customer_id".into(), "city".into(), "order_id".into()],
        );
        s
    }

    #[test]
    fn valid_program_passes() {
        let c = check(
            "sales.filter(\"price > 10\").compute(aggregates = [Count(\"order_id\")], for_each = [\"region\"])",
            &schema(),
        )
        .unwrap();
        assert!(c.is_valid());
        assert!(c.issues.is_empty());
    }

    #[test]
    fn print_statements_stripped() {
        let c = check("sales.head(5)\nprint(result)\n", &schema()).unwrap();
        assert_eq!(c.program.statements.len(), 1);
        assert!(c
            .issues
            .iter()
            .any(|i| i.severity == Severity::Fixed && i.message.contains("print")));
        assert!(c.is_valid());
    }

    #[test]
    fn unused_assignment_stripped() {
        let src = "tmp = sales.head(5)\nsales.compute(aggregates = [Count()])";
        let c = check(src, &schema()).unwrap();
        assert_eq!(c.program.statements.len(), 1);
        assert!(c.issues.iter().any(|i| i.message.contains("tmp")));
    }

    #[test]
    fn used_assignment_kept() {
        let src = "west = sales.filter(\"region = 'west'\")\nwest.compute(aggregates = [Count()])";
        let c = check(src, &schema()).unwrap();
        assert_eq!(c.program.statements.len(), 2);
        assert!(c.is_valid());
    }

    #[test]
    fn unknown_dataset_is_error() {
        let c = check("nope.head(5)", &schema()).unwrap();
        assert!(!c.is_valid());
        assert!(c.errors()[0].message.contains("nope"));
    }

    #[test]
    fn unknown_column_is_error() {
        let c = check("sales.filter(\"bogus > 1\")", &schema()).unwrap();
        assert!(!c.is_valid());
        assert!(c.errors()[0].message.contains("bogus"));
    }

    #[test]
    fn schema_evolves_through_compute() {
        // Sorting by the aggregate output is legal; sorting by a source
        // column consumed by compute is not.
        let good = check(
            "sales.compute(aggregates = [Count(\"order_id\")], for_each = [\"region\"]).sort(by = [\"Countorder_id\"])",
            &schema(),
        )
        .unwrap();
        assert!(good.is_valid(), "{:?}", good.issues);
        let bad = check(
            "sales.compute(aggregates = [Count(\"order_id\")], for_each = [\"region\"]).sort(by = [\"price\"])",
            &schema(),
        )
        .unwrap();
        assert!(!bad.is_valid());
    }

    #[test]
    fn projection_narrows_schema() {
        let bad = check(
            "sales.select([\"region\"]).filter(\"price > 1\")",
            &schema(),
        )
        .unwrap();
        assert!(!bad.is_valid());
        let good = check(
            "sales.select([\"region\", \"price\"]).filter(\"price > 1\")",
            &schema(),
        )
        .unwrap();
        assert!(good.is_valid());
    }

    #[test]
    fn join_extends_schema() {
        let c = check(
            "sales.join(\"customers\", on = [\"order_id\"]).select([\"region\", \"city\"])",
            &schema(),
        )
        .unwrap();
        assert!(c.is_valid(), "{:?}", c.issues);
        let bad = check("sales.join(\"phantom\", on = [\"order_id\"])", &schema()).unwrap();
        assert!(!bad.is_valid());
    }

    #[test]
    fn created_columns_become_visible() {
        let c = check(
            "sales.with_column(\"total\", \"price * quantity\").sort(by = [\"total\"])",
            &schema(),
        )
        .unwrap();
        assert!(c.is_valid(), "{:?}", c.issues);
    }

    #[test]
    fn syntax_error_propagates() {
        assert!(matches!(
            check("sales.filter(", &schema()),
            Err(NlError::PySyntax { .. })
        ));
    }

    #[test]
    fn all_prints_is_empty_program() {
        assert!(matches!(
            check("print(x)\nprint(y)", &schema()),
            Err(NlError::Check { .. })
        ));
    }
}
