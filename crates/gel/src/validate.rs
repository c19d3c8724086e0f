//! Recipe validation through the shared static analyzer.
//!
//! GEL recipes lower to skill DAGs ([`Recipe::to_dag`]), which means
//! every analyzer pass — schema/type propagation, dataflow lints, cost
//! lints — applies to a recipe before any step executes. This module
//! adds the GEL-side provenance: analyzer findings anchored to DAG nodes
//! are remapped to 1-based recipe *steps* (and source *lines* for
//! [`analyze_gel`]), and parse failures become `DC0401` diagnostics in
//! the same report shape instead of hard errors.

use dc_analyze::{analyze_dag, Analysis, AnalysisContext, Code, Diagnostic, Span};

use crate::parse::parse_gel;
use crate::recipe::Recipe;

/// Validate a parsed recipe against an analysis context. The analysis
/// targets the final step (a recipe delivers its last result); findings
/// carry `step` spans (1-based, matching [`Recipe::to_text`] numbering).
pub fn validate_recipe(recipe: &Recipe, ctx: &AnalysisContext) -> Analysis {
    if recipe.is_empty() {
        return Analysis::default();
    }
    let (dag, node_of_step) = match recipe.to_dag() {
        Ok(v) => v,
        Err(e) => {
            // A recipe that does not lower to a DAG cannot be analyzed
            // further; report the lowering failure itself.
            return Analysis {
                diagnostics: vec![Diagnostic::new(
                    Code::GelParse,
                    format!("recipe does not lower to a DAG: {e}"),
                )],
                ..Analysis::default()
            };
        }
    };
    // The recipe is not empty, so its last step lowered to a node.
    let Some(&target) = node_of_step.last() else {
        return Analysis::default();
    };
    let mut analysis = analyze_dag(&dag, &[target], ctx);
    for d in &mut analysis.diagnostics {
        if let Some(step) = d
            .span
            .node
            .and_then(|n| step_of_node(&node_of_step, &dag, n))
        {
            d.span.step = Some(step);
        }
    }
    analysis
}

/// The 1-based recipe step a DAG node belongs to. Synthetic nodes (the
/// implicit `UseDataset` a `Join`/`Concat` materializes for an unbound
/// second dataset) are attributed to the step that consumes them.
fn step_of_node(
    node_of_step: &[dc_skills::NodeId],
    dag: &dc_skills::SkillDag,
    node: dc_skills::NodeId,
) -> Option<usize> {
    if let Some(i) = node_of_step.iter().position(|&n| n == node) {
        return Some(i + 1);
    }
    dag.nodes()
        .iter()
        .find(|n| n.inputs.contains(&node))
        .and_then(|consumer| node_of_step.iter().position(|&n| n == consumer.id))
        .map(|i| i + 1)
}

/// Analyze raw GEL text: line-aware parsing, then full recipe
/// validation. Unparseable sentences become `DC0401` diagnostics with
/// the offending 1-based source line; when every sentence parses, the
/// analyzer runs and its step spans gain the corresponding source line.
pub fn analyze_gel(text: &str, ctx: &AnalysisContext) -> Analysis {
    let mut recipe = Recipe::new();
    let mut line_of_step: Vec<usize> = Vec::new();
    let mut parse_errors: Vec<Diagnostic> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if let Some(name) = line.strip_prefix("-- bind:") {
            let name = name.trim();
            let bound = recipe
                .len()
                .checked_sub(1)
                .map(|last| recipe.bind(last, name).is_ok())
                .unwrap_or(false);
            if name.is_empty() || !bound {
                parse_errors.push(
                    Diagnostic::new(
                        Code::GelParse,
                        "-- bind: directive needs a preceding step and a dataset name",
                    )
                    .with_span(Span::line(line_no, line)),
                );
            }
            continue;
        }
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        match parse_gel(line) {
            Ok(call) => {
                recipe.push(call);
                line_of_step.push(line_no);
            }
            Err(e) => {
                parse_errors.push(
                    Diagnostic::new(Code::GelParse, format!("cannot parse GEL sentence: {e}"))
                        .with_span(Span::line(line_no, line)),
                );
            }
        }
    }
    // Parse errors leave holes in the step chain; analyzing the residue
    // would produce misleading cascades, so report the parses alone.
    if !parse_errors.is_empty() {
        return Analysis {
            diagnostics: parse_errors,
            ..Analysis::default()
        };
    }
    let mut analysis = validate_recipe(&recipe, ctx);
    for d in &mut analysis.diagnostics {
        if let Some(line) = d.span.step.and_then(|s| line_of_step.get(s - 1).copied()) {
            d.span.line = Some(line);
        }
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_analyze::Severity;
    use dc_storage::{BlockSource, BlockTable};

    fn ctx() -> AnalysisContext {
        let mut csv = String::from("region,price\n");
        for i in 0..10 {
            csv.push_str(&format!("r{},{}.5\n", i % 2, i));
        }
        let t = dc_engine::csv::read_csv(&csv).unwrap();
        let mut ctx = AnalysisContext::new();
        ctx.add_table(
            "Main",
            "sales",
            BlockTable::new(&t, 5).unwrap().meta().clone(),
        );
        ctx
    }

    #[test]
    fn clean_gel_validates() {
        let a = analyze_gel(
            "Load the table sales from the database Main\n\
             Keep the rows where price > 1\n",
            &ctx(),
        );
        assert!(a.diagnostics.is_empty(), "{}", a.render());
    }

    #[test]
    fn parse_error_becomes_dc0401_with_line() {
        let a = analyze_gel(
            "Load the table sales from the database Main\n\
             utter nonsense here\n",
            &ctx(),
        );
        assert_eq!(a.diagnostics.len(), 1);
        let d = &a.diagnostics[0];
        assert_eq!(d.code, Code::GelParse);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.line, Some(2));
    }

    #[test]
    fn analyzer_findings_carry_step_and_line() {
        let a = analyze_gel(
            "-- a comment\n\
             Load the table sales from the database Main\n\
             Keep the rows where bogus > 1\n",
            &ctx(),
        );
        assert!(a.has_errors());
        let d = &a.with_code(Code::UnknownColumn)[0];
        assert_eq!(d.span.step, Some(2));
        assert_eq!(d.span.line, Some(3));
    }

    #[test]
    fn bind_directive_resolves_for_concat() {
        let a = analyze_gel(
            "Load the table sales from the database Main\n\
             -- bind: base\n\
             Keep the rows where price > 1\n\
             Concatenate the datasets this and base\n",
            &ctx(),
        );
        assert!(a.diagnostics.is_empty(), "{}", a.render());
    }

    #[test]
    fn dangling_bind_is_reported() {
        let a = analyze_gel("-- bind: early\n", &ctx());
        assert_eq!(a.with_code(Code::GelParse).len(), 1);
    }

    #[test]
    fn unlowerable_recipe_reports_dc0401() {
        let mut r = Recipe::new();
        r.push(dc_skills::SkillCall::Concat {
            other: "ghost".into(),
            remove_duplicates: false,
        });
        let a = validate_recipe(&r, &ctx());
        assert_eq!(a.with_code(Code::GelParse).len(), 1);
    }
}
