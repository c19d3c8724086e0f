//! The end-to-end NL2Code pipeline (Figure 6).
//!
//! Wires the components in the paper's 13-step flow: intent → semantic
//! retrieval (2-4) → example retrieval (6) → prompt composition (5, 9) →
//! code generation (10) → program checking (11) → polyglot translation
//! and execution-ready recipe (12-13). Human-iteration hooks: the caller
//! can inspect/modify the prompt before generation and the recipe after.

use dc_gel::{format_skill, Recipe};
use dc_skills::{as_query_step, SkillCall};
use dc_sql::QueryStep;

use crate::checker::{check, CheckedProgram};
use crate::error::{NlError, Result};
use crate::examples::ExampleLibrary;
use crate::llm::{LanguageModel, SimulatedLlm};
use crate::prompt::{Prompt, PromptComposer};
use crate::pyapi::format_program;
use crate::semantic::{SchemaHints, SemanticLayer};

/// The NL2Code system of Figure 6.
pub struct Nl2Code {
    pub semantics: SemanticLayer,
    pub library: ExampleLibrary,
    pub composer: PromptComposer,
    pub model: Box<dyn LanguageModel>,
}

impl std::fmt::Debug for Nl2Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nl2Code")
            .field("model", &self.model.name())
            .field("concepts", &self.semantics.len())
            .field("examples", &self.library.len())
            .finish()
    }
}

/// Everything a generation run produces: transparent by construction
/// (§4's Transparency and Interpretability requirement).
#[derive(Debug, Clone, PartialEq)]
pub struct Nl2CodeResult {
    /// The composed prompt (step 9).
    pub prompt: Prompt,
    /// Raw model output (step 10).
    pub raw_code: String,
    /// Post-checker program (step 11).
    pub checked: CheckedProgram,
    /// Cleaned Python API text.
    pub python: String,
    /// GEL translation, one sentence per step.
    pub gel: Vec<String>,
    /// SQL translation when the program is a single SQL-able chain.
    pub sql: Option<String>,
    /// Human-readable trace of the Figure 6 steps.
    pub trace: Vec<String>,
}

impl Nl2Code {
    /// The default stack: built-in examples, sales demo semantics, the
    /// simulated LLM.
    pub fn with_defaults(seed: u64) -> Nl2Code {
        Nl2Code {
            semantics: SemanticLayer::sales_demo(),
            library: ExampleLibrary::builtin(),
            composer: PromptComposer::default(),
            model: Box::new(SimulatedLlm::new(seed)),
        }
    }

    /// Run the pipeline for one intent.
    pub fn generate(&self, intent: &str, schema: &SchemaHints) -> Result<Nl2CodeResult> {
        if schema.tables.is_empty() {
            return Err(NlError::Generation {
                message: "no datasets are connected — load a table or connect a database first"
                    .into(),
            });
        }
        let mut trace: Vec<String> = Vec::new();
        trace.push(format!("1. user intent: {intent:?}"));

        let concepts = self.semantics.retrieve(intent, self.composer.max_concepts);
        trace.push(format!(
            "2-4. semantic layer retrieved {} concept(s): [{}]",
            concepts.len(),
            concepts
                .iter()
                .map(|c| c.concept.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));

        let prompt = self
            .composer
            .compose(intent, schema, &self.semantics, &self.library);
        trace.push(format!(
            "5-6. prompt composed: {} example(s), {} concept(s), ~{} tokens",
            prompt.examples.len(),
            prompt.concepts.len(),
            prompt.token_count()
        ));
        trace.push("7-8. prompts suggested to the user (no edits)".to_string());

        let raw_code = self.model.complete(&prompt);
        trace.push(format!("9-10. {} generated: {raw_code}", self.model.name()));

        let checked = check(&raw_code, schema)?;
        // Auto-repaired (Fixed) findings are healed, not errors — only
        // unresolved issues count against the program.
        trace.push(format!(
            "11. program checker: {} unresolved issue(s), {} auto-fixed, valid = {}",
            checked.unresolved().len(),
            checked.fixed_count(),
            checked.is_valid()
        ));

        // Polyglot translation (§4's design consideration).
        let python = render_python(&checked)?;
        let gel = render_gel(&checked);
        let sql = render_sql(&checked);
        trace.push(format!(
            "12. translations ready: Python, {} GEL step(s){}",
            gel.len(),
            if sql.is_some() { ", SQL" } else { "" }
        ));

        Ok(Nl2CodeResult {
            prompt,
            raw_code,
            checked,
            python,
            gel,
            sql,
            trace,
        })
    }

    /// Lower a checked program into an executable [`Recipe`] (step 12-13:
    /// "program is executed by the analytics platform").
    pub fn to_recipe(checked: &CheckedProgram) -> Result<Recipe> {
        let mut recipe = Recipe::new();
        let mut step = 0usize;
        for st in &checked.program.statements {
            recipe.push(SkillCall::UseDataset {
                name: st.root.clone(),
                version: None,
            });
            step += 1;
            for call in &st.calls {
                recipe.push(call.clone());
                step += 1;
            }
            if let Some(target) = &st.target {
                recipe
                    .bind(step - 1, target.clone())
                    .map_err(|e| NlError::translation(e.to_string()))?;
            }
        }
        Ok(recipe)
    }
}

fn render_python(checked: &CheckedProgram) -> Result<String> {
    let mut out = Vec::new();
    for st in &checked.program.statements {
        let chain = format_program(&st.root, &st.calls)?;
        match &st.target {
            Some(t) => out.push(format!("{t} = {chain}")),
            None => out.push(chain),
        }
    }
    Ok(out.join("\n"))
}

fn render_gel(checked: &CheckedProgram) -> Vec<String> {
    let mut out = Vec::new();
    for st in &checked.program.statements {
        out.push(format!("Use the dataset {}", st.root));
        for call in &st.calls {
            out.push(format_skill(call));
        }
        if let Some(t) = &st.target {
            out.push(format!("-- result bound as {t}"));
        }
    }
    out
}

/// SQL rendering for single-statement, SQL-able chains.
fn render_sql(checked: &CheckedProgram) -> Option<String> {
    if checked.program.statements.len() != 1 {
        return None;
    }
    let st = &checked.program.statements[0];
    let mut steps = vec![QueryStep::Scan {
        table: st.root.clone(),
    }];
    for call in &st.calls {
        steps.push(as_query_step(call)?);
    }
    dc_sql::generate_sql(&steps, true).ok().map(|q| q.to_sql())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::SimulatedLlm;

    fn system() -> Nl2Code {
        Nl2Code {
            semantics: SemanticLayer::sales_demo(),
            library: ExampleLibrary::builtin(),
            composer: PromptComposer::default(),
            model: Box::new(SimulatedLlm::oracle()),
        }
    }

    fn schema() -> SchemaHints {
        SchemaHints::single(
            "sales",
            vec![
                "order_id".into(),
                "order_date".into(),
                "region".into(),
                "product".into(),
                "price".into(),
                "quantity".into(),
                "discount".into(),
                "PurchaseStatus".into(),
            ],
        )
    }

    #[test]
    fn end_to_end_generation() {
        let sys = system();
        let r = sys
            .generate("How many orders were placed in each region", &schema())
            .unwrap();
        assert!(r.checked.is_valid());
        assert!(r.python.contains("compute"));
        assert!(r.gel.iter().any(|g| g.contains("Compute the count")));
        let sql = r.sql.expect("single-chain program has SQL");
        assert!(sql.contains("GROUP BY region"), "{sql}");
        assert_eq!(r.trace.len(), 7);
    }

    #[test]
    fn polyglot_translations_agree() {
        // The three dialects of the same program must parse back to the
        // same skills.
        let sys = system();
        let r = sys
            .generate(
                "count the orders with price above 100 for each region",
                &schema(),
            )
            .unwrap();
        // Python roundtrip.
        let reparsed = crate::pyapi::parse_pyapi(&r.python).unwrap();
        assert_eq!(
            reparsed.statements[0].calls,
            r.checked.program.statements[0].calls
        );
        // GEL roundtrip (skip the Use-dataset header).
        for (line, call) in r.gel[1..]
            .iter()
            .zip(&r.checked.program.statements[0].calls)
        {
            let parsed = dc_gel::parse_gel(line).unwrap();
            assert_eq!(&parsed, call);
        }
    }

    /// A model that answers every prompt with one program.
    struct Fixed(&'static str);

    impl LanguageModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn complete(&self, _: &Prompt) -> String {
            self.0.to_string()
        }
    }

    /// A chain the planner consolidates into one SQL task renders as SQL,
    /// a constant column included.
    #[test]
    fn a_constant_column_chain_renders_sql() {
        let program = "sales.with_constant(\"tag\", 1).compute(aggregates = [Count()])";
        let sys = Nl2Code {
            model: Box::new(Fixed(program)),
            ..system()
        };
        let r = sys.generate("count the orders", &schema()).unwrap();
        let sql = r.sql.expect("a SQL-able chain has SQL");
        assert!(
            sql.contains("COUNT(*)") && sql.contains("FROM sales"),
            "{sql}"
        );
    }

    #[test]
    fn recipe_is_executable() {
        let sys = system();
        let r = sys
            .generate("How many purchases were successful", &schema())
            .unwrap();
        let recipe = Nl2Code::to_recipe(&r.checked).unwrap();
        // Execute against an environment holding the sales table.
        let mut env = dc_skills::Env::new();
        env.save_table("sales", dc_storage::demo::sales(200, 1));
        let mut editor = dc_gel::RecipeEditor::new(recipe);
        editor.run(&mut env).unwrap();
        let out = editor.last_output().unwrap().as_table().unwrap();
        assert_eq!(out.num_rows(), 1);
        // The aggregate output column is the last one, whatever the
        // model named it.
        let count = out.row(0).unwrap().last().unwrap().as_i64().unwrap();
        assert!(count > 100 && count < 200, "count = {count}");
    }

    #[test]
    fn trace_documents_every_stage() {
        let sys = system();
        let r = sys.generate("count orders per region", &schema()).unwrap();
        assert!(r.trace[0].contains("user intent"));
        assert!(r.trace[1].contains("semantic layer"));
        assert!(r.trace[2].contains("prompt composed"));
        assert!(r.trace.iter().any(|t| t.contains("program checker")));
    }

    #[test]
    fn multi_statement_program_has_no_sql() {
        let checked = check(
            "west = sales.filter(\"region = 'west'\")\nwest.compute(aggregates = [Count()])",
            &schema(),
        )
        .unwrap();
        assert!(render_sql(&checked).is_none());
        // But GEL still covers both statements.
        let gel = render_gel(&checked);
        assert!(
            gel.iter()
                .filter(|g| g.starts_with("Use the dataset"))
                .count()
                == 2
        );
    }

    #[test]
    fn default_stack_constructs() {
        let sys = Nl2Code::with_defaults(7);
        assert!(format!("{sys:?}").contains("simulated-gpt"));
    }
}
