//! Recipes and the GEL editor/debugger (Figure 2a).
//!
//! A recipe is an ordered list of GEL steps. The editor model supports
//! the IDE controls the paper shows: breakpoints (the red dot), Replay,
//! Pause, Next (step), and Run-to-end, "examining the output at each
//! step if needed". Steps can be edited in place; edits re-parse the GEL
//! line.

use dc_skills::{Env, Executor, NodeId, SkillCall, SkillDag, SkillOutput};

use crate::error::{GelError, Result};
use crate::format::format_skill;
use crate::parse::parse_gel;

/// A recipe: the GEL representation of a linear skill chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recipe {
    steps: Vec<SkillCall>,
    /// Step index → dataset name bound after that step (the `Use the
    /// dataset X` targets of later steps).
    bindings: Vec<(usize, String)>,
}

impl Recipe {
    /// An empty recipe.
    pub fn new() -> Recipe {
        Recipe::default()
    }

    /// Build from GEL text, one sentence per line. Blank lines and `--`
    /// comment lines are skipped, except the `-- bind: <name>` directive,
    /// which binds the preceding step's result to a dataset name (the
    /// textual form of [`Recipe::bind`], so `.gel` files can express the
    /// branching recipes of Figure 2).
    pub fn parse(text: &str) -> Result<Recipe> {
        let mut r = Recipe::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(name) = line.strip_prefix("-- bind:") {
                let name = name.trim();
                if name.is_empty() {
                    return Err(GelError::Editor {
                        message: "-- bind: directive needs a dataset name".into(),
                    });
                }
                let Some(last) = r.steps.len().checked_sub(1) else {
                    return Err(GelError::Editor {
                        message: "-- bind: directive before any step".into(),
                    });
                };
                r.bind(last, name)?;
                continue;
            }
            if line.is_empty() || line.starts_with("--") {
                continue;
            }
            r.steps.push(parse_gel(line)?);
        }
        Ok(r)
    }

    /// Append a step.
    pub fn push(&mut self, call: SkillCall) {
        self.steps.push(call);
    }

    /// Bind a dataset name to the result of step `index` (0-based), so a
    /// later `Use the dataset <name>` / `Concatenate ...` resolves to it.
    pub fn bind(&mut self, index: usize, name: impl Into<String>) -> Result<()> {
        if index >= self.steps.len() {
            return Err(GelError::Editor {
                message: format!("step {index} out of range"),
            });
        }
        self.bindings.push((index, name.into()));
        Ok(())
    }

    /// The steps.
    pub fn steps(&self) -> &[SkillCall] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the recipe has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Replace step `index` with a re-parsed GEL line (editing in the
    /// IDE).
    pub fn edit(&mut self, index: usize, gel_line: &str) -> Result<()> {
        if index >= self.steps.len() {
            return Err(GelError::Editor {
                message: format!("step {index} out of range"),
            });
        }
        self.steps[index] = parse_gel(gel_line)?;
        Ok(())
    }

    /// Delete a step. Bindings at or after the step shift down; a binding
    /// to the deleted step is dropped.
    pub fn remove(&mut self, index: usize) -> Result<()> {
        if index >= self.steps.len() {
            return Err(GelError::Editor {
                message: format!("step {index} out of range"),
            });
        }
        self.steps.remove(index);
        self.bindings.retain(|(i, _)| *i != index);
        for (i, _) in self.bindings.iter_mut() {
            if *i > index {
                *i -= 1;
            }
        }
        Ok(())
    }

    /// Render as numbered GEL text (the editor's left pane in Fig. 2a).
    pub fn to_text(&self) -> String {
        self.steps
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{} {}", i + 1, format_skill(s)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Lower the recipe into a skill DAG ([`SkillDag::lower`]), with each
    /// step's node.
    pub fn to_dag(&self) -> Result<(SkillDag, Vec<NodeId>)> {
        Ok(SkillDag::lower(&self.steps, &self.bindings)?)
    }

    /// The names bound to step `index`'s result.
    pub fn names_bound_at(&self, index: usize) -> impl Iterator<Item = &str> {
        (self.bindings.iter())
            .filter(move |(at, _)| *at == index)
            .map(|(_, name)| name.as_str())
    }

    /// Pass every `Use the dataset` step to `rewrite`, except one whose
    /// name an earlier step binds: [`Recipe::to_dag`] re-roots that one at
    /// the bound step, whatever else the name might mean.
    pub fn rewrite_unbound_uses(&mut self, mut rewrite: impl FnMut(&mut SkillCall)) {
        for (i, call) in self.steps.iter_mut().enumerate() {
            let SkillCall::UseDataset { name, .. } = call else {
                continue;
            };
            let name = name.to_lowercase();
            if !(self.bindings.iter()).any(|(at, b)| *at < i && b.to_lowercase() == name) {
                rewrite(call);
            }
        }
    }
}

impl From<Vec<SkillCall>> for Recipe {
    /// A recipe of `steps` with no names bound.
    fn from(steps: Vec<SkillCall>) -> Recipe {
        let bindings = Vec::new();
        Recipe { steps, bindings }
    }
}

/// Debugger run states (the Fig. 2a control strip: Replay / Pause / Next
/// / End / Select line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Not started, or reset by Replay.
    Idle,
    /// Stopped at a step (next to execute = `position`).
    Paused,
    /// Finished every step.
    Done,
}

/// The interactive GEL editor/debugger.
#[derive(Debug)]
pub struct RecipeEditor {
    recipe: Recipe,
    breakpoints: Vec<bool>,
    position: usize,
    state: RunState,
    executor: Executor,
    /// Output of the most recently executed step.
    last_output: Option<SkillOutput>,
}

impl RecipeEditor {
    /// Open a recipe in the editor.
    pub fn new(recipe: Recipe) -> RecipeEditor {
        let n = recipe.len();
        RecipeEditor {
            recipe,
            breakpoints: vec![false; n],
            position: 0,
            state: RunState::Idle,
            executor: Executor::new(),
            last_output: None,
        }
    }

    /// The underlying recipe.
    pub fn recipe(&self) -> &Recipe {
        &self.recipe
    }

    /// Next step to execute (0-based).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Current run state.
    pub fn state(&self) -> RunState {
        self.state
    }

    /// Output of the most recently executed step ("examining the output
    /// at each step").
    pub fn last_output(&self) -> Option<&SkillOutput> {
        self.last_output.as_ref()
    }

    /// Toggle a breakpoint (the red dot) on a step.
    pub fn toggle_breakpoint(&mut self, step: usize) -> Result<bool> {
        let Some(slot) = self.breakpoints.get_mut(step) else {
            return Err(GelError::Editor {
                message: format!("step {step} out of range"),
            });
        };
        *slot = !*slot;
        Ok(*slot)
    }

    /// Whether a step has a breakpoint.
    pub fn has_breakpoint(&self, step: usize) -> bool {
        self.breakpoints.get(step).copied().unwrap_or(false)
    }

    /// Replay: reset to the beginning (cached results are kept — §2.2's
    /// cache makes replay cheap when data hasn't changed).
    pub fn replay(&mut self) {
        self.position = 0;
        self.state = RunState::Idle;
        self.last_output = None;
    }

    /// Execute exactly one step ("Next").
    pub fn step(&mut self, env: &mut Env) -> Result<RunState> {
        if self.position >= self.recipe.len() {
            self.state = RunState::Done;
            return Ok(self.state);
        }
        let (dag, node_of_step) = self.recipe.to_dag()?;
        let node = node_of_step[self.position];
        let out = self.executor.run(&dag, node, env)?;
        self.last_output = Some(out);
        self.position += 1;
        self.state = if self.position >= self.recipe.len() {
            RunState::Done
        } else {
            RunState::Paused
        };
        Ok(self.state)
    }

    /// Run until the next breakpoint or the end ("Replay" then "Continue"
    /// semantics; a breakpoint on step i pauses *before* executing i).
    pub fn run(&mut self, env: &mut Env) -> Result<RunState> {
        while self.position < self.recipe.len() {
            if self.has_breakpoint(self.position) && self.state != RunState::Idle
            // An Idle run starting exactly on a breakpoint still
            // executes nothing first: pause immediately unless we've
            // just paused here.
            {
                self.state = RunState::Paused;
                return Ok(self.state);
            }
            if self.has_breakpoint(self.position) && self.state == RunState::Idle {
                self.state = RunState::Paused;
                return Ok(self.state);
            }
            self.step(env)?;
            if self.state == RunState::Paused && self.has_breakpoint(self.position) {
                return Ok(self.state);
            }
        }
        self.state = RunState::Done;
        Ok(self.state)
    }

    /// Continue past a breakpoint: execute the paused step, then keep
    /// running to the next breakpoint or the end.
    pub fn resume(&mut self, env: &mut Env) -> Result<RunState> {
        if self.position < self.recipe.len() {
            self.step(env)?;
        }
        while self.position < self.recipe.len() && !self.has_breakpoint(self.position) {
            self.step(env)?;
        }
        if self.position < self.recipe.len() {
            self.state = RunState::Paused;
        }
        Ok(self.state)
    }

    /// Edit a step's GEL text; execution state resets (the platform
    /// re-derives execution tasks from the DAG per request).
    pub fn edit_step(&mut self, index: usize, gel_line: &str) -> Result<()> {
        self.recipe.edit(index, gel_line)?;
        self.replay();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Value;

    fn env() -> Env {
        let mut env = Env::new();
        env.add_file("nums.csv", "x,y\n1,10\n2,20\n3,30\n4,40\n");
        env
    }

    fn recipe() -> Recipe {
        Recipe::parse(
            "Load data from the file nums.csv\n\
             Keep the rows where x > 1\n\
             Keep the first 2 rows\n",
        )
        .unwrap()
    }

    #[test]
    fn parse_recipe_text() {
        let r = recipe();
        assert_eq!(r.len(), 3);
        assert!(r
            .to_text()
            .starts_with("1 Load data from the file nums.csv"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let r = Recipe::parse("-- a comment\n\nLoad data from the file nums.csv\n").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn step_through_and_examine_outputs() {
        let mut ed = RecipeEditor::new(recipe());
        let mut env = env();
        assert_eq!(ed.state(), RunState::Idle);
        ed.step(&mut env).unwrap();
        let t = ed.last_output().unwrap().as_table().unwrap();
        assert_eq!(t.num_rows(), 4);
        ed.step(&mut env).unwrap();
        let t = ed.last_output().unwrap().as_table().unwrap();
        assert_eq!(t.num_rows(), 3);
        let state = ed.step(&mut env).unwrap();
        assert_eq!(state, RunState::Done);
        let t = ed.last_output().unwrap().as_table().unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn breakpoint_pauses_before_step() {
        let mut ed = RecipeEditor::new(recipe());
        let mut env = env();
        ed.toggle_breakpoint(1).unwrap();
        let state = ed.run(&mut env).unwrap();
        assert_eq!(state, RunState::Paused);
        assert_eq!(ed.position(), 1); // step 1 not yet executed
                                      // The step-0 output is visible.
        assert_eq!(ed.last_output().unwrap().as_table().unwrap().num_rows(), 4);
        let state = ed.resume(&mut env).unwrap();
        assert_eq!(state, RunState::Done);
        assert_eq!(ed.last_output().unwrap().as_table().unwrap().num_rows(), 2);
    }

    #[test]
    fn replay_resets_and_uses_cache() {
        let mut ed = RecipeEditor::new(recipe());
        let mut env = env();
        ed.run(&mut env).unwrap();
        let first_runs = ed.executor.stats.nodes_executed;
        ed.replay();
        assert_eq!(ed.state(), RunState::Idle);
        ed.run(&mut env).unwrap();
        // Replay hits the executor cache; no new node executions.
        assert_eq!(ed.executor.stats.nodes_executed, first_runs);
        assert!(ed.executor.stats.cache_hits > 0);
    }

    #[test]
    fn edit_step_changes_behavior() {
        let mut ed = RecipeEditor::new(recipe());
        let mut env = env();
        ed.run(&mut env).unwrap();
        ed.edit_step(1, "Keep the rows where x > 3").unwrap();
        assert_eq!(ed.state(), RunState::Idle);
        ed.run(&mut env).unwrap();
        let t = ed.last_output().unwrap().as_table().unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, "x").unwrap(), Value::Int(4));
    }

    #[test]
    fn edit_rejects_bad_gel_and_bad_index() {
        let mut ed = RecipeEditor::new(recipe());
        assert!(ed.edit_step(1, "nonsense sentence").is_err());
        assert!(ed.edit_step(99, "Keep the first 1 rows").is_err());
        assert!(ed.toggle_breakpoint(99).is_err());
    }

    #[test]
    fn remove_step_shifts_bindings() {
        let mut r = recipe();
        r.bind(2, "final").unwrap();
        r.remove(1).unwrap();
        assert_eq!(r.len(), 2);
        let (dag, _) = r.to_dag().unwrap();
        assert!(dag.resolve_name("final").is_ok());
    }

    #[test]
    fn figure2_style_branching_recipe() {
        // Mimics the Figure 2 shape: predict from a filtered series, then
        // rewind to the raw dataset, label it, and concatenate.
        let mut env = Env::new();
        let mut csv = String::from("DATE,GDPC1\n");
        for q in 0..40 {
            let d = dc_engine::date::add_months(dc_engine::date::days_from_ymd(2005, 1, 1), 3 * q);
            csv.push_str(&format!(
                "{},{}\n",
                dc_engine::date::format_date(d),
                100 + 2 * q
            ));
        }
        env.add_url("https://fred.example/gdp.csv", csv);

        let mut r = Recipe::new();
        r.push(parse_gel("Load data from the URL https://fred.example/gdp.csv").unwrap());
        r.bind(0, "fredgraph").unwrap();
        r.push(
            parse_gel(
                "Predict time series with measure columns GDPC1 for the next 12 values of DATE",
            )
            .unwrap(),
        );
        r.bind(1, "PredictedTimeSeries_GDPC1").unwrap();
        r.push(parse_gel("Use the dataset fredgraph").unwrap());
        r.push(parse_gel("Create a new column RecordType with text Actual").unwrap());
        r.push(parse_gel("Keep the columns DATE, GDPC1, RecordType").unwrap());
        r.push(
            parse_gel(
                "Concatenate the datasets fredgraph and PredictedTimeSeries_GDPC1 remove all duplicates",
            )
            .unwrap(),
        );
        let mut ed = RecipeEditor::new(r);
        let state = ed.run(&mut env).unwrap();
        assert_eq!(state, RunState::Done);
        let t = ed.last_output().unwrap().as_table().unwrap();
        assert_eq!(t.num_rows(), 52); // 40 actual + 12 predicted
        assert_eq!(t.schema().names(), vec!["DATE", "GDPC1", "RecordType"]);
    }
}
