//! The platform facade.

use std::collections::BTreeMap;

use std::time::Duration;

use dc_analyze::{Analysis, AnalysisContext, AnalysisPolicy, Diagnostic};
use dc_collab::{
    Artifact, EnvHandle, HomeScreen, InsightsBoard, LinkIssuer, Permission, SessionRef,
    SessionRegistry, ShareLink,
};
use dc_gel::Recipe;
use dc_nl::{Nl2Code, SchemaHints};
use dc_skills::{rewrite_use_dataset, Env, ExecPolicy, SkillCall, SkillOutput};
use dc_storage::CloudDatabase;

use crate::forms::{ComputeForm, VisualizeForm};

/// Errors surfaced by the platform facade.
pub type PlatformError = Box<dyn std::error::Error>;

/// Which translation path answered a chat message (§4: the phrase layer
/// answers structured utterances deterministically; the LLM layer covers
/// the rest; plain GEL short-circuits both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChatPath {
    /// The message parsed directly as GEL.
    Gel,
    /// The deterministic phrase-based translator (§4.8).
    Phrase,
    /// The LLM-based NL2Code pipeline (§4.1–4.6).
    Llm,
}

/// A chat answer: the final output, the executed GEL steps, which path
/// produced them, and any static-analysis findings for the program.
#[derive(Debug)]
pub struct ChatReply {
    pub output: SkillOutput,
    pub steps_gel: Vec<String>,
    pub path: ChatPath,
    /// Diagnostics from the pre-execution analyzer (empty when the
    /// program was clean or continued session state the analyzer cannot
    /// see).
    pub diagnostics: Vec<Diagnostic>,
}

/// A user's handle on an open session.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    pub session: SessionRef,
    pub user: String,
}

impl SessionHandle {
    /// Run one GEL sentence.
    pub fn run_gel(&self, sentence: &str) -> Result<SkillOutput, PlatformError> {
        let call = dc_gel::parse_gel(sentence)?;
        Ok(self.session.submit(&self.user, call)?)
    }

    /// Submit a skill call directly (the UI-form path).
    pub fn submit(&self, call: SkillCall) -> Result<SkillOutput, PlatformError> {
        Ok(self.session.submit(&self.user, call)?)
    }

    /// Submit a filled Compute form (Figure 3a).
    pub fn submit_compute_form(
        &self,
        form: &ComputeForm,
        schema: &dc_engine::Schema,
    ) -> Result<SkillOutput, PlatformError> {
        let call = form.submit(schema)?;
        self.submit(call)
    }

    /// Submit a filled Visualize form.
    pub fn submit_visualize_form(
        &self,
        form: &VisualizeForm,
        schema: &dc_engine::Schema,
    ) -> Result<SkillOutput, PlatformError> {
        let call = form.submit(schema)?;
        self.submit(call)
    }
}

/// The DataChat platform: environment + sessions + artifacts + boards +
/// share links + the NL2Code stack.
pub struct Platform {
    registry: SessionRegistry,
    artifacts: BTreeMap<String, Artifact>,
    boards: BTreeMap<String, InsightsBoard>,
    pub home: HomeScreen,
    links: LinkIssuer,
    pub nl: Nl2Code,
    analysis_policy: AnalysisPolicy,
    /// Cross-session materialized sub-DAG cache, installed into the
    /// environment so every session this platform hosts shares it.
    materialized: std::sync::Arc<dc_skills::MaterializedCache>,
    /// The platform's world state, behind an `Arc`-shareable handle so a
    /// serving layer can drive this platform's sessions from a worker
    /// pool. Every session the platform opens runs in it, from any thread.
    env: EnvHandle,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("sessions", &self.registry.len())
            .field("artifacts", &self.artifacts.len())
            .field("boards", &self.boards.len())
            .finish()
    }
}

impl Platform {
    /// A fresh platform with an empty environment and a default-sized
    /// cross-session materialized cache.
    pub fn new() -> Platform {
        Platform::with_cache_capacity(dc_skills::MaterializedCache::DEFAULT_CAPACITY)
    }

    /// A fresh platform whose cross-session cache holds at most
    /// `capacity_bytes` of materialized results (0 disables admission
    /// entirely while keeping the handle live).
    pub fn with_cache_capacity(capacity_bytes: u64) -> Platform {
        let materialized = std::sync::Arc::new(dc_skills::MaterializedCache::new(capacity_bytes));
        let mut env = Env::new();
        env.shared_cache = Some(std::sync::Arc::clone(&materialized));
        let env = EnvHandle::new(env);
        // Interactive sessions keep fail-fast error semantics (one
        // attempt); the deadline bounds the whole run and every node.
        let policy = ExecPolicy {
            node_budget: Some(Platform::DEFAULT_SESSION_DEADLINE),
            run_budget: Some(Platform::DEFAULT_SESSION_DEADLINE),
            ..ExecPolicy::plain()
        };
        Platform {
            registry: SessionRegistry::new(env.clone(), policy),
            artifacts: BTreeMap::new(),
            boards: BTreeMap::new(),
            home: HomeScreen::new(),
            links: LinkIssuer::new(),
            nl: Nl2Code::with_defaults(42),
            analysis_policy: AnalysisPolicy::default(),
            materialized,
            env,
        }
    }

    /// Default per-session wall-clock deadline: generous for interactive
    /// work, but bounded — a runaway query cannot hold a session forever.
    pub const DEFAULT_SESSION_DEADLINE: Duration = Duration::from_secs(30);

    /// The `Arc`-shareable handle on this platform's world state. A
    /// serving layer clones this into its worker pool so thousands of
    /// sessions execute against one catalog/snapshot-store/cache world.
    pub fn env_handle(&self) -> EnvHandle {
        self.env.clone()
    }

    /// The platform's cross-session materialized cache handle.
    pub fn materialized_cache(&self) -> std::sync::Arc<dc_skills::MaterializedCache> {
        std::sync::Arc::clone(&self.materialized)
    }

    /// Counters of the cross-session materialized cache.
    pub fn materialized_cache_stats(&self) -> dc_skills::CacheStats {
        self.materialized.stats()
    }

    /// Per-tenant slices of the cross-session cache counters (tenants
    /// are attributed via [`Env::attribution`], which serving layers set
    /// per job).
    pub fn materialized_tenant_stats(&self) -> Vec<(String, dc_skills::TenantCacheStats)> {
        self.materialized.tenant_stats()
    }

    /// Snapshot the environment into an [`AnalysisContext`]: catalog
    /// schemas and block stats, saved artifacts, snapshots, models, and
    /// CSV fixtures. Pure metadata — nothing is scanned.
    pub fn analysis_context(&self) -> AnalysisContext {
        self.env.with(|env| AnalysisContext::from_env(env))
    }

    /// Statically analyze a GEL program against the current environment
    /// without executing anything. Parse failures, schema/type errors,
    /// dataflow lints, and cost lints all land in one [`Analysis`].
    pub fn analyze(&self, gel_text: &str) -> Analysis {
        dc_gel::analyze_gel(gel_text, &self.analysis_context())
    }

    /// How chat programs respond to analyzer findings:
    /// [`AnalysisPolicy::Warn`] (the default) attaches diagnostics to the
    /// reply; [`AnalysisPolicy::Deny`] refuses to execute a program with
    /// Error-severity findings.
    pub fn set_analysis_policy(&mut self, policy: AnalysisPolicy) {
        self.analysis_policy = policy;
    }

    /// The current analysis policy.
    pub fn analysis_policy(&self) -> AnalysisPolicy {
        self.analysis_policy
    }

    /// Access the environment (catalog, snapshot store, virtual files).
    pub fn env<R>(&self, f: impl FnOnce(&mut Env) -> R) -> R {
        self.env.with(f)
    }

    /// Register a CSV fixture.
    pub fn add_csv_file(&self, path: impl Into<String>, text: impl Into<String>) {
        self.env.with(|env| env.add_file(path, text));
    }

    /// Attach a database to the catalog.
    pub fn add_database(&self, db: CloudDatabase) -> Result<(), PlatformError> {
        self.env.with(|env| env.catalog.add_database(db))?;
        Ok(())
    }

    /// Enable deterministic fault injection across every catalog database
    /// and the snapshot store, returning the shared injector handle (for
    /// [`dc_storage::FaultInjector::stats`]). Call after the databases
    /// under test are attached — later additions are not covered.
    pub fn enable_fault_injection(
        &self,
        config: dc_storage::FaultConfig,
    ) -> std::sync::Arc<dc_storage::FaultInjector> {
        let injector = std::sync::Arc::new(dc_storage::FaultInjector::new(config));
        self.env.with(|env| {
            env.catalog.set_fault_injector(&injector);
            env.snapshots
                .set_fault_injector(std::sync::Arc::clone(&injector));
        });
        injector
    }

    /// Disable fault injection everywhere.
    pub fn disable_fault_injection(&self) {
        self.env.with(|env| {
            env.catalog.clear_fault_injector();
            env.snapshots.clear_fault_injector();
        });
    }

    /// Open a session for a user, in this platform's world. Its
    /// submissions run through the resilient executor with
    /// [`Platform::DEFAULT_SESSION_DEADLINE`] as both the whole-run slice
    /// and the per-node budget — storage scans cancel cooperatively at
    /// block boundaries, pure compute is timed post-hoc, and the
    /// over-deadline submission fails with a typed timeout instead of
    /// hanging the session.
    pub fn open_session(&mut self, user: impl Into<String>) -> SessionHandle {
        let user = user.into();
        let session = self.registry.open(user.clone());
        SessionHandle { session, user }
    }

    /// Schema hints over every catalog table plus saved datasets — what
    /// the NL2Code prompt composer sees.
    pub fn schema_hints(&self) -> SchemaHints {
        self.env.with(|env| {
            let mut hints = SchemaHints::default();
            for db_name in env.catalog.database_names() {
                if let Ok(db) = env.catalog.database(db_name) {
                    for info in db.dataset_listing() {
                        hints.tables.insert(info.dataset_name, info.columns);
                    }
                }
            }
            hints
        })
    }

    /// The chat box: try GEL, then the phrase layer, then the LLM
    /// pipeline; execute the resulting program in the session.
    pub fn chat(&mut self, handle: &SessionHandle, text: &str) -> Result<ChatReply, PlatformError> {
        // 1. Direct GEL.
        if let Ok(call) = dc_gel::parse_gel(text) {
            return self.execute_calls(handle, Recipe::from(vec![call]), ChatPath::Gel);
        }
        let schema = self.schema_hints();
        // 2. Phrase-based translation (deterministic, Visualize-driven).
        if text.trim().to_lowercase().starts_with("visualize") {
            if let Ok(translation) = dc_nl::translate_visualize(text, &self.nl.semantics, &schema) {
                let recipe = Recipe::from(translation.calls);
                return self.execute_calls(handle, recipe, ChatPath::Phrase);
            }
        }
        // 3. LLM-based NL2Code.
        let result = self.nl.generate(text, &schema)?;
        let recipe = Nl2Code::to_recipe(&result.checked)?;
        self.execute_calls(handle, recipe, ChatPath::Llm)
    }

    /// Run a program in the session step by step, a catalog table used by
    /// name loaded, and a step's names bound once it has run, so that later
    /// steps read it as [`Recipe::to_dag`] wires them.
    fn execute_calls(
        &mut self,
        handle: &SessionHandle,
        mut recipe: Recipe,
        path: ChatPath,
    ) -> Result<ChatReply, PlatformError> {
        self.env
            .with(|env| recipe.rewrite_unbound_uses(|call| rewrite_use_dataset(call, env)));
        let diagnostics = self.preflight(&recipe)?;
        let mut last: Option<SkillOutput> = None;
        let mut steps_gel = Vec::with_capacity(recipe.len());
        for (i, call) in recipe.steps().iter().enumerate() {
            steps_gel.push(dc_gel::format_skill(call));
            last = Some(handle.session.submit(&handle.user, call.clone())?);
            for name in recipe.names_bound_at(i) {
                handle.session.name_current(name)?;
            }
        }
        Ok(ChatReply {
            output: last.ok_or("empty program")?,
            steps_gel,
            path,
            diagnostics,
        })
    }

    /// Statically analyze a chat program before execution. Programs that
    /// open with a transform continue the session's current result —
    /// state the recipe-level analyzer cannot see — so those skip
    /// analysis rather than guess. Under [`AnalysisPolicy::Deny`], an
    /// Error-severity finding refuses execution (the session DAG is left
    /// untouched); under [`AnalysisPolicy::Warn`], findings ride along on
    /// the reply.
    fn preflight(&self, recipe: &Recipe) -> Result<Vec<Diagnostic>, PlatformError> {
        if recipe.steps().first().is_none_or(SkillCall::needs_input) {
            return Ok(Vec::new());
        }
        let analysis = dc_gel::validate_recipe(recipe, &self.analysis_context());
        if self.analysis_policy == AnalysisPolicy::Deny && analysis.has_errors() {
            let lines: Vec<String> = analysis.errors().map(|d| d.to_string()).collect();
            return Err(format!(
                "static analysis rejected the program:\n{}",
                lines.join("\n")
            )
            .into());
        }
        Ok(analysis.diagnostics)
    }

    /// Save the session's current result as an artifact (sliced recipe,
    /// materialized output).
    pub fn save_artifact(
        &mut self,
        handle: &SessionHandle,
        name: impl Into<String>,
    ) -> Result<&Artifact, PlatformError> {
        let name = name.into();
        if self.artifacts.contains_key(&name) {
            return Err(format!(
                "an artifact named {name:?} already exists; refresh it or pick a new name"
            )
            .into());
        }
        let target = handle
            .session
            .current_node()
            .ok_or("nothing to save in this session")?;
        let dag = handle.session.dag_snapshot();
        let artifact = self
            .env
            .with(|env| Artifact::save(name.clone(), &handle.user, &dag, target, env))?;
        self.home
            .place("home", dc_collab::FolderEntry::Artifact(name.clone()))?;
        self.artifacts.insert(name.clone(), artifact);
        Ok(&self.artifacts[&name])
    }

    /// Look up an artifact.
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.get(name)
    }

    /// Refresh an artifact against current data.
    pub fn refresh_artifact(&mut self, name: &str) -> Result<u64, PlatformError> {
        let artifact = self
            .artifacts
            .get_mut(name)
            .ok_or_else(|| format!("artifact not found: {name}"))?;
        Ok(self.env.with(|env| artifact.refresh(env))?)
    }

    /// Issue a secret share link for an artifact.
    pub fn share_artifact_link(
        &mut self,
        name: &str,
        permission: Permission,
    ) -> Result<ShareLink, PlatformError> {
        if !self.artifacts.contains_key(name) {
            return Err(format!("artifact not found: {name}").into());
        }
        Ok(self.links.issue(name, permission))
    }

    /// Authorize a share link and fetch the artifact it exposes.
    pub fn open_shared(&self, key: &str, secret: &str) -> Result<&Artifact, PlatformError> {
        let (name, _perm) = self.links.authorize(key, secret)?;
        self.artifacts
            .get(name)
            .ok_or_else(|| format!("artifact vanished: {name}").into())
    }

    /// Create an Insights Board.
    pub fn create_board(&mut self, title: impl Into<String>) -> &mut InsightsBoard {
        let title = title.into();
        self.boards
            .entry(title.clone())
            .or_insert_with(|| InsightsBoard::new(title))
    }

    /// Look up a board.
    pub fn board(&self, title: &str) -> Option<&InsightsBoard> {
        self.boards.get(title)
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_storage::Pricing;

    fn platform_with_collisions() -> Platform {
        let p = Platform::new();
        let (collisions, parties, victims) = dc_storage::demo::california_collisions(300, 1);
        let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
        db.create_table("collisions", &collisions).unwrap();
        db.create_table("parties", &parties).unwrap();
        db.create_table("victims", &victims).unwrap();
        p.add_database(db).unwrap();
        p
    }

    #[test]
    fn gel_chat_path() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        let reply = p
            .chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
        assert_eq!(reply.path, ChatPath::Gel);
        assert!(reply.output.as_table().unwrap().num_rows() >= 300);
    }

    #[test]
    fn figure1_visualize_phrase_path() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        p.chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
        // GEL handles Visualize directly, so this goes down the Gel path;
        // the phrase layer handles utterances GEL cannot (with filters).
        let reply = p
            .chat(
                &h,
                "Visualize at_fault by party_age, party_sex, cellphone_in_use",
            )
            .unwrap();
        let charts = reply.output.as_charts().expect("charts");
        assert_eq!(charts.len(), 6);
    }

    #[test]
    fn nl2code_chat_path() {
        let mut p = platform_with_collisions();
        // Deterministic translation for this test: no injected errors.
        p.nl.model = Box::new(dc_nl::SimulatedLlm::oracle());
        let h = p.open_session("ann");
        let reply = p
            .chat(&h, "How many parties are there for each party_sobriety")
            .unwrap();
        assert_eq!(reply.path, ChatPath::Llm);
        let t = reply.output.as_table().unwrap();
        assert!(t.num_rows() >= 2);
        assert!(!reply.steps_gel.is_empty());
    }

    /// A model that answers every prompt with one program.
    struct Fixed(&'static str);

    impl dc_nl::LanguageModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn complete(&self, _: &dc_nl::Prompt) -> String {
            self.0.to_string()
        }
    }

    /// An NL program that names an intermediate result and reads it back:
    /// the name is the bound step's result, not a dataset to look up — not
    /// even when it shadows the catalog table the program started from.
    #[test]
    fn an_nl_program_reads_back_the_result_it_binds() {
        let mut p = Platform::new();
        let sales = dc_storage::demo::sales(200, 1);
        let west = (0..sales.num_rows())
            .filter(|&i| sales.value(i, "region").unwrap() == dc_engine::Value::from("west"))
            .count();
        assert!(west > 0);
        let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
        db.create_table("sales", &sales).unwrap();
        p.add_database(db).unwrap();
        let h = p.open_session("ann");
        for program in [
            "west = sales.filter(\"region = 'west'\")\nwest.compute(aggregates = [Count()])",
            "sales = sales.filter(\"region = 'west'\")\nsales.compute(aggregates = [Count()])",
        ] {
            p.nl.model = Box::new(Fixed(program));
            let reply = p.chat(&h, "how many sales were in the west").unwrap();
            assert_eq!(reply.path, ChatPath::Llm);
            let t = reply.output.as_table().unwrap();
            let count = t.row(0).unwrap().last().unwrap().as_i64().unwrap();
            assert_eq!(count, west as i64, "{program}");
        }
    }

    #[test]
    fn save_share_refresh_artifact() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        p.chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
        p.chat(&h, "Keep the rows where party_age is not null")
            .unwrap();
        let a = p.save_artifact(&h, "adults").unwrap();
        assert_eq!(a.version, 1);
        assert!(!a.recipe_gel().is_empty());
        // Share via secret link.
        let link = p.share_artifact_link("adults", Permission::View).unwrap();
        let shared = p.open_shared(&link.key, &link.secret).unwrap();
        assert_eq!(shared.name, "adults");
        assert!(p.open_shared(&link.key, "wrong").is_err());
        // Refresh bumps the version.
        assert_eq!(p.refresh_artifact("adults").unwrap(), 2);
        // Saved artifacts appear on the home screen.
        assert!(p
            .home
            .list("home")
            .unwrap()
            .contains(&dc_collab::FolderEntry::Artifact("adults".into())));
    }

    #[test]
    fn boards_collect_artifacts() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        p.chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
        p.save_artifact(&h, "all-parties").unwrap();
        let board = p.create_board("Q3 readout");
        board.pin_artifact("all-parties", 0, 0, 600, 400);
        board.add_text("Findings below.", 0, 420, 600, 60);
        assert_eq!(
            p.board("Q3 readout").unwrap().artifact_names(),
            vec!["all-parties"]
        );
    }

    #[test]
    fn fault_injection_covers_catalog_and_snapshots() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        let inj = p.enable_fault_injection(dc_storage::FaultConfig {
            scan_transient_p: 1.0,
            ..dc_storage::FaultConfig::disabled()
        });
        let err = p
            .chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap_err();
        assert!(err.to_string().contains("transient"), "got: {err}");
        assert!(inj.stats().transient_injected >= 1);
        p.disable_fault_injection();
        p.chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
    }

    #[test]
    fn analyze_reports_bad_recipe_without_executing() {
        let p = platform_with_collisions();
        let a = p.analyze(
            "Load the table parties from the database MainDatabase\n\
             Keep the rows where bogus > 1\n",
        );
        assert!(a.has_errors());
        let d = &a.with_code(dc_analyze::Code::UnknownColumn)[0];
        assert_eq!(d.span.line, Some(2));
        // A clean program analyzes clean.
        let a = p.analyze("Load the table parties from the database MainDatabase");
        assert!(a.diagnostics.is_empty(), "{}", a.render());
    }

    #[test]
    fn deny_policy_refuses_before_execution() {
        let mut p = platform_with_collisions();
        p.set_analysis_policy(dc_analyze::AnalysisPolicy::Deny);
        assert_eq!(p.analysis_policy(), dc_analyze::AnalysisPolicy::Deny);
        let h = p.open_session("ann");
        let err = p
            .chat(&h, "Load the table ghost from the database MainDatabase")
            .unwrap_err();
        assert!(err.to_string().contains("DC0001"), "{err}");
        // The refusal happened before any node entered the session DAG.
        assert!(h.session.current_node().is_none());
        // Clean programs still execute under Deny.
        p.chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
        assert!(h.session.current_node().is_some());
    }

    #[test]
    fn warn_policy_attaches_diagnostics_but_executes() {
        let mut p = platform_with_collisions();
        // A snapshot shadowing the table name triggers the §3 cost lint:
        // the full scan could be a fixed-cost snapshot read.
        p.env(|env| {
            let t = dc_storage::demo::california_collisions(50, 1).1;
            env.snapshots
                .create("parties", t, "test", vec![], None)
                .unwrap();
        });
        let h = p.open_session("ann");
        let reply = p
            .chat(&h, "Load the table parties from the database MainDatabase")
            .unwrap();
        assert!(reply
            .diagnostics
            .iter()
            .any(|d| d.code == dc_analyze::Code::FullScanCouldSnapshot));
        assert!(reply.output.as_table().is_some());
    }

    #[test]
    fn use_dataset_rewrite_carries_exact_catalog_name() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        // Case-insensitive resolution, exact-cased load.
        let reply = p.chat(&h, "Use the dataset PARTIES").unwrap();
        assert!(
            reply.steps_gel[0].contains("parties from the database MainDatabase"),
            "{:?}",
            reply.steps_gel
        );
        assert!(reply.output.as_table().unwrap().num_rows() >= 300);
    }

    #[test]
    fn sessions_share_materialized_results() {
        let mut p = platform_with_collisions();
        let a = p.open_session("ann");
        let b = p.open_session("bob");
        p.chat(&a, "Load the table parties from the database MainDatabase")
            .unwrap();
        assert!(p.materialized_cache_stats().insertions >= 1);
        let queries_before = p.env(|env| {
            env.catalog
                .database("MainDatabase")
                .unwrap()
                .meter()
                .queries()
        });
        // A different session's executor has a cold local cache, but the
        // shared tier serves the load without touching the catalog.
        let reply = p
            .chat(&b, "Load the table parties from the database MainDatabase")
            .unwrap();
        assert!(reply.output.as_table().unwrap().num_rows() >= 300);
        let queries_after = p.env(|env| {
            env.catalog
                .database("MainDatabase")
                .unwrap()
                .meter()
                .queries()
        });
        assert_eq!(queries_before, queries_after, "warm load must not scan");
        assert!(p.materialized_cache_stats().hits >= 1);
    }

    /// Two platforms on one thread each keep their own world: chat on
    /// the first reads its own catalog after the second is built, and a
    /// database added to the first lands in the first.
    #[test]
    fn two_platforms_on_one_thread_keep_their_own_worlds() {
        let mut first = platform_with_collisions();
        let mut second = Platform::new();
        let (a, b) = (first.open_session("ann"), second.open_session("bob"));
        let load = "Load the table parties from the database MainDatabase";
        assert!(first.chat(&a, load).is_ok());
        assert!(second.chat(&b, load).is_err(), "the second has no tables");

        first
            .add_database(CloudDatabase::new("Extra", Pricing::default_cloud()))
            .unwrap();
        let names = |p: &Platform| p.env(|env| env.catalog.database_names().len());
        assert_eq!((names(&first), names(&second)), (2, 0));
        assert!(first.chat(&a, load).is_ok());
    }

    /// A session handle moved to another thread runs in its platform's
    /// world, not in an empty one.
    #[test]
    fn a_session_handle_on_another_thread_loads_its_platform_table() {
        let mut p = platform_with_collisions();
        let h = p.open_session("ann");
        let rows = std::thread::spawn(move || {
            h.run_gel("Load the table parties from the database MainDatabase")
                .map(|out| out.as_table().unwrap().num_rows())
                .map_err(|err| err.to_string())
        })
        .join()
        .unwrap();
        assert!(rows.unwrap() >= 300);
    }

    #[test]
    fn schema_hints_cover_catalog() {
        let p = platform_with_collisions();
        let hints = p.schema_hints();
        assert!(hints.tables.contains_key("parties"));
        assert!(hints.tables.contains_key("collisions"));
        assert!(hints
            .tables
            .get("parties")
            .unwrap()
            .iter()
            .any(|c| c == "party_sobriety"));
    }
}
