//! What the analyzer knows about the world: each catalog table's stored
//! metadata (`dc_storage::TableMeta`: schema, block zone maps,
//! dictionaries), saved artifacts, snapshots, registered models, and
//! file/URL fixtures.
//!
//! The context is a *pure snapshot* — building it from an [`Env`] reads
//! schemas from stored block metadata, never scans data — so analysis is
//! free under the §3 bytes-scanned cost model.
//!
//! Lookup case-sensitivity mirrors execution exactly: catalog, snapshot,
//! saved-artifact, model, and fixture lookups are exact-match (they back
//! `BTreeMap`/`HashMap` stores at runtime), while bare-name catalog
//! resolution ([`AnalysisContext::any_table`]) is case-insensitive, like
//! the platform's `UseDataset` → `LoadTable` rewrite.

use std::collections::BTreeMap;

use dc_engine::{DataType, Schema};
use dc_skills::Env;
use dc_storage::TableMeta;

/// A model's statically known surface (the contract's [`ModelInfo`]).
pub use dc_skills::ModelInfo;

/// The analyzer's view of the execution environment.
#[derive(Debug, Clone, Default)]
pub struct AnalysisContext {
    /// Catalog tables: (database, table) → the storage layer's resident
    /// metadata (schema, block zone maps, dictionaries).
    tables: BTreeMap<(String, String), TableMeta>,
    /// Saved artifact tables by name.
    saved: BTreeMap<String, Schema>,
    /// Snapshots by name.
    snapshots: BTreeMap<String, Schema>,
    /// Registered models by name.
    models: BTreeMap<String, ModelInfo>,
    /// File fixtures: path → schema (parsed from the CSV header the same
    /// way `LoadFile` will).
    files: BTreeMap<String, Schema>,
    /// URL fixtures: URL → schema.
    urls: BTreeMap<String, Schema>,
    /// The submitting tenant's remaining `ByteBudget`, when known. Gates
    /// the DC0301 predicted-budget-exhaustion lint; `None` disables it.
    remaining_budget: Option<u64>,
    /// Capacity of the shared materialized cache, when known. Gates the
    /// DC0303 uncacheable-result lint; `None` disables it.
    cache_capacity: Option<u64>,
    /// The executor's operator-memory budget (the memory governor's
    /// byte budget), when known. Gates the DC0208 predicted-spill lint;
    /// `None` disables it.
    mem_budget: Option<u64>,
}

impl AnalysisContext {
    /// An empty context (nothing resolves).
    pub fn new() -> AnalysisContext {
        AnalysisContext::default()
    }

    /// Snapshot an execution environment: catalog table metadata, saved
    /// artifacts, snapshots, models, and CSV fixtures.
    pub fn from_env(env: &Env) -> AnalysisContext {
        let mut ctx = AnalysisContext::new();
        for db_name in env.catalog.database_names() {
            let Ok(db) = env.catalog.database(db_name) else {
                continue;
            };
            for table_name in db.table_names() {
                if let Ok(meta) = db.source(table_name) {
                    ctx.add_table(db_name, table_name, meta.clone());
                }
            }
        }
        for (name, table) in env.saved_tables() {
            ctx.add_saved(name, table.schema().clone());
        }
        // `get` (not `read`) so building the context never meters a
        // snapshot read.
        for name in env.snapshots.names() {
            if let Ok(snap) = env.snapshots.get(name) {
                ctx.add_snapshot(name, snap.data.schema().clone());
            }
        }
        for model in env.models() {
            ctx.models.insert(model.name.clone(), ModelInfo::of(model));
        }
        // Fixture schemas come from the same CSV reader `LoadFile`/
        // `LoadUrl` use, so inferred dtypes match execution exactly.
        for (path, text) in env.files() {
            if let Ok(t) = dc_engine::csv::read_csv(text) {
                ctx.files.insert(path.to_string(), t.schema().clone());
            }
        }
        for (url, text) in env.urls() {
            if let Ok(t) = dc_engine::csv::read_csv(text) {
                ctx.urls.insert(url.to_string(), t.schema().clone());
            }
        }
        if let Some(cache) = &env.shared_cache {
            ctx.cache_capacity = Some(cache.capacity_bytes());
        }
        if let Some(memory) = &env.memory {
            ctx.mem_budget = Some(memory.governor.budget());
        }
        ctx
    }

    /// Declare how many budget bytes the submitting tenant has left.
    /// Enables the DC0301 predicted-budget-exhaustion lint.
    pub fn set_remaining_budget(&mut self, bytes: u64) -> &mut Self {
        self.remaining_budget = Some(bytes);
        self
    }

    /// Declare the shared materialized-cache capacity. Enables the
    /// DC0303 uncacheable-result lint. (`from_env` fills this
    /// automatically when the environment carries a shared cache.)
    pub fn set_cache_capacity(&mut self, bytes: u64) -> &mut Self {
        self.cache_capacity = Some(bytes);
        self
    }

    /// The tenant's remaining budget bytes, when declared.
    pub fn remaining_budget(&self) -> Option<u64> {
        self.remaining_budget
    }

    /// The materialized-cache capacity, when known.
    pub fn cache_capacity(&self) -> Option<u64> {
        self.cache_capacity
    }

    /// Declare the executor's operator-memory budget (the byte budget
    /// its memory governor admits transient join/group-by/sort state
    /// against). Enables the DC0208 predicted-spill lint.
    pub fn set_mem_budget(&mut self, bytes: u64) -> &mut Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// The executor's operator-memory budget, when declared.
    pub fn mem_budget(&self) -> Option<u64> {
        self.mem_budget
    }

    /// Register a catalog table by its stored metadata (a
    /// `dc_storage::BlockSource::meta`), schema included.
    pub fn add_table(&mut self, database: &str, table: &str, meta: TableMeta) -> &mut Self {
        self.tables
            .insert((database.to_string(), table.to_string()), meta);
        self
    }

    /// Register a saved artifact table.
    pub fn add_saved(&mut self, name: &str, schema: Schema) -> &mut Self {
        self.saved.insert(name.to_string(), schema);
        self
    }

    /// Register a snapshot.
    pub fn add_snapshot(&mut self, name: &str, schema: Schema) -> &mut Self {
        self.snapshots.insert(name.to_string(), schema);
        self
    }

    /// Register a model.
    pub fn add_model(
        &mut self,
        name: &str,
        target: &str,
        features: Vec<String>,
        output: DataType,
    ) -> &mut Self {
        self.models.insert(
            name.to_string(),
            ModelInfo {
                target: target.to_string(),
                features,
                output,
            },
        );
        self
    }

    /// Register a file fixture by its (exact) path.
    pub fn add_file(&mut self, path: &str, schema: Schema) -> &mut Self {
        self.files.insert(path.to_string(), schema);
        self
    }

    /// Register a URL fixture by its (exact) URL.
    pub fn add_url(&mut self, url: &str, schema: Schema) -> &mut Self {
        self.urls.insert(url.to_string(), schema);
        self
    }

    /// Look up a catalog table (exact names, like the catalog itself).
    pub fn table(&self, database: &str, table: &str) -> Option<&TableMeta> {
        self.tables.get(&(database.to_string(), table.to_string()))
    }

    /// Look up a catalog table by bare name across all databases,
    /// case-insensitively (the platform resolves `Use the dataset X`
    /// against the catalog when no binding or artifact matches).
    pub fn any_table(&self, table: &str) -> Option<&TableMeta> {
        self.tables
            .iter()
            .find(|((_, t), _)| t.eq_ignore_ascii_case(table))
            .map(|(_, v)| v)
    }

    /// Look up a saved artifact (exact name, like `Env::saved_table`).
    pub fn saved(&self, name: &str) -> Option<&Schema> {
        self.saved.get(name)
    }

    /// Look up a snapshot (exact name, like the snapshot store).
    pub fn snapshot(&self, name: &str) -> Option<&Schema> {
        self.snapshots.get(name)
    }

    /// The exact name of a snapshot matching `name` case-insensitively,
    /// if one exists — used by the could-read-a-snapshot cost lint.
    pub fn snapshot_like(&self, name: &str) -> Option<&str> {
        self.snapshots
            .keys()
            .find(|k| k.eq_ignore_ascii_case(name))
            .map(|k| k.as_str())
    }

    /// Look up a model (exact name, like the model registry).
    pub fn model(&self, name: &str) -> Option<&ModelInfo> {
        self.models.get(name)
    }

    /// Look up a file fixture schema.
    pub fn file(&self, path: &str) -> Option<&Schema> {
        self.files.get(path)
    }

    /// Look up a URL fixture schema.
    pub fn url(&self, url: &str) -> Option<&Schema> {
        self.urls.get(url)
    }
}

/// The context's sources as the skill contracts read them.
impl dc_skills::Sources for AnalysisContext {
    fn file_schema(&self, path: &str) -> Option<Schema> {
        self.file(path).cloned()
    }
    fn url_schema(&self, url: &str) -> Option<Schema> {
        self.url(url).cloned()
    }
    fn saved_schema(&self, name: &str) -> Option<Schema> {
        self.saved(name).cloned()
    }
    fn snapshot_schema(&self, name: &str) -> Option<Schema> {
        self.snapshot(name).cloned()
    }
    fn model_info(&self, name: &str) -> Option<ModelInfo> {
        self.model(name).cloned()
    }
}

/// The optimizer reads the same catalog metadata the live [`Env`] hands
/// out, so the estimation pass prices the *same* rewritten plan the
/// executor runs.
impl dc_skills::PlanStats for AnalysisContext {
    fn table_meta(&self, database: &str, table: &str) -> Option<&TableMeta> {
        self.table(database, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{DataType, Field};
    use dc_storage::{CloudDatabase, Pricing};

    #[test]
    fn from_env_snapshots_catalog_and_fixtures() {
        let mut env = Env::new();
        let t = dc_engine::csv::read_csv("region,price\nwest,1.5\neast,2.0\n").unwrap();
        let mut db = CloudDatabase::new("Main", Pricing::default_cloud());
        db.create_table_with_blocks("sales", &t, 1).unwrap();
        let dir = std::env::temp_dir().join(format!("dc-analyze-ctx-{}", std::process::id()));
        db.create_table_on_disk("sales_disk", &t, 1, &dir).unwrap();
        env.catalog.add_database(db).unwrap();
        env.add_file("nums.csv", "x,y\n1,2\n");
        env.snapshots
            .create("snap", t.clone(), "test", vec![], None)
            .unwrap();
        env.save_table("kept", t.clone());

        let ctx = AnalysisContext::from_env(&env);
        let meta = ctx.table("Main", "sales").expect("exact lookup");
        assert_eq!(meta.schema().field("price").unwrap().dtype, DataType::Float);
        assert_eq!(meta.num_rows(), 2);
        assert_eq!(meta.num_blocks(), 2);
        assert!(meta.total_bytes() > 0);
        assert_eq!(meta.dict_sizes(), [("region".to_string(), 2)]);
        // Per-block zone detail rides along for the estimator.
        assert_eq!(meta.blocks()[0].rows, 1);
        assert_eq!(meta.blocks()[0].columns.len(), 2);
        // A disk-backed table hands out the same metadata as its
        // in-memory twin, per-block detail included.
        let disk = ctx.table("Main", "sales_disk").expect("disk table");
        assert_eq!(disk, meta);
        // Exact-match mirrors the catalog; bare-name resolution is the
        // case-insensitive platform path.
        assert!(ctx.table("main", "SALES").is_none());
        assert!(ctx.any_table("SALES").is_some());
        assert_eq!(
            ctx.file("nums.csv").unwrap().field("x").unwrap().dtype,
            DataType::Int
        );
        assert!(ctx.snapshot("snap").is_some());
        assert!(ctx.snapshot("SNAP").is_none());
        assert_eq!(ctx.snapshot_like("SNAP"), Some("snap"));
        assert!(ctx.saved("kept").is_some());
        assert!(ctx.saved("other").is_none());
        // Dropping the catalog removes the block file it owns.
        drop(env);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn builders_roundtrip() {
        let mut ctx = AnalysisContext::new();
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        ctx.add_saved("Art", schema.clone())
            .add_model("m", "a", vec![], DataType::Float)
            .add_url("http://x/y.csv", schema);
        assert!(ctx.saved("Art").is_some());
        assert_eq!(ctx.model("m").unwrap().target, "a");
        assert!(ctx.url("http://x/y.csv").is_some());
        assert!(ctx.url("http://other").is_none());
    }
}
