//! What the analyzer knows about the world: catalog table schemas and
//! block stats, saved artifacts, snapshots, registered models, and
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

use dc_engine::{ColumnStats, DataType, Schema};
use dc_skills::Env;
use dc_storage::{plan_scan, ScanOptions, ScanPlan, TableMeta};

/// Zone-map statistics for one stored block, as the storage layer keeps
/// them resident.
pub use dc_storage::BlockStats;

/// Storage-layer statistics for one catalog table, lifted from
/// `dc-storage` block metadata. This is what the cost lints price scans
/// with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Rows stored.
    pub rows: usize,
    /// Immutable blocks (micro-partitions); block sampling reads a
    /// fraction of these.
    pub blocks: usize,
    /// Total stored bytes — the full-scan price.
    pub bytes: u64,
    /// Dictionary cardinality of each dictionary-encoded string column.
    /// High cardinality (≈ row count) means the encoding buys nothing;
    /// the DC0203 lint flags it.
    pub dict_sizes: Vec<(String, usize)>,
    /// Per-block zone-map detail, in block order. Empty when unknown
    /// (builder-made contexts); the estimator then degrades to the
    /// whole-table bound instead of pruning.
    pub block_stats: Vec<BlockStats>,
    /// Per-column shared-dictionary bytes, in schema order (zero for
    /// non-dict columns). Empty when unknown.
    pub dict_bytes: Vec<u64>,
}

impl TableStats {
    /// Lift the full statistics of a stored table of either backend —
    /// whole-table counters plus the per-block zone maps the estimator
    /// prices scans with. Reads only resident metadata, never block
    /// payloads.
    pub fn from_block_table(t: &TableMeta) -> TableStats {
        TableStats {
            rows: t.num_rows(),
            blocks: t.num_blocks(),
            bytes: t.total_bytes(),
            dict_sizes: t.dict_sizes().to_vec(),
            block_stats: t.blocks().to_vec(),
            dict_bytes: t.dict_bytes().to_vec(),
        }
    }

    /// The storage layer's own plan of a scan of this table under `opts`
    /// ([`plan_scan`]): what it charges and each block's verdict. `None`
    /// when the stats carry no complete per-block detail for `schema`
    /// (builder-made contexts), which is when estimates degrade.
    pub(crate) fn scan_plan<'a>(
        &self,
        schema: &Schema,
        opts: &'a ScanOptions,
    ) -> Option<ScanPlan<'a>> {
        let cols = schema.fields().len();
        let detail = !self.block_stats.is_empty()
            && self.block_stats.len() == self.blocks
            && self.dict_bytes.len() == cols
            && self
                .block_stats
                .iter()
                .all(|b| b.columns.len() == cols && b.data_bytes.len() == cols);
        detail
            .then(|| plan_scan(schema, &self.block_stats, &self.dict_bytes, opts).ok())
            .flatten()
    }
}

/// A model's statically known surface (the contract's [`ModelInfo`]).
pub use dc_skills::ModelInfo;

/// The analyzer's view of the execution environment.
#[derive(Debug, Clone, Default)]
pub struct AnalysisContext {
    /// Catalog tables: (database, table) → typed schema + stats.
    tables: BTreeMap<(String, String), (Schema, TableStats)>,
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

    /// Snapshot an execution environment: catalog schemas and block
    /// stats, saved artifacts, snapshots, models, and CSV fixtures.
    pub fn from_env(env: &Env) -> AnalysisContext {
        let mut ctx = AnalysisContext::new();
        for db_name in env.catalog.database_names() {
            let Ok(db) = env.catalog.database(db_name) else {
                continue;
            };
            for table_name in db.table_names() {
                if let Ok(t) = db.source(table_name) {
                    let stats = TableStats::from_block_table(t);
                    ctx.add_table(db_name, table_name, t.schema().clone(), stats);
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

    /// Register a catalog table.
    pub fn add_table(
        &mut self,
        database: &str,
        table: &str,
        schema: Schema,
        stats: TableStats,
    ) -> &mut Self {
        self.tables
            .insert((database.to_string(), table.to_string()), (schema, stats));
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
    pub fn table(&self, database: &str, table: &str) -> Option<&(Schema, TableStats)> {
        self.tables.get(&(database.to_string(), table.to_string()))
    }

    /// Look up a catalog table by bare name across all databases,
    /// case-insensitively (the platform resolves `Use the dataset X`
    /// against the catalog when no binding or artifact matches).
    pub fn any_table(&self, table: &str) -> Option<&(Schema, TableStats)> {
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

/// The static half of the plan-time statistics contract: the analyzer's
/// snapshot answers the optimizer's questions exactly the way the live
/// [`Env`] does (same schema source, same dictionary cardinalities, same
/// per-block uniqueness proof), so the estimation pass prices the *same*
/// rewritten plan the executor runs.
impl dc_skills::PlanStats for AnalysisContext {
    fn table_schema(&self, database: &str, table: &str) -> Option<Schema> {
        self.table(database, table).map(|(s, _)| s.clone())
    }

    fn table_rows(&self, database: &str, table: &str) -> Option<u64> {
        self.table(database, table).map(|(_, st)| st.rows as u64)
    }

    fn column_distinct(&self, database: &str, table: &str, column: &str) -> Option<u64> {
        let (_, st) = self.table(database, table)?;
        st.dict_sizes
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(column))
            .map(|(_, n)| *n as u64)
    }

    fn column_unique(&self, database: &str, table: &str, column: &str) -> bool {
        let Some((schema, st)) = self.table(database, table) else {
            return false;
        };
        let Some(ci) = schema.index_of(column) else {
            return false;
        };
        let stats: Vec<ColumnStats> = st
            .block_stats
            .iter()
            .filter_map(|b| b.columns.get(ci).cloned())
            .collect();
        if stats.len() != st.block_stats.len() || st.block_stats.is_empty() {
            return false;
        }
        if stats.iter().map(|s| s.null_count).sum::<u64>() == 0 {
            if let Some((_, dict)) = st
                .dict_sizes
                .iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(column))
            {
                if *dict == st.rows {
                    return true;
                }
            }
        }
        dc_skills::int_blocks_unique(&stats)
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
        let (schema, stats) = ctx.table("Main", "sales").expect("exact lookup");
        assert_eq!(schema.field("price").unwrap().dtype, DataType::Float);
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.blocks, 2);
        assert!(stats.bytes > 0);
        assert_eq!(stats.dict_sizes, vec![("region".to_string(), 2)]);
        // Per-block zone detail rides along for the estimator.
        assert_eq!(stats.block_stats.len(), 2);
        assert_eq!(stats.block_stats[0].rows, 1);
        assert_eq!(stats.block_stats[0].columns.len(), 2);
        assert_eq!(stats.dict_bytes.len(), 2);
        assert_eq!(
            stats.bytes,
            stats
                .block_stats
                .iter()
                .flat_map(|b| &b.data_bytes)
                .sum::<u64>()
                + stats.dict_bytes.iter().sum::<u64>()
        );
        // A disk-backed table lifts the same statistics as its in-memory
        // twin, per-block detail included.
        let (disk_schema, disk_stats) = ctx.table("Main", "sales_disk").expect("disk table");
        assert_eq!(disk_schema, schema);
        assert_eq!(disk_stats, stats);
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
