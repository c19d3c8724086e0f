//! The execution environment skills run against.
//!
//! Bundles everything outside the DAG itself: the cloud-database catalog,
//! the snapshot store, a virtual file/URL system (this reproduction runs
//! offline — `Load data from the URL ...` resolves against registered
//! fixtures), trained models, and the semantic-layer phrase definitions
//! created by the `Define` skill.

use std::collections::HashMap;
use std::sync::Arc;

use dc_engine::Table;
use dc_ml::Model;
use dc_storage::{CancelToken, Catalog, ScanReceipt, SnapshotStore};

use crate::cache::MaterializedCache;
use crate::error::{Result, SkillError};
use crate::skill::SkillCall;

/// Running totals of storage-scan traffic for one environment.
///
/// Every table scan a skill performs adds its receipt here; the
/// driver snapshots the tally around each node to attribute
/// bytes (scanned and zone-map-pruned) per node in its report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanTally {
    /// Bytes charged by scans so far.
    pub bytes_scanned: u64,
    /// Bytes zone-map pruning avoided charging so far.
    pub bytes_pruned: u64,
}

impl ScanTally {
    /// Fold one scan receipt into the totals.
    pub fn record(&mut self, receipt: &ScanReceipt) {
        self.bytes_scanned += receipt.bytes_scanned;
        self.bytes_pruned += receipt.bytes_pruned;
    }

    /// The traffic that happened after `earlier` was captured.
    pub fn delta_since(&self, earlier: ScanTally) -> ScanTally {
        ScanTally {
            bytes_scanned: self.bytes_scanned.saturating_sub(earlier.bytes_scanned),
            bytes_pruned: self.bytes_pruned.saturating_sub(earlier.bytes_pruned),
        }
    }
}

/// Mutable world state for skill execution.
#[derive(Debug, Default)]
pub struct Env {
    /// Cloud databases.
    pub catalog: Catalog,
    /// The fixed-cost local snapshot store.
    pub snapshots: SnapshotStore,
    /// Cooperative-cancellation handle threaded into storage scans. The
    /// driver arms it with each node's wall-clock budget when its policy
    /// has one; unarmed it never fires.
    pub cancel: CancelToken,
    /// Scan-traffic totals across every table load this environment ran.
    pub scan_tally: ScanTally,
    /// Cross-session materialized sub-DAG cache (tier two above each
    /// executor's per-run cache). `None` (the default) disables sharing;
    /// the platform installs one handle here for every session it hosts.
    /// All environments sharing a handle must view the same logical
    /// catalog — version-salted keys handle mutation, not divergence.
    pub shared_cache: Option<Arc<MaterializedCache>>,
    /// Who shared-cache traffic is attributed to. A serving layer sets
    /// this to the tenant name before running a job so
    /// [`MaterializedCache`] per-tenant stats know which tenant's probes
    /// hit and how many scan bytes each hit saved. `None` (the default)
    /// books traffic under the aggregate counters only.
    pub attribution: Option<String>,
    /// Out-of-core memory context: a [`MemContext`] carries the memory
    /// governor, spill directory, spill metrics and fault hooks. `None`
    /// (the default) means unbounded in-memory execution — join,
    /// group-by and sort never spill. The driver installs
    /// one for the run when [`crate::resilient::ExecPolicy::mem_budget`] is set.
    ///
    /// [`MemContext`]: dc_engine::MemContext
    pub memory: Option<Arc<dc_engine::MemContext>>,
    /// Virtual filesystem: path → CSV text.
    files: HashMap<String, String>,
    /// Virtual network: URL → CSV text.
    urls: HashMap<String, String>,
    /// Trained models by name.
    models: HashMap<String, Model>,
    /// Semantic-layer phrase definitions (`Define` skill).
    definitions: HashMap<String, String>,
    /// Saved artifacts' tabular payloads by name (the collab layer adds
    /// richer artifact metadata on top).
    saved: HashMap<String, Table>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Register a CSV fixture for `LoadFile`.
    pub fn add_file(&mut self, path: impl Into<String>, csv_text: impl Into<String>) {
        self.files.insert(path.into(), csv_text.into());
    }

    /// Register a CSV fixture for `LoadUrl`.
    pub fn add_url(&mut self, url: impl Into<String>, csv_text: impl Into<String>) {
        self.urls.insert(url.into(), csv_text.into());
    }

    /// Fetch a file fixture.
    pub fn file(&self, path: &str) -> Result<&str> {
        self.files
            .get(path)
            .map(|s| s.as_str())
            .ok_or_else(|| SkillError::SourceNotFound {
                name: path.to_string(),
            })
    }

    /// All registered file fixtures, sorted by path.
    pub fn files(&self) -> Vec<(&str, &str)> {
        let mut v: Vec<(&str, &str)> = self
            .files
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        v.sort();
        v
    }

    /// All registered URL fixtures, sorted by URL.
    pub fn urls(&self) -> Vec<(&str, &str)> {
        let mut v: Vec<(&str, &str)> = self
            .urls
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        v.sort();
        v
    }

    /// Fetch a URL fixture.
    pub fn url(&self, url: &str) -> Result<&str> {
        self.urls
            .get(url)
            .map(|s| s.as_str())
            .ok_or_else(|| SkillError::SourceNotFound {
                name: url.to_string(),
            })
    }

    /// Store a trained model (replacing any same-named model).
    pub fn put_model(&mut self, model: Model) {
        self.models.insert(model.name.clone(), model);
    }

    /// Fetch a model.
    pub fn model(&self, name: &str) -> Result<&Model> {
        self.models
            .get(name)
            .ok_or_else(|| SkillError::ModelNotFound {
                name: name.to_string(),
            })
    }

    /// Model names (sorted).
    pub fn model_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.models.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// All trained models, sorted by name.
    pub fn models(&self) -> Vec<&Model> {
        let mut v: Vec<&Model> = self.models.values().collect();
        v.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Record a `Define` phrase.
    pub fn define(&mut self, phrase: impl Into<String>, expansion: impl Into<String>) {
        self.definitions
            .insert(phrase.into().to_lowercase(), expansion.into());
    }

    /// Look up a defined phrase (case-insensitive).
    pub fn definition(&self, phrase: &str) -> Option<&str> {
        self.definitions
            .get(&phrase.to_lowercase())
            .map(|s| s.as_str())
    }

    /// All phrase definitions (sorted by phrase).
    pub fn definitions(&self) -> Vec<(&str, &str)> {
        let mut v: Vec<(&str, &str)> = self
            .definitions
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        v.sort();
        v
    }

    /// Persist a saved artifact's table payload.
    pub fn save_table(&mut self, name: impl Into<String>, table: Table) {
        self.saved.insert(name.into(), table);
    }

    /// All saved artifact tables, sorted by name.
    pub fn saved_tables(&self) -> Vec<(&str, &Table)> {
        let mut v: Vec<(&str, &Table)> = self.saved.iter().map(|(k, v)| (k.as_str(), v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Fetch a saved artifact's table payload.
    pub fn saved_table(&self, name: &str) -> Result<&Table> {
        self.saved
            .get(name)
            .ok_or_else(|| SkillError::DatasetNotFound {
                name: name.to_string(),
            })
    }
}

/// `Use the dataset X` of a catalog table becomes a load of it, unless a
/// saved dataset is named `X` (the runtime reads that first, as the
/// analyzer does). `X` matches case-insensitively (chat is forgiving), but
/// the load carries the catalog's exact name: storage lookups are exact.
/// Chat and `dc-serve` pass a program's steps through this before planning.
pub fn rewrite_use_dataset(call: &mut SkillCall, env: &Env) {
    let SkillCall::UseDataset { name, .. } = call else {
        return;
    };
    let catalog = &env.catalog;
    let load = catalog.database_names().into_iter().find_map(|db| {
        let tables = catalog.database(db).ok()?.table_names();
        let table = tables.into_iter().find(|t| t.eq_ignore_ascii_case(name))?;
        Some(SkillCall::load_table(db, table))
    });
    match load {
        Some(load) if !env.saved.contains_key(name.as_str()) => *call = load,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_and_url_fixtures() {
        let mut env = Env::new();
        env.add_file("data.csv", "a\n1\n");
        env.add_url("https://example.com/x.csv", "b\n2\n");
        assert_eq!(env.file("data.csv").unwrap(), "a\n1\n");
        assert!(env.file("missing.csv").is_err());
        assert!(env.url("https://example.com/x.csv").is_ok());
        assert!(env.url("https://other").is_err());
    }

    #[test]
    fn definitions_case_insensitive() {
        let mut env = Env::new();
        env.define("Successful Purchases", "PurchaseStatus = 'Successful'");
        assert_eq!(
            env.definition("successful purchases").unwrap(),
            "PurchaseStatus = 'Successful'"
        );
        assert!(env.definition("other").is_none());
        assert_eq!(env.definitions().len(), 1);
    }

    #[test]
    fn models_roundtrip() {
        let mut env = Env::new();
        assert!(env.model("m").is_err());
        let t = dc_engine::Table::new(vec![
            ("x", dc_engine::Column::from_ints((0..10).collect())),
            (
                "y",
                dc_engine::Column::from_floats((0..10).map(|i| i as f64).collect()),
            ),
        ])
        .unwrap();
        let m =
            dc_ml::train_model(&t, "m", "y", &["x".to_string()], dc_ml::MlMethod::Auto).unwrap();
        env.put_model(m);
        assert!(env.model("m").is_ok());
        assert_eq!(env.model_names(), vec!["m"]);
    }
}
