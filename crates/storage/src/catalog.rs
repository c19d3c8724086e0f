//! Database catalog: named databases holding block tables, each with a
//! pricing model and a cost meter.

use std::collections::BTreeMap;
use std::sync::Arc;

use dc_engine::Table;

use crate::block::{run_blocks, run_scan, BlockSource, BlockTable, ScanOptions, TableMeta};
use crate::disk::DiskBlockTable;
use crate::error::{Result, StorageError};
use crate::fault::FaultInjector;
use crate::pricing::{CostMeter, Pricing, ScanReceipt};

/// Default rows per storage block (small enough that modest demo tables
/// still split into many blocks).
pub const DEFAULT_BLOCK_ROWS: usize = 4096;

/// A stored table, whichever backend holds its blocks.
#[derive(Debug)]
enum Stored {
    Ram(BlockTable),
    /// Footer resident, payload paged in per scan.
    Disk(DiskBlockTable),
}

impl Stored {
    fn source(&self) -> &dyn BlockSource {
        match self {
            Stored::Ram(t) => t,
            Stored::Disk(t) => t,
        }
    }
}

/// A simulated database instance: tables, pricing, and a meter.
#[derive(Debug)]
pub struct CloudDatabase {
    name: String,
    pricing: Pricing,
    tables: BTreeMap<String, Stored>,
    meter: Arc<CostMeter>,
    injector: Option<Arc<FaultInjector>>,
    /// Monotonic counter driving per-table versions. Never reused, so a
    /// dropped-and-recreated table gets a strictly newer version than any
    /// earlier incarnation.
    version_counter: u64,
    /// Current version of each live table (absent once dropped).
    versions: BTreeMap<String, u64>,
}

impl CloudDatabase {
    /// Create an empty database with the given pricing.
    pub fn new(name: impl Into<String>, pricing: Pricing) -> CloudDatabase {
        CloudDatabase {
            name: name.into(),
            pricing,
            tables: BTreeMap::new(),
            meter: Arc::new(CostMeter::new()),
            injector: None,
            version_counter: 0,
            versions: BTreeMap::new(),
        }
    }

    /// Route every scan through `injector` (chaos testing). Pass the same
    /// handle to several databases/stores to share one fault schedule.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Remove the fault injector, restoring fault-free scans.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pricing model.
    pub fn pricing(&self) -> Pricing {
        self.pricing
    }

    /// Shared handle to the cost meter.
    pub fn meter(&self) -> Arc<CostMeter> {
        Arc::clone(&self.meter)
    }

    /// Register a table, splitting it into default-size blocks.
    pub fn create_table(&mut self, name: impl Into<String>, table: &Table) -> Result<()> {
        self.create_table_with_blocks(name, table, DEFAULT_BLOCK_ROWS)
    }

    /// Register a table with an explicit block size.
    pub fn create_table_with_blocks(
        &mut self,
        name: impl Into<String>,
        table: &Table,
        block_rows: usize,
    ) -> Result<()> {
        let name = self.vacant(name.into())?;
        let stored = Stored::Ram(BlockTable::new(table, block_rows)?);
        self.insert(name, stored);
        Ok(())
    }

    /// Register a table backed by the on-disk block format: its payload
    /// lives in a block file under `dir` and is paged in per scan, with
    /// only the footer (schema, dictionaries, zone maps) resident. Scans
    /// dispatch transparently by name, so callers cannot tell the
    /// backends apart except through `bytes_read` on the receipt.
    pub fn create_table_on_disk(
        &mut self,
        name: impl Into<String>,
        table: &Table,
        block_rows: usize,
        dir: &std::path::Path,
    ) -> Result<()> {
        let name = self.vacant(name.into())?;
        std::fs::create_dir_all(dir).map_err(|e| {
            StorageError::invalid(format!("cannot create disk-table dir {dir:?}: {e}"))
        })?;
        let path = dir.join(format!("{}.{}.dcb", self.name, name));
        let stored = Stored::Disk(DiskBlockTable::create(path, table, block_rows)?);
        self.insert(name, stored);
        Ok(())
    }

    /// `name`, if no table holds it yet.
    fn vacant(&self, name: String) -> Result<String> {
        match self.tables.contains_key(&name) {
            true => Err(StorageError::AlreadyExists { name }),
            false => Ok(name),
        }
    }

    fn insert(&mut self, name: String, stored: Stored) {
        self.tables.insert(name.clone(), stored);
        self.version_counter += 1;
        self.versions.insert(name, self.version_counter);
    }

    /// Drop a table (either backend; disk-backed files are removed).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| self.not_found(name))?;
        // Bump the counter so any future recreation under the same name
        // is distinguishable from the dropped incarnation.
        self.version_counter += 1;
        self.versions.remove(name);
        Ok(())
    }

    /// Current version of a live table, if it exists. Versions are
    /// monotonic across the whole database: every `create_table` /
    /// `drop_table` advances an internal counter, so a version uniquely
    /// identifies one incarnation of a table's contents. Cache keys built
    /// from `(name, version)` therefore go stale exactly when the data
    /// could have changed.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        self.versions.get(name).copied()
    }

    /// Table names in sorted order (both backends).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    fn not_found(&self, name: &str) -> StorageError {
        StorageError::TableNotFound {
            database: self.name.clone(),
            name: name.to_string(),
        }
    }

    fn stored(&self, name: &str) -> Result<&Stored> {
        self.tables.get(name).ok_or_else(|| self.not_found(name))
    }

    /// Access a stored in-memory table's block structure.
    pub fn table(&self, name: &str) -> Result<&BlockTable> {
        match self.stored(name)? {
            Stored::Ram(t) => Ok(t),
            Stored::Disk(_) => Err(self.not_found(name)),
        }
    }

    /// Access a disk-backed table's structure, if `name` is disk-backed.
    pub fn disk_table(&self, name: &str) -> Result<&DiskBlockTable> {
        match self.stored(name)? {
            Stored::Disk(t) => Ok(t),
            Stored::Ram(_) => Err(self.not_found(name)),
        }
    }

    /// The resident metadata of a stored table, whichever backend holds
    /// it: what planning and analysis read without scanning.
    pub fn source(&self, name: &str) -> Result<&TableMeta> {
        Ok(self.stored(name)?.source().meta())
    }

    /// Scan a table (either backend), recording the cost on the database
    /// meter and pricing the receipt.
    pub fn scan(&self, table: &str, opts: &ScanOptions) -> Result<(Table, ScanReceipt)> {
        self.meter_scan(|source, injector| run_scan(source, opts, injector), table)
    }

    /// [`CloudDatabase::scan`] that hands every scanned part to `step`
    /// inside the job that fetched it, returning the steps' results in
    /// plan order (one over the empty table when every block is pruned)
    /// instead of stitching the parts: how a caller runs per-block work
    /// — a block pipeline — on the scan's own pool jobs. Metered, faulted
    /// and cancelled exactly as [`CloudDatabase::scan`].
    pub fn scan_blocks<P: Send>(
        &self,
        table: &str,
        opts: &ScanOptions,
        step: &(dyn Fn(Table) -> P + Sync),
    ) -> Result<(Vec<P>, ScanReceipt)> {
        self.meter_scan(
            |source, injector| run_blocks(source, opts, injector, step),
            table,
        )
    }

    /// Run one scan of `table` and charge its receipt to the meter.
    fn meter_scan<T>(
        &self,
        scan: impl FnOnce(&dyn BlockSource, Option<&FaultInjector>) -> Result<(T, ScanReceipt)>,
        table: &str,
    ) -> Result<(T, ScanReceipt)> {
        let source = self.stored(table)?.source();
        let (data, mut receipt) = scan(source, self.injector.as_deref())?;
        receipt.cost_dollars = self.pricing.scan_cost(receipt.bytes_scanned);
        self.meter.record(
            &self.pricing,
            receipt.bytes_scanned,
            receipt.rows_scanned,
            receipt.blocks_scanned,
        );
        Ok((data, receipt))
    }

    /// Dataset listing matching the Figure 1 UI panel: name, rows,
    /// columns, column names, sorted by name.
    pub fn dataset_listing(&self) -> Vec<DatasetInfo> {
        let listing = self.tables.iter().map(|(name, stored)| {
            let meta = stored.source().meta();
            let columns: Vec<String> = meta
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            DatasetInfo {
                database: self.name.clone(),
                dataset_name: name.clone(),
                num_rows: meta.num_rows(),
                num_columns: columns.len(),
                columns,
            }
        });
        listing.collect()
    }
}

/// One row of the dataset listing panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    pub database: String,
    pub dataset_name: String,
    pub num_rows: usize,
    pub num_columns: usize,
    pub columns: Vec<String>,
}

/// A catalog of databases (the multi-source connectivity of §1: users can
/// connect to databases, CSV files, or a combination).
#[derive(Debug, Default)]
pub struct Catalog {
    databases: BTreeMap<String, CloudDatabase>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Add a database, replacing nothing.
    pub fn add_database(&mut self, db: CloudDatabase) -> Result<()> {
        if self.databases.contains_key(db.name()) {
            return Err(StorageError::AlreadyExists {
                name: db.name().to_string(),
            });
        }
        self.databases.insert(db.name().to_string(), db);
        Ok(())
    }

    /// Look up a database.
    pub fn database(&self, name: &str) -> Result<&CloudDatabase> {
        self.databases
            .get(name)
            .ok_or_else(|| StorageError::DatabaseNotFound {
                name: name.to_string(),
            })
    }

    /// Mutable lookup.
    pub fn database_mut(&mut self, name: &str) -> Result<&mut CloudDatabase> {
        self.databases
            .get_mut(name)
            .ok_or_else(|| StorageError::DatabaseNotFound {
                name: name.to_string(),
            })
    }

    /// Database names in sorted order.
    pub fn database_names(&self) -> Vec<&str> {
        self.databases.keys().map(|s| s.as_str()).collect()
    }

    /// Install one shared fault injector on every database in the
    /// catalog (newly added databases are NOT retroactively covered).
    pub fn set_fault_injector(&mut self, injector: &Arc<FaultInjector>) {
        for db in self.databases.values_mut() {
            db.set_fault_injector(Arc::clone(injector));
        }
    }

    /// Remove fault injectors from every database.
    pub fn clear_fault_injector(&mut self) {
        for db in self.databases.values_mut() {
            db.clear_fault_injector();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Column;

    fn table(n: usize) -> Table {
        Table::new(vec![("v", Column::from_ints((0..n as i64).collect()))]).unwrap()
    }

    fn db() -> CloudDatabase {
        let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
        db.create_table_with_blocks("readings", &table(10_000), 512)
            .unwrap();
        db
    }

    #[test]
    fn create_and_list() {
        let db = db();
        assert_eq!(db.table_names(), vec!["readings"]);
        let listing = db.dataset_listing();
        assert_eq!(listing[0].num_rows, 10_000);
        assert_eq!(listing[0].columns, vec!["v"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        assert!(matches!(
            db.create_table("readings", &table(1)),
            Err(StorageError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn scan_meters_cost() {
        let db = db();
        let (out, receipt) = db.scan("readings", &ScanOptions::full()).unwrap();
        assert_eq!(out.num_rows(), 10_000);
        assert!(receipt.cost_dollars > 0.0);
        assert_eq!(db.meter().queries(), 1);
        assert_eq!(db.meter().bytes(), receipt.bytes_scanned);
    }

    #[test]
    fn block_sample_costs_less_on_meter() {
        let db = db();
        db.scan("readings", &ScanOptions::full()).unwrap();
        let full_cost = db.meter().dollars();
        db.meter().reset();
        db.scan("readings", &ScanOptions::block_sampled(0.1, 5))
            .unwrap();
        let sample_cost = db.meter().dollars();
        assert!(sample_cost < full_cost / 4.0);
    }

    #[test]
    fn missing_table_errors() {
        let db = db();
        assert!(matches!(
            db.scan("nope", &ScanOptions::full()),
            Err(StorageError::TableNotFound { .. })
        ));
    }

    #[test]
    fn drop_table_works() {
        let mut db = db();
        db.drop_table("readings").unwrap();
        assert!(db.table("readings").is_err());
        assert!(db.drop_table("readings").is_err());
    }

    #[test]
    fn table_versions_are_monotonic_across_recreation() {
        let mut db = db();
        let v1 = db.table_version("readings").unwrap();
        assert_eq!(db.table_version("nope"), None);
        db.create_table("other", &table(10)).unwrap();
        let v_other = db.table_version("other").unwrap();
        assert!(v_other > v1);
        db.drop_table("readings").unwrap();
        assert_eq!(db.table_version("readings"), None);
        db.create_table("readings", &table(5)).unwrap();
        let v2 = db.table_version("readings").unwrap();
        // Recreated table is a new incarnation, never a version reuse.
        assert!(v2 > v_other);
        assert!(v2 > v1);
    }

    #[test]
    fn catalog_roundtrip() {
        let mut cat = Catalog::new();
        cat.add_database(db()).unwrap();
        assert!(cat.database("MainDatabase").is_ok());
        assert!(cat.database("Other").is_err());
        assert!(cat.add_database(db()).is_err());
        assert_eq!(cat.database_names(), vec!["MainDatabase"]);
    }

    #[test]
    fn fixed_pricing_meters_zero_dollars() {
        let mut db = CloudDatabase::new("local", Pricing::default_local());
        db.create_table("t", &table(1000)).unwrap();
        db.scan("t", &ScanOptions::full()).unwrap();
        assert_eq!(db.meter().dollars(), 0.0);
        assert!(db.meter().bytes() > 0);
    }

    /// A token that fires between two blocks of a pipelined scan stops it
    /// at the next block boundary with the retryable `Transient`, and the
    /// blocks after that boundary never reach the step.
    #[test]
    fn a_token_fired_between_blocks_of_a_pipelined_scan_is_transient() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let db = db();
        let token = crate::CancelToken::new();
        let opts = ScanOptions {
            cancel: Some(token.clone()),
            ..ScanOptions::full()
        };
        let steps = AtomicUsize::new(0);
        let step = |part: Table| {
            if steps.fetch_add(1, Ordering::SeqCst) == 1 {
                token.cancel();
            }
            part.num_rows()
        };
        let rows = |part: Table| part.num_rows();
        let (rows, _) = db
            .scan_blocks("readings", &ScanOptions::full(), &rows)
            .unwrap();
        assert_eq!((rows.len(), rows.iter().sum::<usize>()), (20, 10_000));
        let err = db.scan_blocks("readings", &opts, &step).unwrap_err();
        assert!(
            matches!(err, StorageError::Transient { .. }) && err.is_retryable(),
            "{err:?}"
        );
        // 10 000 rows are under the dispatch threshold, so the blocks run
        // inline in plan order: the first two ran the step, the third
        // checked the token.
        assert_eq!(steps.load(Ordering::SeqCst), 2);
        assert_eq!(db.meter().queries(), 1, "a cancelled scan charges nothing");
    }
}
