//! Snapshots: cached copies of cloud tables/queries in a fixed-cost local
//! store (§3).
//!
//! A snapshot is an artifact — it carries the recipe that produced it, so
//! it can be refreshed from the source and shared among collaborators.
//! Iterating against a snapshot costs nothing marginal; re-running the
//! expensive upstream pipeline is only needed on refresh.

use std::collections::BTreeMap;
use std::sync::Arc;

use dc_engine::Table;

use crate::error::{Result, StorageError};
use crate::fault::FaultInjector;
use crate::pricing::{CostMeter, Pricing};

/// A cached local copy of a (possibly sampled, possibly derived) cloud
/// table, plus the provenance needed to refresh it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub name: String,
    pub data: Table,
    /// GEL recipe text that produced this snapshot (one step per line).
    pub recipe: Vec<String>,
    /// Source description, e.g. `MainDatabase.readings`.
    pub source: String,
    /// Sampling fraction applied at creation, if any.
    pub sample_fraction: Option<f64>,
    /// Monotonic refresh counter.
    pub version: u64,
}

/// The local, fixed-cost snapshot store.
#[derive(Debug)]
pub struct SnapshotStore {
    pricing: Pricing,
    snapshots: BTreeMap<String, Snapshot>,
    meter: Arc<CostMeter>,
    /// Soft capacity in bytes (the paper notes snapshots are "often small,
    /// less than 100GB" and live on a fixed-cost instance).
    capacity_bytes: u64,
    injector: Option<Arc<FaultInjector>>,
    /// Monotonic counter driving store-wide snapshot versions: every
    /// committed write (create or refresh) advances it, so a
    /// `(name, store version)` pair identifies one immutable snapshot
    /// state even across delete-and-recreate.
    version_counter: u64,
    /// Current store version of each live snapshot (absent once deleted).
    versions: BTreeMap<String, u64>,
}

impl SnapshotStore {
    /// A store with the default local pricing and a 100 GB soft capacity.
    pub fn new() -> SnapshotStore {
        SnapshotStore::with_capacity(100 * 1024 * 1024 * 1024)
    }

    /// A store with an explicit capacity.
    pub fn with_capacity(capacity_bytes: u64) -> SnapshotStore {
        SnapshotStore {
            pricing: Pricing::default_local(),
            snapshots: BTreeMap::new(),
            meter: Arc::new(CostMeter::new()),
            capacity_bytes,
            injector: None,
            version_counter: 0,
            versions: BTreeMap::new(),
        }
    }

    /// Route snapshot writes through `injector` (chaos testing).
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Remove the fault injector.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// The store's meter (marginal dollars are always zero; bytes/queries
    /// still accumulate for observability).
    pub fn meter(&self) -> Arc<CostMeter> {
        Arc::clone(&self.meter)
    }

    /// Fixed monthly cost of the store.
    pub fn monthly_cost(&self) -> f64 {
        match self.pricing {
            Pricing::FixedMonthly { dollars_per_month } => dollars_per_month,
            Pricing::PerTbScanned { .. } => 0.0,
        }
    }

    /// Create a snapshot. Rejects duplicates and capacity overflows.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        data: Table,
        source: impl Into<String>,
        recipe: Vec<String>,
        sample_fraction: Option<f64>,
    ) -> Result<&Snapshot> {
        let name = name.into();
        if self.snapshots.contains_key(&name) {
            return Err(StorageError::AlreadyExists { name });
        }
        let new_bytes = data.byte_size() as u64;
        if self.used_bytes() + new_bytes > self.capacity_bytes {
            return Err(StorageError::invalid(format!(
                "snapshot {name:?} would exceed store capacity"
            )));
        }
        let snap = Snapshot {
            name: name.clone(),
            data,
            recipe,
            source: source.into(),
            sample_fraction,
            version: 1,
        };
        // Crash-consistency: the write can fail right up to the commit
        // point, after which the snapshot becomes visible atomically. A
        // failed write must leave no trace in the store.
        if let Some(inj) = &self.injector {
            inj.on_snapshot_write()?;
        }
        self.snapshots.insert(name.clone(), snap);
        self.version_counter += 1;
        self.versions.insert(name.clone(), self.version_counter);
        Ok(&self.snapshots[&name])
    }

    /// Read a snapshot's data; free at the margin, metered for visibility.
    pub fn read(&self, name: &str) -> Result<&Table> {
        let snap = self
            .snapshots
            .get(name)
            .ok_or_else(|| StorageError::SnapshotNotFound {
                name: name.to_string(),
            })?;
        self.meter.record(
            &self.pricing,
            snap.data.byte_size() as u64,
            snap.data.num_rows() as u64,
            1,
        );
        Ok(&snap.data)
    }

    /// Snapshot metadata without a metered read.
    pub fn get(&self, name: &str) -> Result<&Snapshot> {
        self.snapshots
            .get(name)
            .ok_or_else(|| StorageError::SnapshotNotFound {
                name: name.to_string(),
            })
    }

    /// Replace a snapshot's data with fresh results (a "refresh"),
    /// bumping its version.
    pub fn refresh(&mut self, name: &str, data: Table) -> Result<u64> {
        let Some(snap) = self.snapshots.get_mut(name) else {
            return Err(StorageError::SnapshotNotFound {
                name: name.to_string(),
            });
        };
        // As in `create`, a failed write commits nothing: the old data
        // and version stay visible.
        if let Some(inj) = &self.injector {
            inj.on_snapshot_write()?;
        }
        snap.data = data;
        snap.version += 1;
        self.version_counter += 1;
        self.versions.insert(name.to_string(), self.version_counter);
        Ok(snap.version)
    }

    /// Delete a snapshot.
    pub fn delete(&mut self, name: &str) -> Result<()> {
        match self.snapshots.remove(name) {
            Some(_) => {
                self.versions.remove(name);
                Ok(())
            }
            None => Err(StorageError::SnapshotNotFound {
                name: name.to_string(),
            }),
        }
    }

    /// Store-wide version of a live snapshot: advances on every committed
    /// write anywhere in the store, so (unlike [`Snapshot::version`], the
    /// per-snapshot refresh count) it never repeats after a
    /// delete-and-recreate under the same name. Cache keys built from
    /// `(name, store version)` go stale exactly when the data could have
    /// changed.
    pub fn snapshot_version(&self, name: &str) -> Option<u64> {
        self.versions.get(name).copied()
    }

    /// Names of stored snapshots.
    pub fn names(&self) -> Vec<&str> {
        self.snapshots.keys().map(|s| s.as_str()).collect()
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.snapshots
            .values()
            .map(|s| s.data.byte_size() as u64)
            .sum()
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Column;

    fn table(n: usize) -> Table {
        Table::new(vec![("v", Column::from_ints((0..n as i64).collect()))]).unwrap()
    }

    fn store_with_snap() -> SnapshotStore {
        let mut s = SnapshotStore::new();
        s.create(
            "iot_sample",
            table(100),
            "MainDatabase.readings",
            vec![
                "Use the dataset readings".into(),
                "Sample 10% of the rows".into(),
            ],
            Some(0.1),
        )
        .unwrap();
        s
    }

    #[test]
    fn create_and_read() {
        let s = store_with_snap();
        let t = s.read("iot_sample").unwrap();
        assert_eq!(t.num_rows(), 100);
        assert_eq!(s.meter().queries(), 1);
        assert_eq!(s.meter().dollars(), 0.0); // fixed pricing
    }

    #[test]
    fn snapshot_carries_recipe() {
        let s = store_with_snap();
        let snap = s.get("iot_sample").unwrap();
        assert_eq!(snap.recipe.len(), 2);
        assert_eq!(snap.sample_fraction, Some(0.1));
        assert_eq!(snap.version, 1);
    }

    #[test]
    fn duplicate_rejected() {
        let mut s = store_with_snap();
        assert!(s.create("iot_sample", table(1), "x", vec![], None).is_err());
    }

    #[test]
    fn refresh_bumps_version() {
        let mut s = store_with_snap();
        let v = s.refresh("iot_sample", table(200)).unwrap();
        assert_eq!(v, 2);
        assert_eq!(s.get("iot_sample").unwrap().data.num_rows(), 200);
        assert!(s.refresh("missing", table(1)).is_err());
    }

    #[test]
    fn delete_and_missing() {
        let mut s = store_with_snap();
        s.delete("iot_sample").unwrap();
        assert!(s.read("iot_sample").is_err());
        assert!(s.delete("iot_sample").is_err());
    }

    #[test]
    fn store_versions_monotonic_across_recreation() {
        let mut s = store_with_snap();
        let v1 = s.snapshot_version("iot_sample").unwrap();
        s.refresh("iot_sample", table(50)).unwrap();
        let v2 = s.snapshot_version("iot_sample").unwrap();
        assert!(v2 > v1);
        s.delete("iot_sample").unwrap();
        assert_eq!(s.snapshot_version("iot_sample"), None);
        s.create("iot_sample", table(10), "src", vec![], None)
            .unwrap();
        let v3 = s.snapshot_version("iot_sample").unwrap();
        // Recreation never reuses an earlier version number.
        assert!(v3 > v2);
        // A failed (injected) write does not advance the visible version.
        use crate::fault::{FaultConfig, FaultInjector, FaultOp, InjectedFault};
        s.set_fault_injector(Arc::new(FaultInjector::new(
            FaultConfig::disabled().schedule(FaultOp::SnapshotWrite, 0, InjectedFault::Transient),
        )));
        assert!(s.refresh("iot_sample", table(5)).is_err());
        assert_eq!(s.snapshot_version("iot_sample"), Some(v3));
    }

    #[test]
    fn capacity_enforced() {
        let mut s = SnapshotStore::with_capacity(64);
        assert!(s.create("big", table(1000), "src", vec![], None).is_err());
        assert_eq!(s.names().len(), 0);
    }

    #[test]
    fn monthly_cost_is_fixed() {
        let s = store_with_snap();
        assert_eq!(s.monthly_cost(), 50.0);
    }

    #[test]
    fn failed_create_leaves_no_partial_snapshot() {
        use crate::fault::{FaultConfig, FaultInjector, FaultOp, InjectedFault};
        let mut s = SnapshotStore::new();
        // First write fails, second succeeds.
        s.set_fault_injector(Arc::new(FaultInjector::new(
            FaultConfig::disabled().schedule(FaultOp::SnapshotWrite, 0, InjectedFault::Transient),
        )));
        let err = s
            .create("snap", table(50), "src", vec!["step".into()], None)
            .unwrap_err();
        assert!(err.is_retryable());
        // Nothing is visible: no name, no bytes, no readable data.
        assert!(s.names().is_empty());
        assert_eq!(s.used_bytes(), 0);
        assert!(s.read("snap").is_err());
        // The retry (same name!) succeeds — the failed write reserved
        // nothing, so it does not collide with itself.
        let snap = s
            .create("snap", table(50), "src", vec!["step".into()], None)
            .unwrap();
        assert_eq!(snap.version, 1);
    }

    #[test]
    fn failed_refresh_preserves_old_data_and_version() {
        use crate::fault::{FaultConfig, FaultInjector, FaultOp, InjectedFault};
        let mut s = store_with_snap();
        s.set_fault_injector(Arc::new(FaultInjector::new(
            FaultConfig::disabled().schedule(FaultOp::SnapshotWrite, 0, InjectedFault::Transient),
        )));
        assert!(s.refresh("iot_sample", table(999)).is_err());
        let snap = s.get("iot_sample").unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.data.num_rows(), 100);
        // Retry succeeds and bumps the version exactly once.
        assert_eq!(s.refresh("iot_sample", table(999)).unwrap(), 2);
        assert_eq!(s.get("iot_sample").unwrap().data.num_rows(), 999);
        // A refresh of a missing snapshot still reports not-found, not a
        // fault, even with the injector installed.
        assert!(matches!(
            s.refresh("missing", table(1)),
            Err(StorageError::SnapshotNotFound { .. })
        ));
    }
}
