//! # dc-storage — simulated cloud database & snapshot store
//!
//! Reproduces the storage-facing machinery of §3 of the paper:
//!
//! * [`block::BlockTable`] — tables stored in fixed-size row blocks, with
//!   scans that report exactly what they read; [`block::plan_scan`] is the
//!   one decision of what a scan reads and charges, for both backends and
//!   for the static estimator
//! * [`pricing`] — consumption-based vs fixed pricing, and a thread-safe
//!   [`pricing::CostMeter`] so every experiment can report dollars
//! * [`catalog`] — named databases and a multi-source catalog
//! * [`snapshot`] — the fixed-cost local snapshot store, with recipes and
//!   refresh
//! * [`demo`] — synthetic stand-ins for the paper's datasets (California
//!   collisions, FRED GDP, IoT readings, sales, HR)
//! * [`fault`] — seeded deterministic fault injection (transient scan
//!   failures, slow blocks, snapshot-write failures) plus cooperative
//!   cancellation, feeding the resilient executor in `dc-skills`
//! * [`budget`] — per-tenant scan-byte token buckets, denominated in
//!   receipt bytes, that the serving layer meters admission against
//!
//! The central reproduction target: block-level sampling reads a fraction
//! of blocks and therefore costs proportionally less, while row-level
//! sampling reads everything; snapshots move iteration off the metered
//! cloud path entirely.

pub mod block;
pub mod budget;
pub mod catalog;
pub mod demo;
pub mod disk;
pub mod error;
pub mod fault;
pub mod pricing;
pub mod snapshot;
pub mod spill;

pub use block::{plan_scan, BlockSource, BlockStats, BlockTable, ScanOptions, ScanPlan, TableMeta};
pub use budget::{BudgetConfig, ByteBudget};
pub use catalog::{Catalog, CloudDatabase, DatasetInfo, DEFAULT_BLOCK_ROWS};
pub use disk::DiskBlockTable;
pub use error::{Result, StorageError};
pub use fault::{
    CancelToken, FaultConfig, FaultInjector, FaultOp, FaultStats, InjectedFault, ScheduledFault,
};
pub use pricing::{CostMeter, Pricing, ScanReceipt};
pub use snapshot::{Snapshot, SnapshotStore};
pub use spill::InjectedSpillHooks;
