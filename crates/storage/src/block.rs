//! Block-structured table storage.
//!
//! Cloud warehouses store tables in immutable blocks (micro-partitions);
//! scans charge for every block touched. Splitting stored tables into
//! fixed-size row blocks here gives the paper's block-level sampling (§3)
//! a real mechanism: sampling 10% of *blocks* scans ~10% of the bytes,
//! whereas row-level Bernoulli sampling still scans everything.

use std::sync::Arc;

use dc_engine::blockio::{compute_zone, ZoneBoundsIo, ZoneInfo};
use dc_engine::eval::eval_predicate_serial;
use dc_engine::expr::prune::{self, ColumnStats, Tri};
use dc_engine::ops::sample_fraction;
use dc_engine::{Expr, Table, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::error::{Result, StorageError};
use crate::fault::{CancelToken, FaultInjector};
use crate::pricing::ScanReceipt;

/// What one unpruned block contributes to a scan, shared by the in-RAM
/// and the on-disk backend: row-sample, evaluate the pushed predicate once,
/// then gather only the projected columns through that one selection, so a
/// column only the predicate needed is never copied — and a block no row of
/// which is dropped contributes its columns as they stand, shared. `block`
/// holds at least the projected and the predicate's columns; `predicate` is
/// `None` when nothing was pushed or the zone maps proved every row matches.
pub(crate) fn scan_block(
    block: &Table,
    row_sample: Option<(f64, u64)>,
    predicate: Option<&Expr>,
    projection: Option<&[&str]>,
) -> dc_engine::Result<Table> {
    let sampled;
    let block = match row_sample {
        Some((fraction, seed)) => {
            sampled = sample_fraction(block, fraction, seed)?;
            &sampled
        }
        None => block,
    };
    // Row-level evaluation errors (e.g. cross-type comparisons) must
    // surface from the caller's own filter for correct attribution; the
    // block passes through unfiltered in that case.
    let mask = predicate.and_then(|p| eval_predicate_serial(block, p).ok());
    match (mask, projection) {
        (Some(mask), Some(cols)) => block.select_filtered(cols, &mask),
        (Some(mask), None) => block.filter_mask(&mask),
        (None, Some(cols)) => block.select(cols),
        (None, None) => Ok(block.clone()),
    }
}

/// The blocks a scan visits: all `nblocks`, or the seeded block sample —
/// never empty, so samples of tiny tables still return rows.
pub(crate) fn chosen_blocks(opts: &ScanOptions, nblocks: usize) -> Result<Vec<usize>> {
    let Some(f) = opts.block_sample else {
        return Ok((0..nblocks).collect());
    };
    if !(f > 0.0 && f <= 1.0) {
        return Err(StorageError::invalid(format!(
            "block sample fraction must be in (0, 1], got {f}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let picked: Vec<usize> = (0..nblocks).filter(|_| rng.random::<f64>() < f).collect();
    Ok(match picked.is_empty() && nblocks > 0 {
        true => vec![opts.seed as usize % nblocks],
        false => picked,
    })
}

/// The pushed predicate a scan honours and the columns (by schema index) it
/// must read: the projection — every column when absent — plus whatever the
/// predicate consults. A predicate naming a column the table does not have
/// would error differently here than in the caller's own filter; it is
/// ignored, and the caller surfaces the problem.
pub(crate) fn scan_columns<'a>(
    opts: &'a ScanOptions,
    schema: &dc_engine::Schema,
) -> (Option<&'a Expr>, Vec<usize>) {
    let mut pred_cols = Vec::new();
    if let Some(p) = &opts.predicate {
        p.referenced_columns(&mut pred_cols);
    }
    let known = pred_cols.iter().all(|c| schema.index_of(c).is_some());
    let predicate = opts.predicate.as_ref().filter(|_| known);
    let mut read_cols: Vec<usize> = match &opts.columns {
        Some(cols) => cols.iter().filter_map(|c| schema.index_of(c)).collect(),
        None => (0..schema.fields().len()).collect(),
    };
    if predicate.is_some() {
        for i in pred_cols.iter().filter_map(|c| schema.index_of(c)) {
            if !read_cols.contains(&i) {
                read_cols.push(i);
            }
        }
    }
    (predicate, read_cols)
}

/// The metadata a stored table keeps resident, whichever backend holds
/// its blocks ([`BlockTable`] in RAM, [`crate::DiskBlockTable`] in a block
/// file): schema, per-block row and byte counts, zone maps and dictionary
/// sizes. The optimizer's statistics and the analyzer's snapshot read a
/// catalog table through this ([`crate::CloudDatabase::source`]), so they
/// answer the same for both backends. Nothing here touches block payloads.
pub trait BlockSource {
    /// The stored table's typed schema.
    fn schema(&self) -> &dc_engine::Schema;
    /// Number of blocks.
    fn num_blocks(&self) -> usize;
    /// Rows stored in block `bi`.
    fn block_rows(&self, bi: usize) -> usize;
    /// Per-column logical payload bytes of block `bi`, dictionaries
    /// excluded.
    fn block_data_bytes(&self, bi: usize) -> Vec<u64>;
    /// Per-column shared-dictionary bytes (zero for non-dict columns).
    fn dict_byte_sizes(&self) -> &[u64];
    /// Name and dictionary cardinality of each dictionary-encoded column.
    fn dict_sizes(&self) -> Vec<(String, usize)>;
    /// Zone-map statistics for block `bi`, column `ci`.
    fn column_stats(&self, bi: usize, ci: usize) -> ColumnStats;

    /// Total rows stored.
    fn num_rows(&self) -> usize {
        (0..self.num_blocks()).map(|bi| self.block_rows(bi)).sum()
    }
    /// Total logical bytes: every block's payload plus each shared
    /// dictionary once — what a full scan charges.
    fn total_bytes(&self) -> u64 {
        let payload: u64 = (0..self.num_blocks())
            .map(|bi| self.block_data_bytes(bi).iter().sum::<u64>())
            .sum();
        payload + self.dict_byte_sizes().iter().sum::<u64>()
    }
}

impl BlockSource for BlockTable {
    fn schema(&self) -> &dc_engine::Schema {
        self.schema()
    }
    fn num_blocks(&self) -> usize {
        self.num_blocks()
    }
    fn block_rows(&self, bi: usize) -> usize {
        self.block_rows(bi)
    }
    fn block_data_bytes(&self, bi: usize) -> Vec<u64> {
        self.block_data_bytes(bi).to_vec()
    }
    fn dict_byte_sizes(&self) -> &[u64] {
        self.dict_byte_sizes()
    }
    fn dict_sizes(&self) -> Vec<(String, usize)> {
        self.dict_sizes()
    }
    fn column_stats(&self, bi: usize, ci: usize) -> ColumnStats {
        self.column_stats(bi, ci)
    }
}

/// A stored table split into fixed-size row blocks.
///
/// Blocks are immutable and held behind [`Arc`], so cloning a
/// `BlockTable` (snapshots, catalog copies) shares the block data instead
/// of duplicating it.
#[derive(Debug, Clone)]
pub struct BlockTable {
    blocks: Vec<Arc<Table>>,
    /// Per block, per column: payload bytes excluding dictionary heap
    /// (codes + validity for dict columns). Dictionaries are accounted
    /// separately in `dict_bytes` because blocks share them.
    data_bytes: Vec<Vec<u64>>,
    /// Per column: heap bytes of its shared dictionary (0 for non-dict
    /// columns), charged at most once per scan that reads the column.
    dict_bytes: Vec<u64>,
    /// Per block, per column: zone maps for predicate pruning.
    zones: Vec<Vec<ZoneInfo>>,
    rows: usize,
    schema_names: Vec<String>,
}

/// How to scan a [`BlockTable`].
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Project to these columns at the storage layer (columnar engines
    /// charge only for columns read).
    pub columns: Option<Vec<String>>,
    /// Block-level sampling: read only ~this fraction of blocks.
    pub block_sample: Option<f64>,
    /// Row-level Bernoulli sampling applied to every scanned block. This
    /// does NOT reduce scan cost — the contrast with `block_sample` is the
    /// point of the §3 experiment.
    pub row_sample: Option<f64>,
    /// Filter predicate pushed into the scan. Blocks whose zone maps
    /// prove no row can match are skipped and charged zero bytes; blocks
    /// proven all-matching skip row-level filtering; the rest are read
    /// and filtered. The output equals scanning without the predicate
    /// and filtering afterwards, with two caveats: a predicate naming a
    /// column absent from the table is ignored (no pruning, no
    /// filtering), and a block where row-level evaluation errors is
    /// passed through unfiltered — so the caller's own filter, not the
    /// scan, surfaces predicate errors.
    pub predicate: Option<Expr>,
    /// Seed for the sampling choices.
    pub seed: u64,
    /// Cooperative-cancellation handle: the scan checks it at block
    /// boundaries (and inside injected stalls) and aborts with a
    /// retryable [`StorageError::Transient`] once it fires.
    pub cancel: Option<CancelToken>,
}

impl ScanOptions {
    /// A full-table scan.
    pub fn full() -> ScanOptions {
        ScanOptions::default()
    }

    /// Block-level sample at `fraction`.
    pub fn block_sampled(fraction: f64, seed: u64) -> ScanOptions {
        ScanOptions {
            block_sample: Some(fraction),
            seed,
            ..ScanOptions::default()
        }
    }

    /// Row-level Bernoulli sample at `fraction`.
    pub fn row_sampled(fraction: f64, seed: u64) -> ScanOptions {
        ScanOptions {
            row_sample: Some(fraction),
            seed,
            ..ScanOptions::default()
        }
    }
}

impl BlockTable {
    /// Split `table` into blocks of `block_rows` rows. String columns are
    /// dictionary-encoded first, so every block carries `u32` codes and
    /// shares one table-wide dictionary allocation. Zone maps (per-block
    /// min/max, null counts) are computed here, once, so scans can prune
    /// blocks with metadata alone.
    pub fn new(table: &Table, block_rows: usize) -> Result<BlockTable> {
        if block_rows == 0 {
            return Err(StorageError::invalid("block_rows must be positive"));
        }
        let table = table.encode_strings();
        let rows = table.num_rows();
        let mut blocks = Vec::with_capacity(rows.div_ceil(block_rows).max(1));
        if rows == 0 {
            blocks.push(Arc::new(table.clone()));
        } else {
            let mut start = 0;
            while start < rows {
                blocks.push(Arc::new(table.slice(start, block_rows)));
                start += block_rows;
            }
        }
        let data_bytes = blocks
            .iter()
            .map(|b| {
                b.columns()
                    .iter()
                    .map(|c| (c.byte_size() - c.dict_heap_bytes()) as u64)
                    .collect()
            })
            .collect();
        // All blocks share one dictionary per string column, so block 0
        // describes the whole table's dictionary footprint.
        let dict_bytes = blocks[0]
            .columns()
            .iter()
            .map(|c| c.dict_heap_bytes() as u64)
            .collect();
        let zones = blocks
            .iter()
            .map(|b| b.columns().iter().map(|c| compute_zone(c)).collect())
            .collect();
        Ok(BlockTable {
            data_bytes,
            dict_bytes,
            zones,
            rows,
            schema_names: table
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            blocks,
        })
    }

    /// Total rows stored.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total stored bytes: every block's payload plus each shared
    /// dictionary once.
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes.iter().flatten().sum::<u64>() + self.dict_bytes.iter().sum::<u64>()
    }

    /// Zone-map statistics for block `bi`, column `ci`, in the form the
    /// tri-state evaluator consumes. Dictionary code bounds translate to
    /// their strings here (the dictionary is sorted, so the code range
    /// *is* the string range). Public so the static estimator can price a
    /// scan with exactly the statistics the scan itself prunes by.
    pub fn column_stats(&self, bi: usize, ci: usize) -> ColumnStats {
        let zone = &self.zones[bi][ci];
        let block = &self.blocks[bi];
        let col = &block.columns()[ci];
        let (min, max) = match &zone.bounds {
            ZoneBoundsIo::None => (None, None),
            ZoneBoundsIo::Values { min, max } => (Some(min.clone()), Some(max.clone())),
            ZoneBoundsIo::DictCodes { min, max } => {
                let (_, dict, _) = col.as_dict().expect("DictCodes zone on non-dict column");
                (
                    Some(Value::Str(dict[*min as usize].clone())),
                    Some(Value::Str(dict[*max as usize].clone())),
                )
            }
        };
        ColumnStats {
            dtype: block.schema().fields()[ci].dtype,
            min,
            max,
            null_count: zone.null_count,
            row_count: block.num_rows() as u64,
        }
    }

    /// Column names.
    pub fn column_names(&self) -> &[String] {
        &self.schema_names
    }

    /// Rows stored in block `bi`.
    pub fn block_rows(&self, bi: usize) -> usize {
        self.blocks[bi].num_rows()
    }

    /// Per-column payload bytes of block `bi` (dictionaries excluded —
    /// they are shared table-wide and reported by [`dict_byte_sizes`]).
    ///
    /// [`dict_byte_sizes`]: BlockTable::dict_byte_sizes
    pub fn block_data_bytes(&self, bi: usize) -> &[u64] {
        &self.data_bytes[bi]
    }

    /// Per-column shared-dictionary bytes (zero for non-dict columns),
    /// charged once per scan that touches any block.
    pub fn dict_byte_sizes(&self) -> &[u64] {
        &self.dict_bytes
    }

    /// The stored table's typed schema. Constructors always push at
    /// least one block (an empty table is stored as one empty block), so
    /// the first block's schema is the table's schema.
    pub fn schema(&self) -> &dc_engine::Schema {
        self.blocks[0].schema()
    }

    /// Shared handle to block `i`'s data — a pointer copy, not a clone.
    pub fn block(&self, i: usize) -> Option<Arc<Table>> {
        self.blocks.get(i).map(Arc::clone)
    }

    /// Name and dictionary cardinality of each dictionary-encoded column.
    /// Blocks share one table-wide dictionary per string column, so the
    /// first block's dictionaries describe the whole table.
    pub fn dict_sizes(&self) -> Vec<(String, usize)> {
        self.schema_names
            .iter()
            .zip(self.blocks[0].columns())
            .filter_map(|(name, col)| col.as_dict().map(|(_, dict, _)| (name.clone(), dict.len())))
            .collect()
    }

    /// Scan under `opts`, returning the data plus a receipt of what was
    /// actually read.
    pub fn scan(&self, opts: &ScanOptions) -> Result<(Table, ScanReceipt)> {
        self.scan_with(opts, None)
    }

    /// [`BlockTable::scan`] with an optional fault injector in the path:
    /// the injector sees the scan start plus every block read, which is
    /// where transient failures and slow blocks strike.
    pub fn scan_with(
        &self,
        opts: &ScanOptions,
        injector: Option<&FaultInjector>,
    ) -> Result<(Table, ScanReceipt)> {
        let cancel = opts.cancel.as_ref();
        if let Some(inj) = injector {
            inj.on_scan(opts.block_sample.is_some(), cancel)?;
        }
        let chosen = chosen_blocks(opts, self.blocks.len())?;
        let projected: Option<Vec<&str>> = opts
            .columns
            .as_ref()
            .map(|cols| cols.iter().map(|s| s.as_str()).collect());
        let schema = self.schema();
        let (predicate, read_cols) = scan_columns(opts, schema);
        let read_data_bytes =
            |bi: usize| -> u64 { read_cols.iter().map(|&ci| self.data_bytes[bi][ci]).sum() };

        // A block nothing is dropped from contributes its own columns, so
        // a scan that ends with one such part returns them shared; several
        // parts pay the one contiguous `concat`.
        let mut parts: Vec<Table> = Vec::with_capacity(chosen.len());
        let mut bytes = 0u64;
        let mut rows_scanned = 0u64;
        let mut blocks_scanned = 0u64;
        let mut blocks_pruned = 0u64;
        let mut bytes_pruned = 0u64;
        for &bi in &chosen {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(StorageError::Transient {
                        operation: "scan".to_string(),
                        message: "cancelled: node budget exhausted".to_string(),
                    });
                }
            }
            let block = &self.blocks[bi];
            // Zone-map check: a metadata-only decision made before the
            // block is read, so pruned blocks cost nothing and never see
            // injected block-read faults.
            let verdict = match predicate {
                Some(_) if block.num_rows() == 0 => Tri::AllFalse,
                Some(p) => {
                    let lookup =
                        |name: &str| schema.index_of(name).map(|ci| self.column_stats(bi, ci));
                    prune::prune_predicate(p, &lookup)
                }
                None => Tri::Unknown,
            };
            if predicate.is_some() && verdict == Tri::AllFalse {
                blocks_pruned += 1;
                bytes_pruned += read_data_bytes(bi);
                continue;
            }
            if let Some(inj) = injector {
                inj.on_block_read(cancel)?;
            }
            bytes += read_data_bytes(bi);
            rows_scanned += block.num_rows() as u64;
            blocks_scanned += 1;
            let part = scan_block(
                block,
                opts.row_sample
                    .map(|f| (f, opts.seed.wrapping_add(bi as u64))),
                predicate.filter(|_| verdict != Tri::AllTrue),
                projected.as_deref(),
            )?;
            parts.push(part);
        }
        // Each shared dictionary is read once per scan that touches any
        // block of its column; a fully pruned column never loads it.
        let read_dict_bytes: u64 = read_cols.iter().map(|&ci| self.dict_bytes[ci]).sum();
        if blocks_scanned > 0 {
            bytes += read_dict_bytes;
        } else if blocks_pruned > 0 {
            bytes_pruned += read_dict_bytes;
        }
        let out = if parts.is_empty() {
            let mut empty = self.blocks[0].slice(0, 0);
            if let Some(cols) = &projected {
                empty = empty.select(cols)?;
            }
            empty
        } else {
            dc_engine::ops::concat(&parts.iter().collect::<Vec<_>>(), false)?
        };
        Ok((
            out,
            ScanReceipt {
                bytes_scanned: bytes,
                // In-memory blocks: every logical byte scanned is resident.
                bytes_read: bytes,
                rows_scanned,
                blocks_scanned,
                total_blocks: self.blocks.len() as u64,
                blocks_pruned,
                bytes_pruned,
                cost_dollars: 0.0, // filled in by the database, which knows pricing
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::ops::filter_serial;
    use dc_engine::Column;

    fn t(n: usize) -> Table {
        Table::new(vec![
            ("x", Column::from_ints((0..n as i64).collect())),
            (
                "y",
                Column::from_ints((0..n as i64).map(|v| v * 2).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn blocking_shape() {
        let bt = BlockTable::new(&t(1050), 100).unwrap();
        assert_eq!(bt.num_blocks(), 11);
        assert_eq!(bt.num_rows(), 1050);
        assert!(bt.total_bytes() > 0);
    }

    #[test]
    fn zero_block_rows_rejected() {
        assert!(BlockTable::new(&t(10), 0).is_err());
    }

    #[test]
    fn full_scan_returns_everything() {
        let bt = BlockTable::new(&t(250), 64).unwrap();
        let (out, receipt) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(out.num_rows(), 250);
        assert_eq!(receipt.blocks_scanned, receipt.total_blocks);
        assert_eq!(receipt.rows_scanned, 250);
    }

    #[test]
    fn block_sample_scans_fraction_of_bytes() {
        let bt = BlockTable::new(&t(100_000), 1000).unwrap();
        let (_, full) = bt.scan(&ScanOptions::full()).unwrap();
        let (out, sampled) = bt.scan(&ScanOptions::block_sampled(0.1, 7)).unwrap();
        // ~10% of the blocks, hence ~10% of the bytes.
        let ratio = sampled.bytes_scanned as f64 / full.bytes_scanned as f64;
        assert!((0.05..0.2).contains(&ratio), "ratio {ratio}");
        assert!(out.num_rows() > 0);
        assert!(sampled.blocks_scanned < full.blocks_scanned / 5);
    }

    #[test]
    fn row_sample_scans_everything() {
        let bt = BlockTable::new(&t(10_000), 500).unwrap();
        let (out, receipt) = bt.scan(&ScanOptions::row_sampled(0.1, 3)).unwrap();
        // Cost unchanged: every block read.
        assert_eq!(receipt.blocks_scanned, receipt.total_blocks);
        // But output is ~10% of rows.
        assert!((500..2000).contains(&out.num_rows()), "{}", out.num_rows());
    }

    #[test]
    fn projection_reduces_bytes() {
        let bt = BlockTable::new(&t(10_000), 500).unwrap();
        let (_, full) = bt.scan(&ScanOptions::full()).unwrap();
        let opts = ScanOptions {
            columns: Some(vec!["x".into()]),
            ..ScanOptions::default()
        };
        let (out, projected) = bt.scan(&opts).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert!(projected.bytes_scanned < full.bytes_scanned);
    }

    #[test]
    fn block_sample_never_empty() {
        let bt = BlockTable::new(&t(100), 100).unwrap(); // one block
        let (out, receipt) = bt.scan(&ScanOptions::block_sampled(0.01, 9)).unwrap();
        assert_eq!(receipt.blocks_scanned, 1);
        assert_eq!(out.num_rows(), 100);
    }

    #[test]
    fn block_sample_deterministic() {
        let bt = BlockTable::new(&t(50_000), 1000).unwrap();
        let a = bt.scan(&ScanOptions::block_sampled(0.2, 11)).unwrap().0;
        let b = bt.scan(&ScanOptions::block_sampled(0.2, 11)).unwrap().0;
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_fraction_rejected() {
        let bt = BlockTable::new(&t(100), 10).unwrap();
        assert!(bt.scan(&ScanOptions::block_sampled(0.0, 1)).is_err());
        assert!(bt.scan(&ScanOptions::block_sampled(1.5, 1)).is_err());
    }

    #[test]
    fn clone_shares_block_allocations() {
        let bt = BlockTable::new(&t(1000), 100).unwrap();
        let copy = bt.clone();
        for i in 0..bt.num_blocks() {
            assert!(Arc::ptr_eq(&bt.block(i).unwrap(), &copy.block(i).unwrap()));
        }
        assert!(bt.block(bt.num_blocks()).is_none());
    }

    fn str_table(n: usize) -> Table {
        Table::new(vec![
            ("id", Column::from_ints((0..n as i64).collect())),
            (
                "region",
                Column::from_strs(
                    (0..n)
                        .map(|i| format!("region_{:02}", i % 8))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn string_blocks_are_dictionary_encoded_and_cheaper() {
        let t = str_table(10_000);
        let bt = BlockTable::new(&t, 500).unwrap();
        // Every block's string column is encoded and shares block 0's dict.
        let first = bt.block(0).unwrap();
        let (_, first_dict, _) = first.column("region").unwrap().as_dict().unwrap();
        for i in 0..bt.num_blocks() {
            let block = bt.block(i).unwrap();
            let (_, dict, _) = block.column("region").unwrap().as_dict().unwrap();
            assert!(Arc::ptr_eq(first_dict, dict), "block {i} has its own dict");
        }
        assert_eq!(bt.dict_sizes(), vec![("region".to_string(), 8)]);
        // Charging the shared dictionary once makes the stored footprint
        // smaller than the plain-string encoding of the same data.
        let plain_bytes = t.materialize_strings().byte_size() as u64;
        assert!(
            bt.total_bytes() < plain_bytes,
            "dict {} vs plain {plain_bytes}",
            bt.total_bytes()
        );
        // And a full scan returns the same logical rows.
        let (out, receipt) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(out, t.encode_strings());
        assert_eq!(receipt.bytes_scanned, bt.total_bytes());
    }

    fn with_predicate(p: Expr) -> ScanOptions {
        ScanOptions {
            predicate: Some(p),
            ..ScanOptions::default()
        }
    }

    #[test]
    fn selective_predicate_prunes_blocks_and_charges_zero_for_them() {
        // x is sorted, so zone maps are tight: x BETWEEN 500 AND 509
        // lives entirely in one 100-row block.
        let bt = BlockTable::new(&t(1000), 100).unwrap();
        let pred = Expr::col("x").between(Expr::lit(500), Expr::lit(509));
        let (out, receipt) = bt.scan(&with_predicate(pred.clone())).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(receipt.blocks_scanned, 1);
        assert_eq!(receipt.blocks_pruned, 9);
        assert_eq!(receipt.rows_scanned, 100);
        // Pruned + scanned accounts for exactly the unpruned cost.
        let (_, full) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(
            receipt.bytes_scanned + receipt.bytes_pruned,
            full.bytes_scanned
        );
        assert!(receipt.bytes_scanned < full.bytes_scanned / 5);
        assert!(receipt.bytes_read <= receipt.bytes_scanned);
        // Same rows as filtering after a full, unpruned scan.
        let (all, _) = bt.scan(&ScanOptions::full()).unwrap();
        let expect = filter_serial(&all, &pred).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn all_blocks_pruned_yields_empty_table_and_zero_bytes() {
        let bt = BlockTable::new(&t(1000), 100).unwrap();
        let (out, receipt) = bt
            .scan(&with_predicate(Expr::col("x").gt(Expr::lit(10_000))))
            .unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 2);
        assert_eq!(receipt.blocks_scanned, 0);
        assert_eq!(receipt.blocks_pruned, receipt.total_blocks);
        assert_eq!(receipt.bytes_scanned, 0);
        assert_eq!(receipt.bytes_read, 0);
        assert_eq!(receipt.bytes_pruned, bt.total_bytes());
    }

    #[test]
    fn dict_predicate_prunes_via_code_ranges() {
        // Clustered keys: each 100-row block covers one key, so an
        // equality predicate prunes every other block via dictionary
        // code ranges without touching block data.
        let t = Table::new(vec![(
            "k",
            Column::from_strs(
                (0..1000)
                    .map(|i| format!("key_{:02}", i / 100))
                    .collect::<Vec<_>>(),
            ),
        )])
        .unwrap();
        let bt = BlockTable::new(&t, 100).unwrap();
        let pred = Expr::col("k").eq(Expr::lit(Value::Str("key_03".into())));
        let (out, receipt) = bt.scan(&with_predicate(pred.clone())).unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(receipt.blocks_pruned, 9);
        let (all, full) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(out, filter_serial(&all, &pred).unwrap());
        assert!(receipt.bytes_scanned < full.bytes_scanned);
    }

    #[test]
    fn predicate_on_unknown_column_is_ignored() {
        let bt = BlockTable::new(&t(500), 100).unwrap();
        let (out, receipt) = bt
            .scan(&with_predicate(Expr::col("bogus").gt(Expr::lit(3))))
            .unwrap();
        assert_eq!(out.num_rows(), 500);
        assert_eq!(receipt.blocks_pruned, 0);
        assert_eq!(receipt.bytes_scanned, bt.total_bytes());
    }

    #[test]
    fn erroring_predicate_passes_blocks_through_unfiltered() {
        // Str column vs Int literal errors in the engine; the scan must
        // neither prune nor filter, leaving the error to the caller.
        let bt = BlockTable::new(&str_table(300), 100).unwrap();
        let pred = Expr::col("region").gt(Expr::lit(5));
        let (out, receipt) = bt.scan(&with_predicate(pred)).unwrap();
        assert_eq!(out.num_rows(), 300);
        assert_eq!(receipt.blocks_pruned, 0);
    }

    #[test]
    fn null_blocks_prune_conservatively() {
        // Rows 0..200 have values, 200..300 are all null: x > 1000 can
        // prune everything (null rows never match), IS NULL keeps only
        // the null block.
        let vals: Vec<Option<i64>> = (0..300)
            .map(|i| if i < 200 { Some(i) } else { None })
            .collect();
        let t = Table::new(vec![("x", Column::from_opt_ints(vals))]).unwrap();
        let bt = BlockTable::new(&t, 100).unwrap();
        let (out, receipt) = bt
            .scan(&with_predicate(Expr::col("x").gt(Expr::lit(1000))))
            .unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(receipt.blocks_pruned, 3);
        let (out, receipt) = bt.scan(&with_predicate(Expr::col("x").is_null())).unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(receipt.blocks_pruned, 2);
    }

    #[test]
    fn predicate_composes_with_row_sampling() {
        // Sampling happens before the pushed filter, so the result is
        // identical to sampling without a predicate and filtering after.
        let bt = BlockTable::new(&t(10_000), 500).unwrap();
        let pred = Expr::col("x").lt(Expr::lit(1000));
        let mut opts = ScanOptions::row_sampled(0.2, 3);
        opts.predicate = Some(pred.clone());
        let (out, receipt) = bt.scan(&opts).unwrap();
        let (all, _) = bt.scan(&ScanOptions::row_sampled(0.2, 3)).unwrap();
        assert_eq!(out, filter_serial(&all, &pred).unwrap());
        assert!(receipt.blocks_pruned > 0);
    }

    #[test]
    fn dictionaries_charged_only_for_columns_actually_read() {
        let t = str_table(10_000);
        let bt = BlockTable::new(&t, 500).unwrap();
        let dict_heap = bt
            .block(0)
            .unwrap()
            .column("region")
            .unwrap()
            .dict_heap_bytes() as u64;
        assert!(dict_heap > 0);
        // Projecting the int column away from the dict column must not
        // charge the dictionary.
        let opts = ScanOptions {
            columns: Some(vec!["id".into()]),
            ..ScanOptions::default()
        };
        let (_, ints_only) = bt.scan(&opts).unwrap();
        let opts = ScanOptions {
            columns: Some(vec!["region".into()]),
            ..ScanOptions::default()
        };
        let (_, strs_only) = bt.scan(&opts).unwrap();
        let (_, full) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(
            ints_only.bytes_scanned + strs_only.bytes_scanned,
            full.bytes_scanned
        );
        // The dictionary is part of the string column's charge only.
        assert!(strs_only.bytes_scanned > dict_heap);
        assert_eq!(
            full.bytes_scanned - ints_only.bytes_scanned,
            strs_only.bytes_scanned
        );
        // A predicate over the dict column forces its read (and its
        // dictionary charge) even when the projection excludes it.
        let opts = ScanOptions {
            columns: Some(vec!["id".into()]),
            predicate: Some(Expr::col("region").eq(Expr::lit(Value::Str("region_03".into())))),
            ..ScanOptions::default()
        };
        let (out, with_pred) = bt.scan(&opts).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert_eq!(with_pred.bytes_scanned, full.bytes_scanned);
        assert_eq!(out.num_rows(), 10_000 / 8);
    }

    #[test]
    fn dict_sizes_empty_without_string_columns() {
        let bt = BlockTable::new(&t(100), 10).unwrap();
        assert!(bt.dict_sizes().is_empty());
    }

    #[test]
    fn empty_table_scans_empty() {
        let bt = BlockTable::new(&t(0), 10).unwrap();
        let (out, receipt) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(receipt.rows_scanned, 0);
    }
}
