//! Block-structured table storage, and the one scan every stored table
//! runs.
//!
//! Cloud warehouses store tables in immutable blocks (micro-partitions);
//! scans charge for every block touched. Splitting stored tables into
//! fixed-size row blocks here gives the paper's block-level sampling (§3)
//! a real mechanism: sampling 10% of *blocks* scans ~10% of the bytes,
//! whereas row-level Bernoulli sampling still scans everything.
//!
//! Both backends — [`BlockTable`] in RAM, [`crate::DiskBlockTable`] in a
//! block file — keep the same resident [`TableMeta`] and differ only in how
//! they fetch a block ([`BlockSource::read_block`]). What a scan reads and
//! charges is decided once, from that metadata alone, by [`plan_scan`]: the
//! scan loop runs the plan, and `dc-analyze`'s estimator prices a load by
//! calling it.

use std::sync::Arc;

use dc_engine::blockio::{compute_zone, ZoneBoundsIo, ZoneInfo};
use dc_engine::eval::eval_predicate_serial;
use dc_engine::expr::prune::{prune_predicate, ColumnStats, Tri};
use dc_engine::ops::sample_fraction;
use dc_engine::parallel::{min_parallel_rows, run_indexed};
use dc_engine::{Expr, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{Result, StorageError};
use crate::fault::{CancelToken, FaultInjector};
use crate::pricing::ScanReceipt;

/// What one unpruned block contributes to a scan: row-sample, evaluate the
/// pushed predicate once, then gather only the projected columns through
/// that one selection, so a column only the predicate needed is never
/// copied — and a block no row of which is dropped contributes its columns
/// as they stand, shared. `block` holds at least the projected and the
/// predicate's columns; `predicate` is `None` when nothing was pushed or
/// the zone maps proved every row matches.
fn scan_block(
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

/// Zone-map statistics for one stored block: the per-column stats the
/// tri-state prune evaluator consumes, plus the block's payload bytes.
/// Columns follow the table's schema order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStats {
    /// Rows stored in the block.
    pub rows: u64,
    /// Per-column payload bytes (shared dictionaries excluded).
    pub data_bytes: Vec<u64>,
    /// Per-column zone-map stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// The metadata a stored table keeps resident, whichever backend holds its
/// blocks. Scans are planned over it, and the optimizer's statistics and
/// the analyzer's snapshot read a catalog table through it
/// ([`crate::CloudDatabase::source`]), so all three answer the same for
/// both backends. Nothing here touches block payloads. Every block and
/// `dict_bytes` hold one entry per schema column, which is what lets a
/// plan index them by the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    schema: Schema,
    blocks: Vec<BlockStats>,
    dict_bytes: Vec<u64>,
    dict_sizes: Vec<(String, usize)>,
}

/// One column of one stored block as a backend describes it: payload
/// bytes, zone map, and the dictionary its codes index (dict columns only).
pub(crate) type StoredColumn<'a> = (u64, ZoneInfo, Option<&'a [String]>);

impl TableMeta {
    /// Lift a stored table's metadata from each block's rows and columns.
    /// The one place a zone map becomes the [`ColumnStats`] pruning reads:
    /// a dictionary code range translates through the block's own sorted
    /// dictionary, so the code range *is* the string range. Blocks share one
    /// table-wide dictionary per string column, so the first block's
    /// dictionaries describe the table.
    pub(crate) fn new(schema: Schema, blocks: Vec<(u64, Vec<StoredColumn>)>) -> TableMeta {
        let fields = schema.fields();
        let dicts: Vec<Option<&[String]>> = match blocks.first() {
            Some((_, cols)) => cols.iter().map(|c| c.2).collect(),
            None => vec![None; fields.len()],
        };
        // `Column::dict_heap_bytes`'s accounting: each string plus its header.
        let heap = |d: &[String]| -> u64 {
            let bytes = d.iter().map(|s| s.len() + std::mem::size_of::<String>());
            bytes.sum::<usize>() as u64
        };
        let dict_bytes = dicts.iter().map(|d| d.map_or(0, heap)).collect();
        let dict_sizes = fields
            .iter()
            .zip(&dicts)
            .filter_map(|(f, d)| Some((f.name.clone(), (*d)?.len())))
            .collect();
        let column = |rows: u64, (_, zone, dict): StoredColumn, dtype| {
            let word = |code: u32| dict?.get(code as usize).map(|s| Value::Str(s.clone()));
            let (min, max) = match zone.bounds {
                ZoneBoundsIo::None => (None, None),
                ZoneBoundsIo::Values { min, max } => (Some(min), Some(max)),
                ZoneBoundsIo::DictCodes { min, max } => (word(min), word(max)),
            };
            ColumnStats {
                dtype,
                min,
                max,
                null_count: zone.null_count,
                row_count: rows,
            }
        };
        let blocks = blocks
            .into_iter()
            .map(|(rows, cols)| BlockStats {
                rows,
                data_bytes: cols.iter().map(|c| c.0).collect(),
                columns: cols
                    .into_iter()
                    .zip(fields)
                    .map(|(c, f)| column(rows, c, f.dtype))
                    .collect(),
            })
            .collect();
        TableMeta {
            schema,
            blocks,
            dict_bytes,
            dict_sizes,
        }
    }

    /// The stored table's typed schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per block: rows, payload bytes and zone maps.
    pub fn blocks(&self) -> &[BlockStats] {
        &self.blocks
    }

    /// Per column: shared-dictionary heap bytes (zero for non-dict
    /// columns), charged at most once per scan that reads the column.
    pub fn dict_bytes(&self) -> &[u64] {
        &self.dict_bytes
    }

    /// Name and dictionary cardinality of each dictionary-encoded column.
    pub fn dict_sizes(&self) -> &[(String, usize)] {
        &self.dict_sizes
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total rows stored.
    pub fn num_rows(&self) -> usize {
        self.blocks.iter().map(|b| b.rows as usize).sum()
    }

    /// Total logical bytes: every block's payload plus each shared
    /// dictionary once — what a full scan charges.
    pub fn total_bytes(&self) -> u64 {
        let payload: u64 = self.blocks.iter().flat_map(|b| &b.data_bytes).sum();
        payload + self.dict_bytes.iter().sum::<u64>()
    }

    /// [`plan_scan`] over this table.
    pub fn plan<'a>(&self, opts: &'a ScanOptions) -> Result<ScanPlan<'a>> {
        plan_scan(&self.schema, &self.blocks, &self.dict_bytes, opts)
    }
}

/// What one scan reads and charges, decided from resident metadata alone
/// before any block is fetched ([`plan_scan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan<'a> {
    /// The pushed predicate the scan honours: `None` when none was pushed
    /// or when it names a column the table does not have — it would error
    /// differently here than in the caller's own filter, which surfaces
    /// the problem instead.
    pub predicate: Option<&'a Expr>,
    /// The columns read, by schema index: the projection (every column
    /// when absent) plus whatever the honoured predicate consults.
    pub read_cols: Vec<usize>,
    /// The chosen blocks in scan order, each with its zone-map verdict:
    /// `AllFalse` blocks are pruned (never fetched, charged nothing),
    /// `AllTrue` ones — every block when no predicate is honoured — keep
    /// every row without row-level filtering.
    pub blocks: Vec<(usize, Tri)>,
    /// What the scan charges: the read columns of every unpruned block,
    /// plus each read column's dictionary once when any block is read.
    pub bytes_scanned: u64,
    /// What the pruned blocks would have charged (their dictionaries too,
    /// when every chosen block is pruned).
    pub bytes_pruned: u64,
    /// Rows stored in the unpruned blocks.
    pub rows_scanned: u64,
    /// Unpruned blocks.
    pub blocks_scanned: u64,
    /// Pruned blocks.
    pub blocks_pruned: u64,
}

/// Plan a scan of a table — `schema`, per-block statistics `blocks`,
/// per-column dictionary bytes `dict_bytes` — under `opts`: the blocks it
/// visits (all, or the seeded block sample, never none of a non-empty
/// table so samples of tiny tables still return rows), the predicate it
/// honours, the columns it reads, each block's verdict and what it
/// charges. The scan runs this plan; the static estimator prices a load
/// with it.
pub fn plan_scan<'a>(
    schema: &Schema,
    blocks: &[BlockStats],
    dict_bytes: &[u64],
    opts: &'a ScanOptions,
) -> Result<ScanPlan<'a>> {
    let n = blocks.len();
    let chosen: Vec<usize> = match opts.block_sample {
        None => (0..n).collect(),
        Some(f) if !(f > 0.0 && f <= 1.0) => {
            return Err(StorageError::invalid(format!(
                "block sample fraction must be in (0, 1], got {f}"
            )))
        }
        Some(f) => {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let picked: Vec<usize> = (0..n).filter(|_| rng.random::<f64>() < f).collect();
            match picked.is_empty() && n > 0 {
                true => vec![opts.seed as usize % n],
                false => picked,
            }
        }
    };
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
    let mut plan = ScanPlan {
        predicate,
        read_cols,
        blocks: Vec::with_capacity(chosen.len()),
        bytes_scanned: 0,
        bytes_pruned: 0,
        rows_scanned: 0,
        blocks_scanned: 0,
        blocks_pruned: 0,
    };
    for bi in chosen {
        let block = &blocks[bi];
        let verdict = match predicate {
            None => Tri::AllTrue,
            Some(_) if block.rows == 0 => Tri::AllFalse,
            Some(p) => {
                let lookup = |name: &str| schema.index_of(name).map(|ci| block.columns[ci].clone());
                prune_predicate(p, &lookup)
            }
        };
        let bytes: u64 = plan.read_cols.iter().map(|&ci| block.data_bytes[ci]).sum();
        if verdict == Tri::AllFalse {
            plan.blocks_pruned += 1;
            plan.bytes_pruned += bytes;
        } else {
            plan.blocks_scanned += 1;
            plan.bytes_scanned += bytes;
            plan.rows_scanned += block.rows;
        }
        plan.blocks.push((bi, verdict));
    }
    // Each read column's shared dictionary is read once by a scan that
    // reads any block; a scan that prunes every block never loads it.
    if !plan.blocks.is_empty() {
        let dicts: u64 = plan.read_cols.iter().map(|&ci| dict_bytes[ci]).sum();
        match plan.blocks_scanned {
            0 => plan.bytes_pruned += dicts,
            _ => plan.bytes_scanned += dicts,
        }
    }
    Ok(plan)
}

/// A stored table as the one scan sees it: resident metadata plus a block
/// fetch. The fetch is the only thing the two backends do differently, and
/// it must be callable from several threads at once: a scan fetches its
/// unpruned blocks on the worker pool.
pub trait BlockSource: Sync {
    /// The resident metadata scans are planned over.
    fn meta(&self) -> &TableMeta;
    /// Block `bi` holding at least the columns `read_cols` (schema
    /// indices), and the payload bytes faulted off storage to fetch it —
    /// `None` for a resident block, of which a scan reads what it charges.
    fn read_block(&self, bi: usize, read_cols: &[usize]) -> Result<(Arc<Table>, Option<u64>)>;
}

/// The retryable error a scan returns once its token has fired.
fn check_cancel(cancel: Option<&CancelToken>) -> Result<()> {
    match cancel.is_some_and(|token| token.is_cancelled()) {
        true => Err(StorageError::Transient {
            operation: "scan".to_string(),
            message: "cancelled: node budget exhausted".to_string(),
        }),
        false => Ok(()),
    }
}

/// Scan `src` under `opts`: run its [`plan_scan`], then fetch, sample,
/// filter and project every unpruned block and stitch the parts in plan
/// order. The injector sees the scan start plus every unpruned block —
/// pruned blocks cost nothing and never reach it — on the calling thread,
/// in plan order, before any block is fetched, so a seeded schedule lands
/// on the same blocks however the fetches run. The blocks then go through
/// one closure each: on the worker pool when the plan scans at least
/// [`min_parallel_rows`] rows, inline otherwise. The cancel check runs at
/// every block boundary and again before every fetch; the first error in
/// plan order is the scan's.
pub(crate) fn run_scan(
    src: &dyn BlockSource,
    opts: &ScanOptions,
    injector: Option<&FaultInjector>,
) -> Result<(Table, ScanReceipt)> {
    let cancel = opts.cancel.as_ref();
    if let Some(inj) = injector {
        inj.on_scan(opts.block_sample.is_some(), cancel)?;
    }
    let meta = src.meta();
    let plan = meta.plan(opts)?;
    let projected: Option<Vec<&str>> = opts
        .columns
        .as_ref()
        .map(|cols| cols.iter().map(String::as_str).collect());
    // The blocks to fetch, up to the first one the injector refused (or a
    // cancellation). Those before it are still fetched: a fetch that fails
    // among them comes first in plan order.
    let mut unpruned = Vec::with_capacity(plan.blocks_scanned as usize);
    let mut refused = None;
    for &(bi, verdict) in &plan.blocks {
        let hooks = check_cancel(cancel).and_then(|()| match (verdict, injector) {
            (Tri::AllFalse, _) | (_, None) => Ok(()),
            (_, Some(inj)) => inj.on_block_read(cancel),
        });
        if let Err(e) = hooks {
            refused = Some(e);
            break;
        }
        if verdict != Tri::AllFalse {
            unpruned.push((bi, verdict));
        }
    }
    let scan = |k: usize| -> Result<(Table, Option<u64>)> {
        let (bi, verdict) = unpruned[k];
        check_cancel(cancel)?;
        let (block, bytes) = src.read_block(bi, &plan.read_cols)?;
        let part = scan_block(
            &block,
            opts.row_sample
                .map(|f| (f, opts.seed.wrapping_add(bi as u64))),
            plan.predicate.filter(|_| verdict != Tri::AllTrue),
            projected.as_deref(),
        )?;
        Ok((part, bytes))
    };
    let fan_out = plan.rows_scanned >= min_parallel_rows() as u64;
    let scanned: Vec<Result<(Table, Option<u64>)>> = match fan_out {
        true => run_indexed(unpruned.len(), scan),
        false => (0..unpruned.len()).map(scan).collect(),
    };
    // A block nothing is dropped from contributes its own columns, so a
    // scan that ends with one such part returns them shared; several
    // parts pay the one contiguous `concat`.
    let mut parts: Vec<Table> = Vec::with_capacity(scanned.len());
    // Bytes faulted off storage; `None` once a resident block is read.
    let mut faulted = Some(0u64);
    for result in scanned {
        let (part, bytes) = result?;
        faulted = faulted.zip(bytes).map(|(sum, b)| sum + b);
        parts.push(part);
    }
    if let Some(e) = refused {
        return Err(e);
    }
    let out = match (parts.is_empty(), &projected) {
        (true, Some(cols)) => Table::empty_with_schema(meta.schema()).select(cols)?,
        (true, None) => Table::empty_with_schema(meta.schema()),
        (false, _) => dc_engine::ops::concat(&parts.iter().collect::<Vec<_>>(), false)?,
    };
    let bytes_read = faulted.unwrap_or(plan.bytes_scanned);
    debug_assert!(
        bytes_read <= plan.bytes_scanned,
        "faulted more than charged"
    );
    Ok((
        out,
        ScanReceipt {
            bytes_scanned: plan.bytes_scanned,
            bytes_read,
            rows_scanned: plan.rows_scanned,
            blocks_scanned: plan.blocks_scanned,
            total_blocks: meta.num_blocks() as u64,
            blocks_pruned: plan.blocks_pruned,
            bytes_pruned: plan.bytes_pruned,
            cost_dollars: 0.0, // filled in by the database, which knows pricing
        },
    ))
}

/// A stored table split into fixed-size row blocks held in RAM.
///
/// Blocks are immutable and held behind [`Arc`], so cloning a
/// `BlockTable` (snapshots, catalog copies) shares the block data instead
/// of duplicating it.
#[derive(Debug, Clone)]
pub struct BlockTable {
    blocks: Vec<Arc<Table>>,
    meta: TableMeta,
}

/// How to scan a stored table.
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
        let stored = blocks.iter().map(|b| {
            let cols = b.columns().iter().map(|c| {
                let data_bytes = (c.byte_size() - c.dict_heap_bytes()) as u64;
                let dict = c.as_dict().map(|(_, d, _)| d.as_slice());
                (data_bytes, compute_zone(c), dict)
            });
            (b.num_rows() as u64, cols.collect())
        });
        let meta = TableMeta::new(table.schema().clone(), stored.collect());
        Ok(BlockTable { blocks, meta })
    }

    /// Total rows stored.
    pub fn num_rows(&self) -> usize {
        self.meta.num_rows()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total stored bytes: every block's payload plus each shared
    /// dictionary once.
    pub fn total_bytes(&self) -> u64 {
        self.meta.total_bytes()
    }

    /// The stored table's typed schema.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Shared handle to block `i`'s data — a pointer copy, not a clone.
    pub fn block(&self, i: usize) -> Option<Arc<Table>> {
        self.blocks.get(i).map(Arc::clone)
    }

    /// Scan under `opts`, returning the data plus a receipt of what was
    /// actually read.
    pub fn scan(&self, opts: &ScanOptions) -> Result<(Table, ScanReceipt)> {
        run_scan(self, opts, None)
    }
}

impl BlockSource for BlockTable {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// The resident block itself, every column shared.
    fn read_block(&self, bi: usize, _: &[usize]) -> Result<(Arc<Table>, Option<u64>)> {
        Ok((Arc::clone(&self.blocks[bi]), None))
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
        assert_eq!(bt.meta().dict_sizes(), vec![("region".to_string(), 8)]);
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
        assert!(bt.meta().dict_sizes().is_empty());
    }

    #[test]
    fn empty_table_scans_empty() {
        let bt = BlockTable::new(&t(0), 10).unwrap();
        let (out, receipt) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(receipt.rows_scanned, 0);
    }
}
