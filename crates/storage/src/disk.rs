//! On-disk block tables: the out-of-core sibling of [`crate::BlockTable`].
//!
//! A [`DiskBlockTable`] stores its blocks in the engine's columnar block
//! file format ([`dc_engine::blockio`]) and keeps only the footer —
//! schema, shared dictionaries, per-block zone maps and null counts —
//! resident. Scans prune blocks with footer metadata *before* paging any
//! payload in, so a pruned block costs zero logical bytes **and** zero
//! faulted bytes. Receipts therefore split cost into two numbers:
//!
//! * `bytes_scanned` — the logical (in-memory) bytes the scan charged,
//!   identical accounting to the in-RAM [`crate::BlockTable`], so pricing
//!   is backend-independent;
//! * `bytes_read` — the payload bytes actually faulted off storage,
//!   which projection and pruning shrink further (stored payloads are
//!   never larger than their logical footprint, so
//!   `bytes_read <= bytes_scanned` always holds).
//!
//! Reads go through a buffered positional-read path by default; the
//! `mmap` feature maps the file instead (same format, same receipts).

use std::path::{Path, PathBuf};

use dc_engine::blockio::{BlockFile, ZoneBoundsIo};
use dc_engine::expr::prune::{self, ColumnStats, Tri};
use dc_engine::{Schema, Table, Value};

use crate::block::{chosen_blocks, scan_block, scan_columns, BlockSource, ScanOptions};
use crate::error::{Result, StorageError};
use crate::fault::FaultInjector;
use crate::pricing::ScanReceipt;

/// A table persisted in the engine's on-disk block format, scanned
/// through the same [`ScanOptions`] interface as the in-RAM block table.
#[derive(Debug)]
pub struct DiskBlockTable {
    file: BlockFile,
    path: PathBuf,
    schema: Schema,
    schema_names: Vec<String>,
    /// Per column: shared-dictionary heap bytes (0 for non-dict columns).
    dict_bytes: Vec<u64>,
    /// Remove the backing file on drop (set by [`DiskBlockTable::create`]).
    owned: bool,
}

impl Drop for DiskBlockTable {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn map_engine(e: dc_engine::EngineError) -> StorageError {
    match &e {
        dc_engine::EngineError::Spill { message, retryable } => {
            if *retryable {
                StorageError::Transient {
                    operation: "disk block io".to_string(),
                    message: message.clone(),
                }
            } else {
                StorageError::Unavailable {
                    operation: "disk block io".to_string(),
                    message: message.clone(),
                }
            }
        }
        _ => StorageError::invalid(e.to_string()),
    }
}

impl DiskBlockTable {
    /// Write `table` to `path` in blocks of `block_rows` rows and open it.
    /// String columns are dictionary-encoded first so every block shares
    /// one table-wide sorted dictionary (persisted once in the footer) and
    /// zone maps cover string columns as code ranges. The file is removed
    /// when the returned table is dropped.
    pub fn create(
        path: impl Into<PathBuf>,
        table: &Table,
        block_rows: usize,
    ) -> Result<DiskBlockTable> {
        if block_rows == 0 {
            return Err(StorageError::invalid("block_rows must be positive"));
        }
        let path = path.into();
        let encoded = table.encode_strings();
        dc_engine::blockio::write_table(&path, &encoded, block_rows).map_err(map_engine)?;
        let mut t = DiskBlockTable::open(&path)?;
        t.owned = true;
        Ok(t)
    }

    /// Open an existing block file. Only the footer is read; the file is
    /// NOT removed on drop.
    pub fn open(path: impl AsRef<Path>) -> Result<DiskBlockTable> {
        let path = path.as_ref().to_path_buf();
        #[cfg(feature = "mmap")]
        let file = BlockFile::open_mmap(&path).map_err(map_engine)?;
        #[cfg(not(feature = "mmap"))]
        let file = BlockFile::open(&path).map_err(map_engine)?;
        let fields = file
            .meta
            .schema
            .iter()
            .map(|(name, dtype)| dc_engine::Field::new(name.clone(), *dtype))
            .collect();
        let schema = Schema::new(fields).map_err(map_engine)?;
        let schema_names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
        let dict_bytes = (0..schema_names.len())
            .map(|ci| file.meta.column_dict_bytes(ci))
            .collect();
        Ok(DiskBlockTable {
            file,
            path,
            schema,
            schema_names,
            dict_bytes,
            owned: false,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total rows stored.
    pub fn num_rows(&self) -> usize {
        self.file.num_rows()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.file.num_blocks()
    }

    /// Column names.
    pub fn column_names(&self) -> &[String] {
        &self.schema_names
    }

    /// The stored table's typed schema (resident from the footer).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total *logical* bytes stored: every block's in-memory payload plus
    /// each shared dictionary once — the same accounting the in-RAM block
    /// table uses, so a full scan of either backend charges equal bytes.
    pub fn total_bytes(&self) -> u64 {
        let payload: u64 = self
            .file
            .meta
            .blocks
            .iter()
            .flat_map(|b| b.cols.iter().map(|c| c.data_bytes))
            .sum();
        payload + self.dict_bytes.iter().sum::<u64>()
    }

    /// Zone-map statistics for block `bi`, column `ci`, straight from the
    /// footer — no payload access. Dictionary code bounds translate
    /// through the resident sorted dictionary.
    pub fn column_stats(&self, bi: usize, ci: usize) -> ColumnStats {
        let block = &self.file.meta.blocks[bi];
        let col = &block.cols[ci];
        let (min, max) = match &col.zone.bounds {
            ZoneBoundsIo::None => (None, None),
            ZoneBoundsIo::Values { min, max } => (Some(min.clone()), Some(max.clone())),
            ZoneBoundsIo::DictCodes { min, max } => match self.dict_of(bi, ci) {
                Some(d) => (
                    Some(Value::Str(d[*min as usize].clone())),
                    Some(Value::Str(d[*max as usize].clone())),
                ),
                None => (None, None),
            },
        };
        ColumnStats {
            dtype: self.schema.fields()[ci].dtype,
            min,
            max,
            null_count: col.zone.null_count,
            row_count: block.rows as u64,
        }
    }

    /// The resident dictionary block `bi` stores column `ci` against, if
    /// it is dictionary-encoded there.
    fn dict_of(&self, bi: usize, ci: usize) -> Option<&std::sync::Arc<Vec<String>>> {
        let di = self.file.meta.blocks.get(bi)?.cols[ci].dict_index()?;
        self.file.meta.dicts.get(di)
    }

    /// Scan under `opts`, returning the data plus a receipt. Mirrors
    /// [`crate::BlockTable::scan`] semantics exactly (block/row sampling,
    /// predicate pushdown with zone pruning, projection), with
    /// `bytes_read` additionally reporting what was faulted off disk.
    pub fn scan(&self, opts: &ScanOptions) -> Result<(Table, ScanReceipt)> {
        self.scan_with(opts, None)
    }

    /// [`DiskBlockTable::scan`] with an optional fault injector: the
    /// injector sees the scan start plus every block actually paged in
    /// (pruned blocks never reach it).
    pub fn scan_with(
        &self,
        opts: &ScanOptions,
        injector: Option<&FaultInjector>,
    ) -> Result<(Table, ScanReceipt)> {
        let cancel = opts.cancel.as_ref();
        if let Some(inj) = injector {
            inj.on_scan(opts.block_sample.is_some(), cancel)?;
        }
        let nblocks = self.file.num_blocks();
        let chosen = chosen_blocks(opts, nblocks)?;
        let schema = &self.schema;
        let (predicate, read_cols) = scan_columns(opts, schema);
        let logical_bytes = |bi: usize| -> u64 {
            let cols = &self.file.meta.blocks[bi].cols;
            read_cols.iter().map(|&ci| cols[ci].data_bytes).sum()
        };
        let projected: Option<Vec<&str>> = opts
            .columns
            .as_ref()
            .map(|cols| cols.iter().map(|s| s.as_str()).collect());

        let mut parts: Vec<Table> = Vec::with_capacity(chosen.len());
        let mut bytes = 0u64;
        let mut bytes_read = 0u64;
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
            let block_rows = self.file.meta.blocks[bi].rows as usize;
            // Footer-only pruning decision: nothing is paged in yet.
            let verdict = match predicate {
                Some(_) if block_rows == 0 => Tri::AllFalse,
                Some(p) => {
                    let lookup =
                        |name: &str| schema.index_of(name).map(|ci| self.column_stats(bi, ci));
                    prune::prune_predicate(p, &lookup)
                }
                None => Tri::Unknown,
            };
            if predicate.is_some() && verdict == Tri::AllFalse {
                blocks_pruned += 1;
                bytes_pruned += logical_bytes(bi);
                continue;
            }
            if let Some(inj) = injector {
                inj.on_block_read(cancel)?;
            }
            let (table, faulted) = self
                .file
                .read_block_projected(bi, &read_cols)
                .map_err(map_engine)?;
            bytes += logical_bytes(bi);
            bytes_read += faulted;
            rows_scanned += block_rows as u64;
            blocks_scanned += 1;
            let part = scan_block(
                &table,
                opts.row_sample
                    .map(|f| (f, opts.seed.wrapping_add(bi as u64))),
                predicate.filter(|_| verdict != Tri::AllTrue),
                projected.as_deref(),
            )
            .map_err(map_engine)?;
            parts.push(part);
        }
        // Shared dictionaries live in the footer, resident since open:
        // they charge logical bytes like the in-RAM backend but fault
        // nothing per scan.
        let read_dict_bytes: u64 = read_cols.iter().map(|&ci| self.dict_bytes[ci]).sum();
        if blocks_scanned > 0 {
            bytes += read_dict_bytes;
        } else if blocks_pruned > 0 {
            bytes_pruned += read_dict_bytes;
        }
        let out = if parts.is_empty() {
            let empty = Table::empty_with_schema(schema);
            match &projected {
                Some(cols) => empty.select(cols).map_err(map_engine)?,
                None => empty,
            }
        } else {
            dc_engine::ops::concat(&parts.iter().collect::<Vec<_>>(), false).map_err(map_engine)?
        };
        debug_assert!(bytes_read <= bytes, "faulted more than charged");
        Ok((
            out,
            ScanReceipt {
                bytes_scanned: bytes,
                bytes_read,
                rows_scanned,
                blocks_scanned,
                total_blocks: nblocks as u64,
                blocks_pruned,
                bytes_pruned,
                cost_dollars: 0.0, // filled in by the database, which knows pricing
            },
        ))
    }
}

impl BlockSource for DiskBlockTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn num_blocks(&self) -> usize {
        self.num_blocks()
    }
    fn block_rows(&self, bi: usize) -> usize {
        self.file.meta.blocks[bi].rows as usize
    }
    fn block_data_bytes(&self, bi: usize) -> Vec<u64> {
        let cols = &self.file.meta.blocks[bi].cols;
        cols.iter().map(|c| c.data_bytes).collect()
    }
    fn dict_byte_sizes(&self) -> &[u64] {
        &self.dict_bytes
    }
    /// Blocks share one table-wide dictionary per string column, so the
    /// first block's dictionaries describe the whole table.
    fn dict_sizes(&self) -> Vec<(String, usize)> {
        self.schema_names
            .iter()
            .enumerate()
            .filter_map(|(ci, name)| Some((name.clone(), self.dict_of(0, ci)?.len())))
            .collect()
    }
    fn column_stats(&self, bi: usize, ci: usize) -> ColumnStats {
        self.column_stats(bi, ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{BinaryOp, Column, Expr};

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let p = std::env::temp_dir().join(format!("dc-disk-test-{}-{tag}", std::process::id()));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fixture(n: usize) -> Table {
        Table::new(vec![
            ("x", Column::from_ints((0..n as i64).collect())),
            (
                "cat",
                Column::from_strs((0..n).map(|i| format!("c{}", i % 7)).collect()),
            ),
            (
                "y",
                Column::from_opt_floats(
                    (0..n)
                        .map(|i| (i % 13 != 5).then_some(i as f64 * 0.5))
                        .collect(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn full_scan_roundtrips_and_reads_at_most_scanned() {
        let dir = TempDir::new("full");
        let t = fixture(1000);
        let dt = DiskBlockTable::create(dir.file("t.dcb"), &t, 128).unwrap();
        assert_eq!(dt.num_rows(), 1000);
        assert_eq!(dt.num_blocks(), 8);
        let (out, r) = dt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(out.num_rows(), 1000);
        assert_eq!(out.column("x").unwrap(), t.column("x").unwrap());
        // Str column round-trips dict-encoded; equality is logical.
        assert_eq!(out.column("cat").unwrap(), t.column("cat").unwrap());
        assert!(r.bytes_read > 0);
        assert!(r.bytes_read <= r.bytes_scanned);
        assert_eq!(r.blocks_scanned, 8);
    }

    #[test]
    fn projection_faults_fewer_bytes() {
        let dir = TempDir::new("proj");
        let dt = DiskBlockTable::create(dir.file("t.dcb"), &fixture(1000), 128).unwrap();
        let (_, full) = dt.scan(&ScanOptions::full()).unwrap();
        let opts = ScanOptions {
            columns: Some(vec!["x".into()]),
            ..ScanOptions::default()
        };
        let (out, r) = dt.scan(&opts).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert!(r.bytes_read < full.bytes_read);
        assert!(r.bytes_scanned < full.bytes_scanned);
        assert!(r.bytes_read <= r.bytes_scanned);
    }

    #[test]
    fn zone_pruning_skips_blocks_before_reading() {
        let dir = TempDir::new("prune");
        let dt = DiskBlockTable::create(dir.file("t.dcb"), &fixture(1000), 100).unwrap();
        // x is monotonically increasing: x >= 900 prunes 9 of 10 blocks.
        let opts = ScanOptions {
            predicate: Some(Expr::binary(
                Expr::col("x"),
                BinaryOp::Ge,
                Expr::lit(900i64),
            )),
            ..ScanOptions::default()
        };
        let (out, r) = dt.scan(&opts).unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(r.blocks_pruned, 9);
        assert_eq!(r.blocks_scanned, 1);
        assert!(r.bytes_pruned > 0);
        assert!(r.bytes_read <= r.bytes_scanned);
    }

    #[test]
    fn string_predicate_prunes_via_dict_zones() {
        let dir = TempDir::new("dict");
        // Sorted cat values: blocks of 100 rows each hold one value run.
        let t = Table::new(vec![(
            "cat",
            Column::from_strs((0..1000).map(|i| format!("v{:02}", i / 100)).collect()),
        )])
        .unwrap();
        let dt = DiskBlockTable::create(dir.file("t.dcb"), &t, 100).unwrap();
        let opts = ScanOptions {
            predicate: Some(Expr::binary(
                Expr::col("cat"),
                BinaryOp::Eq,
                Expr::lit("v03"),
            )),
            ..ScanOptions::default()
        };
        let (out, r) = dt.scan(&opts).unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(r.blocks_pruned, 9);
    }

    #[test]
    fn block_sample_reads_fraction() {
        let dir = TempDir::new("sample");
        let dt = DiskBlockTable::create(dir.file("t.dcb"), &fixture(2000), 100).unwrap();
        let (out, r) = dt.scan(&ScanOptions::block_sampled(0.2, 7)).unwrap();
        assert!(r.blocks_scanned < 20);
        assert!(out.num_rows() < 2000);
        assert!(r.bytes_read <= r.bytes_scanned);
    }

    #[test]
    fn logical_bytes_match_in_ram_backend() {
        let t = fixture(1000);
        let dir = TempDir::new("parity");
        let dt = DiskBlockTable::create(dir.file("t.dcb"), &t, 128).unwrap();
        let bt = crate::BlockTable::new(&t, 128).unwrap();
        let (_, rd) = dt.scan(&ScanOptions::full()).unwrap();
        let (_, rm) = bt.scan(&ScanOptions::full()).unwrap();
        assert_eq!(rd.bytes_scanned, rm.bytes_scanned);
        assert_eq!(dt.total_bytes(), bt.total_bytes());
        // Projected scan with a pushed predicate on a column outside the
        // projection: some blocks pruned, some filtered, and the predicate
        // column charged but not returned — alike on both backends.
        let opts = ScanOptions {
            columns: Some(vec!["y".into(), "cat".into()]),
            predicate: Some(Expr::binary(
                Expr::col("x"),
                BinaryOp::Ge,
                Expr::lit(700i64),
            )),
            ..ScanOptions::default()
        };
        let (td, rd) = dt.scan(&opts).unwrap();
        let (tm, rm) = bt.scan(&opts).unwrap();
        assert_eq!(td, tm);
        assert_eq!(td.schema().names(), vec!["y", "cat"]);
        assert_eq!(td.num_rows(), 300);
        assert!(rd.blocks_pruned > 0 && rd.blocks_scanned > 1);
        assert_eq!(
            (
                rd.bytes_scanned,
                rd.bytes_pruned,
                rd.rows_scanned,
                rd.blocks_pruned
            ),
            (
                rm.bytes_scanned,
                rm.bytes_pruned,
                rm.rows_scanned,
                rm.blocks_pruned
            )
        );
        assert!(rd.bytes_read <= rd.bytes_scanned);
    }

    #[test]
    fn create_removes_file_on_drop() {
        let dir = TempDir::new("drop");
        let path = dir.file("t.dcb");
        {
            let _dt = DiskBlockTable::create(&path, &fixture(10), 4).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
