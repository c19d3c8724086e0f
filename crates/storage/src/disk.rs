//! On-disk block tables: the out-of-core sibling of [`crate::BlockTable`].
//!
//! A [`DiskBlockTable`] stores its blocks in the engine's columnar block
//! file format ([`dc_engine::blockio`]) and keeps only the footer —
//! schema, shared dictionaries, per-block zone maps and null counts —
//! resident, lifted at open into the same [`TableMeta`] the in-RAM table
//! holds. It runs the same scan ([`crate::block`]): the plan prunes blocks
//! with that metadata *before* any payload is paged in, so a pruned block
//! costs zero logical bytes **and** zero faulted bytes. The block fetch is
//! the one thing it does differently, and why receipts split cost into two
//! numbers:
//!
//! * `bytes_scanned` — the logical (in-memory) bytes the scan charged,
//!   identical to the in-RAM [`crate::BlockTable`]'s, so pricing is
//!   backend-independent;
//! * `bytes_read` — the payload bytes actually faulted off storage, which
//!   projection and pruning shrink further (stored payloads are never
//!   larger than their logical footprint, and dictionaries are read once,
//!   at open, so `bytes_read <= bytes_scanned` always holds).
//!
//! Reads are buffered positional reads of just the read columns' ranges.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dc_engine::blockio::BlockFile;
use dc_engine::{Schema, Table};

use crate::block::{run_scan, BlockSource, ScanOptions, TableMeta};
use crate::error::{Result, StorageError};
use crate::pricing::ScanReceipt;

/// A table persisted in the engine's on-disk block format, scanned
/// through the same [`ScanOptions`] interface as the in-RAM block table.
#[derive(Debug)]
pub struct DiskBlockTable {
    file: BlockFile,
    path: PathBuf,
    meta: TableMeta,
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

    /// Open an existing block file. Only the footer is read (and checked:
    /// a footer whose ranges, dictionary ids or code bounds lie is an
    /// error, not a later panic); the file is NOT removed on drop.
    pub fn open(path: impl AsRef<Path>) -> Result<DiskBlockTable> {
        let path = path.as_ref().to_path_buf();
        let file = BlockFile::open(&path).map_err(map_engine)?;
        let fields = file
            .meta
            .schema
            .iter()
            .map(|(name, dtype)| dc_engine::Field::new(name.clone(), *dtype))
            .collect();
        let schema = Schema::new(fields).map_err(map_engine)?;
        let footer = &file.meta;
        let blocks = footer.blocks.iter().map(|b| {
            let cols = b.cols.iter().map(|c| {
                let dict = c.dict_index().and_then(|di| footer.dicts.get(di));
                (c.data_bytes, c.zone.clone(), dict.map(|d| d.as_slice()))
            });
            (u64::from(b.rows), cols.collect())
        });
        let meta = TableMeta::new(schema, blocks.collect());
        Ok(DiskBlockTable {
            file,
            path,
            meta,
            owned: false,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total rows stored.
    pub fn num_rows(&self) -> usize {
        self.meta.num_rows()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.meta.num_blocks()
    }

    /// The stored table's typed schema (resident from the footer).
    pub fn schema(&self) -> &Schema {
        self.meta.schema()
    }

    /// Total *logical* bytes stored: every block's in-memory payload plus
    /// each shared dictionary once — the same accounting the in-RAM block
    /// table uses, so a full scan of either backend charges equal bytes.
    pub fn total_bytes(&self) -> u64 {
        self.meta.total_bytes()
    }

    /// Scan under `opts`, returning the data plus a receipt: the same scan
    /// as [`crate::BlockTable::scan`], with `bytes_read` reporting what was
    /// faulted off disk.
    pub fn scan(&self, opts: &ScanOptions) -> Result<(Table, ScanReceipt)> {
        run_scan(self, opts, None)
    }
}

impl BlockSource for DiskBlockTable {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// Pages in only the read columns' byte ranges. Shared dictionaries
    /// live in the footer, resident since open, and fault nothing here.
    /// A scan calls this from several threads at once: each call is its own
    /// positional read through `&File`, with no cursor to share.
    fn read_block(&self, bi: usize, read_cols: &[usize]) -> Result<(Arc<Table>, Option<u64>)> {
        let (block, faulted) = self
            .file
            .read_block_projected(bi, read_cols)
            .map_err(map_engine)?;
        Ok((Arc::new(block), Some(faulted)))
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

    /// A footer whose dictionary id names no dictionary is refused at
    /// open, before pruning or statistics could index by it.
    #[test]
    fn open_rejects_a_lying_dictionary_id() {
        let dir = TempDir::new("dict-id");
        let path = dir.file("t.dcb");
        let t = Table::new(vec![("c", Column::from_strs(vec!["x", "y"]))]).unwrap();
        dc_engine::blockio::write_table(&path, &t.encode_strings(), 8).unwrap();
        assert!(DiskBlockTable::open(&path).is_ok());
        let mut bytes = std::fs::read(&path).unwrap();
        let footer_len = u64::from_le_bytes(bytes[bytes.len() - 12..][..8].try_into().unwrap());
        let footer = bytes.len() - 12 - footer_len as usize;
        // ncols, name, dtype, ndicts, ["x", "y"], nblocks, rows, enc,
        // offset, len, data bytes: then the id.
        let id_at = footer + 4 + 5 + 1 + 4 + (4 + 2 * 5) + 4 + 4 + 1 + 24;
        assert_eq!(bytes[id_at..id_at + 4], 0u32.to_le_bytes());
        bytes[id_at] = 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskBlockTable::open(&path),
            Err(StorageError::InvalidArgument { .. })
        ));
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
