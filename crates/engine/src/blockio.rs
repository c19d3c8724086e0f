//! On-disk columnar block format.
//!
//! One file holds a sequence of immutable row blocks sharing a schema,
//! followed by a footer with everything needed to *decide* before
//! reading: per-block/per-column byte ranges, zone maps (min/max bounds
//! and null counts in the shape the tri-state pruning evaluator
//! consumes), and the shared string dictionaries — so dictionary columns
//! stay encoded on disk and blocks share one in-memory dictionary
//! allocation after read-back, exactly like [`crate::column::Column::Dict`]
//! in RAM.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "DCB1" | block payloads... | footer | footer_len: u64 | "DCB1"
//! ```
//!
//! Block payloads store each column contiguously (validity bits, then
//! data), and the footer records each column's absolute byte range, so a
//! projected read faults in only the columns it needs, through positional
//! buffered reads (`pread`). Everything read from the file is checked
//! before it is used: the footer's byte ranges, dictionary ids and
//! dictionary code bounds at open, each dictionary column's codes as its
//! block is decoded — a corrupt file is a parse error, never a panic.
//!
//! Both spill files (runs of `u64` records — sort records, row-id lists,
//! join pairs; see `ops::spill`) and the storage layer's on-disk tables
//! use this format; the storage layer adds scan receipts and pricing on
//! top.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::dtype::DataType;
use crate::error::{EngineError, Result};
use crate::governor::spill_error;
use crate::table::Table;
use crate::value::Value;

/// File magic, leading and trailing.
const MAGIC: &[u8; 4] = b"DCB1";

/// Column encodings as stored. `Dict` is an encoding of logical `Str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Enc {
    Bool = 0,
    Int = 1,
    Float = 2,
    Str = 3,
    Date = 4,
    Dict = 5,
}

impl Enc {
    fn from_u8(v: u8) -> Result<Enc> {
        Ok(match v {
            0 => Enc::Bool,
            1 => Enc::Int,
            2 => Enc::Float,
            3 => Enc::Str,
            4 => Enc::Date,
            5 => Enc::Dict,
            _ => return Err(EngineError::parse(format!("bad column encoding {v}"))),
        })
    }

    /// Fewest stored bytes a column of `rows` rows can take: packed
    /// validity plus the fixed-width data (a string is at least its
    /// 4-byte length prefix).
    fn min_stored_len(self, rows: u64) -> u64 {
        let data = match self {
            Enc::Bool => rows.div_ceil(8),
            Enc::Int | Enc::Float => rows * 8,
            Enc::Str | Enc::Date | Enc::Dict => rows * 4,
        };
        rows.div_ceil(8) + data
    }

    fn of(col: &Column) -> Enc {
        match col {
            Column::Bool(..) => Enc::Bool,
            Column::Int(..) => Enc::Int,
            Column::Float(..) => Enc::Float,
            Column::Str(..) => Enc::Str,
            Column::Date(..) => Enc::Date,
            Column::Dict(..) => Enc::Dict,
        }
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

fn dtype_from_tag(v: u8) -> Result<DataType> {
    Ok(match v {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Date,
        _ => return Err(EngineError::parse(format!("bad dtype tag {v}"))),
    })
}

/// Zone-map bounds for one block of one column, as persisted in the
/// footer and as held by the storage layer's in-RAM block tables: value
/// bounds for numeric/date columns, code bounds into the sorted dictionary
/// for dict columns, nothing for unsummarizable blocks. Bounds cover
/// *valid* (non-null) slots only.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneBoundsIo {
    /// No usable bounds (all-null, NaN present, bool/plain-str, or zone
    /// computation disabled at write time).
    None,
    /// Value bounds over valid rows.
    Values { min: Value, max: Value },
    /// Code bounds into the column's shared sorted dictionary.
    DictCodes { min: u32, max: u32 },
}

/// Zone map for one block of one column (see [`compute_zone`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneInfo {
    pub bounds: ZoneBoundsIo,
    pub null_count: u64,
}

/// Footer metadata for one column of one block.
#[derive(Debug, Clone)]
pub struct ColMeta {
    enc: Enc,
    /// Absolute byte offset of this column's stored bytes.
    pub offset: u64,
    /// Stored length in bytes.
    pub len: u64,
    /// Logical in-memory payload bytes (excluding shared dictionary
    /// heap), the same quantity the in-RAM block table charges scans.
    pub data_bytes: u64,
    /// For dict columns, index into [`FileMeta::dicts`].
    dict_id: u32,
    /// Zone map.
    pub zone: ZoneInfo,
}

impl ColMeta {
    /// For dict-encoded columns, the index into [`FileMeta::dicts`].
    pub fn dict_index(&self) -> Option<usize> {
        (self.enc == Enc::Dict).then_some(self.dict_id as usize)
    }
}

/// Footer metadata for one block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Rows in this block.
    pub rows: u32,
    /// Per-column metadata, in schema order.
    pub cols: Vec<ColMeta>,
}

/// Parsed footer of a block file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Column names and logical dtypes.
    pub schema: Vec<(String, DataType)>,
    /// Shared dictionaries, one `Arc` per registered dictionary; all
    /// blocks referencing dict `i` share `dicts[i]` after read-back.
    pub dicts: Vec<Arc<Vec<String>>>,
    /// Per-block metadata.
    pub blocks: Vec<BlockMeta>,
    /// Bytes of footer + magic/trailer (metadata read once at open).
    pub meta_bytes: u64,
}

impl FileMeta {
    /// Total rows across blocks.
    pub fn num_rows(&self) -> usize {
        self.blocks.iter().map(|b| b.rows as usize).sum()
    }
}

// ---------------------------------------------------------------------------
// Primitive encoding helpers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(5);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Cursor over a byte slice with bounds-checked reads.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(EngineError::parse("truncated block file metadata"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| EngineError::parse("non-utf8 string"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.array()?)),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(self.str()?),
            5 => Value::Date(i32::from_le_bytes(self.array()?)),
            t => return Err(EngineError::parse(format!("bad value tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Zone computation
// ---------------------------------------------------------------------------

/// Min and max over the valid slots of `data` (`None` when there are none).
/// The first valid value seeds both and only a strictly smaller / greater
/// one replaces them, so `-0.0` vs `0.0` keeps whichever came first.
fn min_max<T: Copy + PartialOrd>(data: &[T], valid: &Bitmap) -> Option<(T, T)> {
    let grow = |acc: Option<(T, T)>, x: T| match acc {
        None => Some((x, x)),
        Some((lo, hi)) => Some((if x < lo { x } else { lo }, if x > hi { x } else { hi })),
    };
    if valid.all_valid() {
        data.iter().copied().fold(None, grow)
    } else {
        data.iter()
            .zip(valid.iter())
            .filter_map(|(&x, ok)| ok.then_some(x))
            .fold(None, grow)
    }
}

/// The zone map of one block of one column: null count plus value bounds
/// over the valid rows of Int / Float / Date columns and code bounds of
/// dictionary columns. An all-null block, a float block holding a NaN
/// (NaN breaks interval reasoning), and Bool / plain-Str columns publish
/// no bounds. Both the block-file writer and the storage layer's in-RAM
/// block tables build their zone maps with this.
pub fn compute_zone(col: &Column) -> ZoneInfo {
    let values = |(min, max)| ZoneBoundsIo::Values { min, max };
    let bounds = match col {
        Column::Dict(codes, _, valid) => {
            min_max(codes, valid).map(|(min, max)| ZoneBoundsIo::DictCodes { min, max })
        }
        Column::Int(v, valid) => {
            min_max(v, valid).map(|(lo, hi)| values((Value::Int(lo), Value::Int(hi))))
        }
        Column::Date(v, valid) => {
            min_max(v, valid).map(|(lo, hi)| values((Value::Date(lo), Value::Date(hi))))
        }
        Column::Float(v, valid) => {
            let nan = v.iter().zip(valid.iter()).any(|(x, ok)| ok && x.is_nan());
            min_max(v, valid)
                .filter(|_| !nan)
                .map(|(lo, hi)| values((Value::Float(lo), Value::Float(hi))))
        }
        Column::Bool(..) | Column::Str(..) => None,
    };
    ZoneInfo {
        bounds: bounds.unwrap_or(ZoneBoundsIo::None),
        null_count: col.null_count() as u64,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Summary returned by [`BlockWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSummary {
    /// Total file size, footer included.
    pub total_bytes: u64,
    /// Logical data bytes across blocks (same accounting as the in-RAM
    /// block table: payload excluding shared dictionary heap).
    pub data_bytes: u64,
    /// Blocks written.
    pub blocks: usize,
    /// Rows written.
    pub rows: usize,
}

/// Streaming writer: append whole blocks, then `finish` to seal the
/// footer. All appended blocks must share one schema.
pub struct BlockWriter {
    file: File,
    path: PathBuf,
    offset: u64,
    schema: Option<Vec<(String, DataType)>>,
    dicts: Vec<Arc<Vec<String>>>,
    blocks: Vec<BlockMeta>,
    rows: usize,
    compute_zones: bool,
}

impl BlockWriter {
    /// Create (truncate) `path`. Zone maps are computed per block by
    /// default; disable with [`BlockWriter::without_zones`] for spill
    /// files that are always read back in full.
    pub fn create(path: impl Into<PathBuf>) -> Result<BlockWriter> {
        let path = path.into();
        let mut file = File::create(&path).map_err(|e| spill_error("block file create", e))?;
        file.write_all(MAGIC)
            .map_err(|e| spill_error("block file write", e))?;
        Ok(BlockWriter {
            file,
            path,
            offset: MAGIC.len() as u64,
            schema: None,
            dicts: Vec::new(),
            blocks: Vec::new(),
            rows: 0,
            compute_zones: true,
        })
    }

    /// Skip zone-map computation (spill files that never prune).
    pub fn without_zones(mut self) -> BlockWriter {
        self.compute_zones = false;
        self
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn dict_id(&mut self, dict: &Arc<Vec<String>>) -> u32 {
        for (i, d) in self.dicts.iter().enumerate() {
            if Arc::ptr_eq(d, dict) {
                return i as u32;
            }
        }
        self.dicts.push(Arc::clone(dict));
        (self.dicts.len() - 1) as u32
    }

    /// Append one block. Returns the bytes written for this block.
    pub fn append(&mut self, block: &Table) -> Result<u64> {
        let schema: Vec<(String, DataType)> = block
            .schema()
            .fields()
            .iter()
            .map(|f| (f.name.clone(), f.dtype))
            .collect();
        match &self.schema {
            None => self.schema = Some(schema),
            Some(s) if *s == schema => {}
            Some(_) => {
                return Err(EngineError::schema_mismatch(
                    "block file appends must share one schema",
                ))
            }
        }
        let n = block.num_rows();
        let mut cols = Vec::with_capacity(block.num_columns());
        let mut written = 0u64;
        for col in block.columns() {
            let mut buf = Vec::with_capacity(n.div_ceil(8) + n * 8);
            // Validity words are stored as their little-endian bytes.
            col.validity().write_le_bytes(&mut buf);
            let mut dict_id = u32::MAX;
            match &**col {
                Column::Bool(v, _) => Bitmap::from_bools(v).write_le_bytes(&mut buf),
                Column::Int(v, _) => {
                    for x in v {
                        buf.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Column::Float(v, _) => {
                    for x in v {
                        buf.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
                Column::Date(v, _) => {
                    for x in v {
                        buf.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Column::Str(v, b) => {
                    for (i, s) in v.iter().enumerate() {
                        if b.get(i) {
                            put_str(&mut buf, s);
                        } else {
                            put_u32(&mut buf, 0);
                        }
                    }
                }
                Column::Dict(codes, dict, _) => {
                    dict_id = self.dict_id(dict);
                    for c in codes {
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                }
            }
            let zone = if self.compute_zones {
                compute_zone(col)
            } else {
                ZoneInfo {
                    bounds: ZoneBoundsIo::None,
                    null_count: col.null_count() as u64,
                }
            };
            self.file
                .write_all(&buf)
                .map_err(|e| spill_error("block file write", e))?;
            cols.push(ColMeta {
                enc: Enc::of(col),
                offset: self.offset,
                len: buf.len() as u64,
                data_bytes: (col.byte_size() - col.dict_heap_bytes()) as u64,
                dict_id,
                zone,
            });
            self.offset += buf.len() as u64;
            written += buf.len() as u64;
        }
        self.blocks.push(BlockMeta {
            rows: n as u32,
            cols,
        });
        self.rows += n;
        Ok(written)
    }

    /// Write the footer and seal the file.
    pub fn finish(mut self) -> Result<FileSummary> {
        let mut f = Vec::new();
        let schema = self.schema.clone().unwrap_or_default();
        put_u32(&mut f, schema.len() as u32);
        for (name, dtype) in &schema {
            put_str(&mut f, name);
            f.push(dtype_tag(*dtype));
        }
        put_u32(&mut f, self.dicts.len() as u32);
        for dict in &self.dicts {
            put_u32(&mut f, dict.len() as u32);
            for s in dict.iter() {
                put_str(&mut f, s);
            }
        }
        put_u32(&mut f, self.blocks.len() as u32);
        for b in &self.blocks {
            put_u32(&mut f, b.rows);
            for c in &b.cols {
                f.push(c.enc as u8);
                put_u64(&mut f, c.offset);
                put_u64(&mut f, c.len);
                put_u64(&mut f, c.data_bytes);
                put_u32(&mut f, c.dict_id);
                match &c.zone.bounds {
                    ZoneBoundsIo::None => f.push(0),
                    ZoneBoundsIo::Values { min, max } => {
                        f.push(1);
                        put_value(&mut f, min);
                        put_value(&mut f, max);
                    }
                    ZoneBoundsIo::DictCodes { min, max } => {
                        f.push(2);
                        put_u32(&mut f, *min);
                        put_u32(&mut f, *max);
                    }
                }
                put_u64(&mut f, c.zone.null_count);
            }
        }
        let footer_len = f.len() as u64;
        put_u64(&mut f, footer_len);
        f.extend_from_slice(MAGIC);
        self.file
            .write_all(&f)
            .map_err(|e| spill_error("block file write", e))?;
        self.file
            .flush()
            .map_err(|e| spill_error("block file flush", e))?;
        let data_bytes = self
            .blocks
            .iter()
            .flat_map(|b| b.cols.iter())
            .map(|c| c.data_bytes)
            .sum();
        Ok(FileSummary {
            total_bytes: self.offset + f.len() as u64,
            data_bytes,
            blocks: self.blocks.len(),
            rows: self.rows,
        })
    }
}

/// Write `table` to `path` in blocks of `block_rows` rows.
pub fn write_table(
    path: impl Into<PathBuf>,
    table: &Table,
    block_rows: usize,
) -> Result<FileSummary> {
    if block_rows == 0 {
        return Err(EngineError::invalid_argument("block_rows must be positive"));
    }
    let mut w = BlockWriter::create(path)?;
    let rows = table.num_rows();
    if rows == 0 {
        w.append(table)?;
    } else {
        let mut start = 0;
        while start < rows {
            w.append(&table.slice(start, block_rows))?;
            start += block_rows;
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// An opened block file: parsed footer plus a handle for paging blocks
/// in on demand. The footer (schema, dictionaries, zone maps) is resident
/// after `open`; block payloads are faulted off storage per read.
pub struct BlockFile {
    file: File,
    /// Parsed footer.
    pub meta: FileMeta,
}

impl std::fmt::Debug for BlockFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockFile")
            .field("blocks", &self.meta.blocks.len())
            .field("rows", &self.meta.num_rows())
            .finish()
    }
}

impl BlockFile {
    /// Open `path`, reading and parsing the footer.
    pub fn open(path: impl AsRef<Path>) -> Result<BlockFile> {
        let mut file = File::open(path.as_ref()).map_err(|e| spill_error("block file open", e))?;
        let total = file
            .seek(SeekFrom::End(0))
            .map_err(|e| spill_error("block file seek", e))?;
        let tail_len = 8 + MAGIC.len() as u64;
        if total < MAGIC.len() as u64 + tail_len {
            return Err(EngineError::parse("block file too short"));
        }
        let mut tail = [0u8; 12];
        read_at(&mut file, total - tail_len, &mut tail)?;
        if &tail[8..] != MAGIC {
            return Err(EngineError::parse("block file trailer magic mismatch"));
        }
        let footer_len = Cur::new(&tail).u64()?;
        if footer_len + tail_len > total {
            return Err(EngineError::parse("block file footer length out of range"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        let payload_end = total - tail_len - footer_len;
        read_at(&mut file, payload_end, &mut footer)?;
        let meta = parse_footer(&footer, footer_len + tail_len, payload_end)?;
        Ok(BlockFile { file, meta })
    }

    /// Blocks in the file.
    pub fn num_blocks(&self) -> usize {
        self.meta.blocks.len()
    }

    /// Total rows.
    pub fn num_rows(&self) -> usize {
        self.meta.num_rows()
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        read_exact_at(&self.file, offset, &mut buf)?;
        Ok(buf)
    }

    /// Read one whole block. Returns the table and the bytes actually
    /// faulted off storage for it.
    pub fn read_block(&self, bi: usize) -> Result<(Table, u64)> {
        let all: Vec<usize> = (0..self.meta.schema.len()).collect();
        self.read_block_projected(bi, &all)
    }

    /// Read a projection of one block (columns by schema index, in the
    /// given order). Only the selected columns' byte ranges are read.
    pub fn read_block_projected(&self, bi: usize, cols: &[usize]) -> Result<(Table, u64)> {
        let block = self
            .meta
            .blocks
            .get(bi)
            .ok_or_else(|| EngineError::invalid_argument(format!("block {bi} out of range")))?;
        let n = block.rows as usize;
        let mut out = Table::empty();
        let mut bytes_read = 0u64;
        for &ci in cols {
            let (name, _) = self.meta.schema.get(ci).ok_or_else(|| {
                EngineError::invalid_argument(format!("column {ci} out of range"))
            })?;
            let cm = &block.cols[ci];
            let buf = self.read_range(cm.offset, cm.len)?;
            bytes_read += cm.len;
            let mut cur = Cur::new(&buf);
            let validity = Bitmap::from_le_bytes(cur.bytes(n.div_ceil(8))?, n);
            let col = match cm.enc {
                Enc::Bool => {
                    let bits = Bitmap::from_le_bytes(cur.bytes(n.div_ceil(8))?, n);
                    Column::Bool(bits.iter().collect(), validity)
                }
                Enc::Int => {
                    let (words, _) = cur.bytes(n * 8)?.as_chunks();
                    let v = words.iter().map(|&w| i64::from_le_bytes(w)).collect();
                    Column::Int(v, validity)
                }
                Enc::Float => {
                    let (words, _) = cur.bytes(n * 8)?.as_chunks();
                    let v = words
                        .iter()
                        .map(|&w| f64::from_bits(u64::from_le_bytes(w)))
                        .collect();
                    Column::Float(v, validity)
                }
                Enc::Date => {
                    let (words, _) = cur.bytes(n * 4)?.as_chunks();
                    let v = words.iter().map(|&w| i32::from_le_bytes(w)).collect();
                    Column::Date(v, validity)
                }
                Enc::Str => {
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(cur.str()?);
                    }
                    Column::Str(v, validity)
                }
                Enc::Dict => {
                    // `open` checked the id against the footer's dictionaries.
                    let dict = &self.meta.dicts[cm.dict_id as usize];
                    let (words, _) = cur.bytes(n * 4)?.as_chunks();
                    let codes: Vec<u32> = words.iter().map(|&w| u32::from_le_bytes(w)).collect();
                    // A code past the dictionary would panic in whatever
                    // reads the string; a null row's placeholder code is
                    // never looked up. Without nulls, one branch-free pass
                    // (the footer counts a dictionary in a `u32`).
                    let len = dict.len() as u32;
                    let past_end = match validity.all_valid() {
                        true => codes.iter().fold(false, |past, &c| past | (c >= len)),
                        false => codes
                            .iter()
                            .zip(validity.iter())
                            .any(|(&c, ok)| ok && c >= len),
                    };
                    if past_end {
                        return Err(EngineError::parse("dictionary code out of range"));
                    }
                    Column::Dict(codes, Arc::clone(dict), validity)
                }
            };
            out.add_column(name, col)?;
        }
        Ok((out, bytes_read))
    }

    /// Read every block and concatenate (spill partition read-back).
    pub fn read_all(&self) -> Result<(Table, u64)> {
        let mut out: Option<Table> = None;
        let mut bytes = 0u64;
        for bi in 0..self.num_blocks() {
            let (block, b) = self.read_block(bi)?;
            bytes += b;
            match &mut out {
                None => out = Some(block),
                Some(t) => t.append(&block)?,
            }
        }
        Ok((out.unwrap_or_else(Table::empty), bytes))
    }
}

/// Parse the footer. Everything a read or a scan will index by comes from
/// the file, so it is checked here, once: a column's byte range must lie
/// inside the payload region (`MAGIC` up to `payload_end`) and be long
/// enough for the block's row count; a dictionary column's id must name a
/// dictionary; and a code-range zone map belongs to a dictionary column and
/// holds `min <= max < ` its dictionary's length.
fn parse_footer(buf: &[u8], meta_bytes: u64, payload_end: u64) -> Result<FileMeta> {
    let mut cur = Cur::new(buf);
    let ncols = cur.u32()? as usize;
    let mut schema = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = cur.str()?;
        let dtype = dtype_from_tag(cur.u8()?)?;
        schema.push((name, dtype));
    }
    let ndicts = cur.u32()? as usize;
    let mut dicts = Vec::with_capacity(ndicts);
    for _ in 0..ndicts {
        let n = cur.u32()? as usize;
        let mut d = Vec::with_capacity(n);
        for _ in 0..n {
            d.push(cur.str()?);
        }
        dicts.push(Arc::new(d));
    }
    let nblocks = cur.u32()? as usize;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let rows = cur.u32()?;
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let enc = Enc::from_u8(cur.u8()?)?;
            let offset = cur.u64()?;
            let len = cur.u64()?;
            let in_payload = offset >= MAGIC.len() as u64
                && offset
                    .checked_add(len)
                    .is_some_and(|end| end <= payload_end);
            if !in_payload {
                return Err(EngineError::parse(
                    "column byte range lies outside the block payload region",
                ));
            }
            if len < enc.min_stored_len(rows as u64) {
                return Err(EngineError::parse(
                    "column byte range is too short for its row count",
                ));
            }
            let data_bytes = cur.u64()?;
            let dict_id = cur.u32()?;
            let bounds = match cur.u8()? {
                0 => ZoneBoundsIo::None,
                1 => ZoneBoundsIo::Values {
                    min: cur.value()?,
                    max: cur.value()?,
                },
                2 => ZoneBoundsIo::DictCodes {
                    min: cur.u32()?,
                    max: cur.u32()?,
                },
                t => return Err(EngineError::parse(format!("bad zone tag {t}"))),
            };
            let null_count = cur.u64()?;
            let dict = (enc == Enc::Dict).then(|| dicts.get(dict_id as usize));
            if dict.is_some_and(|d| d.is_none()) {
                return Err(EngineError::parse("dictionary id out of range"));
            }
            if let ZoneBoundsIo::DictCodes { min, max } = &bounds {
                let len = dict.flatten().map_or(0, |d| d.len());
                if min > max || *max as usize >= len {
                    return Err(EngineError::parse("dictionary code bounds out of range"));
                }
            }
            cols.push(ColMeta {
                enc,
                offset,
                len,
                data_bytes,
                dict_id,
                zone: ZoneInfo { bounds, null_count },
            });
        }
        blocks.push(BlockMeta { rows, cols });
    }
    Ok(FileMeta {
        schema,
        dicts,
        blocks,
        meta_bytes,
    })
}

/// Positional read at `offset` (buffered pread; no shared-cursor races).
#[cfg(unix)]
fn read_exact_at(file: &File, offset: u64, buf: &mut [u8]) -> Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
        .map_err(|e| spill_error("block file read", e))
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, offset: u64, buf: &mut [u8]) -> Result<()> {
    let mut f = file
        .try_clone()
        .map_err(|e| spill_error("block file clone", e))?;
    f.seek(SeekFrom::Start(offset))
        .map_err(|e| spill_error("block file seek", e))?;
    f.read_exact(buf)
        .map_err(|e| spill_error("block file read", e))
}

/// Positional read through a `&mut File` during open (footer parsing).
fn read_at(file: &mut File, offset: u64, buf: &mut [u8]) -> Result<()> {
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| spill_error("block file seek", e))?;
    file.read_exact(buf)
        .map_err(|e| spill_error("block file read", e))
}

// Silence unused-import warnings on non-unix builds.
#[allow(unused_imports)]
use io::ErrorKind as _IoErrorKind;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn sample() -> Table {
        Table::new(vec![
            (
                "i",
                Column::from_opt_ints(vec![Some(3), None, Some(-7), Some(40), Some(5)]),
            ),
            (
                "f",
                Column::from_opt_floats(vec![Some(1.5), Some(-0.0), None, Some(2.25), Some(9.0)]),
            ),
            (
                "s",
                Column::from_opt_strs(vec![
                    Some("b".into()),
                    Some("a".into()),
                    None,
                    Some("b".into()),
                    Some("c".into()),
                ]),
            ),
            (
                "b",
                Column::from_bools(vec![true, false, true, true, false]),
            ),
            (
                "d",
                Column::from_opt_dates(vec![Some(10), Some(20), Some(30), None, Some(50)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_plain_and_dict() {
        let dir = ScopedDir::new("blockio-rt");
        let t = sample();
        let path = dir.0.join("t.dcb");
        let summary = write_table(&path, &t, 2).unwrap();
        assert_eq!(summary.rows, 5);
        assert_eq!(summary.blocks, 3);
        let f = BlockFile::open(&path).unwrap();
        let (back, bytes) = f.read_all().unwrap();
        assert!(bytes > 0);
        assert_eq!(back, t);

        // Dict-encoded strings stay encoded on disk and share one Arc
        // across read-back blocks.
        let enc = t.encode_strings();
        let path2 = dir.0.join("t2.dcb");
        write_table(&path2, &enc, 2).unwrap();
        let f2 = BlockFile::open(&path2).unwrap();
        assert_eq!(f2.meta.dicts.len(), 1);
        let (b0, _) = f2.read_block(0).unwrap();
        let (b1, _) = f2.read_block(1).unwrap();
        let d0 = b0.column("s").unwrap().as_dict().unwrap().1;
        let d1 = b1.column("s").unwrap().as_dict().unwrap().1;
        assert!(Arc::ptr_eq(d0, d1), "blocks must share the dict Arc");
        let (back2, _) = f2.read_all().unwrap();
        assert_eq!(back2.num_rows(), 5);
        assert_eq!(back2.column("s").unwrap().str_at(0), Some("b"));
    }

    #[test]
    fn projected_read_faults_fewer_bytes() {
        let dir = ScopedDir::new("blockio-proj");
        let t = sample();
        let path = dir.0.join("t.dcb");
        write_table(&path, &t, 4).unwrap();
        let f = BlockFile::open(&path).unwrap();
        let (full, full_bytes) = f.read_block(0).unwrap();
        let (proj, proj_bytes) = f.read_block_projected(0, &[0]).unwrap();
        assert_eq!(proj.num_columns(), 1);
        assert_eq!(proj.column("i").unwrap(), full.column("i").unwrap());
        assert!(proj_bytes < full_bytes);
    }

    #[test]
    fn zones_match_in_ram_semantics() {
        let dir = ScopedDir::new("blockio-zones");
        let t = sample();
        let path = dir.0.join("t.dcb");
        write_table(&path, &t, 5).unwrap();
        let f = BlockFile::open(&path).unwrap();
        let zone_i = &f.meta.blocks[0].cols[0].zone;
        assert_eq!(zone_i.null_count, 1);
        assert_eq!(
            zone_i.bounds,
            ZoneBoundsIo::Values {
                min: Value::Int(-7),
                max: Value::Int(40)
            }
        );
        // Bool columns publish no bounds.
        assert_eq!(f.meta.blocks[0].cols[3].zone.bounds, ZoneBoundsIo::None);
    }

    #[test]
    fn zones_publish_no_bounds_for_nan_and_all_null_and_code_ranges_for_dicts() {
        let floats = |v: Vec<Option<f64>>| compute_zone(&Column::from_opt_floats(v));
        assert_eq!(
            floats(vec![Some(2.0), None, Some(-1.5)]).bounds,
            ZoneBoundsIo::Values {
                min: Value::Float(-1.5),
                max: Value::Float(2.0)
            }
        );
        let nan = floats(vec![Some(1.0), Some(f64::NAN), None]);
        assert_eq!((nan.bounds, nan.null_count), (ZoneBoundsIo::None, 1));
        let nulls = compute_zone(&Column::from_opt_ints(vec![None, None]));
        assert_eq!((nulls.bounds, nulls.null_count), (ZoneBoundsIo::None, 2));
        assert_eq!(
            compute_zone(&Column::empty(DataType::Int)).bounds,
            ZoneBoundsIo::None
        );
        // The null row's placeholder code 0 must not widen the range.
        let dict = Column::Dict(
            vec![2, 0, 1],
            Arc::new(vec!["b".to_string(), "c".into(), "d".into()]),
            Bitmap::from_bools(&[true, false, true]),
        );
        assert_eq!(
            compute_zone(&dict).bounds,
            ZoneBoundsIo::DictCodes { min: 1, max: 2 }
        );
    }

    /// Every column type, with nulls, `n` rows long.
    fn nullable(n: usize) -> Table {
        let some = |i: usize| i % 5 != 3;
        let strs = |i: usize| some(i).then(|| format!("s{}", i % 4));
        Table::new(vec![
            (
                "i",
                Column::from_opt_ints((0..n).map(|i| some(i).then_some(i as i64 - 40)).collect()),
            ),
            (
                "f",
                Column::from_opt_floats(
                    (0..n)
                        .map(|i| some(i + 1).then_some(i as f64 / 3.0))
                        .collect(),
                ),
            ),
            ("s", Column::from_opt_strs((0..n).map(strs).collect())),
            (
                "k",
                Column::from_opt_strs((0..n).map(strs).collect()).dict_encode(),
            ),
            (
                "d",
                Column::from_opt_dates((0..n).map(|i| some(i + 2).then_some(i as i32)).collect()),
            ),
            (
                "b",
                Column::Bool(
                    (0..n).map(|i| i % 3 == 0 && some(i + 3)).collect(),
                    Bitmap::from_bools(&(0..n).map(|i| some(i + 3)).collect::<Vec<_>>()),
                ),
            ),
        ])
        .unwrap()
    }

    /// The bit-at-a-time packer the format was first written with.
    fn pack_bits_reference(bits: impl Iterator<Item = bool>, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n.div_ceil(8)];
        for (i, b) in bits.enumerate() {
            if b {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    #[test]
    fn ragged_row_counts_roundtrip_with_the_reference_packers_bytes() {
        let dir = ScopedDir::new("blockio-ragged");
        for n in [1, 7, 9, 63, 65, 130] {
            let t = nullable(n);
            let path = dir.0.join(format!("t{n}.dcb"));
            write_table(&path, &t, 64).unwrap();
            let f = BlockFile::open(&path).unwrap();
            let (back, _) = f.read_all().unwrap();
            assert_eq!(back, t, "{n} rows");
            for (a, b) in back.columns().iter().zip(t.columns()) {
                assert_eq!(a.null_count(), b.null_count());
            }
            // Stored validity (and Bool data) bytes are what the
            // bit-at-a-time packer produced.
            let bytes = std::fs::read(&path).unwrap();
            for (bi, block) in f.meta.blocks.iter().enumerate() {
                let rows = block.rows as usize;
                let part = t.slice(bi * 64, 64);
                for (cm, col) in block.cols.iter().zip(part.columns()) {
                    let stored = &bytes[cm.offset as usize..(cm.offset + cm.len) as usize];
                    let validity = pack_bits_reference(col.validity().iter(), rows);
                    assert_eq!(&stored[..validity.len()], validity, "{n} rows, validity");
                    if let Column::Bool(v, _) = &**col {
                        let data = pack_bits_reference(v.iter().copied(), rows);
                        assert_eq!(&stored[validity.len()..], data, "{n} rows, bools");
                    }
                }
            }
        }
    }

    #[test]
    fn column_ranges_that_lie_are_rejected_at_open() {
        let dir = ScopedDir::new("blockio-ranges");
        let path = dir.0.join("t.dcb");
        let t = Table::new(vec![("x", Column::from_ints((0..10).collect()))]).unwrap();
        write_table(&path, &t, 16).unwrap();
        let good = std::fs::read(&path).unwrap();
        let footer_len =
            u64::from_le_bytes(good[good.len() - 12..good.len() - 4].try_into().unwrap());
        let footer = good.len() - 12 - footer_len as usize;
        // ncols, name "x", dtype, ndicts, nblocks, rows, enc: then offset, len.
        let offset_at = footer + 4 + (4 + 1) + 1 + 4 + 4 + 4 + 1;
        let len_at = offset_at + 8;
        assert_eq!(good[offset_at..len_at], 4u64.to_le_bytes());
        assert_eq!(good[len_at..len_at + 8], (2u64 + 80).to_le_bytes());
        let open_with = |at: usize, v: u64| {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            BlockFile::open(&path).map(|_| ())
        };
        assert!(open_with(offset_at, 4).is_ok());
        for (what, at, v) in [
            ("offset + len overflows", offset_at, u64::MAX - 8),
            ("offset inside the leading magic", offset_at, 0),
            ("range runs into the footer", offset_at, 5),
            ("len asks for a huge allocation", len_at, 1 << 40),
            ("len shorter than ten ints need", len_at, 81),
        ] {
            assert!(
                matches!(open_with(at, v), Err(EngineError::Parse { .. })),
                "{what}"
            );
        }
    }

    /// Write a one-block file of dictionary column `k` over
    /// `["a", "b", "c"]` (row 1 null) and return its bytes, the offset of
    /// the column's dictionary id in the footer (zone tag, min and max
    /// codes follow it), and the offset of the codes in the payload (after
    /// the leading magic and one validity byte).
    fn dict_file(path: &Path) -> (Vec<u8>, usize, usize) {
        let k = Column::from_opt_strs(vec![
            Some("b".into()),
            None,
            Some("c".into()),
            Some("a".into()),
        ]);
        let t = Table::new(vec![("k", k.dict_encode())]).unwrap();
        write_table(path, &t, 16).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let footer_len =
            u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap());
        let footer = bytes.len() - 12 - footer_len as usize;
        // ncols, name "k", dtype, ndicts, the dictionary, nblocks, rows,
        // then enc, offset, len and data bytes before the id.
        let dict_id_at = footer + 4 + (4 + 1) + 1 + 4 + (4 + 3 * (4 + 1)) + 4 + 4 + 1 + 8 + 8 + 8;
        assert_eq!(bytes[dict_id_at..dict_id_at + 4], 0u32.to_le_bytes());
        assert_eq!(bytes[dict_id_at + 4], 2, "a code-range zone");
        assert_eq!(
            bytes[dict_id_at + 5..dict_id_at + 13],
            [0, 0, 0, 0, 2, 0, 0, 0]
        );
        let codes_at = MAGIC.len() + 1;
        assert_eq!(
            bytes[codes_at..codes_at + 4],
            1u32.to_le_bytes(),
            "row 0 is \"b\""
        );
        (bytes, dict_id_at, codes_at)
    }

    #[test]
    fn dictionary_ids_and_codes_that_lie_are_rejected() {
        let dir = ScopedDir::new("blockio-dict");
        let path = dir.0.join("k.dcb");
        let (good, dict_id_at, codes_at) = dict_file(&path);
        let (min_at, max_at) = (dict_id_at + 5, dict_id_at + 9);
        let read_with = |edits: &[(usize, u32)]| {
            let mut bad = good.clone();
            for &(at, v) in edits {
                bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            std::fs::write(&path, &bad).unwrap();
            BlockFile::open(&path).and_then(|f| f.read_all())
        };
        let (back, _) = read_with(&[]).unwrap();
        assert_eq!(back.column("k").unwrap().str_at(3), Some("a"));
        // A null row's placeholder code is never looked up.
        assert!(read_with(&[(codes_at + 4, 7)]).is_ok());
        for (what, edits) in [
            ("dictionary id past the dictionaries", vec![(dict_id_at, 1)]),
            ("zone max past the dictionary", vec![(max_at, 3)]),
            ("zone min above its max", vec![(min_at, 2), (max_at, 1)]),
            ("payload code past the dictionary", vec![(codes_at, 3)]),
        ] {
            assert!(
                matches!(read_with(&edits), Err(EngineError::Parse { .. })),
                "{what}"
            );
        }
    }

    #[test]
    fn empty_table_roundtrip() {
        let dir = ScopedDir::new("blockio-empty");
        let t = sample().slice(0, 0);
        let path = dir.0.join("e.dcb");
        write_table(&path, &t, 4).unwrap();
        let f = BlockFile::open(&path).unwrap();
        assert_eq!(f.num_rows(), 0);
        let (back, _) = f.read_all().unwrap();
        assert_eq!(back.schema().names(), t.schema().names());
    }

    #[test]
    fn corrupt_trailer_rejected() {
        let dir = ScopedDir::new("blockio-corrupt");
        let path = dir.0.join("c.dcb");
        std::fs::write(&path, b"not a block file at all....").unwrap();
        assert!(BlockFile::open(&path).is_err());
    }

    struct ScopedDir(PathBuf);
    impl ScopedDir {
        fn new(label: &str) -> ScopedDir {
            let p = std::env::temp_dir().join(format!("{label}-{}", std::process::id()));
            std::fs::create_dir_all(&p).unwrap();
            ScopedDir(p)
        }
    }
    impl Drop for ScopedDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
