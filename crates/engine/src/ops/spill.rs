//! Memory-governed variants of the heavy operators (hash join, group-by,
//! sort) with partitioned spill paths.
//!
//! Each `*_with_mem` entry point first tries to reserve its estimated
//! transient state against the [`MemContext`]'s governor. When the
//! reservation is admitted, the existing in-memory kernel runs unchanged
//! (the fast path pays only one atomic compare-exchange). When it is
//! refused, the operator degrades to disk:
//!
//! * **join** — Grace-style: both sides are hash-partitioned on the join
//!   keys into spill files, each partition pair is joined independently
//!   (recursing with a fresh hash salt if a partition is still over
//!   budget), and the concatenated result is re-sorted by hidden row-id
//!   columns so the output row order is byte-identical to the in-memory
//!   join.
//! * **group-by** — rows are hash-partitioned on the full group key, each
//!   partition is aggregated independently with a hidden `min(row-id)`
//!   aggregate, and the partials are stitched back in first-encounter
//!   order by sorting on that hidden column. A group's rows all land in
//!   one partition in their original ascending order, so per-group
//!   accumulation sequences — and therefore results, including
//!   order-sensitive aggregates — match the unpartitioned run.
//! * **sort** — external merge sort: input slices are sorted in memory
//!   and written as runs, then merged k ways (multiple passes if the run
//!   count exceeds the fan-out) with ties taken from the lowest-numbered
//!   run, which preserves stability because runs are input-order slices.
//!
//! All spill files flow through [`crate::blockio`], so dictionary columns
//! stay encoded on disk. Spill files live in per-operator
//! [`ScopedSpillDir`]s and are removed when the operator finishes — or
//! unwinds.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::blockio::{BlockFile, BlockWriter};
use crate::column::Column;
use crate::error::Result;
use crate::governor::MemContext;
use crate::hash::FxHasher;
use crate::table::Table;
use crate::value::Value;

use super::aggregate::{group_by, AggFunc, AggSpec};
use super::concat::concat;
use super::join::{join, JoinType};
use super::sort::{sort_by, SortKey};

// ---------------------------------------------------------------------------
// State estimates
//
// Deliberately conservative (upper-bound-ish) byte estimates of the
// transient state each in-memory kernel allocates. Refusal only degrades
// to disk, so overestimating costs speed, never correctness.
// ---------------------------------------------------------------------------

/// Hash-join transient state: the build-side index (map + chain links)
/// plus the probe-side pair vectors.
pub fn join_state_bytes(left: &Table, right: &Table) -> u64 {
    right.byte_size() as u64 + 32 * right.num_rows() as u64 + 16 * left.num_rows() as u64
}

/// Group-by transient state: key materialization plus the group index,
/// bounded by every row forming its own group.
pub fn group_state_bytes(table: &Table) -> u64 {
    table.byte_size() as u64 + 32 * table.num_rows() as u64
}

/// Sort transient state: decorated keys plus the index permutation and
/// the gathered output copy.
pub fn sort_state_bytes(table: &Table) -> u64 {
    table.byte_size() as u64 + 16 * table.num_rows() as u64
}

// ---------------------------------------------------------------------------
// Row partitioning
// ---------------------------------------------------------------------------

/// Hash the key columns of one row for partition placement.
///
/// Placement must be consistent with key equality in *both* the join
/// (`RefPart`) and group-by (`KeyPart`) senses: equal keys must land in
/// the same partition. Floats fold `-0.0` into `0.0` and every NaN into
/// one canonical NaN (joins never match NaN-to-NaN anyway; group-by
/// groups all NaNs together). Dict and plain strings hash by content.
/// `salt` varies per recursion depth so re-partitioning a skewed
/// partition actually redistributes it.
fn key_hash(cols: &[&Column], row: usize, salt: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(
        salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x5bd1_e995),
    );
    for col in cols {
        match col {
            Column::Bool(v, b) => {
                if b.get(row) {
                    h.write_u8(1);
                    h.write_u8(v[row] as u8);
                } else {
                    h.write_u8(0);
                }
            }
            Column::Int(v, b) => {
                if b.get(row) {
                    h.write_u8(2);
                    h.write_u64(v[row] as u64);
                } else {
                    h.write_u8(0);
                }
            }
            Column::Float(v, b) => {
                if b.get(row) {
                    let f = if v[row] == 0.0 { 0.0 } else { v[row] };
                    let f = if f.is_nan() { f64::NAN } else { f };
                    h.write_u8(3);
                    h.write_u64(f.to_bits());
                } else {
                    h.write_u8(0);
                }
            }
            Column::Str(v, b) => {
                if b.get(row) {
                    h.write_u8(4);
                    h.write_u64(v[row].len() as u64);
                    h.write(v[row].as_bytes());
                } else {
                    h.write_u8(0);
                }
            }
            Column::Dict(codes, dict, b) => {
                if b.get(row) {
                    let s = dict[codes[row] as usize].as_str();
                    h.write_u8(4);
                    h.write_u64(s.len() as u64);
                    h.write(s.as_bytes());
                } else {
                    h.write_u8(0);
                }
            }
            Column::Date(v, b) => {
                if b.get(row) {
                    h.write_u8(5);
                    h.write_u64(v[row] as u64);
                } else {
                    h.write_u8(0);
                }
            }
        }
    }
    h.finish()
}

/// One spilled partition file.
struct SpillPart {
    path: PathBuf,
    rows: usize,
}

/// Hash-partition `table` on `key_idx` columns into `ctx.fanout` spill
/// files under `dir`, processing input in chunks of `spill_block_rows`
/// rows so the transient buffers stay small. Every partition file starts
/// with a schema-defining empty block, so empty partitions read back as
/// zero-row tables with the right schema.
fn partition_table(
    table: &Table,
    key_idx: &[usize],
    ctx: &MemContext,
    dir: &Path,
    salt: u64,
    tag: &str,
) -> Result<Vec<SpillPart>> {
    let fanout = ctx.fanout.max(2);
    let mut writers = Vec::with_capacity(fanout);
    let empty = table.slice(0, 0);
    for p in 0..fanout {
        let mut w = BlockWriter::create(dir.join(format!("{tag}-p{p}.dcb")))?.without_zones();
        ctx.check_spill_write()?;
        w.append(&empty)?;
        writers.push(w);
    }
    let n = table.num_rows();
    let mut rows_per_part = vec![0usize; fanout];
    let mut start = 0;
    while start < n {
        let chunk = table.slice(start, ctx.spill_block_rows.max(1));
        let kcols: Vec<&Column> = key_idx.iter().map(|&i| chunk.column_at(i)).collect();
        let mut idx: Vec<Vec<usize>> = vec![Vec::new(); fanout];
        for row in 0..chunk.num_rows() {
            let p = (key_hash(&kcols, row, salt) % fanout as u64) as usize;
            idx[p].push(row);
        }
        for (p, rows) in idx.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let part = chunk.take(rows);
            ctx.check_spill_write()?;
            writers[p].append(&part)?;
            rows_per_part[p] += rows.len();
        }
        start += chunk.num_rows().max(1);
    }
    let mut parts = Vec::with_capacity(fanout);
    for (p, w) in writers.into_iter().enumerate() {
        let path = w.path().to_path_buf();
        let summary = w.finish()?;
        ctx.metrics.record_file(summary.total_bytes);
        parts.push(SpillPart {
            path,
            rows: rows_per_part[p],
        });
    }
    Ok(parts)
}

/// Read a whole spill file back, then delete it (partitions are consumed
/// exactly once; eager removal bounds peak disk usage).
fn consume_spill(ctx: &MemContext, path: &Path) -> Result<Table> {
    ctx.check_spill_read()?;
    let f = BlockFile::open(path)?;
    let (t, _) = f.read_all()?;
    drop(f);
    let _ = std::fs::remove_file(path);
    Ok(t)
}

/// A helper-column name absent from every given schema and the extra
/// reserved names.
fn fresh_name(tables: &[&Table], extra: &[&str], base: &str) -> String {
    let taken = |name: &str| {
        tables.iter().any(|t| t.schema().index_of(name).is_some())
            || extra.iter().any(|e| e.eq_ignore_ascii_case(name))
    };
    if !taken(base) {
        return base.to_string();
    }
    let mut n = 0u64;
    loop {
        let candidate = format!("{base}{n}");
        if !taken(&candidate) {
            return candidate;
        }
        n += 1;
    }
}

/// A dense 0..n row-id column.
fn rowid_column(n: usize) -> Column {
    Column::Int((0..n as i64).collect(), Bitmap::new_valid(n))
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// [`join`] with an optional memory governor. Under budget (or with no
/// context) this is exactly the in-memory join; over budget it degrades
/// to a Grace-style partitioned join with identical output.
pub fn join_with_mem(
    left: &Table,
    right: &Table,
    left_on: &[&str],
    right_on: &[&str],
    how: JoinType,
    mem: Option<&MemContext>,
) -> Result<Table> {
    let Some(ctx) = mem else {
        return join(left, right, left_on, right_on, how);
    };
    let est = join_state_bytes(left, right);
    if let Some(_admitted) = ctx.governor.try_reserve(est) {
        return join(left, right, left_on, right_on, how);
    }
    // Surface validation errors (unknown keys, incompatible types) before
    // any spill I/O happens.
    join(&left.head(0), &right.head(0), left_on, right_on, how)?;
    ctx.metrics.record_event();

    let lrow = fresh_name(&[left, right], &[], "__spill_lrow");
    let rrow = fresh_name(&[left, right], &[&lrow], "__spill_rrow");
    let left2 = left.with_column(&lrow, rowid_column(left.num_rows()))?;
    let right2 = right.with_column(&rrow, rowid_column(right.num_rows()))?;

    let out = grace_join(&left2, &right2, left_on, right_on, how, ctx, 0)?;
    let out = restore_join_order(&out, &lrow, &rrow);
    out.drop_column(&lrow)?.drop_column(&rrow)
}

fn grace_join(
    left: &Table,
    right: &Table,
    left_on: &[&str],
    right_on: &[&str],
    how: JoinType,
    ctx: &MemContext,
    depth: u32,
) -> Result<Table> {
    let dir = ctx.op_dir(&format!("join-d{depth}"))?;
    let lkey_idx: Vec<usize> = left_on
        .iter()
        .map(|k| left.schema().index_of(k).expect("validated join key"))
        .collect();
    let rkey_idx: Vec<usize> = right_on
        .iter()
        .map(|k| right.schema().index_of(k).expect("validated join key"))
        .collect();
    let lparts = partition_table(left, &lkey_idx, ctx, dir.path(), depth as u64, "l")?;
    let rparts = partition_table(right, &rkey_idx, ctx, dir.path(), depth as u64, "r")?;

    let mut results: Vec<Table> = Vec::new();
    for (lp, rp) in lparts.iter().zip(&rparts) {
        if lp.rows == 0 && rp.rows == 0 {
            let _ = std::fs::remove_file(&lp.path);
            let _ = std::fs::remove_file(&rp.path);
            continue;
        }
        let lt = consume_spill(ctx, &lp.path)?;
        let rt = consume_spill(ctx, &rp.path)?;
        let est = join_state_bytes(&lt, &rt);
        let sub = if let Some(_admitted) = ctx.governor.try_reserve(est) {
            join(&lt, &rt, left_on, right_on, how)?
        } else if depth + 1 < ctx.max_recursion
            && (lt.num_rows() < left.num_rows() || rt.num_rows() < right.num_rows())
        {
            grace_join(&lt, &rt, left_on, right_on, how, ctx, depth + 1)?
        } else {
            // Recursion cap, or a partition the hash cannot split further
            // (every key identical): over-admit rather than not terminate.
            let _forced = ctx.governor.reserve_force(est);
            join(&lt, &rt, left_on, right_on, how)?
        };
        results.push(sub);
    }
    if results.is_empty() {
        return join(&left.head(0), &right.head(0), left_on, right_on, how);
    }
    let refs: Vec<&Table> = results.iter().collect();
    concat(&refs, false)
}

/// Re-establish the in-memory join's global row order from the hidden
/// row-id columns: matched and unmatched-left rows in left-row order with
/// right matches ascending, then unmatched-right rows in right-row order.
fn restore_join_order(out: &Table, lrow: &str, rrow: &str) -> Table {
    let lc = out.column(lrow).expect("helper column present");
    let rc = out.column(rrow).expect("helper column present");
    let key_at = |col: &Column, i: usize, null_as: i64| match col.get(i) {
        Value::Int(v) => v,
        _ => null_as,
    };
    let mut keyed: Vec<(i64, i64, usize)> = (0..out.num_rows())
        // Unmatched-right rows (null lrow) sort after every real left row;
        // a null rrow can never tie with anything under the same lrow.
        .map(|i| (key_at(lc, i, i64::MAX), key_at(rc, i, -1), i))
        .collect();
    keyed.sort_unstable();
    let indices: Vec<usize> = keyed.into_iter().map(|(_, _, i)| i).collect();
    out.take(&indices)
}

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

/// [`group_by`] with an optional memory governor. Results — including
/// first-encounter group order and order-sensitive aggregates — are
/// identical to the in-memory kernel.
pub fn group_by_with_mem(
    table: &Table,
    keys: &[&str],
    aggs: &[AggSpec],
    mem: Option<&MemContext>,
) -> Result<Table> {
    let Some(ctx) = mem else {
        return group_by(table, keys, aggs);
    };
    // Global aggregates hold O(1) state per aggregate — nothing to spill.
    if keys.is_empty() {
        return group_by(table, keys, aggs);
    }
    let est = group_state_bytes(table);
    if let Some(_admitted) = ctx.governor.try_reserve(est) {
        return group_by(table, keys, aggs);
    }
    // Validation pass: surfaces unknown columns / non-numeric aggregate
    // arguments and captures the output schema for the final projection.
    let shape = group_by(&table.head(0), keys, aggs)?;
    ctx.metrics.record_event();

    let outputs: Vec<&str> = aggs.iter().map(|a| a.output.as_str()).collect();
    let rowid = fresh_name(&[table], &outputs, "__spill_rowid");
    let mut reserved = outputs.clone();
    reserved.push(&rowid);
    let ord = fresh_name(&[table], &reserved, "__spill_ord");
    let t2 = table.with_column(&rowid, rowid_column(table.num_rows()))?;
    let mut specs = aggs.to_vec();
    // Hidden aggregate: each group's minimum original row id is unique
    // (rows belong to exactly one group) and ascending min-row-id order
    // is exactly global first-encounter order.
    specs.push(AggSpec::new(AggFunc::Min, rowid.clone(), ord.clone()));
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| t2.schema().index_of(k).expect("validated group key"))
        .collect();

    let partials = grace_group(&t2, keys, &specs, &key_idx, ctx, 0)?;
    if partials.is_empty() {
        return group_by(table, keys, aggs);
    }
    let refs: Vec<&Table> = partials.iter().collect();
    let merged = concat(&refs, false)?;
    // The merge table holds one row per group; it can itself exceed the
    // budget, so route it through the governed sort.
    let ordered = sort_by_with_mem(&merged, &[SortKey::asc(&ord)], Some(ctx))?;
    let names: Vec<&str> = shape.schema().names();
    ordered.select(&names)
}

fn grace_group(
    table: &Table,
    keys: &[&str],
    specs: &[AggSpec],
    key_idx: &[usize],
    ctx: &MemContext,
    depth: u32,
) -> Result<Vec<Table>> {
    let dir = ctx.op_dir(&format!("groupby-d{depth}"))?;
    let parts = partition_table(table, key_idx, ctx, dir.path(), depth as u64, "g")?;
    let mut out = Vec::new();
    for part in parts {
        if part.rows == 0 {
            let _ = std::fs::remove_file(&part.path);
            continue;
        }
        let pt = consume_spill(ctx, &part.path)?;
        let est = group_state_bytes(&pt);
        if let Some(_admitted) = ctx.governor.try_reserve(est) {
            out.push(group_by(&pt, keys, specs)?);
        } else if depth + 1 < ctx.max_recursion && pt.num_rows() < table.num_rows() {
            out.extend(grace_group(&pt, keys, specs, key_idx, ctx, depth + 1)?);
        } else {
            let _forced = ctx.governor.reserve_force(est);
            out.push(group_by(&pt, keys, specs)?);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// [`sort_by`] with an optional memory governor: external merge sort when
/// the decorate-sort working set does not fit the budget. Output order is
/// identical (stable) either way.
pub fn sort_by_with_mem(
    table: &Table,
    keys: &[SortKey],
    mem: Option<&MemContext>,
) -> Result<Table> {
    let Some(ctx) = mem else {
        return sort_by(table, keys);
    };
    if keys.is_empty() {
        return Ok(table.clone());
    }
    let est = sort_state_bytes(table);
    if let Some(_admitted) = ctx.governor.try_reserve(est) {
        return sort_by(table, keys);
    }
    // Validate keys before any I/O.
    for k in keys {
        table.column(&k.column)?;
    }
    ctx.metrics.record_event();
    external_sort(table, keys, ctx)
}

fn external_sort(table: &Table, keys: &[SortKey], ctx: &MemContext) -> Result<Table> {
    let dir = ctx.op_dir("sort")?;
    let n = table.num_rows();
    let bytes_per_row = (table.byte_size() / n.max(1)).max(1);
    // A run must fit in memory while being sorted (input slice + index
    // decoration + gathered copy ≈ 4x), and the run count is capped so
    // the merge finishes in at most two passes over the fan-out.
    let budget_rows = (ctx.governor.available().max(1) / 4) as usize / bytes_per_row;
    let max_runs = ctx.fanout.max(2) * ctx.fanout.max(2);
    let run_rows = budget_rows
        .max(n.div_ceil(max_runs))
        .max(1024)
        .min(n.max(1));

    // Phase 1: sorted runs. Each run is a contiguous input slice, so run
    // index order == input order, which the tie-breaking below relies on.
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut start = 0;
    let mut run_no = 0usize;
    while start < n {
        let chunk = table.slice(start, run_rows);
        let sorted = sort_by(&chunk, keys)?;
        let path = dir.path().join(format!("run-{run_no}.dcb"));
        write_run(ctx, &path, &sorted)?;
        runs.push(path);
        start += chunk.num_rows();
        run_no += 1;
    }
    if runs.is_empty() {
        return Ok(table.slice(0, 0));
    }

    let key_cis: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| {
            (
                table.schema().index_of(&k.column).expect("validated key"),
                k.ascending,
            )
        })
        .collect();

    // Phase 2: k-way merges. While more runs remain than the fan-out,
    // merge groups of `fanout` runs into longer runs (concatenating merge
    // groups in run order keeps ties resolvable by run index).
    let fanout = ctx.fanout.max(2);
    let mut gen = 0usize;
    while runs.len() > fanout {
        let mut next: Vec<PathBuf> = Vec::new();
        for (gi, group) in runs.chunks(fanout).enumerate() {
            if group.len() == 1 {
                next.push(group[0].clone());
                continue;
            }
            let path = dir.path().join(format!("merge-{gen}-{gi}.dcb"));
            merge_runs(ctx, group, &key_cis, table, MergeSink::File(&path))?;
            for p in group {
                let _ = std::fs::remove_file(p);
            }
            next.push(path);
        }
        runs = next;
        gen += 1;
    }
    match merge_runs(ctx, &runs, &key_cis, table, MergeSink::Memory)? {
        Some(out) => Ok(out),
        None => unreachable!("memory sink always yields a table"),
    }
}

fn write_run(ctx: &MemContext, path: &Path, run: &Table) -> Result<()> {
    let mut w = BlockWriter::create(path)?.without_zones();
    let n = run.num_rows();
    if n == 0 {
        ctx.check_spill_write()?;
        w.append(run)?;
    } else {
        let mut start = 0;
        while start < n {
            ctx.check_spill_write()?;
            w.append(&run.slice(start, ctx.spill_block_rows.max(1)))?;
            start += ctx.spill_block_rows.max(1);
        }
    }
    let summary = w.finish()?;
    ctx.metrics.record_file(summary.total_bytes);
    Ok(())
}

/// Streaming cursor over one sorted run.
struct RunCursor {
    file: BlockFile,
    bi: usize,
    row: usize,
    block: Table,
}

impl RunCursor {
    fn open(ctx: &MemContext, path: &Path) -> Result<Option<RunCursor>> {
        ctx.check_spill_read()?;
        let file = BlockFile::open(path)?;
        if file.num_rows() == 0 {
            return Ok(None);
        }
        let (block, _) = file.read_block(0)?;
        let mut cur = RunCursor {
            file,
            bi: 0,
            row: 0,
            block,
        };
        cur.skip_empty_blocks(ctx)?;
        Ok(Some(cur))
    }

    fn skip_empty_blocks(&mut self, ctx: &MemContext) -> Result<()> {
        while self.row >= self.block.num_rows() {
            if self.bi + 1 >= self.file.num_blocks() {
                return Ok(());
            }
            self.bi += 1;
            ctx.check_spill_read()?;
            let (block, _) = self.file.read_block(self.bi)?;
            self.block = block;
            self.row = 0;
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.row >= self.block.num_rows()
    }

    fn advance(&mut self, ctx: &MemContext) -> Result<()> {
        self.row += 1;
        self.skip_empty_blocks(ctx)
    }

    fn key(&self, ci: usize) -> Value {
        self.block.column_at(ci).get(self.row)
    }
}

/// Compare the current rows of two cursors under the sort keys.
fn cmp_cursors(a: &RunCursor, b: &RunCursor, key_cis: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(ci, asc) in key_cis {
        let ord = a.key(ci).cmp_total(&b.key(ci));
        let ord = if asc { ord } else { ord.reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

enum MergeSink<'a> {
    /// Write the merged run to a spill file.
    File(&'a Path),
    /// Materialize the merged result as the final output table.
    Memory,
}

/// Typed per-column output accumulator; dict columns copy codes directly
/// and keep their shared dictionary rather than re-encoding strings.
enum ColAcc {
    Plain(Column),
    Dict {
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
        validity: Bitmap,
    },
}

impl ColAcc {
    fn for_column(proto: &Column) -> ColAcc {
        match proto {
            Column::Dict(_, dict, _) => ColAcc::Dict {
                codes: Vec::new(),
                dict: Arc::clone(dict),
                validity: Bitmap::new_valid(0),
            },
            other => ColAcc::Plain(Column::empty(other.dtype())),
        }
    }

    fn push(&mut self, src: &Column, row: usize) -> Result<()> {
        match self {
            ColAcc::Dict {
                codes,
                dict,
                validity,
            } => match src {
                // Runs are slices of one table, so every run block shares
                // the prototype's dictionary contents (blockio restores
                // one Arc per file; contents are identical).
                Column::Dict(src_codes, src_dict, b)
                    if Arc::ptr_eq(dict, src_dict) || **src_dict == **dict =>
                {
                    let valid = b.get(row);
                    codes.push(if valid { src_codes[row] } else { 0 });
                    validity.push(valid);
                    Ok(())
                }
                other => {
                    // Defensive fallback: re-encode through the value path.
                    let v = other.get(row);
                    let mut col = Column::Dict(
                        std::mem::take(codes),
                        Arc::clone(dict),
                        std::mem::replace(validity, Bitmap::new_valid(0)),
                    );
                    col.push_value(&v)?;
                    *self = ColAcc::Plain(col);
                    Ok(())
                }
            },
            ColAcc::Plain(col) => col.push_value(&src.get(row)),
        }
    }

    fn finish(self) -> Column {
        match self {
            ColAcc::Plain(col) => col,
            ColAcc::Dict {
                codes,
                dict,
                validity,
            } => Column::Dict(codes, dict, validity),
        }
    }
}

/// Merge sorted runs. Ties take from the lowest-numbered run, preserving
/// global stability. Returns the merged table for [`MergeSink::Memory`].
fn merge_runs(
    ctx: &MemContext,
    run_paths: &[PathBuf],
    key_cis: &[(usize, bool)],
    proto: &Table,
    sink: MergeSink<'_>,
) -> Result<Option<Table>> {
    let mut cursors: Vec<Option<RunCursor>> = Vec::with_capacity(run_paths.len());
    for p in run_paths {
        cursors.push(RunCursor::open(ctx, p)?);
    }
    let mut writer = match &sink {
        MergeSink::File(path) => Some(BlockWriter::create(*path)?.without_zones()),
        MergeSink::Memory => None,
    };
    let mut out: Option<Table> = None;
    let mut accs: Vec<ColAcc> = proto.columns().iter().map(ColAcc::for_column).collect();
    let mut buffered = 0usize;

    let flush = |accs: &mut Vec<ColAcc>,
                 writer: &mut Option<BlockWriter>,
                 out: &mut Option<Table>|
     -> Result<()> {
        let mut block = Table::empty();
        for (acc, field) in std::mem::take(accs)
            .into_iter()
            .zip(proto.schema().fields())
        {
            block.add_column(&field.name, acc.finish())?;
        }
        *accs = proto.columns().iter().map(ColAcc::for_column).collect();
        if let Some(w) = writer {
            ctx.check_spill_write()?;
            w.append(&block)?;
        } else {
            match out {
                None => *out = Some(block),
                Some(t) => t.append(&block)?,
            }
        }
        Ok(())
    };

    loop {
        let mut best: Option<usize> = None;
        for i in 0..cursors.len() {
            let Some(c) = &cursors[i] else { continue };
            if c.exhausted() {
                continue;
            }
            best = match best {
                None => Some(i),
                // Strictly-less keeps the lowest run index on ties.
                Some(j) => {
                    let cj = cursors[j].as_ref().unwrap();
                    if cmp_cursors(c, cj, key_cis) == std::cmp::Ordering::Less {
                        Some(i)
                    } else {
                        Some(j)
                    }
                }
            };
        }
        let Some(bi) = best else { break };
        {
            let c = cursors[bi].as_ref().unwrap();
            for (ci, acc) in accs.iter_mut().enumerate() {
                acc.push(c.block.column_at(ci), c.row)?;
            }
        }
        buffered += 1;
        if buffered >= ctx.spill_block_rows.max(1) {
            flush(&mut accs, &mut writer, &mut out)?;
            buffered = 0;
        }
        let c = cursors[bi].as_mut().unwrap();
        c.advance(ctx)?;
        if c.exhausted() {
            cursors[bi] = None;
        }
    }
    if buffered > 0 || (writer.is_none() && out.is_none()) {
        flush(&mut accs, &mut writer, &mut out)?;
    }
    if let Some(w) = writer {
        let summary = w.finish()?;
        ctx.metrics.record_file(summary.total_bytes);
        return Ok(None);
    }
    // The memory sink builds columns bottom-up; align the empty case to
    // the proto schema.
    Ok(Some(out.unwrap_or_else(|| proto.slice(0, 0))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::MemContext;
    use crate::ops::aggregate::{AggFunc, AggSpec};

    fn big_table(n: usize) -> Table {
        let keys: Vec<Option<i64>> = (0..n)
            .map(|i| {
                if i % 17 == 3 {
                    None
                } else {
                    Some((i % 97) as i64)
                }
            })
            .collect();
        let vals: Vec<Option<f64>> = (0..n)
            .map(|i| {
                if i % 13 == 5 {
                    None
                } else {
                    Some((i as f64) * 0.25 - 40.0)
                }
            })
            .collect();
        let cats: Vec<Option<String>> = (0..n)
            .map(|i| {
                if i % 11 == 7 {
                    None
                } else {
                    Some(format!("cat{}", i % 23))
                }
            })
            .collect();
        Table::new(vec![
            ("k", Column::from_opt_ints(keys)),
            ("v", Column::from_opt_floats(vals)),
            ("c", Column::from_opt_strs(cats)),
        ])
        .unwrap()
        .encode_strings()
    }

    fn tiny_ctx() -> MemContext {
        let mut ctx = MemContext::with_budget(4 * 1024).unwrap();
        ctx.spill_block_rows = 256;
        ctx.fanout = 4;
        ctx
    }

    #[test]
    fn spilled_join_matches_in_memory() {
        let left = big_table(3000);
        let right = Table::new(vec![
            (
                "k",
                Column::from_opt_ints((0..200).map(|i| Some(i % 50)).collect()),
            ),
            (
                "w",
                Column::from_opt_ints((0..200).map(|i| Some(i * 10)).collect()),
            ),
        ])
        .unwrap();
        for how in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
        ] {
            let expect = join(&left, &right, &["k"], &["k"], how).unwrap();
            let ctx = tiny_ctx();
            let got = join_with_mem(&left, &right, &["k"], &["k"], how, Some(&ctx)).unwrap();
            assert_eq!(got, expect, "join {how:?} diverged under spill");
            let snap = ctx.metrics.snapshot();
            assert!(snap.bytes_spilled > 0, "join {how:?} did not spill");
        }
    }

    #[test]
    fn spilled_group_by_matches_in_memory() {
        let t = big_table(3000);
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, "v", "s"),
            AggSpec::new(AggFunc::Avg, "v", "a"),
            AggSpec::new(AggFunc::First, "c", "f"),
            AggSpec::new(AggFunc::Last, "c", "l"),
            AggSpec::count_records("n"),
        ];
        let expect = group_by(&t, &["k", "c"], &aggs).unwrap();
        let ctx = tiny_ctx();
        let got = group_by_with_mem(&t, &["k", "c"], &aggs, Some(&ctx)).unwrap();
        assert_eq!(got, expect);
        assert!(ctx.metrics.snapshot().bytes_spilled > 0);
    }

    #[test]
    fn spilled_sort_matches_in_memory() {
        let t = big_table(3000);
        let keys = [SortKey::asc("k"), SortKey::desc("v")];
        let expect = sort_by(&t, &keys).unwrap();
        let mut ctx = tiny_ctx();
        ctx.spill_block_rows = 128;
        let got = sort_by_with_mem(&t, &keys, Some(&ctx)).unwrap();
        assert_eq!(got, expect);
        assert!(ctx.metrics.snapshot().bytes_spilled > 0);
    }

    #[test]
    fn under_budget_paths_do_not_spill() {
        let t = big_table(500);
        let ctx = MemContext::with_budget(u64::MAX).unwrap();
        let sorted = sort_by_with_mem(&t, &[SortKey::asc("v")], Some(&ctx)).unwrap();
        assert_eq!(sorted, sort_by(&t, &[SortKey::asc("v")]).unwrap());
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.bytes_spilled, 0);
        assert_eq!(snap.spill_events, 0);
    }

    #[test]
    fn spill_files_removed_after_ops() {
        let t = big_table(2000);
        let ctx = tiny_ctx();
        let _ = sort_by_with_mem(&t, &[SortKey::asc("v")], Some(&ctx)).unwrap();
        let _ = group_by_with_mem(&t, &["k"], &[AggSpec::count_records("n")], Some(&ctx)).unwrap();
        let leaked: Vec<_> = std::fs::read_dir(&ctx.spill_root)
            .unwrap()
            .flatten()
            .collect();
        assert!(leaked.is_empty(), "spill dirs leaked: {leaked:?}");
    }

    #[test]
    fn helper_names_avoid_collisions() {
        let t = Table::new(vec![("__spill_lrow", Column::from_ints(vec![1, 2]))]).unwrap();
        let name = fresh_name(&[&t], &[], "__spill_lrow");
        assert_ne!(name, "__spill_lrow");
        assert!(t.schema().index_of(&name).is_none());
    }
}
