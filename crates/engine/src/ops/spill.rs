//! What the governed join, group-by and sort share: the sizes of the state
//! they book, and *runs* — the only thing an operator ever writes to disk.
//!
//! The operators borrow resident inputs and never copy them. They book the
//! state they allocate (hash index, group table, sort records, join pairs)
//! through a [`Spill`] handle, and when the governor refuses they bound that
//! state by partitioning their *work*: [`partition_ids`] splits row ids —
//! not rows — by a hash of the key encoder's words (`key_hashes`), and each
//! partition goes through the same kernel body over its ids. State that is
//! itself O(n) — id lists, sort records,
//! join pairs — lives in [`Run`]s: append-only sequences of `width`-word
//! `u64` records, resident while their growing reservation is admitted and
//! from the first refusal on a DCB1 file of `Int` columns (one per word) in
//! the operator's [`ScopedSpillDir`], which is created with the first file.
//! Every block written or read passes the context's chaos hooks, a sealed
//! file is one `spill_partitions` count, an operator that wrote anything one
//! `spill_events` count, and a file is deleted when read to its end. Sorted
//! runs merge k ways ([`merge_runs`]); records end in a row id or are packed
//! row pairs, so no two compare equal and the merge needs no tie rule.
//!
//! Without a context (`mem = None`) the governor is an unlimited one, so
//! the kernels take one partition, keep everything resident and write
//! nothing: the unbudgeted operator is the same body.
//!
//! Not booked: one block of at most [`MemContext::spill_block_rows`]
//! records per run file being read or written, and [`FLOOR_RECORDS`]
//! records where the governor admits nothing at all — bounded whatever the
//! input.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::blockio::{BlockFile, BlockWriter};
use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::governor::{MemContext, MemoryGovernor, Reservation, ScopedSpillDir};
use crate::hash::{mix, mix_bytes};
use crate::ops::aggregate::AggFunc;
use crate::ops::keys::{KeyCol, Rows};
use crate::ops::sort::sort_records;
use crate::table::Table;

// ---------------------------------------------------------------------------
// State sizes: upper bounds, as pure functions of counts, of what a kernel
// body allocates for one morsel. The kernels book exactly these (their unit
// tests compare them with the capacities really allocated) and `dc-analyze`
// calls them with its lower bounds to predict a spill.
// ---------------------------------------------------------------------------

/// An id table sized for its rows at once ([`super::keys`]): at most four
/// `u32` slots a row and, where it is not indexed directly, the row's word.
const TABLE_BYTES_PER_ROW: u64 = 4 * 4 + 8;

/// An id table that grows with its keys: between doublings it holds at most
/// four slots and two words of capacity a key, and while either doubles its
/// old half is still there.
const TABLE_BYTES_PER_KEY: u64 = (4 * 4 + 2 * 8) * 3 / 2;

/// What refining the ids of a composite key takes a row: the next column's
/// code, and the `(id, code)` pair as a word.
const fn refine_bytes_per_row(keys: u64) -> u64 {
    if keys > 1 {
        4 + 8
    } else {
        0
    }
}

/// Hash-join state on `keys` key columns. Per build row: an id table per
/// key column and one of id pairs per column after the first, the row's id
/// and what refines it, its place among the rows laid out by id, that id's
/// first place and its match flag. Per probe row: its id, what refines it,
/// and one packed pair.
pub fn join_state_bytes(build_rows: u64, probe_rows: u64, keys: u64) -> u64 {
    let tables = (2 * keys).saturating_sub(1);
    let refine = refine_bytes_per_row(keys);
    build_rows * (tables * TABLE_BYTES_PER_ROW + 4 + refine + 4 + 4 + 1)
        + probe_rows * (4 + refine + 8)
}

/// Sort state: a record of `key_words + 1` words per row, and the row index
/// the records are sorted through or read out into; records of more than
/// four words are sorted through the index into a copy.
pub fn sort_state_bytes(rows: u64, key_words: u64) -> u64 {
    let copy = if key_words > 3 { key_words + 1 } else { 0 };
    rows * 8 * (key_words + 2 + copy)
}

/// Per-row and per-group bytes of a group-by over `keys` key columns
/// computing `aggs`. Per row: the group id, what refines it, the two slots
/// of an id table indexed directly, and what `Median` and
/// `CountDistinct` keep of every input. Per group: the representative row,
/// the accumulators, and the key encoder's growing tables — a column has
/// at most as many distinct values as there are groups, and each key column
/// after the first adds a table of `(group, code)` pairs.
pub fn group_widths(keys: usize, aggs: impl Iterator<Item = AggFunc>) -> (u64, u64) {
    use AggFunc::*;
    let tables = (2 * keys as u64).saturating_sub(1);
    let refine = refine_bytes_per_row(keys as u64);
    let (mut per_row, mut per_group) = (4 + refine + 8, 8 + tables * TABLE_BYTES_PER_KEY);
    for func in aggs {
        match func {
            Count | CountRecords => per_group += 8,
            Avg | Min | Max | First | Last => per_group += 16,
            Sum | StdDev | Variance => per_group += 24,
            Median => per_row += 16,
            CountDistinct => per_row += 40 + 2 * TABLE_BYTES_PER_KEY,
        }
    }
    (per_row, per_group)
}

/// Group-by state over `rows` rows forming `groups` groups, with the widths
/// [`group_widths`] gives.
pub fn group_state_bytes(rows: u64, groups: u64, (per_row, per_group): (u64, u64)) -> u64 {
    rows * per_row + groups * per_group
}

// ---------------------------------------------------------------------------
// The operator's handle on the budget and the spill directory
// ---------------------------------------------------------------------------

/// Records an operator works with where the governor admits nothing: a
/// run's buffer, a gather block. Below the budget's resolution, so unbooked.
pub(crate) const FLOOR_RECORDS: usize = 64;

/// One operator execution's view of its [`MemContext`]: what it asks the
/// governor through, and where its run files go.
pub(crate) struct Spill<'a> {
    ctx: Option<&'a MemContext>,
    governor: Arc<MemoryGovernor>,
    label: &'static str,
    dir: Option<ScopedSpillDir>,
    files: usize,
}

impl<'a> Spill<'a> {
    pub(crate) fn new(ctx: Option<&'a MemContext>, label: &'static str) -> Spill<'a> {
        let governor = ctx.map_or_else(MemoryGovernor::unlimited, |c| Arc::clone(&c.governor));
        Spill {
            ctx,
            governor,
            label,
            dir: None,
            files: 0,
        }
    }

    /// `bytes` of the budget, `None` when the governor refuses them; with
    /// `force`, a refusal is overridden.
    pub(crate) fn hold(&self, bytes: u64, force: bool) -> Option<Reservation> {
        let held = self.governor.try_reserve(bytes);
        held.or_else(|| force.then(|| self.governor.reserve_force(bytes)))
    }

    /// Room for as many of `want` items of `each` bytes as the governor has
    /// now; [`FLOOR_RECORDS`] (unbooked) when it has less than that.
    pub(crate) fn hold_some(&self, want: usize, each: u64) -> (usize, Reservation) {
        let n = want.min((self.governor.available() / each.max(1)) as usize);
        match self.hold(n as u64 * each, false) {
            Some(held) if n >= want.min(FLOOR_RECORDS) => (n, held),
            _ => (want.min(FLOOR_RECORDS), self.governor.reserve_force(0)),
        }
    }

    /// How many partitions bring `need(parts)` — the state of one of `parts`
    /// equal partitions — under half of what the governor has left beside
    /// `resident` bytes of id lists: at least 2, at most `fanout`.
    pub(crate) fn parts_for(&self, resident: u64, need: impl Fn(u64) -> u64) -> usize {
        let room = self.governor.available().saturating_sub(resident) / 2;
        let fanout = self.fanout();
        (2..fanout)
            .find(|&p| need(p as u64) <= room)
            .unwrap_or(fanout)
    }

    /// Most partitions per level and most runs per merge.
    fn fanout(&self) -> usize {
        self.ctx.map_or(2, |c| c.fanout.max(2))
    }

    /// Release the id lists `runs` to disk unless, beside them, the
    /// governor has the `need` bytes of their largest partition's state.
    pub(crate) fn make_room(&mut self, runs: &mut [Run<'a>], need: u64) -> Result<()> {
        if self.governor.available() < need {
            runs.iter_mut().try_for_each(|run| run.spill(self))?;
        }
        Ok(())
    }

    /// Whether work that `depth` partitionings produced may be split again.
    pub(crate) fn may_split(&self, depth: u32) -> bool {
        self.ctx.is_some_and(|c| depth < c.max_recursion)
    }

    /// Most records per run-file block and rows per gather.
    pub(crate) fn block_rows(&self) -> usize {
        self.ctx.map_or(usize::MAX, |c| c.spill_block_rows.max(1))
    }

    /// A run of `width`-word records: the sorted `records`, which occupy
    /// `held`, to begin with.
    pub(crate) fn run_of(&self, records: Vec<u64>, width: usize, held: Reservation) -> Run<'a> {
        Run {
            width,
            len: records.len() / width,
            buf: records,
            at: 0,
            held,
            file: RunFile::None,
        }
    }

    /// An empty run of `width`-word records.
    pub(crate) fn run(&self, width: usize) -> Run<'a> {
        self.run_of(Vec::new(), width, self.governor.reserve_force(0))
    }

    /// The next run file of this operator; the first one creates the
    /// operator's directory and counts the spill event.
    fn create(&mut self) -> Result<(&'a MemContext, BlockWriter)> {
        let no_context = || EngineError::spill("a run without a memory context cannot spill");
        let ctx = self.ctx.ok_or_else(no_context)?;
        let dir = match &self.dir {
            Some(dir) => dir,
            None => {
                ctx.metrics.record_event();
                self.dir.insert(ctx.op_dir(self.label)?)
            }
        };
        let path = dir.path().join(format!("run-{}.dcb", self.files));
        self.files += 1;
        Ok((ctx, BlockWriter::create(path)?.without_zones()))
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

enum RunFile<'a> {
    /// Nothing on disk: the whole run is in `buf`.
    None,
    /// Blocks written so far, the tail still in `buf`.
    Open(&'a MemContext, BlockWriter),
    /// Everything written and the footer sealed.
    Sealed(&'a MemContext, PathBuf),
    /// Being read back: the file and its next block; `buf` is the last.
    Reading(&'a MemContext, BlockFile, PathBuf, usize),
}

/// An append-only sequence of `width`-word records: resident while the
/// governor admits its growth, on file from the first refusal on; read back
/// from its start ([`Run::rewind`]) a record at a time ([`Run::head`],
/// [`Run::advance`]).
pub(crate) struct Run<'a> {
    width: usize,
    len: usize,
    buf: Vec<u64>,
    /// Word offset in `buf` of the record a reader stands on.
    at: usize,
    held: Reservation,
    file: RunFile<'a>,
}

impl<'a> Run<'a> {
    /// Records appended.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The records, if none of them is on disk.
    pub(crate) fn resident(&self) -> Option<&[u64]> {
        matches!(self.file, RunFile::None).then_some(&self.buf[..])
    }

    /// Append one record. The buffer grows by half while the governor
    /// admits it; from the first refusal on it is written out whenever full.
    #[inline]
    pub(crate) fn push(&mut self, op: &mut Spill<'a>, record: &[u64]) -> Result<()> {
        debug_assert_eq!(record.len(), self.width);
        if self.buf.len() + self.width > self.buf.capacity() {
            self.make_room(op)?;
        }
        self.buf.extend_from_slice(record);
        self.len += 1;
        Ok(())
    }

    #[cold]
    fn make_room(&mut self, op: &mut Spill<'a>) -> Result<()> {
        let floor = FLOOR_RECORDS * self.width;
        let more = (self.buf.capacity() / 2).max(floor);
        if self.resident().is_some() && self.held.try_grow(more as u64 * 8) {
            self.buf.reserve_exact(more);
        } else if self.buf.capacity() < floor {
            self.buf.reserve_exact(floor);
        } else {
            self.flush(op)?;
        }
        Ok(())
    }

    /// Write the buffered records out as blocks and empty the buffer.
    fn flush(&mut self, op: &mut Spill<'a>) -> Result<()> {
        if self.resident().is_some() {
            let (ctx, writer) = op.create()?;
            self.file = RunFile::Open(ctx, writer);
        }
        let RunFile::Open(ctx, writer) = &mut self.file else {
            return Err(EngineError::spill("append to a sealed run file"));
        };
        for block in self.buf.chunks(op.block_rows().saturating_mul(self.width)) {
            ctx.check_spill_write()?;
            let mut table = Table::empty();
            for word in 0..self.width {
                let column = block.iter().skip(word).step_by(self.width);
                let column = column.map(|&w| w as i64).collect();
                let valid = Bitmap::new_valid(block.len() / self.width);
                table.add_column(&format!("w{word}"), Column::Int(column, valid))?;
            }
            writer.append(&table)?;
        }
        self.buf.clear();
        Ok(())
    }

    /// Release a resident run to a file and give its bytes back.
    pub(crate) fn spill(&mut self, op: &mut Spill<'a>) -> Result<()> {
        if self.resident().is_some() && self.len > 0 {
            self.flush(op)?;
        }
        self.seal(op)
    }

    /// No more appends: a run with a file writes its tail and the footer
    /// and frees its buffer; a resident one settles to what it holds.
    pub(crate) fn seal(&mut self, op: &mut Spill<'a>) -> Result<()> {
        if matches!(self.file, RunFile::Open(..)) {
            self.flush(op)?;
        }
        match std::mem::replace(&mut self.file, RunFile::None) {
            RunFile::Open(ctx, writer) => {
                let path = writer.path().to_path_buf();
                ctx.metrics.record_file(writer.finish()?.total_bytes);
                self.buf = Vec::new();
                self.held.shrink_to(0);
                self.file = RunFile::Sealed(ctx, path);
            }
            RunFile::None => {
                self.buf.shrink_to_fit();
                self.held.shrink_to(self.buf.capacity() as u64 * 8);
            }
            other => self.file = other,
        }
        Ok(())
    }

    /// Seal the run and stand on its first record: for a run on file, read
    /// its first block.
    pub(crate) fn rewind(&mut self, op: &mut Spill<'a>) -> Result<()> {
        self.seal(op)?;
        if let RunFile::Sealed(ctx, path) = std::mem::replace(&mut self.file, RunFile::None) {
            ctx.check_spill_read()?;
            self.file = RunFile::Reading(ctx, BlockFile::open(&path)?, path, 0);
            self.refill()?;
        }
        Ok(())
    }

    /// The record the reader stands on; `None` past the end.
    pub(crate) fn head(&self) -> Option<&[u64]> {
        self.buf.get(self.at..self.at + self.width)
    }

    /// Step to the next record.
    pub(crate) fn advance(&mut self) -> Result<()> {
        self.at += self.width;
        if self.at >= self.buf.len() {
            self.refill()?;
        }
        Ok(())
    }

    /// Replace the buffer with the file's next non-empty block; past the
    /// last one — when the file is deleted — or for a resident run, with
    /// nothing.
    pub(crate) fn refill(&mut self) -> Result<()> {
        self.at = 0;
        self.buf.clear();
        while self.buf.is_empty() {
            let RunFile::Reading(ctx, file, path, next) = &mut self.file else {
                return Ok(());
            };
            if *next == file.num_blocks() {
                let _ = std::fs::remove_file(path);
                self.file = RunFile::None;
                return Ok(());
            }
            ctx.check_spill_read()?;
            let (table, _) = file.read_block(*next)?;
            *next += 1;
            // A run file is `width` all-valid `Int` columns; anything else
            // is not one of ours.
            if table.num_columns() != self.width {
                return Err(EngineError::parse(format!(
                    "run file block has {} columns, its records {} words",
                    table.num_columns(),
                    self.width
                )));
            }
            self.buf.resize(table.num_rows() * self.width, 0);
            for (word, column) in table.columns().iter().enumerate() {
                let Column::Int(values, valid) = &**column else {
                    return Err(EngineError::parse("run file column is not Int"));
                };
                if !valid.all_valid() {
                    return Err(EngineError::parse("run file record has a null word"));
                }
                let slots = self.buf.iter_mut().skip(word).step_by(self.width);
                slots.zip(values).for_each(|(slot, v)| *slot = *v as u64);
            }
        }
        Ok(())
    }

    /// Bring a run of row ids into memory, each checked to name one of
    /// `rows` rows; `false` if the governor refuses them (never with
    /// `force`), which leaves the run on file.
    pub(crate) fn load_ids(
        &mut self,
        op: &mut Spill<'a>,
        rows: usize,
        force: bool,
    ) -> Result<bool> {
        self.seal(op)?;
        if self.resident().is_none() {
            let Some(held) = op.hold((self.len * self.width * 8) as u64, force) else {
                return Ok(false);
            };
            let mut all = Vec::with_capacity(self.len * self.width);
            self.rewind(op)?;
            while !self.buf.is_empty() {
                all.extend_from_slice(&self.buf);
                self.refill()?;
            }
            (self.buf, self.held) = (all, held);
        }
        check_ids(&self.buf, rows).map(|()| true)
    }
}

/// Merge sorted `runs` (no record in two of them) into `emit`, smallest
/// record first, `block_rows` records at most at a time. More than `fanout`
/// runs are first merged, `fanout` at a time, into longer runs.
pub(crate) fn merge_runs<'a>(
    op: &mut Spill<'a>,
    mut runs: Vec<Run<'a>>,
    block_rows: usize,
    mut emit: impl FnMut(&[u64]) -> Result<()>,
) -> Result<()> {
    let Some(w) = runs.first().map(|run| run.width) else {
        return Ok(());
    };
    // One resident run is in order as it is; several are sorted as one —
    // where there is room for the copy — which beats merging them.
    let (words, block_words) = (
        runs.iter().map(|run| run.len * w).sum(),
        block_rows.max(1).saturating_mul(w),
    );
    let resident = runs.iter().all(|run| run.resident().is_some());
    if let ([only], true) = (&runs[..], resident) {
        return only.buf.chunks(block_words).try_for_each(emit);
    }
    if let Some(_copy) = resident.then(|| op.hold(words as u64 * 8, false)).flatten() {
        let mut all = Vec::with_capacity(words);
        runs.iter().for_each(|run| all.extend_from_slice(&run.buf));
        drop(runs);
        let all = sort_records(all, w, &[], None);
        return all.chunks(block_words).try_for_each(emit);
    }
    let fanout = op.fanout();
    while runs.len() > fanout {
        let mut longer = Vec::with_capacity(runs.len().div_ceil(fanout));
        let mut rest = runs.into_iter();
        loop {
            let mut group: Vec<Run> = rest.by_ref().take(fanout).collect();
            if group.len() <= 1 {
                longer.append(&mut group);
                break;
            }
            let mut out = op.run(w);
            group.iter_mut().try_for_each(|run| run.rewind(op))?;
            merge(group, |record| out.push(op, record))?;
            longer.push(out);
        }
        runs = longer;
    }
    runs.iter_mut().try_for_each(|run| run.rewind(op))?;
    let mut block = Vec::with_capacity(block_words.min(words));
    merge(runs, |record| {
        block.extend_from_slice(record);
        if block.len() >= block_words {
            emit(&block)?;
            block.clear();
        }
        Ok(())
    })?;
    emit(&block)
}

/// K-way merge over a binary heap of the runs that still have a record,
/// ordered by that record.
fn merge(mut runs: Vec<Run>, mut emit: impl FnMut(&[u64]) -> Result<()>) -> Result<()> {
    fn sift(heap: &mut [usize], mut at: usize, runs: &[Run]) {
        loop {
            let mut least = at;
            for child in [2 * at + 1, 2 * at + 2] {
                if child < heap.len() && runs[heap[child]].head() < runs[heap[least]].head() {
                    least = child;
                }
            }
            if least == at {
                return;
            }
            heap.swap(at, least);
            at = least;
        }
    }
    let live = |i: &usize| runs[*i].head().is_some();
    let mut heap: Vec<usize> = (0..runs.len()).filter(live).collect();
    for at in (0..heap.len() / 2).rev() {
        sift(&mut heap, at, &runs);
    }
    while let Some(&top) = heap.first() {
        if let Some(record) = runs[top].head() {
            emit(record)?;
        }
        runs[top].advance()?;
        if runs[top].head().is_none() {
            heap.swap_remove(0);
        }
        sift(&mut heap, 0, &runs);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Partitioning row ids
// ---------------------------------------------------------------------------

/// The rows a kernel body works on: all `n` of its input, or those a run
/// lists (ascending, as every partition of ascending ids is).
pub(crate) enum Ids<'a> {
    All(usize),
    Listed(Run<'a>),
}

impl Ids<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Ids::All(n) => *n,
            Ids::Listed(run) => run.len(),
        }
    }

    /// The row at `position`, of a list that is resident.
    #[inline]
    pub(crate) fn row(&self, position: usize) -> usize {
        match self {
            Ids::All(_) => position,
            Ids::Listed(run) => run.buf[position] as usize,
        }
    }

    /// The rows at `positions`, of a list that is resident.
    pub(crate) fn rows(&self, positions: Range<usize>) -> Rows<'_> {
        match self {
            Ids::All(_) => Rows::Range(positions),
            Ids::Listed(run) => Rows::Listed(&run.buf[positions]),
        }
    }
}

/// `Err` unless every id names one of `rows` rows: ids read back from a
/// file index the resident input.
pub(crate) fn check_ids(ids: &[u64], rows: usize) -> Result<()> {
    match ids.iter().find(|&&id| id >= rows as u64) {
        Some(id) => Err(EngineError::spill(format!(
            "run file names row {id} of a {rows}-row input"
        ))),
        None => Ok(()),
    }
}

/// Split `ids` into `parts` runs of row ids by the hash of their key in
/// `cols` ([`key_hashes`]): equal keys share a run, and every run lists its
/// rows in the order they came.
pub(crate) fn partition_ids<'a>(
    op: &mut Spill<'a>,
    cols: &[&Column],
    ids: Ids<'a>,
    parts: usize,
    salt: u64,
) -> Result<Vec<Run<'a>>> {
    /// Rows hashed at a time, a column at a time.
    const CHUNK: usize = 256;
    let rows = cols.first().map_or(0, |c| c.len());
    let mut runs: Vec<Run> = (0..parts).map(|_| op.run(1)).collect();
    let mut hashes = [0; CHUNK];
    let mut place = |op: &mut Spill<'a>, ids: &[u64]| {
        key_hashes(cols, ids, salt, &mut hashes[..ids.len()]);
        let placed = ids.iter().zip(&hashes);
        placed
            .into_iter()
            .try_for_each(|(id, hash)| runs[(hash % parts as u64) as usize].push(op, &[*id]))
    };
    match ids {
        Ids::All(n) => {
            let (n, mut chunk) = (n.min(rows) as u64, Vec::with_capacity(CHUNK));
            for start in (0..n).step_by(CHUNK) {
                chunk.clear();
                chunk.extend(start..(start + CHUNK as u64).min(n));
                place(op, &chunk)?;
            }
        }
        Ids::Listed(mut run) => {
            run.rewind(op)?;
            while !run.buf.is_empty() {
                check_ids(&run.buf, rows)?;
                run.buf.chunks(CHUNK).try_for_each(|ids| place(op, ids))?;
                run.refill()?;
            }
        }
    }
    runs.iter_mut().try_for_each(|run| run.seal(op))?;
    Ok(runs)
}

/// Hash the key `cols` hold at each of `rows` for partition placement,
/// into `hashes` (as long as `rows`), a column at a time.
///
/// What is hashed is the key encoder's word of each cell ([`KeyCol`]), so
/// keys that are equal to the join or to group-by share a partition by
/// construction (`-0.0` and `0.0`, every NaN, nulls). Only strings are not
/// hashed as their words: a word numbers a string within one pass of the
/// encoder, and a partitioning pass has none to share with the other side
/// of a join, so dictionary and plain strings hash by content. `salt`
/// varies per recursion depth so re-partitioning a skewed partition
/// actually redistributes it, at any partition count.
pub(crate) fn key_hashes(cols: &[&Column], rows: &[u64], salt: u64, hashes: &mut [u64]) {
    let text = |hash: u64, s: &str| mix_bytes(mix(hash, s.len() as u64), s.as_bytes());
    hashes.fill(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for col in cols {
        let mut slots = hashes.iter_mut();
        let mut next = |cell: Option<u64>| {
            let hash = slots.next().expect("a hash per row");
            *hash = cell.map_or(mix(*hash, 0), |cell| mix(mix(*hash, 1), cell));
        };
        match col {
            Column::Str(..) | Column::Dict(..) => {
                (rows.iter()).for_each(|&row| next(col.str_at(row as usize).map(|s| text(0, s))))
            }
            _ => KeyCol::of(col, 0..0).each(&Rows::Listed(rows), next),
        }
    }
    // The multiply leaves the low bits weak, and they pick the partition:
    // fold the high half in.
    for hash in hashes {
        let h = (*hash ^ *hash >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        *hash = h ^ h >> 29;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::SpillHooks;
    use crate::ops::{
        group_by, group_by_with_mem, join, join_with_mem, sort_by, sort_by_with_mem, AggSpec,
        JoinType, SortKey,
    };
    use crate::value::Value;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const KIB: u64 = 1024;

    /// A context sized for miri: tiny blocks, narrow fan-out.
    fn ctx(budget: u64) -> MemContext {
        let mut ctx = MemContext::with_budget(budget).unwrap();
        ctx.spill_block_rows = 128;
        ctx.fanout = 4;
        ctx
    }

    /// Entries left under the context's spill root.
    fn leaked(ctx: &MemContext) -> usize {
        std::fs::read_dir(&ctx.spill_root).map_or(0, |dir| dir.count())
    }

    /// Same schema and the same cells, floats to the bit (so NaN cells
    /// compare and `-0.0` is not `0.0`).
    fn identical(got: &Table, want: &Table) -> bool {
        let same_cell = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a.dtype() == b.dtype() && a == b,
        };
        got.schema() == want.schema()
            && got.num_rows() == want.num_rows()
            && got.columns().iter().zip(want.columns()).all(|(g, w)| {
                g.iter_values()
                    .zip(w.iter_values())
                    .all(|(a, b)| same_cell(&a, &b))
            })
    }

    /// `n` wide rows: a nullable int key of 37 values, a 20-value
    /// dictionary column, a nullable float with `NaN`, `-0.0` and `0.0`
    /// among its values, a nullable plain string, and filler.
    fn facts(n: usize) -> Table {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut draw = |null_every: u64, f: &dyn Fn(u64) -> Value| {
            let cells: Vec<Value> = (0..n)
                .map(|_| {
                    let x = next();
                    if x % null_every == 0 {
                        Value::Null
                    } else {
                        f(x)
                    }
                })
                .collect();
            cells
        };
        let float = |x: u64| match x % 29 {
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-0.0),
            3 => Value::Float(0.0),
            _ => Value::Float((x % 400) as f64 * 0.25 - 30.0),
        };
        let col = |cells: Vec<Value>, like: &Column| {
            let mut col = Column::empty(like.dtype());
            cells.iter().for_each(|v| col.push_value(v).unwrap());
            col
        };
        let ints = Column::from_ints(vec![]);
        let floats = Column::from_floats(vec![]);
        let strs = Column::from_strs(Vec::<String>::new());
        Table::new(vec![
            ("k", col(draw(17, &|x| Value::Int((x % 37) as i64)), &ints)),
            (
                "g",
                col(
                    draw(u64::MAX, &|x| Value::Str(format!("g{:02}", x % 20))),
                    &strs,
                )
                .dict_encode(),
            ),
            ("v", col(draw(11, &float), &floats)),
            (
                "s",
                col(draw(7, &|x| Value::Str(format!("s{}", x % 40))), &strs),
            ),
            ("id", Column::from_ints((0..n as i64).collect())),
            ("w1", col(draw(u64::MAX, &|x| Value::Int(x as i64)), &ints)),
            (
                "w2",
                col(draw(u64::MAX, &|x| Value::Float(x as f64)), &floats),
            ),
        ])
        .unwrap()
    }

    // (a) A handful of groups fits whatever the input's size: no disk.
    #[test]
    fn few_groups_over_a_table_larger_than_the_budget_never_touch_disk() {
        let t = facts(3000);
        let aggs = [
            AggSpec::new(AggFunc::Sum, "v", "sum"),
            AggSpec::new(AggFunc::Min, "s", "least"),
            AggSpec::count_records("n"),
        ];
        // 12 bytes a row of scratch: a group id and a direct table's two slots.
        let c = ctx(40 * KIB);
        assert!(t.byte_size() as u64 > 4 * c.governor.budget());
        let got = group_by_with_mem(&t, &["g"], &aggs, Some(&c)).unwrap();
        assert_eq!(got.num_rows(), 20);
        assert!(identical(&got, &group_by(&t, &["g"], &aggs).unwrap()));
        assert_eq!(c.metrics.snapshot(), Default::default());
        assert_eq!(c.governor.forced(), 0);
        budget_held(&c);
    }

    const ALL_JOIN_TYPES: [JoinType; 4] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
    ];

    /// The budget held unless something was taken by force, and all of it
    /// is back.
    fn budget_held(c: &MemContext) {
        let gov = &c.governor;
        assert!(gov.forced() > 0 || gov.peak() <= gov.budget(), "{gov:?}");
        assert_eq!((leaked(c), gov.used()), (0, 0));
    }

    /// Every join type under `budget` equals the unbudgeted join, within the
    /// budget unless something was taken by force, and nothing is left
    /// behind. Returns the bytes taken by force and the bytes spilled.
    fn joins_match(left: &Table, right: &Table, on: &str, budget: u64) -> (u64, u64) {
        let c = ctx(budget);
        for how in ALL_JOIN_TYPES {
            let want = join(left, right, &[on], &[on], how).unwrap();
            let got = join_with_mem(left, right, &[on], &[on], how, Some(&c)).unwrap();
            assert!(
                identical(&got, &want),
                "{how:?} on {on} under {budget} bytes"
            );
            budget_held(&c);
        }
        (c.governor.forced(), c.metrics.snapshot().bytes_spilled)
    }

    // (b) Join shapes, with the pairs forced to file and resident.
    #[test]
    fn governed_join_equals_unbudgeted_join() {
        let (left, right) = (facts(600), facts(60));
        // Unique keys: the hash splits them as far as it has to.
        let (forced, spilled) = joins_match(&left, &right, "id", 4 * KIB);
        assert!(
            forced == 0 && spilled > 0,
            "{forced} forced, {spilled} spilled"
        );
        // Null keys on both sides and few values: every row matches many.
        assert!(joins_match(&left, &right, "k", 4 * KIB).1 > 0);
        let fifth = |t: &Table| {
            let k = t.column("k").unwrap().iter_values().map(|v| match v {
                Value::Int(x) => Value::Int(x % 5),
                null => null,
            });
            let k: Vec<Value> = k.collect();
            t.with_column("k5", Column::from_values(&k).unwrap())
                .unwrap()
        };
        assert!(joins_match(&fifth(&left), &fifth(&right), "k5", 4 * KIB).1 > 0);
        // Dictionary strings against plain ones, both ways round.
        let coded = left.encode_strings();
        assert!(joins_match(&coded, &right, "s", 4 * KIB).1 > 0);
        assert!(joins_match(&right, &coded, "s", 4 * KIB).1 > 0);
        // One key throughout: no hash splits it, so it is forced through.
        let one = |t: &Table| {
            let ones = Column::from_ints(vec![7; t.num_rows()]);
            t.with_column("one", ones).unwrap()
        };
        let (forced, spilled) = joins_match(&one(&left.head(200)), &one(&right), "one", 4 * KIB);
        assert!(
            forced > 0 && spilled > 0,
            "{forced} forced, {spilled} spilled"
        );
        // A large build side under a budget that refuses its index but
        // admits a partition's, the id lists and the pairs: nothing on disk.
        assert_eq!(joins_match(&right, &left, "id", 40 * KIB), (0, 0));
    }

    // (c) Group-by: order-sensitive and row-valued aggregates, multi-key
    // with null, NaN and -0.0 keys, in first-encounter order.
    #[test]
    fn governed_group_by_equals_unbudgeted_group_by() {
        let t = facts(1500);
        use AggFunc::*;
        let aggs = [
            AggSpec::new(First, "s", "first"),
            AggSpec::new(Last, "s", "last"),
            AggSpec::new(Median, "v", "mid"),
            AggSpec::new(CountDistinct, "k", "kinds"),
            AggSpec::new(StdDev, "w2", "sd"),
            AggSpec::new(Min, "s", "least"),
            AggSpec::new(Sum, "v", "sum"),
        ];
        for keys in [&["k", "v"][..], &["s"], &["k"], &["id"]] {
            let c = ctx(4 * KIB);
            let want = group_by(&t, keys, &aggs).unwrap();
            let got = group_by_with_mem(&t, keys, &aggs, Some(&c)).unwrap();
            assert!(identical(&got, &want), "keys {keys:?}");
            assert!(c.metrics.snapshot().bytes_spilled > 0);
            budget_held(&c);
        }
        // Cheap state over unique keys splits down to the budget.
        let c = ctx(16 * KIB);
        let counts = [AggSpec::count_records("n"), AggSpec::new(Max, "v", "most")];
        let got = group_by_with_mem(&t, &["id"], &counts, Some(&c)).unwrap();
        assert!(identical(&got, &group_by(&t, &["id"], &counts).unwrap()));
        assert_eq!(c.governor.forced(), 0);
        budget_held(&c);
        // One group cannot be split: it is taken as it comes.
        let got = group_by_with_mem(&t, &[], &aggs, Some(&c)).unwrap();
        assert!(identical(&got, &group_by(&t, &[], &aggs).unwrap()));
        let one = t
            .with_column("one", Column::from_ints(vec![7; 1500]))
            .unwrap();
        let got = group_by_with_mem(&one, &["one"], &aggs, Some(&c)).unwrap();
        assert!(identical(&got, &group_by(&one, &["one"], &aggs).unwrap()));
        assert!(c.governor.forced() > 0);
        budget_held(&c);
    }

    // (d) Sort: records of two, three and five words; far more runs than
    // the fan-out, so runs are merged to longer runs on file first.
    #[test]
    fn governed_sort_equals_unbudgeted_sort() {
        let t = facts(3000);
        for keys in [
            vec![SortKey::asc("k"), SortKey::desc("g"), SortKey::asc("v")],
            vec![SortKey::desc("g"), SortKey::asc("v")],
            vec![SortKey::desc("v")],
        ] {
            let c = ctx(4 * KIB);
            let want = sort_by(&t, &keys).unwrap();
            let got = sort_by_with_mem(&t, &keys, Some(&c)).unwrap();
            assert!(identical(&got, &want), "keys {keys:?}");
            let snap = c.metrics.snapshot();
            assert!(snap.spill_partitions > 2 * c.fanout as u64, "{snap:?}");
            assert_eq!(snap.spill_events, 1);
            assert_eq!(c.governor.forced(), 0);
            budget_held(&c);
        }
        // A plain string key is ranked over all rows whatever the budget.
        let c = ctx(4 * KIB);
        let keys = [SortKey::asc("s"), SortKey::desc("id")];
        let got = sort_by_with_mem(&t, &keys, Some(&c)).unwrap();
        assert!(identical(&got, &sort_by(&t, &keys).unwrap()));
        assert!(c.governor.forced() > 0);
        budget_held(&c);
    }

    #[test]
    fn an_unlimited_budget_spills_nothing() {
        let t = facts(500);
        let c = MemContext::with_budget(u64::MAX).unwrap();
        let keys = [SortKey::asc("v")];
        let sorted = sort_by_with_mem(&t, &keys, Some(&c)).unwrap();
        assert!(identical(&sorted, &sort_by(&t, &keys).unwrap()));
        let joined = join_with_mem(&t, &t, &["k"], &["k"], JoinType::Full, Some(&c)).unwrap();
        assert!(identical(
            &joined,
            &join(&t, &t, &["k"], &["k"], JoinType::Full).unwrap()
        ));
        assert_eq!(c.metrics.snapshot(), Default::default());
        assert_eq!(leaked(&c), 0);
    }

    /// Fails the `write`-th spill write or the `read`-th spill read, once,
    /// as an interrupted (retryable) I/O error; counts both.
    #[derive(Default)]
    struct FailAt {
        write: Option<u64>,
        read: Option<u64>,
        writes: AtomicU64,
        reads: AtomicU64,
    }

    impl SpillHooks for FailAt {
        fn before_spill_write(&self) -> std::io::Result<()> {
            let n = self.writes.fetch_add(1, Ordering::Relaxed);
            match self.write {
                Some(at) if at == n => Err(std::io::ErrorKind::Interrupted.into()),
                _ => Ok(()),
            }
        }

        fn before_spill_read(&self) -> std::io::Result<()> {
            let n = self.reads.fetch_add(1, Ordering::Relaxed);
            match self.read {
                Some(at) if at == n => Err(std::io::ErrorKind::Interrupted.into()),
                _ => Ok(()),
            }
        }
    }

    // (e) A fault on any spill write or read is a retryable error that
    // leaves no file behind.
    #[test]
    fn injected_spill_faults_are_retryable_and_leave_nothing_behind() {
        let t = facts(800);
        let dim = facts(80);
        type Op<'a> = Box<dyn Fn(&MemContext) -> Result<Table> + 'a>;
        let ops: Vec<Op> = vec![
            Box::new(|c| sort_by_with_mem(&t, &[SortKey::desc("v"), SortKey::asc("id")], Some(c))),
            Box::new(|c| join_with_mem(&t, &dim, &["k"], &["k"], JoinType::Full, Some(c))),
            Box::new(|c| group_by_with_mem(&t, &["id"], &[AggSpec::count_records("n")], Some(c))),
        ];
        for op in &ops {
            let clean = Arc::new(FailAt::default());
            let c = ctx(4 * KIB).with_hooks(clean.clone());
            let want = op(&c).unwrap();
            let writes = clean.writes.load(Ordering::Relaxed);
            let reads = clean.reads.load(Ordering::Relaxed);
            assert!(writes > 2 && reads > 2, "{writes} writes, {reads} reads");
            let faults = [0, 1, writes - 1].map(|k| (Some(k), None));
            let faults = faults
                .into_iter()
                .chain([0, 1, reads - 1].map(|k| (None, Some(k))));
            for (write, read) in faults {
                let hooks = Arc::new(FailAt {
                    write,
                    read,
                    ..FailAt::default()
                });
                let c = ctx(4 * KIB).with_hooks(hooks);
                let err = op(&c).unwrap_err();
                assert!(
                    matches!(
                        err,
                        EngineError::Spill {
                            retryable: true,
                            ..
                        }
                    ),
                    "write {write:?} read {read:?}: {err}"
                );
                budget_held(&c);
                // The retry, on the same context, goes through.
                assert!(identical(&op(&c).unwrap(), &want));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // (f) A dictionary column and a plain one place equal strings alike.
        #[test]
        fn dict_and_plain_strings_share_a_partition_for_every_salt(
            cells in prop::collection::vec(prop::option::of("[a-d]{0,3}"), 1..40),
            salt in 0u64..1_000_000,
        ) {
            let plain = Column::from_opt_strs(cells.clone());
            let coded = plain.dict_encode();
            let other = Column::from_ints((0..cells.len() as i64).map(|i| i % 3).collect());
            for row in 0..cells.len() {
                for salt in [0, 1, salt] {
                    let (mut plain_hash, mut coded_hash) = ([0], [0]);
                    key_hashes(&[&other, &plain], &[row as u64], salt, &mut plain_hash);
                    key_hashes(&[&other, &coded], &[row as u64], salt, &mut coded_hash);
                    prop_assert_eq!(plain_hash, coded_hash);
                }
            }
        }

        // Runs of any width come back as they were pushed, resident or not,
        // and merge in record order.
        #[test]
        fn runs_round_trip_and_merge_in_order(
            words in prop::collection::vec(0u64..50, 0..400),
            width in 1usize..4,
            budget in prop_oneof![Just(0u64), Just(2 * KIB), Just(u64::MAX)],
        ) {
            let c = ctx(budget);
            let mut op = Spill::new(Some(&c), "test");
            // Distinct records: the position is the last word.
            let records: Vec<Vec<u64>> = words
                .chunks_exact(width)
                .zip(0..)
                .map(|(r, i)| r.iter().copied().chain([i]).collect())
                .collect();
            let mut runs = Vec::new();
            for share in records.chunks(records.len() / 6 + 1) {
                let mut sorted = share.to_vec();
                sorted.sort_unstable();
                let mut run = op.run(width + 1);
                sorted.iter().try_for_each(|r| run.push(&mut op, r)).unwrap();
                prop_assert_eq!(run.len(), sorted.len());
                runs.push(run);
            }
            let mut merged = Vec::new();
            merge_runs(&mut op, runs, 7, |block| {
                assert!(block.len() <= 7 * (width + 1));
                merged.extend(block.chunks(width + 1).map(<[u64]>::to_vec));
                Ok(())
            })
            .unwrap();
            let mut want = records.clone();
            want.sort_unstable();
            prop_assert_eq!(merged, want);
            prop_assert!(budget == 0 || c.governor.peak() <= budget);
            // Every file was deleted as its last block was read.
            let dirs = std::fs::read_dir(&c.spill_root).unwrap().flatten();
            for dir in dirs {
                prop_assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
            }
        }
    }

    #[test]
    fn a_run_file_of_another_width_or_a_row_past_the_input_is_an_error() {
        let c = ctx(0);
        let mut op = Spill::new(Some(&c), "test");
        let mut run = op.run(2);
        (0..200u64)
            .try_for_each(|i| run.push(&mut op, &[i, i]))
            .unwrap();
        run.seal(&mut op).unwrap();
        assert!(run.resident().is_none());
        run.width = 3;
        let err = run.rewind(&mut op).unwrap_err();
        assert!(matches!(err, EngineError::Parse { .. }), "{err}");

        let key = Column::from_ints(vec![1, 2, 3]);
        let mut ids = op.run(1);
        [0u64, 2, 3]
            .iter()
            .try_for_each(|id| ids.push(&mut op, &[*id]))
            .unwrap();
        let err = partition_ids(&mut op, &[&key], Ids::Listed(ids), 2, 0).map(|_| ());
        assert!(
            matches!(
                err,
                Err(EngineError::Spill {
                    retryable: false,
                    ..
                })
            ),
            "{err:?}"
        );
        assert!(check_ids(&[0, 2], 3).is_ok());
    }
}
