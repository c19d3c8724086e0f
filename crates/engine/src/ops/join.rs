//! Hash joins.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::hash::FxHashMap;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::governor::MemContext;
use crate::parallel;
use crate::table::Table;
use crate::value::Value;

use super::spill::{join_state_bytes, merge_runs, partition_ids, Ids, Run, Spill};

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
    Right,
    /// Full outer join.
    Full,
}

impl JoinType {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            JoinType::Inner => "INNER JOIN",
            JoinType::Left => "LEFT JOIN",
            JoinType::Right => "RIGHT JOIN",
            JoinType::Full => "FULL OUTER JOIN",
        }
    }
}

/// Resolve and type-check the key columns of both sides.
fn key_columns<'a>(
    left: &'a Table,
    right: &'a Table,
    left_on: &[&str],
    right_on: &[&str],
) -> Result<(Vec<&'a Column>, Vec<&'a Column>)> {
    if left_on.len() != right_on.len() || left_on.is_empty() {
        return Err(EngineError::invalid_argument(
            "join requires equal, non-empty key lists",
        ));
    }
    let lcols: Vec<&Column> = left_on
        .iter()
        .map(|k| left.column(k))
        .collect::<Result<_>>()?;
    let rcols: Vec<&Column> = right_on
        .iter()
        .map(|k| right.column(k))
        .collect::<Result<_>>()?;
    for (l, r) in lcols.iter().zip(&rcols) {
        if l.dtype().unify(r.dtype()).is_none() {
            return Err(EngineError::schema_mismatch(format!(
                "join key types {} and {} are incompatible",
                l.dtype(),
                r.dtype()
            )));
        }
    }
    Ok((lcols, rcols))
}

/// One component of a typed join key, borrowing string data from its
/// column. Values of different types never compare equal, and floats match
/// on normalized bits (-0.0 folds into 0.0, NaN payloads kept as-is).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RefPart<'a> {
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(&'a str),
    Date(i32),
}

/// A full typed join key. Single-column keys — the common case — carry
/// no heap allocation at all; the `One`/`Many` split can't alias because
/// construction is determined by the key-column count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key<'a> {
    One(RefPart<'a>),
    Many(Vec<RefPart<'a>>),
}

// `inline(always)`: called once per row from the build and probe loops;
// without forced inlining the optimizer keeps the enum construction and
// hashing behind a call and the loops run ~3x slower.
#[inline(always)]
fn ref_part<'a>(col: &'a Column, row: usize) -> Option<RefPart<'a>> {
    match col {
        Column::Bool(v, b) => b.get(row).then(|| RefPart::Bool(v[row])),
        Column::Int(v, b) => b.get(row).then(|| RefPart::Int(v[row])),
        Column::Float(v, b) => b.get(row).then(|| {
            let f = if v[row] == 0.0 { 0.0 } else { v[row] };
            RefPart::Float(f.to_bits())
        }),
        Column::Str(v, b) => b.get(row).then(|| RefPart::Str(v[row].as_str())),
        Column::Dict(codes, dict, b) => b
            .get(row)
            .then(|| RefPart::Str(dict[codes[row] as usize].as_str())),
        Column::Date(v, b) => b.get(row).then(|| RefPart::Date(v[row])),
    }
}

/// When either side of a key-column pair is dictionary-encoded, translate
/// both sides into one shared integer code space so the hash join builds
/// and probes on `i64` codes instead of hashing string payloads per row.
/// The left dictionary is the base space; right-side strings it doesn't
/// contain get fresh codes past it (distinct per string, so composite
/// keys still distinguish unmatched values). Returns `None` when neither
/// side is a dictionary — the plain path has nothing to gain.
fn dict_code_keys(l: &Column, r: &Column) -> Option<(Column, Column)> {
    match (l, r) {
        (Column::Dict(lc, ld, lb), Column::Dict(rc, rd, rb)) => {
            let remap: Vec<i64> = if Arc::ptr_eq(ld, rd) {
                (0..rd.len() as i64).collect()
            } else {
                rd.iter()
                    .enumerate()
                    .map(|(i, s)| match ld.binary_search(s) {
                        Ok(c) => c as i64,
                        Err(_) => (ld.len() + i) as i64,
                    })
                    .collect()
            };
            let lvals: Vec<i64> = lc.iter().map(|&c| c as i64).collect();
            let rvals: Vec<i64> = rc
                .iter()
                .map(|&c| remap.get(c as usize).copied().unwrap_or(-1))
                .collect();
            Some((
                Column::Int(lvals, lb.clone()),
                Column::Int(rvals, rb.clone()),
            ))
        }
        (Column::Dict(lc, ld, lb), Column::Str(rv, rb)) => {
            let mut fresh: FxHashMap<&str, i64> = FxHashMap::default();
            let mut next = ld.len() as i64;
            let rvals: Vec<i64> = rv
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if !rb.get(i) {
                        return 0;
                    }
                    match ld.binary_search_by(|d| d.as_str().cmp(s.as_str())) {
                        Ok(c) => c as i64,
                        Err(_) => *fresh.entry(s.as_str()).or_insert_with(|| {
                            let c = next;
                            next += 1;
                            c
                        }),
                    }
                })
                .collect();
            let lvals: Vec<i64> = lc.iter().map(|&c| c as i64).collect();
            Some((
                Column::Int(lvals, lb.clone()),
                Column::Int(rvals, rb.clone()),
            ))
        }
        (Column::Str(..), Column::Dict(..)) => {
            let (r2, l2) = dict_code_keys(r, l)?;
            Some((l2, r2))
        }
        _ => None,
    }
}

/// The typed key of one row; `None` when any component is null (null keys
/// never match, per SQL).
#[inline(always)]
fn ref_key<'a>(cols: &[&'a Column], row: usize) -> Option<Key<'a>> {
    if let [col] = cols {
        return ref_part(col, row).map(Key::One);
    }
    let mut parts = Vec::with_capacity(cols.len());
    for col in cols {
        parts.push(ref_part(col, row)?);
    }
    Some(Key::Many(parts))
}

/// Hash join of two tables on equally-named key pairs:
/// [`join_with_mem`] without a memory budget.
pub fn join(
    left: &Table,
    right: &Table,
    left_on: &[&str],
    right_on: &[&str],
    how: JoinType,
) -> Result<Table> {
    join_with_mem(left, right, left_on, right_on, how, None)
}

/// Hash join of two tables on equally-named key pairs, booking its state
/// against `mem`'s budget.
///
/// `left_on[i]` joins against `right_on[i]`. Non-key right columns that
/// collide with a left column name are suffixed `_right`. Right key
/// columns are dropped (they duplicate the left keys on matches); for
/// right/full joins the left key columns are backfilled from the right
/// side on unmatched right rows. Output order: left rows ascending, each
/// one's matches in ascending right-row order, then unmatched right rows
/// for right/full joins.
///
/// The join reads only key columns until it knows its output as packed
/// `(left row, right row)` pairs (`match_ids`): an index is built over the
/// right rows and probed with the left ones, per row morsel (see
/// [`crate::parallel`]) with typed, borrowed keys — over all rows at once
/// where the governor admits the index ([`join_state_bytes`]), else over
/// the row *ids* of one hash partition of both sides at a time. Every
/// partition's pairs ascend, so merging them is the output order, and the
/// output columns are gathered through the pairs, a block at a time.
pub fn join_with_mem(
    left: &Table,
    right: &Table,
    left_on: &[&str],
    right_on: &[&str],
    how: JoinType,
    mem: Option<&MemContext>,
) -> Result<Table> {
    let (lcols, rcols) = key_columns(left, right, left_on, right_on)?;
    let (ln, rn) = (left.num_rows(), right.num_rows());
    if ln.max(rn) >= NO_ROW as usize {
        return Err(EngineError::invalid_argument(
            "join inputs are limited to 2^32 - 2 rows",
        ));
    }
    let mut op = Spill::new(mem, "join");

    // Dictionary-encoded key pairs are remapped into a shared integer
    // code space once, so build and probe hash `i64`s instead of strings —
    // where the governor admits the two code columns; hashing the strings
    // matches the same rows. Assembly still reads the original `rcols`.
    let is_dict = |(l, r): &(&&Column, &&Column)| l.as_dict().is_some() || r.as_dict().is_some();
    let dict_pairs = lcols.iter().zip(&rcols).filter(is_dict).count() as u64;
    let remapped = op.hold(dict_pairs * (ln + rn) as u64 * 9, false);
    let converted: Vec<Option<(Column, Column)>> = lcols
        .iter()
        .zip(&rcols)
        .map(|(l, r)| remapped.as_ref().and_then(|_| dict_code_keys(l, r)))
        .collect();
    let lkey: Vec<&Column> = lcols
        .iter()
        .zip(&converted)
        .map(|(&c, conv)| conv.as_ref().map_or(c, |(l, _)| l))
        .collect();
    let rkey: Vec<&Column> = rcols
        .iter()
        .zip(&converted)
        .map(|(&c, conv)| conv.as_ref().map_or(c, |(_, r)| r))
        .collect();

    let mut runs = Vec::new();
    let all = (Ids::All(ln), Ids::All(rn));
    let unsplit = (0, usize::MAX, usize::MAX);
    match_ids(&mut op, (&lkey, &rkey), how, all, unsplit, &mut runs)?;

    let key_positions_left: Vec<usize> = left_on
        .iter()
        .map(|k| {
            let position = left.schema().index_of(k);
            position.ok_or_else(|| EngineError::column_not_found(*k))
        })
        .collect::<Result<_>>()?;
    let track_matched = matches!(how, JoinType::Right | JoinType::Full);
    // Assembly of the output rows `pairs` name: one gather per column
    // instead of one push per cell. Only left key columns of right/full
    // joins need the per-row loop, to backfill key values from the right
    // side on unmatched right rows.
    let gather = |pairs: &[u64]| -> Result<Table> {
        let mut lidx: Vec<Option<usize>> = Vec::with_capacity(pairs.len());
        let mut ridx: Vec<Option<usize>> = Vec::with_capacity(pairs.len());
        for &pair in pairs {
            let row = |word: u64, rows: usize| match word as u32 {
                NO_ROW => Ok(None),
                row if (row as usize) < rows => Ok(Some(row as usize)),
                row => Err(EngineError::spill(format!(
                    "join pair names row {row} of a {rows}-row input"
                ))),
            };
            lidx.push(row(pair >> 32, ln)?);
            ridx.push(row(pair, rn)?);
        }
        let mut out = Table::empty();
        for (ci, field) in left.schema().fields().iter().enumerate() {
            let src = left.column_at(ci);
            let backfill = key_positions_left
                .iter()
                .position(|&p| p == ci)
                .map(|key_slot| rcols[key_slot]);
            let col = match backfill {
                Some(rc) if track_matched => {
                    let mut col = Column::empty(src.dtype());
                    for (l, r) in lidx.iter().zip(&ridx) {
                        let v = match (l, r) {
                            (Some(l), _) => src.get(*l),
                            (None, Some(r)) => rc.get(*r),
                            _ => Value::Null,
                        };
                        let v = crate::column::cast_value(&v, src.dtype());
                        col.push_value(&v)?;
                    }
                    col
                }
                _ => src.take_opt(&lidx),
            };
            out.add_column(&field.name, col)?;
        }
        for (ci, field) in right.schema().fields().iter().enumerate() {
            if right_on.iter().any(|k| field.name.eq_ignore_ascii_case(k)) {
                continue;
            }
            let col = right.column_at(ci).take_opt(&ridx);
            let name = if out.schema().index_of(&field.name).is_some() {
                format!("{}_right", field.name)
            } else {
                field.name.clone()
            };
            out.add_column(&name, col)?;
        }
        Ok(out)
    };
    // A block holds a pair and, in `gather`, its two optional indices.
    let found: usize = runs.iter().map(Run::len).sum();
    let (block_rows, _block) = op.hold_some(found.min(op.block_rows()), 8 + 32);
    let mut out: Option<Table> = None;
    merge_runs(&mut op, runs, block_rows, |pairs| {
        let mut block = gather(pairs)?;
        match &mut out {
            Some(out) => out.append(&block),
            None => {
                block.reserve(found - pairs.len());
                out = Some(block);
                Ok(())
            }
        }
    })?;
    match out {
        Some(out) => Ok(out),
        None => gather(&[]),
    }
}

/// The row half of a pair that names no row: the other side's row is
/// unmatched. As a left half it orders unmatched right rows after every
/// left row.
const NO_ROW: u32 = u32::MAX;

/// `(left row, right row)` as one word that orders like the join's output.
fn pack(l: Option<usize>, r: Option<usize>) -> u64 {
    let half = |row: Option<usize>| row.map_or(NO_ROW, |row| row as u32) as u64;
    half(l) << 32 | half(r)
}

/// The pairs of the left rows `lids` and the right rows `rids` list —
/// produced by `depth` partitionings, the last of `within.0` and `within.1`
/// rows — as sorted runs appended to `out`: matched at once if the governor
/// admits the index, else a hash partition of both sides at a time.
fn match_ids<'a>(
    op: &mut Spill<'a>,
    keys: (&[&Column], &[&Column]),
    how: JoinType,
    (mut lids, mut rids): (Ids<'a>, Ids<'a>),
    (depth, lwithin, rwithin): (u32, usize, usize),
    out: &mut Vec<Run<'a>>,
) -> Result<()> {
    let (l, r, k) = (lids.len(), rids.len(), keys.0.len() as u64);
    let lone_left = matches!(how, JoinType::Left | JoinType::Full);
    let track_matched = matches!(how, JoinType::Right | JoinType::Full);
    if !(l > 0 && (r > 0 || lone_left) || r > 0 && track_matched) {
        return Ok(());
    }
    // Work that cannot be split again — the depth cap, or rows the hash kept
    // together (one key) — runs whatever the governor says.
    let force = !(op.may_split(depth) && (l < lwithin || r < rwithin));
    let need = join_state_bytes(r as u64, l as u64, k);
    let mut state = op.hold(need, false);
    if state.is_none() {
        // The pairs of earlier partitions may be what holds the room.
        out.iter_mut().try_for_each(|run| run.spill(op))?;
        state = op.hold(need, force);
    }
    let rows = |cols: &[&Column]| cols.first().map_or(0, |c| c.len());
    let mut load = |ids: &mut Ids<'a>, rows: usize| match ids {
        Ids::Listed(run) if state.is_some() => run.load_ids(op, rows, force),
        _ => Ok(state.is_some()),
    };
    let loaded = load(&mut lids, rows(keys.0))? && load(&mut rids, rows(keys.1))?;
    if let (Some(mut state), true) = (state, loaded) {
        // Build across morsels if their tables, and the one they merge
        // into, are admitted as well; else as one.
        let mut build = parallel::morsels(r);
        let tables =
            (build.len() > 1).then(|| op.hold(2 * join_state_bytes(r as u64, 0, k), false));
        if tables.flatten().is_none() {
            build.clear();
            build.push(0..r);
        }
        // The index stores, per key, an intrusive chain of the right
        // *positions* holding it: the map value is the (head, tail) of the
        // chain and `next[position]` links to the following position with
        // the same key. Compared to a `Vec<usize>` per key this needs no
        // per-key heap allocation (mostly-unique keys would otherwise malloc
        // once per right row) and probing a unique key touches no memory
        // beyond the map entry itself, because `head == tail` ends the walk
        // before `next` is ever read.
        //
        // Each morsel indexes its own range of positions. The first morsel's
        // index and links are adopted as they are and the rest splice in
        // behind them in morsel order, so every key's chain stays in
        // ascending position order and a single morsel splices nothing.
        let mut parts = parallel::run_morsels(&build, |m| {
            let base = m.start;
            let mut local_next: Vec<u32> = vec![u32::MAX; m.len()];
            let mut map: FxHashMap<Key, (u32, u32)> =
                FxHashMap::with_capacity_and_hasher(m.len(), Default::default());
            for at in m {
                if let Some(key) = ref_key(keys.1, rids.row(at)) {
                    match map.entry(key) {
                        Entry::Occupied(mut e) => {
                            let chain = e.get_mut();
                            local_next[chain.1 as usize - base] = at as u32;
                            chain.1 = at as u32;
                        }
                        Entry::Vacant(e) => {
                            e.insert((at as u32, at as u32));
                        }
                    }
                }
            }
            (local_next, map)
        })
        .into_iter();
        let (mut next, mut index) = parts.next().unwrap_or_default();
        for (local_next, map) in parts {
            next.extend(local_next);
            index.reserve(map.len());
            for (key, chain) in map {
                match index.entry(key) {
                    Entry::Occupied(mut e) => {
                        let merged = e.get_mut();
                        next[merged.1 as usize] = chain.0;
                        merged.1 = chain.1;
                    }
                    Entry::Vacant(e) => {
                        e.insert(chain);
                    }
                }
            }
        }

        // Probe phase: per morsel of left positions, emitting pairs of rows
        // in position order, a left row's matches along its chain. Matched
        // right positions are flagged through atomics so right/full joins
        // can backfill after all workers finish.
        let flags = if track_matched { r } else { 0 };
        let matched: Vec<AtomicBool> = (0..flags).map(|_| AtomicBool::new(false)).collect();
        let found = parallel::run_morsels(&parallel::morsels(l), |m| {
            let mut pairs = Vec::with_capacity(m.len());
            for at in m {
                let row = lids.row(at);
                match ref_key(keys.0, row).and_then(|key| index.get(&key)) {
                    Some(&(head, tail)) => {
                        let mut rr = head as usize;
                        loop {
                            pairs.push(pack(Some(row), Some(rids.row(rr))));
                            if track_matched {
                                matched[rr].store(true, Ordering::Relaxed);
                            }
                            if rr == tail as usize {
                                break;
                            }
                            rr = next[rr] as usize;
                        }
                    }
                    None if lone_left => pairs.push(pack(Some(row), None)),
                    None => {}
                }
            }
            pairs
        });
        let lone = (0..flags).filter(|&at| !matched[at].load(Ordering::Relaxed));
        let lone: Vec<u64> = lone.map(|at| pack(None, Some(rids.row(at)))).collect();
        let mut pairs: Vec<u64> = Vec::new();
        pairs.reserve_exact(found.iter().map(Vec::len).sum::<usize>() + lone.len());
        found
            .iter()
            .chain([&lone])
            .for_each(|part| pairs.extend_from_slice(part));
        drop((index, next, matched, found));

        // The pairs stay where they are if the governor admits as many as
        // there turned out to be; else they go to a run file.
        state.shrink_to(0);
        let fits = state.try_grow(pairs.len() as u64 * 8);
        let mut run = op.run_of(pairs, 1, state);
        if !fits {
            run.spill(op)?;
        }
        out.push(run);
        return Ok(());
    }

    let parts = op.parts_for((l + r) as u64 * 8, |p| {
        join_state_bytes(r as u64 / p, l as u64 / p, k)
    });
    let mut lruns = partition_ids(op, keys.0, lids, parts, depth as u64)?;
    let mut rruns = partition_ids(op, keys.1, rids, parts, depth as u64)?;
    let largest = |runs: &[Run]| runs.iter().map(Run::len).max().unwrap_or(0) as u64;
    let (most_l, most_r) = (largest(&lruns), largest(&rruns));
    let need = join_state_bytes(most_r, most_l, k) + (most_l + most_r) * 8;
    op.make_room(&mut lruns, need)?;
    op.make_room(&mut rruns, need)?;
    for (lrun, rrun) in lruns.into_iter().zip(rruns) {
        let ids = (Ids::Listed(lrun), Ids::Listed(rrun));
        match_ids(op, keys, how, ids, (depth + 1, l, r), out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Nested-loop reference join: no hashing, no key rendering. Keys match
    /// on typed `Value` equality, so null matches nothing, values of
    /// different types never match, `-0.0 == 0.0`, and NaN matches nothing.
    /// (`join` itself matches two NaNs of identical bits; the properties
    /// below generate no NaN keys.)
    fn join_reference(
        left: &Table,
        right: &Table,
        left_on: &[&str],
        right_on: &[&str],
        how: JoinType,
    ) -> Result<Table> {
        let (lcols, rcols) = key_columns(left, right, left_on, right_on)?;
        let keys_match = |l: usize, r: usize| {
            lcols
                .iter()
                .zip(&rcols)
                .all(|(lc, rc)| match (lc.get(l), rc.get(r)) {
                    (Value::Bool(a), Value::Bool(b)) => a == b,
                    (Value::Int(a), Value::Int(b)) => a == b,
                    (Value::Float(a), Value::Float(b)) => a == b,
                    (Value::Str(a), Value::Str(b)) => a == b,
                    (Value::Date(a), Value::Date(b)) => a == b,
                    _ => false,
                })
        };
        let mut pairs: Vec<(Option<usize>, Option<usize>)> = Vec::new();
        let mut right_matched = vec![false; right.num_rows()];
        for l in 0..left.num_rows() {
            let before = pairs.len();
            for (r, matched) in right_matched.iter_mut().enumerate() {
                if keys_match(l, r) {
                    pairs.push((Some(l), Some(r)));
                    *matched = true;
                }
            }
            if pairs.len() == before && matches!(how, JoinType::Left | JoinType::Full) {
                pairs.push((Some(l), None));
            }
        }
        if matches!(how, JoinType::Right | JoinType::Full) {
            for (r, matched) in right_matched.iter().enumerate() {
                if !matched {
                    pairs.push((None, Some(r)));
                }
            }
        }

        // Assemble cell by cell: left columns (key columns backfilled from
        // the right on right-only rows), then right non-key columns.
        let mut out = Table::empty();
        for (ci, field) in left.schema().fields().iter().enumerate() {
            let src = left.column_at(ci);
            let backfill = left_on
                .iter()
                .position(|k| left.schema().index_of(k) == Some(ci))
                .map(|key_slot| rcols[key_slot]);
            let mut col = Column::empty(src.dtype());
            for pair in &pairs {
                let v = match (pair, backfill) {
                    ((Some(l), _), _) => src.get(*l),
                    ((None, Some(r)), Some(rc)) => rc.get(*r),
                    _ => Value::Null,
                };
                col.push_value(&crate::column::cast_value(&v, src.dtype()))?;
            }
            out.add_column(&field.name, col)?;
        }
        for (ci, field) in right.schema().fields().iter().enumerate() {
            if right_on.iter().any(|k| field.name.eq_ignore_ascii_case(k)) {
                continue;
            }
            let src = right.column_at(ci);
            let mut col = Column::empty(src.dtype());
            for (_, r) in &pairs {
                col.push_value(&r.map_or(Value::Null, |r| src.get(r)))?;
            }
            let name = if out.schema().index_of(&field.name).is_some() {
                format!("{}_right", field.name)
            } else {
                field.name.clone()
            };
            out.add_column(&name, col)?;
        }
        Ok(out)
    }

    const ALL_JOIN_TYPES: [JoinType; 4] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
    ];

    fn opt_key() -> impl Strategy<Value = Option<String>> {
        prop::option::of("[a-c]{1,2}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn join_parallel_body_matches_nested_loop_reference(
            lrows in prop::collection::vec((prop::option::of(0i64..8), 0i64..100), 0..150),
            rrows in prop::collection::vec((prop::option::of(0i64..8), opt_key()), 0..150),
        ) {
            let left = Table::new(vec![
                ("id", Column::from_opt_ints(lrows.iter().map(|(k, _)| *k).collect())),
                ("payload", Column::from_ints(lrows.iter().map(|(_, v)| *v).collect())),
            ])
            .unwrap();
            let right = Table::new(vec![
                ("id", Column::from_opt_ints(rrows.iter().map(|(k, _)| *k).collect())),
                ("tag", Column::from_opt_strs(rrows.iter().map(|(_, t)| t.clone()).collect())),
            ])
            .unwrap();
            for how in ALL_JOIN_TYPES {
                prop_assert_eq!(
                    join(&left, &right, &["id"], &["id"], how).unwrap(),
                    join_reference(&left, &right, &["id"], &["id"], how).unwrap()
                );
            }
        }

        #[test]
        fn multi_key_join_parallel_body_matches_nested_loop_reference(
            lrows in prop::collection::vec((opt_key(), prop::option::of(0i64..4)), 0..120),
            rrows in prop::collection::vec((opt_key(), prop::option::of(0i64..4)), 0..120),
        ) {
            let side = |rows: &[(Option<String>, Option<i64>)]| {
                Table::new(vec![
                    ("a", Column::from_opt_strs(rows.iter().map(|(a, _)| a.clone()).collect())),
                    ("b", Column::from_opt_ints(rows.iter().map(|(_, b)| *b).collect())),
                ])
                .unwrap()
            };
            let (left, right) = (side(&lrows), side(&rrows));
            for how in ALL_JOIN_TYPES {
                prop_assert_eq!(
                    join(&left, &right, &["a", "b"], &["a", "b"], how).unwrap(),
                    join_reference(&left, &right, &["a", "b"], &["a", "b"], how).unwrap()
                );
            }
        }
    }

    /// `join_state_bytes` is what the body books; it must cover what the
    /// body allocates: the index table (sized before the build, so by
    /// capacity), the chain links, the match flags, a composite key's parts,
    /// and a pair per probe row.
    #[test]
    fn state_bytes_cover_what_the_index_allocates() {
        let ints = Column::from_ints((0..1000).collect());
        let strs = Column::from_strs((0..777).map(|i| format!("k{}", i % 40)).collect());
        let both = [&Column::from_ints((0..300).map(|i| i % 7).collect()), &strs];
        for cols in [&[&ints][..], &[&strs], &both] {
            let n = cols.iter().map(|c| c.len()).min().unwrap();
            let mut map: FxHashMap<Key, (u32, u32)> =
                FxHashMap::with_capacity_and_hasher(n, Default::default());
            map.extend((0..n).map(|row| (ref_key(cols, row).unwrap(), (0, 0))));
            // hashbrown: `capacity` is 7/8 of a power-of-two bucket count.
            let buckets = (map.capacity() * 8).div_ceil(7).next_power_of_two();
            let table = buckets * (std::mem::size_of::<(Key, (u32, u32))>() + 1) + 16;
            let parts = if cols.len() > 1 {
                n * cols.len() * std::mem::size_of::<RefPart>()
            } else {
                0
            };
            let (next, flags, pairs) = (n * 4, n, 2 * n * 8);
            let booked = join_state_bytes(n as u64, 2 * n as u64, cols.len() as u64);
            let allocated = table + parts + next + flags + pairs;
            assert!(booked as usize >= allocated, "{booked} < {allocated}");
            assert!(booked as usize <= 3 * allocated, "{booked} for {allocated}");
        }
    }

    #[test]
    fn empty_and_single_row_inputs() {
        let one = Table::new(vec![
            ("k", Column::from_ints(vec![1])),
            ("v", Column::from_strs(vec!["x"])),
        ])
        .unwrap();
        let none = one.head(0);
        for how in ALL_JOIN_TYPES {
            for (l, r) in [(&none, &none), (&none, &one), (&one, &none), (&one, &one)] {
                let out = join(l, r, &["k"], &["k"], how).unwrap();
                assert_eq!(out, join_reference(l, r, &["k"], &["k"], how).unwrap());
                assert_eq!(out.schema().names(), vec!["k", "v", "v_right"]);
            }
        }
        let out = join(&one, &none, &["k"], &["k"], JoinType::Left).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "v_right").unwrap(), Value::Null);
        let out = join(&none, &one, &["k"], &["k"], JoinType::Full).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "k").unwrap(), Value::Int(1));
        assert_eq!(out.value(0, "v").unwrap(), Value::Null);
    }

    #[test]
    fn float_keys_fold_negative_zero() {
        let a = Table::new(vec![("k", Column::from_floats(vec![-0.0, 1.5]))]).unwrap();
        let b = Table::new(vec![
            ("k", Column::from_floats(vec![0.0, 2.5])),
            ("w", Column::from_ints(vec![7, 8])),
        ])
        .unwrap();
        let out = join(&a, &b, &["k"], &["k"], JoinType::Inner).unwrap();
        assert_eq!(
            out,
            join_reference(&a, &b, &["k"], &["k"], JoinType::Inner).unwrap()
        );
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "w").unwrap(), Value::Int(7));
    }

    fn collisions() -> Table {
        Table::new(vec![
            ("case_id", Column::from_ints(vec![1, 2, 3])),
            (
                "severity",
                Column::from_strs(vec!["minor", "major", "fatal"]),
            ),
        ])
        .unwrap()
    }

    fn parties() -> Table {
        Table::new(vec![
            (
                "case_id",
                Column::from_opt_ints(vec![Some(1), Some(1), Some(2), Some(9), None]),
            ),
            (
                "party_type",
                Column::from_strs(vec!["driver", "pedestrian", "driver", "driver", "driver"]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join_fanout() {
        let out = join(
            &collisions(),
            &parties(),
            &["case_id"],
            &["case_id"],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3); // case 1 matches twice, case 2 once
        assert_eq!(
            out.schema().names(),
            vec!["case_id", "severity", "party_type"]
        );
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let out = join(
            &collisions(),
            &parties(),
            &["case_id"],
            &["case_id"],
            JoinType::Left,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4); // case 3 kept with null party_type
        let missing = (0..out.num_rows())
            .find(|&r| out.value(r, "case_id").unwrap() == Value::Int(3))
            .unwrap();
        assert_eq!(out.value(missing, "party_type").unwrap(), Value::Null);
    }

    #[test]
    fn right_join_backfills_keys() {
        let out = join(
            &collisions(),
            &parties(),
            &["case_id"],
            &["case_id"],
            JoinType::Right,
        )
        .unwrap();
        // Matched: 3 rows; unmatched right rows: case 9 and null key.
        assert_eq!(out.num_rows(), 5);
        let nine = (0..out.num_rows())
            .find(|&r| out.value(r, "case_id").unwrap() == Value::Int(9))
            .unwrap();
        assert_eq!(out.value(nine, "severity").unwrap(), Value::Null);
    }

    #[test]
    fn full_join_union() {
        let out = join(
            &collisions(),
            &parties(),
            &["case_id"],
            &["case_id"],
            JoinType::Full,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 6); // 3 matched + case 3 + case 9 + null-key row
    }

    #[test]
    fn null_keys_never_match() {
        let out = join(
            &collisions(),
            &parties(),
            &["case_id"],
            &["case_id"],
            JoinType::Inner,
        )
        .unwrap();
        for r in 0..out.num_rows() {
            assert_ne!(out.value(r, "case_id").unwrap(), Value::Null);
        }
    }

    #[test]
    fn name_collision_suffixed() {
        let a = Table::new(vec![
            ("k", Column::from_ints(vec![1])),
            ("v", Column::from_ints(vec![10])),
        ])
        .unwrap();
        let b = Table::new(vec![
            ("k", Column::from_ints(vec![1])),
            ("v", Column::from_ints(vec![20])),
        ])
        .unwrap();
        let out = join(&a, &b, &["k"], &["k"], JoinType::Inner).unwrap();
        assert_eq!(out.schema().names(), vec!["k", "v", "v_right"]);
        assert_eq!(out.value(0, "v_right").unwrap(), Value::Int(20));
    }

    #[test]
    fn incompatible_key_types_rejected() {
        let a = Table::new(vec![("k", Column::from_ints(vec![1]))]).unwrap();
        let b = Table::new(vec![("k", Column::from_strs(vec!["1"]))]).unwrap();
        assert!(join(&a, &b, &["k"], &["k"], JoinType::Inner).is_err());
    }

    #[test]
    fn multi_key_join() {
        let a = Table::new(vec![
            ("x", Column::from_ints(vec![1, 1, 2])),
            ("y", Column::from_strs(vec!["p", "q", "p"])),
            ("val", Column::from_ints(vec![10, 20, 30])),
        ])
        .unwrap();
        let b = Table::new(vec![
            ("x", Column::from_ints(vec![1, 2])),
            ("y", Column::from_strs(vec!["q", "p"])),
            ("w", Column::from_ints(vec![100, 200])),
        ])
        .unwrap();
        let out = join(&a, &b, &["x", "y"], &["x", "y"], JoinType::Inner).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "val").unwrap(), Value::Int(20));
        assert_eq!(out.value(0, "w").unwrap(), Value::Int(100));
    }

    #[test]
    fn composite_keys_cannot_collide_across_boundaries() {
        // ("a","b") vs ("a,b") style collisions must not join.
        let a = Table::new(vec![
            ("p", Column::from_strs(vec!["a\u{1f}b"])),
            ("q", Column::from_strs(vec!["c"])),
        ])
        .unwrap();
        let b = Table::new(vec![
            ("p", Column::from_strs(vec!["a"])),
            ("q", Column::from_strs(vec!["b\u{1f}c"])),
        ])
        .unwrap();
        let out = join(&a, &b, &["p", "q"], &["p", "q"], JoinType::Inner).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
