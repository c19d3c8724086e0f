//! Hash joins.
//!
//! One body, budgeted or not: the key columns of both sides become words
//! (`super::keys`), the build (right) side's keys are numbered densely in
//! one pass and its rows laid out by key id, the probe (left) side looks
//! its keys up a morsel at a time and emits packed `(left row, right row)`
//! pairs, and the output columns are gathered through the pairs.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::governor::MemContext;
use crate::parallel;
use crate::table::Table;

use super::keys::{Encoder, KeyCol, NO_ID};
use super::spill::{join_state_bytes, merge_runs, split, Ids, Partitioned, Run, Spill};

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
    let named = |table: &'a Table, on: &[&str]| -> Result<Vec<&'a Column>> {
        on.iter().map(|k| table.column(k)).collect()
    };
    let (lcols, rcols) = (named(left, left_on)?, named(right, right_on)?);
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
/// `left_on[i]` joins against `right_on[i]`. Keys match as typed values:
/// a null or a NaN matches nothing, `-0.0` matches `0.0`, values of
/// different types never match, and strings match by content whatever
/// their encoding. Non-key right columns that collide with a left column
/// name are suffixed `_right`. Right key columns are dropped (they
/// duplicate the left keys on matches); for right/full joins the left key
/// columns are backfilled from the right side on unmatched right rows.
/// Output order: left rows ascending, each one's matches in ascending
/// right-row order, then unmatched right rows for right/full joins.
///
/// The join reads only key columns until it knows its output as packed
/// `(left row, right row)` pairs (`Match`): the right rows are indexed
/// (`Index`) and the left ones looked up — over all rows at once where
/// the governor admits the index ([`join_state_bytes`]), else over the row
/// *ids* of hash partitions of both sides, as many at once on the pool as
/// the governor admits (`split`). Every partition's pairs ascend and hold
/// all of their left rows' pairs, so placing them by a count of each left
/// row's pairs is the output order, and the output columns are gathered
/// through the pairs, a block at a time.
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

    // The key pairs as words. The strings of a pair are numbered in one
    // code space over all rows, whatever the governor says: partitions
    // match on the same numbers, so there is no smaller state to fall back
    // to.
    let (lkeys, rkeys): (Vec<KeyCol>, Vec<KeyCol>) = (lcols.iter().zip(&rcols))
        .map(|(l, r)| KeyCol::pair(l, r))
        .unzip();
    let numbers = lkeys.iter().chain(&rkeys).map(KeyCol::bytes).sum();
    let _numbers = op.hold(numbers, true);

    let mut runs = Vec::new();
    let (keys, cols) = ([&lkeys[..], &rkeys], [&lcols[..], &rcols]);
    let (job, all) = (Match { keys, cols, how }, vec![Ids::All(ln), Ids::All(rn)]);
    job.run(&mut op, all, (0, false), None, &mut runs)?;

    // `key_columns` found every key column.
    let key_positions_left: Vec<usize> = (left_on.iter())
        .filter_map(|k| left.schema().index_of(k))
        .collect();
    // Assembly of the output rows `pairs` name: one gather per column.
    let gather = |pairs: &[u64]| -> Result<Table> {
        let (lrows, rrows) = (Gather::of(pairs, 32, ln)?, Gather::of(pairs, 0, rn)?);
        // Pairs without a left row come last: right rows nothing matched.
        let paired = pairs.partition_point(|&pair| (pair >> 32) as u32 != NO_ROW);
        let halves = |pairs: &[u64], shift: u32| -> Vec<usize> {
            let halves = pairs.iter().map(|pair| (pair >> shift) as u32 as usize);
            halves.collect()
        };
        let mut out = Table::empty();
        for (ci, field) in left.schema().fields().iter().enumerate() {
            let src = left.column_at(ci);
            let key_slot = key_positions_left.iter().position(|&p| p == ci);
            let col = match key_slot {
                // A key cell of such a row is the right side's: two gathers
                // and, as those rows come last, a cut for a select.
                Some(key_slot) if paired < pairs.len() => {
                    let mut col = src.take(&halves(&pairs[..paired], 32));
                    let lone = rcols[key_slot].take(&halves(&pairs[paired..], 0));
                    match lone.dtype() == src.dtype() {
                        true => col.extend(&lone)?,
                        false => col.extend(&lone.cast(src.dtype())?)?,
                    }
                    col
                }
                _ => lrows.gather(src),
            };
            out.add_column(&field.name, col)?;
        }
        for (ci, field) in right.schema().fields().iter().enumerate() {
            if right_on.iter().any(|k| field.name.eq_ignore_ascii_case(k)) {
                continue;
            }
            let col = rrows.gather(right.column_at(ci));
            let name = if out.schema().index_of(&field.name).is_some() {
                format!("{}_right", field.name)
            } else {
                field.name.clone()
            };
            out.add_column(&name, col)?;
        }
        Ok(out)
    };
    // Several resident runs are placed by a count of every row's pairs where
    // the governor admits the counts; runs on file are merged.
    let found: usize = runs.iter().map(Run::len).sum();
    let slots = ln + if job.keeps(JoinType::Right) { rn } else { 0 };
    let resident: Option<Vec<&[u64]>> = runs.iter().map(Run::resident).collect();
    let resident = resident.filter(|runs| runs.len() > 1 && found < u32::MAX as usize);
    let counts = 4 * slots as u64 + 4;
    let counts = resident.is_some().then(|| op.hold(counts, false));
    // A block holds a pair and, in `gather`, its two row indices: optional
    // ones on a side where a pair may name no row.
    let index_bytes = |side| if job.keeps(side) { 16 } else { 8 };
    let block_bytes = 8 + index_bytes(JoinType::Left) + index_bytes(JoinType::Right);
    let (block_rows, _block) = op.hold_some(found.min(op.block_rows()), block_bytes);
    let mut out: Option<Table> = None;
    let mut emit = |pairs: &[u64]| {
        let mut block = gather(pairs)?;
        match &mut out {
            Some(out) => out.append(&block),
            None => {
                block.reserve(found - pairs.len());
                out = Some(block);
                Ok(())
            }
        }
    };
    match (resident, counts.flatten()) {
        (Some(resident), Some(_counts)) => place(&resident, ln, slots, block_rows, &mut emit)?,
        _ => merge_runs(&mut op, runs, block_rows, &mut emit)?,
    }
    match out {
        Some(out) => Ok(out),
        None => gather(&[]),
    }
}

/// The half of a packed `left row << 32 | right row` pair that names no
/// row: the other side's row is unmatched. As a left half it orders
/// unmatched right rows after every left row.
const NO_ROW: u32 = u32::MAX;

/// One side's rows of a block of pairs, as the indices a column is gathered
/// through: dense where every pair names a row on that side.
enum Gather {
    Dense(Vec<usize>),
    Sparse(Vec<Option<usize>>),
}

impl Gather {
    /// The halves `pairs` hold `shift` bits up, each checked to name one of
    /// `rows` rows or none.
    fn of(pairs: &[u64], shift: u32, rows: usize) -> Result<Gather> {
        // The greatest row named, and whether some pair names none.
        let (mut most, mut lone) = (0, false);
        let halves = pairs.iter().map(|pair| {
            let half = (pair >> shift) as u32;
            lone |= half == NO_ROW;
            most = most.max(half.wrapping_add(1));
            half as usize
        });
        let dense: Vec<usize> = halves.collect();
        if most as usize > rows {
            return Err(EngineError::spill(format!(
                "join pair names row {} of a {rows}-row input",
                most - 1
            )));
        }
        let named = |&row: &usize| (row != NO_ROW as usize).then_some(row);
        Ok(match lone {
            true => Gather::Sparse(dense.iter().map(named).collect()),
            false => Gather::Dense(dense),
        })
    }

    /// `col` at the rows, null where a pair names none.
    fn gather(&self, col: &Column) -> Column {
        match self {
            Gather::Dense(rows) => col.take(rows),
            Gather::Sparse(rows) => col.take_opt(rows),
        }
    }
}

/// The build side of one match: its keys numbered densely, and its rows
/// laid out by key id by a counting sort — so each key's rows ascend.
struct Index {
    encoder: Encoder,
    /// The rows of key `id` are `rows[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
    /// Right and full joins only: the key id of every build position, and
    /// whether a probe row matched that id.
    ids: Vec<u32>,
    matched: Vec<AtomicBool>,
}

impl Index {
    fn build(keys: &[KeyCol], rows: &Ids, track_matched: bool) -> Index {
        let n = rows.len();
        let (encoder, mut ids) = Encoder::intern(keys, &rows.rows(0..n), false);
        // Count each id two slots up, so that once the counts are summed
        // `starts[id + 1]` is where id's rows begin, and once they are
        // placed, where they end.
        let mut starts = vec![0u32; encoder.len() + 2];
        let keyed = |id: &&u32| **id != NO_ID;
        ids.iter()
            .filter(keyed)
            .for_each(|&id| starts[id as usize + 2] += 1);
        (1..starts.len()).for_each(|at| starts[at] += starts[at - 1]);
        let mut by_id = vec![0u32; starts[starts.len() - 1] as usize];
        for (at, id) in ids.iter().enumerate().filter(|(_, id)| keyed(id)) {
            let next = &mut starts[*id as usize + 1];
            by_id[*next as usize] = rows.row(at) as u32;
            *next += 1;
        }
        let flags = if track_matched { encoder.len() } else { 0 };
        if !track_matched {
            ids = Vec::new();
        }
        Index {
            matched: (0..flags).map(|_| AtomicBool::new(false)).collect(),
            ids,
            rows: by_id,
            starts,
            encoder,
        }
    }

    /// The pairs of the probe rows at `positions` of `rows`, in their order:
    /// a row's matches in ascending build-row order; with `lone`, a pair
    /// without a build row for a row that matches nothing.
    fn probe(
        &self,
        keys: &[KeyCol],
        rows: &Ids,
        positions: std::ops::Range<usize>,
        lone: bool,
    ) -> Vec<u64> {
        let ids = self.encoder.find(keys, &rows.rows(positions.clone()));
        let mut pairs = Vec::with_capacity(positions.len());
        for (at, id) in positions.zip(ids) {
            let row = (rows.row(at) as u64) << 32;
            if id == NO_ID {
                if lone {
                    pairs.push(row | NO_ROW as u64);
                }
                continue;
            }
            let (from, to) = (self.starts[id as usize], self.starts[id as usize + 1]);
            let matches = &self.rows[from as usize..to as usize];
            pairs.extend(matches.iter().map(|&build| row | build as u64));
            if let Some(flag) = self.matched.get(id as usize) {
                flag.store(true, Ordering::Relaxed);
            }
        }
        pairs
    }

    /// The build rows no probe row matched, as pairs without a probe row.
    fn unmatched(&self, rows: &Ids) -> Vec<u64> {
        let lone = |id: u32| id == NO_ID || !self.matched[id as usize].load(Ordering::Relaxed);
        let lone = self.ids.iter().enumerate().filter(|(_, &id)| lone(id));
        lone.map(|(at, _)| (NO_ROW as u64) << 32 | rows.row(at) as u64)
            .collect()
    }
}

/// A join as [`split`] runs it: the key columns of both sides, left then
/// right, as words and as the columns they are (partitioning hashes strings
/// by content).
struct Match<'k, 't> {
    keys: [&'k [KeyCol<'t>]; 2],
    cols: [&'k [&'t Column]; 2],
    how: JoinType,
}

impl Match<'_, '_> {
    /// Whether the join keeps the rows of `side` that match nothing.
    fn keeps(&self, side: JoinType) -> bool {
        self.how == side || self.how == JoinType::Full
    }

    /// Whether no pair can come of `l` left and `r` right rows.
    fn idle(&self, l: usize, r: usize) -> bool {
        !(l > 0 && (r > 0 || self.keeps(JoinType::Left)) || r > 0 && self.keeps(JoinType::Right))
    }
}

impl<'a> Partitioned<'a> for Match<'_, '_> {
    type Out = Vec<u64>;
    type Acc = Vec<Run<'a>>;

    /// Build on this thread, in one pass; probe per morsel of left positions,
    /// emitting pairs in position order. Matched keys are flagged through
    /// atomics so right/full joins can list the unmatched right rows after
    /// all workers finish.
    fn body(&self, ids: &[Ids<'a>], _: u64) -> Vec<u64> {
        let ([left, right], lids, rids) = (self.keys, &ids[0], &ids[1]);
        if self.idle(lids.len(), rids.len()) {
            return Vec::new();
        }
        let index = Index::build(right, rids, self.keeps(JoinType::Right));
        let mut found = parallel::run_morsels(&parallel::morsels(lids.len()), |m| {
            index.probe(left, lids, m, self.keeps(JoinType::Left))
        });
        found.push(index.unmatched(rids));
        found.concat()
    }

    /// The pairs of the left and right rows `ids` lists, as a sorted run in
    /// `out`: those `done` holds, else matched at once if the governor admits
    /// the index, else a hash partition of both sides at a time.
    fn run(
        &self,
        op: &mut Spill<'a>,
        mut ids: Vec<Ids<'a>>,
        (depth, force): (u32, bool),
        done: Option<Vec<u64>>,
        out: &mut Vec<Run<'a>>,
    ) -> Result<()> {
        let (l, r, k) = (ids[0].len(), ids[1].len(), self.keys[0].len() as u64);
        let pairs = match done {
            Some(pairs) => pairs,
            None if self.idle(l, r) => return Ok(()),
            None => {
                let need = join_state_bytes(r as u64, l as u64, k);
                let mut state = op.hold(need, false);
                if state.is_none() {
                    // The pairs of earlier partitions may be what holds the room.
                    out.iter_mut().try_for_each(|run| run.spill(op))?;
                    state = op.hold(need, force);
                }
                let mut loaded = state.is_some();
                for (ids, cols) in ids.iter_mut().zip(self.cols) {
                    if let (Ids::Listed(run), true) = (ids, loaded) {
                        loaded = run.load_ids(op, cols[0].len(), force)?;
                    }
                }
                if !loaded {
                    drop(state);
                    let need = |rows: &[u64], _| join_state_bytes(rows[1], rows[0], k);
                    return split(op, (self, &self.cols), ids, depth, need, out);
                }
                self.body(&ids, need)
            }
        };
        // The pairs stay where they are if the governor admits as many as
        // there turned out to be; else they go to a run file.
        let mut held = op.hold(0, true).expect("a forced hold is admitted");
        let fits = held.try_grow(pairs.len() as u64 * 8);
        let mut run = op.run_of(pairs, 1, held);
        if !fits {
            run.spill(op)?;
        }
        out.push(run);
        Ok(())
    }
}

/// Emit the pairs of resident `runs`, `block_rows` at a time, in the order a
/// merge would: each run ascends, and all the pairs of one slot — a left row,
/// or past `left_rows` a lone right row — lie in one run, so a count of each
/// slot's pairs says where a run's pairs go.
fn place(
    runs: &[&[u64]],
    left_rows: usize,
    slots: usize,
    block_rows: usize,
    mut emit: impl FnMut(&[u64]) -> Result<()>,
) -> Result<()> {
    let slot = |pair: u64| match (pair >> 32) as u32 {
        NO_ROW => left_rows + pair as u32 as usize,
        left => left as usize,
    };
    // Counted a slot up, so that once summed `next[slot]` is where the
    // slot's first pair goes.
    let mut next = vec![0u32; slots + 1];
    let pairs = runs.iter().flat_map(|run| run.iter());
    pairs.for_each(|&pair| next[slot(pair) + 1] += 1);
    (1..next.len()).for_each(|at| next[at] += next[at - 1]);
    let (total, mut taken, mut block) = (next[slots] as usize, vec![0; runs.len()], vec![]);
    for from in (0..total).step_by(block_rows.max(1)) {
        block.resize(block_rows.min(total - from), 0);
        for (run, taken) in runs.iter().zip(&mut taken) {
            while let Some(&pair) = run.get(*taken) {
                let at = &mut next[slot(pair)];
                if *at as usize >= from + block.len() {
                    break;
                }
                (block[*at as usize - from], *at, *taken) = (pair, *at + 1, *taken + 1);
            }
        }
        emit(&block)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;

    /// Nested-loop reference join: no hashing, no key rendering. Keys match
    /// on typed `Value` equality, so null matches nothing, values of
    /// different types never match, `-0.0 == 0.0`, and NaN matches nothing.
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

    /// A float key that is often a NaN (of either payload), a zero of
    /// either sign, or null.
    fn opt_float_key() -> impl Strategy<Value = Option<f64>> {
        prop::option::of(prop_oneof![
            Just(f64::NAN),
            Just(f64::from_bits(0xfff8_0000_0000_beef)),
            Just(-0.0f64),
            Just(0.0),
            (0i64..4).prop_map(|x| x as f64 / 2.0),
        ])
    }

    /// Same schema and the same cells, floats to the bit: NaN cells compare,
    /// and a `-0.0` is not a `0.0`.
    fn identical(got: &Table, want: &Table) -> bool {
        let same_cell = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        got.schema() == want.schema()
            && got.num_rows() == want.num_rows()
            && got.columns().iter().zip(want.columns()).all(|(g, w)| {
                g.iter_values()
                    .zip(w.iter_values())
                    .all(|(a, b)| same_cell(&a, &b))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn join_parallel_body_matches_nested_loop_reference(
            lrows in prop::collection::vec((prop::option::of(0i64..8), opt_float_key(), 0i64..100), 0..150),
            rrows in prop::collection::vec((prop::option::of(0i64..8), opt_float_key(), opt_key()), 0..150),
        ) {
            let left = Table::new(vec![
                ("id", Column::from_opt_ints(lrows.iter().map(|r| r.0).collect())),
                ("f", Column::from_opt_floats(lrows.iter().map(|r| r.1).collect())),
                ("payload", Column::from_ints(lrows.iter().map(|r| r.2).collect())),
            ])
            .unwrap();
            let right = Table::new(vec![
                ("id", Column::from_opt_ints(rrows.iter().map(|r| r.0).collect())),
                ("f", Column::from_opt_floats(rrows.iter().map(|r| r.1).collect())),
                ("tag", Column::from_opt_strs(rrows.iter().map(|r| r.2.clone()).collect())),
            ])
            .unwrap();
            for how in ALL_JOIN_TYPES {
                for on in [&["id"][..], &["f"], &["id", "f"]] {
                    let got = join(&left, &right, on, on, how).unwrap();
                    let want = join_reference(&left, &right, on, on, how).unwrap();
                    prop_assert!(identical(&got, &want), "{:?} on {:?}:\n{}\n{}", how, on, got, want);
                }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // String keys in every mix of encodings (one dictionary shared by
        // both sides, a dictionary each, a dictionary against plain strings
        // either way round, plain strings) and an int key against a float
        // one, which never matches: all four join types equal the reference,
        // whole and — under a budget that refuses the index — over listed
        // partitions of row ids.
        #[test]
        fn string_and_mixed_key_pairs_parallel_match_the_reference_whole_and_partitioned(
            lrows in prop::collection::vec((opt_key(), prop::option::of(0i64..3)), 0..150),
            rrows in prop::collection::vec((opt_key(), prop::option::of(0i64..3)), 0..150),
        ) {
            let strs = |rows: &[(Option<String>, Option<i64>)]| {
                Column::from_opt_strs(rows.iter().map(|r| r.0.clone()).collect())
            };
            let (lplain, rplain) = (strs(&lrows), strs(&rrows));
            let mut both = lplain.clone();
            both.extend(&rplain).unwrap();
            let both = both.dict_encode();
            let shared = (both.slice(0, lrows.len()), both.slice(lrows.len(), rrows.len()));
            let ints = |rows: &[(Option<String>, Option<i64>)]| rows.iter().map(|r| r.1).collect();
            let floats = Column::from_opt_ints(ints(&rrows)).cast(crate::dtype::DataType::Float).unwrap();
            let side = |s: &Column, x: Column| Table::new(vec![("s", s.clone()), ("x", x)]).unwrap();
            let left = |s: &Column| side(s, Column::from_opt_ints(ints(&lrows)));
            let right = |s: &Column| side(s, Column::from_opt_ints(ints(&rrows)));
            let mut cases = vec![
                (left(&shared.0), right(&shared.1), vec!["s"]),
                (left(&lplain.dict_encode()), right(&rplain.dict_encode()), vec!["s", "x"]),
                (left(&lplain.dict_encode()), right(&rplain), vec!["s"]),
                (left(&lplain), right(&rplain.dict_encode()), vec!["x", "s"]),
                (left(&lplain), right(&rplain), vec!["s"]),
            ];
            cases.push((left(&lplain), side(&rplain, floats), vec!["x"]));
            let mut ctx = MemContext::with_budget(4 * 1024).unwrap();
            (ctx.fanout, ctx.spill_block_rows) = (4, 128);
            for (left, right, on) in &cases {
                for how in ALL_JOIN_TYPES {
                    let want = join_reference(left, right, on, on, how).unwrap();
                    prop_assert_eq!(&join(left, right, on, on, how).unwrap(), &want, "{:?} on {:?}", how, on);
                    let got = join_with_mem(left, right, on, on, how, Some(&ctx)).unwrap();
                    prop_assert_eq!(&got, &want, "{:?} on {:?} under a budget", how, on);
                    prop_assert_eq!(ctx.governor.used(), 0);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Resident runs of pairs as partitions leave them — each ascending,
        // a left row's pairs (or its lone one) in one run, a lone right
        // row's pair in one run — come out of the counting placement exactly
        // as out of the merge, at any block size.
        #[test]
        fn placement_equals_merge(seed in 0u64..1_000_000, parts in 1usize..5) {
            let mut state = seed | 1;
            let mut next = |below: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % below
            };
            let (ln, rn) = (next(40) as usize, next(40) as usize);
            let mut runs = vec![Vec::new(); parts];
            for l in 0..ln as u64 {
                let run = &mut runs[next(parts as u64) as usize];
                match next(4) {
                    0 => {}
                    1 => run.push(l << 32 | NO_ROW as u64),
                    _ => {
                        let mut matched: Vec<u64> = (0..next(4) + 1).map(|_| next(rn.max(1) as u64)).collect();
                        matched.sort_unstable();
                        matched.dedup();
                        run.extend(matched.into_iter().map(|r| l << 32 | r));
                    }
                }
            }
            for r in 0..rn as u64 {
                if next(3) == 0 {
                    runs[next(parts as u64) as usize].push((NO_ROW as u64) << 32 | r);
                }
            }
            runs.iter_mut().for_each(|run| run.sort_unstable());
            let resident: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            for block_rows in [1, 3, 7, 64] {
                let mut placed = Vec::new();
                place(&resident, ln, ln + rn, block_rows, |block| {
                    assert!(block.len() <= block_rows);
                    placed.extend_from_slice(block);
                    Ok(())
                }).unwrap();
                let mut op = Spill::new(None, "test");
                let held = || op.hold(0, true).unwrap();
                let runs = runs.iter().map(|run| op.run_of(run.clone(), 1, held())).collect();
                let mut merged = Vec::new();
                merge_runs(&mut op, runs, block_rows, |block| {
                    merged.extend_from_slice(block);
                    Ok(())
                }).unwrap();
                prop_assert_eq!(&placed, &merged, "block rows {}", block_rows);
            }
        }
    }

    /// `join_state_bytes` is what the body books; it must cover what the
    /// body allocates: the encoder's tables (sized before the build, so by
    /// capacity), the ids and what refines them (a code and a pair word a
    /// row), the rows laid out by id, the match flags, and per probe row an
    /// id, what refines it and a pair.
    #[test]
    fn state_bytes_cover_what_the_index_allocates() {
        let ints = Column::from_ints((0..1000).collect());
        let spread = Column::from_ints((0..1000).map(|i| i * 7919).collect());
        let strs = Column::from_strs((0..777).map(|i| format!("k{}", i % 40)).collect());
        let both = [&Column::from_ints((0..300).map(|i| i % 7).collect()), &strs];
        for cols in [&[&ints][..], &[&spread], &[&strs], &both] {
            let n = cols.iter().map(|c| c.len()).min().unwrap();
            let keys: Vec<KeyCol> = cols.iter().map(|c| KeyCol::pair(c, c).1).collect();
            let index = Index::build(&keys, &Ids::All(n), true);
            let codes = if cols.len() > 1 { n * (4 + 8) } else { 0 };
            let build = index.encoder.bytes() as usize
                + (index.ids.capacity() + index.starts.capacity() + index.rows.capacity()) * 4
                + index.matched.capacity()
                + codes;
            let probe = 2 * (n * 4 + codes + n * 8);
            let booked = join_state_bytes(n as u64, 2 * n as u64, cols.len() as u64);
            let allocated = build + probe;
            assert!(booked as usize >= allocated, "{booked} < {allocated}");
            assert!(booked as usize <= 3 * allocated, "{booked} for {allocated}");
        }
    }

    /// `n` left rows keyed `2i` and `n` right rows keyed `3i`, with a string
    /// key beside (dictionary-coded on the left, plain on the right) that
    /// agrees wherever the numbers do.
    fn strided(n: i64) -> (Table, Table) {
        let side = |step: i64, payload: &str| {
            let keys: Vec<i64> = (0..n).map(|i| i * step).collect();
            let names = keys.iter().map(|k| format!("s{}", k % 7)).collect();
            Table::new(vec![
                ("k", Column::from_ints(keys)),
                ("s", Column::from_strs::<String>(names)),
                (payload, Column::from_ints((0..n).collect())),
            ])
            .unwrap()
        };
        (side(2, "l").encode_strings(), side(3, "r"))
    }

    /// The key columns of unmatched right rows are two gathers and a
    /// select, not a `Value` per cell: the 300-row case pins the cells
    /// against the reference, the 50 000-row one the shape — the tail of
    /// the output is the unmatched right rows in order, keys filled in.
    #[test]
    #[cfg_attr(miri, ignore = "50 000 rows; the 300-row case covers the same code")]
    fn full_join_parallel_backfill_is_two_gathers_and_a_select() {
        let on = ["k", "s"];
        let (left, right) = strided(300);
        for how in ALL_JOIN_TYPES {
            let got = join(&left, &right, &on, &on, how).unwrap();
            assert_eq!(got, join_reference(&left, &right, &on, &on, how).unwrap());
        }
        let n = 50_000;
        let (left, right) = strided(n);
        let out = join(&left, &right, &on, &on, JoinType::Full).unwrap();
        // Keys 6i below 2n match; every other row of either side is alone.
        let matched = (2 * n - 1) / 6 + 1;
        assert_eq!(out.num_rows() as i64, 2 * n - matched);
        let tail = out.num_rows() - (n - matched) as usize;
        assert_eq!(out.value(tail - 1, "r").unwrap(), Value::Null);
        let lone_right = (0..n).filter(|i| 3 * i >= 2 * n || i % 2 == 1);
        for (at, i) in (tail..).zip(lone_right).step_by(997) {
            assert_eq!(out.value(at, "r").unwrap(), Value::Int(i));
            assert_eq!(out.value(at, "l").unwrap(), Value::Null);
            assert_eq!(out.value(at, "k").unwrap(), Value::Int(3 * i));
            let name = Value::Str(format!("s{}", 3 * i % 7));
            assert_eq!(out.value(at, "s").unwrap(), name);
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
