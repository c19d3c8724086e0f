//! Multi-key stable sort.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::governor::{MemContext, Reservation};
use crate::parallel;
use crate::table::Table;

use super::keys::{KeyCol, Rows};
use super::spill::{merge_runs, sort_state_bytes, Spill};

/// One sort key: column name plus direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    pub column: String,
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            ascending: true,
        }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            ascending: false,
        }
    }
}

/// Stable sort by the given keys. Nulls sort first on ascending keys and
/// last on descending ones (a consequence of the total order on values).
/// [`sort_by_with_mem`] without a memory budget.
pub fn sort_by(table: &Table, keys: &[SortKey]) -> Result<Table> {
    sort_by_with_mem(table, keys, None)
}

/// [`sort_by`] whose state is booked against `mem`'s budget.
///
/// Every key column is normalised into fixed-width `u64` words whose
/// unsigned order is the column's [`crate::value::Value::cmp_total`] order
/// (`NormKeys`, out of the words of [`super::keys`]), and what is sorted are
/// *records* — a row's key words, then the row number, so no two tie and an
/// unstable sort yields the stable order. When the governor admits the records of the whole input
/// ([`sort_state_bytes`]) they are one run: sorted where they stand — across
/// morsels (`sort_morsels`) if the scatter copies are admitted too — and
/// gathered with one `take`. Otherwise the input is cut into runs as long
/// as the governor admits, each sorted the same way and released to a run
/// file, and the runs are merged on their records while the output is
/// gathered from the resident input a block at a time.
pub fn sort_by_with_mem(
    table: &Table,
    keys: &[SortKey],
    mem: Option<&MemContext>,
) -> Result<Table> {
    if keys.is_empty() {
        return Ok(table.clone());
    }
    let mut op = Spill::new(mem, "sort");
    let norm = NormKeys::new(table, keys, &op)?;
    let (rows, w) = (table.num_rows(), norm.width + 1);
    // The rows sorted records name, in the records' own allocation.
    let into_row_ids = |mut records: Vec<u64>| -> Vec<usize> {
        let rows = records.len() / w;
        (0..rows).for_each(|i| records[i] = records[i * w + w - 1]);
        records.truncate(rows);
        records.into_iter().map(|row| row as usize).collect()
    };
    let per_row = sort_state_bytes(1, norm.width as u64);
    if let Some(_whole) = op.hold(rows as u64 * per_row, false) {
        let mut morsels = parallel::morsels(rows);
        // The scatter copies of a sort across morsels, if there is room.
        let copies = (morsels.len() > 1).then(|| op.hold(3 * (rows * w * 8) as u64, false));
        let copies = copies.flatten();
        if copies.is_none() {
            morsels.clear();
        }
        let records = sort_records(norm.records(0..rows), w, &morsels, None);
        return Ok(table.take(&into_row_ids(records)));
    }

    let mut runs = Vec::new();
    let mut start = 0;
    while start < rows {
        let (len, mut held) = op.hold_some(rows - start, per_row);
        let records = sort_records(norm.records(start..start + len), w, &[], None);
        held.shrink_to((records.len() * 8) as u64);
        let mut run = op.run_of(records, w, held);
        // The next run and then the gather need the room.
        run.spill(&mut op)?;
        runs.push(run);
        start += len;
    }
    let (block_rows, _block) = op.hold_some(rows.min(op.block_rows()), 16);
    let mut out = table.slice(0, 0);
    out.reserve(rows);
    merge_runs(&mut op, runs, block_rows, |block| {
        let ids = row_ids(block, w);
        match ids.iter().all(|&id| id < rows) {
            true => out.append(&table.take(&ids)),
            false => Err(EngineError::spill("run file names a row past the input")),
        }
    })?;
    Ok(out)
}

/// The `n` rows with the largest values of `column` (ties broken by input
/// order), used by "top N" skills: `sort_by` descending, cut to `n` rows —
/// selected on the records, so only `n` rows are ordered and gathered.
pub fn top_n(table: &Table, column: &str, n: usize) -> Result<Table> {
    let norm = NormKeys::new(table, &[SortKey::desc(column)], &Spill::new(None, "top"))?;
    let (rows, w) = (table.num_rows(), norm.width + 1);
    let records = sort_records(norm.records(0..rows), w, &[], Some(n));
    Ok(table.take(&row_ids(&records, w)))
}

/// The rows `w`-word records name, in their order.
fn row_ids(records: &[u64], w: usize) -> Vec<usize> {
    let rows = records.chunks_exact(w).map(|record| record[w - 1] as usize);
    rows.collect()
}

/// Normalised sort keys: `width` words per row, compared lexicographically
/// as unsigned integers.
///
/// A valid cell's word is the key encoder's ([`super::keys`]), which is
/// never `0` except for an `Int`; a null's is `0`. An `Int`'s word takes all
/// 64 bits, so an `Int` column with nulls gets a validity word (`0` null,
/// `1` valid) in front. A plain `Str` key is dictionary-encoded first, once
/// for all rows, so that its words are ranks. A descending key complements
/// its words, which also puts its nulls last.
struct NormKeys<'t> {
    width: usize,
    /// Every key column — never a plain `Str` — and its complement mask.
    keys: Vec<(Cow<'t, Column>, u64)>,
    /// What the ranks of plain string keys occupy.
    _ranks: Vec<Reservation>,
}

impl<'t> NormKeys<'t> {
    fn new(table: &'t Table, keys: &[SortKey], op: &Spill) -> Result<NormKeys<'t>> {
        let (mut width, mut cols, mut ranks) = (0, Vec::with_capacity(keys.len()), Vec::new());
        for key in keys {
            let mut col = Cow::Borrowed(table.column(&key.column)?);
            if let Column::Str(..) = &*col {
                // Runs are merged on their records, so a string's rank must
                // be its rank among all rows: there is no smaller state to
                // fall back to, and a refusal is overridden.
                ranks.extend(op.hold(4 * col.len() as u64, true));
                col = Cow::Owned(col.dict_encode());
            }
            let nullable_int = matches!(&*col, Column::Int(_, valid) if !valid.all_valid());
            width += 1 + nullable_int as usize;
            cols.push((col, if key.ascending { 0 } else { u64::MAX }));
        }
        Ok(NormKeys {
            width,
            keys: cols,
            _ranks: ranks,
        })
    }

    /// The records of `rows`: `width` key words, then the row number.
    fn records(&self, rows: Range<usize>) -> Vec<u64> {
        let w = self.width + 1;
        let mut records = vec![0; rows.len() * w];
        let mut at = 0;
        for (col, flip) in &self.keys {
            let (flip, valid) = (*flip, col.validity());
            if matches!(&**col, Column::Int(..)) && !valid.all_valid() {
                let words = records.iter_mut().skip(at).step_by(w);
                words
                    .zip(rows.clone())
                    .for_each(|(word, i)| *word = valid.get(i) as u64 ^ flip);
                at += 1;
            }
            // A null's word is 0, below every valid cell's; `new`
            // dictionary-encoded a plain string key, so its words are ranks.
            let mut words = records.iter_mut().skip(at).step_by(w);
            KeyCol::of(col, 0..0).each(&Rows::Range(rows.clone()), |word| {
                *words.next().expect("a record per row") = word.unwrap_or(0) ^ flip;
            });
            at += 1;
        }
        let ids = records.iter_mut().skip(w - 1).step_by(w);
        ids.zip(rows).for_each(|(id, i)| *id = i as u64);
        records
    }
}

/// Sort `w`-word records (no two equal) where they stand, or across
/// `morsels` of them when several are given; with `limit`, keep only the
/// `limit` smallest, which selects in linear time before it sorts.
pub(crate) fn sort_records(
    records: Vec<u64>,
    w: usize,
    morsels: &[Range<usize>],
    limit: Option<usize>,
) -> Vec<u64> {
    fn fixed<const W: usize>(
        mut records: Vec<u64>,
        morsels: &[Range<usize>],
        limit: Option<usize>,
    ) -> Vec<u64> {
        // The first word decides nearly always; comparing it on its own
        // sorts a sixth faster than the array's `Ord`, which goes through
        // slices.
        let by_words =
            |a: &[u64; W], b: &[u64; W]| a[0].cmp(&b[0]).then_with(|| a[1..].cmp(&b[1..]));
        let (all, _) = records.as_chunks_mut::<W>();
        let keep = limit.map_or(all.len(), |n| n.min(all.len()));
        if (1..all.len()).contains(&keep) {
            all.select_nth_unstable_by(keep - 1, by_words);
        }
        if morsels.len() > 1 && keep == all.len() {
            return sort_morsels(all, morsels, by_words).into_flattened();
        }
        all[..keep].sort_unstable_by(by_words);
        records.truncate(keep * W);
        records
    }
    match w {
        1 => fixed::<1>(records, morsels, limit),
        2 => fixed::<2>(records, morsels, limit),
        3 => fixed::<3>(records, morsels, limit),
        4 => fixed::<4>(records, morsels, limit),
        _ => by_index(records, w, limit),
    }
}

/// [`sort_records`] for records wider than it has a fixed-size sort for:
/// sort a row index on the records and copy them out in its order.
fn by_index(records: Vec<u64>, w: usize, limit: Option<usize>) -> Vec<u64> {
    let record = |i: &usize| &records[i * w..][..w];
    let mut order: Vec<usize> = (0..records.len() / w).collect();
    order.sort_unstable_by(|a, b| record(a).cmp(record(b)));
    order.truncate(limit.unwrap_or(order.len()));
    let mut sorted = Vec::with_capacity(order.len() * w);
    order
        .iter()
        .for_each(|i| sorted.extend_from_slice(record(i)));
    sorted
}

/// Sort the elements of `all` (no two equal), cut into `morsels`
/// (contiguous from 0), in two rounds on the worker pool with no merge:
/// splitters drawn from an evenly spaced sample cut the order into one
/// bucket per morsel, every morsel scatters its elements into the buckets,
/// and every bucket — the morsels' shares of it, concatenated — is sorted
/// on its own.
fn sort_morsels<E: Copy + Send + Sync>(
    all: &[E],
    morsels: &[Range<usize>],
    cmp: impl Fn(&E, &E) -> Ordering + Sync,
) -> Vec<E> {
    /// Sampled elements per bucket: evens out bucket sizes, which only
    /// balance the second round's load.
    const OVERSAMPLE: usize = 32;
    let k = morsels.len();
    let step = (all.len() / (k * OVERSAMPLE)).max(1);
    let mut sample: Vec<E> = all.iter().step_by(step).copied().collect();
    sample.sort_unstable_by(&cmp);
    let splitters: Vec<E> = (1..k).map(|j| sample[j * sample.len() / k]).collect();
    let scattered: Vec<Vec<Vec<E>>> = parallel::run_morsels(morsels, |r| {
        let mut buckets: Vec<Vec<E>> = vec![Vec::new(); k];
        for e in &all[r] {
            let bucket = splitters.partition_point(|s| cmp(s, e) != Ordering::Greater);
            buckets[bucket].push(*e);
        }
        buckets
    });
    let sorted = parallel::run_indexed(k, |b| {
        let shares = scattered.iter().flat_map(|buckets| &buckets[b]);
        let mut bucket: Vec<E> = shares.copied().collect();
        bucket.sort_unstable_by(&cmp);
        bucket
    });
    sorted.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::value::Value;
    use proptest::prelude::*;

    /// Row-at-a-time reference sort: the standard library's stable sort
    /// over row indices, reading both cells on every comparison.
    fn sort_by_reference(table: &Table, keys: &[SortKey]) -> Result<Table> {
        let cols: Vec<_> = keys
            .iter()
            .map(|k| table.column(&k.column))
            .collect::<Result<Vec<_>>>()?;
        let mut indices: Vec<usize> = (0..table.num_rows()).collect();
        indices.sort_by(|&a, &b| {
            for (key, col) in keys.iter().zip(&cols) {
                let ord = col.get(a).cmp_total(&col.get(b));
                let ord = if key.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(table.take(&indices))
    }

    /// One generated row: a value (or null) for each key dtype.
    type Row = (
        Option<String>,
        Option<i64>,
        Option<f64>,
        Option<i32>,
        Option<bool>,
    );

    /// Rows whose values crowd the edges of every dtype, so ties and
    /// boundary words are common: `i64::MIN`/`MAX`, `-0.0`/`0.0`, both
    /// infinities and NaNs of different payloads and signs.
    fn edge_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
        let ints = prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(i64::MIN + 1), -3i64..4];
        let floats = prop_oneof![
            Just(-0.0f64),
            Just(0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(f64::from_bits(0xfff8_0000_0000_beef)),
            Just(f64::MIN_POSITIVE),
            (-3i64..4).prop_map(|x| x as f64 / 2.0),
        ];
        let dates = prop_oneof![Just(i32::MIN), Just(i32::MAX), -2i32..3];
        prop::collection::vec(
            (
                prop::option::of("[a-c]{1,2}"),
                prop::option::of(ints),
                prop::option::of(floats),
                prop::option::of(dates),
                prop::option::of(prop_oneof![Just(true), Just(false)]),
            ),
            0..max,
        )
    }

    /// `pos` makes every row distinct, so the order of `pos` in an output
    /// names the permutation — stability on tied keys included — even
    /// where NaN cells make whole-table equality useless.
    fn edge_table(rows: &[Row]) -> Table {
        Table::new(vec![
            (
                "s",
                Column::from_opt_strs(rows.iter().map(|r| r.0.clone()).collect()),
            ),
            (
                "i",
                Column::from_opt_ints(rows.iter().map(|r| r.1).collect()),
            ),
            (
                "f",
                Column::from_opt_floats(rows.iter().map(|r| r.2).collect()),
            ),
            (
                "d",
                Column::from_opt_dates(rows.iter().map(|r| r.3).collect()),
            ),
            (
                "b",
                Column::Bool(
                    rows.iter().map(|r| r.4.unwrap_or(false)).collect(),
                    Bitmap::from_bools(&rows.iter().map(|r| r.4.is_some()).collect::<Vec<_>>()),
                ),
            ),
            ("pos", Column::from_ints((0..rows.len() as i64).collect())),
        ])
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn normalised_words_order_like_cmp_total(rows in edge_rows(24)) {
            let plain = edge_table(&rows);
            for t in [&plain, &plain.encode_strings()] {
                for name in ["s", "i", "f", "d", "b"] {
                    let col = t.column(name).unwrap();
                    for ascending in [true, false] {
                        let key = SortKey { column: name.into(), ascending };
                        let norm = NormKeys::new(t, &[key], &Spill::new(None, "test")).unwrap();
                        let (w, records) = (norm.width, norm.records(0..rows.len()));
                        let words = |row: usize| &records[row * (w + 1)..][..w];
                        for a in 0..rows.len() {
                            for b in 0..rows.len() {
                                let want = col.get(a).cmp_total(&col.get(b));
                                let want = if ascending { want } else { want.reverse() };
                                prop_assert_eq!(words(a).cmp(words(b)), want, "{} rows {} and {}", name, a, b);
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn sort_parallel_body_matches_row_at_a_time_reference(rows in edge_rows(120)) {
            let plain = edge_table(&rows);
            for keys in [
                vec![SortKey::asc("s"), SortKey::desc("i")],
                vec![SortKey::desc("i")],
                vec![SortKey::asc("i")],
                vec![SortKey::asc("f")],
                vec![SortKey::desc("f"), SortKey::asc("b")],
                vec![SortKey::desc("s")],
                vec![SortKey::asc("d"), SortKey::desc("s"), SortKey::asc("f")],
                vec![SortKey::desc("b"), SortKey::asc("i"), SortKey::desc("d")],
            ] {
                let want = sort_by_reference(&plain, &keys).unwrap();
                // A dictionary's ranks must order like the strings.
                for t in [&plain, &plain.encode_strings()] {
                    let got = sort_by(t, &keys).unwrap();
                    prop_assert_eq!(got.column("pos").unwrap(), want.column("pos").unwrap());
                }
            }
        }

        #[test]
        fn top_n_is_the_head_of_the_descending_sort(rows in edge_rows(60), n in 0usize..70) {
            let t = edge_table(&rows);
            for name in ["s", "i", "f", "d", "b"] {
                let want = sort_by(&t, &[SortKey::desc(name)]).unwrap().head(n);
                let got = top_n(&t, name, n).unwrap();
                prop_assert_eq!(got.column("pos").unwrap(), want.column("pos").unwrap());
                prop_assert_eq!(got.schema(), want.schema());
            }
        }

        #[test]
        fn sort_morsels_equals_one_sort_whatever_the_split(
            vals in prop::collection::vec(0u32..40, 0..200),
            cuts in prop::collection::vec(0usize..200, 0..6),
        ) {
            // Uneven, possibly tiny morsels; heavy ties in `vals`.
            let mut ends: Vec<usize> = cuts.into_iter().filter(|&c| 0 < c && c < vals.len()).collect();
            ends.push(vals.len());
            ends.sort_unstable();
            ends.dedup();
            let starts = std::iter::once(0).chain(ends.iter().copied());
            let morsels: Vec<Range<usize>> =
                starts.zip(&ends).map(|(s, &e)| s..e).filter(|r| !r.is_empty()).collect();
            let all: Vec<(u32, usize)> = vals.iter().copied().zip(0..).collect();
            let mut want = all.clone();
            want.sort_unstable();
            if morsels.len() > 1 {
                prop_assert_eq!(sort_morsels(&all, &morsels, Ord::cmp), want);
            }
        }
    }

    /// `sort_state_bytes` is what the body books; it must cover what the
    /// body allocates: the records, and the row index they are read out into
    /// — for records too wide for a fixed-size sort, the index they are
    /// sorted through and the copy they come out as.
    #[test]
    fn state_bytes_cover_the_records_and_the_row_index() {
        let rows: Vec<Row> = (0..500i64)
            .map(|i| {
                let int = (i % 7 != 0).then_some(i % 13);
                let text = Some(format!("s{}", i % 5));
                (text, int, Some(i as f64), Some(i as i32), Some(i % 2 == 0))
            })
            .collect();
        let t = edge_table(&rows).encode_strings();
        for (keys, width) in [
            (vec![SortKey::asc("f")], 1),
            (vec![SortKey::asc("i"), SortKey::desc("s")], 3),
            (
                vec![
                    SortKey::asc("i"),
                    SortKey::desc("s"),
                    SortKey::asc("d"),
                    SortKey::asc("b"),
                ],
                5,
            ),
        ] {
            let norm = NormKeys::new(&t, &keys, &Spill::new(None, "test")).unwrap();
            assert_eq!(norm.width, width);
            let records = sort_records(norm.records(0..500), width + 1, &[], None);
            let index: Vec<usize> = (0..500).collect();
            let copy = if width + 1 > 4 { records.capacity() } else { 0 };
            let allocated = (records.capacity() + copy + index.capacity()) * 8;
            let booked = sort_state_bytes(500, width as u64) as usize;
            assert!(
                (allocated..=2 * allocated).contains(&booked),
                "{booked} for {allocated}"
            );
        }
    }

    #[test]
    fn empty_and_single_row_inputs() {
        let keys = [SortKey::asc("g"), SortKey::desc("v")];
        for rows in [0, 1] {
            let input = t().head(rows);
            assert_eq!(sort_by(&input, &keys).unwrap(), input);
        }
    }

    fn t() -> Table {
        Table::new(vec![
            ("g", Column::from_strs(vec!["b", "a", "b", "a"])),
            (
                "v",
                Column::from_opt_ints(vec![Some(2), None, Some(1), Some(3)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn single_key_ascending_nulls_first() {
        let out = sort_by(&t(), &[SortKey::asc("v")]).unwrap();
        assert_eq!(out.value(0, "v").unwrap(), Value::Null);
        assert_eq!(out.value(1, "v").unwrap(), Value::Int(1));
        assert_eq!(out.value(3, "v").unwrap(), Value::Int(3));
    }

    #[test]
    fn multi_key() {
        let out = sort_by(&t(), &[SortKey::asc("g"), SortKey::desc("v")]).unwrap();
        assert_eq!(out.value(0, "g").unwrap(), Value::Str("a".into()));
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(3));
        assert_eq!(out.value(1, "v").unwrap(), Value::Null); // desc: nulls last
        assert_eq!(out.value(2, "v").unwrap(), Value::Int(2));
    }

    #[test]
    fn stable_on_ties() {
        let t = Table::new(vec![
            ("k", Column::from_ints(vec![1, 1, 1])),
            ("ord", Column::from_ints(vec![10, 20, 30])),
        ])
        .unwrap();
        let out = sort_by(&t, &[SortKey::asc("k")]).unwrap();
        assert_eq!(out.value(0, "ord").unwrap(), Value::Int(10));
        assert_eq!(out.value(2, "ord").unwrap(), Value::Int(30));
    }

    #[test]
    fn empty_keys_identity() {
        let out = sort_by(&t(), &[]).unwrap();
        assert_eq!(out, t());
    }

    #[test]
    fn top_n_largest() {
        let out = top_n(&t(), "v", 2).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(3));
        assert_eq!(out.value(1, "v").unwrap(), Value::Int(2));
    }

    #[test]
    fn unknown_column_errors() {
        assert!(sort_by(&t(), &[SortKey::asc("zz")]).is_err());
    }
}
