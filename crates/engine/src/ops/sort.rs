//! Multi-key stable sort.

use std::cmp::Ordering;
use std::ops::Range;

use crate::column::Column;
use crate::error::Result;
use crate::parallel;
use crate::table::Table;

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
///
/// Decorate-sort over row morsels (see [`crate::parallel`]): every key
/// column is normalised once into fixed-width `u64` words whose unsigned
/// order is the column's [`crate::value::Value::cmp_total`] order
/// (`NormKeys`), and rows are sorted on those words with the row index as
/// the last word — no two rows tie, so an unstable sort yields the stable
/// order. One morsel is one sort; several are a sample sort in two rounds
/// (`sort_morsels`), so the result never depends on the morsel count.
pub fn sort_by(table: &Table, keys: &[SortKey]) -> Result<Table> {
    if keys.is_empty() {
        return Ok(table.clone());
    }
    let norm = NormKeys::new(table, keys)?;
    Ok(table.take(&norm.order(None)))
}

/// The `n` rows with the largest values of `column` (ties broken by input
/// order), used by "top N" skills: `sort_by` descending, cut to `n` rows —
/// selected on the normalised keys, so only `n` rows are ordered and
/// gathered.
pub fn top_n(table: &Table, column: &str, n: usize) -> Result<Table> {
    let norm = NormKeys::new(table, &[SortKey::desc(column)])?;
    Ok(table.take(&norm.order(Some(n))))
}

/// Row-major normalised sort keys: `width` words per row, compared
/// lexicographically as unsigned integers.
///
/// | column | word of a valid row | null |
/// |---|---|---|
/// | `Bool`, `Date`, `Dict` | `1 +` the value's offset from the type's minimum (a dictionary is sorted, so a code is a rank; a plain `Str` key is dictionary-encoded first) | `0` |
/// | `Float` | total-order bits (`float_word`) | `0`, below `-inf` |
/// | `Int` | sign bit flipped; that takes all 64 bits, so a column with nulls gets a validity word (`0` null, `1` valid) in front | `0` |
///
/// A descending key complements its words, which also puts its nulls last.
struct NormKeys {
    width: usize,
    words: Vec<u64>,
}

impl NormKeys {
    fn new(table: &Table, keys: &[SortKey]) -> Result<NormKeys> {
        let mut columns: Vec<Vec<u64>> = Vec::with_capacity(keys.len());
        for key in keys {
            let col = table.column(&key.column)?;
            let flip = if key.ascending { 0 } else { u64::MAX };
            if let Column::Int(_, valid) = col {
                if !valid.all_valid() {
                    columns.push(valid.iter().map(|ok| ok as u64 ^ flip).collect());
                }
            }
            columns.push(key_words(col, flip));
        }
        let width = columns.len();
        let words = match <[Vec<u64>; 1]>::try_from(columns) {
            Ok([only]) => only,
            Err(columns) => {
                let mut words = vec![0; table.num_rows() * width];
                for (j, column) in columns.iter().enumerate() {
                    for (i, w) in column.iter().enumerate() {
                        words[i * width + j] = *w;
                    }
                }
                words
            }
        };
        Ok(NormKeys { width, words })
    }

    /// Row indices in key order, ties in row order; with `limit`, only the
    /// first `limit` of them.
    fn order(&self, limit: Option<usize>) -> Vec<usize> {
        let rows = self.words.len() / self.width;
        if self.width == 1 {
            // One word: `(word, row)` pairs sort in place, no indirection.
            let pairs = ordered(rows, limit, |i| (self.words[i], i), Ord::cmp);
            return pairs.into_iter().map(|(_, i)| i).collect();
        }
        let row = |i: usize| &self.words[i * self.width..(i + 1) * self.width];
        let by_words = |a: &usize, b: &usize| row(*a).cmp(row(*b)).then(a.cmp(b));
        ordered(rows, limit, |i| i, by_words)
    }
}

/// One word per row of `col` (see [`NormKeys`]), complemented by `flip`.
fn key_words(col: &Column, flip: u64) -> Vec<u64> {
    const SIGN: u64 = 1 << 63;
    let valid = col.validity();
    let word = |i: usize, w: u64| if valid.get(i) { w ^ flip } else { flip };
    let rows = 0..col.len();
    match col {
        Column::Bool(v, _) => rows.map(|i| word(i, 1 + v[i] as u64)).collect(),
        Column::Int(v, _) => rows.map(|i| word(i, v[i] as u64 ^ SIGN)).collect(),
        Column::Float(v, _) => rows.map(|i| word(i, float_word(v[i]))).collect(),
        Column::Date(v, _) => rows
            .map(|i| word(i, 1 + (v[i] as i64 - i32::MIN as i64) as u64))
            .collect(),
        Column::Dict(codes, _, _) => rows.map(|i| word(i, 1 + codes[i] as u64)).collect(),
        Column::Str(..) => key_words(&col.dict_encode(), flip),
    }
}

/// Order-preserving bits of a float under `cmp_total`: `-0.0` and `0.0`
/// tie, every NaN ties with every other and sorts above `+inf`; the result
/// is never `0`, which is the null word.
fn float_word(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// `make(row)` for every row, sorted by `cmp` — a strict total order, its
/// last tiebreak the row — or, with `limit`, only the `limit` smallest,
/// which selects on the calling thread in linear time.
fn ordered<E: Copy + Send + Sync>(
    rows: usize,
    limit: Option<usize>,
    make: impl Fn(usize) -> E + Sync,
    cmp: impl Fn(&E, &E) -> Ordering + Sync,
) -> Vec<E> {
    let Some(n) = limit else {
        return sort_morsels(&parallel::morsels(rows), make, cmp);
    };
    let mut all: Vec<E> = (0..rows).map(make).collect();
    if (1..rows).contains(&n) {
        all.select_nth_unstable_by(n - 1, &cmp);
    }
    all.truncate(n);
    all.sort_unstable_by(&cmp);
    all
}

/// Sort `make(row)` of every row of `morsels` (contiguous from row 0) in
/// two rounds on the worker pool, with no merge: splitters drawn from an
/// evenly spaced sample cut the order into one bucket per morsel, every
/// morsel scatters its rows into the buckets, and every bucket — the
/// morsels' shares of it, concatenated — is sorted on its own. One morsel
/// is one bucket, sorted where it stands.
fn sort_morsels<E: Copy + Send + Sync>(
    morsels: &[Range<usize>],
    make: impl Fn(usize) -> E + Sync,
    cmp: impl Fn(&E, &E) -> Ordering + Sync,
) -> Vec<E> {
    /// Sampled rows per bucket: evens out bucket sizes, which only balance
    /// the second round's load.
    const OVERSAMPLE: usize = 32;
    let rows = morsels.last().map_or(0, |r| r.end);
    let k = morsels.len();
    if k <= 1 {
        let mut all: Vec<E> = (0..rows).map(make).collect();
        all.sort_unstable_by(&cmp);
        return all;
    }
    let step = (rows / (k * OVERSAMPLE)).max(1);
    let mut sample: Vec<E> = (0..rows).step_by(step).map(&make).collect();
    sample.sort_unstable_by(&cmp);
    let splitters: Vec<E> = (1..k).map(|j| sample[j * sample.len() / k]).collect();
    let scattered: Vec<Vec<Vec<E>>> = parallel::run_morsels(morsels, |r| {
        let mut buckets: Vec<Vec<E>> = vec![Vec::new(); k];
        for e in r.map(&make) {
            let b = splitters.partition_point(|s| cmp(s, &e) != Ordering::Greater);
            buckets[b].push(e);
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
                        let norm = NormKeys::new(t, &[key]).unwrap();
                        let w = norm.width;
                        for a in 0..rows.len() {
                            for b in 0..rows.len() {
                                let want = col.get(a).cmp_total(&col.get(b));
                                let want = if ascending { want } else { want.reverse() };
                                let got = norm.words[a * w..][..w].cmp(&norm.words[b * w..][..w]);
                                prop_assert_eq!(got, want, "{} rows {} and {}", name, a, b);
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
            let mut want: Vec<(u32, usize)> = vals.iter().copied().zip(0..).collect();
            want.sort_unstable();
            prop_assert_eq!(sort_morsels(&morsels, |i| (vals[i], i), Ord::cmp), want);
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
