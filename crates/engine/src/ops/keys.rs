//! Keys as words, words as dense ids: what join, group-by, `distinct`,
//! sort and partitioning share.
//!
//! [`KeyCol`] is the only place a key cell becomes a `u64` *word*. Words of
//! one column are equal exactly when the cells are equal as keys, and they
//! order like [`crate::value::Value::cmp_total`]:
//!
//! | column | word of a valid cell |
//! |---|---|
//! | `Bool`, `Date` | `1 +` the value's offset from the type's minimum |
//! | `Int` | the value with its sign bit flipped |
//! | `Float` | total-order bits ([`float_word`]): `-0.0` is `0.0`; every NaN is one value, the largest — or, as a join key, no value at all |
//! | `Dict` | `1 +` the code (a dictionary is sorted, so a code is a rank) |
//! | `Str` | `1 +` a number given to each distinct string as it is first met (equality only; sort encodes the column first) |
//!
//! A null cell has no word (`None`); whether nulls are keys is the
//! operator's business. The two columns of a join pair are read together
//! ([`KeyCol::pair`]): strings of either encoding are numbered in one code
//! space, each hashed once, and a pair of different types matches nothing.
//!
//! [`IdTable`] numbers words densely in first-encounter order: indexed
//! directly by the word where a pass over the words (or the dictionary's
//! length) shows they span at most two slots per row, by open addressing
//! otherwise. [`Encoder`] numbers composite keys with it a column at a
//! time — the ids so far and the next column's codes form the next word —
//! and looks keys up without adding any, which is a join's probe.

use std::ops::Range;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::hash::FxHashMap;

/// The id of no key: a word the table has not seen, or a key with a null
/// cell where nulls are not keys.
pub(crate) const NO_ID: u32 = u32::MAX;

/// The rows a pass reads, in order.
pub(crate) enum Rows<'a> {
    Range(Range<usize>),
    Listed(&'a [u64]),
}

impl Rows<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Range(range) => range.len(),
            Rows::Listed(ids) => ids.len(),
        }
    }
}

/// Order-preserving bits of a float under `cmp_total`: `-0.0` and `0.0`
/// tie, every NaN ties with every other and sorts above `+inf`; never `0`.
pub(crate) fn float_word(x: f64) -> u64 {
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

/// One key column, read as words.
pub(crate) struct KeyCol<'a> {
    cells: Cells<'a>,
    /// `None` for a column without nulls.
    valid: Option<&'a Bitmap>,
}

enum Cells<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    /// With `true`, a NaN is a null: join keys.
    Float(&'a [f64], bool),
    Date(&'a [i32]),
    /// Dictionary codes, and the dictionary's length.
    Codes(&'a [u32], usize),
    /// The numbers of the strings in the rows from `.0` on.
    Numbered(usize, Vec<u32>),
    /// Words as they are, `u64::MAX` for none: an encoder's id pairs.
    Words(Vec<u64>),
}

impl<'a> KeyCol<'a> {
    /// `col` as a group, `distinct` or partition key over the rows of
    /// `range` (only a plain string column, numbered there, depends on it).
    pub(crate) fn of(col: &'a Column, range: Range<usize>) -> KeyCol<'a> {
        Strings::default().key(col, range, false)
    }

    /// The key columns of a join pair over all their rows: equal words on
    /// the two sides where, and only where, the cells match.
    pub(crate) fn pair(left: &'a Column, right: &'a Column) -> (KeyCol<'a>, KeyCol<'a>) {
        if left.dtype() != right.dtype() {
            let nothing = |col: &Column| KeyCol::words(vec![u64::MAX; col.len()]);
            return (nothing(left), nothing(right));
        }
        let mut strings = Strings::default();
        let left = strings.key(left, 0..left.len(), true);
        (left, strings.key(right, 0..right.len(), true))
    }

    /// `codes` — one per row from `start` on, none null — as a key column.
    pub(crate) fn numbered(start: usize, codes: Vec<u32>) -> KeyCol<'static> {
        let cells = Cells::Numbered(start, codes);
        KeyCol { cells, valid: None }
    }

    fn words(words: Vec<u64>) -> KeyCol<'static> {
        let cells = Cells::Words(words);
        KeyCol { cells, valid: None }
    }

    /// Bytes of what this key holds beside its column.
    pub(crate) fn bytes(&self) -> u64 {
        match &self.cells {
            Cells::Numbered(_, codes) => codes.capacity() as u64 * 4,
            Cells::Words(words) => words.capacity() as u64 * 8,
            _ => 0,
        }
    }

    /// `f(word)` for the cell at each of `rows`, in their order; `None` for
    /// a null. The column's kind is matched once, outside the row loop.
    #[inline]
    pub(crate) fn each(&self, rows: &Rows, f: impl FnMut(Option<u64>)) {
        const SIGN: u64 = 1 << 63;
        let unless_most = |word: u64| (word != u64::MAX).then_some(word);
        match &self.cells {
            Cells::Bool(v) => self.walk(rows, f, |i| Some(1 + v[i] as u64)),
            Cells::Int(v) => self.walk(rows, f, |i| Some(v[i] as u64 ^ SIGN)),
            Cells::Float(v, false) => self.walk(rows, f, |i| Some(float_word(v[i]))),
            Cells::Float(v, true) => self.walk(rows, f, |i| unless_most(float_word(v[i]))),
            Cells::Date(v) => self.walk(rows, f, |i| {
                Some(1 + (v[i] as i64 - i32::MIN as i64) as u64)
            }),
            Cells::Codes(codes, _) => self.walk(rows, f, |i| Some(1 + codes[i] as u64)),
            Cells::Numbered(start, codes) => {
                self.walk(rows, f, |i| Some(1 + codes[i - start] as u64))
            }
            Cells::Words(words) => self.walk(rows, f, |i| unless_most(words[i])),
        }
    }

    #[inline]
    fn walk(
        &self,
        rows: &Rows,
        mut f: impl FnMut(Option<u64>),
        word: impl Fn(usize) -> Option<u64>,
    ) {
        let cell = |i: usize| match self.valid {
            Some(valid) if !valid.get(i) => None,
            _ => word(i),
        };
        match rows {
            Rows::Range(range) => range.clone().for_each(|i| f(cell(i))),
            Rows::Listed(ids) => ids.iter().for_each(|&i| f(cell(i as usize))),
        }
    }

    /// The least and the greatest word among `rows`; `None` if every cell
    /// is null. A dictionary that is small beside the rows answers with its
    /// own bounds, unread.
    fn span(&self, rows: &Rows) -> Option<(u64, u64)> {
        if let Cells::Codes(_, entries) = self.cells {
            if (1..=2 * rows.len()).contains(&entries) {
                return Some((1, entries as u64));
            }
        }
        let (mut lo, mut hi) = (u64::MAX, 0);
        self.each(rows, |word| {
            if let Some(w) = word {
                (lo, hi) = (lo.min(w), hi.max(w));
            }
        });
        (lo <= hi).then_some((lo, hi))
    }
}

/// Numbers the strings of the string columns it is shown, in one code space
/// for all of them: a plain string is hashed once a row, a dictionary's
/// once an entry — or never, while every column shown shares the dictionary.
#[derive(Default)]
struct Strings<'a> {
    numbers: FxHashMap<&'a str, u32>,
    /// The dictionary whose codes, so far, are the numbers.
    shared: Option<&'a Arc<Vec<String>>>,
}

impl<'a> Strings<'a> {
    fn key(&mut self, col: &'a Column, range: Range<usize>, nan_is_null: bool) -> KeyCol<'a> {
        let valid = col.validity();
        let cells = match col {
            Column::Bool(v, _) => Cells::Bool(v),
            Column::Int(v, _) => Cells::Int(v),
            Column::Float(v, _) => Cells::Float(v, nan_is_null),
            Column::Date(v, _) => Cells::Date(v),
            Column::Dict(codes, dict, _) => {
                let first = self.numbers.is_empty() && self.shared.is_none();
                if first || self.shared.is_some_and(|shared| Arc::ptr_eq(shared, dict)) {
                    self.shared = Some(dict);
                    Cells::Codes(codes, dict.len())
                } else {
                    let numbers: Vec<u32> = dict.iter().map(|s| self.number(s)).collect();
                    let number = |i: usize| numbers.get(codes[i] as usize).map_or(0, |n| *n);
                    Cells::Numbered(range.start, range.map(number).collect())
                }
            }
            Column::Str(v, _) => {
                let number = |i: usize| if valid.get(i) { self.number(&v[i]) } else { 0 };
                Cells::Numbered(range.start, range.map(number).collect())
            }
        };
        let valid = (!valid.all_valid()).then_some(valid);
        KeyCol { cells, valid }
    }

    fn number(&mut self, s: &'a str) -> u32 {
        if let Some(shared) = self.shared.take() {
            let codes = shared.iter().map(String::as_str).zip(0..);
            self.numbers.extend(codes);
        }
        let next = self.numbers.len() as u32;
        *self.numbers.entry(s).or_insert(next)
    }
}

/// Dense first-encounter ids of `u64` words.
struct IdTable {
    /// Direct: the id of `word` is `slots[word - base]`. Open addressing:
    /// `slots` holds ids, probed linearly from the word's hash.
    slots: Vec<u32>,
    base: u64,
    direct: bool,
    /// Open addressing only: the word of every id (`0` for the null's), and
    /// the shift that leaves the bits of a hash that index `slots`.
    words: Vec<u64>,
    shift: u32,
    /// The id of the null, once one was interned.
    null: u32,
    len: u32,
}

impl IdTable {
    /// A table for the words of `rows` rows that span `span` (least,
    /// greatest): direct if that is at most two slots a row. An
    /// open-addressing table is sized for `expected` keys and doubles as it
    /// fills past half.
    fn new(span: Option<(u64, u64)>, rows: usize, expected: usize) -> IdTable {
        let direct = span.filter(|(lo, hi)| hi - lo < 2 * rows as u64);
        let mut table = IdTable {
            slots: direct.map_or(Vec::new(), |(lo, hi)| vec![NO_ID; (hi - lo) as usize + 1]),
            base: direct.map_or(0, |(lo, _)| lo),
            direct: direct.is_some(),
            words: Vec::new(),
            shift: 0,
            null: NO_ID,
            len: 0,
        };
        if !table.direct {
            table.words.reserve_exact(expected);
            table.resize((2 * expected).next_power_of_two().max(16));
        }
        table
    }

    /// Where the probe for `word` starts: the top bits of a multiplicative
    /// hash, which spreads words that differ only in their high bits
    /// (floats) as well as ones that differ only in their low bits.
    #[inline]
    fn start(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Replace the slots with `slots` empty ones and re-place every id.
    #[cold]
    fn resize(&mut self, slots: usize) {
        self.slots = vec![NO_ID; slots];
        self.shift = 64 - slots.trailing_zeros();
        for id in (0..self.len).filter(|&id| id != self.null) {
            let mut at = self.start(self.words[id as usize]);
            while self.slots[at] != NO_ID {
                at = (at + 1) & (slots - 1);
            }
            self.slots[at] = id;
        }
    }

    /// The id of `word` in an open-addressing table (of the null, for
    /// `None`), a new one if it is new.
    #[inline]
    fn intern_open(&mut self, word: Option<u64>) -> u32 {
        let Some(word) = word else {
            if self.null == NO_ID {
                (self.null, self.len) = (self.len, self.len + 1);
                self.words.push(0);
            }
            return self.null;
        };
        if (self.words.len() + 1) * 2 > self.slots.len() {
            self.resize(self.slots.len() * 2);
        }
        let mut at = self.start(word);
        loop {
            let id = self.slots[at];
            if id == NO_ID {
                self.slots[at] = self.len;
                self.words.push(word);
                self.len += 1;
                return self.len - 1;
            }
            if self.words[id as usize] == word {
                return id;
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// The id of the word `key` holds at each of `rows`, new ids for new
    /// words; with `nulls`, the null is a word like any other, else it has
    /// no id.
    fn intern(&mut self, key: &KeyCol, rows: &Rows, nulls: bool) -> Vec<u32> {
        let mut ids = Vec::with_capacity(rows.len());
        if !self.direct {
            key.each(rows, |word| {
                ids.push(match word {
                    None if !nulls => NO_ID,
                    word => self.intern_open(word),
                })
            });
            return ids;
        }
        // With the counts in registers this loop takes half the time.
        let (base, slots) = (self.base, &mut self.slots[..]);
        let (mut len, mut null) = (self.len, self.null);
        key.each(rows, |word| {
            ids.push(match word {
                Some(word) => {
                    let slot = &mut slots[(word - base) as usize];
                    if *slot == NO_ID {
                        *slot = len;
                        len += 1;
                    }
                    *slot
                }
                None if !nulls => NO_ID,
                None => {
                    if null == NO_ID {
                        (null, len) = (len, len + 1);
                    }
                    null
                }
            })
        });
        (self.len, self.null) = (len, null);
        ids
    }

    /// The id of the word `key` holds at each of `rows` (the null's, for a
    /// null); [`NO_ID`] for one that has none.
    fn find(&self, key: &KeyCol, rows: &Rows) -> Vec<u32> {
        let mut ids = Vec::with_capacity(rows.len());
        key.each(rows, |word| {
            ids.push(match word {
                None => self.null,
                Some(word) if self.direct => {
                    let at = usize::try_from(word.wrapping_sub(self.base)).ok();
                    at.and_then(|at| self.slots.get(at)).map_or(NO_ID, |&id| id)
                }
                Some(word) => {
                    let mut at = self.start(word);
                    loop {
                        let id = self.slots[at];
                        if id == NO_ID || self.words[id as usize] == word {
                            break id;
                        }
                        at = (at + 1) & (self.slots.len() - 1);
                    }
                }
            })
        });
        ids
    }
}

/// Dense first-encounter ids of composite keys: the table of the first key
/// column's words, then for each further column the table of its words and
/// the table of `(id so far, code in that column)` pairs.
pub(crate) struct Encoder {
    tables: Vec<IdTable>,
}

impl Encoder {
    /// Number the keys `keys` hold at `rows`: the encoder, and the id of
    /// each row's key. With `nulls`, a null is a key like any other and the
    /// tables grow with the distinct keys (groups); without, a key with a
    /// null cell has no id and the tables are sized for the rows at once (a
    /// join's build side).
    pub(crate) fn intern(keys: &[KeyCol], rows: &Rows, nulls: bool) -> (Encoder, Vec<u32>) {
        let n = rows.len();
        let expected = if nulls { 0 } else { n };
        let mut tables: Vec<IdTable> = Vec::with_capacity(2 * keys.len());
        let mut ids: Vec<u32> = if keys.is_empty() {
            vec![0; n]
        } else {
            Vec::new()
        };
        for key in keys {
            let mut column = IdTable::new(key.span(rows), n, expected);
            let codes = column.intern(key, rows, nulls);
            if let Some(so_far) = tables.last() {
                let pairs = pair_words(&ids, &codes, column.len);
                let most = (so_far.len as u64 * column.len as u64).checked_sub(1);
                let mut refined = IdTable::new(most.map(|most| (0, most)), n, expected);
                ids = refined.intern(&pairs, &Rows::Range(0..n), false);
                tables.extend([column, refined]);
            } else {
                ids = codes;
                tables.push(column);
            }
        }
        (Encoder { tables }, ids)
    }

    /// The id of the key `keys` hold at each of `rows`; [`NO_ID`] for a
    /// key that was not interned.
    pub(crate) fn find(&self, keys: &[KeyCol], rows: &Rows) -> Vec<u32> {
        let (first, rest) = self.tables.split_first().expect("a table per key column");
        let mut ids = first.find(&keys[0], rows);
        for (key, tables) in keys[1..].iter().zip(rest.chunks_exact(2)) {
            let pairs = pair_words(&ids, &tables[0].find(key, rows), tables[0].len);
            ids = tables[1].find(&pairs, &Rows::Range(0..ids.len()));
        }
        ids
    }

    /// Distinct keys interned.
    pub(crate) fn len(&self) -> usize {
        self.tables.last().map_or(1, |last| last.len as usize)
    }
}

/// `(id, code)` pairs as one word each, `codes` being below `width`; none
/// where either is [`NO_ID`].
fn pair_words(ids: &[u32], codes: &[u32], width: u32) -> KeyCol<'static> {
    let word = |(&id, &code): (&u32, &u32)| match id.max(code) {
        NO_ID => u64::MAX,
        _ => id as u64 * width as u64 + code as u64,
    };
    KeyCol::words(ids.iter().zip(codes).map(word).collect())
}

/// The offset of each dense first-encounter id's first occurrence: ids are
/// assigned in order, so id `k` first appears where `k` ids came before.
pub(crate) fn first_rows(ids: &[u32]) -> Vec<usize> {
    let mut firsts = Vec::new();
    for (off, &id) in ids.iter().enumerate() {
        if id as usize == firsts.len() {
            firsts.push(off);
        }
    }
    firsts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use crate::value::Value;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    impl Encoder {
        /// Bytes the tables occupy: what the state-size tests of the join
        /// and of group-by hold against what is booked.
        pub(crate) fn bytes(&self) -> u64 {
            let bytes = |t: &IdTable| t.slots.capacity() as u64 * 4 + t.words.capacity() as u64 * 8;
            self.tables.iter().map(bytes).sum()
        }
    }

    /// One generated row: a value (or null) for each kind of key column.
    type Row = (
        Option<String>,
        Option<i64>,
        Option<f64>,
        Option<i32>,
        Option<bool>,
    );

    /// Rows whose values crowd the edges of every type, so ties and
    /// boundary words are common.
    fn edge_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
        let ints = prop_oneof![Just(i64::MIN), Just(i64::MAX), -3i64..4];
        let floats = prop_oneof![
            Just(-0.0f64),
            Just(0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(f64::from_bits(0xfff8_0000_0000_beef)),
            (-3i64..4).prop_map(|x| x as f64 / 2.0),
        ];
        let dates = prop_oneof![Just(i32::MIN), Just(i32::MAX), -2i32..3];
        prop::collection::vec(
            (
                prop::option::of("[a-c]{0,2}"),
                prop::option::of(ints),
                prop::option::of(floats),
                prop::option::of(dates),
                prop::option::of(prop_oneof![Just(true), Just(false)]),
            ),
            0..max,
        )
    }

    /// The six kinds of column, each with nulls: plain and dictionary
    /// strings, ints, floats, dates, bools.
    fn edge_columns(rows: &[Row]) -> Vec<Column> {
        let strs = Column::from_opt_strs(rows.iter().map(|r| r.0.clone()).collect());
        let bools: Vec<Value> = rows
            .iter()
            .map(|r| r.4.map_or(Value::Null, Value::Bool))
            .collect();
        let bools = if rows.iter().any(|r| r.4.is_some()) {
            Column::from_values(&bools).unwrap()
        } else {
            Column::nulls(crate::dtype::DataType::Bool, rows.len())
        };
        vec![
            strs.dict_encode(),
            strs,
            Column::from_opt_ints(rows.iter().map(|r| r.1).collect()),
            Column::from_opt_floats(rows.iter().map(|r| r.2).collect()),
            Column::from_opt_dates(rows.iter().map(|r| r.3).collect()),
            bools,
        ]
    }

    fn words_of(key: &KeyCol, n: usize) -> Vec<Option<u64>> {
        let mut words = Vec::new();
        key.each(&Rows::Range(0..n), |word| words.push(word));
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Group-by, `distinct` and sort read a column alone: a null is a
        // value, every NaN is one value, `-0.0` is `0.0`; words order like
        // `cmp_total` (a plain string's only tell strings apart).
        #[test]
        fn words_are_equal_and_ordered_like_the_cells(rows in edge_rows(40)) {
            let n = rows.len();
            for col in edge_columns(&rows) {
                let words = words_of(&KeyCol::of(&col, 0..n), n);
                for a in 0..n {
                    for b in 0..n {
                        let want = col.get(a).cmp_total(&col.get(b));
                        prop_assert_eq!(words[a] == words[b], want == Ordering::Equal, "{:?} rows {} and {}", col.dtype(), a, b);
                        if !matches!(col, Column::Str(..)) {
                            prop_assert_eq!(words[a].cmp(&words[b]), want, "{:?} rows {} and {}", col.dtype(), a, b);
                        }
                    }
                }
            }
        }

        // A join reads a pair of columns: cells match as typed values (a
        // null or a NaN matches nothing), strings by content whichever way
        // the two sides are encoded, columns of different types never.
        #[test]
        fn pair_words_are_equal_where_the_cells_match(left in edge_rows(24), right in edge_rows(24)) {
            let (lcols, rcols) = (edge_columns(&left), edge_columns(&right));
            let matches = |a: &Value, b: &Value| match (a, b) {
                (Value::Null, _) | (_, Value::Null) => false,
                (Value::Float(x), Value::Float(y)) => x == y,
                _ => a == b,
            };
            // Every kind with itself, the two string encodings with each
            // other both ways round, and ints with floats.
            let pairs = (0..6).map(|k| (k, k)).chain([(0, 1), (1, 0), (2, 3), (3, 2)]);
            for (l, r) in pairs {
                let (lcol, rcol) = (&lcols[l], &rcols[r]);
                let (lkey, rkey) = KeyCol::pair(lcol, rcol);
                let (lwords, rwords) = (words_of(&lkey, left.len()), words_of(&rkey, right.len()));
                for (a, lword) in lwords.iter().enumerate() {
                    for (b, rword) in rwords.iter().enumerate() {
                        let same = lword.is_some() && lword == rword;
                        let want = lcol.dtype() == rcol.dtype() && matches(&lcol.get(a), &rcol.get(b));
                        prop_assert_eq!(same, want, "{:?} row {} and {:?} row {}", lcol, a, rcol, b);
                    }
                }
            }
        }

        // The same keys number alike whether their words are close together
        // (a table indexed directly) or far apart (open addressing), as
        // groups and as a join's build and probe sides, one column or two.
        #[test]
        fn direct_and_open_tables_number_alike(
            build in prop::collection::vec((prop::option::of(-5i64..40), prop::option::of(0i64..3)), 0..150),
            probe in prop::collection::vec((prop::option::of(-8i64..45), prop::option::of(0i64..4)), 0..60),
        ) {
            const FAR: i64 = 1_000_000_007;
            let columns = |rows: &[(Option<i64>, Option<i64>)], stride: i64| {
                let first = rows.iter().map(|r| r.0.map(|x| x * stride)).collect();
                let second = rows.iter().map(|r| r.1.map(|x| x * stride)).collect();
                [Column::from_opt_ints(first), Column::from_opt_ints(second)]
            };
            let (near, far) = (columns(&build, 1), columns(&build, FAR));
            let (near_probe, far_probe) = (columns(&probe, 1), columns(&probe, FAR));
            fn keys(cols: &[Column], k: usize) -> Vec<KeyCol<'_>> {
                cols[..k].iter().map(|col| KeyCol::of(col, 0..0)).collect()
            }
            let (rows, probes) = (Rows::Range(0..build.len()), Rows::Range(0..probe.len()));
            for k in [1, 2] {
                for nulls in [true, false] {
                    let (near_table, near_ids) = Encoder::intern(&keys(&near, k), &rows, nulls);
                    let (far_table, far_ids) = Encoder::intern(&keys(&far, k), &rows, nulls);
                    prop_assert_eq!(&near_ids, &far_ids);
                    prop_assert_eq!(near_table.len(), far_table.len());
                    // Ids are dense and handed out in first-encounter order.
                    let ids = near_ids.iter().filter(|&&id| id != NO_ID);
                    let seen = ids.max().map_or(0, |id| *id as usize + 1);
                    prop_assert_eq!(first_rows(&near_ids).len(), seen);
                    prop_assert_eq!(near_table.len(), seen);
                    prop_assert_eq!(
                        near_table.find(&keys(&near_probe, k), &probes),
                        far_table.find(&keys(&far_probe, k), &probes)
                    );
                    // What was interned is found again, under its id.
                    prop_assert_eq!(near_table.find(&keys(&near, k), &rows), near_ids);
                }
            }
            // Which table each side really used.
            if build.iter().filter(|r| r.0.is_some()).count() > 45 {
                let span = |col: &Column| KeyCol::of(col, 0..0).span(&rows);
                let table = |col: &Column| IdTable::new(span(col), build.len(), 0);
                prop_assert!(table(&near[0]).direct && !table(&far[0]).direct);
            }
        }
    }

    /// A listed partition reads the same words as the rows it lists.
    #[test]
    fn listed_rows_read_the_listed_cells() {
        let t = Table::new(vec![(
            "f",
            Column::from_opt_floats(vec![Some(1.5), None, Some(f64::NAN), Some(-0.0), Some(0.0)]),
        )])
        .unwrap();
        let key = KeyCol::of(t.column("f").unwrap(), 0..5);
        let all = words_of(&key, 5);
        let mut listed = Vec::new();
        key.each(&Rows::Listed(&[4, 1, 2]), |word| listed.push(word));
        assert_eq!(listed, vec![all[4], all[1], all[2]]);
        assert_eq!(all[3], all[4]);
        assert_eq!((all[1], all[2]), (None, Some(u64::MAX)));
    }

    /// Float keys whose bits differ only high up (small integers) hash
    /// apart: a table that indexed by the low bits of a multiplicative hash
    /// would put them all in one chain.
    #[test]
    #[cfg_attr(miri, ignore = "50 000 rows; the property above covers the same code")]
    fn open_addressing_is_linear_in_floats_that_are_whole_numbers() {
        let n = 50_000;
        let col = Column::from_floats((0..n).map(|i| (i * 4096) as f64).collect());
        let key = [KeyCol::of(&col, 0..n)];
        let (table, ids) = Encoder::intern(&key, &Rows::Range(0..n), true);
        assert_eq!(table.len(), n);
        assert_eq!(table.find(&key, &Rows::Range(0..n)), ids);
    }
}
