//! Hash joins.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::hash::FxHashMap;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::parallel;
use crate::table::Table;
use crate::value::Value;

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

/// Hash join of two tables on equally-named key pairs.
///
/// `left_on[i]` joins against `right_on[i]`. Non-key right columns that
/// collide with a left column name are suffixed `_right`. Right key
/// columns are dropped (they duplicate the left keys on matches); for
/// right/full joins the left key columns are backfilled from the right
/// side on unmatched right rows.
///
/// Build and probe run per row morsel (see [`crate::parallel`]) with
/// typed, borrowed keys (no per-row string rendering) and the output is
/// materialized with one gather per column. Per-morsel results are stitched
/// in morsel order, so row order never depends on the morsel count: left
/// rows ascending, each one's matches in ascending right-row order, then
/// unmatched right rows for right/full joins.
pub fn join(
    left: &Table,
    right: &Table,
    left_on: &[&str],
    right_on: &[&str],
    how: JoinType,
) -> Result<Table> {
    let (lcols, rcols) = key_columns(left, right, left_on, right_on)?;

    // Dictionary-encoded key pairs are remapped into a shared integer
    // code space once, so build and probe hash `i64`s instead of strings.
    // Assembly below still reads the original `rcols` (the converted
    // columns exist only for key hashing).
    let converted: Vec<Option<(Column, Column)>> = lcols
        .iter()
        .zip(&rcols)
        .map(|(l, r)| dict_code_keys(l, r))
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

    // Build phase. The index stores, per key, an intrusive chain of right
    // rows: the map value is the (head, tail) of the chain and `next[row]`
    // links to the following right row with the same key. Compared to a
    // `Vec<usize>` per key this needs no per-key heap allocation (mostly-
    // unique keys would otherwise malloc once per right row) and probing a
    // unique key touches no memory beyond the map entry itself, because
    // `head == tail` ends the walk before `next` is ever read.
    //
    // Each morsel indexes its own right-side row range. The first morsel's
    // index and links are adopted as they are and the rest splice in behind
    // them in morsel order, so every key's chain stays in ascending
    // right-row order and a single morsel splices nothing.
    let mut parts = parallel::run_morsels(&parallel::morsels(right.num_rows()), |r| {
        let base = r.start;
        let mut local_next: Vec<u32> = vec![u32::MAX; r.len()];
        let mut map: FxHashMap<Key, (u32, u32)> =
            FxHashMap::with_capacity_and_hasher(r.len(), Default::default());
        for row in r {
            if let Some(k) = ref_key(&rkey, row) {
                match map.entry(k) {
                    Entry::Occupied(mut e) => {
                        let chain = e.get_mut();
                        local_next[chain.1 as usize - base] = row as u32;
                        chain.1 = row as u32;
                    }
                    Entry::Vacant(e) => {
                        e.insert((row as u32, row as u32));
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
        for (k, chain) in map {
            match index.entry(k) {
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

    // Probe phase: per left morsel, emitting (left, right) row pairs in
    // left-row order. Matched right rows are flagged through atomics so
    // right/full joins can backfill after all workers finish.
    let track_matched = matches!(how, JoinType::Right | JoinType::Full);
    let right_matched: Vec<AtomicBool> = if track_matched {
        (0..right.num_rows())
            .map(|_| AtomicBool::new(false))
            .collect()
    } else {
        Vec::new()
    };
    let lranges = parallel::morsels(left.num_rows());
    let pairs = parallel::run_morsels(&lranges, |r| {
        let mut lidx: Vec<Option<usize>> = Vec::with_capacity(r.len());
        let mut ridx: Vec<Option<usize>> = Vec::with_capacity(r.len());
        for row in r {
            let matches = ref_key(&lkey, row).and_then(|k| index.get(&k));
            match matches {
                Some(&(head, tail)) => {
                    let mut rr = head;
                    loop {
                        lidx.push(Some(row));
                        ridx.push(Some(rr as usize));
                        if track_matched {
                            right_matched[rr as usize].store(true, Ordering::Relaxed);
                        }
                        if rr == tail {
                            break;
                        }
                        rr = next[rr as usize];
                    }
                }
                _ => {
                    if matches!(how, JoinType::Left | JoinType::Full) {
                        lidx.push(Some(row));
                        ridx.push(None);
                    }
                }
            }
        }
        (lidx, ridx)
    });
    let mut lidx: Vec<Option<usize>> = Vec::new();
    let mut ridx: Vec<Option<usize>> = Vec::new();
    lidx.reserve(pairs.iter().map(|(l, _)| l.len()).sum());
    ridx.reserve(lidx.capacity());
    for (l, r) in pairs {
        lidx.extend(l);
        ridx.extend(r);
    }
    if track_matched {
        for (r, matched) in right_matched.iter().enumerate() {
            if !matched.load(Ordering::Relaxed) {
                lidx.push(None);
                ridx.push(Some(r));
            }
        }
    }

    // Assembly: one gather per column instead of one push per cell. Only
    // left key columns of right/full joins need the per-row loop, to
    // backfill key values from the right side on unmatched right rows.
    let mut out = Table::empty();
    let key_positions_left: Vec<usize> = left_on
        .iter()
        .map(|k| {
            let position = left.schema().index_of(k);
            position.ok_or_else(|| EngineError::column_not_found(*k))
        })
        .collect::<Result<_>>()?;
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
