//! Multi-key stable sort.

use std::ops::Range;

use crate::error::Result;
use crate::parallel;
use crate::table::Table;
use crate::value::Value;

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
/// Decorate-sort over row morsels (see [`crate::parallel`]): key values are
/// extracted once per row (instead of twice per comparison), each morsel's
/// index range sorts on its own, and sorted runs fold together through a
/// stable left-biased merge — ties keep earlier-run rows first, which are
/// exactly the earlier input rows, so the result is the stable sort
/// whatever the morsel count. A single morsel is one run and merges nothing.
pub fn sort_by(table: &Table, keys: &[SortKey]) -> Result<Table> {
    if keys.is_empty() {
        return Ok(table.clone());
    }
    let cols: Vec<_> = keys
        .iter()
        .map(|k| table.column(&k.column))
        .collect::<Result<Vec<_>>>()?;
    let ranges = parallel::morsels(table.num_rows());

    // Decorate: materialize each key column's sort keys once, morsel by
    // morsel. Dictionary columns never touch their string payloads — the
    // dictionary is sorted, so comparing (validity, code) pairs is
    // exactly the total order on the strings (nulls first ascending,
    // like `Value::cmp_total`).
    enum SortCol {
        Vals(Vec<Value>),
        Codes(Vec<Option<u32>>),
    }
    let decorated: Vec<SortCol> = cols
        .iter()
        .map(|col| match col.as_dict() {
            Some((codes, _, valid)) => {
                SortCol::Codes(per_row(&ranges, |i| valid.get(i).then(|| codes[i])))
            }
            None => SortCol::Vals(per_row(&ranges, |i| col.get(i))),
        })
        .collect();
    let cmp = |a: usize, b: usize| -> std::cmp::Ordering {
        for (key, col) in keys.iter().zip(&decorated) {
            let ord = match col {
                SortCol::Vals(vals) => vals[a].cmp_total(&vals[b]),
                // `None` (null) < `Some(code)`: nulls first, matching the
                // total order on values.
                SortCol::Codes(codes) => codes[a].cmp(&codes[b]),
            };
            let ord = if key.ascending { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };

    // Sort each contiguous index chunk, then merge pairwise until one
    // run remains. Both stages run on the worker pool.
    let mut runs: Vec<Vec<usize>> = parallel::run_morsels(&ranges, |r| {
        let mut idx: Vec<usize> = r.collect();
        idx.sort_by(|&a, &b| cmp(a, b));
        idx
    });
    while runs.len() > 1 {
        let pairs = runs.len().div_ceil(2);
        runs = parallel::run_indexed(pairs, |i| {
            let a = &runs[2 * i];
            match runs.get(2 * i + 1) {
                Some(b) => merge_stable(a, b, &cmp),
                None => a.clone(),
            }
        });
    }
    let indices = runs.pop().unwrap_or_default();
    Ok(table.take(&indices))
}

/// `f` of every row, computed morsel by morsel and returned in row order.
fn per_row<T: Send>(ranges: &[Range<usize>], f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    parallel::run_morsels(ranges, |r| r.map(&f).collect::<Vec<_>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Merge two sorted runs, taking from `a` on ties. `a` must hold earlier
/// input rows than `b` for the overall sort to stay stable.
fn merge_stable(
    a: &[usize],
    b: &[usize],
    cmp: &impl Fn(usize, usize) -> std::cmp::Ordering,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(b[j], a[i]) == std::cmp::Ordering::Less {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The `n` rows with the largest values of `column` (ties broken by input
/// order), used by "top N" skills.
pub fn top_n(table: &Table, column: &str, n: usize) -> Result<Table> {
    let sorted = sort_by(table, &[SortKey::desc(column)])?;
    Ok(sorted.head(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sort_parallel_body_matches_row_at_a_time_reference(
            rows in prop::collection::vec(
                (prop::option::of("[a-c]{1,2}"), prop::option::of(-5i64..20)),
                0..300,
            ),
        ) {
            // `pos` makes every row distinct, so equality of the outputs
            // also pins stability on tied keys.
            let t = Table::new(vec![
                ("k", Column::from_opt_strs(rows.iter().map(|(k, _)| k.clone()).collect())),
                ("v", Column::from_opt_ints(rows.iter().map(|(_, v)| *v).collect())),
                ("pos", Column::from_ints((0..rows.len() as i64).collect())),
            ])
            .unwrap();
            for keys in [
                vec![SortKey::asc("k"), SortKey::desc("v")],
                vec![SortKey::desc("v")],
            ] {
                prop_assert_eq!(
                    sort_by(&t, &keys).unwrap(),
                    sort_by_reference(&t, &keys).unwrap()
                );
                // The dictionary-rank comparator must order like the strings.
                prop_assert_eq!(
                    sort_by(&t.encode_strings(), &keys).unwrap(),
                    sort_by_reference(&t, &keys).unwrap()
                );
            }
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
