//! Pivot (cross-tabulation).

use std::collections::HashMap;

use crate::error::{EngineError, Result};
use crate::ops::aggregate::{encode_groups, group_by, AggFunc, AggSpec};
use crate::ops::keys::first_rows;
use crate::table::Table;

/// Pivot `table`: one output row per distinct `index` value, one output
/// column per distinct `columns` value, cells holding `agg` of `values`.
///
/// Column headers are the rendered pivot values; a null pivot value gets
/// the header `null`. Missing combinations are null cells.
pub fn pivot(
    table: &Table,
    index: &str,
    columns: &str,
    values: &str,
    agg: AggFunc,
) -> Result<Table> {
    if index.eq_ignore_ascii_case(columns) {
        return Err(EngineError::invalid_argument(
            "pivot index and columns must differ",
        ));
    }
    // Aggregate once over (index, columns), then scatter.
    let grouped = group_by(
        table,
        &[index, columns],
        &[AggSpec::new(agg, values, "__cell")],
    )?;
    let idx_col = grouped.column_at(0);
    let hdr_col = grouped.column_at(1);
    let cell_col = grouped.column_at(2);
    let n = grouped.num_rows();

    // Number the distinct index values and headers densely, in
    // first-encounter order. Index values are told apart the way `distinct`
    // tells rows apart (the group-by encoder); headers by their rendered
    // text, so a null and the string `null` share one header.
    let row_of = encode_groups(&[idx_col], 0..n);
    let row_firsts = first_rows(&row_of);
    let mut headers: Vec<String> = Vec::new();
    let mut by_text: HashMap<String, usize> = HashMap::new();
    let hdr_of: Vec<usize> = (0..n)
        .map(|r| {
            *by_text
                .entry(hdr_col.get(r).render())
                .or_insert_with_key(|text| {
                    headers.push(text.clone());
                    headers.len() - 1
                })
        })
        .collect();

    // Scatter: which grouped row fills each (header, index value) cell.
    let mut picks: Vec<Vec<Option<usize>>> = vec![vec![None; row_firsts.len()]; headers.len()];
    for r in 0..n {
        picks[hdr_of[r]][row_of[r] as usize] = Some(r);
    }

    let mut out = Table::empty();
    let index_name = table
        .schema()
        .field(index)
        .map(|f| f.name.clone())
        .unwrap_or_else(|| index.to_string());
    out.add_column(&index_name, idx_col.take(&row_firsts))?;
    for (header, pick) in headers.iter().zip(&picks) {
        let name = out.schema().fresh_name(header);
        out.add_column(&name, cell_col.take_opt(pick))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Value;

    fn t() -> Table {
        Table::new(vec![
            ("sex", Column::from_strs(vec!["m", "m", "f", "f", "m"])),
            (
                "fault",
                Column::from_strs(vec!["yes", "no", "yes", "yes", "yes"]),
            ),
            ("n", Column::from_ints(vec![1, 1, 1, 1, 1])),
        ])
        .unwrap()
    }

    /// The loop `pivot` used to scatter with: distinct index values and
    /// headers found by linear search over `Vec<Value>` / `Vec<String>`,
    /// cells placed by `position` — quadratic in the distinct values, kept
    /// as the reference the dense-id scatter must reproduce.
    fn pivot_reference(
        table: &Table,
        index: &str,
        columns: &str,
        values: &str,
        agg: AggFunc,
    ) -> Table {
        let spec = [AggSpec::new(agg, values, "__cell")];
        let grouped = group_by(table, &[index, columns], &spec).unwrap();
        let (idx_col, hdr_col, cell_col) = (
            grouped.column_at(0),
            grouped.column_at(1),
            grouped.column_at(2),
        );
        let mut row_keys: Vec<Value> = Vec::new();
        let mut headers: Vec<String> = Vec::new();
        for r in 0..grouped.num_rows() {
            let iv = idx_col.get(r);
            if !row_keys.contains(&iv) {
                row_keys.push(iv);
            }
            let h = hdr_col.get(r).render();
            if !headers.contains(&h) {
                headers.push(h);
            }
        }
        let mut cells = vec![vec![Value::Null; headers.len()]; row_keys.len()];
        for r in 0..grouped.num_rows() {
            let (iv, h) = (idx_col.get(r), hdr_col.get(r).render());
            let ri = row_keys.iter().position(|k| *k == iv).unwrap();
            let ci = headers.iter().position(|k| *k == h).unwrap();
            cells[ri][ci] = cell_col.get(r);
        }
        let mut out = Table::empty();
        let index_name = &table.schema().field(index).unwrap().name;
        out.add_column(index_name, Column::from_values(&row_keys).unwrap())
            .unwrap();
        for (ci, header) in headers.iter().enumerate() {
            let col: Vec<Value> = cells.iter().map(|row| row[ci].clone()).collect();
            let name = out.schema().fresh_name(header);
            out.add_column(&name, Column::from_values(&col).unwrap())
                .unwrap();
        }
        out
    }

    /// 300 rows with null index values, null headers beside the string
    /// `null`, `-0.0` beside `0.0` and repeated (index, header) pairs.
    fn mixed(n: usize) -> Table {
        let idx = (0..n).map(|i| match i % 11 {
            0 => None,
            1 => Some(-0.0),
            2 => Some(0.0),
            k => Some((i % 37) as f64 + k as f64 / 16.0),
        });
        let hdr = (0..n).map(|i| match i % 7 {
            0 => None,
            1 => Some("null".to_string()),
            k => Some(format!("h{k}")),
        });
        Table::new(vec![
            ("idx", Column::from_opt_floats(idx.collect())),
            ("hdr", Column::from_opt_strs(hdr.collect())),
            ("v", Column::from_ints((0..n as i64).collect())),
        ])
        .unwrap()
    }

    #[test]
    fn dense_id_scatter_matches_the_search_loop_cell_for_cell() {
        let t = mixed(300);
        for agg in [AggFunc::Sum, AggFunc::Count, AggFunc::Max] {
            let got = pivot(&t, "idx", "hdr", "v", agg).unwrap();
            assert_eq!(got, pivot_reference(&t, "idx", "hdr", "v", agg), "{agg:?}");
        }
        // Dictionary-encoded inputs number and render alike.
        let got = pivot(&t.encode_strings(), "hdr", "idx", "v", AggFunc::Sum).unwrap();
        assert_eq!(got, pivot_reference(&t, "hdr", "idx", "v", AggFunc::Sum));
    }

    /// Index values and headers are numbered through hash maps, so the
    /// scatter is linear; the `contains` / `position` searches it replaces
    /// need ~10^9 `Value` comparisons here.
    #[test]
    #[cfg_attr(miri, ignore = "50 000 rows; the 300-row case covers the same code")]
    fn pivot_is_linear_in_the_distinct_index_values() {
        let n = 50_000;
        let t = Table::new(vec![
            (
                "k",
                Column::from_strs((0..n).rev().map(|i| format!("k{i}")).collect()),
            ),
            ("p", Column::from_ints((0..n).map(|i| i % 8).collect())),
            ("v", Column::from_ints((0..n).collect())),
        ])
        .unwrap();
        let out = pivot(&t, "k", "p", "v", AggFunc::Sum).unwrap();
        assert_eq!((out.num_rows(), out.num_columns()), (n as usize, 9));
        // Row r is input row r: index k{n-1-r}, its one cell under header
        // r % 8 holding r.
        for r in [0, 1, 7, 12_345, n - 1] {
            let at = r as usize;
            let key = Value::Str(format!("k{}", n - 1 - r));
            assert_eq!(out.value(at, "k").unwrap(), key);
            for h in 0..8 {
                let want = if h == r % 8 {
                    Value::Int(r)
                } else {
                    Value::Null
                };
                assert_eq!(out.value(at, &h.to_string()).unwrap(), want);
            }
        }
    }

    #[test]
    fn basic_crosstab() {
        let out = pivot(&t(), "sex", "fault", "n", AggFunc::Sum).unwrap();
        assert_eq!(out.schema().names(), vec!["sex", "yes", "no"]);
        assert_eq!(out.value(0, "yes").unwrap(), Value::Int(2)); // m/yes
        assert_eq!(out.value(0, "no").unwrap(), Value::Int(1));
        assert_eq!(out.value(1, "yes").unwrap(), Value::Int(2)); // f/yes
        assert_eq!(out.value(1, "no").unwrap(), Value::Null); // missing combo
    }

    #[test]
    fn count_pivot() {
        let out = pivot(&t(), "fault", "sex", "n", AggFunc::Count).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "m").unwrap(), Value::Int(2));
    }

    #[test]
    fn same_index_and_columns_rejected() {
        assert!(pivot(&t(), "sex", "SEX", "n", AggFunc::Sum).is_err());
    }

    #[test]
    fn null_pivot_value_becomes_null_header() {
        let t = Table::new(vec![
            ("k", Column::from_strs(vec!["a", "a"])),
            ("p", Column::from_opt_strs(vec![Some("x".into()), None])),
            ("v", Column::from_ints(vec![5, 7])),
        ])
        .unwrap();
        let out = pivot(&t, "k", "p", "v", AggFunc::Sum).unwrap();
        assert!(out.schema().index_of("null").is_some());
        assert_eq!(out.value(0, "null").unwrap(), Value::Int(7));
    }

    #[test]
    fn header_collision_with_index_gets_fresh_name() {
        let t = Table::new(vec![
            ("k", Column::from_strs(vec!["a"])),
            ("p", Column::from_strs(vec!["k"])), // header would collide with "k"
            ("v", Column::from_ints(vec![5])),
        ])
        .unwrap();
        let out = pivot(&t, "k", "p", "v", AggFunc::Sum).unwrap();
        assert_eq!(out.schema().names(), vec!["k", "k_2"]);
    }
}
