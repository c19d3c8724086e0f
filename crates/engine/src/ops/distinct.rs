//! Duplicate removal.

use crate::column::Column;
use crate::error::Result;
use crate::ops::aggregate::encode_groups;
use crate::ops::keys::first_rows;
use crate::table::Table;

/// Keep the first occurrence of each distinct combination of `columns`
/// (all columns when the list is empty). Row order of survivors is
/// preserved.
///
/// Rows are compared the way `group_by` compares keys (it is the same
/// encoder): nulls equal each other, -0.0 equals 0.0, and all NaNs count
/// as one value.
pub fn distinct(table: &Table, columns: &[&str]) -> Result<Table> {
    let cols: Vec<&Column> = if columns.is_empty() {
        table.columns().iter().map(|c| &**c).collect()
    } else {
        columns
            .iter()
            .map(|c| table.column(c))
            .collect::<Result<_>>()?
    };
    let gids = encode_groups(&cols, 0..table.num_rows());
    Ok(table.take(&first_rows(&gids)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Value;

    fn t() -> Table {
        Table::new(vec![
            ("a", Column::from_ints(vec![1, 1, 2, 1])),
            (
                "b",
                Column::from_opt_strs(vec![
                    Some("x".into()),
                    Some("x".into()),
                    None,
                    Some("y".into()),
                ]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn distinct_all_columns() {
        let out = distinct(&t(), &[]).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "a").unwrap(), Value::Int(1));
    }

    #[test]
    fn distinct_subset() {
        let out = distinct(&t(), &["a"]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn nulls_group_together() {
        let t = Table::new(vec![(
            "x",
            Column::from_opt_ints(vec![None, None, Some(1)]),
        )])
        .unwrap();
        let out = distinct(&t, &[]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(distinct(&t(), &["zz"]).is_err());
    }

    #[test]
    fn int_and_float_rows_stay_distinct() {
        // 1 (Int) and 1.0 (Float) are different key encodings.
        let a = Table::new(vec![("x", Column::from_ints(vec![1]))]).unwrap();
        let b = Table::new(vec![("x", Column::from_floats(vec![1.0]))]).unwrap();
        // Separate tables; within one table a column has a single type, so
        // this is about the key tagging, covered via the concat path.
        assert_eq!(distinct(&a, &[]).unwrap().num_rows(), 1);
        assert_eq!(distinct(&b, &[]).unwrap().num_rows(), 1);
    }
}
