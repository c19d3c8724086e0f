//! Filter, project and limit operators.

use crate::column::Column;
use crate::error::Result;
use crate::eval::{eval, eval_predicate, eval_predicate_serial};
use crate::expr::Expr;
use crate::table::Table;

/// Keep rows satisfying the predicate (nulls drop, like SQL `WHERE`).
///
/// On tables of more than one morsel the selection mask is computed
/// morsel-parallel over only the columns the predicate references (see
/// [`eval_predicate`]); the surviving rows are then materialized in one
/// pass, so the output matches [`filter_serial`] exactly.
pub fn filter(table: &Table, predicate: &Expr) -> Result<Table> {
    let mask = eval_predicate(table, predicate)?;
    table.filter_mask(&mask)
}

/// Filter on the calling thread: the mask comes from the per-morsel worker
/// [`eval_predicate_serial`] run over the whole table. (Storage evaluates
/// the same worker once per block and gathers only the projected columns.)
pub fn filter_serial(table: &Table, predicate: &Expr) -> Result<Table> {
    let mask = eval_predicate_serial(table, predicate)?;
    table.filter_mask(&mask)
}

/// Keep the first `n` rows.
pub fn limit(table: &Table, n: usize) -> Table {
    table.head(n)
}

/// Evaluate `(name, expr)` pairs into a new table (SQL `SELECT` list).
pub fn project(table: &Table, exprs: &[(String, Expr)]) -> Result<Table> {
    let mut out = Table::empty();
    for (name, e) in exprs {
        let col: Column = eval(table, e)?;
        out.add_column(name, col)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t() -> Table {
        Table::new(vec![
            (
                "x",
                Column::from_opt_ints(vec![Some(1), Some(5), None, Some(9)]),
            ),
            ("y", Column::from_strs(vec!["a", "b", "c", "d"])),
        ])
        .unwrap()
    }

    #[test]
    fn filter_drops_nulls_and_false() {
        let out = filter(&t(), &Expr::col("x").gt(Expr::lit(1i64))).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "y").unwrap(), Value::Str("b".into()));
    }

    #[test]
    fn limit_caps() {
        assert_eq!(limit(&t(), 2).num_rows(), 2);
        assert_eq!(limit(&t(), 100).num_rows(), 4);
    }

    #[test]
    fn project_computes() {
        let out = project(
            &t(),
            &[
                ("x2".to_string(), Expr::col("x").mul(Expr::lit(2i64))),
                ("y".to_string(), Expr::col("y")),
            ],
        )
        .unwrap();
        assert_eq!(out.schema().names(), vec!["x2", "y"]);
        assert_eq!(out.value(1, "x2").unwrap(), Value::Int(10));
        assert_eq!(out.value(2, "x2").unwrap(), Value::Null);
    }

    #[test]
    fn project_unknown_column_errors() {
        assert!(project(&t(), &[("z".to_string(), Expr::col("nope"))]).is_err());
    }
}
