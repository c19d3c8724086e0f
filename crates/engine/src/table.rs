//! The in-memory table: a schema plus equal-length columns.
//!
//! ## Ownership
//!
//! A [`Table`] holds each column behind an [`Arc`], and a column a table
//! holds is never written while anyone else holds it. Whatever leaves a
//! column's contents alone therefore shares it: `clone`, `select`,
//! `with_column`, `drop_column`, `rename_column`, the string re-encoders
//! (the other columns), a `slice` / `head` or a filter mask that keeps
//! every row, a one-part `ops::concat`. Storage blocks, cache entries and
//! replies may alias the same buffers. Gathers, a partial `slice` and a
//! multi-part `concat` build new rows and copy. The only writers,
//! [`Table::append`] and `Table::reserve`, go through [`Arc::make_mut`]:
//! a shared column is copied first, so no other holder sees the write.
//! Equality and [`Table::byte_size`] are by value; only
//! [`Table::shares_columns_with`] and `Arc::ptr_eq` on [`Table::columns`]
//! can tell a shared column from an equal one. (DESIGN.md §5.2.)

use std::fmt;
use std::sync::Arc;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::schema::{Field, Schema};
use crate::value::Value;

/// An immutable, column-oriented table.
///
/// This is the engine's equivalent of a DataFrame / Arrow record batch:
/// the unit every relational operator consumes and produces. Operators
/// never mutate tables in place; they build new ones, which keeps the
/// lazy skill-DAG executor free to cache and share intermediate results.
/// Cloning copies the schema and one pointer per column.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Table {
    /// An empty table with no columns and no rows.
    pub fn empty() -> Table {
        Table {
            schema: Schema::empty(),
            columns: Vec::new(),
            rows: 0,
        }
    }

    /// Build a table from `(name, column)` pairs. All columns must have
    /// equal length and unique names.
    pub fn new(cols: Vec<(&str, Column)>) -> Result<Table> {
        let mut t = Table::empty();
        let mut first = true;
        for (name, col) in cols {
            if first {
                t.rows = col.len();
                first = false;
            }
            t.add_column(name, col)?;
        }
        Ok(t)
    }

    /// An empty (zero-row) table with the given schema.
    pub fn empty_with_schema(schema: &Schema) -> Table {
        Table {
            schema: schema.clone(),
            columns: schema
                .fields()
                .iter()
                .map(|f| Arc::new(Column::empty(f.dtype)))
                .collect(),
            rows: 0,
        }
    }

    /// Append a named column: an owned [`Column`], or an `Arc<Column>`
    /// another table holds, which is shared. Must match the table's row
    /// count (the first column fixes it).
    pub fn add_column(&mut self, name: &str, col: impl Into<Arc<Column>>) -> Result<()> {
        let col = col.into();
        if !self.columns.is_empty() && col.len() != self.rows {
            return Err(EngineError::LengthMismatch {
                left: self.rows,
                right: col.len(),
            });
        }
        if self.columns.is_empty() {
            self.rows = col.len();
        }
        self.schema.push(Field::new(name, col.dtype()))?;
        self.columns.push(col);
        Ok(())
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns in schema order, as the handles the table holds.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Whether `other` holds this table's very columns — the same
    /// allocations in the same order — so an owner of both counts them once.
    pub fn shares_columns_with(&self, other: &Table) -> bool {
        self.columns.len() == other.columns.len()
            && (self.columns.iter().zip(&other.columns)).all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Column by case-insensitive name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| EngineError::column_not_found(name))?;
        Ok(&self.columns[idx])
    }

    /// Column at position `i`.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Cell value at `(row, column-name)`.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.rows {
            return Err(EngineError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        Ok(self.column(name)?.get(row))
    }

    /// One row as scalar values in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(EngineError::RowOutOfBounds {
                index: row,
                len: self.rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(row)).collect())
    }

    /// Gather rows at `indices` into a new table.
    pub fn take(&self, indices: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: (self.columns.iter())
                .map(|c| Arc::new(c.take(indices)))
                .collect(),
            rows: indices.len(),
        }
    }

    /// The kept-row indices of a selection mask: derived once per filter,
    /// then every column gathers through the same vector. `None` when the
    /// mask keeps every row: the columns are the output as they stand.
    fn selection(&self, mask: &[bool]) -> Result<Option<Vec<usize>>> {
        if mask.len() != self.rows {
            return Err(EngineError::LengthMismatch {
                left: self.rows,
                right: mask.len(),
            });
        }
        if mask.iter().all(|&keep| keep) {
            return Ok(None);
        }
        Ok(Some(
            mask.iter()
                .enumerate()
                .filter_map(|(i, &keep)| keep.then_some(i))
                .collect(),
        ))
    }

    /// Keep rows where the mask is true.
    pub fn filter_mask(&self, mask: &[bool]) -> Result<Table> {
        Ok(match self.selection(mask)? {
            Some(kept) => self.take(&kept),
            None => self.clone(),
        })
    }

    /// [`Table::select`] then [`Table::filter_mask`] in one pass: only the
    /// named columns are gathered, so columns a predicate needed but the
    /// output does not are never copied.
    pub fn select_filtered(&self, names: &[&str], mask: &[bool]) -> Result<Table> {
        match self.selection(mask)? {
            Some(kept) => self.select_with(names, kept.len(), |c| Arc::new(c.take(&kept))),
            None => self.select(names),
        }
    }

    /// Append the rows of `other` in place. Schemas must match by name,
    /// position and type (used to stitch per-morsel outputs back together).
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.schema.names() != other.schema.names() {
            return Err(EngineError::schema_mismatch(format!(
                "cannot append table with columns {:?} onto {:?}",
                other.schema.names(),
                self.schema.names()
            )));
        }
        for (col, more) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(col).extend(more)?;
        }
        self.rows += other.rows;
        Ok(())
    }

    /// Reserve room for `additional` more rows, so a run of `append`s
    /// with a known total grows each column once.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.columns
            .iter_mut()
            .for_each(|col| Arc::make_mut(col).reserve(additional));
    }

    /// A contiguous window of rows. A window covering every row shares
    /// the columns; any other copies its rows out.
    pub fn slice(&self, start: usize, count: usize) -> Table {
        let start = start.min(self.rows);
        let count = count.min(self.rows - start);
        if count == self.rows {
            return self.clone();
        }
        Table {
            schema: self.schema.clone(),
            columns: (self.columns.iter())
                .map(|c| Arc::new(c.slice(start, count)))
                .collect(),
            rows: count,
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Table {
        self.slice(0, n)
    }

    /// Replace (or create) a column, keeping schema order; replacing keeps
    /// the original position. Every other column is shared with `self`.
    pub fn with_column(&self, name: &str, col: impl Into<Arc<Column>>) -> Result<Table> {
        let col = col.into();
        if col.len() != self.rows && !self.columns.is_empty() {
            return Err(EngineError::LengthMismatch {
                left: self.rows,
                right: col.len(),
            });
        }
        let schema = self.schema.with_field(name, col.dtype());
        let rows = if self.columns.is_empty() {
            col.len()
        } else {
            self.rows
        };
        let mut columns = self.columns.clone();
        match self.schema.index_of(name) {
            Some(idx) => columns[idx] = col,
            None => columns.push(col),
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// Drop a column by name.
    pub fn drop_column(&self, name: &str) -> Result<Table> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| EngineError::column_not_found(name))?;
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        fields.remove(idx);
        let mut columns = self.columns.clone();
        columns.remove(idx);
        Ok(Table {
            schema: Schema::new(fields)?,
            columns,
            rows: self.rows,
        })
    }

    /// Rename a column.
    pub fn rename_column(&self, from: &str, to: &str) -> Result<Table> {
        let idx = self
            .schema
            .index_of(from)
            .ok_or_else(|| EngineError::column_not_found(from))?;
        if self.schema.index_of(to).is_some_and(|j| j != idx) {
            return Err(EngineError::DuplicateColumn { name: to.into() });
        }
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        fields[idx] = Field::new(to, fields[idx].dtype);
        Ok(Table {
            schema: Schema::new(fields)?,
            columns: self.columns.clone(),
            rows: self.rows,
        })
    }

    /// Keep only the named columns (shared), in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        self.select_with(names, self.rows, Arc::clone)
    }

    /// The named columns, in the given order, each built by `build` (which
    /// must yield `rows` rows).
    fn select_with(
        &self,
        names: &[&str],
        rows: usize,
        build: impl Fn(&Arc<Column>) -> Arc<Column>,
    ) -> Result<Table> {
        let mut out = Table::empty();
        for &name in names {
            let idx = self
                .schema
                .index_of(name)
                .ok_or_else(|| EngineError::column_not_found(name))?;
            out.add_column(&self.schema.field_at(idx).name, build(&self.columns[idx]))?;
        }
        out.rows = if out.columns.is_empty() { 0 } else { rows };
        Ok(out)
    }

    /// Approximate in-memory size in bytes of this table's own columns,
    /// whoever else shares them.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// A copy of the table with every plain string column
    /// dictionary-encoded ([`Column::dict_encode`]). Already-encoded and
    /// non-string columns are untouched; the schema is unchanged.
    pub fn encode_strings(&self) -> Table {
        let mut out = self.clone();
        for col in out.columns.iter_mut() {
            if matches!(**col, Column::Str(..)) {
                *col = Arc::new(col.dict_encode());
            }
        }
        out
    }

    /// A copy of the table with every dictionary-encoded column
    /// materialized back to plain strings ([`Column::materialize`]).
    pub fn materialize_strings(&self) -> Table {
        let mut out = self.clone();
        for col in out.columns.iter_mut() {
            if matches!(**col, Column::Dict(..)) {
                *col = Arc::new(col.materialize());
            }
        }
        out
    }

    /// Render the first `limit` rows as an aligned text grid (the
    /// spreadsheet view of the paper's UI, in terminal form).
    pub fn render(&self, limit: usize) -> String {
        let n = self.rows.min(limit);
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|s| s.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n);
        for r in 0..n {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(r).render()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{name:>width$}", width = widths[i]));
        }
        out.push('\n');
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            out.push('\n');
        }
        if self.rows > n {
            out.push_str(&format!("... ({} more rows)\n", self.rows - n));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(20))
    }
}

/// Builder for assembling a table row-by-row with a known schema (used by
/// CSV ingestion and group-by output assembly).
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Start building with a schema.
    pub fn new(schema: Schema) -> TableBuilder {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        TableBuilder { schema, columns }
    }

    /// Append one row; values must match the schema arity and types.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(EngineError::LengthMismatch {
                left: self.columns.len(),
                right: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push_value(v)?;
        }
        Ok(())
    }

    /// Finish into a table.
    pub fn finish(self) -> Table {
        let rows = self.columns.first().map_or(0, |c| c.len());
        Table {
            schema: self.schema,
            columns: self.columns.into_iter().map(Arc::new).collect(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;

    fn people() -> Table {
        Table::new(vec![
            ("name", Column::from_strs(vec!["ann", "bob", "cid"])),
            ("age", Column::from_opt_ints(vec![Some(34), None, Some(28)])),
            ("score", Column::from_floats(vec![1.5, 2.5, 3.5])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let t = people();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.schema().names(), vec!["name", "age", "score"]);
    }

    #[test]
    fn rejects_ragged_columns() {
        let r = Table::new(vec![
            ("a", Column::from_ints(vec![1, 2])),
            ("b", Column::from_ints(vec![1])),
        ]);
        assert!(matches!(r, Err(EngineError::LengthMismatch { .. })));
    }

    #[test]
    fn cell_access() {
        let t = people();
        assert_eq!(t.value(0, "NAME").unwrap(), Value::Str("ann".into()));
        assert_eq!(t.value(1, "age").unwrap(), Value::Null);
        assert!(t.value(5, "age").is_err());
        assert!(t.value(0, "nope").is_err());
    }

    #[test]
    fn select_projects_and_reorders() {
        let t = people().select(&["score", "name"]).unwrap();
        assert_eq!(t.schema().names(), vec!["score", "name"]);
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn with_column_replaces_in_place() {
        let t = people()
            .with_column("age", Column::from_ints(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(t.schema().names(), vec!["name", "age", "score"]);
        assert_eq!(t.value(1, "age").unwrap(), Value::Int(2));
    }

    #[test]
    fn with_column_appends_new() {
        let t = people()
            .with_column("flag", Column::from_bools(vec![true, false, true]))
            .unwrap();
        assert_eq!(t.num_columns(), 4);
    }

    #[test]
    fn drop_and_rename() {
        let t = people().drop_column("age").unwrap();
        assert_eq!(t.schema().names(), vec!["name", "score"]);
        let t = t.rename_column("score", "points").unwrap();
        assert!(t.column("points").is_ok());
        assert!(t.rename_column("name", "points").is_err());
    }

    #[test]
    fn filter_and_take() {
        let t = people();
        let f = t.filter_mask(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(1, "name").unwrap(), Value::Str("cid".into()));
        let k = t.take(&[2, 2]);
        assert_eq!(k.num_rows(), 2);
        assert_eq!(k.value(0, "name").unwrap(), Value::Str("cid".into()));
    }

    #[test]
    fn select_filtered_is_select_then_filter() {
        let t = people();
        let mask = [true, false, true];
        let got = t.select_filtered(&["score", "name"], &mask).unwrap();
        let want = t
            .select(&["score", "name"])
            .unwrap()
            .filter_mask(&mask)
            .unwrap();
        assert_eq!(got, want);
        assert!(t.select_filtered(&["nope"], &mask).is_err());
        assert!(t.select_filtered(&["name"], &[true]).is_err());
    }

    #[test]
    fn slice_and_head() {
        let t = people();
        assert_eq!(t.head(2).num_rows(), 2);
        assert_eq!(t.slice(2, 5).num_rows(), 1);
        assert_eq!(t.slice(9, 5).num_rows(), 0);
    }

    /// Every column kind, with nulls — small enough for miri.
    fn kinds(n: usize) -> Table {
        let opt = |i: usize, every: usize| i % every != 1;
        let strs = |tag: &str| {
            (0..n)
                .map(|i| opt(i, 5).then(|| format!("{tag}{}", i % 7)))
                .collect::<Vec<_>>()
        };
        Table::new(vec![
            (
                "b",
                Column::from_values(
                    &(0..n)
                        .map(|i| match opt(i, 3) {
                            true => Value::Bool(i % 2 == 0),
                            false => Value::Null,
                        })
                        .collect::<Vec<_>>(),
                )
                .unwrap(),
            ),
            (
                "i",
                Column::from_opt_ints((0..n).map(|i| opt(i, 4).then_some(i as i64)).collect()),
            ),
            (
                "f",
                Column::from_opt_floats(
                    (0..n)
                        .map(|i| opt(i, 6).then_some(i as f64 / 4.0))
                        .collect(),
                ),
            ),
            ("s", Column::from_opt_strs(strs("s"))),
            ("d", Column::from_opt_strs(strs("d")).dict_encode()),
            (
                "t",
                Column::from_opt_dates(
                    (0..n).map(|i| opt(i, 7).then_some(i as i32 * 30)).collect(),
                ),
            ),
        ])
        .unwrap()
    }

    /// A table with equal contents and no buffer in common: what every
    /// operation produced before columns were shared.
    fn deep_copy(t: &Table) -> Table {
        let names = t.schema().names();
        let cols = t.columns().iter().map(|c| Column::clone(c));
        let copy = Table::new(names.into_iter().zip(cols).collect()).unwrap();
        assert!(t.num_columns() == 0 || !copy.shares_columns_with(t));
        copy
    }

    /// Which of `out`'s columns are the very allocations `src` holds under
    /// the same (case-insensitive) name.
    fn shared_names(out: &Table, src: &Table) -> Vec<String> {
        let mut names = Vec::new();
        for (field, col) in out.schema().fields().iter().zip(out.columns()) {
            let at = src.schema().index_of(&field.name);
            if at.is_some_and(|at| Arc::ptr_eq(col, &src.columns()[at])) {
                names.push(field.name.clone());
            }
        }
        names
    }

    #[test]
    fn operations_that_keep_a_column_share_it() {
        let t = kinds(40);
        let reference = deep_copy(&t);
        let all = ["b", "i", "f", "s", "d", "t"];
        let fresh = || Column::from_ints((0..40).collect());

        let out = t.clone();
        assert!(out.shares_columns_with(&t));
        assert_eq!(out, reference);

        let out = t.select(&["t", "s", "i"]).unwrap();
        assert_eq!(shared_names(&out, &t), ["t", "s", "i"]);
        assert_eq!(out, reference.select(&["t", "s", "i"]).unwrap());

        let out = t.with_column("extra", fresh()).unwrap();
        assert_eq!(shared_names(&out, &t), all);
        assert_eq!(out, reference.with_column("extra", fresh()).unwrap());

        let out = t.with_column("F", fresh()).unwrap();
        assert_eq!(shared_names(&out, &t), ["b", "i", "s", "d", "t"]);
        assert_eq!(out, reference.with_column("F", fresh()).unwrap());
        assert_eq!(out.schema().names(), all);

        let out = t.drop_column("s").unwrap();
        assert_eq!(shared_names(&out, &t), ["b", "i", "f", "d", "t"]);
        assert_eq!(out, reference.drop_column("s").unwrap());

        let out = t.rename_column("d", "dict").unwrap();
        assert!(out.shares_columns_with(&t));
        assert_eq!(out, reference.rename_column("d", "dict").unwrap());

        for out in [t.slice(0, 40), t.slice(0, 99), t.head(40)] {
            assert!(out.shares_columns_with(&t));
            assert_eq!(out, reference);
        }
        // A window that merely has as many rows as it asked for is a copy.
        assert!(shared_names(&t.slice(1, 39), &t).is_empty());
        assert!(shared_names(&t.head(39), &t).is_empty());

        let keep_all = vec![true; 40];
        let out = t.filter_mask(&keep_all).unwrap();
        assert!(out.shares_columns_with(&t));
        assert_eq!(out, reference);
        let out = t.select_filtered(&["f", "b"], &keep_all).unwrap();
        assert_eq!(shared_names(&out, &t), ["f", "b"]);
        assert_eq!(out, reference.select(&["f", "b"]).unwrap());
        // One dropped row, and every column is gathered afresh.
        let mut but_one = keep_all.clone();
        but_one[17] = false;
        let out = t.filter_mask(&but_one).unwrap();
        assert!(shared_names(&out, &t).is_empty());
        let kept: Vec<usize> = (0..40).filter(|&i| i != 17).collect();
        assert_eq!(out, reference.take(&kept));

        let out = crate::ops::concat(&[&t], false).unwrap();
        assert!(out.shares_columns_with(&t));
        assert_eq!(out, reference);
        let out = crate::ops::concat(&[&t, &t], false).unwrap();
        assert!(shared_names(&out, &t).is_empty());
        let mut twice = deep_copy(&reference);
        twice.append(&reference).unwrap();
        assert_eq!(out, twice);
    }

    #[test]
    fn string_reencoding_shares_the_other_columns() {
        let t = kinds(40);
        let reference = deep_copy(&t);
        let enc = t.encode_strings();
        assert_eq!(shared_names(&enc, &t), ["b", "i", "f", "d", "t"]);
        assert!(enc.column("s").unwrap().as_dict().is_some());
        assert_eq!(enc, reference);
        let plain = enc.materialize_strings();
        assert_eq!(shared_names(&plain, &enc), ["b", "i", "f", "t"]);
        assert!(plain.column("d").unwrap().as_strs().is_some());
        assert_eq!(plain, reference);
        // The source tables still hold what they held.
        assert!(t.column("s").unwrap().as_strs().is_some());
        assert!(enc.column("d").unwrap().as_dict().is_some());
    }

    #[test]
    fn writes_to_a_sharing_table_copy_first() {
        let t = kinds(40);
        let reference = deep_copy(&t);
        let more = kinds(9);

        let mut grown = t.clone();
        grown.append(&more).unwrap();
        assert_eq!(grown.num_rows(), 49);
        assert!(shared_names(&grown, &t).is_empty());
        assert_eq!(grown.slice(0, 40), reference);
        assert_eq!(grown.slice(40, 9), more);

        let mut roomy = t.select(&["i", "s"]).unwrap();
        roomy.reserve(1_000);
        assert_eq!(roomy, reference.select(&["i", "s"]).unwrap());
        roomy.append(&more.select(&["i", "s"]).unwrap()).unwrap();

        // Whatever was written through the copies, the source is as it was
        // — and an unshared table is appended to in place.
        assert_eq!(t, reference);
        let mut own = deep_copy(&t);
        let before: Vec<*const Column> = own.columns().iter().map(Arc::as_ptr).collect();
        own.append(&more).unwrap();
        let after: Vec<*const Column> = own.columns().iter().map(Arc::as_ptr).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn builder_roundtrip() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(&[Value::Int(1), Value::Str("x".into())])
            .unwrap();
        b.push_row(&[Value::Null, Value::Str("y".into())]).unwrap();
        let t = b.finish();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn render_includes_nulls_and_truncation() {
        let t = people();
        let s = t.render(2);
        assert!(s.contains("null"));
        assert!(s.contains("1 more rows"));
    }
}
