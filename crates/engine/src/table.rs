//! The in-memory table: a schema plus equal-length columns.
//!
//! ## Ownership
//!
//! A [`Table`] holds each column behind an [`Arc`], and a column held by
//! a table is never mutated while it is shared. That makes every operation that
//! does not change a column's *contents* a pointer copy of that column:
//! `clone`, [`Table::select`], [`Table::with_column`] (the untouched
//! columns), [`Table::drop_column`], [`Table::rename_column`], the string
//! re-encoders (the non-string columns), a [`Table::slice`] /
//! [`Table::head`] that covers every row, a [`Table::filter_mask`] /
//! [`Table::select_filtered`] whose mask keeps every row, and a
//! one-part `ops::concat`. A storage block, a cache entry and the table
//! a chat reply carries may therefore all alias the same buffers.
//!
//! What still copies, because the rows themselves change: gathers
//! ([`Table::take`], a filter that drops rows), a partial `slice`, and a
//! multi-part `concat` (one contiguous allocation per output column).
//!
//! The only writers of a table-held column are [`Table::append`] and
//! `Table::reserve`; both go through [`Arc::make_mut`], so a column
//! another table still points at is copied first (copy-on-write) and the
//! other holder never observes the write. Equality ([`PartialEq`]) and
//! [`Table::byte_size`] are by value: sharing is unobservable except
//! through [`Table::shares_columns_with`] and `Arc::ptr_eq` on
//! [`Table::columns`].

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
/// Cloning copies the schema and one pointer per column (see the module
/// docs for the ownership rules).
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

    /// Append a named column — an owned [`Column`], or an `Arc<Column>`
    /// another table already holds, which is then shared rather than
    /// copied. Must match the table's row count (the first column fixes
    /// it).
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

    /// All columns in schema order, as the shared handles the table
    /// holds.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Whether `other` holds exactly this table's columns — the same
    /// allocations in the same order, not merely equal values. Lets an
    /// owner of both count the buffers once.
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
    /// mask keeps every row, in which case the columns are the output as
    /// they stand and nothing needs gathering.
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
        let mut out = self.clone();
        match out.schema.index_of(name) {
            Some(idx) => {
                // Preserve the user's original column casing on replace.
                let preserved = out.schema.field_at(idx).name.clone();
                let mut fields: Vec<Field> = out.schema.fields().to_vec();
                fields[idx] = Field::new(preserved, col.dtype());
                out.schema = Schema::new(fields)?;
                out.columns[idx] = col;
            }
            None => {
                out.schema.push(Field::new(name, col.dtype()))?;
                if out.columns.is_empty() {
                    out.rows = col.len();
                }
                out.columns.push(col);
            }
        }
        Ok(out)
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

    /// Keep only the named columns, in the given order (shared, not
    /// copied).
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

    /// Approximate in-memory size in bytes: the logical bytes of this
    /// table's own columns, whoever else shares them.
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
