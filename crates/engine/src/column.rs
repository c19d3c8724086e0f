//! Typed columnar storage.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::dtype::DataType;
use crate::error::{EngineError, Result};
use crate::hash::FxHashMap;
use crate::value::Value;

/// Borrowed view of a dictionary-encoded column: per-row codes, the
/// shared sorted dictionary, and the validity bitmap.
pub type DictParts<'a> = (&'a [u32], &'a Arc<Vec<String>>, &'a Bitmap);

/// A column of values, stored as a dense typed vector plus a validity
/// bitmap. Slots whose validity bit is clear hold an arbitrary placeholder
/// and must not be read.
///
/// String data has two physical encodings with identical logical
/// semantics: `Str` stores one heap `String` per row, while `Dict`
/// stores a `u32` code per row into an `Arc`-shared, sorted, duplicate-free
/// dictionary. Because the dictionary is sorted, code order equals
/// lexicographic order, which lets sort/compare kernels work on the codes
/// alone. Both encodings report [`DataType::Str`], so schemas and every
/// dtype-driven code path are unaffected by which encoding a column uses.
#[derive(Debug, Clone)]
pub enum Column {
    Bool(Vec<bool>, Bitmap),
    Int(Vec<i64>, Bitmap),
    Float(Vec<f64>, Bitmap),
    Str(Vec<String>, Bitmap),
    /// Dictionary-encoded strings: per-row codes into a sorted-unique,
    /// `Arc`-shared dictionary. Invalid rows hold code 0 as a placeholder
    /// (never read; an all-null column may carry an empty dictionary).
    Dict(Vec<u32>, Arc<Vec<String>>, Bitmap),
    /// Days since 1970-01-01.
    Date(Vec<i32>, Bitmap),
}

impl Column {
    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Bool(..) => DataType::Bool,
            Column::Int(..) => DataType::Int,
            Column::Float(..) => DataType::Float,
            Column::Str(..) | Column::Dict(..) => DataType::Str,
            Column::Date(..) => DataType::Date,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v, _) => v.len(),
            Column::Int(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
            Column::Dict(codes, _, _) => codes.len(),
            Column::Date(v, _) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Bool(_, b)
            | Column::Int(_, b)
            | Column::Float(_, b)
            | Column::Str(_, b)
            | Column::Date(_, b) => b,
            Column::Dict(_, _, b) => b,
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity().count_null()
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Column {
        match dtype {
            DataType::Bool => Column::Bool(Vec::new(), Bitmap::new_null(0)),
            DataType::Int => Column::Int(Vec::new(), Bitmap::new_null(0)),
            DataType::Float => Column::Float(Vec::new(), Bitmap::new_null(0)),
            DataType::Str => Column::Str(Vec::new(), Bitmap::new_null(0)),
            DataType::Date => Column::Date(Vec::new(), Bitmap::new_null(0)),
        }
    }

    /// A column of `len` nulls of the given type.
    pub fn nulls(dtype: DataType, len: usize) -> Column {
        let b = Bitmap::new_null(len);
        match dtype {
            DataType::Bool => Column::Bool(vec![false; len], b),
            DataType::Int => Column::Int(vec![0; len], b),
            DataType::Float => Column::Float(vec![0.0; len], b),
            DataType::Str => Column::Str(vec![String::new(); len], b),
            DataType::Date => Column::Date(vec![0; len], b),
        }
    }

    /// Build an all-valid int column.
    pub fn from_ints(vals: Vec<i64>) -> Column {
        let b = Bitmap::new_valid(vals.len());
        Column::Int(vals, b)
    }

    /// Build an int column with optional values.
    pub fn from_opt_ints(vals: Vec<Option<i64>>) -> Column {
        let mut data = Vec::with_capacity(vals.len());
        let mut valid = Bitmap::new_null(vals.len());
        for (i, v) in vals.into_iter().enumerate() {
            match v {
                Some(x) => {
                    data.push(x);
                    valid.set(i, true);
                }
                None => data.push(0),
            }
        }
        Column::Int(data, valid)
    }

    /// Build an all-valid float column.
    pub fn from_floats(vals: Vec<f64>) -> Column {
        let b = Bitmap::new_valid(vals.len());
        Column::Float(vals, b)
    }

    /// Build a float column with optional values.
    pub fn from_opt_floats(vals: Vec<Option<f64>>) -> Column {
        let mut data = Vec::with_capacity(vals.len());
        let mut valid = Bitmap::new_null(vals.len());
        for (i, v) in vals.into_iter().enumerate() {
            match v {
                Some(x) => {
                    data.push(x);
                    valid.set(i, true);
                }
                None => data.push(0.0),
            }
        }
        Column::Float(data, valid)
    }

    /// Build an all-valid string column.
    pub fn from_strs<S: Into<String>>(vals: Vec<S>) -> Column {
        let data: Vec<String> = vals.into_iter().map(Into::into).collect();
        let b = Bitmap::new_valid(data.len());
        Column::Str(data, b)
    }

    /// Build a string column with optional values.
    pub fn from_opt_strs(vals: Vec<Option<String>>) -> Column {
        let mut data = Vec::with_capacity(vals.len());
        let mut valid = Bitmap::new_null(vals.len());
        for (i, v) in vals.into_iter().enumerate() {
            match v {
                Some(x) => {
                    data.push(x);
                    valid.set(i, true);
                }
                None => data.push(String::new()),
            }
        }
        Column::Str(data, valid)
    }

    /// Build an all-valid bool column.
    pub fn from_bools(vals: Vec<bool>) -> Column {
        let b = Bitmap::new_valid(vals.len());
        Column::Bool(vals, b)
    }

    /// Build an all-valid date column (days since epoch).
    pub fn from_dates(vals: Vec<i32>) -> Column {
        let b = Bitmap::new_valid(vals.len());
        Column::Date(vals, b)
    }

    /// Build a date column with optional values.
    pub fn from_opt_dates(vals: Vec<Option<i32>>) -> Column {
        let mut data = Vec::with_capacity(vals.len());
        let mut valid = Bitmap::new_null(vals.len());
        for (i, v) in vals.into_iter().enumerate() {
            match v {
                Some(x) => {
                    data.push(x);
                    valid.set(i, true);
                }
                None => data.push(0),
            }
        }
        Column::Date(data, valid)
    }

    /// Build a column from scalar [`Value`]s, inferring the type. All
    /// non-null values must share a type (ints widen to float when mixed
    /// with floats). An all-null input produces a `Str` column of nulls.
    pub fn from_values(vals: &[Value]) -> Result<Column> {
        // Infer the unified type.
        let mut dtype: Option<DataType> = None;
        for v in vals {
            if let Some(t) = v.dtype() {
                dtype = Some(match dtype {
                    None => t,
                    Some(cur) => cur.unify(t).ok_or_else(|| {
                        EngineError::schema_mismatch(format!(
                            "mixed value types in column: {cur} vs {t}"
                        ))
                    })?,
                });
            }
        }
        let dtype = dtype.unwrap_or(DataType::Str);
        let mut col = Column::empty(dtype);
        for v in vals {
            col.push_value(v)?;
        }
        Ok(col)
    }

    /// Read row `i` as a scalar [`Value`] (null if the validity bit is
    /// clear). Intended for display and boundary layers, not kernels.
    pub fn get(&self, i: usize) -> Value {
        if !self.validity().get(i) {
            return Value::Null;
        }
        match self {
            Column::Bool(v, _) => Value::Bool(v[i]),
            Column::Int(v, _) => Value::Int(v[i]),
            Column::Float(v, _) => Value::Float(v[i]),
            Column::Str(v, _) => Value::Str(v[i].clone()),
            Column::Dict(codes, dict, _) => Value::Str(dict[codes[i] as usize].clone()),
            Column::Date(v, _) => Value::Date(v[i]),
        }
    }

    /// Append a scalar, which must be null or match the column type
    /// (ints are accepted into float columns).
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        if matches!(self, Column::Dict(..)) {
            return self.push_value_dict(v);
        }
        match (self, v) {
            (Column::Bool(data, valid), Value::Bool(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (Column::Int(data, valid), Value::Int(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (Column::Float(data, valid), Value::Float(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (Column::Float(data, valid), Value::Int(x)) => {
                data.push(*x as f64);
                valid.push(true);
            }
            (Column::Str(data, valid), Value::Str(x)) => {
                data.push(x.clone());
                valid.push(true);
            }
            (Column::Date(data, valid), Value::Date(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (col, Value::Null) => match col {
                Column::Bool(data, valid) => {
                    data.push(false);
                    valid.push(false);
                }
                Column::Int(data, valid) => {
                    data.push(0);
                    valid.push(false);
                }
                Column::Float(data, valid) => {
                    data.push(0.0);
                    valid.push(false);
                }
                Column::Str(data, valid) => {
                    data.push(String::new());
                    valid.push(false);
                }
                Column::Dict(..) => unreachable!("dict handled above"),
                Column::Date(data, valid) => {
                    data.push(0);
                    valid.push(false);
                }
            },
            (col, v) => {
                return Err(EngineError::TypeMismatch {
                    expected: col.dtype(),
                    actual: v.dtype().unwrap_or(DataType::Str),
                    context: "push_value".into(),
                })
            }
        }
        Ok(())
    }

    /// `push_value` for the dictionary encoding. A string already in the
    /// dictionary appends its code; a new string falls back to the plain
    /// encoding (dictionaries are immutable once shared, so growing one
    /// in place would silently mutate every column holding the `Arc`).
    fn push_value_dict(&mut self, v: &Value) -> Result<()> {
        enum Act {
            Null,
            Code(u32),
            Grow,
        }
        let act = match (v, &*self) {
            (Value::Null, _) => Act::Null,
            (Value::Str(x), Column::Dict(_, dict, _)) => {
                match dict.binary_search_by(|d| d.as_str().cmp(x.as_str())) {
                    Ok(c) => Act::Code(c as u32),
                    Err(_) => Act::Grow,
                }
            }
            (other, col) => {
                return Err(EngineError::TypeMismatch {
                    expected: col.dtype(),
                    actual: other.dtype().unwrap_or(DataType::Str),
                    context: "push_value".into(),
                })
            }
        };
        match (act, &mut *self) {
            (Act::Null, Column::Dict(codes, _, valid)) => {
                codes.push(0);
                valid.push(false);
            }
            (Act::Code(c), Column::Dict(codes, _, valid)) => {
                codes.push(c);
                valid.push(true);
            }
            (Act::Grow, _) => {
                let mut plain = self.materialize();
                plain.push_value(v)?;
                *self = plain;
            }
            _ => unreachable!("self is a dict column"),
        }
        Ok(())
    }

    /// Gather rows at `indices` into a new column. Indices may repeat and
    /// appear in any order (used by sort, join and sampling).
    ///
    /// Dictionary columns gather `u32` codes and share the dictionary
    /// `Arc` — no string is cloned. Plain string gathers clone only the
    /// valid slots (placeholders are freshly empty strings).
    pub fn take(&self, indices: &[usize]) -> Column {
        let valid = self.validity().take(indices);
        match self {
            Column::Bool(v, _) => Column::Bool(indices.iter().map(|&i| v[i]).collect(), valid),
            Column::Int(v, _) => Column::Int(indices.iter().map(|&i| v[i]).collect(), valid),
            Column::Float(v, _) => Column::Float(indices.iter().map(|&i| v[i]).collect(), valid),
            Column::Str(v, b) => {
                let mut data: Vec<String> = Vec::with_capacity(indices.len());
                for &i in indices {
                    if b.get(i) {
                        data.push(v[i].clone());
                    } else {
                        data.push(String::new());
                    }
                }
                Column::Str(data, valid)
            }
            Column::Dict(codes, dict, _) => Column::Dict(
                indices.iter().map(|&i| codes[i]).collect(),
                Arc::clone(dict),
                valid,
            ),
            Column::Date(v, _) => Column::Date(indices.iter().map(|&i| v[i]).collect(), valid),
        }
    }

    /// Gather rows at `indices`, producing null for `None` entries. This is
    /// the outer-join materialization primitive: one gather per column
    /// instead of one `push_value` per cell, the validity a word at a time.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        let valid = self.validity().take_opt(indices);
        // A null source cell holds its type's placeholder, like a `None`.
        fn at<T: Copy + Default>(v: &[T], indices: &[Option<usize>]) -> Vec<T> {
            let cells = indices.iter().map(|ix| ix.map_or(T::default(), |i| v[i]));
            cells.collect()
        }
        match self {
            Column::Bool(v, _) => Column::Bool(at(v, indices), valid),
            Column::Int(v, _) => Column::Int(at(v, indices), valid),
            Column::Float(v, _) => Column::Float(at(v, indices), valid),
            Column::Str(v, b) => {
                let cell = |ix: &Option<usize>| match ix {
                    Some(i) if b.get(*i) => v[*i].clone(),
                    _ => String::new(),
                };
                Column::Str(indices.iter().map(cell).collect(), valid)
            }
            Column::Dict(codes, dict, _) => {
                Column::Dict(at(codes, indices), Arc::clone(dict), valid)
            }
            Column::Date(v, _) => Column::Date(at(v, indices), valid),
        }
    }

    /// A contiguous slice `[start, start+count)` as a new column.
    pub fn slice(&self, start: usize, count: usize) -> Column {
        let count = count.min(self.len().saturating_sub(start));
        let valid = self.validity().slice(start, count);
        match self {
            Column::Bool(v, _) => Column::Bool(v[start..start + count].to_vec(), valid),
            Column::Int(v, _) => Column::Int(v[start..start + count].to_vec(), valid),
            Column::Float(v, _) => Column::Float(v[start..start + count].to_vec(), valid),
            Column::Str(v, _) => Column::Str(v[start..start + count].to_vec(), valid),
            Column::Dict(codes, dict, _) => Column::Dict(
                codes[start..start + count].to_vec(),
                Arc::clone(dict),
                valid,
            ),
            Column::Date(v, _) => Column::Date(v[start..start + count].to_vec(), valid),
        }
    }

    /// Reserve room for `additional` more rows, so a run of `extend`s
    /// with a known total grows each buffer once.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match self {
            Column::Bool(v, _) => v.reserve(additional),
            Column::Int(v, _) => v.reserve(additional),
            Column::Float(v, _) => v.reserve(additional),
            Column::Str(v, _) => v.reserve(additional),
            Column::Dict(v, _, _) => v.reserve(additional),
            Column::Date(v, _) => v.reserve(additional),
        }
        match self {
            Column::Bool(_, b)
            | Column::Int(_, b)
            | Column::Float(_, b)
            | Column::Str(_, b)
            | Column::Date(_, b)
            | Column::Dict(_, _, b) => b.reserve(additional),
        }
    }

    /// Append all rows of another column of the same type.
    ///
    /// Appending to an empty column adopts the other column's physical
    /// encoding wholesale, so stitching morsel results or concatenating
    /// into a fresh table preserves dictionary encoding. Mixed-encoding
    /// appends merge/remap dictionaries or materialize as needed.
    pub fn extend(&mut self, other: &Column) -> Result<()> {
        if self.dtype() != other.dtype() {
            return Err(EngineError::TypeMismatch {
                expected: self.dtype(),
                actual: other.dtype(),
                context: "extend".into(),
            });
        }
        // An empty column takes on the other's encoding: a clone when the
        // encodings differ, else just its dictionary, so that buffers
        // reserved for a known total survive the first append.
        if self.is_empty() {
            match (&mut *self, other) {
                (Column::Dict(_, dict, _), Column::Dict(_, od, _)) => *dict = Arc::clone(od),
                (a, b) if std::mem::discriminant(&*a) != std::mem::discriminant(b) => {
                    *self = other.clone();
                    return Ok(());
                }
                _ => {}
            }
        }
        if other.is_empty() {
            return Ok(());
        }
        if matches!(self, Column::Dict(..)) || matches!(other, Column::Dict(..)) {
            return self.extend_str_encoded(other);
        }
        match (self, other) {
            (Column::Bool(a, va), Column::Bool(b, vb)) => {
                a.extend_from_slice(b);
                va.extend(vb);
            }
            (Column::Int(a, va), Column::Int(b, vb)) => {
                a.extend_from_slice(b);
                va.extend(vb);
            }
            (Column::Float(a, va), Column::Float(b, vb)) => {
                a.extend_from_slice(b);
                va.extend(vb);
            }
            (Column::Str(a, va), Column::Str(b, vb)) => {
                a.extend_from_slice(b);
                va.extend(vb);
            }
            (Column::Date(a, va), Column::Date(b, vb)) => {
                a.extend_from_slice(b);
                va.extend(vb);
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// `extend` when at least one side is dictionary-encoded.
    fn extend_str_encoded(&mut self, other: &Column) -> Result<()> {
        match (&mut *self, other) {
            (Column::Dict(codes, dict, valid), Column::Dict(oc, od, ov)) => {
                if Arc::ptr_eq(dict, od) {
                    codes.extend_from_slice(oc);
                } else {
                    let (merged, map_a, map_b) = merge_dicts(dict, od);
                    for c in codes.iter_mut() {
                        *c = map_a.get(*c as usize).copied().unwrap_or(0);
                    }
                    codes.extend(
                        oc.iter()
                            .map(|&c| map_b.get(c as usize).copied().unwrap_or(0)),
                    );
                    *dict = Arc::new(merged);
                }
                valid.extend(ov);
                Ok(())
            }
            (Column::Dict(..), Column::Str(..)) => {
                let enc = other.dict_encode();
                self.extend_str_encoded(&enc)
            }
            (Column::Str(a, va), Column::Dict(oc, od, ov)) => {
                a.reserve(oc.len());
                for (i, &c) in oc.iter().enumerate() {
                    if ov.get(i) {
                        a.push(od[c as usize].clone());
                    } else {
                        a.push(String::new());
                    }
                }
                va.extend(ov);
                Ok(())
            }
            _ => unreachable!("at least one side is a dict column"),
        }
    }

    /// Cast to another type. Supported casts: numeric widening/narrowing,
    /// anything → Str (rendering), Str → numeric/date (parsing; failures
    /// become null), Date ↔ Int (days since epoch), Int/Float → Bool
    /// (nonzero).
    pub fn cast(&self, to: DataType) -> Result<Column> {
        if self.dtype() == to {
            return Ok(self.clone());
        }
        if let Column::Dict(codes, dict, b) = self {
            // Cast each distinct string once, then fan out by code.
            let casted: Vec<Value> = dict
                .iter()
                .map(|s| cast_value(&Value::Str(s.clone()), to))
                .collect();
            let mut out = Column::empty(to);
            for (i, &c) in codes.iter().enumerate() {
                if b.get(i) {
                    out.push_value(&casted[c as usize])?;
                } else {
                    out.push_value(&Value::Null)?;
                }
            }
            return Ok(out);
        }
        let n = self.len();
        let mut out = Column::empty(to);
        for i in 0..n {
            let v = self.get(i);
            let cast = cast_value(&v, to);
            out.push_value(&cast)?;
        }
        Ok(out)
    }

    /// Iterate rows as scalar values (boundary-layer convenience).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// View float data (valid for Float columns).
    pub fn as_floats(&self) -> Option<(&[f64], &Bitmap)> {
        match self {
            Column::Float(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// View int data (valid for Int columns).
    pub fn as_ints(&self) -> Option<(&[i64], &Bitmap)> {
        match self {
            Column::Int(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// View string data (valid for plain `Str` columns only; `None` for
    /// the dictionary encoding — use [`Column::str_at`] or
    /// [`Column::as_dict`] for encoding-agnostic access).
    pub fn as_strs(&self) -> Option<(&[String], &Bitmap)> {
        match self {
            Column::Str(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// View dictionary data (valid for Dict columns).
    pub fn as_dict(&self) -> Option<DictParts<'_>> {
        match self {
            Column::Dict(codes, dict, b) => Some((codes, dict, b)),
            _ => None,
        }
    }

    /// View bool data (valid for Bool columns).
    pub fn as_bools(&self) -> Option<(&[bool], &Bitmap)> {
        match self {
            Column::Bool(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// View date data (valid for Date columns).
    pub fn as_dates(&self) -> Option<(&[i32], &Bitmap)> {
        match self {
            Column::Date(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// The string at row `i` under either encoding, `None` for null rows
    /// and non-string columns. This is the encoding-agnostic accessor
    /// string kernels use instead of `as_strs`.
    #[inline]
    pub fn str_at(&self, i: usize) -> Option<&str> {
        if !self.validity().get(i) {
            return None;
        }
        match self {
            Column::Str(v, _) => Some(v[i].as_str()),
            Column::Dict(codes, dict, _) => Some(dict[codes[i] as usize].as_str()),
            _ => None,
        }
    }

    /// Dictionary-encode a plain string column: the dictionary is the
    /// sorted set of distinct valid strings, so code order equals
    /// lexicographic order. Non-string (and already-encoded) columns are
    /// returned unchanged.
    pub fn dict_encode(&self) -> Column {
        let Column::Str(v, b) = self else {
            return self.clone();
        };
        let mut uniq: Vec<&str> = Vec::with_capacity(v.len());
        for (i, s) in v.iter().enumerate() {
            if b.get(i) {
                uniq.push(s.as_str());
            }
        }
        uniq.sort_unstable();
        uniq.dedup();
        let mut code_of: FxHashMap<&str, u32> = FxHashMap::default();
        for (c, s) in uniq.iter().enumerate() {
            code_of.insert(s, c as u32);
        }
        let codes: Vec<u32> = v
            .iter()
            .enumerate()
            .map(|(i, s)| if b.get(i) { code_of[s.as_str()] } else { 0 })
            .collect();
        let dict: Vec<String> = uniq.into_iter().map(|s| s.to_string()).collect();
        Column::Dict(codes, Arc::new(dict), b.clone())
    }

    /// Late materialization: decode a dictionary column back to plain
    /// strings. Other columns are returned unchanged. This is the
    /// transparent fallback for kernels that are not dict-aware.
    pub fn materialize(&self) -> Column {
        let Column::Dict(codes, dict, b) = self else {
            return self.clone();
        };
        let mut data = Vec::with_capacity(codes.len());
        for (i, &c) in codes.iter().enumerate() {
            if b.get(i) {
                data.push(dict[c as usize].clone());
            } else {
                data.push(String::new());
            }
        }
        Column::Str(data, b.clone())
    }

    /// Heap bytes held by the dictionary itself (0 for other encodings).
    /// The storage layer uses this to charge a shared dictionary once per
    /// scan instead of once per block.
    pub fn dict_heap_bytes(&self) -> usize {
        match self {
            Column::Dict(_, dict, _) => dict.iter().map(|s| s.len() + 24).sum(),
            _ => 0,
        }
    }

    /// Numeric view of row `i`: ints widen to f64. `None` for null or
    /// non-numeric.
    #[inline]
    pub fn numeric_at(&self, i: usize) -> Option<f64> {
        if !self.validity().get(i) {
            return None;
        }
        match self {
            Column::Int(v, _) => Some(v[i] as f64),
            Column::Float(v, _) => Some(v[i]),
            Column::Date(v, _) => Some(v[i] as f64),
            _ => None,
        }
    }

    /// Approximate heap size in bytes (used by the storage layer's
    /// scan-cost meter).
    pub fn byte_size(&self) -> usize {
        let validity_bytes = self.len().div_ceil(8);
        validity_bytes
            + match self {
                Column::Bool(v, _) => v.len(),
                Column::Int(v, _) => v.len() * 8,
                Column::Float(v, _) => v.len() * 8,
                Column::Date(v, _) => v.len() * 4,
                Column::Str(v, _) => v.iter().map(|s| s.len() + 24).sum(),
                Column::Dict(codes, _, _) => codes.len() * 4 + self.dict_heap_bytes(),
            }
    }
}

/// Equality is *logical*: two columns are equal when they have the same
/// dtype, length, validity, and valid-slot values — regardless of string
/// encoding. Same-variant comparisons take fast slice paths (placeholder
/// slots are canonical, and float placeholders are 0.0, so comparing the
/// raw data preserves NaN != NaN like the old derived impl did).
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Bool(a, va), Column::Bool(b, vb)) => a == b && va == vb,
            (Column::Int(a, va), Column::Int(b, vb)) => a == b && va == vb,
            (Column::Float(a, va), Column::Float(b, vb)) => a == b && va == vb,
            (Column::Date(a, va), Column::Date(b, vb)) => a == b && va == vb,
            (Column::Str(a, va), Column::Str(b, vb)) => a == b && va == vb,
            (a, b)
                if matches!(a, Column::Str(..) | Column::Dict(..))
                    && matches!(b, Column::Str(..) | Column::Dict(..)) =>
            {
                if a.len() != b.len() || a.validity() != b.validity() {
                    return false;
                }
                if let (Some((ca, da, _)), Some((cb, db, _))) = (a.as_dict(), b.as_dict()) {
                    if Arc::ptr_eq(da, db) && ca == cb {
                        return true;
                    }
                }
                (0..a.len()).all(|i| a.str_at(i) == b.str_at(i))
            }
            _ => false,
        }
    }
}

/// Merge two sorted-unique dictionaries into one, returning the merged
/// dictionary and the old-code → new-code remap for each input.
pub(crate) fn merge_dicts(a: &[String], b: &[String]) -> (Vec<String>, Vec<u32>, Vec<u32>) {
    use std::cmp::Ordering;
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let mut map_a = Vec::with_capacity(a.len());
    let mut map_b = Vec::with_capacity(b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let ord = if i == a.len() {
            Ordering::Greater
        } else if j == b.len() {
            Ordering::Less
        } else {
            a[i].cmp(&b[j])
        };
        let code = merged.len() as u32;
        match ord {
            Ordering::Less => {
                merged.push(a[i].clone());
                map_a.push(code);
                i += 1;
            }
            Ordering::Greater => {
                merged.push(b[j].clone());
                map_b.push(code);
                j += 1;
            }
            Ordering::Equal => {
                merged.push(a[i].clone());
                map_a.push(code);
                map_b.push(code);
                i += 1;
                j += 1;
            }
        }
    }
    (merged, map_a, map_b)
}

/// Cast a scalar to a target type under the column cast rules. Failures
/// yield null rather than errors so bulk casts are total.
pub fn cast_value(v: &Value, to: DataType) -> Value {
    use DataType as T;
    match (v, to) {
        (Value::Null, _) => Value::Null,
        (v, T::Str) => Value::Str(v.render()),
        (Value::Int(x), T::Float) => Value::Float(*x as f64),
        (Value::Float(x), T::Int) => {
            if x.is_finite() {
                Value::Int(*x as i64)
            } else {
                Value::Null
            }
        }
        (Value::Int(x), T::Bool) => Value::Bool(*x != 0),
        (Value::Float(x), T::Bool) => Value::Bool(*x != 0.0),
        (Value::Bool(x), T::Int) => Value::Int(*x as i64),
        (Value::Bool(x), T::Float) => Value::Float(*x as i64 as f64),
        (Value::Date(x), T::Int) => Value::Int(*x as i64),
        (Value::Date(x), T::Float) => Value::Float(*x as f64),
        (Value::Int(x), T::Date) => i32::try_from(*x).map(Value::Date).unwrap_or(Value::Null),
        (Value::Str(s), T::Int) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or(Value::Null),
        (Value::Str(s), T::Float) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or(Value::Null),
        (Value::Str(s), T::Bool) => match s.trim().to_ascii_lowercase().as_str() {
            "true" | "1" | "yes" => Value::Bool(true),
            "false" | "0" | "no" => Value::Bool(false),
            _ => Value::Null,
        },
        (Value::Str(s), T::Date) => crate::date::parse_date(s)
            .map(Value::Date)
            .unwrap_or(Value::Null),
        (v, t) if v.dtype() == Some(t) => v.clone(),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_opt_ints_nulls() {
        let c = Column::from_opt_ints(vec![Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
    }

    #[test]
    fn from_values_infers_type() {
        let c = Column::from_values(&[Value::Null, Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn from_values_widens_int_to_float() {
        let c = Column::from_values(&[Value::Int(1), Value::Float(2.5)]).unwrap();
        assert_eq!(c.dtype(), DataType::Float);
        assert_eq!(c.get(0), Value::Float(1.0));
    }

    #[test]
    fn from_values_rejects_mixed() {
        assert!(Column::from_values(&[Value::Int(1), Value::Str("a".into())]).is_err());
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::from_strs(vec!["a", "b", "c"]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.get(0), Value::Str("c".into()));
        assert_eq!(t.get(1), Value::Str("a".into()));
        assert_eq!(t.get(2), Value::Str("a".into()));
    }

    #[test]
    fn slice_clamps() {
        let c = Column::from_ints(vec![1, 2, 3]);
        let s = c.slice(2, 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Value::Int(3));
    }

    #[test]
    fn extend_same_type() {
        let mut a = Column::from_ints(vec![1]);
        let b = Column::from_opt_ints(vec![None, Some(2)]);
        a.extend(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.null_count(), 1);
    }

    #[test]
    fn extend_type_mismatch() {
        let mut a = Column::from_ints(vec![1]);
        let b = Column::from_strs(vec!["x"]);
        assert!(a.extend(&b).is_err());
    }

    #[test]
    fn cast_str_to_int_with_failures() {
        let c = Column::from_strs(vec!["1", "x", " 3 "]);
        let out = c.cast(DataType::Int).unwrap();
        assert_eq!(out.get(0), Value::Int(1));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::Int(3));
    }

    #[test]
    fn cast_date_roundtrip_via_int() {
        let c = Column::from_dates(vec![0, 100]);
        let ints = c.cast(DataType::Int).unwrap();
        let back = ints.cast(DataType::Date).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn cast_anything_to_str_renders() {
        let c = Column::from_opt_floats(vec![Some(2.0), None]);
        let s = c.cast(DataType::Str).unwrap();
        assert_eq!(s.get(0), Value::Str("2.0".into()));
        assert_eq!(s.get(1), Value::Null);
    }

    #[test]
    fn numeric_at_widens() {
        let c = Column::from_ints(vec![7]);
        assert_eq!(c.numeric_at(0), Some(7.0));
        let c = Column::from_opt_floats(vec![None]);
        assert_eq!(c.numeric_at(0), None);
    }

    #[test]
    fn push_value_int_into_float() {
        let mut c = Column::empty(DataType::Float);
        c.push_value(&Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    fn byte_size_scales() {
        let small = Column::from_ints(vec![1; 10]);
        let big = Column::from_ints(vec![1; 1000]);
        assert!(big.byte_size() > small.byte_size() * 50);
    }

    fn sample_strs() -> Column {
        Column::from_opt_strs(vec![
            Some("west".into()),
            None,
            Some("east".into()),
            Some("west".into()),
            Some("".into()),
        ])
    }

    #[test]
    fn dict_roundtrip_is_logical_identity() {
        let plain = sample_strs();
        let dict = plain.dict_encode();
        assert_eq!(dict.dtype(), DataType::Str);
        let (codes, d, _) = dict.as_dict().unwrap();
        // Sorted-unique dictionary: "" < "east" < "west".
        assert_eq!(d.as_slice(), &["", "east", "west"]);
        assert_eq!(codes, &[2, 0, 1, 2, 0]);
        assert_eq!(dict.materialize(), plain);
        // Logical equality holds across encodings, both directions.
        assert_eq!(dict, plain);
        assert_eq!(plain, dict);
    }

    #[test]
    fn dict_encode_all_null_has_empty_dictionary() {
        let plain = Column::from_opt_strs(vec![None, None]);
        let dict = plain.dict_encode();
        let (_, d, _) = dict.as_dict().unwrap();
        assert!(d.is_empty());
        assert_eq!(dict.get(0), Value::Null);
        assert_eq!(dict.materialize(), plain);
    }

    #[test]
    fn dict_take_shares_dictionary() {
        let dict = sample_strs().dict_encode();
        let taken = dict.take(&[4, 1, 0]);
        let (_, d0, _) = dict.as_dict().unwrap();
        let (_, d1, _) = taken.as_dict().unwrap();
        assert!(Arc::ptr_eq(d0, d1));
        assert_eq!(taken.get(0), Value::Str("".into()));
        assert_eq!(taken.get(1), Value::Null);
        assert_eq!(taken.get(2), Value::Str("west".into()));
    }

    #[test]
    fn dict_take_opt_and_slice_share_dictionary() {
        let dict = sample_strs().dict_encode();
        let (_, d0, _) = dict.as_dict().unwrap();
        let opt = dict.take_opt(&[Some(0), None, Some(2)]);
        let (_, d1, _) = opt.as_dict().unwrap();
        assert!(Arc::ptr_eq(d0, d1));
        assert_eq!(opt.get(1), Value::Null);
        let sl = dict.slice(1, 3);
        let (_, d2, _) = sl.as_dict().unwrap();
        assert!(Arc::ptr_eq(d0, d2));
        assert_eq!(sl.materialize(), sample_strs().slice(1, 3));
    }

    #[test]
    fn dict_push_known_string_keeps_encoding() {
        let mut dict = sample_strs().dict_encode();
        dict.push_value(&Value::Str("east".into())).unwrap();
        dict.push_value(&Value::Null).unwrap();
        assert!(dict.as_dict().is_some());
        assert_eq!(dict.get(5), Value::Str("east".into()));
        assert_eq!(dict.get(6), Value::Null);
    }

    #[test]
    fn dict_push_unknown_string_falls_back_to_plain() {
        let mut dict = sample_strs().dict_encode();
        dict.push_value(&Value::Str("north".into())).unwrap();
        assert!(dict.as_strs().is_some());
        assert_eq!(dict.get(5), Value::Str("north".into()));
        // The earlier rows survive materialization.
        assert_eq!(dict.get(0), Value::Str("west".into()));
        assert_eq!(dict.get(1), Value::Null);
    }

    #[test]
    fn dict_push_wrong_type_errors() {
        let mut dict = sample_strs().dict_encode();
        assert!(dict.push_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn dict_extend_merges_dictionaries() {
        let mut a = Column::from_strs(vec!["b", "a"]).dict_encode();
        let b = Column::from_opt_strs(vec![Some("c".into()), None, Some("a".into())]).dict_encode();
        a.extend(&b).unwrap();
        let (codes, d, _) = a.as_dict().unwrap();
        assert_eq!(d.as_slice(), &["a", "b", "c"]);
        assert_eq!(codes[..2], [1, 0]);
        assert_eq!(a.get(2), Value::Str("c".into()));
        assert_eq!(a.get(3), Value::Null);
        assert_eq!(a.get(4), Value::Str("a".into()));
    }

    #[test]
    fn dict_extend_mixed_encodings() {
        // Dict += Str encodes the right side and merges.
        let mut a = Column::from_strs(vec!["x"]).dict_encode();
        a.extend(&Column::from_strs(vec!["y"])).unwrap();
        assert!(a.as_dict().is_some());
        assert_eq!(a.get(1), Value::Str("y".into()));
        // Str += Dict decodes the right side.
        let mut p = Column::from_strs(vec!["x"]);
        p.extend(&Column::from_strs(vec!["y"]).dict_encode())
            .unwrap();
        assert!(p.as_strs().is_some());
        assert_eq!(p.get(1), Value::Str("y".into()));
        // Empty += Dict adopts the encoding.
        let mut e = Column::empty(DataType::Str);
        e.extend(&Column::from_strs(vec!["z"]).dict_encode())
            .unwrap();
        assert!(e.as_dict().is_some());
    }

    #[test]
    fn dict_cast_casts_each_distinct_once() {
        let c = Column::from_opt_strs(vec![Some("1".into()), Some("x".into()), None]).dict_encode();
        let out = c.cast(DataType::Int).unwrap();
        assert_eq!(out.get(0), Value::Int(1));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::Null);
        // Same-dtype cast keeps the encoding.
        assert!(c.cast(DataType::Str).unwrap().as_dict().is_some());
    }

    #[test]
    fn dict_byte_size_beats_plain_for_repeated_strings() {
        let plain = Column::from_strs(vec!["a-reasonably-long-category"; 1000]);
        let dict = plain.dict_encode();
        assert!(dict.byte_size() * 5 < plain.byte_size());
        assert!(dict.dict_heap_bytes() > 0);
        assert_eq!(plain.dict_heap_bytes(), 0);
    }

    #[test]
    fn str_at_is_encoding_agnostic() {
        let plain = sample_strs();
        let dict = plain.dict_encode();
        for i in 0..plain.len() {
            assert_eq!(plain.str_at(i), dict.str_at(i));
        }
        assert_eq!(Column::from_ints(vec![1]).str_at(0), None);
    }
}
