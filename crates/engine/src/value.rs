//! Scalar values.

use std::cmp::Ordering;
use std::fmt;

use crate::date::format_date;
use crate::dtype::DataType;

/// A single scalar value, possibly null.
///
/// `Value` is the boundary type between the typed columnar kernels and the
/// untyped user-facing layers (GEL literals, skill parameters, cell reads).
/// Hot loops never materialize `Value`s; they operate on typed column
/// slices directly.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style NULL: absent / unknown.
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// The data type of this value, or `None` for null.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Whether this value is null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for non-numeric or null.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view; `None` for anything but `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String view; `None` for anything but `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view; `None` for anything but `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is null
    /// or the types are incomparable.
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// Equality under SQL semantics: null equals nothing (returns `None`).
    pub fn eq_sql(&self, other: &Value) -> Option<bool> {
        self.partial_cmp_sql(other).map(|o| o == Ordering::Equal)
    }

    /// Total ordering used for sorting and group keys: nulls sort first,
    /// then by type tag, then by value. NaN sorts after all other floats.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Float(_) => 2, // ints and floats interleave numerically
                Date(_) => 3,
                Str(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Float(b)) => cmp_f64_total(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64_total(*a, *b as f64),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_f64_total(*a, *b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Render for display in spreadsheet cells and GEL output. Nulls render
    /// as the literal string `null`, matching the paper's UI screenshots.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Date(d) => format_date(*d),
        }
    }
}

pub(crate) fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    // NaN compares greater than everything so sorts last.
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).unwrap(),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_in_sql_compare() {
        assert_eq!(Value::Null.eq_sql(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).eq_sql(&Value::Null), None);
        assert_eq!(Value::Null.eq_sql(&Value::Null), None);
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Value::Int(2).eq_sql(&Value::Float(2.0)), Some(true));
        assert_eq!(
            Value::Float(1.5).partial_cmp_sql(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Value::Str("a".into()).eq_sql(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_nulls_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.cmp_total(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn total_order_nan_last() {
        let mut vals = [Value::Float(f64::NAN), Value::Float(1.0), Value::Int(5)];
        vals.sort_by(|a, b| a.cmp_total(b));
        assert_eq!(vals[0], Value::Float(1.0));
        assert_eq!(vals[1], Value::Int(5));
        assert!(matches!(vals[2], Value::Float(v) if v.is_nan()));
    }

    #[test]
    fn render_matches_ui() {
        assert_eq!(Value::Null.render(), "null");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Date(0).render(), "1970-01-01");
    }

    #[test]
    fn from_option() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }
}
