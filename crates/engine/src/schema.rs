//! Schemas: ordered, named, typed fields.

use std::fmt;

use crate::dtype::DataType;
use crate::error::{EngineError, Result};

/// A named, typed field in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.dtype)
    }
}

/// An ordered collection of fields. Column names are unique and matched
/// case-insensitively on lookup (GEL users type `Party_Sobriety` and
/// `party_sobriety` interchangeably) while preserving declared casing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// An empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Build from fields, rejecting duplicate names (case-insensitive).
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut s = Schema::empty();
        for f in fields {
            s.push(f)?;
        }
        Ok(s)
    }

    /// Append a field, rejecting duplicates.
    pub fn push(&mut self, field: Field) -> Result<()> {
        if self.index_of(&field.name).is_some() {
            return Err(EngineError::DuplicateColumn { name: field.name });
        }
        self.fields.push(field);
        Ok(())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Column names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Field by case-insensitive name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field by name, erroring when absent.
    pub fn field_or_err(&self, name: &str) -> Result<&Field> {
        self.field(name)
            .ok_or_else(|| EngineError::column_not_found(name))
    }

    /// Field at position `i`.
    pub fn field_at(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// The schema with a column `name` of type `dtype`: a same-named
    /// (case-insensitively) column is retyped in place, keeping its
    /// casing, and any other name is appended — what
    /// [`Table::with_column`](crate::table::Table::with_column) makes.
    pub fn with_field(&self, name: &str, dtype: DataType) -> Schema {
        let mut fields = self.fields.clone();
        match self.index_of(name) {
            Some(i) => fields[i].dtype = dtype,
            None => fields.push(Field::new(name, dtype)),
        }
        Schema { fields }
    }

    /// Whether two schemas are compatible for concatenation: same names
    /// (case-insensitive, same order) and unifiable types.
    pub fn concat_compatible(&self, other: &Schema) -> Result<Schema> {
        if self.len() != other.len() {
            return Err(EngineError::schema_mismatch(format!(
                "column count differs: {} vs {}",
                self.len(),
                other.len()
            )));
        }
        let mut out = Schema::empty();
        for (a, b) in self.fields.iter().zip(other.fields.iter()) {
            if !a.name.eq_ignore_ascii_case(&b.name) {
                return Err(EngineError::schema_mismatch(format!(
                    "column name differs: {} vs {}",
                    a.name, b.name
                )));
            }
            let dtype = a.dtype.unify(b.dtype).ok_or_else(|| {
                EngineError::schema_mismatch(format!(
                    "column {} has incompatible types {} vs {}",
                    a.name, a.dtype, b.dtype
                ))
            })?;
            out.push(Field::new(a.name.clone(), dtype))?;
        }
        Ok(out)
    }

    /// Generate a column name not already present, based on `base`
    /// (`base`, `base_2`, `base_3`, ...). Used by skills that create
    /// computed columns when the user supplies no name.
    pub fn fresh_name(&self, base: &str) -> String {
        if self.index_of(base).is_none() {
            return base.to_string();
        }
        let mut i = 2usize;
        loop {
            let candidate = format!("{base}_{i}");
            if self.index_of(&candidate).is_none() {
                return candidate;
            }
            i += 1;
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("party_type", DataType::Str),
            Field::new("at_fault", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("PARTY_TYPE"), Some(1));
        assert_eq!(s.field("At_Fault").unwrap().dtype, DataType::Bool);
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn rejects_duplicates() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("A", DataType::Str),
        ]);
        assert!(matches!(r, Err(EngineError::DuplicateColumn { .. })));
    }

    #[test]
    fn concat_compatible_unifies() {
        let a = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let b = Schema::new(vec![Field::new("X", DataType::Float)]).unwrap();
        let u = a.concat_compatible(&b).unwrap();
        assert_eq!(u.field_at(0).dtype, DataType::Float);
    }

    #[test]
    fn concat_incompatible() {
        let a = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let b = Schema::new(vec![Field::new("y", DataType::Int)]).unwrap();
        assert!(a.concat_compatible(&b).is_err());
        let c = Schema::new(vec![Field::new("x", DataType::Str)]).unwrap();
        assert!(a.concat_compatible(&c).is_err());
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let s = sample();
        assert_eq!(s.fresh_name("new_col"), "new_col");
        assert_eq!(s.fresh_name("id"), "id_2");
    }

    #[test]
    fn display_format() {
        let s = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        assert_eq!(s.to_string(), "(x: Int)");
    }
}
