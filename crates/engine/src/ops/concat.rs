//! Dataset concatenation (the GEL `Concatenate the datasets ...` skill).

use crate::column::Column;
use crate::error::Result;
use crate::table::Table;

use super::distinct::distinct;

/// Concatenate tables top-to-bottom. Schemas must agree in names and
/// order; int columns unify with float columns by widening. With
/// `remove_duplicates` (the recipe in Figure 2 says "remove all
/// duplicates"), exact duplicate rows are dropped, keeping first
/// occurrences.
pub fn concat(tables: &[&Table], remove_duplicates: bool) -> Result<Table> {
    let out = match tables {
        [] => return Ok(Table::empty()),
        // A lone part is its own concatenation: shared, not copied.
        [only] => (*only).clone(),
        [first, rest @ ..] => {
            let mut schema = first.schema().clone();
            for t in rest {
                schema = schema.concat_compatible(t.schema())?;
            }
            // One accumulator per column, allocated once at the total and
            // extended in place across all inputs — linear in total rows.
            // (Rebuilding the accumulated table per input would copy
            // everything already gathered each time, i.e. quadratic in the
            // number of parts; block scans concatenate hundreds of parts,
            // where that collapse matters.) Only a part whose dtype differs
            // from the unified one is cast first.
            let total: usize = tables.iter().map(|t| t.num_rows()).sum();
            let mut out = Table::empty();
            for field in schema.fields() {
                let name = &field.name;
                // Start from the first part's encoding, so dictionary codes
                // stay codes and the reservation survives the first append.
                let head = first.column(name)?;
                let mut acc = match head.dtype() == field.dtype {
                    true => head.slice(0, 0),
                    false => Column::empty(field.dtype),
                };
                acc.reserve(total);
                for t in tables {
                    let part = t.column(name)?;
                    if part.dtype() == field.dtype {
                        acc.extend(part)?;
                    } else {
                        acc.extend(&part.cast(field.dtype)?)?;
                    }
                }
                out.add_column(name, acc)?;
            }
            out
        }
    };
    if remove_duplicates {
        distinct(&out, &[])
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dtype::DataType;
    use crate::value::Value;

    fn a() -> Table {
        Table::new(vec![
            ("x", Column::from_ints(vec![1, 2])),
            ("y", Column::from_strs(vec!["p", "q"])),
        ])
        .unwrap()
    }

    fn b() -> Table {
        Table::new(vec![
            ("x", Column::from_ints(vec![2, 3])),
            ("y", Column::from_strs(vec!["q", "r"])),
        ])
        .unwrap()
    }

    #[test]
    fn concat_stacks_rows() {
        let out = concat(&[&a(), &b()], false).unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.value(2, "x").unwrap(), Value::Int(2));
    }

    #[test]
    fn concat_removes_duplicates() {
        // Figure 2 step 8: "Concatenate ... remove all duplicates".
        let out = concat(&[&a(), &b()], true).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn concat_widens_int_to_float() {
        let c = Table::new(vec![
            ("x", Column::from_floats(vec![4.5])),
            ("y", Column::from_strs(vec!["s"])),
        ])
        .unwrap();
        let out = concat(&[&a(), &c], false).unwrap();
        assert_eq!(out.column("x").unwrap().dtype(), DataType::Float);
        assert_eq!(out.value(0, "x").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn concat_rejects_mismatched_schema() {
        let c = Table::new(vec![("z", Column::from_ints(vec![1]))]).unwrap();
        assert!(concat(&[&a(), &c], false).is_err());
    }

    #[test]
    fn concat_empty_list() {
        let out = concat(&[], false).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn concat_single_identity() {
        let out = concat(&[&a()], false).unwrap();
        assert_eq!(out, a());
    }
}
