//! Static expression typing: the dtype of the column [`crate::eval::eval`]
//! makes from an expression over a table of a given schema, decided from
//! the schema alone.
//!
//! This is the one typer. The skill contracts in `dc-skills` call it (and
//! through them the analyzer and the optimizer), and `eval` itself
//! `debug_assert!`s every column it returns against it. Every rejection
//! here is a rejection there. A type that depends on something the schema
//! cannot show is [`ExprTy::Unknown`]; an unknown operand never produces a
//! finding of its own, and every finding the walk meets is reported, not
//! just the first.

use crate::dtype::DataType;
use crate::expr::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::schema::Schema;

/// A statically inferred expression type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprTy {
    Known(DataType),
    Unknown,
}
use ExprTy::{Known, Unknown};

/// What a [`TypeFinding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeProblem {
    /// A column the schema does not have.
    UnknownColumn,
    /// An operand or argument of a type the operation rejects.
    Mismatch,
    /// A function called with a number of arguments outside its arity.
    Arity,
}

/// One reason `eval` would reject an expression over the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeFinding {
    pub problem: TypeProblem,
    pub message: String,
}

impl TypeFinding {
    /// `name` is not a column of `schema` (whose columns the message lists).
    pub fn unknown_column(schema: &Schema, name: &str) -> TypeFinding {
        let have = schema.names().join(", ");
        TypeFinding {
            problem: TypeProblem::UnknownColumn,
            message: format!("unknown column {name:?} (have: {have})"),
        }
    }

    fn mismatch(message: String) -> TypeFinding {
        TypeFinding {
            problem: TypeProblem::Mismatch,
            message,
        }
    }
}

/// The dtype `eval` gives `expr` over a table with `schema`, pushing a
/// finding for every reason it would fail there. Column lookups are
/// case-insensitive, like the engine's.
pub fn dtype_of(expr: &Expr, schema: &Schema, findings: &mut Vec<TypeFinding>) -> ExprTy {
    use DataType as T;
    match expr {
        Expr::Column(name) => match schema.field(name) {
            Some(f) => Known(f.dtype),
            None => {
                findings.push(TypeFinding::unknown_column(schema, name));
                Unknown
            }
        },
        // A null literal broadcasts as a column of `NULL_LITERAL` nulls.
        Expr::Literal(v) => Known(v.dtype().unwrap_or(crate::eval::NULL_LITERAL)),
        Expr::Binary { left, op, right } => {
            let l = dtype_of(left, schema, findings);
            let r = dtype_of(right, schema, findings);
            if op.is_logical() {
                for dt in [l, r]
                    .into_iter()
                    .filter_map(known)
                    .filter(|&t| t != T::Bool)
                {
                    let message = format!("logical operand must be Bool, not {dt}");
                    findings.push(TypeFinding::mismatch(message));
                }
                Known(T::Bool)
            } else if op.is_comparison() {
                if let (Known(a), Known(b)) = (l, r) {
                    if !comparable(a, b) {
                        let message = format!("cannot compare {a} with {b}");
                        findings.push(TypeFinding::mismatch(message));
                    }
                }
                Known(T::Bool)
            } else {
                let (Known(a), Known(b)) = (l, r) else {
                    return Unknown;
                };
                match (a, b) {
                    (T::Int, T::Int) if *op != BinaryOp::Div => Known(T::Int),
                    (T::Date, T::Int) if matches!(op, BinaryOp::Add | BinaryOp::Sub) => {
                        Known(T::Date)
                    }
                    (T::Date, T::Date) if *op == BinaryOp::Sub => Known(T::Int),
                    (T::Str, T::Str) if *op == BinaryOp::Add => Known(T::Str),
                    (a, b) if a.is_numeric() && b.is_numeric() => Known(T::Float),
                    (a, b) => {
                        let op = op.sql();
                        let message = format!("arithmetic {op:?} not defined for {a} and {b}");
                        findings.push(TypeFinding::mismatch(message));
                        Unknown
                    }
                }
            }
        }
        Expr::Unary { op, expr } => match (op, dtype_of(expr, schema, findings)) {
            (UnaryOp::Not, t) => {
                if let Some(dt) = known(t).filter(|&dt| dt != T::Bool) {
                    let message = format!("NOT operand must be Bool, not {dt}");
                    findings.push(TypeFinding::mismatch(message));
                }
                Known(T::Bool)
            }
            (UnaryOp::Neg, Known(dt)) if !dt.is_numeric() => {
                findings.push(TypeFinding::mismatch(format!("cannot negate a {dt} value")));
                Unknown
            }
            (UnaryOp::Neg, t) => t,
        },
        Expr::Func { func, args } => {
            let (min, max) = func.arity();
            if args.len() < min || args.len() > max {
                let max = match max {
                    usize::MAX => "unbounded".to_string(),
                    max => max.to_string(),
                };
                findings.push(TypeFinding {
                    problem: TypeProblem::Arity,
                    message: format!(
                        "{} expects between {min} and {max} arguments, got {}",
                        func.name(),
                        args.len()
                    ),
                });
                return Unknown;
            }
            let tys: Vec<ExprTy> = args.iter().map(|a| dtype_of(a, schema, findings)).collect();
            func_dtype(*func, &tys, findings)
        }
        Expr::Cast { expr, to } => {
            dtype_of(expr, schema, findings);
            Known(*to)
        }
        // Membership compares by SQL value equality: mismatched types never
        // match, they do not error.
        Expr::IsNull(e) | Expr::IsNotNull(e) | Expr::InList { expr: e, .. } => {
            dtype_of(e, schema, findings);
            Known(T::Bool)
        }
        // `eval` desugars to `expr >= low AND expr <= high`.
        Expr::Between {
            expr, low, high, ..
        } => {
            let e = dtype_of(expr, schema, findings);
            for bound in [low, high] {
                let b = dtype_of(bound, schema, findings);
                if let (Known(a), Known(b)) = (e, b) {
                    if !comparable(a, b) {
                        let message = format!("cannot compare {a} with {b}");
                        findings.push(TypeFinding::mismatch(message));
                    }
                }
            }
            Known(T::Bool)
        }
    }
}

/// Whether `eval` compares values of these two types.
fn comparable(a: DataType, b: DataType) -> bool {
    a.unify(b).is_some() || (a.is_numeric() && b.is_numeric())
}

fn known(t: ExprTy) -> Option<DataType> {
    match t {
        Known(dt) => Some(dt),
        Unknown => None,
    }
}

/// A scalar function's result type from its argument types (arity
/// already checked).
fn func_dtype(func: ScalarFunc, tys: &[ExprTy], findings: &mut Vec<TypeFinding>) -> ExprTy {
    use DataType as T;
    use ScalarFunc::*;
    let mut mismatch = |want: &str, got: DataType| {
        let message = format!("{} requires {want}, got {got}", func.name());
        findings.push(TypeFinding::mismatch(message));
    };
    // The first argument of `tys` that is known and fails `ok`.
    let first_bad = |tys: &[ExprTy], ok: fn(DataType) -> bool| {
        tys.iter().filter_map(|&t| known(t)).find(|&dt| !ok(dt))
    };
    let numeric: fn(DataType) -> bool = |dt| dt.is_numeric();
    let stringy: fn(DataType) -> bool = |dt| dt == T::Str;
    match func {
        Abs | Ceil | Floor | Sqrt | Ln | Exp | Round => {
            if let Some(dt) = first_bad(&tys[..1], numeric) {
                mismatch("a numeric argument", dt);
                return Unknown;
            }
            if let Some(dt) = first_bad(&tys[1..], |dt| dt == T::Int) {
                mismatch("constant Int digits", dt);
            }
            // Abs preserves integer-ness; the rest produce floats.
            if func == Abs {
                tys[0]
            } else {
                Known(T::Float)
            }
        }
        Pow | Bin => {
            if let Some(dt) = first_bad(tys, numeric) {
                mismatch("numeric arguments", dt);
                return Unknown;
            }
            match (func, tys[0], tys[1]) {
                (Pow, _, _) => Known(T::Float),
                // bin(Int, Int) stays Int; anything else goes float.
                (_, Known(T::Int), Known(T::Int)) => Known(T::Int),
                (_, Known(_), Known(_)) => Known(T::Float),
                _ => Unknown,
            }
        }
        Lower | Upper | Trim | Length => {
            if let Some(dt) = first_bad(&tys[..1], stringy) {
                mismatch("a Str argument", dt);
                return Unknown;
            }
            Known(if func == Length { T::Int } else { T::Str })
        }
        Concat => Known(T::Str),
        Contains | StartsWith | EndsWith | Replace => {
            let n = if func == Replace { 3 } else { 2 };
            for dt in tys[..n]
                .iter()
                .filter_map(|&t| known(t))
                .filter(|&t| t != T::Str)
            {
                mismatch("Str arguments", dt);
            }
            Known(if func == Replace { T::Str } else { T::Bool })
        }
        Substring => {
            if let Some(dt) = first_bad(&tys[..1], stringy) {
                mismatch("a Str argument", dt);
            }
            for dt in tys[1..3]
                .iter()
                .filter_map(|&t| known(t))
                .filter(|&t| t != T::Int)
            {
                mismatch("constant Int bounds", dt);
            }
            Known(T::Str)
        }
        Year | Month | Day => {
            if let Some(dt) = first_bad(&tys[..1], |dt| dt == T::Date) {
                mismatch("a Date argument", dt);
                return Unknown;
            }
            Known(T::Int)
        }
        // Runtime coalesce takes the first dtype and null-casts stragglers
        // it cannot unify with, so a mixed list is lossy but legal.
        Coalesce => tys
            .iter()
            .map(|&t| known(t))
            .reduce(|acc, t| Some(acc?.unify(t?).unwrap_or(acc?)))
            .flatten()
            .map_or(Unknown, Known),
        If => {
            if let Some(dt) = first_bad(&tys[..1], |dt| dt == T::Bool) {
                mismatch("a Bool condition", dt);
            }
            let (Known(a), Known(b)) = (tys[1], tys[2]) else {
                return Unknown;
            };
            match a.unify(b) {
                Some(dt) => Known(dt),
                None => {
                    let message = format!("if branches have incompatible types {a} and {b}");
                    findings.push(TypeFinding::mismatch(message));
                    Unknown
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Date),
            Field::new("b", DataType::Bool),
        ])
        .unwrap()
    }

    fn ty(e: &Expr) -> (ExprTy, Vec<TypeProblem>) {
        let mut findings = Vec::new();
        let t = dtype_of(e, &schema(), &mut findings);
        (t, findings.into_iter().map(|f| f.problem).collect())
    }

    #[test]
    fn arithmetic_follows_eval() {
        use DataType as T;
        let (i, f, s, d) = (
            Expr::col("i"),
            Expr::col("f"),
            Expr::col("s"),
            Expr::col("d"),
        );
        assert_eq!(ty(&i.clone().add(i.clone())).0, Known(T::Int));
        assert_eq!(ty(&i.clone().div(i.clone())).0, Known(T::Float));
        assert_eq!(ty(&i.clone().mul(f.clone())).0, Known(T::Float));
        assert_eq!(ty(&d.clone().add(i.clone())).0, Known(T::Date));
        assert_eq!(ty(&d.clone().sub(d.clone())).0, Known(T::Int));
        assert_eq!(ty(&s.clone().add(s.clone())).0, Known(T::Str));
        assert_eq!(ty(&s.add(f)), (Unknown, vec![TypeProblem::Mismatch]));
    }

    #[test]
    fn a_null_literal_is_a_str_column() {
        let null = || Expr::Literal(Value::Null);
        assert_eq!(ty(&null()).0, Known(DataType::Str));
        let (_, problems) = ty(&Expr::col("f").gt(null()));
        assert_eq!(problems, vec![TypeProblem::Mismatch]);
        let (_, problems) = ty(&Expr::col("f").between(null(), Expr::lit(5i64)));
        assert_eq!(problems, vec![TypeProblem::Mismatch]);
        assert_eq!(
            ty(&Expr::col("f").add(null())),
            (Unknown, vec![TypeProblem::Mismatch])
        );
        // Coalescing with a null keeps the column's type, as `eval` does.
        let fill = Expr::func(ScalarFunc::Coalesce, vec![Expr::col("f"), null()]);
        assert_eq!(ty(&fill), (Known(DataType::Float), vec![]));
        // Comparing a Str column with null is fine.
        assert_eq!(ty(&Expr::col("s").eq(null())).1, vec![]);
    }

    #[test]
    fn every_finding_is_reported() {
        let e = Expr::col("ghost")
            .gt(Expr::lit(1i64))
            .and(Expr::col("s").gt(Expr::lit(1i64)))
            .and(Expr::func(ScalarFunc::Sqrt, vec![]));
        let (_, problems) = ty(&e);
        assert_eq!(
            problems,
            vec![
                TypeProblem::UnknownColumn,
                TypeProblem::Mismatch,
                TypeProblem::Arity
            ]
        );
    }

    #[test]
    fn functions() {
        use DataType as T;
        let f = |func, args| ty(&Expr::func(func, args));
        assert_eq!(f(ScalarFunc::Abs, vec![Expr::col("i")]).0, Known(T::Int));
        assert_eq!(
            f(ScalarFunc::Round, vec![Expr::col("i")]).0,
            Known(T::Float)
        );
        let bin = vec![Expr::col("i"), Expr::lit(5i64)];
        assert_eq!(f(ScalarFunc::Bin, bin).0, Known(T::Int));
        assert_eq!(f(ScalarFunc::Year, vec![Expr::col("d")]).0, Known(T::Int));
        assert_eq!(
            f(ScalarFunc::Year, vec![Expr::col("s")]),
            (Unknown, vec![TypeProblem::Mismatch])
        );
        let branches = vec![Expr::col("b"), Expr::col("s"), Expr::col("f")];
        assert_eq!(
            f(ScalarFunc::If, branches),
            (Unknown, vec![TypeProblem::Mismatch])
        );
        let mixed = vec![Expr::col("i"), Expr::col("f"), Expr::col("s")];
        assert_eq!(f(ScalarFunc::Coalesce, mixed).0, Known(T::Float));
    }
}
