//! Vectorized expression evaluation.
//!
//! Null semantics follow SQL throughout: arithmetic and comparisons
//! propagate null, `AND`/`OR` use Kleene three-valued logic, and
//! `IS NULL` / `COALESCE` are the only constructs that observe nullness
//! directly.

use std::borrow::Cow;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::date::{days_from_ymd, ymd_from_days};
use crate::dtype::DataType;
use crate::error::{EngineError, Result};
use crate::expr::{dtype_of, BinaryOp, Expr, ExprTy, ScalarFunc, UnaryOp};
use crate::table::Table;
use crate::value::Value;

/// Evaluate an expression against a table, producing a column with one row
/// per table row. Literals broadcast to the table's length.
///
/// A table of more than one row morsel (see [`crate::parallel`]) evaluates
/// its morsels concurrently and stitches them back in order; the result is
/// bit-identical to [`eval_serial`] over the whole table because every
/// expression kernel is row-local.
///
/// The column's dtype is the one [`dtype_of`] declares from the table's
/// schema whenever that is known (checked in debug builds).
pub fn eval(table: &Table, expr: &Expr) -> Result<Column> {
    let ranges = crate::parallel::morsels(table.num_rows());
    let out = if ranges.len() > 1 && morsel_safe(expr) {
        eval_morsel(table, expr, &ranges)
    } else {
        eval_serial(table, expr)
    };
    if let (true, Ok(col)) = (cfg!(debug_assertions), &out) {
        if let ExprTy::Known(dt) = dtype_of(expr, table.schema(), &mut Vec::new()) {
            debug_assert_eq!(col.dtype(), dt, "eval of {expr} disagrees with dtype_of");
        }
    }
    out
}

/// The dtype a null literal broadcasts as.
pub(crate) const NULL_LITERAL: DataType = DataType::Str;

/// Serial expression evaluation (also the per-morsel worker body).
pub fn eval_serial(table: &Table, expr: &Expr) -> Result<Column> {
    eval_ref(table, expr).map(Cow::into_owned)
}

/// [`eval_serial`], except that a bare column reference borrows the
/// table's column: operators only read their operands, so `price * qty`
/// allocates its result and nothing else.
fn eval_ref<'t>(table: &'t Table, expr: &Expr) -> Result<Cow<'t, Column>> {
    let n = table.num_rows();
    let computed = match expr {
        Expr::Column(name) => return Ok(Cow::Borrowed(table.column(name)?)),
        Expr::Literal(v) => broadcast(v, n),
        Expr::Binary { left, op, right } => {
            let l = eval_ref(table, left)?;
            let r = eval_ref(table, right)?;
            if op.is_logical() {
                eval_logical(&l, *op, &r)?
            } else if op.is_comparison() {
                eval_comparison(&l, *op, &r)?
            } else {
                eval_arith(&l, *op, &r)?
            }
        }
        Expr::Unary { op, expr } => {
            let c = eval_ref(table, expr)?;
            match op {
                UnaryOp::Not => eval_not(&c)?,
                UnaryOp::Neg => eval_neg(&c)?,
            }
        }
        Expr::Func { func, args } => {
            let (min, max) = func.arity();
            if args.len() < min || args.len() > max {
                return Err(EngineError::eval(format!(
                    "{} expects between {min} and {} arguments, got {}",
                    func.name(),
                    if max == usize::MAX {
                        "unbounded".to_string()
                    } else {
                        max.to_string()
                    },
                    args.len()
                )));
            }
            let cols: Vec<Cow<'t, Column>> = args
                .iter()
                .map(|a| eval_ref(table, a))
                .collect::<Result<_>>()?;
            let cols: Vec<&Column> = cols.iter().map(|c| &**c).collect();
            eval_func(*func, &cols, n)?
        }
        Expr::Cast { expr, to } => eval_ref(table, expr)?.cast(*to)?,
        Expr::IsNull(e) => {
            let c = eval_ref(table, e)?;
            Column::from_bools(c.validity().iter().map(|v| !v).collect())
        }
        Expr::IsNotNull(e) => {
            let c = eval_ref(table, e)?;
            Column::from_bools(c.validity().iter().collect())
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let c = eval_ref(table, expr)?;
            let list_has_null = list.iter().any(|v| v.is_null());
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            if let Some((codes, dict, cv)) = c.as_dict() {
                // Test membership once per distinct string, then fan the
                // verdicts out by code.
                let found_of: Vec<bool> = dict
                    .iter()
                    .map(|s| {
                        let v = Value::Str(s.clone());
                        list.iter().any(|item| v.eq_sql(item) == Some(true))
                    })
                    .collect();
                for (i, &code) in codes.iter().enumerate() {
                    if !cv.get(i) {
                        data.push(false);
                        continue;
                    }
                    let found = found_of.get(code as usize).copied().unwrap_or(false);
                    if found {
                        data.push(!*negated);
                        valid.set(i, true);
                    } else if list_has_null {
                        data.push(false);
                    } else {
                        data.push(*negated);
                        valid.set(i, true);
                    }
                }
                return Ok(Cow::Owned(Column::Bool(data, valid)));
            }
            for i in 0..n {
                let v = c.get(i);
                if v.is_null() {
                    data.push(false);
                    continue;
                }
                let found = list.iter().any(|item| v.eq_sql(item) == Some(true));
                if found {
                    data.push(!*negated);
                    valid.set(i, true);
                } else if list_has_null {
                    // Unknown: value may equal the null element.
                    data.push(false);
                } else {
                    data.push(*negated);
                    valid.set(i, true);
                }
            }
            Column::Bool(data, valid)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // Desugar to (expr >= low AND expr <= high), honoring 3VL.
            let inner = Expr::Binary {
                left: Box::new(Expr::binary(
                    (**expr).clone(),
                    BinaryOp::Ge,
                    (**low).clone(),
                )),
                op: BinaryOp::And,
                right: Box::new(Expr::binary(
                    (**expr).clone(),
                    BinaryOp::Le,
                    (**high).clone(),
                )),
            };
            let c = eval_serial(table, &inner)?;
            if *negated {
                eval_not(&c)?
            } else {
                c
            }
        }
    };
    Ok(Cow::Owned(computed))
}

/// Resolve the columns `expr` references, so morsel workers can build
/// chunks containing only those columns — unreferenced columns (often
/// wide strings) are never copied. `None` when the expression references
/// no columns: literal broadcasts need the true row count, which a
/// zero-column chunk cannot carry.
fn referenced<'a>(table: &'a Table, expr: &Expr) -> Result<Option<Vec<(String, &'a Column)>>> {
    let mut names = Vec::new();
    expr.referenced_columns(&mut names);
    if names.is_empty() {
        return Ok(None);
    }
    let cols = names
        .into_iter()
        .map(|n| {
            let col = table.column(&n)?;
            Ok((n, col))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Some(cols))
}

/// Slice only the referenced columns into a chunk table for one morsel.
fn pruned_chunk(cols: &[(String, &Column)], r: &std::ops::Range<usize>) -> Result<Table> {
    Table::new(
        cols.iter()
            .map(|(n, c)| (n.as_str(), c.slice(r.start, r.end - r.start)))
            .collect(),
    )
}

/// Evaluate on row morsels and stitch the per-morsel columns in order.
fn eval_morsel(table: &Table, expr: &Expr, ranges: &[std::ops::Range<usize>]) -> Result<Column> {
    let Some(cols) = referenced(table, expr)? else {
        return eval_serial(table, expr);
    };
    let parts =
        crate::parallel::run_morsels(ranges, |r| eval_serial(&pruned_chunk(&cols, &r)?, expr));
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return eval_serial(table, expr);
    };
    let mut out = first?;
    for part in parts {
        out.extend(&part?)?;
    }
    Ok(out)
}

/// Whether an expression can be evaluated per-morsel. Everything is
/// row-local except functions taking a constant-integer argument
/// (`round` digits, `substring` bounds): their constant-ness check must
/// see the whole column to reject per-row expressions, so they are
/// evaluated over the whole table.
pub(crate) fn morsel_safe(expr: &Expr) -> bool {
    match expr {
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Binary { left, right, .. } => morsel_safe(left) && morsel_safe(right),
        Expr::Unary { expr, .. } => morsel_safe(expr),
        Expr::Func { func, args } => {
            !matches!(func, ScalarFunc::Round | ScalarFunc::Substring)
                && args.iter().all(morsel_safe)
        }
        Expr::Cast { expr, .. } => morsel_safe(expr),
        Expr::IsNull(e) | Expr::IsNotNull(e) => morsel_safe(e),
        Expr::InList { expr, .. } => morsel_safe(expr),
        Expr::Between {
            expr, low, high, ..
        } => morsel_safe(expr) && morsel_safe(low) && morsel_safe(high),
    }
}

/// Evaluate a predicate to a selection mask: null evaluates to "do not
/// keep", matching SQL `WHERE`.
pub fn eval_predicate(table: &Table, expr: &Expr) -> Result<Vec<bool>> {
    let ranges = crate::parallel::morsels(table.num_rows());
    if ranges.len() > 1 && morsel_safe(expr) {
        if let Some(cols) = referenced(table, expr)? {
            let parts = crate::parallel::run_morsels(&ranges, |r| {
                eval_predicate_serial(&pruned_chunk(&cols, &r)?, expr)
            });
            let mut mask = Vec::with_capacity(table.num_rows());
            for part in parts {
                mask.extend(part?);
            }
            return Ok(mask);
        }
    }
    eval_predicate_serial(table, expr)
}

/// Serial predicate evaluation (also the per-morsel worker body).
pub fn eval_predicate_serial(table: &Table, expr: &Expr) -> Result<Vec<bool>> {
    match eval_serial(table, expr)? {
        Column::Bool(mut data, valid) => {
            for i in valid.null_indices() {
                data[i] = false;
            }
            Ok(data)
        }
        other => Err(EngineError::TypeMismatch {
            expected: DataType::Bool,
            actual: other.dtype(),
            context: "predicate".into(),
        }),
    }
}

fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Null => Column::nulls(NULL_LITERAL, n),
        Value::Bool(x) => Column::from_bools(vec![*x; n]),
        Value::Int(x) => Column::from_ints(vec![*x; n]),
        Value::Float(x) => Column::from_floats(vec![*x; n]),
        // A broadcast string literal is a one-entry dictionary: O(1) heap
        // for the payload, and comparisons against a dict column reduce to
        // a single dictionary lookup plus integer compares.
        Value::Str(x) => Column::Dict(vec![0; n], Arc::new(vec![x.clone()]), Bitmap::new_valid(n)),
        Value::Date(x) => Column::from_dates(vec![*x; n]),
    }
}

/// Combine two operand columns slot by slot. The result is null where
/// either operand is (validity ANDed word-wise, so null-free operands give
/// an all-valid result without a per-row test) and where `f` returns
/// `None`; `f` therefore runs on null slots' placeholders too and must not
/// panic on them. Null slots hold `T::default()`, the canonical
/// placeholder `Column: PartialEq` compares.
fn zip_with<A, B, T: Default>(
    (a, av): (impl Iterator<Item = A>, &Bitmap),
    (b, bv): (impl Iterator<Item = B>, &Bitmap),
    f: impl Fn(A, B) -> Option<T>,
) -> (Vec<T>, Bitmap) {
    let mut valid = av.and(bv);
    let mut data: Vec<T> = a
        .zip(b)
        .enumerate()
        .map(|(i, (x, y))| {
            f(x, y).unwrap_or_else(|| {
                valid.set(i, false);
                T::default()
            })
        })
        .collect();
    for i in valid.null_indices() {
        data[i] = T::default();
    }
    (data, valid)
}

/// A typed slice and its validity as a [`zip_with`] operand.
fn slots<'a, T: Copy>(
    data: &'a [T],
    valid: &'a Bitmap,
) -> (impl Iterator<Item = T> + 'a, &'a Bitmap) {
    (data.iter().copied(), valid)
}

/// A string column of either encoding as a [`zip_with`] operand; null
/// rows yield `None` (a null dict row's code may not be in the dictionary).
fn str_slots(c: &Column) -> (impl Iterator<Item = Option<&str>> + '_, &Bitmap) {
    ((0..c.len()).map(|i| c.str_at(i)), c.validity())
}

/// Any column as a [`zip_with`] operand of scalar [`Value`]s: the slow
/// path for type pairs without a typed kernel.
fn value_slots(c: &Column) -> (impl Iterator<Item = Value> + '_, &Bitmap) {
    ((0..c.len()).map(|i| c.get(i)), c.validity())
}

/// The numeric widening rule of [`Value::partial_cmp_sql`] and mixed
/// arithmetic: ints become `f64`.
trait Widen: Copy {
    fn widen(self) -> f64;
}

impl Widen for i64 {
    fn widen(self) -> f64 {
        self as f64
    }
}

impl Widen for f64 {
    fn widen(self) -> f64 {
        self
    }
}

fn eval_logical(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    let (ld, lv) = l.as_bools().ok_or_else(|| type_err(l, "logical operand"))?;
    let (rd, rv) = r.as_bools().ok_or_else(|| type_err(r, "logical operand"))?;
    check_len(l, r)?;
    let and = op == BinaryOp::And;
    if lv.all_valid() && rv.all_valid() {
        let data = ld
            .iter()
            .zip(rd)
            .map(|(&a, &b)| if and { a && b } else { a || b })
            .collect();
        return Ok(Column::Bool(data, Bitmap::new_valid(ld.len())));
    }
    // Kleene logic: a null operand still decides nothing, but a known
    // `false` (AND) or `true` (OR) on the other side decides the row.
    let kleene = if and { kleene_and } else { kleene_or };
    let out = ld
        .iter()
        .zip(lv.iter())
        .zip(rd.iter().zip(rv.iter()))
        .map(|((&a, av), (&b, bv))| kleene(av.then_some(a), bv.then_some(b)));
    let (data, known): (Vec<bool>, Vec<bool>) =
        out.map(|o| (o.unwrap_or(false), o.is_some())).unzip();
    Ok(Column::Bool(data, Bitmap::from_bools(&known)))
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn eval_not(c: &Column) -> Result<Column> {
    let (data, valid) = c.as_bools().ok_or_else(|| type_err(c, "NOT operand"))?;
    Ok(Column::Bool(
        data.iter().map(|b| !b).collect(),
        valid.clone(),
    ))
}

fn eval_neg(c: &Column) -> Result<Column> {
    match c {
        Column::Int(v, b) => Ok(Column::Int(
            v.iter().map(|x| x.wrapping_neg()).collect(),
            b.clone(),
        )),
        Column::Float(v, b) => Ok(Column::Float(v.iter().map(|x| -x).collect(), b.clone())),
        _ => Err(type_err(c, "negation")),
    }
}

/// `a op b` per slot, where `ord` orders two operand values or returns
/// `None` for an incomparable pair (a NaN operand), which makes the row
/// null. One loop per operator, so the operator is not re-tested per row.
fn compare<A, B>(
    a: (impl Iterator<Item = A>, &Bitmap),
    b: (impl Iterator<Item = B>, &Bitmap),
    op: BinaryOp,
    ord: impl Fn(A, B) -> Option<std::cmp::Ordering>,
) -> Column {
    use std::cmp::Ordering::*;
    let (data, valid) = match op {
        BinaryOp::Eq => zip_with(a, b, |x, y| ord(x, y).map(|o| o == Equal)),
        BinaryOp::Neq => zip_with(a, b, |x, y| ord(x, y).map(|o| o != Equal)),
        BinaryOp::Lt => zip_with(a, b, |x, y| ord(x, y).map(|o| o == Less)),
        BinaryOp::Le => zip_with(a, b, |x, y| ord(x, y).map(|o| o != Greater)),
        BinaryOp::Gt => zip_with(a, b, |x, y| ord(x, y).map(|o| o == Greater)),
        BinaryOp::Ge => zip_with(a, b, |x, y| ord(x, y).map(|o| o != Less)),
        _ => unreachable!("not a comparison operator"),
    };
    Column::Bool(data, valid)
}

/// Numeric comparison with at least one float side: ints widen, and a NaN
/// on either side compares as null, exactly as [`Value::partial_cmp_sql`].
fn compare_widened<A: Widen, B: Widen>(
    a: (&[A], &Bitmap),
    b: (&[B], &Bitmap),
    op: BinaryOp,
) -> Column {
    compare(slots(a.0, a.1), slots(b.0, b.1), op, |x: A, y: B| {
        x.widen().partial_cmp(&y.widen())
    })
}

fn eval_comparison(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    check_len(l, r)?;
    // Typed kernels for the common cases; the generic fallback covers the
    // rest via Value comparison.
    Ok(match (l, r) {
        (Column::Int(a, av), Column::Int(b, bv)) => {
            compare(slots(a, av), slots(b, bv), op, |x: i64, y: i64| {
                Some(x.cmp(&y))
            })
        }
        (Column::Float(a, av), Column::Float(b, bv)) => compare_widened((a, av), (b, bv), op),
        (Column::Int(a, av), Column::Float(b, bv)) => compare_widened((a, av), (b, bv), op),
        (Column::Float(a, av), Column::Int(b, bv)) => compare_widened((a, av), (b, bv), op),
        (Column::Dict(ca, da, av), Column::Dict(cb, db, bv))
            if matches!(op, BinaryOp::Eq | BinaryOp::Neq) =>
        {
            // Dict × dict equality: remap the right dictionary into the
            // left's code space once (identity when shared), then compare
            // integers per row.
            let eq_wanted = op == BinaryOp::Eq;
            let remap: Vec<i64> = if Arc::ptr_eq(da, db) {
                (0..db.len() as i64).collect()
            } else {
                db.iter()
                    .map(|s| da.binary_search(s).map(|c| c as i64).unwrap_or(-1))
                    .collect()
            };
            let (data, valid) = zip_with(slots(ca, av), slots(cb, bv), |x: u32, y: u32| {
                let rc = remap.get(y as usize).copied().unwrap_or(-1);
                Some((x as i64 == rc) == eq_wanted)
            });
            Column::Bool(data, valid)
        }
        // Sorted dictionary: code order is lexicographic order, so
        // ordering comparisons stay on the codes.
        (Column::Dict(ca, da, av), Column::Dict(cb, db, bv)) if Arc::ptr_eq(da, db) => {
            compare(slots(ca, av), slots(cb, bv), op, |x: u32, y: u32| {
                Some(x.cmp(&y))
            })
        }
        _ => match (l.dtype(), r.dtype()) {
            (DataType::Str, DataType::Str) => compare(str_slots(l), str_slots(r), op, |x, y| {
                x.zip(y).map(|(a, b): (&str, &str)| a.cmp(b))
            }),
            (a, b) if a.unify(b).is_some() => {
                compare(value_slots(l), value_slots(r), op, |x: Value, y: Value| {
                    x.partial_cmp_sql(&y)
                })
            }
            (a, b) => return Err(EngineError::eval(format!("cannot compare {a} with {b}"))),
        },
    })
}

/// Arithmetic that produces floats: ints widen, division and modulo by
/// zero are null.
fn float_arith<A: Widen, B: Widen>(
    (a, av): (&[A], &Bitmap),
    (b, bv): (&[B], &Bitmap),
    op: BinaryOp,
) -> Column {
    let (a, b) = (slots(a, av), slots(b, bv));
    let (data, valid) = match op {
        BinaryOp::Add => zip_with(a, b, |x: A, y: B| Some(x.widen() + y.widen())),
        BinaryOp::Sub => zip_with(a, b, |x: A, y: B| Some(x.widen() - y.widen())),
        BinaryOp::Mul => zip_with(a, b, |x: A, y: B| Some(x.widen() * y.widen())),
        BinaryOp::Div => zip_with(a, b, |x: A, y: B| {
            (y.widen() != 0.0).then(|| x.widen() / y.widen())
        }),
        BinaryOp::Mod => zip_with(a, b, |x: A, y: B| {
            (y.widen() != 0.0).then(|| x.widen() % y.widen())
        }),
        _ => unreachable!("not an arithmetic operator"),
    };
    Column::Float(data, valid)
}

fn eval_arith(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    check_len(l, r)?;
    Ok(match (l, r) {
        // Integer arithmetic stays integral except division, which widens
        // to float for user-friendliness (GEL users expect 1/2 = 0.5).
        (Column::Int(a, av), Column::Int(b, bv)) if op != BinaryOp::Div => {
            let (a, b) = (slots(a, av), slots(b, bv));
            let (data, valid) = match op {
                BinaryOp::Add => zip_with(a, b, |x: i64, y: i64| Some(x.wrapping_add(y))),
                BinaryOp::Sub => zip_with(a, b, |x: i64, y: i64| Some(x.wrapping_sub(y))),
                BinaryOp::Mul => zip_with(a, b, |x: i64, y: i64| Some(x.wrapping_mul(y))),
                BinaryOp::Mod => {
                    zip_with(a, b, |x: i64, y: i64| (y != 0).then(|| x.wrapping_rem(y)))
                }
                _ => unreachable!("not an arithmetic operator"),
            };
            Column::Int(data, valid)
        }
        (Column::Int(a, av), Column::Int(b, bv)) => float_arith((a, av), (b, bv), op),
        (Column::Int(a, av), Column::Float(b, bv)) => float_arith((a, av), (b, bv), op),
        (Column::Float(a, av), Column::Int(b, bv)) => float_arith((a, av), (b, bv), op),
        (Column::Float(a, av), Column::Float(b, bv)) => float_arith((a, av), (b, bv), op),
        // Date arithmetic: Date ± Int days; Date - Date = Int days.
        (Column::Date(a, av), Column::Int(b, bv))
            if matches!(op, BinaryOp::Add | BinaryOp::Sub) =>
        {
            let add = op == BinaryOp::Add;
            let (data, valid) = zip_with(slots(a, av), slots(b, bv), |d: i32, days: i64| {
                let delta = days as i32;
                Some(if add {
                    d.wrapping_add(delta)
                } else {
                    d.wrapping_sub(delta)
                })
            });
            Column::Date(data, valid)
        }
        (Column::Date(a, av), Column::Date(b, bv)) if op == BinaryOp::Sub => {
            let (data, valid) = zip_with(slots(a, av), slots(b, bv), |x: i32, y: i32| {
                Some(x.wrapping_sub(y) as i64)
            });
            Column::Int(data, valid)
        }
        // String concatenation via `+`.
        _ if l.dtype() == DataType::Str && r.dtype() == DataType::Str && op == BinaryOp::Add => {
            let (data, valid) = zip_with(str_slots(l), str_slots(r), |x, y| {
                x.zip(y).map(|(a, b): (&str, &str)| [a, b].concat())
            });
            Column::Str(data, valid)
        }
        _ => {
            return Err(EngineError::eval(format!(
                "arithmetic {:?} not defined for {} and {}",
                op.sql(),
                l.dtype(),
                r.dtype()
            )))
        }
    })
}

fn eval_func(func: ScalarFunc, cols: &[&Column], n: usize) -> Result<Column> {
    use ScalarFunc::*;
    match func {
        Abs | Ceil | Floor | Sqrt | Ln | Exp => {
            let c = &cols[0];
            if !c.dtype().is_numeric() {
                return Err(type_err(c, func.name()));
            }
            // Abs preserves integer-ness; the rest produce floats.
            if func == Abs {
                if let Some((v, b)) = c.as_ints() {
                    return Ok(Column::Int(
                        v.iter().map(|x| x.wrapping_abs()).collect(),
                        b.clone(),
                    ));
                }
            }
            map_numeric(c, n, |x| {
                let y = match func {
                    Abs => x.abs(),
                    Ceil => x.ceil(),
                    Floor => x.floor(),
                    Sqrt => x.sqrt(),
                    Ln => x.ln(),
                    Exp => x.exp(),
                    _ => unreachable!(),
                };
                y.is_finite().then_some(y)
            })
        }
        Round => {
            let digits = if cols.len() == 2 {
                scalar_int(cols[1], "round digits")?
            } else {
                0
            };
            let factor = 10f64.powi(digits as i32);
            map_numeric(cols[0], n, move |x| Some((x * factor).round() / factor))
        }
        Pow => binary_numeric(cols[0], cols[1], n, |a, b| {
            let y = a.powf(b);
            y.is_finite().then_some(y)
        }),
        Bin => {
            // bin(x, width): lower edge of the containing bucket.
            let c = &cols[0];
            if let (Some((v, b)), Some((w, wv))) = (c.as_ints(), cols[1].as_ints()) {
                let mut data = Vec::with_capacity(n);
                let mut valid = Bitmap::new_null(n);
                for i in 0..n {
                    if b.get(i) && wv.get(i) && w[i] > 0 {
                        data.push(v[i].div_euclid(w[i]) * w[i]);
                        valid.set(i, true);
                    } else {
                        data.push(0);
                    }
                }
                return Ok(Column::Int(data, valid));
            }
            binary_numeric(c, cols[1], n, |x, w| (w > 0.0).then(|| (x / w).floor() * w))
        }
        Lower | Upper | Trim => map_str(cols[0], n, |s| match func {
            Lower => s.to_lowercase(),
            Upper => s.to_uppercase(),
            Trim => s.trim().to_string(),
            _ => unreachable!(),
        }),
        Length => {
            let c = &cols[0];
            if let Some((codes, dict, valid)) = c.as_dict() {
                // Count each distinct string's chars once, then fan out.
                let lens: Vec<i64> = dict.iter().map(|s| s.chars().count() as i64).collect();
                return Ok(Column::Int(
                    codes
                        .iter()
                        .map(|&cd| lens.get(cd as usize).copied().unwrap_or(0))
                        .collect(),
                    valid.clone(),
                ));
            }
            let (data, valid) = c.as_strs().ok_or_else(|| type_err(c, "length"))?;
            Ok(Column::Int(
                data.iter().map(|s| s.chars().count() as i64).collect(),
                valid.clone(),
            ))
        }
        Concat => {
            let mut data = vec![String::new(); n];
            let mut valid = Bitmap::new_valid(n);
            for c in cols {
                let rendered = c.cast(DataType::Str)?;
                for (i, slot) in data.iter_mut().enumerate().take(n) {
                    match rendered.str_at(i) {
                        Some(s) => slot.push_str(s),
                        None => valid.set(i, false),
                    }
                }
            }
            Ok(Column::Str(data, valid))
        }
        Contains | StartsWith | EndsWith => {
            for c in &cols[..2] {
                if c.dtype() != DataType::Str {
                    return Err(type_err(c, func.name()));
                }
            }
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                match (cols[0].str_at(i), cols[1].str_at(i)) {
                    (Some(a), Some(b)) => {
                        data.push(match func {
                            Contains => a.contains(b),
                            StartsWith => a.starts_with(b),
                            EndsWith => a.ends_with(b),
                            _ => unreachable!(),
                        });
                        valid.set(i, true);
                    }
                    _ => data.push(false),
                }
            }
            Ok(Column::Bool(data, valid))
        }
        Replace => {
            for c in &cols[..3] {
                if c.dtype() != DataType::Str {
                    return Err(type_err(c, "replace"));
                }
            }
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                match (cols[0].str_at(i), cols[1].str_at(i), cols[2].str_at(i)) {
                    (Some(a), Some(from), Some(to)) => {
                        data.push(a.replace(from, to));
                        valid.set(i, true);
                    }
                    _ => data.push(String::new()),
                }
            }
            Ok(Column::Str(data, valid))
        }
        Substring => {
            // substring(s, start_1_based, len)
            if cols[0].dtype() != DataType::Str {
                return Err(type_err(cols[0], "substring"));
            }
            let start = scalar_int(cols[1], "substring start")?;
            let len = scalar_int(cols[2], "substring length")?;
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                match cols[0].str_at(i) {
                    Some(item) => {
                        let chars: Vec<char> = item.chars().collect();
                        let s = (start.max(1) - 1) as usize;
                        let e = (s + len.max(0) as usize).min(chars.len());
                        data.push(chars.get(s..e).unwrap_or(&[]).iter().collect());
                        valid.set(i, true);
                    }
                    None => data.push(String::new()),
                }
            }
            Ok(Column::Str(data, valid))
        }
        Year | Month | Day => {
            let (d, dv) = cols[0]
                .as_dates()
                .ok_or_else(|| type_err(cols[0], func.name()))?;
            let mut data = Vec::with_capacity(n);
            for &days in d {
                let (y, m, dd) = ymd_from_days(days);
                data.push(match func {
                    Year => y,
                    Month => m as i64,
                    Day => dd as i64,
                    _ => unreachable!(),
                });
            }
            Ok(Column::Int(data, dv.clone()))
        }
        Coalesce => {
            let dtype = cols
                .iter()
                .map(|c| c.dtype())
                .reduce(|a, b| a.unify(b).unwrap_or(a))
                .unwrap_or(DataType::Str);
            let mut out = Column::empty(dtype);
            for i in 0..n {
                let v = cols
                    .iter()
                    .map(|c| c.get(i))
                    .find(|v| !v.is_null())
                    .unwrap_or(Value::Null);
                let v = crate::column::cast_value(&v, dtype);
                out.push_value(&v)?;
            }
            Ok(out)
        }
        If => {
            let (cond, cv) = cols[0]
                .as_bools()
                .ok_or_else(|| type_err(cols[0], "if condition"))?;
            let dtype = cols[1].dtype().unify(cols[2].dtype()).ok_or_else(|| {
                EngineError::eval(format!(
                    "if branches have incompatible types {} and {}",
                    cols[1].dtype(),
                    cols[2].dtype()
                ))
            })?;
            let mut out = Column::empty(dtype);
            for (i, &c) in cond.iter().enumerate().take(n) {
                let v = if !cv.get(i) {
                    Value::Null
                } else if c {
                    cols[1].get(i)
                } else {
                    cols[2].get(i)
                };
                let v = crate::column::cast_value(&v, dtype);
                out.push_value(&v)?;
            }
            Ok(out)
        }
    }
}

fn map_numeric(c: &Column, n: usize, f: impl Fn(f64) -> Option<f64>) -> Result<Column> {
    if !c.dtype().is_numeric() {
        return Err(type_err(c, "numeric function"));
    }
    let mut data = Vec::with_capacity(n);
    let mut valid = Bitmap::new_null(n);
    for i in 0..n {
        match c.numeric_at(i).and_then(&f) {
            Some(v) => {
                data.push(v);
                valid.set(i, true);
            }
            None => data.push(0.0),
        }
    }
    Ok(Column::Float(data, valid))
}

fn binary_numeric(
    a: &Column,
    b: &Column,
    n: usize,
    f: impl Fn(f64, f64) -> Option<f64>,
) -> Result<Column> {
    if !a.dtype().is_numeric() || !b.dtype().is_numeric() {
        return Err(EngineError::eval("numeric arguments required".to_string()));
    }
    let mut data = Vec::with_capacity(n);
    let mut valid = Bitmap::new_null(n);
    for i in 0..n {
        match (a.numeric_at(i), b.numeric_at(i)) {
            (Some(x), Some(y)) => match f(x, y) {
                Some(v) => {
                    data.push(v);
                    valid.set(i, true);
                }
                None => data.push(0.0),
            },
            _ => data.push(0.0),
        }
    }
    Ok(Column::Float(data, valid))
}

fn map_str(c: &Column, n: usize, f: impl Fn(&str) -> String) -> Result<Column> {
    if let Some((codes, dict, valid)) = c.as_dict() {
        // Transform each distinct string once. The transform can collapse
        // or reorder entries (e.g. lower-casing "A" and "a"), so rebuild a
        // sorted-unique dictionary and remap the codes.
        let transformed: Vec<String> = dict.iter().map(|s| f(s)).collect();
        let mut uniq: Vec<&String> = transformed.iter().collect();
        uniq.sort_unstable();
        uniq.dedup();
        let new_dict: Vec<String> = uniq.iter().map(|s| (*s).clone()).collect();
        let remap: Vec<u32> = transformed
            .iter()
            .map(|s| new_dict.binary_search(s).unwrap_or(0) as u32)
            .collect();
        let new_codes: Vec<u32> = codes
            .iter()
            .map(|&cd| remap.get(cd as usize).copied().unwrap_or(0))
            .collect();
        return Ok(Column::Dict(new_codes, Arc::new(new_dict), valid.clone()));
    }
    let (data, valid) = c.as_strs().ok_or_else(|| type_err(c, "string function"))?;
    debug_assert_eq!(data.len(), n);
    Ok(Column::Str(
        data.iter().map(|s| f(s)).collect(),
        valid.clone(),
    ))
}

/// Extract a constant integer from a broadcast column. Function
/// arguments like round digits must be uniform literals; a per-row
/// expression is rejected instead of silently using row 0.
fn scalar_int(c: &Column, context: &str) -> Result<i64> {
    match c {
        Column::Int(v, b) => {
            let Some(first) = v.first().copied().filter(|_| b.get(0)) else {
                return Ok(0);
            };
            let uniform = (1..v.len()).all(|i| b.get(i) && v[i] == first);
            if !uniform {
                return Err(EngineError::eval(format!(
                    "{context} must be a constant integer, not a per-row expression"
                )));
            }
            Ok(first)
        }
        _ => Err(EngineError::eval(format!("{context} must be an integer"))),
    }
}

fn check_len(l: &Column, r: &Column) -> Result<()> {
    if l.len() != r.len() {
        return Err(EngineError::LengthMismatch {
            left: l.len(),
            right: r.len(),
        });
    }
    Ok(())
}

fn type_err(c: &Column, context: &str) -> EngineError {
    EngineError::TypeMismatch {
        expected: DataType::Float,
        actual: c.dtype(),
        context: context.into(),
    }
}

// Re-export for convenience in docs referencing date helpers.
#[allow(unused_imports)]
use days_from_ymd as _days_from_ymd;

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new(vec![
            (
                "a",
                Column::from_opt_ints(vec![Some(1), Some(2), None, Some(4)]),
            ),
            ("b", Column::from_ints(vec![10, 0, 30, 40])),
            ("f", Column::from_floats(vec![1.5, 2.5, 3.5, 4.5])),
            (
                "s",
                Column::from_strs(vec!["driver", "pedestrian", "driver", "parked"]),
            ),
            ("flag", Column::from_bools(vec![true, false, true, false])),
            ("d", Column::from_dates(vec![0, 365, 730, 1095])),
        ])
        .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let c = eval(&t(), &Expr::col("a")).unwrap();
        assert_eq!(c.get(0), Value::Int(1));
        let c = eval(&t(), &Expr::lit(7i64)).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(3), Value::Int(7));
    }

    #[test]
    fn int_arithmetic_null_propagation() {
        let e = Expr::col("a").add(Expr::col("b"));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Int(11));
        assert_eq!(c.get(2), Value::Null);
    }

    #[test]
    fn division_widens_and_guards_zero() {
        let e = Expr::col("a").div(Expr::col("b"));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Float(0.1));
        assert_eq!(c.get(1), Value::Null); // 2 / 0
    }

    #[test]
    fn mixed_numeric_is_float() {
        let e = Expr::col("a").mul(Expr::col("f"));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.dtype(), DataType::Float);
        assert_eq!(c.get(0), Value::Float(1.5));
    }

    #[test]
    fn date_arithmetic() {
        let e = Expr::col("d").add(Expr::lit(5i64));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Date(5));
        let e = Expr::col("d").sub(Expr::col("d"));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(1), Value::Int(0));
    }

    #[test]
    fn string_concat_plus() {
        let e = Expr::col("s").add(Expr::lit("!"));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Str("driver!".into()));
    }

    #[test]
    fn comparisons_with_nulls() {
        let e = Expr::col("a").gt(Expr::lit(1i64));
        let mask = eval_predicate(&t(), &e).unwrap();
        assert_eq!(mask, vec![false, true, false, true]);
    }

    #[test]
    fn kleene_logic() {
        // null AND false = false; null OR true = true.
        let null_bool = Expr::col("a").gt(Expr::lit(100i64)); // row 2 null
        let e = null_bool.clone().and(Expr::lit(false));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(2), Value::Bool(false));
        let e = null_bool.or(Expr::lit(true));
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(2), Value::Bool(true));
    }

    #[test]
    fn not_propagates_null() {
        let e = Expr::col("a").gt(Expr::lit(0i64)).not();
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Bool(false));
        assert_eq!(c.get(2), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        let c = eval(&t(), &Expr::col("a").is_null()).unwrap();
        assert_eq!(c.get(2), Value::Bool(true));
        assert_eq!(c.get(0), Value::Bool(false));
        let c = eval(&t(), &Expr::col("a").is_not_null()).unwrap();
        assert_eq!(c.get(2), Value::Bool(false));
    }

    #[test]
    fn in_list_semantics() {
        let e = Expr::col("s").in_list(vec![Value::Str("driver".into())]);
        let mask = eval_predicate(&t(), &e).unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
        // Null element makes non-matches unknown.
        let e = Expr::col("a").in_list(vec![Value::Int(1), Value::Null]);
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Bool(true));
        assert_eq!(c.get(1), Value::Null);
    }

    #[test]
    fn between_inclusive() {
        let e = Expr::col("b").between(Expr::lit(10i64), Expr::lit(30i64));
        let mask = eval_predicate(&t(), &e).unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
    }

    #[test]
    fn string_functions() {
        let c = eval(&t(), &Expr::func(ScalarFunc::Upper, vec![Expr::col("s")])).unwrap();
        assert_eq!(c.get(0), Value::Str("DRIVER".into()));
        let c = eval(
            &t(),
            &Expr::func(ScalarFunc::Contains, vec![Expr::col("s"), Expr::lit("ed")]),
        )
        .unwrap();
        assert_eq!(c.get(1), Value::Bool(true));
        assert_eq!(c.get(0), Value::Bool(false));
        let c = eval(&t(), &Expr::func(ScalarFunc::Length, vec![Expr::col("s")])).unwrap();
        assert_eq!(c.get(0), Value::Int(6));
    }

    #[test]
    fn substring_1_based() {
        let c = eval(
            &t(),
            &Expr::func(
                ScalarFunc::Substring,
                vec![Expr::col("s"), Expr::lit(1i64), Expr::lit(4i64)],
            ),
        )
        .unwrap();
        assert_eq!(c.get(0), Value::Str("driv".into()));
    }

    #[test]
    fn date_parts() {
        let c = eval(&t(), &Expr::func(ScalarFunc::Year, vec![Expr::col("d")])).unwrap();
        assert_eq!(c.get(0), Value::Int(1970));
        assert_eq!(c.get(1), Value::Int(1971));
    }

    #[test]
    fn bin_buckets_ints() {
        // The Figure 1 chart bins party_age into width-20 buckets.
        let ages = Table::new(vec![(
            "age",
            Column::from_opt_ints(vec![Some(18), Some(34), Some(60), None]),
        )])
        .unwrap();
        let c = eval(
            &ages,
            &Expr::func(ScalarFunc::Bin, vec![Expr::col("age"), Expr::lit(20i64)]),
        )
        .unwrap();
        assert_eq!(c.get(0), Value::Int(0));
        assert_eq!(c.get(1), Value::Int(20));
        assert_eq!(c.get(2), Value::Int(60));
        assert_eq!(c.get(3), Value::Null);
    }

    #[test]
    fn coalesce_first_valid() {
        let e = Expr::func(ScalarFunc::Coalesce, vec![Expr::col("a"), Expr::lit(-1i64)]);
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(2), Value::Int(-1));
        assert_eq!(c.get(0), Value::Int(1));
    }

    #[test]
    fn if_branches() {
        let e = Expr::func(
            ScalarFunc::If,
            vec![Expr::col("flag"), Expr::lit("yes"), Expr::lit("no")],
        );
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Str("yes".into()));
        assert_eq!(c.get(1), Value::Str("no".into()));
    }

    #[test]
    fn sqrt_of_negative_is_null() {
        let neg = Table::new(vec![("x", Column::from_floats(vec![-4.0, 9.0]))]).unwrap();
        let c = eval(&neg, &Expr::func(ScalarFunc::Sqrt, vec![Expr::col("x")])).unwrap();
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.get(1), Value::Float(3.0));
    }

    #[test]
    fn arity_enforced() {
        let e = Expr::func(ScalarFunc::Sqrt, vec![]);
        assert!(eval(&t(), &e).is_err());
    }

    #[test]
    fn predicate_requires_bool() {
        assert!(eval_predicate(&t(), &Expr::col("a")).is_err());
    }

    /// Per-row `Value` semantics of a binary operator, assembled with
    /// `push_value` so null slots hold the canonical placeholder.
    fn reference_binary(l: &Column, op: BinaryOp, r: &Column) -> Column {
        use std::cmp::Ordering::*;
        let ints = l.dtype() == DataType::Int && r.dtype() == DataType::Int;
        let dtype = if op.is_comparison() || op.is_logical() {
            DataType::Bool
        } else if ints && op != BinaryOp::Div {
            DataType::Int
        } else {
            DataType::Float
        };
        let mut out = Column::empty(dtype);
        for i in 0..l.len() {
            let (a, b) = (l.get(i), r.get(i));
            let v = if op.is_logical() {
                let f = if op == BinaryOp::And {
                    kleene_and
                } else {
                    kleene_or
                };
                f(a.as_bool(), b.as_bool()).map_or(Value::Null, Value::Bool)
            } else if op.is_comparison() {
                a.partial_cmp_sql(&b).map_or(Value::Null, |o| {
                    Value::Bool(match op {
                        BinaryOp::Eq => o == Equal,
                        BinaryOp::Neq => o != Equal,
                        BinaryOp::Lt => o == Less,
                        BinaryOp::Le => o != Greater,
                        BinaryOp::Gt => o == Greater,
                        _ => o != Less,
                    })
                })
            } else if let (DataType::Int, Some(x), Some(y)) = (dtype, a.as_i64(), b.as_i64()) {
                match op {
                    BinaryOp::Add => Value::Int(x.wrapping_add(y)),
                    BinaryOp::Sub => Value::Int(x.wrapping_sub(y)),
                    BinaryOp::Mul => Value::Int(x.wrapping_mul(y)),
                    _ if y == 0 => Value::Null,
                    _ => Value::Int(x.wrapping_rem(y)),
                }
            } else if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                match op {
                    BinaryOp::Add => Value::Float(x + y),
                    BinaryOp::Sub => Value::Float(x - y),
                    BinaryOp::Mul => Value::Float(x * y),
                    _ if y == 0.0 => Value::Null,
                    BinaryOp::Div => Value::Float(x / y),
                    _ => Value::Float(x % y),
                }
            } else {
                Value::Null
            };
            out.push_value(&v).unwrap();
        }
        out
    }

    /// Equal validity and equal raw data, placeholders included; floats
    /// by bit pattern so a NaN result equals itself.
    fn assert_same_column(got: &Column, want: &Column, what: &str) {
        match (got, want) {
            (Column::Float(a, av), Column::Float(b, bv)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!((bits(a), av), (bits(b), bv), "{what}");
            }
            _ => assert_eq!(got, want, "{what}"),
        }
    }

    #[test]
    fn binary_kernels_match_per_row_value_semantics_and_keep_placeholders_canonical() {
        // 70 rows: nulls on both sides of the word boundary, NaN, zeros
        // (division, modulo), extremes, and junk under the null slots.
        let n = 70;
        let valid = |k: usize| Bitmap::from_bools(&(0..n).map(|i| i % k != 1).collect::<Vec<_>>());
        let ints = |k: usize, m: i64| {
            let data = (0..n as i64).map(|i| match i % 9 {
                0 => 0,
                4 => i64::MAX - i,
                5 => i64::MIN + i,
                _ => (i * m) % 11 - 5,
            });
            Column::Int(data.collect(), valid(k))
        };
        let floats = |k: usize, m: f64| {
            let data = (0..n).map(|i| match i % 8 {
                0 => 0.0,
                3 => f64::NAN,
                6 => -0.0,
                _ => (i as f64 * m) % 7.0 - 3.0,
            });
            Column::Float(data.collect(), valid(k))
        };
        let bools =
            |k: usize, m: usize| Column::Bool((0..n).map(|i| i % m == 0).collect(), valid(k));
        let dense_ints = Column::from_ints((0..n as i64).map(|i| i % 5 - 2).collect());
        let dense_floats = Column::from_floats((0..n).map(|i| i as f64 % 4.0 - 1.5).collect());
        let numeric = [
            ints(4, 3),
            ints(7, 5),
            floats(5, 1.5),
            floats(6, 0.75),
            dense_ints,
            dense_floats,
        ];
        use BinaryOp::*;
        for l in &numeric {
            for r in &numeric {
                for op in [Eq, Neq, Lt, Le, Gt, Ge] {
                    let got = eval_comparison(l, op, r).unwrap();
                    assert_same_column(&got, &reference_binary(l, op, r), op.sql());
                }
                for op in [Add, Sub, Mul, Div, Mod] {
                    let got = eval_arith(l, op, r).unwrap();
                    assert_same_column(&got, &reference_binary(l, op, r), op.sql());
                }
            }
        }
        let logical = [bools(4, 2), bools(6, 3), Column::from_bools(vec![true; n])];
        for l in &logical {
            for r in &logical {
                for op in [And, Or] {
                    let got = eval_logical(l, op, r).unwrap();
                    assert_same_column(&got, &reference_binary(l, op, r), op.sql());
                }
            }
        }
        // Null-free operands give an all-valid result; a predicate mask
        // drops nulls whatever sits under them.
        let dense = eval_comparison(&numeric[4], Lt, &numeric[5]).unwrap();
        assert!(dense.validity().all_valid());
        let t = Table::new(vec![("b", Column::Bool(vec![true; n], valid(4)))]).unwrap();
        let mask = eval_predicate_serial(&t, &Expr::col("b")).unwrap();
        assert_eq!(mask, (0..n).map(|i| i % 4 != 1).collect::<Vec<_>>());
    }

    #[test]
    fn cast_in_expression() {
        let e = Expr::col("a").cast(DataType::Str);
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Str("1".into()));
        assert_eq!(c.get(2), Value::Null);
    }
}
