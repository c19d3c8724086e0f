//! Vectorized expression evaluation.
//!
//! Null semantics follow SQL throughout: arithmetic and comparisons
//! propagate null, `AND`/`OR` use Kleene three-valued logic, and
//! `IS NULL` / `COALESCE` are the only constructs that observe nullness
//! directly.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::date::{days_from_ymd, ymd_from_days};
use crate::dtype::DataType;
use crate::error::{EngineError, Result};
use crate::expr::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::table::Table;
use crate::value::Value;

/// Evaluate an expression against a table, producing a column with one row
/// per table row. Literals broadcast to the table's length.
///
/// A table of more than one row morsel (see [`crate::parallel`]) evaluates
/// its morsels concurrently and stitches them back in order; the result is
/// bit-identical to [`eval_serial`] over the whole table because every
/// expression kernel is row-local.
pub fn eval(table: &Table, expr: &Expr) -> Result<Column> {
    let ranges = crate::parallel::morsels(table.num_rows());
    if ranges.len() > 1 && morsel_safe(expr) {
        return eval_morsel(table, expr, &ranges);
    }
    eval_serial(table, expr)
}

/// Serial expression evaluation (also the per-morsel worker body).
pub fn eval_serial(table: &Table, expr: &Expr) -> Result<Column> {
    let n = table.num_rows();
    match expr {
        Expr::Column(name) => Ok(table.column(name)?.clone()),
        Expr::Literal(v) => Ok(broadcast(v, n)),
        Expr::Binary { left, op, right } => {
            let l = eval_serial(table, left)?;
            let r = eval_serial(table, right)?;
            if op.is_logical() {
                eval_logical(&l, *op, &r)
            } else if op.is_comparison() {
                eval_comparison(&l, *op, &r)
            } else {
                eval_arith(&l, *op, &r)
            }
        }
        Expr::Unary { op, expr } => {
            let c = eval_serial(table, expr)?;
            match op {
                UnaryOp::Not => eval_not(&c),
                UnaryOp::Neg => eval_neg(&c),
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
            let cols: Vec<Column> = args
                .iter()
                .map(|a| eval_serial(table, a))
                .collect::<Result<_>>()?;
            eval_func(*func, &cols, n)
        }
        Expr::Cast { expr, to } => eval_serial(table, expr)?.cast(*to),
        Expr::IsNull(e) => {
            let c = eval_serial(table, e)?;
            Ok(Column::from_bools(
                c.validity().iter().map(|v| !v).collect(),
            ))
        }
        Expr::IsNotNull(e) => {
            let c = eval_serial(table, e)?;
            Ok(Column::from_bools(c.validity().iter().collect()))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let c = eval_serial(table, expr)?;
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
                return Ok(Column::Bool(data, valid));
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
            Ok(Column::Bool(data, valid))
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
                eval_not(&c)
            } else {
                Ok(c)
            }
        }
    }
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
    let c = eval_serial(table, expr)?;
    match &c {
        Column::Bool(data, valid) => Ok(data
            .iter()
            .zip(valid.iter())
            .map(|(&b, v)| v && b)
            .collect()),
        other => Err(EngineError::TypeMismatch {
            expected: DataType::Bool,
            actual: other.dtype(),
            context: "predicate".into(),
        }),
    }
}

fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Null => Column::nulls(DataType::Str, n),
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

fn eval_logical(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    let (ld, lv) = l.as_bools().ok_or_else(|| type_err(l, "logical operand"))?;
    let (rd, rv) = r.as_bools().ok_or_else(|| type_err(r, "logical operand"))?;
    check_len(l, r)?;
    let n = ld.len();
    let mut data = Vec::with_capacity(n);
    let mut valid = Bitmap::new_null(n);
    for i in 0..n {
        let a = lv.get(i).then(|| ld[i]);
        let b = rv.get(i).then(|| rd[i]);
        let out = match op {
            BinaryOp::And => kleene_and(a, b),
            BinaryOp::Or => kleene_or(a, b),
            _ => unreachable!(),
        };
        match out {
            Some(x) => {
                data.push(x);
                valid.set(i, true);
            }
            None => data.push(false),
        }
    }
    Ok(Column::Bool(data, valid))
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

fn eval_comparison(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    check_len(l, r)?;
    let n = l.len();
    use DataType as T;
    // Fast typed kernels for the common cases; the generic fallback covers
    // the rest via Value comparison.
    let cmp_ok = |ord: std::cmp::Ordering| -> bool {
        use std::cmp::Ordering::*;
        match op {
            BinaryOp::Eq => ord == Equal,
            BinaryOp::Neq => ord != Equal,
            BinaryOp::Lt => ord == Less,
            BinaryOp::Le => ord != Greater,
            BinaryOp::Gt => ord == Greater,
            BinaryOp::Ge => ord != Less,
            _ => unreachable!(),
        }
    };
    let mut data = Vec::with_capacity(n);
    let mut valid = Bitmap::new_null(n);
    match (l.dtype(), r.dtype()) {
        (T::Int, T::Int) => {
            let (a, av) = l.as_ints().unwrap();
            let (b, bv) = r.as_ints().unwrap();
            for i in 0..n {
                if av.get(i) && bv.get(i) {
                    data.push(cmp_ok(a[i].cmp(&b[i])));
                    valid.set(i, true);
                } else {
                    data.push(false);
                }
            }
        }
        (T::Str, T::Str) => {
            if let (Some((ca, da, av)), Some((cb, db, bv))) = (l.as_dict(), r.as_dict()) {
                if matches!(op, BinaryOp::Eq | BinaryOp::Neq) {
                    // Dict × dict equality: remap the right dictionary into
                    // the left's code space once (identity when shared),
                    // then compare integers per row.
                    let eq_wanted = op == BinaryOp::Eq;
                    let remap: Vec<i64> = if Arc::ptr_eq(da, db) {
                        (0..db.len() as i64).collect()
                    } else {
                        db.iter()
                            .map(|s| da.binary_search(s).map(|c| c as i64).unwrap_or(-1))
                            .collect()
                    };
                    for i in 0..n {
                        if av.get(i) && bv.get(i) {
                            let rc = remap.get(cb[i] as usize).copied().unwrap_or(-1);
                            data.push((ca[i] as i64 == rc) == eq_wanted);
                            valid.set(i, true);
                        } else {
                            data.push(false);
                        }
                    }
                    return Ok(Column::Bool(data, valid));
                }
                if Arc::ptr_eq(da, db) {
                    // Sorted dictionary: code order is lexicographic order,
                    // so ordering comparisons stay on the codes.
                    for i in 0..n {
                        if av.get(i) && bv.get(i) {
                            data.push(cmp_ok(ca[i].cmp(&cb[i])));
                            valid.set(i, true);
                        } else {
                            data.push(false);
                        }
                    }
                    return Ok(Column::Bool(data, valid));
                }
            }
            for i in 0..n {
                match (l.str_at(i), r.str_at(i)) {
                    (Some(a), Some(b)) => {
                        data.push(cmp_ok(a.cmp(b)));
                        valid.set(i, true);
                    }
                    _ => data.push(false),
                }
            }
        }
        (a, b) if a.unify(b).is_some() || (a.is_numeric() && b.is_numeric()) => {
            for i in 0..n {
                match l.get(i).partial_cmp_sql(&r.get(i)) {
                    Some(ord) => {
                        data.push(cmp_ok(ord));
                        valid.set(i, true);
                    }
                    None => data.push(false),
                }
            }
        }
        (a, b) => return Err(EngineError::eval(format!("cannot compare {a} with {b}"))),
    }
    Ok(Column::Bool(data, valid))
}

fn eval_arith(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    check_len(l, r)?;
    let n = l.len();
    use DataType as T;
    match (l.dtype(), r.dtype()) {
        // Integer arithmetic stays integral except division, which widens
        // to float for user-friendliness (GEL users expect 1/2 = 0.5).
        (T::Int, T::Int) if op != BinaryOp::Div => {
            let (a, av) = l.as_ints().unwrap();
            let (b, bv) = r.as_ints().unwrap();
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                if av.get(i) && bv.get(i) {
                    let out = match op {
                        BinaryOp::Add => Some(a[i].wrapping_add(b[i])),
                        BinaryOp::Sub => Some(a[i].wrapping_sub(b[i])),
                        BinaryOp::Mul => Some(a[i].wrapping_mul(b[i])),
                        BinaryOp::Mod => {
                            if b[i] == 0 {
                                None
                            } else {
                                Some(a[i].wrapping_rem(b[i]))
                            }
                        }
                        _ => unreachable!(),
                    };
                    match out {
                        Some(x) => {
                            data.push(x);
                            valid.set(i, true);
                        }
                        None => data.push(0),
                    }
                } else {
                    data.push(0);
                }
            }
            Ok(Column::Int(data, valid))
        }
        // Date arithmetic: Date ± Int days; Date - Date = Int days.
        (T::Date, T::Int) if matches!(op, BinaryOp::Add | BinaryOp::Sub) => {
            let (a, av) = l.as_dates().unwrap();
            let (b, bv) = r.as_ints().unwrap();
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                if av.get(i) && bv.get(i) {
                    let delta = b[i] as i32;
                    data.push(if op == BinaryOp::Add {
                        a[i].wrapping_add(delta)
                    } else {
                        a[i].wrapping_sub(delta)
                    });
                    valid.set(i, true);
                } else {
                    data.push(0);
                }
            }
            Ok(Column::Date(data, valid))
        }
        (T::Date, T::Date) if op == BinaryOp::Sub => {
            let (a, av) = l.as_dates().unwrap();
            let (b, bv) = r.as_dates().unwrap();
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                if av.get(i) && bv.get(i) {
                    data.push((a[i] - b[i]) as i64);
                    valid.set(i, true);
                } else {
                    data.push(0);
                }
            }
            Ok(Column::Int(data, valid))
        }
        // String concatenation via `+`.
        (T::Str, T::Str) if op == BinaryOp::Add => {
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                match (l.str_at(i), r.str_at(i)) {
                    (Some(a), Some(b)) => {
                        let mut s = String::with_capacity(a.len() + b.len());
                        s.push_str(a);
                        s.push_str(b);
                        data.push(s);
                        valid.set(i, true);
                    }
                    _ => data.push(String::new()),
                }
            }
            Ok(Column::Str(data, valid))
        }
        (a, b) if a.is_numeric() && b.is_numeric() => {
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::new_null(n);
            for i in 0..n {
                match (l.numeric_at(i), r.numeric_at(i)) {
                    (Some(x), Some(y)) => {
                        let out = match op {
                            BinaryOp::Add => Some(x + y),
                            BinaryOp::Sub => Some(x - y),
                            BinaryOp::Mul => Some(x * y),
                            BinaryOp::Div => (y != 0.0).then(|| x / y),
                            BinaryOp::Mod => (y != 0.0).then(|| x % y),
                            _ => unreachable!(),
                        };
                        match out {
                            Some(v) => {
                                data.push(v);
                                valid.set(i, true);
                            }
                            None => data.push(0.0),
                        }
                    }
                    _ => data.push(0.0),
                }
            }
            Ok(Column::Float(data, valid))
        }
        (a, b) => Err(EngineError::eval(format!(
            "arithmetic {:?} not defined for {a} and {b}",
            op.sql()
        ))),
    }
}

fn eval_func(func: ScalarFunc, cols: &[Column], n: usize) -> Result<Column> {
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
                scalar_int(&cols[1], "round digits")?
            } else {
                0
            };
            let factor = 10f64.powi(digits as i32);
            map_numeric(&cols[0], n, move |x| Some((x * factor).round() / factor))
        }
        Pow => binary_numeric(&cols[0], &cols[1], n, |a, b| {
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
            binary_numeric(c, &cols[1], n, |x, w| {
                (w > 0.0).then(|| (x / w).floor() * w)
            })
        }
        Lower | Upper | Trim => map_str(&cols[0], n, |s| match func {
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
                return Err(type_err(&cols[0], "substring"));
            }
            let start = scalar_int(&cols[1], "substring start")?;
            let len = scalar_int(&cols[2], "substring length")?;
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
                .ok_or_else(|| type_err(&cols[0], func.name()))?;
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
                .ok_or_else(|| type_err(&cols[0], "if condition"))?;
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

    #[test]
    fn cast_in_expression() {
        let e = Expr::col("a").cast(DataType::Str);
        let c = eval(&t(), &e).unwrap();
        assert_eq!(c.get(0), Value::Str("1".into()));
        assert_eq!(c.get(2), Value::Null);
    }
}
