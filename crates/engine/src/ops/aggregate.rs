//! Group-by aggregation.
//!
//! Implements the `Compute the <aggregate> of <column> for each <group>`
//! skill (Table 1's data-wrangling row and the Figure 3 walkthrough).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::hash::FxHashMap;
use crate::parallel;
use crate::table::Table;
use crate::value::Value;

/// Aggregate functions available to the Compute skill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Count of non-null values of the argument column.
    Count,
    /// Count of rows in the group (the UI's "CountOfRecords").
    CountRecords,
    /// Count of distinct non-null values.
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
    Median,
    /// Sample standard deviation.
    StdDev,
    /// Sample variance.
    Variance,
    /// First value in input order.
    First,
    /// Last value in input order.
    Last,
}

impl AggFunc {
    /// Canonical name used in SQL generation and GEL sentences.
    pub fn name(self) -> &'static str {
        use AggFunc::*;
        match self {
            Count => "count",
            CountRecords => "count_records",
            CountDistinct => "count_distinct",
            Sum => "sum",
            Avg => "avg",
            Min => "min",
            Max => "max",
            Median => "median",
            StdDev => "stddev",
            Variance => "variance",
            First => "first",
            Last => "last",
        }
    }

    /// GEL spelling ("the average of", "the count of", ...).
    pub fn gel_name(self) -> &'static str {
        use AggFunc::*;
        match self {
            Count => "count",
            CountRecords => "count of records",
            CountDistinct => "distinct count",
            Sum => "sum",
            Avg => "average",
            Min => "minimum",
            Max => "maximum",
            Median => "median",
            StdDev => "standard deviation",
            Variance => "variance",
            First => "first",
            Last => "last",
        }
    }

    /// Parse from either the canonical or the GEL spelling.
    pub fn from_name(s: &str) -> Option<AggFunc> {
        use AggFunc::*;
        let all = [
            Count,
            CountRecords,
            CountDistinct,
            Sum,
            Avg,
            Min,
            Max,
            Median,
            StdDev,
            Variance,
            First,
            Last,
        ];
        let lower = s.trim().to_ascii_lowercase();
        all.into_iter().find(|f| {
            f.name() == lower
                || f.gel_name() == lower
                || (lower == "mean" && *f == Avg)
                || (lower == "average" && *f == Avg)
        })
    }

    /// Whether this aggregate requires a numeric argument.
    pub fn requires_numeric(self) -> bool {
        use AggFunc::*;
        matches!(self, Sum | Avg | Median | StdDev | Variance)
    }
}

/// One aggregate to compute: function, argument column (ignored for
/// `CountRecords`), and the output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub column: Option<String>,
    pub output: String,
}

impl AggSpec {
    /// Aggregate over a column with an explicit output name.
    pub fn new(func: AggFunc, column: impl Into<String>, output: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            column: Some(column.into()),
            output: output.into(),
        }
    }

    /// Count of records with an explicit output name.
    pub fn count_records(output: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::CountRecords,
            column: None,
            output: output.into(),
        }
    }

    /// Default output name, e.g. `AverageAge` for avg(Age) — matching the
    /// platform's auto-naming of computed columns.
    pub fn default_output(func: AggFunc, column: Option<&str>) -> String {
        let fname = match func {
            AggFunc::CountRecords => return "CountOfRecords".to_string(),
            f => f.name(),
        };
        let mut out = String::new();
        let mut cap = true;
        for ch in fname.chars() {
            if ch == '_' {
                cap = true;
            } else if cap {
                out.extend(ch.to_uppercase());
                cap = false;
            } else {
                out.push(ch);
            }
        }
        if let Some(c) = column {
            out.push_str(&sanitize(c));
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Hashable group key: a row of values with canonical float bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey(Vec<KeyPart>);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
    Date(i32),
}

fn key_part(v: &Value) -> KeyPart {
    match v {
        Value::Null => KeyPart::Null,
        Value::Bool(b) => KeyPart::Bool(*b),
        Value::Int(i) => KeyPart::Int(*i),
        Value::Float(f) => {
            // Normalize -0.0 and NaN so equal-ish keys group together.
            let f = if *f == 0.0 { 0.0 } else { *f };
            let f = if f.is_nan() { f64::NAN } else { f };
            KeyPart::Float(f.to_bits())
        }
        Value::Str(s) => KeyPart::Str(s.clone()),
        Value::Date(d) => KeyPart::Date(*d),
    }
}

/// Incremental accumulator for one aggregate within one group.
#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    CountRecords(u64),
    CountDistinct(Vec<KeyPart>),
    Sum {
        sum: f64,
        seen: bool,
        int: bool,
        isum: i64,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    Values(Vec<f64>),
    Moments {
        n: u64,
        mean: f64,
        m2: f64,
    },
    First(Option<Value>),
    Last(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc, int_input: bool) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountRecords => Acc::CountRecords(0),
            AggFunc::CountDistinct => Acc::CountDistinct(Vec::new()),
            AggFunc::Sum => Acc::Sum {
                sum: 0.0,
                seen: false,
                int: int_input,
                isum: 0,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => Acc::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Median => Acc::Values(Vec::new()),
            AggFunc::StdDev | AggFunc::Variance => Acc::Moments {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
            AggFunc::First => Acc::First(None),
            AggFunc::Last => Acc::Last(None),
        }
    }

    fn update(&mut self, col: Option<&Column>, row: usize) {
        match self {
            Acc::CountRecords(n) => *n += 1,
            Acc::Count(n) => {
                if let Some(c) = col {
                    if c.validity().get(row) {
                        *n += 1;
                    }
                }
            }
            Acc::CountDistinct(seen) => {
                if let Some(c) = col {
                    let v = c.get(row);
                    if !v.is_null() {
                        let k = key_part(&v);
                        if !seen.contains(&k) {
                            seen.push(k);
                        }
                    }
                }
            }
            Acc::Sum {
                sum,
                seen,
                int,
                isum,
            } => {
                if let Some(x) = col.and_then(|c| c.numeric_at(row)) {
                    *sum += x;
                    if *int {
                        *isum = isum.wrapping_add(x as i64);
                    }
                    *seen = true;
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(x) = col.and_then(|c| c.numeric_at(row)) {
                    *sum += x;
                    *n += 1;
                }
            }
            Acc::MinMax { best, is_min } => {
                if let Some(c) = col {
                    let v = c.get(row);
                    if v.is_null() {
                        return;
                    }
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            let ord = v.cmp_total(b);
                            if *is_min {
                                ord == std::cmp::Ordering::Less
                            } else {
                                ord == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            Acc::Values(vals) => {
                if let Some(x) = col.and_then(|c| c.numeric_at(row)) {
                    vals.push(x);
                }
            }
            Acc::Moments { n, mean, m2 } => {
                // Welford's online algorithm for numerically stable variance.
                if let Some(x) = col.and_then(|c| c.numeric_at(row)) {
                    *n += 1;
                    let delta = x - *mean;
                    *mean += delta / *n as f64;
                    *m2 += delta * (x - *mean);
                }
            }
            Acc::First(v) => {
                if v.is_none() {
                    if let Some(c) = col {
                        let x = c.get(row);
                        if !x.is_null() {
                            *v = Some(x);
                        }
                    }
                }
            }
            Acc::Last(v) => {
                if let Some(c) = col {
                    let x = c.get(row);
                    if !x.is_null() {
                        *v = Some(x);
                    }
                }
            }
        }
    }

    /// Fold a morsel-local accumulator for the same group into this one.
    /// `other` must come from rows strictly after this accumulator's rows,
    /// so order-sensitive aggregates (first/last) stay correct.
    fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::Count(n), Acc::Count(m)) => *n += m,
            (Acc::CountRecords(n), Acc::CountRecords(m)) => *n += m,
            (Acc::CountDistinct(seen), Acc::CountDistinct(more)) => {
                for k in more {
                    if !seen.contains(&k) {
                        seen.push(k);
                    }
                }
            }
            (
                Acc::Sum {
                    sum, seen, isum, ..
                },
                Acc::Sum {
                    sum: sum_b,
                    seen: seen_b,
                    isum: isum_b,
                    ..
                },
            ) => {
                *sum += sum_b;
                *isum = isum.wrapping_add(isum_b);
                *seen |= seen_b;
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: sum_b, n: n_b }) => {
                *sum += sum_b;
                *n += n_b;
            }
            (Acc::MinMax { best, is_min }, Acc::MinMax { best: best_b, .. }) => {
                if let Some(v) = best_b {
                    let replace = match best {
                        None => true,
                        Some(cur) => {
                            let ord = v.cmp_total(cur);
                            if *is_min {
                                ord == std::cmp::Ordering::Less
                            } else {
                                ord == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (Acc::Values(vals), Acc::Values(more)) => vals.extend(more),
            (
                Acc::Moments { n, mean, m2 },
                Acc::Moments {
                    n: n_b,
                    mean: mean_b,
                    m2: m2_b,
                },
            ) => {
                // Parallel Welford (Chan et al.): exact in n and mean,
                // numerically close to the serial update in m2.
                if n_b == 0 {
                    // Nothing to fold in.
                } else if *n == 0 {
                    *n = n_b;
                    *mean = mean_b;
                    *m2 = m2_b;
                } else {
                    let na = *n as f64;
                    let nb = n_b as f64;
                    let total = na + nb;
                    let delta = mean_b - *mean;
                    *mean += delta * nb / total;
                    *m2 += m2_b + delta * delta * na * nb / total;
                    *n += n_b;
                }
            }
            (Acc::First(v), Acc::First(w)) => {
                if v.is_none() {
                    *v = w;
                }
            }
            (Acc::Last(v), Acc::Last(w)) => {
                if w.is_some() {
                    *v = w;
                }
            }
            _ => unreachable!("merging accumulators of different aggregates"),
        }
    }

    fn finish(self, func: AggFunc) -> Value {
        match self {
            Acc::Count(n) | Acc::CountRecords(n) => Value::Int(n as i64),
            Acc::CountDistinct(seen) => Value::Int(seen.len() as i64),
            Acc::Sum {
                sum,
                seen,
                int,
                isum,
            } => {
                if !seen {
                    Value::Null
                } else if int {
                    Value::Int(isum)
                } else {
                    Value::Float(sum)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::MinMax { best, .. } => best.map_or(Value::Null, |v| v),
            Acc::Values(mut vals) => {
                if vals.is_empty() {
                    return Value::Null;
                }
                vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let mid = vals.len() / 2;
                Value::Float(if vals.len() % 2 == 1 {
                    vals[mid]
                } else {
                    (vals[mid - 1] + vals[mid]) / 2.0
                })
            }
            Acc::Moments { n, m2, .. } => {
                if n < 2 {
                    Value::Null
                } else {
                    let var = m2 / (n - 1) as f64;
                    if func == AggFunc::Variance {
                        Value::Float(var)
                    } else {
                        Value::Float(var.sqrt())
                    }
                }
            }
            Acc::First(v) | Acc::Last(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Resolved group-by inputs: key columns, output key names, and the
/// argument column (if any) of each aggregate.
struct GroupInputs<'t> {
    key_cols: Vec<&'t Column>,
    key_names: Vec<String>,
    agg_cols: Vec<Option<&'t Column>>,
}

fn resolve_inputs<'t>(
    table: &'t Table,
    keys: &[&str],
    aggs: &[AggSpec],
) -> Result<GroupInputs<'t>> {
    let key_cols: Vec<&Column> = keys
        .iter()
        .map(|k| table.column(k))
        .collect::<Result<_>>()?;
    let key_names: Vec<String> = keys
        .iter()
        .map(|k| {
            table
                .schema()
                .field(k)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| k.to_string())
        })
        .collect();
    let agg_cols: Vec<Option<&Column>> = aggs
        .iter()
        .map(|a| match (&a.column, a.func) {
            (_, AggFunc::CountRecords) => Ok(None),
            (Some(c), _) => {
                let col = table.column(c)?;
                if a.func.requires_numeric() && !col.dtype().is_numeric() {
                    return Err(EngineError::invalid_argument(format!(
                        "{} requires a numeric column, but {c} is {}",
                        a.func.name(),
                        col.dtype()
                    )));
                }
                Ok(Some(col))
            }
            (None, f) => Err(EngineError::invalid_argument(format!(
                "aggregate {} requires a column",
                f.name()
            ))),
        })
        .collect::<Result<_>>()?;
    Ok(GroupInputs {
        key_cols,
        key_names,
        agg_cols,
    })
}

fn new_accs(aggs: &[AggSpec], agg_cols: &[Option<&Column>]) -> Vec<Acc> {
    aggs.iter()
        .zip(agg_cols)
        .map(|(a, c)| {
            let int_input = c.is_some_and(|c| c.dtype() == crate::dtype::DataType::Int);
            Acc::new(a.func, int_input)
        })
        .collect()
}

fn assemble_output(
    inputs: &GroupInputs<'_>,
    group_order: &[GroupKey],
    accs: Vec<Vec<Acc>>,
    aggs: &[AggSpec],
) -> Result<Table> {
    let mut out = Table::empty();
    for (ki, name) in inputs.key_names.iter().enumerate() {
        let mut col = Column::empty(inputs.key_cols[ki].dtype());
        for key in group_order {
            let v = part_to_value(&key.0[ki]);
            col.push_value(&v)?;
        }
        out.add_column(name, col)?;
    }
    for (ai, spec) in aggs.iter().enumerate() {
        // Type the output from the spec, never from value inference: a
        // group set whose aggregate values are all null (or empty) must
        // still produce the dtype a non-null group would, so partial
        // results from disjoint row subsets always concatenate.
        let dtype = agg_output_dtype(spec.func, inputs.agg_cols[ai].map(|c| c.dtype()));
        let mut col = Column::empty(dtype);
        for group in &accs {
            col.push_value(&group[ai].clone().finish(spec.func))?;
        }
        out.add_column(&spec.output, col)?;
    }
    Ok(out)
}

/// The dtype [`Acc::finish`] produces for `func` over an `input`-typed
/// argument column, independent of whether any group has a non-null
/// result.
fn agg_output_dtype(
    func: AggFunc,
    input: Option<crate::dtype::DataType>,
) -> crate::dtype::DataType {
    use crate::dtype::DataType;
    match func {
        AggFunc::Count | AggFunc::CountRecords | AggFunc::CountDistinct => DataType::Int,
        AggFunc::Avg | AggFunc::Median | AggFunc::StdDev | AggFunc::Variance => DataType::Float,
        AggFunc::Sum => {
            if input == Some(DataType::Int) {
                DataType::Int
            } else {
                DataType::Float
            }
        }
        AggFunc::Min | AggFunc::Max | AggFunc::First | AggFunc::Last => {
            input.unwrap_or(DataType::Str)
        }
    }
}

/// Morsel-local phase-1 result: one representative row index per group
/// (in first-encounter order) plus that group's accumulators.
struct MorselGroups {
    reps: Vec<usize>,
    accs: Vec<Vec<Acc>>,
}

/// Group `table` by `keys` and compute `aggs` within each group.
///
/// With an empty key list the whole table forms one group (global
/// aggregates). Output columns are the keys (original casing) followed by
/// one column per aggregate. Groups appear in first-encounter order, which
/// keeps results deterministic.
///
/// Aggregation is two-phase over row morsels (see [`crate::parallel`]):
/// each morsel aggregates its own row range into morsel-local accumulators
/// which are then folded together in morsel order, so first-encounter group
/// order never depends on the morsel count (morsels are contiguous
/// ascending ranges). A single morsel folds into nothing, which makes its
/// float results plain sequential accumulation.
pub fn group_by(table: &Table, keys: &[&str], aggs: &[AggSpec]) -> Result<Table> {
    if aggs.is_empty() {
        return Err(EngineError::invalid_argument(
            "group_by requires at least one aggregate",
        ));
    }
    let inputs = resolve_inputs(table, keys, aggs)?;
    let ranges = parallel::morsels(table.num_rows());

    // Phase 1: every morsel builds dictionary-coded group ids for its row
    // range (no per-row key materialization) and aggregates locally.
    let parts: Vec<MorselGroups> = parallel::run_morsels(&ranges, |r| {
        let start = r.start;
        let gids = encode_groups(&inputs.key_cols, r);
        let mut reps: Vec<usize> = Vec::new();
        for (off, &g) in gids.iter().enumerate() {
            // Codes are assigned densely in first-encounter order, so a
            // group's first row is the first row whose gid == reps.len().
            if g as usize == reps.len() {
                reps.push(start + off);
            }
        }
        let mut accs: Vec<Vec<Acc>> = (0..reps.len())
            .map(|_| new_accs(aggs, &inputs.agg_cols))
            .collect();
        for (off, &g) in gids.iter().enumerate() {
            let row = start + off;
            for (acc, col) in accs[g as usize].iter_mut().zip(&inputs.agg_cols) {
                acc.update(*col, row);
            }
        }
        MorselGroups { reps, accs }
    });

    // Phase 2: fold morsel-local groups together in morsel order. Keys are
    // materialized once per (morsel, group) — never per row.
    let mut group_index: HashMap<GroupKey, usize> = HashMap::new();
    let mut group_order: Vec<GroupKey> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for part in parts {
        for (local, rep) in part.accs.into_iter().zip(part.reps) {
            let key = GroupKey(
                inputs
                    .key_cols
                    .iter()
                    .map(|c| key_part(&c.get(rep)))
                    .collect(),
            );
            match group_index.get(&key) {
                Some(&g) => {
                    for (dst, src) in accs[g].iter_mut().zip(local) {
                        dst.merge(src);
                    }
                }
                None => {
                    group_index.insert(key.clone(), group_order.len());
                    group_order.push(key);
                    accs.push(local);
                }
            }
        }
    }

    // An empty key list over a non-empty table always yields exactly one
    // group from phase 1; an empty table has no morsels, so its single
    // keyless group (count 0, sum/avg null) is seeded here.
    if keys.is_empty() && accs.is_empty() {
        group_order.push(GroupKey(Vec::new()));
        accs.push(new_accs(aggs, &inputs.agg_cols));
    }
    assemble_output(&inputs, &group_order, accs, aggs)
}

/// Dictionary-code the composite group key of each row in `range` into a
/// dense id, assigned in first-encounter order.
pub(crate) fn encode_groups(key_cols: &[&Column], range: Range<usize>) -> Vec<u32> {
    let len = range.end - range.start;
    if key_cols.is_empty() {
        return vec![0; len];
    }
    let mut gids = encode_key_column(key_cols[0], range.clone());
    for col in &key_cols[1..] {
        let codes = encode_key_column(col, range.clone());
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        let mut next = 0u32;
        for (g, c) in gids.iter_mut().zip(codes) {
            let composite = ((*g as u64) << 32) | c as u64;
            *g = match map.entry(composite) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = next;
                    next += 1;
                    *e.insert(id)
                }
            };
        }
    }
    gids
}

/// Dictionary-code one key column over `range` without materializing
/// values: strings are compared by reference, floats by normalized bits
/// (matching [`key_part`]), and null gets its own code.
fn encode_key_column(col: &Column, range: Range<usize>) -> Vec<u32> {
    let mut codes = Vec::with_capacity(range.end - range.start);
    let mut null_code: Option<u32> = None;
    let mut next = 0u32;
    macro_rules! encode {
        ($v:ident, $b:ident, $key:expr) => {
            let mut map = FxHashMap::default();
            for i in range {
                let code = if $b.get(i) {
                    match map.entry($key(&$v[i])) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            let id = next;
                            next += 1;
                            *e.insert(id)
                        }
                    }
                } else {
                    *null_code.get_or_insert_with(|| {
                        let id = next;
                        next += 1;
                        id
                    })
                };
                codes.push(code);
            }
        };
    }
    match col {
        Column::Bool(v, b) => {
            encode!(v, b, |x: &bool| *x);
        }
        Column::Int(v, b) => {
            encode!(v, b, |x: &i64| *x);
        }
        Column::Float(v, b) => {
            encode!(v, b, |x: &f64| {
                // Same normalization as key_part: -0.0 folds into 0.0 and
                // every NaN payload groups together.
                let f = if *x == 0.0 { 0.0 } else { *x };
                let f = if f.is_nan() { f64::NAN } else { f };
                f.to_bits()
            });
        }
        Column::Str(v, b) => {
            // Written out (not via the macro) so the map can key on `&str`
            // borrowed from the column without cloning.
            let mut map: FxHashMap<&str, u32> = FxHashMap::default();
            for i in range {
                let code = if b.get(i) {
                    match map.entry(v[i].as_str()) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            let id = next;
                            next += 1;
                            *e.insert(id)
                        }
                    }
                } else {
                    *null_code.get_or_insert_with(|| {
                        let id = next;
                        next += 1;
                        id
                    })
                };
                codes.push(code);
            }
            return codes;
        }
        Column::Dict(dict_codes, dict, b) => {
            // The column is already dictionary-coded; remap its (dense,
            // bounded) codes to first-encounter group ids with a flat
            // array instead of a hash map. Slot `dict.len()` is null.
            const UNSEEN: u32 = u32::MAX;
            let mut remap = vec![UNSEEN; dict.len() + 1];
            for i in range {
                let slot = if b.get(i) {
                    dict_codes[i] as usize
                } else {
                    dict.len()
                };
                let code = if remap[slot] == UNSEEN {
                    let id = next;
                    next += 1;
                    remap[slot] = id;
                    id
                } else {
                    remap[slot]
                };
                codes.push(code);
            }
            return codes;
        }
        Column::Date(v, b) => {
            encode!(v, b, |x: &i32| *x);
        }
    }
    codes
}

fn part_to_value(p: &KeyPart) -> Value {
    match p {
        KeyPart::Null => Value::Null,
        KeyPart::Bool(b) => Value::Bool(*b),
        KeyPart::Int(i) => Value::Int(*i),
        KeyPart::Float(bits) => Value::Float(f64::from_bits(*bits)),
        KeyPart::Str(s) => Value::Str(s.clone()),
        KeyPart::Date(d) => Value::Date(*d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Row-at-a-time reference group-by: one materialized `GroupKey` per row
    /// found by linear search, one accumulator update per row; no hashing,
    /// no group encoding, no morsels and no merging.
    fn group_by_reference(table: &Table, keys: &[&str], aggs: &[AggSpec]) -> Result<Table> {
        let inputs = resolve_inputs(table, keys, aggs)?;
        let mut group_order: Vec<GroupKey> = Vec::new();
        let mut accs: Vec<Vec<Acc>> = Vec::new();
        // The global group exists even when there are no rows.
        if keys.is_empty() {
            group_order.push(GroupKey(Vec::new()));
            accs.push(new_accs(aggs, &inputs.agg_cols));
        }
        for row in 0..table.num_rows() {
            let key = GroupKey(
                inputs
                    .key_cols
                    .iter()
                    .map(|c| key_part(&c.get(row)))
                    .collect(),
            );
            let gid = match group_order.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    group_order.push(key);
                    accs.push(new_accs(aggs, &inputs.agg_cols));
                    accs.len() - 1
                }
            };
            for (acc, col) in accs[gid].iter_mut().zip(&inputs.agg_cols) {
                acc.update(*col, row);
            }
        }
        assemble_output(&inputs, &group_order, accs, aggs)
    }

    fn opt_int() -> impl Strategy<Value = Option<i64>> {
        prop::option::of(-5i64..20)
    }

    fn opt_key() -> impl Strategy<Value = Option<String>> {
        prop::option::of("[a-c]{1,2}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Exact equality, Welford moments included: the generated tables
        // are one morsel, and one morsel is sequential accumulation.
        #[test]
        fn group_by_parallel_body_matches_row_at_a_time_reference(
            rows in prop::collection::vec((opt_key(), opt_int(), opt_int()), 0..300),
        ) {
            let t = Table::new(vec![
                ("k", Column::from_opt_strs(rows.iter().map(|(k, _, _)| k.clone()).collect())),
                ("v", Column::from_opt_ints(rows.iter().map(|(_, v, _)| *v).collect())),
                (
                    "f",
                    Column::from_opt_floats(
                        rows.iter().map(|(_, _, f)| f.map(|x| x as f64 / 3.0)).collect(),
                    ),
                ),
            ])
            .unwrap();
            let aggs = [
                AggSpec::count_records("n"),
                AggSpec::new(AggFunc::Count, "v", "cnt"),
                AggSpec::new(AggFunc::CountDistinct, "v", "dist"),
                AggSpec::new(AggFunc::Sum, "v", "sum"),
                AggSpec::new(AggFunc::Sum, "f", "fsum"),
                AggSpec::new(AggFunc::Avg, "f", "avg"),
                AggSpec::new(AggFunc::Min, "v", "lo"),
                AggSpec::new(AggFunc::Max, "v", "hi"),
                AggSpec::new(AggFunc::Median, "f", "mid"),
                AggSpec::new(AggFunc::Variance, "f", "var"),
                AggSpec::new(AggFunc::StdDev, "v", "sd"),
                AggSpec::new(AggFunc::First, "v", "first"),
                AggSpec::new(AggFunc::Last, "v", "last"),
            ];
            // Single key, multi-key, and the global (empty-key) group —
            // which is one row even when `rows` is empty.
            for keys in [&["k"][..], &["k", "v"], &[]] {
                prop_assert_eq!(
                    group_by(&t, keys, &aggs).unwrap(),
                    group_by_reference(&t, keys, &aggs).unwrap()
                );
            }
        }
    }

    #[test]
    fn empty_input_global_aggregate_is_one_row() {
        let empty = parties().head(0);
        let aggs = [
            AggSpec::count_records("n"),
            AggSpec::new(AggFunc::Count, "age", "cnt"),
            AggSpec::new(AggFunc::Sum, "age", "sum"),
            AggSpec::new(AggFunc::Avg, "age", "avg"),
        ];
        let out = group_by(&empty, &[], &aggs).unwrap();
        assert_eq!(out, group_by_reference(&empty, &[], &aggs).unwrap());
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(0));
        assert_eq!(out.value(0, "cnt").unwrap(), Value::Int(0));
        assert_eq!(out.value(0, "sum").unwrap(), Value::Null);
        assert_eq!(out.value(0, "avg").unwrap(), Value::Null);
        // With keys, no rows means no groups.
        let keyed = group_by(&empty, &["party_sobriety"], &aggs).unwrap();
        assert_eq!(keyed.num_rows(), 0);
        assert_eq!(keyed.schema().names().len(), 5);
    }

    #[test]
    fn single_row_input() {
        let one = parties().head(1);
        let aggs = [
            AggSpec::new(AggFunc::Sum, "age", "sum"),
            AggSpec::new(AggFunc::StdDev, "age", "sd"),
        ];
        for keys in [&["party_sobriety"][..], &[]] {
            let out = group_by(&one, keys, &aggs).unwrap();
            assert_eq!(out, group_by_reference(&one, keys, &aggs).unwrap());
            assert_eq!(out.num_rows(), 1);
            assert_eq!(out.value(0, "sum").unwrap(), Value::Int(20));
            assert_eq!(out.value(0, "sd").unwrap(), Value::Null);
        }
    }

    fn parties() -> Table {
        Table::new(vec![
            (
                "party_sobriety",
                Column::from_opt_strs(vec![
                    Some("sober".into()),
                    Some("sober".into()),
                    Some("drinking".into()),
                    None,
                    Some("drinking".into()),
                ]),
            ),
            (
                "case_id",
                Column::from_opt_ints(vec![Some(1), Some(2), Some(3), Some(4), None]),
            ),
            (
                "age",
                Column::from_opt_ints(vec![Some(20), Some(40), Some(30), Some(50), None]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn count_for_each_group() {
        // "Compute the count of case_id for each party_sobriety" — Fig. 3.
        let out = group_by(
            &parties(),
            &["party_sobriety"],
            &[AggSpec::new(AggFunc::Count, "case_id", "NumberOfCases")],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(
            out.schema().names(),
            vec!["party_sobriety", "NumberOfCases"]
        );
        // Group order = first encounter: sober, drinking, null.
        assert_eq!(out.value(0, "NumberOfCases").unwrap(), Value::Int(2));
        assert_eq!(out.value(1, "NumberOfCases").unwrap(), Value::Int(1)); // null case_id excluded
        assert_eq!(out.value(2, "party_sobriety").unwrap(), Value::Null); // null is its own group
        assert_eq!(out.value(2, "NumberOfCases").unwrap(), Value::Int(1));
    }

    #[test]
    fn count_records_includes_nulls() {
        let out = group_by(
            &parties(),
            &["party_sobriety"],
            &[AggSpec::count_records("CountOfRecords")],
        )
        .unwrap();
        assert_eq!(out.value(1, "CountOfRecords").unwrap(), Value::Int(2));
    }

    #[test]
    fn global_aggregates_no_keys() {
        let out = group_by(
            &parties(),
            &[],
            &[
                AggSpec::new(AggFunc::Sum, "age", "TotalAge"),
                AggSpec::new(AggFunc::Avg, "age", "AvgAge"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "TotalAge").unwrap(), Value::Int(140));
        assert_eq!(out.value(0, "AvgAge").unwrap(), Value::Float(35.0));
    }

    #[test]
    fn min_max_median() {
        let out = group_by(
            &parties(),
            &[],
            &[
                AggSpec::new(AggFunc::Min, "age", "lo"),
                AggSpec::new(AggFunc::Max, "age", "hi"),
                AggSpec::new(AggFunc::Median, "age", "mid"),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "lo").unwrap(), Value::Int(20));
        assert_eq!(out.value(0, "hi").unwrap(), Value::Int(50));
        assert_eq!(out.value(0, "mid").unwrap(), Value::Float(35.0));
    }

    #[test]
    fn stddev_variance_welford() {
        let t = Table::new(vec![(
            "x",
            Column::from_floats(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
        )])
        .unwrap();
        let out = group_by(
            &t,
            &[],
            &[
                AggSpec::new(AggFunc::Variance, "x", "var"),
                AggSpec::new(AggFunc::StdDev, "x", "sd"),
            ],
        )
        .unwrap();
        let var = out.value(0, "var").unwrap().as_f64().unwrap();
        assert!((var - 32.0 / 7.0).abs() < 1e-12);
        let sd = out.value(0, "sd").unwrap().as_f64().unwrap();
        assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn count_distinct() {
        let out = group_by(
            &parties(),
            &[],
            &[AggSpec::new(
                AggFunc::CountDistinct,
                "party_sobriety",
                "kinds",
            )],
        )
        .unwrap();
        assert_eq!(out.value(0, "kinds").unwrap(), Value::Int(2));
    }

    #[test]
    fn first_last_skip_nulls() {
        let out = group_by(
            &parties(),
            &[],
            &[
                AggSpec::new(AggFunc::First, "party_sobriety", "f"),
                AggSpec::new(AggFunc::Last, "party_sobriety", "l"),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "f").unwrap(), Value::Str("sober".into()));
        assert_eq!(out.value(0, "l").unwrap(), Value::Str("drinking".into()));
    }

    #[test]
    fn multi_key_grouping() {
        let t = Table::new(vec![
            ("a", Column::from_strs(vec!["x", "x", "y", "y"])),
            ("b", Column::from_ints(vec![1, 2, 1, 1])),
        ])
        .unwrap();
        let out = group_by(&t, &["a", "b"], &[AggSpec::count_records("n")]).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(2, "n").unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_over_empty_group_is_null_and_numeric_required() {
        let empty = parties().head(0);
        let out = group_by(&empty, &[], &[AggSpec::new(AggFunc::Sum, "age", "s")]).unwrap();
        assert_eq!(out.value(0, "s").unwrap(), Value::Null);
        assert!(group_by(
            &parties(),
            &[],
            &[AggSpec::new(AggFunc::Sum, "party_sobriety", "s")]
        )
        .is_err());
    }

    #[test]
    fn default_output_names() {
        assert_eq!(AggSpec::default_output(AggFunc::Avg, Some("Age")), "AvgAge");
        assert_eq!(
            AggSpec::default_output(AggFunc::CountRecords, None),
            "CountOfRecords"
        );
        assert_eq!(
            AggSpec::default_output(AggFunc::CountDistinct, Some("x")),
            "CountDistinctx"
        );
    }

    #[test]
    fn agg_func_parse() {
        assert_eq!(AggFunc::from_name("average"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("Mean"), Some(AggFunc::Avg));
        assert_eq!(
            AggFunc::from_name("count of records"),
            Some(AggFunc::CountRecords)
        );
        assert_eq!(AggFunc::from_name("bogus"), None);
    }
}
