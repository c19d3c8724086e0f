//! Group-by aggregation.
//!
//! Implements the `Compute the <aggregate> of <column> for each <group>`
//! skill (Table 1's data-wrangling row and the Figure 3 walkthrough). Group
//! ids — here, in `distinct` and in `pivot` — are the key encoder's
//! (`super::keys`) with nulls as keys: dense, in first-encounter order.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::dtype::DataType;
use crate::error::{EngineError, Result};
use crate::governor::{MemContext, MemoryGovernor, Reservation};
use crate::parallel;
use crate::table::Table;
use crate::value::cmp_f64_total;

use super::keys::{first_rows, Encoder, KeyCol, Rows};
use super::spill::{group_state_bytes, group_widths, split, Ids, Partitioned, Spill};

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

    /// The dtype of this aggregate's output column over an `input`-typed
    /// argument column (`None` when it reads none), whether or not any
    /// group has a non-null result.
    pub fn output_dtype(self, input: Option<DataType>) -> DataType {
        use AggFunc::*;
        match self {
            Count | CountRecords | CountDistinct => DataType::Int,
            Avg | Median | StdDev | Variance => DataType::Float,
            Sum if input == Some(DataType::Int) => DataType::Int,
            Sum => DataType::Float,
            Min | Max | First | Last => input.unwrap_or(DataType::Str),
        }
    }

    /// Whether this aggregate over an `input`-typed argument comes out the
    /// same, bit for bit, however its rows are split into morsels or
    /// blocks: counts, winning rows, medians and integer sums do; float
    /// sums, averages (accumulated in `f64`) and Welford's variance add in
    /// an order the split decides.
    pub fn splits_exactly(self, input: Option<DataType>) -> bool {
        use AggFunc::*;
        match self {
            Count | CountRecords | CountDistinct | Min | Max | First | Last | Median => true,
            Sum => input == Some(DataType::Int),
            Avg | StdDev | Variance => false,
        }
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

/// Column-major accumulators of one aggregate: one slot per dense group id
/// in each vector its function uses, the other vectors stay empty.
///
/// | function | state |
/// |---|---|
/// | `Count`, `CountRecords` | `n` |
/// | `Sum` | `n` non-null inputs (0 means a null sum), `isum` for an `Int` argument, `fsum` otherwise |
/// | `Avg` | `fsum`, `n` |
/// | `StdDev`, `Variance` | Welford's `n`, running mean in `fsum`, `m2` |
/// | `Min`, `Max`, `First`, `Last` | `row`: the winning input row, so no value is held |
/// | `Median` | `pairs`: `(group, row)` of every non-null input, in row order |
/// | `CountDistinct` | `pairs`: `(group, first row)` of every distinct non-null `(group, value)` of a morsel |
struct AggCols {
    func: AggFunc,
    groups: usize,
    n: Vec<u64>,
    isum: Vec<i64>,
    fsum: Vec<f64>,
    m2: Vec<f64>,
    row: Vec<Option<usize>>,
    pairs: Vec<(u32, usize)>,
}

impl AggCols {
    fn new(func: AggFunc, groups: usize) -> AggCols {
        use AggFunc::*;
        let sized = |on: bool| if on { groups } else { 0 };
        let counted = !matches!(func, Min | Max | First | Last | Median | CountDistinct);
        AggCols {
            func,
            groups,
            n: vec![0; sized(counted)],
            isum: vec![0; sized(func == Sum)],
            fsum: vec![0.0; sized(matches!(func, Sum | Avg | StdDev | Variance))],
            m2: vec![0.0; sized(matches!(func, StdDev | Variance))],
            row: vec![None; sized(matches!(func, Min | Max | First | Last))],
            pairs: Vec::new(),
        }
    }

    /// Bytes the accumulators occupy.
    fn bytes(&self) -> u64 {
        let words = self.n.capacity() + self.isum.capacity() + self.fsum.capacity();
        let words = words + self.m2.capacity() + 2 * (self.row.capacity() + self.pairs.capacity());
        words as u64 * 8
    }

    /// Accumulate the morsel `rows`, whose dense group ids are `gids`. The
    /// argument column's variant is matched once, outside the row loop.
    fn update(&mut self, col: Option<&Column>, gids: &[u32], rows: Range<usize>) {
        use AggFunc::*;
        let func = self.func;
        let start = rows.start;
        let Some(col) = col else {
            // Only `CountRecords` takes no argument (see `resolve_inputs`).
            gids.iter().for_each(|&g| self.n[g as usize] += 1);
            return;
        };
        let valid = col.validity();
        match func {
            Count | CountRecords => each_valid(valid, gids, start, |g, _| self.n[g] += 1),
            Sum | Avg => match col {
                Column::Int(v, _) if func == Sum => each_valid(valid, gids, start, |g, r| {
                    self.isum[g] = self.isum[g].wrapping_add(v[r]);
                    self.n[g] += 1;
                }),
                _ => each_numeric(col, gids, start, |g, x| {
                    self.fsum[g] += x;
                    self.n[g] += 1;
                }),
            },
            // Welford's online algorithm for numerically stable variance.
            StdDev | Variance => each_numeric(col, gids, start, |g, x| {
                self.n[g] += 1;
                let delta = x - self.fsum[g];
                self.fsum[g] += delta / self.n[g] as f64;
                self.m2[g] += delta * (x - self.fsum[g]);
            }),
            Min | Max | First | Last => {
                let cands = gids.iter().copied().zip(rows).filter(|c| valid.get(c.1));
                fold_rows(func, col, &mut self.row, cands);
            }
            Median => each_valid(valid, gids, start, |g, r| self.pairs.push((g as u32, r))),
            CountDistinct => {
                // Number the (group, value) pairs with the group encoder: a
                // pair's first row stands for it, null values drop out.
                let pair = [
                    KeyCol::numbered(start, gids.to_vec()),
                    KeyCol::of(col, rows.clone()),
                ];
                let (_, pair_ids) = Encoder::intern(&pair, &Rows::Range(rows), true);
                let firsts = first_rows(&pair_ids).into_iter();
                let firsts = firsts.filter(|&i| valid.get(start + i));
                self.pairs.extend(firsts.map(|i| (gids[i], start + i)));
            }
        }
    }

    /// Fold in `part`, the same aggregate over a later morsel, whose local
    /// group `l` is this state's group `map[l]`. `part`'s rows come
    /// strictly after this state's, so first/last and tie order hold.
    fn absorb(&mut self, col: Option<&Column>, part: AggCols, map: &[u32]) {
        use AggFunc::*;
        let func = self.func;
        match func {
            Count | CountRecords | Sum | Avg => {
                add_into(&mut self.n, &part.n, map, |a, b| a + b);
                add_into(&mut self.isum, &part.isum, map, i64::wrapping_add);
                add_into(&mut self.fsum, &part.fsum, map, |a, b| a + b);
            }
            // Parallel Welford (Chan et al.): exact in n and mean,
            // numerically close to the serial update in m2.
            StdDev | Variance => {
                for (l, &g) in map.iter().enumerate() {
                    let g = g as usize;
                    let (na, nb) = (self.n[g] as f64, part.n[l] as f64);
                    if self.n[g] == 0 {
                        self.fsum[g] = part.fsum[l];
                        self.m2[g] = part.m2[l];
                    } else if part.n[l] != 0 {
                        let delta = part.fsum[l] - self.fsum[g];
                        self.fsum[g] += delta * nb / (na + nb);
                        self.m2[g] += part.m2[l] + delta * delta * na * nb / (na + nb);
                    }
                    self.n[g] += part.n[l];
                }
            }
            Min | Max | First | Last => {
                if let Some(col) = col {
                    let cands = map.iter().zip(part.row).filter_map(|(&g, r)| Some((g, r?)));
                    fold_rows(func, col, &mut self.row, cands);
                }
            }
            Median | CountDistinct => {
                let mapped = part.pairs.iter().map(|&(l, r)| (map[l as usize], r));
                self.pairs.extend(mapped);
            }
        }
    }

    /// The output column, one row per group; its dtype is
    /// [`AggFunc::output_dtype`]'s whether or not any group has a value.
    fn finish(mut self, col: Option<&Column>) -> Column {
        use AggFunc::*;
        let func = self.func;
        let counts = |n: Vec<u64>| Column::from_ints(n.into_iter().map(|n| n as i64).collect());
        let Some(col) = col else {
            return counts(self.n);
        };
        match func {
            Count | CountRecords => counts(self.n),
            CountDistinct => {
                // Distinct (group, value) pairs across morsels, found by
                // the group encoder over the pairs' rows.
                let gids: Vec<i64> = self.pairs.iter().map(|p| p.0 as i64).collect();
                let rows: Vec<usize> = self.pairs.iter().map(|p| p.1).collect();
                let pair_cols = [&Column::from_ints(gids), &col.take(&rows)];
                let mut n = vec![0; self.groups];
                for i in first_rows(&encode_groups(&pair_cols, 0..rows.len())) {
                    n[self.pairs[i].0 as usize] += 1;
                }
                Column::from_ints(n)
            }
            Sum if matches!(col, Column::Int(..)) => {
                let sums = self.isum.into_iter().zip(self.n);
                Column::from_opt_ints(sums.map(|(s, n)| (n > 0).then_some(s)).collect())
            }
            Sum | Avg => {
                let value = |s: f64, n: u64| if func == Avg { s / n as f64 } else { s };
                let sums = self.fsum.into_iter().zip(self.n);
                Column::from_opt_floats(sums.map(|(s, n)| (n > 0).then(|| value(s, n))).collect())
            }
            StdDev | Variance => {
                let spread = |m2: f64, n: u64| {
                    let var = m2 / (n - 1) as f64;
                    if func == Variance {
                        var
                    } else {
                        var.sqrt()
                    }
                };
                let m2s = self.m2.into_iter().zip(self.n);
                Column::from_opt_floats(m2s.map(|(m2, n)| (n > 1).then(|| spread(m2, n))).collect())
            }
            Min | Max | First | Last => col.take_opt(&self.row),
            Median => {
                // Stable, so a group's values stay in row order.
                self.pairs.sort_by_key(|p| p.0);
                let mut medians = vec![None; self.groups];
                let mut vals: Vec<f64> = Vec::new();
                for group in self.pairs.chunk_by(|a, b| a.0 == b.0) {
                    vals.clear();
                    vals.extend(group.iter().filter_map(|p| col.numeric_at(p.1)));
                    // NaN last: a comparator that is not a total order may
                    // panic inside the sort.
                    vals.sort_by(|a, b| cmp_f64_total(*a, *b));
                    let mid = vals.len() / 2;
                    medians[group[0].0 as usize] = Some(if vals.len() % 2 == 1 {
                        vals[mid]
                    } else {
                        (vals[mid - 1] + vals[mid]) / 2.0
                    });
                }
                Column::from_opt_floats(medians)
            }
        }
    }
}

/// `f(group, row)` for every row of a morsel starting at `start` whose
/// `valid` bit is set.
#[inline]
fn each_valid(valid: &Bitmap, gids: &[u32], start: usize, mut f: impl FnMut(usize, usize)) {
    if valid.all_valid() {
        for (off, &g) in gids.iter().enumerate() {
            f(g as usize, start + off);
        }
    } else {
        for (off, &g) in gids.iter().enumerate() {
            if valid.get(start + off) {
                f(g as usize, start + off);
            }
        }
    }
}

/// `f(group, value)` for every non-null row of a numeric column.
#[inline]
fn each_numeric(col: &Column, gids: &[u32], start: usize, mut f: impl FnMut(usize, f64)) {
    match col {
        Column::Int(v, b) => each_valid(b, gids, start, |g, r| f(g, v[r] as f64)),
        Column::Float(v, b) => each_valid(b, gids, start, |g, r| f(g, v[r])),
        // `resolve_inputs` admits only numeric arguments here.
        _ => {}
    }
}

/// Offer each `(group, row)` candidate, in row order, to its group's slot
/// in `best`: first/last keep the earliest/latest row, min/max the first
/// row holding the extreme under the total order on values. Phase 1 feeds
/// it a morsel's non-null rows, phase 2 the winners of a later morsel.
fn fold_rows(
    func: AggFunc,
    col: &Column,
    best: &mut [Option<usize>],
    cands: impl Iterator<Item = (u32, usize)>,
) {
    use std::cmp::Ordering;
    fn run(
        best: &mut [Option<usize>],
        cands: impl Iterator<Item = (u32, usize)>,
        replaces: impl Fn(usize, usize) -> bool,
    ) {
        for (g, new) in cands {
            let slot = &mut best[g as usize];
            if slot.is_none_or(|cur| replaces(new, cur)) {
                *slot = Some(new);
            }
        }
    }
    let want = match func {
        AggFunc::First => return run(best, cands, |_, _| false),
        AggFunc::Last => return run(best, cands, |_, _| true),
        AggFunc::Min => Ordering::Less,
        _ => Ordering::Greater,
    };
    match col {
        Column::Bool(v, _) => run(best, cands, |a, b| v[a].cmp(&v[b]) == want),
        Column::Int(v, _) => run(best, cands, |a, b| v[a].cmp(&v[b]) == want),
        Column::Float(v, _) => run(best, cands, |a, b| cmp_f64_total(v[a], v[b]) == want),
        Column::Str(v, _) => run(best, cands, |a, b| v[a].cmp(&v[b]) == want),
        // The dictionary is sorted, so codes order like their strings.
        Column::Dict(codes, _, _) => run(best, cands, |a, b| codes[a].cmp(&codes[b]) == want),
        Column::Date(v, _) => run(best, cands, |a, b| v[a].cmp(&v[b]) == want),
    }
}

/// `dst[map[l]] = add(dst[map[l]], src[l])` for every local group `l`.
fn add_into<T: Copy>(dst: &mut [T], src: &[T], map: &[u32], add: impl Fn(T, T) -> T) {
    for (&x, &g) in src.iter().zip(map) {
        dst[g as usize] = add(dst[g as usize], x);
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

/// Groups of a row range: one representative row index per group (in
/// first-encounter order) plus every aggregate's state over those groups.
struct Groups {
    reps: Vec<usize>,
    accs: Vec<AggCols>,
}

impl Groups {
    fn bytes(&self) -> u64 {
        self.reps.capacity() as u64 * 8 + self.accs.iter().map(AggCols::bytes).sum::<u64>()
    }
}

/// Finished groups: their first rows in the input, and one column per
/// aggregate.
type Part = (Vec<usize>, Vec<Column>);

/// Group `table` by `keys` and compute `aggs` within each group:
/// [`group_by_with_mem`] without a memory budget.
pub fn group_by(table: &Table, keys: &[&str], aggs: &[AggSpec]) -> Result<Table> {
    group_by_with_mem(table, keys, aggs, None)
}

/// Group `table` by `keys` and compute `aggs` within each group, booking
/// the state against `mem`'s budget.
///
/// With an empty key list the whole table forms one group (global
/// aggregates). Output columns are the keys (original casing) followed by
/// one column per aggregate. Groups appear in first-encounter order, which
/// keeps results deterministic; a key cell is its group's first row's.
///
/// Only the key and argument columns are ever touched. The whole input goes
/// through the one body (`GroupBy::body`), which books state as it allocates
/// it, so a handful of groups over any number of rows never leaves memory.
/// Where the governor refuses, the attempt is dropped and the row *ids* are
/// split by key hash into runs (`split`); every run gathers the columns it
/// needs at its ids and goes through the same body as one morsel, as many
/// runs at once on the pool as the governor admits the state of. A group's
/// rows all land in one run, in ascending order, so order-sensitive
/// aggregates come out as they would unpartitioned; representatives map back
/// through the ids to input rows, and ranking the groups by them restores
/// first-encounter order.
pub fn group_by_with_mem(
    table: &Table,
    keys: &[&str],
    aggs: &[AggSpec],
    mem: Option<&MemContext>,
) -> Result<Table> {
    let job = GroupBy::new(table, keys, aggs)?;
    let (mut op, mut parts) = (Spill::new(mem, "groupby"), Vec::new());
    let all = vec![Ids::All(table.num_rows())];
    // One group cannot be split: it runs whatever the governor says.
    job.run(&mut op, all, (0, keys.is_empty()), None, &mut parts)?;
    let inputs = job.inputs;
    let (reps, columns) = match <[Part; 1]>::try_from(parts) {
        Ok([whole]) => whole,
        Err(parts) => {
            // First-encounter order is the order of the groups' first rows: a
            // group's place is how many of them lie below its own, counted
            // on a bitmap of them.
            let reps: Vec<usize> = parts.iter().flat_map(|p| &p.0).copied().collect();
            let mut firsts = vec![0u64; table.num_rows() / 64 + 1];
            reps.iter().for_each(|&r| firsts[r / 64] |= 1 << (r % 64));
            let below = firsts
                .iter()
                .scan(0, |n, w| Some(std::mem::replace(n, *n + w.count_ones())));
            let (below, mut order): (Vec<u32>, _) = (below.collect(), vec![0; reps.len()]);
            for (group, &r) in reps.iter().enumerate() {
                let rank = below[r / 64] + (firsts[r / 64] & ((1 << (r % 64)) - 1)).count_ones();
                order[rank as usize] = group;
            }
            let reps = order.iter().map(|&group| reps[group]).collect();
            let mut columns = Vec::with_capacity(aggs.len());
            for (j, (spec, col)) in aggs.iter().zip(&inputs.agg_cols).enumerate() {
                let mut all = Column::empty(spec.func.output_dtype(col.map(|c| c.dtype())));
                parts.iter().try_for_each(|p| all.extend(&p.1[j]))?;
                columns.push(all.take(&order));
            }
            (reps, columns)
        }
    };
    assemble(&inputs, aggs, &reps, columns)
}

/// The output table: the key columns at the groups' representative rows,
/// then one column per aggregate.
fn assemble(
    inputs: &GroupInputs<'_>,
    aggs: &[AggSpec],
    reps: &[usize],
    columns: Vec<Column>,
) -> Result<Table> {
    let mut out = Table::empty();
    for (name, col) in inputs.key_names.iter().zip(&inputs.key_cols) {
        out.add_column(name, col.take(reps))?;
    }
    for (spec, values) in aggs.iter().zip(columns) {
        out.add_column(&spec.output, values)?;
    }
    Ok(out)
}

/// One block's groups, before the merge: phase 1 of the kernel run over
/// the block's morsels, made self-contained — the key columns gathered at
/// the groups' first rows and every aggregate's argument values at the
/// rows its state refers to — so nothing of the block is held past it.
/// [`merge_group_states`] folds the blocks' states in block order, the
/// kernel's morsel merge with blocks as the morsels.
pub struct GroupState {
    key_names: Vec<String>,
    keys: Vec<Column>,
    /// Per aggregate, its argument column at the rows the state refers to:
    /// empty (only its dtype matters) when the state refers to no row,
    /// `None` for `CountRecords`.
    args: Vec<Option<Column>>,
    groups: Groups,
}

/// The groups of one block of a group-by's input by `keys`, with `aggs`'
/// state over them (see [`GroupState`]). Errors as [`group_by`] does over
/// the same table.
pub fn group_state(table: &Table, keys: &[&str], aggs: &[AggSpec]) -> Result<GroupState> {
    let job = GroupBy::new(table, keys, aggs)?;
    // Forced bookings: a block's state is held whatever a governor says.
    let op = Spill::new(None, "groupby");
    let hold: Hold = &|bytes| op.hold(bytes, true);
    let morsels = parallel::morsels(table.num_rows());
    let (groups, _held) = job
        .fold(&job.inputs, &morsels, hold)
        .map_err(|_| EngineError::invalid_argument("a forced booking was refused"))?;
    let inputs = &job.inputs;
    let keys = inputs
        .key_cols
        .iter()
        .map(|c| c.take(&groups.reps))
        .collect();
    let (mut accs, mut args) = (Vec::new(), Vec::new());
    for (mut acc, col) in groups.accs.into_iter().zip(&inputs.agg_cols) {
        // The rows a state names — winners, or median and distinct pairs;
        // none for the others — gathered and renumbered in order.
        let pairs = acc.pairs.iter_mut().map(|p| &mut p.1);
        let named: Vec<&mut usize> = acc.row.iter_mut().flatten().chain(pairs).collect();
        let rows: Vec<usize> = named.iter().map(|r| **r).collect();
        named.into_iter().enumerate().for_each(|(i, r)| *r = i);
        args.push(col.map(|c| c.take(&rows)));
        accs.push(acc);
    }
    let n = groups.reps.len();
    Ok(GroupState {
        key_names: job.inputs.key_names,
        keys,
        args,
        groups: Groups {
            reps: (0..n).collect(),
            accs,
        },
    })
}

/// Phase 2 over blocks: fold the blocks' [`group_state`]s of one group-by
/// (the same `aggs`) in the order given, exactly as the kernel folds its
/// morsels, and finish the groups. Groups come out in first-encounter
/// order across the blocks; one state finishes as the kernel would over
/// its block alone.
pub fn merge_group_states(states: Vec<GroupState>, aggs: &[AggSpec]) -> Result<Table> {
    let Some(first) = states.first() else {
        return Err(EngineError::invalid_argument("no group states to merge"));
    };
    let concat = |cols: Vec<&Column>| -> Result<Column> {
        let mut all = cols[0].slice(0, 0);
        all.reserve(cols.iter().map(|c| c.len()).sum());
        cols.iter().try_for_each(|c| all.extend(c))?;
        Ok(all)
    };
    let keys = (0..first.keys.len())
        .map(|k| concat(states.iter().map(|s| &s.keys[k]).collect()))
        .collect::<Result<Vec<_>>>()?;
    let args = (0..aggs.len())
        .map(|j| match first.args[j] {
            None => Ok(None),
            Some(_) => concat(states.iter().filter_map(|s| s.args[j].as_ref()).collect()).map(Some),
        })
        .collect::<Result<Vec<_>>>()?;
    let key_names = first.key_names.clone();
    let (mut key_at, mut arg_at) = (0, vec![0; aggs.len()]);
    let mut parts = Vec::with_capacity(states.len());
    for state in states {
        let mut groups = state.groups;
        groups.reps.iter_mut().for_each(|r| *r += key_at);
        key_at += state.keys.first().map_or(0, Column::len);
        for ((acc, at), arg) in groups.accs.iter_mut().zip(&mut arg_at).zip(&state.args) {
            acc.row.iter_mut().flatten().for_each(|r| *r += *at);
            acc.pairs.iter_mut().for_each(|p| p.1 += *at);
            *at += arg.as_ref().map_or(0, Column::len);
        }
        parts.push(groups);
    }
    let inputs = GroupInputs {
        key_cols: keys.iter().collect(),
        key_names,
        agg_cols: args.iter().map(Option::as_ref).collect(),
    };
    let groups = match <[_; 1]>::try_from(parts) {
        Ok([only]) => only,
        Err(parts) => fold_parts(&inputs, aggs, parts),
    };
    let (reps, columns) = finish(aggs, &inputs, groups);
    assemble(&inputs, aggs, &reps, columns)
}

/// What a group-by is asked, and what partitioning it takes: the columns a
/// partition gathers at its ids (`needed`; one named twice is gathered
/// once), their bytes per row beside the id (`gather`), the state `widths`
/// ([`group_widths`]), and the whole input's resolved columns.
struct GroupBy<'t> {
    keys: &'t [&'t str],
    aggs: &'t [AggSpec],
    needed: Vec<(&'t str, &'t Column)>,
    gather: u64,
    widths: (u64, u64),
    inputs: GroupInputs<'t>,
}

/// A booking of state bytes, `None` when refused.
type Hold<'h> = &'h (dyn Fn(u64) -> Option<Reservation> + Sync);

impl<'t> GroupBy<'t> {
    fn new(table: &'t Table, keys: &'t [&'t str], aggs: &'t [AggSpec]) -> Result<GroupBy<'t>> {
        if aggs.is_empty() {
            return Err(EngineError::invalid_argument(
                "group_by requires at least one aggregate",
            ));
        }
        let inputs = resolve_inputs(table, keys, aggs)?;
        let named = keys.iter().copied();
        let named = named.chain(aggs.iter().filter_map(|a| a.column.as_deref()));
        let needed: Vec<(&str, &Column)> = named
            .filter_map(|n| Some((n, table.column(n).ok()?)))
            .collect();
        let row_bytes = |(_, c): &(&str, &Column)| (c.byte_size() / c.len().max(1) + 1) as u64;
        Ok(GroupBy {
            keys,
            aggs,
            gather: 8 + needed.iter().map(row_bytes).sum::<u64>(),
            needed,
            widths: group_widths(keys.len(), aggs.iter().map(|a| a.func)),
            inputs,
        })
    }
}

impl<'a> Partitioned<'a> for GroupBy<'_> {
    /// The groups, or `None` if the body was refused its state.
    type Out = Option<Part>;
    type Acc = Vec<Part>;

    /// The body books its state within what was booked for it beside the
    /// gathered columns.
    fn body(&self, ids: &[Ids<'a>], held: u64) -> Option<Part> {
        let at: Vec<usize> = (0..ids[0].len()).map(|i| ids[0].row(i)).collect();
        let within = MemoryGovernor::new(held.saturating_sub(at.len() as u64 * self.gather));
        self.listed(&at, &|bytes| within.try_reserve(bytes))
            .ok()?
            .ok()
    }

    /// Group the rows `ids` lists into `out`: as `done` has them, else through
    /// the body at once if the governor admits it, else a hash partition of
    /// them at a time.
    fn run(
        &self,
        op: &mut Spill<'a>,
        mut ids: Vec<Ids<'a>>,
        (depth, force): (u32, bool),
        done: Option<Option<Part>>,
        out: &mut Vec<Part>,
    ) -> Result<()> {
        let len = ids[0].len();
        let rows = self.inputs.key_cols.first().map_or(0, |c| c.len());
        let attempt = match (done.flatten(), &mut ids[0]) {
            (Some(part), _) => Ok(part),
            (None, Ids::All(_)) => {
                let hold: Hold = &|bytes| op.hold(bytes, force);
                self.body(&self.inputs, &parallel::morsels(len), hold)
            }
            (None, Ids::Listed(run)) => match op.hold(len as u64 * self.gather, force) {
                Some(_gathered) if run.load_ids(op, rows, force)? => {
                    let listed = run.resident().into_iter().flatten();
                    let at: Vec<usize> = listed.map(|&id| id as usize).collect();
                    self.listed(&at, &|bytes| op.hold(bytes, force))?
                }
                _ => Err(len as u64),
            },
        };
        let groups = match attempt {
            Ok(part) => {
                out.push(part);
                return Ok(());
            }
            Err(expected) => expected,
        };
        // A partition's groups are their share of those expected; a batched
        // one books three deviations more, as the share varies.
        let need = |rows: &[u64], batched: bool| {
            let share = groups * rows[0] / len.max(1) as u64;
            let share = (share + 3 * share.isqrt() * batched as u64).min(rows[0]);
            group_state_bytes(rows[0], share, self.widths) + rows[0] * self.gather
        };
        split(op, (self, &[&self.inputs.key_cols]), ids, depth, need, out)
    }
}

impl GroupBy<'_> {
    /// The groups of the input rows `at` lists, ascending: the columns they
    /// need gathered at them, through the body as one morsel.
    fn listed(&self, at: &[usize], hold: Hold) -> Result<std::result::Result<Part, u64>> {
        let mut local = Table::empty();
        for (name, col) in &self.needed {
            if local.schema().index_of(name).is_none() {
                local.add_column(name, col.take(at))?;
            }
        }
        let inputs = resolve_inputs(&local, self.keys, self.aggs)?;
        let part = self.body(&inputs, std::slice::from_ref(&(0..at.len())), hold);
        Ok(part.map(|(reps, columns)| (reps.into_iter().map(|r| at[r]).collect(), columns)))
    }

    /// The one group-by body: the groups of `ranges` (contiguous ascending
    /// row ranges of `inputs`) finished, or — as soon as `hold` refuses a
    /// part of its state — the groups to expect among the rows.
    fn body(
        &self,
        inputs: &GroupInputs<'_>,
        ranges: &[Range<usize>],
        hold: Hold,
    ) -> std::result::Result<Part, u64> {
        let (groups, _held) = self.fold(inputs, ranges, hold)?;
        Ok(finish(self.aggs, inputs, groups))
    }

    /// The body's groups before they are finished, with what they hold of
    /// the budget.
    ///
    /// Two-phase over the ranges as morsels (see [`crate::parallel`]): each
    /// morsel encodes its rows' keys into dense group ids and accumulates
    /// column-major, one typed vector per aggregate; the morsels' groups are
    /// then mapped to global ones by the same encoder and their accumulators
    /// folded in morsel order, so first-encounter group order never depends
    /// on the morsel count. A single morsel folds into nothing, which makes
    /// its float results plain sequential accumulation. A morsel books its
    /// scratch from its row count before encoding and its groups once it has
    /// counted them, and settles to what the finished `Groups` occupies.
    fn fold(
        &self,
        inputs: &GroupInputs<'_>,
        ranges: &[Range<usize>],
        hold: Hold,
    ) -> std::result::Result<(Groups, Reservation), u64> {
        let state =
            |rows: usize, groups: usize| group_state_bytes(rows as u64, groups as u64, self.widths);
        let (seen_rows, seen_groups) = (AtomicU64::new(0), AtomicU64::new(0));
        let refused = AtomicBool::new(false);
        let morsel = |r: Range<usize>| -> Option<(Groups, Reservation)> {
            let mut held = hold(state(r.len(), 0))?;
            // Phase 1: dictionary-coded group ids for the row range (no
            // per-row key materialization), aggregated locally.
            let gids = encode_groups(&inputs.key_cols, r.clone());
            let reps: Vec<usize> = first_rows(&gids).iter().map(|i| r.start + i).collect();
            seen_rows.fetch_add(r.len() as u64, Ordering::Relaxed);
            seen_groups.fetch_add(reps.len() as u64, Ordering::Relaxed);
            if refused.load(Ordering::Relaxed) {
                return None;
            }
            held.absorb(hold(state(0, reps.len()))?);
            let accs = self.aggs.iter().zip(&inputs.agg_cols).map(|(spec, col)| {
                let mut acc = AggCols::new(spec.func, reps.len());
                acc.update(*col, &gids, r.clone());
                acc
            });
            let accs = accs.collect();
            let groups = Groups { reps, accs };
            held.shrink_to(groups.bytes());
            Some((groups, held))
        };
        let parts = parallel::run_morsels(ranges, |r| {
            let part = (!refused.load(Ordering::Relaxed)).then(|| morsel(r));
            let part = part.flatten();
            refused.fetch_or(part.is_none(), Ordering::Relaxed);
            part
        });
        let parts: Option<Vec<_>> = parts.into_iter().collect();
        let folded = parts.and_then(|parts| match <[_; 1]>::try_from(parts) {
            Ok([only]) => Some(only),
            Err(parts) => {
                let local: usize = parts.iter().map(|p| p.0.reps.len()).sum();
                // The local groups are phase 2's rows — their keys gathered
                // — and at worst all distinct.
                let key_bytes = |c: &&Column| c.byte_size() / c.len().max(1) + 9;
                let keys = local * inputs.key_cols.iter().map(key_bytes).sum::<usize>();
                let mut held = hold(state(local, local) + keys as u64)?;
                let (parts, _held): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
                let folded = fold_parts(inputs, self.aggs, parts);
                held.shrink_to(folded.bytes());
                Some((folded, held))
            }
        });
        folded.ok_or_else(|| {
            // In the proportion seen; one per row if nothing was.
            let rows: u64 = ranges.iter().map(|r| r.len() as u64).sum();
            match seen_rows.into_inner() {
                0 => rows,
                seen => rows * seen_groups.into_inner() / seen,
            }
        })
    }
}

/// Finished groups: each aggregate's state turned into its output column.
fn finish(aggs: &[AggSpec], inputs: &GroupInputs<'_>, groups: Groups) -> Part {
    let Groups { reps, accs } = groups;
    let finished = aggs.iter().zip(&inputs.agg_cols).zip(accs);
    let columns = finished.map(|((spec, col), acc)| {
        let values = acc.finish(*col);
        debug_assert_eq!(
            values.dtype(),
            spec.func.output_dtype(col.map(|c| c.dtype()))
        );
        values
    });
    (reps, columns.collect())
}

/// Phase 2: fold morsel-local groups together in morsel order.
///
/// Local groups map to global ones through the one group encoder, run
/// over the key columns gathered at every morsel's representatives (in
/// morsel order, so global ids are first-encounter ids) — keys are touched
/// once per (morsel, group), never per row, and there is one hasher and
/// one definition of key equality.
fn fold_parts(inputs: &GroupInputs<'_>, aggs: &[AggSpec], parts: Vec<Groups>) -> Groups {
    let local_reps: Vec<usize> = parts.iter().flat_map(|p| p.reps.iter().copied()).collect();
    let gathered: Vec<Column> = inputs
        .key_cols
        .iter()
        .map(|c| c.take(&local_reps))
        .collect();
    let global = encode_groups(&gathered.iter().collect::<Vec<_>>(), 0..local_reps.len());
    let reps: Vec<usize> = first_rows(&global).iter().map(|&i| local_reps[i]).collect();
    // Without keys there is exactly one group, even over no morsels at all
    // (an empty table: count 0, sum/avg null).
    let groups = if inputs.key_cols.is_empty() {
        1
    } else {
        reps.len()
    };
    let mut accs: Vec<AggCols> = aggs
        .iter()
        .map(|spec| AggCols::new(spec.func, groups))
        .collect();
    let mut maps = global.as_slice();
    for part in parts {
        let (map, rest) = maps.split_at(part.reps.len());
        maps = rest;
        for ((acc, local), col) in accs.iter_mut().zip(part.accs).zip(&inputs.agg_cols) {
            acc.absorb(*col, local, map);
        }
    }
    Groups { reps, accs }
}

/// The dense first-encounter id of each row's composite key in `range`:
/// the one key encoder ([`super::keys`]), with nulls as keys.
pub(crate) fn encode_groups(key_cols: &[&Column], range: Range<usize>) -> Vec<u32> {
    let keys: Vec<KeyCol> = key_cols
        .iter()
        .map(|col| KeyCol::of(col, range.clone()))
        .collect();
    Encoder::intern(&keys, &Rows::Range(range), true).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;
    use crate::value::Value;
    use proptest::prelude::*;

    /// The oracle's accumulator: one aggregate within one group, fed a
    /// `Value`-reading row at a time.
    #[derive(Debug, Clone)]
    enum Acc {
        Count(u64),
        CountRecords(u64),
        CountDistinct(Vec<Value>),
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
                        // `Value` equality is the total order's: -0.0 is 0.0
                        // and every NaN is one value.
                        if !v.is_null() && !seen.contains(&v) {
                            seen.push(v);
                        }
                    }
                }
                Acc::Sum {
                    sum, seen, isum, ..
                } => {
                    if let Some(x) = col.and_then(|c| c.numeric_at(row)) {
                        *sum += x;
                        if let Some(Value::Int(i)) = col.map(|c| c.get(row)) {
                            *isum = isum.wrapping_add(i);
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
                    vals.sort_by(|a, b| Value::Float(*a).cmp_total(&Value::Float(*b)));
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

    /// Row-at-a-time reference group-by: every row's key read as `Value`s
    /// and found by linear search under `Value` equality, one accumulator
    /// update per row, one `push_value` per output cell into a column typed
    /// by `AggFunc::output_dtype`; no hashing, no group encoding, no morsels and
    /// no merging.
    fn group_by_reference(table: &Table, keys: &[&str], aggs: &[AggSpec]) -> Result<Table> {
        let inputs = resolve_inputs(table, keys, aggs)?;
        let new_accs = || -> Vec<Acc> {
            let int = |c: &Option<&Column>| c.is_some_and(|c| c.dtype() == DataType::Int);
            let cols = inputs.agg_cols.iter();
            aggs.iter()
                .zip(cols)
                .map(|(a, c)| Acc::new(a.func, int(c)))
                .collect()
        };
        let mut group_keys: Vec<Vec<Value>> = Vec::new();
        let mut accs: Vec<Vec<Acc>> = Vec::new();
        // The global group exists even when there are no rows.
        if keys.is_empty() {
            group_keys.push(Vec::new());
            accs.push(new_accs());
        }
        for row in 0..table.num_rows() {
            let key: Vec<Value> = inputs.key_cols.iter().map(|c| c.get(row)).collect();
            let gid = match group_keys.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    group_keys.push(key);
                    accs.push(new_accs());
                    accs.len() - 1
                }
            };
            for (acc, col) in accs[gid].iter_mut().zip(&inputs.agg_cols) {
                acc.update(*col, row);
            }
        }
        let mut out = Table::empty();
        for (ki, name) in inputs.key_names.iter().enumerate() {
            let mut col = Column::empty(inputs.key_cols[ki].dtype());
            for key in &group_keys {
                col.push_value(&key[ki])?;
            }
            out.add_column(name, col)?;
        }
        for (ai, spec) in aggs.iter().enumerate() {
            let dtype = spec
                .func
                .output_dtype(inputs.agg_cols[ai].map(|c| c.dtype()));
            let mut col = Column::empty(dtype);
            for group in &accs {
                col.push_value(&group[ai].clone().finish(spec.func))?;
            }
            out.add_column(&spec.output, col)?;
        }
        Ok(out)
    }

    fn opt_int() -> impl Strategy<Value = Option<i64>> {
        prop::option::of(-5i64..20)
    }

    fn opt_key() -> impl Strategy<Value = Option<String>> {
        prop::option::of("[a-c]{1,2}")
    }

    /// Floats that tie under the total order without being the same bits
    /// (`-0.0`/`0.0`, NaNs of two payloads) beside ordinary ones.
    fn opt_edge_float() -> impl Strategy<Value = Option<f64>> {
        prop::option::of(prop_oneof![
            Just(-0.0f64),
            Just(0.0),
            Just(f64::NAN),
            Just(f64::from_bits(0xfff8_0000_0000_beef)),
            Just(f64::INFINITY),
            (-2i64..3).prop_map(|x| x as f64 / 2.0),
        ])
    }

    /// Same schema, same nulls and the same cells — floats to the bit, so
    /// NaN cells compare and `-0.0` is not `0.0`; strings by content, so a
    /// dictionary-encoded column equals its plain twin.
    fn identical(got: &Table, want: &Table) -> bool {
        let same_cell = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a.dtype() == b.dtype() && a == b,
        };
        got.schema() == want.schema()
            && got.num_rows() == want.num_rows()
            && got.columns().iter().zip(want.columns()).all(|(g, w)| {
                g.iter_values()
                    .zip(w.iter_values())
                    .all(|(a, b)| same_cell(&a, &b))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Exact equality, Welford moments included: the generated tables
        // are one morsel, and one morsel is sequential accumulation.
        #[test]
        fn group_by_parallel_body_matches_row_at_a_time_reference(
            rows in prop::collection::vec(
                (
                    (opt_key(), opt_int(), opt_int()),
                    (opt_edge_float(), prop::option::of(-2i32..3), prop::option::of(0i64..2)),
                ),
                0..120,
            ),
        ) {
            let n = rows.len();
            let bools: Vec<Option<i64>> = rows.iter().map(|r| r.1.2).collect();
            let t = Table::new(vec![
                ("k", Column::from_opt_strs(rows.iter().map(|r| r.0.0.clone()).collect())),
                ("v", Column::from_opt_ints(rows.iter().map(|r| r.0.1).collect())),
                (
                    "f",
                    Column::from_opt_floats(
                        rows.iter().map(|r| r.0.2.map(|x| x as f64 / 3.0)).collect(),
                    ),
                ),
                ("e", Column::from_opt_floats(rows.iter().map(|r| r.1.0).collect())),
                ("d", Column::from_opt_dates(rows.iter().map(|r| r.1.1).collect())),
                ("b", Column::from_opt_ints(bools).cast(DataType::Bool).unwrap()),
                ("zi", Column::nulls(DataType::Int, n)),
                ("zf", Column::nulls(DataType::Float, n)),
                ("zs", Column::nulls(DataType::Str, n)),
            ])
            .unwrap();
            use AggFunc::*;
            let mut aggs = vec![
                AggSpec::count_records("n"),
                AggSpec::new(Count, "v", "cnt"),
                AggSpec::new(CountDistinct, "v", "dist"),
                AggSpec::new(CountDistinct, "e", "edist"),
                AggSpec::new(CountDistinct, "k", "kdist"),
                AggSpec::new(Sum, "v", "sum"),
                AggSpec::new(Sum, "f", "fsum"),
                AggSpec::new(Avg, "f", "avg"),
                AggSpec::new(Median, "f", "mid"),
                AggSpec::new(Median, "e", "emid"),
                AggSpec::new(Variance, "f", "var"),
                AggSpec::new(StdDev, "v", "sd"),
            ];
            // The row-valued aggregates over every argument dtype, and
            // every aggregate over an argument that is all null: the
            // output dtype must not depend on any group having a value.
            for func in [Min, Max, First, Last] {
                for arg in ["v", "k", "e", "d", "b", "zs"] {
                    aggs.push(AggSpec::new(func, arg, format!("{}_{arg}", func.name())));
                }
            }
            for func in [Count, CountDistinct, Sum, Avg, Median, StdDev, Variance, Min, Last] {
                for arg in ["zi", "zf"] {
                    aggs.push(AggSpec::new(func, arg, format!("{}_{arg}", func.name())));
                }
            }
            // Single key, multi-key, float/date/bool keys, and the global
            // (empty-key) group — which is one row even when `rows` is empty.
            // Blocks are morsels: the blocks' merged states are the body
            // over the same ranges, bit for bit.
            let cuts = [0, n / 3, n / 2, n];
            let ranges: Vec<Range<usize>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            for keys in [&["k"][..], &["k", "v"], &[], &["e"], &["d", "b"], &["e", "k"]] {
                let want = group_by_reference(&t, keys, &aggs).unwrap();
                for input in [&t, &t.encode_strings()] {
                    let got = group_by(input, keys, &aggs).unwrap();
                    prop_assert!(identical(&got, &want), "keys {keys:?}\n{got:?}\n{want:?}");
                    let job = GroupBy::new(input, keys, &aggs).unwrap();
                    let op = Spill::new(None, "groupby");
                    let (reps, cols) = job.body(&job.inputs, &ranges, &|b| op.hold(b, false)).unwrap();
                    let morsels = assemble(&job.inputs, &aggs, &reps, cols).unwrap();
                    let block = |r: &Range<usize>| input.slice(r.start, r.len());
                    let states = ranges.iter().map(|r| group_state(&block(r), keys, &aggs).unwrap());
                    let merged = merge_group_states(states.collect(), &aggs).unwrap();
                    prop_assert!(identical(&merged, &morsels), "keys {keys:?}\n{merged:?}\n{morsels:?}");
                }
            }
        }
    }

    /// `group_state_bytes` is what the body books; it must cover what the
    /// body allocates for a morsel: the group ids and the codes that refine
    /// them, the encoder's tables (one per key column and one more per
    /// column after the first), the representatives and the accumulators.
    #[test]
    fn state_bytes_cover_the_group_ids_tables_and_accumulators() {
        let n = 3000usize;
        let t = Table::new(vec![
            (
                "lo",
                Column::from_ints((0..n as i64).map(|i| i % 20).collect()),
            ),
            (
                "hi",
                Column::from_ints((0..n as i64).map(|i| i * 7919 % 2003).collect()),
            ),
            (
                "wide",
                Column::from_ints((0..n as i64).map(|i| i * 7919 % 2003 * 1_000_003).collect()),
            ),
            ("x", Column::from_floats((0..n).map(|i| i as f64).collect())),
        ])
        .unwrap();
        use AggFunc::*;
        for (keys, funcs) in [
            (&["lo"][..], &[Sum, CountRecords][..]),
            (&["hi"], &[Avg, Min, Last]),
            (&["wide"], &[Avg, Min, Last]),
            (&["hi", "lo"], &[StdDev, Median, Count]),
            (&["wide", "lo"], &[StdDev, Median, Count]),
        ] {
            let aggs: Vec<AggSpec> = funcs
                .iter()
                .map(|f| AggSpec::new(*f, "x", f.name()))
                .collect();
            let inputs = resolve_inputs(&t, keys, &aggs).unwrap();
            let key_cols: Vec<KeyCol> = (inputs.key_cols.iter())
                .map(|col| KeyCol::of(col, 0..n))
                .collect();
            let (encoder, gids) = Encoder::intern(&key_cols, &Rows::Range(0..n), true);
            let reps = first_rows(&gids);
            // A code and a pair word a row, where ids are refined.
            let codes = if keys.len() > 1 {
                gids.capacity() * (4 + 8)
            } else {
                0
            };
            let mut accs: Vec<AggCols> =
                funcs.iter().map(|f| AggCols::new(*f, reps.len())).collect();
            let arg = inputs.agg_cols.iter().zip(&mut accs);
            arg.for_each(|(col, acc)| acc.update(*col, &gids, 0..n));
            let groups = Groups { reps, accs };
            let tables = encoder.bytes() as usize;
            let allocated = gids.capacity() * 4 + codes + tables + groups.bytes() as usize;
            let widths = group_widths(keys.len(), funcs.iter().copied());
            let booked = group_state_bytes(n as u64, groups.reps.len() as u64, widths) as usize;
            assert!(booked >= allocated, "{keys:?}: {booked} < {allocated}");
            assert!(
                booked <= 4 * allocated,
                "{keys:?}: {booked} for {allocated}"
            );
        }
    }

    /// `CountDistinct` re-encodes `(group, value)` pairs, so it is linear;
    /// the per-group `Vec::contains` it replaces needs ~10^9 comparisons
    /// here.
    #[test]
    fn count_distinct_is_linear_in_the_distinct_values() {
        let n = 50_000;
        let t = Table::new(vec![
            ("i", Column::from_ints((0..n).rev().collect())),
            (
                "s",
                Column::from_strs((0..n).map(|i| format!("s{i}")).collect()),
            ),
        ])
        .unwrap();
        let aggs = [
            AggSpec::new(AggFunc::CountDistinct, "i", "ints"),
            AggSpec::new(AggFunc::CountDistinct, "s", "strs"),
        ];
        let out = group_by(&t, &[], &aggs).unwrap();
        assert_eq!(out.row(0).unwrap(), vec![Value::Int(n), Value::Int(n)]);
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
