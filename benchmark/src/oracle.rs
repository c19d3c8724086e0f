//! Expected answers, computed with plain loops over the generator's `Vec`s.
//!
//! Nothing here calls the engine to compute a value: the only engine code
//! used is the read-only accessors needed to look at an output table.

use dc_engine::{Table, Value};

use crate::fixtures::{Facts, Stores, DAYS, REGIONS, STORES, TIERS};

/// Relative tolerance for floating-point aggregates (summation order differs
/// between these loops and the engine's kernels).
const REL_TOL: f64 = 1e-6;

/// A grouped aggregate: one row per group, the key column first by name, every
/// other output column compared positionally with `values`.
#[derive(Debug, Clone)]
pub struct Groups {
    pub key_col: &'static str,
    /// `None`: the key is an integer used directly as the group id.
    /// `Some(names)`: the key is a string whose position in `names` is the id.
    pub names: Option<&'static [&'static str]>,
    /// Expected value columns by group id; `None` for a group that must not
    /// appear in the output.
    pub values: Vec<Option<Vec<f64>>>,
    /// Whether rows must come back in ascending key order.
    pub ordered: bool,
}

#[derive(Debug, Clone)]
pub enum Expected {
    Groups(Groups),
    /// A full-table sort: row count, the sort column non-decreasing, and
    /// column sums unchanged.
    Sorted {
        rows: usize,
        by: &'static str,
        sums: Vec<(&'static str, f64)>,
    },
    /// Only the row count is known ahead (intermediate chat turns).
    Rows(usize),
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

/// Compare an output table with its expected answer.
pub fn check(out: &Table, expected: &Expected) -> Result<(), String> {
    match expected {
        Expected::Rows(rows) => {
            if out.num_rows() != *rows {
                return Err(format!("{} rows, expected {rows}", out.num_rows()));
            }
            Ok(())
        }
        Expected::Sorted { rows, by, sums } => {
            if out.num_rows() != *rows {
                return Err(format!("{} rows, expected {rows}", out.num_rows()));
            }
            let key = out.column(by).map_err(|e| e.to_string())?;
            let mut prev = f64::NEG_INFINITY;
            for i in 0..*rows {
                let v = key
                    .numeric_at(i)
                    .ok_or_else(|| format!("{by}[{i}] is null"))?;
                if v < prev {
                    return Err(format!("{by}[{i}] = {v} after {prev}: not sorted"));
                }
                prev = v;
            }
            for (name, want) in sums {
                let col = out.column(name).map_err(|e| e.to_string())?;
                let got: f64 = (0..*rows).filter_map(|i| col.numeric_at(i)).sum();
                if !close(got, *want) {
                    return Err(format!("sum({name}) = {got}, expected {want}"));
                }
            }
            Ok(())
        }
        Expected::Groups(g) => check_groups(out, g),
    }
}

fn check_groups(out: &Table, g: &Groups) -> Result<(), String> {
    let present = g.values.iter().flatten().count();
    if out.num_rows() != present {
        return Err(format!("{} groups, expected {present}", out.num_rows()));
    }
    let fields = out.schema().fields();
    let key_at = fields
        .iter()
        .position(|f| f.name == g.key_col)
        .ok_or_else(|| format!("no key column {}", g.key_col))?;
    let value_cols: Vec<usize> = (0..fields.len()).filter(|&j| j != key_at).collect();
    let key = out.column_at(key_at);
    let mut prev: Option<Value> = None;
    for i in 0..out.num_rows() {
        let k = key.get(i);
        let id = match (&k, g.names) {
            (Value::Int(v), None) => usize::try_from(*v).ok(),
            (Value::Str(s), Some(names)) => names.iter().position(|n| n == s),
            _ => None,
        };
        let want = id
            .and_then(|id| g.values.get(id))
            .and_then(|v| v.as_ref())
            .ok_or_else(|| format!("unexpected group {k:?}"))?;
        if want.len() != value_cols.len() {
            return Err(format!(
                "{} value columns, expected {}",
                value_cols.len(),
                want.len()
            ));
        }
        for (&j, w) in value_cols.iter().zip(want) {
            let got = out.column_at(j).numeric_at(i);
            if !got.is_some_and(|v| close(v, *w)) {
                return Err(format!(
                    "group {k:?}, column {}: got {got:?}, expected {w}",
                    fields[j].name
                ));
            }
        }
        if g.ordered {
            if let Some(p) = &prev {
                let ascending = match (p, &k) {
                    (Value::Int(a), Value::Int(b)) => a < b,
                    (Value::Str(a), Value::Str(b)) => a < b,
                    _ => false,
                };
                if !ascending {
                    return Err(format!("group {k:?} after {p:?}: not in key order"));
                }
            }
            prev = Some(k);
        }
    }
    Ok(())
}

fn by_region(values: Vec<Option<Vec<f64>>>, ordered: bool) -> Expected {
    Expected::Groups(Groups {
        key_col: "region",
        names: Some(&REGIONS),
        values,
        ordered,
    })
}

/// `Some(row)` for groups that saw at least one input row.
fn non_empty(counts: &[u64], row: impl Fn(usize) -> Vec<f64>) -> Vec<Option<Vec<f64>>> {
    counts
        .iter()
        .enumerate()
        .map(|(id, &n)| (n > 0).then(|| row(id)))
        .collect()
}

/// Per-day, per-region partial sums of `facts`, so any day window's grouped
/// answer is a few hundred additions instead of a pass over the rows.
#[derive(Debug, Clone)]
pub struct DayRegion {
    rows: Vec<[u64; REGIONS.len()]>,
    qty: Vec<[i64; REGIONS.len()]>,
    revenue: Vec<[f64; REGIONS.len()]>,
}

impl DayRegion {
    pub fn new(f: &Facts) -> DayRegion {
        let days = DAYS as usize;
        let mut t = DayRegion {
            rows: vec![[0; REGIONS.len()]; days],
            qty: vec![[0; REGIONS.len()]; days],
            revenue: vec![[0.0; REGIONS.len()]; days],
        };
        for i in 0..f.rows() {
            let (d, r) = (f.day[i] as usize, f.region[i] as usize);
            t.rows[d][r] += 1;
            t.qty[d][r] += f.qty[i];
            t.revenue[d][r] += f.price[i] * f.qty[i] as f64;
        }
        t
    }

    fn window(&self, from: i64, to: i64) -> std::ops::Range<usize> {
        (from.clamp(0, DAYS) as usize)..(to.clamp(0, DAYS) as usize)
    }

    /// Rows with `from <= day < to`.
    pub fn rows_in(&self, from: i64, to: i64) -> usize {
        self.window(from, to)
            .map(|d| self.rows[d].iter().sum::<u64>())
            .sum::<u64>() as usize
    }

    fn grouped(
        &self,
        from: i64,
        to: i64,
        value: impl Fn(usize, usize) -> f64,
        ordered: bool,
    ) -> Expected {
        let mut counts = [0u64; REGIONS.len()];
        let mut sums = [0.0f64; REGIONS.len()];
        for d in self.window(from, to) {
            for r in 0..REGIONS.len() {
                counts[r] += self.rows[d][r];
                sums[r] += value(d, r);
            }
        }
        by_region(non_empty(&counts, |r| vec![sums[r]]), ordered)
    }

    /// `sum(price * qty)` for each region over the window.
    pub fn revenue_by_region(&self, from: i64, to: i64, ordered: bool) -> Expected {
        self.grouped(from, to, |d, r| self.revenue[d][r], ordered)
    }

    /// `sum(qty)` for each region over the window.
    pub fn qty_by_region(&self, from: i64, to: i64, ordered: bool) -> Expected {
        self.grouped(from, to, |d, r| self.qty[d][r] as f64, ordered)
    }
}

/// Grouped aggregate over the rows of `f` that pass `keep`: `width` value
/// columns filled by `add(acc, row)`.
fn region_agg(
    f: &Facts,
    keep: impl Fn(usize) -> bool,
    width: usize,
    add: impl Fn(&mut [f64], usize),
    finish: impl Fn(&[f64], u64) -> Vec<f64>,
    ordered: bool,
) -> Expected {
    let mut counts = [0u64; REGIONS.len()];
    let mut acc = vec![vec![0.0f64; width]; REGIONS.len()];
    for i in (0..f.rows()).filter(|&i| keep(i)) {
        let r = f.region[i] as usize;
        counts[r] += 1;
        add(&mut acc[r], i);
    }
    by_region(non_empty(&counts, |r| finish(&acc[r], counts[r])), ordered)
}

/// `sum(qty)` for each region over rows passing `keep`.
pub fn qty_by_region_where(f: &Facts, keep: impl Fn(usize) -> bool, ordered: bool) -> Expected {
    region_agg(
        f,
        keep,
        1,
        |a, i| a[0] += f.qty[i] as f64,
        |a, _| a.to_vec(),
        ordered,
    )
}

/// `count(*)` for each region over rows passing `keep`.
pub fn count_by_region_where(f: &Facts, keep: impl Fn(usize) -> bool) -> Expected {
    region_agg(f, keep, 0, |_, _| {}, |_, n| vec![n as f64], false)
}

/// `avg(price)` for each region.
pub fn avg_price_by_region(f: &Facts) -> Expected {
    region_agg(
        f,
        |_| true,
        1,
        |a, i| a[0] += f.price[i],
        |a, n| vec![a[0] / n as f64],
        false,
    )
}

/// `max(price)` for each region.
pub fn max_price_by_region(f: &Facts) -> Expected {
    region_agg(
        f,
        |_| true,
        1,
        |a, i| a[0] = a[0].max(f.price[i]),
        |a, _| a.to_vec(),
        false,
    )
}

/// `avg(price * qty)` for each region over rows with `price * qty > floor`.
pub fn avg_revenue_by_region_above(f: &Facts, floor: f64) -> Expected {
    let revenue = |i: usize| f.price[i] * f.qty[i] as f64;
    region_agg(
        f,
        |i| revenue(i) > floor,
        1,
        |a, i| a[0] += revenue(i),
        |a, n| vec![a[0] / n as f64],
        false,
    )
}

/// `sum(qty)` (and optionally `count(*)`) for each store over rows passing
/// `keep`.
pub fn qty_by_store_where(
    f: &Facts,
    keep: impl Fn(usize) -> bool,
    with_count: bool,
    ordered: bool,
) -> Expected {
    let mut counts = vec![0u64; STORES];
    let mut sums = vec![0i64; STORES];
    for i in (0..f.rows()).filter(|&i| keep(i)) {
        counts[f.store[i] as usize] += 1;
        sums[f.store[i] as usize] += f.qty[i];
    }
    Expected::Groups(Groups {
        key_col: "store",
        names: None,
        values: non_empty(&counts, |s| {
            let mut row = vec![sums[s] as f64];
            if with_count {
                row.push(counts[s] as f64);
            }
            row
        }),
        ordered,
    })
}

/// `sum(qty)` and `count(*)` for each customer, in customer order.
pub fn qty_and_count_by_cust(f: &Facts) -> Expected {
    let ids = f.cust.iter().max().map_or(0, |&m| m as usize + 1);
    let mut counts = vec![0u64; ids];
    let mut sums = vec![0i64; ids];
    for i in 0..f.rows() {
        counts[f.cust[i] as usize] += 1;
        sums[f.cust[i] as usize] += f.qty[i];
    }
    Expected::Groups(Groups {
        key_col: "cust",
        names: None,
        values: non_empty(&counts, |c| vec![sums[c] as f64, counts[c] as f64]),
        ordered: true,
    })
}

/// facts joined to stores on `store`, then `sum(qty)` for each tier in tier
/// order.
pub fn qty_by_tier(f: &Facts, s: &Stores) -> Expected {
    let mut counts = [0u64; TIERS.len()];
    let mut sums = [0i64; TIERS.len()];
    for i in 0..f.rows() {
        let t = s.tier[f.store[i] as usize] as usize;
        counts[t] += 1;
        sums[t] += f.qty[i];
    }
    Expected::Groups(Groups {
        key_col: "tier",
        names: Some(&TIERS),
        values: non_empty(&counts, |t| vec![sums[t] as f64]),
        ordered: true,
    })
}

/// Rows with `day < day_below` joined to every row of the same customer,
/// then `count(*)` for each (left-side) region.
pub fn selfjoin_count_by_region(f: &Facts, day_below: i64) -> Expected {
    let ids = f.cust.iter().max().map_or(0, |&m| m as usize + 1);
    let mut per_cust = vec![0u64; ids];
    for &c in &f.cust {
        per_cust[c as usize] += 1;
    }
    let mut matches = [0u64; REGIONS.len()];
    for i in (0..f.rows()).filter(|&i| f.day[i] < day_below) {
        matches[f.region[i] as usize] += per_cust[f.cust[i] as usize];
    }
    by_region(non_empty(&matches, |r| vec![matches[r] as f64]), false)
}

/// The whole table sorted by price.
pub fn sorted_by_price(f: &Facts) -> Expected {
    Expected::Sorted {
        rows: f.rows(),
        by: "price",
        sums: vec![
            ("price", f.price.iter().sum()),
            ("qty", f.qty.iter().sum::<i64>() as f64),
            ("day", f.day.iter().sum::<i64>() as f64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Column;

    fn region_table(rows: &[(&str, f64)]) -> Table {
        Table::new(vec![
            (
                "region",
                Column::from_strs(rows.iter().map(|r| r.0).collect::<Vec<_>>()),
            ),
            (
                "total",
                Column::from_floats(rows.iter().map(|r| r.1).collect()),
            ),
        ])
        .unwrap()
    }

    fn two_regions(ordered: bool) -> Expected {
        let mut values = vec![None; REGIONS.len()];
        values[0] = Some(vec![10.0]);
        values[1] = Some(vec![2.5]);
        by_region(values, ordered)
    }

    #[test]
    fn accepts_the_right_answer_within_tolerance() {
        let out = region_table(&[("andes", 10.0 + 1e-9), ("baltic", 2.5)]);
        check(&out, &two_regions(true)).unwrap();
    }

    #[test]
    fn rejects_wrong_value_missing_group_and_bad_order() {
        let wrong = region_table(&[("andes", 10.1), ("baltic", 2.5)]);
        assert!(check(&wrong, &two_regions(false)).is_err());
        let missing = region_table(&[("andes", 10.0)]);
        assert!(check(&missing, &two_regions(false)).is_err());
        let stranger = region_table(&[("andes", 10.0), ("tundra", 2.5)]);
        assert!(check(&stranger, &two_regions(false)).is_err());
        let swapped = region_table(&[("baltic", 2.5), ("andes", 10.0)]);
        check(&swapped, &two_regions(false)).unwrap();
        assert!(check(&swapped, &two_regions(true)).is_err());
    }

    #[test]
    fn sorted_check_sees_disorder_and_lost_rows() {
        let f = Facts::generate(500, 3);
        let expected = sorted_by_price(&f);
        let unsorted = f.to_table();
        assert!(check(&unsorted, &expected)
            .unwrap_err()
            .contains("not sorted"));
        let mut order: Vec<usize> = (0..f.rows()).collect();
        order.sort_by(|&a, &b| f.price[a].total_cmp(&f.price[b]));
        let sorted = unsorted.take(&order);
        check(&sorted, &expected).unwrap();
        assert!(check(&sorted.head(499), &expected).is_err());
    }

    #[test]
    fn day_windows_add_up_to_the_whole_table() {
        let f = Facts::generate(4000, 5);
        let t = DayRegion::new(&f);
        assert_eq!(t.rows_in(0, DAYS), 4000);
        assert_eq!(
            t.rows_in(100, 130) + t.rows_in(130, 160),
            t.rows_in(100, 160)
        );
        let Expected::Groups(all) = t.qty_by_region(0, DAYS, false) else {
            panic!("grouped")
        };
        let total: f64 = all.values.iter().flatten().map(|v| v[0]).sum();
        assert_eq!(total, f.qty.iter().sum::<i64>() as f64);
    }

    #[test]
    fn selfjoin_counts_pairs() {
        // Every row joins at least itself, so the pair count is >= the left rows.
        let f = Facts::generate(2000, 9);
        let Expected::Groups(g) = selfjoin_count_by_region(&f, 90) else {
            panic!("grouped")
        };
        let pairs: f64 = g.values.iter().flatten().map(|v| v[0]).sum();
        let left = f.day.iter().filter(|&&d| d < 90).count() as f64;
        assert!(pairs >= left);
    }
}
