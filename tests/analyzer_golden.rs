//! Golden-file diagnostics tests for the static analyzer.
//!
//! Each `tests/golden/*.gel` file is a recipe annotated with the exact
//! diagnostics the analyzer must produce, one `-- expect:` comment per
//! finding:
//!
//! ```text
//! -- expect: DC0002 @ step 2      (code anchored to a 1-based recipe step)
//! -- expect: DC0401 @ line 3      (code anchored to a 1-based source line)
//! -- expect: DC0101               (code with no span constraint)
//! ```
//!
//! A file with no `-- expect:` lines asserts the recipe analyzes clean.
//! The harness requires the *multiset* of emitted codes to equal the
//! expected one — extra or missing findings both fail — and every
//! anchored expectation to match at least one finding at that span.

//! Two per-file directives configure the estimation pass (PR 8), so only
//! scenarios that opt in can trigger the DC03xx family:
//!
//! ```text
//! -- budget: 1000            (tenant's remaining byte budget)
//! -- cache_capacity: 2000    (shared materialized-cache capacity)
//! ```

use std::fs;
use std::path::PathBuf;

use datachat::analyze::AnalysisContext;
use datachat::engine::{Column, DataType, Field, Schema, Table};
use datachat::storage::{BlockSource, BlockTable, TableMeta};

fn schema(fields: &[(&str, DataType)]) -> Schema {
    Schema::new(
        fields
            .iter()
            .map(|(n, t)| Field::new(*n, *t))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// The stored metadata of `table` in blocks of `block_rows` rows — what a
/// catalog holding it hands the analyzer.
fn stored(table: &Table, block_rows: usize) -> TableMeta {
    let bt = BlockTable::new(table, block_rows).expect("blocked table builds");
    bt.meta().clone()
}

/// [`stored`] of a CSV text.
fn block_backed(csv: &str, block_rows: usize) -> TableMeta {
    stored(
        &datachat::engine::csv::read_csv(csv).expect("golden csv parses"),
        block_rows,
    )
}

/// A string column of `rows` values cycling through `distinct` of them.
fn strs(prefix: &str, rows: usize, distinct: usize) -> Column {
    Column::from_strs(
        (0..rows)
            .map(|i| format!("{prefix}{}", i % distinct))
            .collect(),
    )
}

/// `history`: `day` rises monotonically (i / 10 over 1000 rows, 100-row
/// blocks), so zone maps genuinely prune day-range filters.
fn history_table() -> TableMeta {
    let mut csv = String::from("day,label\n");
    for i in 0..1000 {
        csv.push_str(&format!("{},r{}\n", i / 10, i % 3));
    }
    block_backed(&csv, 100)
}

/// `wide_metrics`: seven numeric columns over 2500 rows. Recipes that
/// read only a couple of them leave well over DC0206's 32 KB dead-byte
/// floor in columns the scan pays for and nothing reads.
fn wide_metrics_table() -> TableMeta {
    let mut csv = String::from("day,m1,m2,m3,m4,m5,m6\n");
    for i in 0..2500 {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            i / 50,
            i % 97,
            i % 89,
            i % 83,
            i % 79,
            i % 73,
            i % 71
        ));
    }
    block_backed(&csv, 250)
}

/// A star for the join-order lint: `fact` (40 rows) joins `dim_fan`
/// (40 rows, 10 distinct keys → ×31 intermediate-row bound) and
/// `dim_uniq` (provably unique int key → ×1). Written fan-first, the
/// chain's intermediate bound is 31× the unique-first order's.
fn star_tables() -> Vec<(&'static str, TableMeta)> {
    let mut fact = String::from("gk,uk,val\n");
    let mut fan = String::from("k,fan_rate\n");
    let mut uniq = String::from("k,u_val\n");
    for i in 0..40 {
        fact.push_str(&format!("g{},{},{}\n", i % 10, i, i % 7));
        fan.push_str(&format!("g{},{}\n", i % 10, i));
        uniq.push_str(&format!("{},{}\n", i, i * 2));
    }
    vec![
        ("fact", block_backed(&fact, 8)),
        ("dim_fan", block_backed(&fan, 8)),
        ("dim_uniq", block_backed(&uniq, 8)),
    ]
}

/// A table whose `k` column provably holds one constant — the degenerate
/// join key that turns a join into a cross product.
fn constant_key_table(value_col: &str) -> TableMeta {
    let mut csv = format!("k,{value_col}\n");
    for i in 0..40 {
        csv.push_str(&format!("7,{i}\n"));
    }
    block_backed(&csv, 8)
}

/// `events`: 100 rows in one block.
fn events_table() -> TableMeta {
    let t = Table::new(vec![
        ("event_id", Column::from_ints((0..100).collect())),
        ("region", strs("r", 100, 4)),
        ("ts", Column::from_dates((0..100).collect())),
    ])
    .unwrap();
    stored(&t, 100)
}

/// `clickstream`: 50 000 rows in 8 blocks. `session_id` is almost one
/// distinct value per row — 49 500 of them, ~99% of the row count, which
/// is what DC0203 flags; `url` (120 values) dedups fine.
fn clickstream_table() -> TableMeta {
    let rows = 50_000;
    let t = Table::new(vec![
        ("session_id", strs("s", rows, 49_500)),
        ("url", strs("/page/", rows, 120)),
    ])
    .unwrap();
    stored(&t, rows / 8)
}

/// The world every golden scenario is analyzed against.
fn golden_context() -> AnalysisContext {
    // `sales`: 1000 rows in 4 blocks.
    let sales = stored(&datachat::storage::demo::sales(1000, 1), 250);
    // `big_log`: 100 000 log lines in 16 blocks.
    let big_log = Table::new(vec![("line", strs("line ", 100_000, 64))]).unwrap();
    let big_log = stored(&big_log, 100_000 / 16);
    let mut ctx = AnalysisContext::new();
    ctx.add_saved("sales_backup", sales.schema().clone())
        // A snapshot shadowing big_log: scanning the table triggers DC0202.
        .add_snapshot("big_log", big_log.schema().clone())
        .add_table("MainDatabase", "sales", sales)
        .add_table("MainDatabase", "events", events_table())
        .add_table("MainDatabase", "big_log", big_log)
        .add_table("MainDatabase", "clickstream", clickstream_table())
        .add_snapshot(
            "archived",
            schema(&[("region", DataType::Str), ("total", DataType::Int)]),
        )
        .add_saved(
            "other3col",
            schema(&[
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Int),
            ]),
        )
        .add_model(
            "pricer",
            "price",
            vec!["quantity".into(), "discount".into()],
            DataType::Float,
        )
        .add_file(
            "nums.csv",
            schema(&[("x", DataType::Int), ("y", DataType::Int)]),
        )
        .add_table("MainDatabase", "history", history_table())
        .add_table("MainDatabase", "pairs", constant_key_table("v"))
        .add_table("MainDatabase", "pairs2", constant_key_table("w"))
        .add_table("MainDatabase", "wide_metrics", wide_metrics_table());
    for (name, meta) in star_tables() {
        ctx.add_table("MainDatabase", name, meta);
    }
    ctx
}

/// Per-file estimation knobs (`-- budget:`, `-- cache_capacity:`,
/// `-- mem_budget:`).
fn parse_knobs(text: &str) -> (Option<u64>, Option<u64>, Option<u64>) {
    let mut budget = None;
    let mut capacity = None;
    let mut mem_budget = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(v) = line.strip_prefix("-- budget:") {
            budget = Some(v.trim().parse().expect("budget parses"));
        } else if let Some(v) = line.strip_prefix("-- cache_capacity:") {
            capacity = Some(v.trim().parse().expect("cache_capacity parses"));
        } else if let Some(v) = line.strip_prefix("-- mem_budget:") {
            mem_budget = Some(v.trim().parse().expect("mem_budget parses"));
        }
    }
    (budget, capacity, mem_budget)
}

/// One `-- expect:` annotation.
struct Expect {
    code: String,
    /// `Some((true, n))` = step n; `Some((false, n))` = line n.
    anchor: Option<(bool, usize)>,
}

fn parse_expects(text: &str) -> Vec<Expect> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("-- expect:") else {
            continue;
        };
        let rest = rest.trim();
        let (code, anchor) = match rest.split_once('@') {
            None => (rest.to_string(), None),
            Some((code, at)) => {
                let mut words = at.split_whitespace();
                let kind = words.next().expect("anchor kind");
                let n: usize = words
                    .next()
                    .expect("anchor number")
                    .parse()
                    .expect("anchor number parses");
                let is_step = match kind {
                    "step" => true,
                    "line" => false,
                    other => panic!("unknown anchor kind {other:?}"),
                };
                (code.trim().to_string(), Some((is_step, n)))
            }
        };
        out.push(Expect { code, anchor });
    }
    out
}

#[test]
fn golden_corpus_matches_expected_diagnostics() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let ctx = golden_context();
    let mut names: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("gel"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 15,
        "golden corpus has only {} scenarios",
        names.len()
    );
    for path in names {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = fs::read_to_string(&path).unwrap();
        let expects = parse_expects(&text);
        let (budget, capacity, mem_budget) = parse_knobs(&text);
        let mut ctx = ctx.clone();
        if let Some(b) = budget {
            ctx.set_remaining_budget(b);
        }
        if let Some(c) = capacity {
            ctx.set_cache_capacity(c);
        }
        if let Some(m) = mem_budget {
            ctx.set_mem_budget(m);
        }
        let analysis = datachat::gel::analyze_gel(&text, &ctx);

        let mut actual: Vec<&str> = analysis
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        let mut wanted: Vec<&str> = expects.iter().map(|e| e.code.as_str()).collect();
        actual.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(
            actual,
            wanted,
            "{name}: diagnostic codes mismatch; analyzer said:\n{}",
            analysis.render()
        );

        for e in &expects {
            let Some((is_step, n)) = e.anchor else {
                continue;
            };
            let hit = analysis.diagnostics.iter().any(|d| {
                d.code.as_str() == e.code
                    && if is_step {
                        d.span.step == Some(n)
                    } else {
                        d.span.line == Some(n)
                    }
            });
            assert!(
                hit,
                "{name}: no {} anchored at {} {n}; analyzer said:\n{}",
                e.code,
                if is_step { "step" } else { "line" },
                analysis.render()
            );
        }
    }
}
