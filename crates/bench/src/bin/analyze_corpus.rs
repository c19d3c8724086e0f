//! Static-analysis CI gate: analyze every example recipe in
//! `examples/recipes/` against the demo catalog and exit non-zero on any
//! Error-severity diagnostic. Warnings are reported but do not fail the
//! gate (they are advisory cost/structure lints).
//!
//! The gate also smoke-tests the estimation pass's soundness contract:
//! every clean recipe is executed against a fresh demo environment, the
//! actual scan tally must fall inside the estimator's
//! `[scan_bytes_lo, scan_bytes_hi]` envelope, and the final step's flow
//! table inside its `[rows_lo, rows_hi]`. A single unsound estimate fails
//! the gate. Run in debug, every node of every recipe is also checked
//! against its contract's schema and row rule by the driver.

//! `--qerror` instead runs the estimate-vs-actual selectivity sweep
//! behind the EXPERIMENTS.md q-error table: a 1M-row id-clustered table
//! filtered at 0.1/1/10% selectivity, priced from the table's stored
//! metadata (the per-block zone maps its scan plans with), then executed
//! for ground truth.

use dc_analyze::AnalysisContext;
use dc_engine::{Column, Expr, Table};
use dc_skills::{Env, Executor, SkillCall, SkillDag};
use dc_storage::{CloudDatabase, Pricing};

fn corpus_env() -> Env {
    let mut env = Env::new();
    let (collisions, parties, victims) = dc_storage::demo::california_collisions(200, 1);
    let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
    db.create_table("collisions", &collisions).unwrap();
    db.create_table("parties", &parties).unwrap();
    db.create_table("victims", &victims).unwrap();
    db.create_table("sales", &dc_storage::demo::sales(200, 1))
        .unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

fn main() {
    if std::env::args().any(|a| a == "--qerror") {
        qerror_sweep();
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/recipes");
    let ctx = AnalysisContext::from_env(&corpus_env());
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("gel"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .gel recipes in {}", dir.display());

    let mut failed = 0usize;
    let mut unsound = 0usize;
    let mut checked = 0usize;
    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy();
        let text = std::fs::read_to_string(path).expect("readable recipe");
        let analysis = dc_gel::analyze_gel(&text, &ctx);
        let errors = analysis.errors().count();
        let warnings = analysis.warnings().count();
        if errors > 0 {
            failed += 1;
            println!("FAIL {name}: {errors} error(s)");
            for line in analysis.render().lines() {
                println!("     {line}");
            }
            continue;
        }
        if warnings > 0 {
            println!("ok   {name} ({warnings} warning(s))");
        } else {
            println!("ok   {name}");
        }
        if let Some(msg) = estimate_violation(&text, &ctx) {
            unsound += 1;
            println!("UNSOUND {name}: {msg}");
        } else {
            checked += 1;
        }
    }
    println!(
        "analyze_corpus: {}/{} recipes clean, {checked} estimator-sound, {unsound} unsound",
        paths.len() - failed,
        paths.len()
    );
    if failed > 0 || unsound > 0 {
        std::process::exit(1);
    }
}

/// Execute one clean recipe cold and compare the actual scan tally and the
/// final step's rows with the static estimate. `Some(message)` on an
/// unsound estimate; `None`
/// when the estimate bounds the run (or the recipe cannot execute
/// against the demo world — runtime coverage belongs to other gates).
///
/// Both sides target the recipe's *final* step: the executor re-plans
/// pushdown around whatever node it is asked for, so pricing the DAG
/// with every intermediate step as a target and then executing each one
/// would measure a different (step-debugger) plan than the one priced.
fn estimate_violation(text: &str, ctx: &AnalysisContext) -> Option<String> {
    let recipe = dc_gel::Recipe::parse(text).ok()?;
    let (dag, targets) = recipe.to_dag().ok()?;
    let target = *targets.last()?;
    let analysis = dc_analyze::analyze_dag(&dag, &[target], ctx);
    let mut env = corpus_env();
    let flow = Executor::new().table_of(&dag, target, &mut env).ok()?;
    let actual = env.scan_tally.bytes_scanned;
    let hi = analysis.estimates.scan_bytes_hi;
    let lo = analysis.estimates.scan_bytes_lo;
    if actual > hi {
        return Some(format!(
            "scanned {actual} bytes > estimated upper bound {hi}"
        ));
    }
    if lo > actual {
        return Some(format!(
            "guaranteed lower bound {lo} > scanned {actual} bytes"
        ));
    }
    let est = analysis.estimates.get(target)?;
    let rows = flow.num_rows() as u64;
    if rows < est.rows_lo || est.rows_hi.is_some_and(|hi| rows > hi) {
        let (lo, hi) = (est.rows_lo, est.rows_hi);
        return Some(format!("{rows} rows outside the estimated [{lo}, {hi:?}]"));
    }
    None
}

/// Estimate-vs-actual q-error sweep (`max(est/actual, actual/est)`) for
/// scan bytes at three selectivities. Exits non-zero on any unsound
/// (under-)estimate.
fn qerror_sweep() {
    const ROWS: usize = 1_000_000;
    const BLOCK_ROWS: usize = 8_192;
    let table = Table::new(vec![
        ("id", Column::from_ints((0..ROWS as i64).collect())),
        (
            "v",
            Column::from_floats((0..ROWS).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("sweep table");
    let build_env = || {
        let mut env = Env::new();
        let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
        db.create_table_with_blocks("big", &table, BLOCK_ROWS)
            .unwrap();
        env.catalog.add_database(db).unwrap();
        env
    };
    let ctx = AnalysisContext::from_env(&build_env());

    let qerr = |est: u64, actual: u64| -> f64 {
        let (est, actual) = (est.max(1) as f64, actual.max(1) as f64);
        (est / actual).max(actual / est)
    };
    println!(
        "{:<12} {:>12} {:>14} {:>9}",
        "selectivity", "actual B", "est B (zones)", "q-error"
    );
    let mut unsound = false;
    for pct in [0.1f64, 1.0, 10.0] {
        let cut = (ROWS as f64 * (1.0 - pct / 100.0)) as i64;
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("MainDatabase", "big"), vec![])
            .unwrap();
        let keep = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("id").ge(Expr::lit(cut)),
                },
                vec![load],
            )
            .unwrap();
        let est = dc_analyze::analyze_dag(&dag, &[keep], &ctx).estimates;
        let mut env = build_env();
        Executor::new()
            .run(&dag, keep, &mut env)
            .expect("sweep run");
        let actual = env.scan_tally.bytes_scanned;
        unsound |= actual > est.scan_bytes_hi;
        println!(
            "{:<12} {:>12} {:>14} {:>9.3}",
            format!("{pct}%"),
            actual,
            est.scan_bytes_hi,
            qerr(est.scan_bytes_hi, actual),
        );
    }
    if unsound {
        eprintln!("qerror sweep FAILED: an estimate under-bounded an actual scan");
        std::process::exit(1);
    }
    println!("qerror sweep ok (no under-estimates)");
}
