//! Regenerates **Figure 4** and the §2.2 nested-vs-flattened claim:
//! a user views a filtered table, the application inserts a Limit, and
//! the platform consolidates Load + Filter + Limit into a single SQL
//! query. Also reports the §2.2 projection-chain example with measured
//! query blocks and materialized rows for nested vs flattened execution.

use std::collections::HashMap;

use dc_engine::{Column, Expr, Table};
use dc_skills::{plan, ExecutionTask, SkillCall, SkillDag};
use dc_sql::{execute, generate_sql, ExecStats, QueryStep};

fn main() {
    // ----- Figure 4: Load + Filter + (app-inserted) Limit -----
    let mut dag = SkillDag::new();
    let load = dag
        .add(SkillCall::load_table("MainDatabase", "readings"), vec![])
        .expect("dag accepts load");
    let filter = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("temperature").gt(Expr::lit(30i64)),
            },
            vec![load],
        )
        .expect("dag accepts filter");
    // "The application inserts a limit how much data should be returned."
    let limit = dag
        .add(SkillCall::Limit { n: 100 }, vec![filter])
        .expect("dag accepts limit");

    println!("Figure 4: user intents + application requirements -> one execution approach\n");
    println!("  1. user requests a filtered view        (KeepRows)");
    println!("  2. application inserts a row limit      (Limit 100)");
    let tasks = plan(&dag, limit).expect("plan succeeds");
    println!(
        "  3. platform consolidates into {} execution task(s):",
        tasks.len()
    );
    for t in &tasks {
        match t {
            ExecutionTask::Sql { query, covers, .. } => println!(
                "     SQL covering {} skill calls: {}",
                covers.len(),
                query.to_sql()
            ),
            ExecutionTask::Skill { node } => println!("     engine task for node {node}"),
        }
    }
    assert_eq!(tasks.len(), 1, "three skills must become one SQL query");

    // ----- §2.2: nested vs flattened projection chain -----
    println!("\nSection 2.2: deep projection chain, nested vs flattened\n");
    let mut provider: HashMap<String, Table> = HashMap::new();
    let n = 200_000usize;
    provider.insert(
        "base_table".into(),
        Table::new(vec![
            ("a", Column::from_ints((0..n as i64).collect())),
            (
                "b",
                Column::from_ints((0..n as i64).map(|v| v * 2).collect()),
            ),
            (
                "c",
                Column::from_ints((0..n as i64).map(|v| v * 3).collect()),
            ),
            (
                "d",
                Column::from_ints((0..n as i64).map(|v| v * 5).collect()),
            ),
        ])
        .expect("table builds"),
    );
    println!(
        "{:<8} {:>14} {:>14} {:>16} {:>12} {:>12}",
        "depth", "blocks_nested", "blocks_flat", "rows_mat_nested", "rows_flat", "speedup"
    );
    for depth in [2usize, 4, 8, 16] {
        // A chain of narrowing projections, like the paper's example.
        let mut steps = vec![QueryStep::Scan {
            table: "base_table".into(),
        }];
        let cols = ["a", "b", "c", "d"];
        for i in 0..depth {
            // Monotone narrowing, like the paper's a,b,c -> a,b -> a.
            let width = (cols.len() - 1 - (i * 3) / depth).max(1);
            let keep = cols[..width].iter().map(|s| s.to_string()).collect();
            steps.push(QueryStep::SelectColumns { columns: keep });
        }
        let nested = generate_sql(&steps, false).expect("nested sql");
        let flat = generate_sql(&steps, true).expect("flat sql");

        let mut sn = ExecStats::default();
        let t0 = std::time::Instant::now();
        let rn = execute(&nested, &provider, &mut sn).expect("nested runs");
        let nested_time = t0.elapsed();
        let mut sf = ExecStats::default();
        let t1 = std::time::Instant::now();
        let rf = execute(&flat, &provider, &mut sf).expect("flat runs");
        let flat_time = t1.elapsed();
        assert_eq!(rn, rf, "same semantics either way");
        println!(
            "{:<8} {:>14} {:>14} {:>16} {:>12} {:>11.1}x",
            depth,
            sn.query_blocks,
            sf.query_blocks,
            sn.rows_materialized,
            sf.rows_materialized,
            nested_time.as_secs_f64() / flat_time.as_secs_f64().max(1e-9)
        );
    }
    println!("\nclaim check: nested queries incur significant cost vs the flattened equivalent");
}
