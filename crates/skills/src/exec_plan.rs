//! Executing planned tasks (§2.2).
//!
//! "Most execution tasks within DataChat are implemented in both SQL and
//! Python, separately. This approach allows the system to use the
//! appropriate language for a variety of tasks." [`run_planned`] executes
//! the planner's output: consolidated SQL tasks run through the SQL
//! executor against the environment's catalog (one flattened query per
//! task, as the database would see it); everything else runs through the
//! skill interpreter. Tests assert both routes agree with plain
//! node-by-node execution.

use dc_engine::Table;
use dc_sql::{ExecStats, TableProvider};
use dc_storage::ScanOptions;

use crate::dag::{NodeId, SkillDag};
use crate::env::Env;
use crate::error::{Result, SkillError};
use crate::exec::execute_call;
use crate::output::SkillOutput;
use crate::planner::{plan, ExecutionTask};

/// Statistics from one planned execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlannedStats {
    /// Number of execution tasks run.
    pub tasks: usize,
    /// Logical skill calls covered by consolidated SQL.
    pub calls_in_sql: usize,
    /// SQL executor counters (query blocks, materialized rows).
    pub sql_blocks: u64,
    pub sql_rows_materialized: u64,
}

/// Table provider over one database of the environment's catalog
/// (scans are metered, exactly like a warehouse would charge).
struct DatabaseProvider<'e> {
    env: &'e Env,
    database: String,
}

impl TableProvider for DatabaseProvider<'_> {
    fn get_table(&self, name: &str) -> dc_sql::Result<Table> {
        let db = self
            .env
            .catalog
            .database(&self.database)
            .map_err(|e| dc_sql::SqlError::provider(e, false))?;
        let (t, _) = db.scan(name, &ScanOptions::full()).map_err(|e| {
            // Keep the not-found shape the planner tests rely on, but
            // preserve every other failure (including transients) as a
            // live source instead of a flattened string.
            if matches!(e, dc_storage::StorageError::TableNotFound { .. }) {
                dc_sql::SqlError::TableNotFound {
                    name: name.to_string(),
                }
            } else {
                let retryable = e.is_retryable();
                dc_sql::SqlError::provider(e, retryable)
            }
        })?;
        Ok(t)
    }
}

/// Execute `target` via the planner: consolidated SQL where possible,
/// the interpreter elsewhere. Returns the final output plus stats.
///
/// Supported shape: the target's *primary chain* (what [`plan`] covers).
/// Multi-input skills along the chain fall back to interpreter tasks
/// whose secondary inputs are executed node-by-node.
pub fn run_planned(
    dag: &SkillDag,
    target: NodeId,
    env: &mut Env,
) -> Result<(SkillOutput, PlannedStats)> {
    let tasks = plan(dag, target)?;
    let mut stats = PlannedStats {
        tasks: tasks.len(),
        ..PlannedStats::default()
    };
    let mut current: Option<Table> = None;
    let mut last_output: Option<SkillOutput> = None;

    for task in &tasks {
        match task {
            ExecutionTask::Sql {
                database,
                query,
                covers,
            } => {
                stats.calls_in_sql += covers.len();
                let mut sql_stats = ExecStats::default();
                let table = {
                    let provider = DatabaseProvider {
                        env,
                        database: database.clone(),
                    };
                    dc_sql::execute(query, &provider, &mut sql_stats)?
                };
                stats.sql_blocks += sql_stats.query_blocks;
                stats.sql_rows_materialized += sql_stats.rows_materialized;
                last_output = Some(SkillOutput::Table(table.clone()));
                current = Some(table);
            }
            ExecutionTask::Skill { node } => {
                let node = dag.node(*node)?;
                // Secondary inputs (joins/concats) run node-by-node.
                let mut input_tables: Vec<std::sync::Arc<Table>> = Vec::new();
                if node.call.needs_input() {
                    let first = current.clone().ok_or_else(|| {
                        SkillError::invalid(format!(
                            "{} has no upstream result in the plan",
                            node.call.name()
                        ))
                    })?;
                    input_tables.push(std::sync::Arc::new(first));
                }
                for &extra in node.inputs.iter().skip(1) {
                    let mut ex = crate::exec::Executor::new();
                    input_tables.push(ex.table_of(dag, extra, env)?);
                }
                let refs: Vec<&Table> = input_tables.iter().map(|t| t.as_ref()).collect();
                let out = execute_call(&node.call, &refs, env)?;
                if let Some(t) = out.as_table() {
                    if node.call.transforms_data() {
                        current = Some(t.clone());
                    }
                } else if !node.call.needs_input() {
                    current = None;
                }
                last_output = Some(out);
            }
        }
    }
    let output = last_output.ok_or_else(|| SkillError::invalid("empty plan"))?;
    Ok((output, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::skill::SkillCall;
    use dc_engine::{AggFunc, AggSpec, Column, Expr};
    use dc_storage::{CloudDatabase, Pricing};

    fn env() -> Env {
        let mut env = Env::new();
        let n = 10_000usize;
        let t = Table::new(vec![
            ("x", Column::from_ints((0..n as i64).collect())),
            (
                "k",
                Column::from_strs((0..n).map(|i| format!("g{}", i % 7)).collect::<Vec<_>>()),
            ),
        ])
        .unwrap();
        let mut db = CloudDatabase::new("db", Pricing::default_cloud());
        db.create_table("events", &t).unwrap();
        env.catalog.add_database(db).unwrap();
        env
    }

    fn chain() -> (SkillDag, NodeId) {
        let mut dag = SkillDag::new();
        let l = dag
            .add(SkillCall::load_table("db", "events"), vec![])
            .unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").ge(Expr::lit(100i64)),
                },
                vec![l],
            )
            .unwrap();
        let c = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![AggSpec::new(AggFunc::Count, "x", "n")],
                    for_each: vec!["k".into()],
                },
                vec![f],
            )
            .unwrap();
        let s = dag
            .add(
                SkillCall::Sort {
                    keys: vec![("n".into(), false), ("k".into(), true)],
                },
                vec![c],
            )
            .unwrap();
        (dag, s)
    }

    #[test]
    fn planned_sql_route_matches_interpreter() {
        let (dag, target) = chain();
        let mut env1 = env();
        let (planned, stats) = run_planned(&dag, target, &mut env1).unwrap();
        assert_eq!(stats.tasks, 1, "whole chain consolidates to one SQL task");
        assert_eq!(stats.calls_in_sql, 4);

        let mut env2 = env();
        let mut ex = Executor::new();
        let interpreted = ex.run(&dag, target, &mut env2).unwrap();
        assert_eq!(
            planned.as_table().unwrap(),
            interpreted.as_table().unwrap(),
            "SQL and interpreter routes must agree"
        );
    }

    #[test]
    fn planned_route_handles_ml_breaks() {
        let mut dag = SkillDag::new();
        let l = dag
            .add(SkillCall::load_table("db", "events"), vec![])
            .unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").lt(Expr::lit(500i64)),
                },
                vec![l],
            )
            .unwrap();
        let o = dag
            .add(
                SkillCall::DetectOutliers {
                    column: "x".into(),
                    method: dc_ml::OutlierMethod::default_iqr(),
                },
                vec![f],
            )
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 7 }, vec![o]).unwrap();

        let mut env1 = env();
        let (planned, stats) = run_planned(&dag, lim, &mut env1).unwrap();
        assert!(stats.tasks >= 3, "SQL run + ML task + trailing limit");
        let mut env2 = env();
        let mut ex = Executor::new();
        let interpreted = ex.run(&dag, lim, &mut env2).unwrap();
        assert_eq!(planned.as_table().unwrap(), interpreted.as_table().unwrap());
    }

    #[test]
    fn planned_join_uses_secondary_inputs() {
        let mut dag = SkillDag::new();
        let l = dag
            .add(SkillCall::load_table("db", "events"), vec![])
            .unwrap();
        let other = dag
            .add(SkillCall::load_table("db", "events"), vec![])
            .unwrap();
        let j = dag
            .add(
                SkillCall::Join {
                    other: "events2".into(),
                    left_on: vec!["x".into()],
                    right_on: vec!["x".into()],
                    how: dc_engine::JoinType::Inner,
                },
                vec![l, other],
            )
            .unwrap();
        let mut env1 = env();
        let (planned, _) = run_planned(&dag, j, &mut env1).unwrap();
        assert_eq!(planned.as_table().unwrap().num_rows(), 10_000);
    }

    #[test]
    fn sql_route_is_metered_like_any_scan() {
        let (dag, target) = chain();
        let mut env1 = env();
        run_planned(&dag, target, &mut env1).unwrap();
        assert!(
            env1.catalog.database("db").unwrap().meter().queries() >= 1,
            "the consolidated query still pays for its base scan"
        );
    }
}
