//! Converting the logical skill DAG to execution tasks (§2.2, Figure 4).
//!
//! The planner walks the primary chain feeding a target node and folds
//! maximal runs of SQL-able skills rooted at a `LoadTable` into a single
//! flattened SQL query — "the platform consolidates the request into a
//! single SQL query". Skills outside the SQL subset (ML, charts,
//! sampling, joins across datasets) become their own tasks.

use dc_engine::Expr;
use dc_sql::{generate_sql, QueryStep, Select};

use crate::dag::{NodeId, SkillDag};
use crate::error::Result;
use crate::skill::SkillCall;

/// One unit of execution produced by planning.
// A plan holds a handful of tasks, so the Sql/Skill size gap is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionTask {
    /// A consolidated SQL query against one database, covering the listed
    /// DAG nodes.
    Sql {
        database: String,
        query: Select,
        covers: Vec<NodeId>,
    },
    /// A single skill executed by the engine/ML/viz interpreter.
    Skill { node: NodeId },
}

impl ExecutionTask {
    /// How many logical skill calls this task covers.
    pub fn covered_calls(&self) -> usize {
        match self {
            ExecutionTask::Sql { covers, .. } => covers.len(),
            ExecutionTask::Skill { .. } => 1,
        }
    }
}

/// Map a skill call to its SQL step, if it is SQL-able: the one mapping
/// the planner consolidates by and NL2Code renders SQL with.
pub fn as_query_step(call: &SkillCall) -> Option<QueryStep> {
    match call {
        SkillCall::KeepRows { predicate } => Some(QueryStep::Filter {
            predicate: predicate.clone(),
        }),
        SkillCall::DropRows { predicate } => Some(QueryStep::Filter {
            predicate: predicate.clone().not(),
        }),
        SkillCall::KeepColumns { columns } => Some(QueryStep::SelectColumns {
            columns: columns.clone(),
        }),
        SkillCall::CreateColumn { name, expr } => Some(QueryStep::WithColumn {
            name: name.clone(),
            expr: expr.clone(),
        }),
        SkillCall::CreateConstantColumn { name, value } => Some(QueryStep::WithColumn {
            name: name.clone(),
            expr: Expr::Literal(value.clone()),
        }),
        SkillCall::Compute { aggs, for_each } => Some(QueryStep::Compute {
            keys: for_each.clone(),
            aggs: aggs.clone(),
        }),
        SkillCall::Sort { keys } => Some(QueryStep::Sort { keys: keys.clone() }),
        SkillCall::Limit { n } => Some(QueryStep::Limit { n: *n }),
        SkillCall::Distinct { columns } if columns.is_empty() => Some(QueryStep::Distinct),
        _ => None,
    }
}

/// Plan the execution of `target`: tasks in execution order.
///
/// Exploration/visualization pass-through skills inside a SQL-able run do
/// not break consolidation (their artifacts are computed from the shared
/// result); any other non-SQL skill ends the current run.
pub fn plan(dag: &SkillDag, target: NodeId) -> Result<Vec<ExecutionTask>> {
    let chain = dag.primary_chain(target)?;
    let mut tasks: Vec<ExecutionTask> = Vec::new();
    let mut pending: Option<(String, Vec<QueryStep>, Vec<NodeId>)> = None;

    let flush = |pending: &mut Option<(String, Vec<QueryStep>, Vec<NodeId>)>,
                 tasks: &mut Vec<ExecutionTask>|
     -> Result<()> {
        if let Some((database, steps, covers)) = pending.take() {
            let query = generate_sql(&steps, true)?;
            tasks.push(ExecutionTask::Sql {
                database,
                query,
                covers,
            });
        }
        Ok(())
    };

    for &id in &chain {
        let node = dag.node(id)?;
        match &node.call {
            // A load the planner has narrowed or filtered runs as itself.
            SkillCall::LoadTable {
                database,
                table,
                columns: None,
                predicate: None,
            } => {
                flush(&mut pending, &mut tasks)?;
                pending = Some((
                    database.clone(),
                    vec![QueryStep::Scan {
                        table: table.clone(),
                    }],
                    vec![id],
                ));
            }
            call => {
                if let (Some(step), Some((_, steps, covers))) =
                    (as_query_step(call), pending.as_mut())
                {
                    steps.push(step);
                    covers.push(id);
                } else if !call.transforms_data() && pending.is_some() {
                    // Pass-through artifact: runs as its own task against
                    // the consolidated result, without breaking the run.
                    tasks.push(ExecutionTask::Skill { node: id });
                } else {
                    flush(&mut pending, &mut tasks)?;
                    tasks.push(ExecutionTask::Skill { node: id });
                }
            }
        }
    }
    flush(&mut pending, &mut tasks)?;
    Ok(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{AggFunc, AggSpec};

    fn load() -> SkillCall {
        SkillCall::load_table("MainDatabase", "readings")
    }

    #[test]
    fn figure4_consolidation() {
        // User: view table with filter; app inserts a Limit; platform
        // consolidates Load + Filter + Limit into ONE SQL query.
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("temperature").gt(Expr::lit(30i64)),
                },
                vec![l],
            )
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 100 }, vec![f]).unwrap();
        let tasks = plan(&dag, lim).unwrap();
        assert_eq!(tasks.len(), 1, "one execution task for three skills");
        match &tasks[0] {
            ExecutionTask::Sql { query, covers, .. } => {
                assert_eq!(covers.len(), 3);
                assert_eq!(query.nesting_depth(), 1, "flattened to one block");
                assert_eq!(
                    query.to_sql(),
                    "SELECT * FROM readings WHERE (temperature > 30) LIMIT 100"
                );
            }
            other => panic!("expected SQL task, got {other:?}"),
        }
    }

    #[test]
    fn projection_chain_flattens_like_the_paper() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let a = dag
            .add(
                SkillCall::KeepColumns {
                    columns: vec!["a".into(), "b".into(), "c".into()],
                },
                vec![l],
            )
            .unwrap();
        let b = dag
            .add(
                SkillCall::KeepColumns {
                    columns: vec!["a".into(), "b".into()],
                },
                vec![a],
            )
            .unwrap();
        let c = dag
            .add(
                SkillCall::KeepColumns {
                    columns: vec!["a".into()],
                },
                vec![b],
            )
            .unwrap();
        let tasks = plan(&dag, c).unwrap();
        assert_eq!(tasks.len(), 1);
        match &tasks[0] {
            ExecutionTask::Sql { query, .. } => {
                assert_eq!(query.to_sql(), "SELECT a FROM readings");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ml_skill_breaks_the_run() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(0i64)),
                },
                vec![l],
            )
            .unwrap();
        let train = dag
            .add(
                SkillCall::TrainModel {
                    name: "m".into(),
                    target: "y".into(),
                    features: vec![],
                    method: dc_ml::MlMethod::Auto,
                },
                vec![f],
            )
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 5 }, vec![train]).unwrap();
        let tasks = plan(&dag, lim).unwrap();
        // SQL(load+filter), Skill(train), Skill(limit) — the limit can't
        // rejoin the earlier SQL run across the ML task.
        assert_eq!(tasks.len(), 3);
        assert!(matches!(&tasks[0], ExecutionTask::Sql { covers, .. } if covers.len() == 2));
        assert!(matches!(tasks[1], ExecutionTask::Skill { .. }));
        assert!(matches!(tasks[2], ExecutionTask::Skill { .. }));
    }

    #[test]
    fn pass_through_artifacts_do_not_break_consolidation() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let d = dag
            .add(SkillCall::DescribeColumn { column: "x".into() }, vec![l])
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 5 }, vec![d]).unwrap();
        let tasks = plan(&dag, lim).unwrap();
        // SQL(load + limit) consolidated, describe as its own task.
        let sql_tasks: Vec<_> = tasks
            .iter()
            .filter(|t| matches!(t, ExecutionTask::Sql { .. }))
            .collect();
        assert_eq!(sql_tasks.len(), 1);
        assert_eq!(sql_tasks[0].covered_calls(), 2);
        assert_eq!(tasks.len(), 2);
    }

    #[test]
    fn compute_then_filter_stays_one_task_two_blocks() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let c = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![AggSpec::new(AggFunc::Sum, "v", "total")],
                    for_each: vec!["k".into()],
                },
                vec![l],
            )
            .unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("total").gt(Expr::lit(10i64)),
                },
                vec![c],
            )
            .unwrap();
        let tasks = plan(&dag, f).unwrap();
        assert_eq!(tasks.len(), 1);
        match &tasks[0] {
            ExecutionTask::Sql { query, .. } => {
                // Two blocks: the aggregate and the post-filter wrapper.
                assert_eq!(query.nesting_depth(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_table_source_is_a_skill_task() {
        let mut dag = SkillDag::new();
        let l = dag
            .add(
                SkillCall::LoadFile {
                    path: "a.csv".into(),
                },
                vec![],
            )
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 5 }, vec![l]).unwrap();
        let tasks = plan(&dag, lim).unwrap();
        // CSV loads can't be pushed to a database; both run as skills.
        assert_eq!(tasks.len(), 2);
        assert!(tasks
            .iter()
            .all(|t| matches!(t, ExecutionTask::Skill { .. })));
    }

    /// A consolidated SQL task is a second implementation of the chain it
    /// covers: the one query, run over the catalog table, returns what the
    /// driver returns for the same DAG.
    #[test]
    fn consolidated_query_matches_the_driver() {
        use crate::env::Env;
        use crate::exec::Executor;
        use dc_engine::{Column, Table};
        use dc_storage::{CloudDatabase, Pricing, ScanOptions};

        let n = 10_000usize;
        let events = Table::new(vec![
            ("x", Column::from_ints((0..n as i64).collect())),
            (
                "k",
                Column::from_strs((0..n).map(|i| format!("g{}", i % 7)).collect::<Vec<_>>()),
            ),
        ])
        .unwrap();
        let mut db = CloudDatabase::new("db", Pricing::default_cloud());
        db.create_table("events", &events).unwrap();
        let mut env = Env::new();
        env.catalog.add_database(db).unwrap();

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

        let tasks = plan(&dag, s).unwrap();
        assert_eq!(tasks.len(), 1, "the whole chain is one SQL task");
        let ExecutionTask::Sql { query, covers, .. } = &tasks[0] else {
            panic!("expected a SQL task, got {:?}", tasks[0]);
        };
        assert_eq!(covers.len(), 4);
        let (table, _) = env
            .catalog
            .database("db")
            .unwrap()
            .scan("events", &ScanOptions::full())
            .unwrap();
        let tables = std::collections::HashMap::from([("events".to_string(), table)]);
        let from_sql = dc_sql::execute(query, &tables, &mut dc_sql::ExecStats::default()).unwrap();

        let driven = Executor::new().run(&dag, s, &mut env).unwrap();
        assert_eq!(&from_sql, driven.as_table().unwrap());
    }
}
