//! Property: the two-tier materialized cache is invisible. A long-lived
//! executor sharing a cross-session `MaterializedCache`, fed a random
//! interleaving of pipeline runs and source mutations (table
//! drop/recreate, snapshot create/refresh/delete), always returns
//! exactly what a cache-free fresh executor computes over an identically
//! mutated environment — through either door of the one driver (`run`,
//! or `run_resilient` under the default retrying policy, drawn per run).

use std::sync::Arc;

use dc_engine::{Column, Expr, Table};
use dc_skills::resilient::ExecPolicy;
use dc_skills::{Env, Executor, MaterializedCache, SkillCall, SkillDag};
use dc_storage::{CloudDatabase, Pricing};
use proptest::prelude::*;

fn table(n: usize, offset: i64) -> Table {
    Table::new(vec![
        (
            "x",
            Column::from_ints((offset..offset + n as i64).collect()),
        ),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 4)).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

fn base_env() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table_with_blocks("a", &table(2_000, 0), 128)
        .unwrap();
    env.catalog.add_database(db).unwrap();
    env
}

/// load a → filter (threshold picked by `param`) → group-count.
fn table_pipeline(param: u8) -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let l = dag.add(SkillCall::load_table("db", "a"), vec![]).unwrap();
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("x").ge(Expr::lit(i64::from(param) * 137)),
            },
            vec![l],
        )
        .unwrap();
    let c = dag
        .add(
            SkillCall::Compute {
                aggs: vec![dc_engine::AggSpec::count_records("n")],
                for_each: vec!["k".into()],
            },
            vec![f],
        )
        .unwrap();
    (dag, c)
}

/// use snapshot s → count rows.
fn snapshot_pipeline() -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let s = dag
        .add(SkillCall::UseSnapshot { name: "s".into() }, vec![])
        .unwrap();
    let c = dag.add(SkillCall::CountRows, vec![s]).unwrap();
    (dag, c)
}

/// One step of the random schedule, applied to both worlds.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Run the table pipeline; `resilient` selects the scheduler.
    RunTable { param: u8, resilient: bool },
    /// Run the snapshot pipeline (no-op while the snapshot is absent).
    RunSnapshot { resilient: bool },
    /// Drop + recreate table `a` with shifted contents.
    MutateTable { offset: u8 },
    /// Create or refresh snapshot `s` with `rows` rows.
    UpsertSnapshot { rows: u8 },
    /// Delete snapshot `s` (no-op while absent).
    DeleteSnapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u8..2).prop_map(|(param, r)| Op::RunTable {
            param,
            resilient: r == 1,
        }),
        (0u8..2).prop_map(|r| Op::RunSnapshot { resilient: r == 1 }),
        (0u8..4).prop_map(|offset| Op::MutateTable { offset }),
        (1u8..64).prop_map(|rows| Op::UpsertSnapshot { rows }),
        Just(Op::DeleteSnapshot),
    ]
}

fn mutate(env: &mut Env, op: Op, snapshot_live: &mut bool) {
    match op {
        Op::MutateTable { offset } => {
            let db = env.catalog.database_mut("db").unwrap();
            db.drop_table("a").unwrap();
            db.create_table_with_blocks("a", &table(2_000, i64::from(offset) * 250), 128)
                .unwrap();
        }
        Op::UpsertSnapshot { rows } => {
            let t = table(usize::from(rows), 0);
            if *snapshot_live {
                env.snapshots.refresh("s", t).unwrap();
            } else {
                env.snapshots.create("s", t, "db.a", vec![], None).unwrap();
                *snapshot_live = true;
            }
        }
        Op::DeleteSnapshot => {
            if *snapshot_live {
                env.snapshots.delete("s").unwrap();
                *snapshot_live = false;
            }
        }
        Op::RunTable { .. } | Op::RunSnapshot { .. } => unreachable!("run ops handled separately"),
    }
}

fn run(ex: &mut Executor, dag: &SkillDag, target: usize, env: &mut Env, resilient: bool) -> String {
    if resilient {
        let report = ex
            .run_resilient(dag, target, env, &ExecPolicy::default())
            .unwrap();
        assert!(report.succeeded());
        format!("{:?}", report.output.unwrap())
    } else {
        format!("{:?}", ex.run(dag, target, env).unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_execution_matches_fresh_recomputation(
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        // World one: a long-lived executor with both cache tiers.
        let shared = Arc::new(MaterializedCache::new(64 << 20));
        let mut cached_env = base_env();
        cached_env.shared_cache = Some(Arc::clone(&shared));
        let mut cached_ex = Executor::new();
        // A second session against the same shared tier: exercises the
        // cross-executor probe path on every run op.
        let mut peer_ex = Executor::new();
        // World two: no caches at all, fresh executor per run.
        let mut fresh_env = base_env();

        let mut snapshot_live = false;
        for op in ops {
            match op {
                Op::RunTable { param, resilient } => {
                    let (dag, t) = table_pipeline(param);
                    let got = run(&mut cached_ex, &dag, t, &mut cached_env, resilient);
                    let peer = run(&mut peer_ex, &dag, t, &mut cached_env, resilient);
                    let want =
                        run(&mut Executor::new(), &dag, t, &mut fresh_env, resilient);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(&peer, &want);
                }
                Op::RunSnapshot { resilient } => {
                    if !snapshot_live {
                        continue;
                    }
                    let (dag, t) = snapshot_pipeline();
                    let got = run(&mut cached_ex, &dag, t, &mut cached_env, resilient);
                    let peer = run(&mut peer_ex, &dag, t, &mut cached_env, resilient);
                    let want =
                        run(&mut Executor::new(), &dag, t, &mut fresh_env, resilient);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(&peer, &want);
                }
                mutation => {
                    let mut live = snapshot_live;
                    mutate(&mut cached_env, mutation, &mut live);
                    mutate(&mut fresh_env, mutation, &mut snapshot_live);
                    prop_assert_eq!(live, snapshot_live);
                }
            }
        }
    }
}
