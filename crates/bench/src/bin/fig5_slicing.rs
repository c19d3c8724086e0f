//! Regenerates **Figure 5**: "a complex exploratory recipe on the left
//! can be sliced down to a simple linear one automatically." Builds
//! randomized exploratory sessions (dead branches, peeks, mergeable
//! steps) and reports how much slicing shrinks the recipe saved with the
//! final artifact.

use dc_engine::{Expr, Value};
use dc_skills::{slice, SkillCall, SkillDag};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Build one exploratory session of roughly `steps` skill calls: a main
/// analysis chain interleaved with peeks, dead-end branches, and repeated
/// narrowing steps — the Figure 5 left-hand tangle.
fn exploratory_session(steps: usize, rng: &mut StdRng) -> (SkillDag, usize) {
    let mut dag = SkillDag::new();
    let mut current = dag
        .add(SkillCall::load_table("db", "events"), vec![])
        .expect("load");
    for i in 0..steps {
        match rng.random_range(0..10u32) {
            // Exploration peeks (pass-through).
            0 | 1 => {
                current = dag
                    .add(SkillCall::ShowHead { n: 5 }, vec![current])
                    .expect("peek");
            }
            2 => {
                current = dag
                    .add(SkillCall::DescribeDataset, vec![current])
                    .expect("describe");
            }
            // Dead-end branch: tried something, went back.
            3 | 4 => {
                let dead = dag
                    .add(
                        SkillCall::Sort {
                            keys: vec![(format!("col{}", rng.random_range(0..5)), false)],
                        },
                        vec![current],
                    )
                    .expect("dead sort");
                let _ = dag
                    .add(SkillCall::Limit { n: 10 }, vec![dead])
                    .expect("dead limit");
                // current unchanged: the user backtracked.
            }
            // Narrowing filters (merge-able when adjacent).
            5 | 6 => {
                current = dag
                    .add(
                        SkillCall::KeepRows {
                            predicate: Expr::col(format!("col{}", rng.random_range(0..5)))
                                .gt(Expr::lit(rng.random_range(0i64..100))),
                        },
                        vec![current],
                    )
                    .expect("filter");
            }
            // Repeated limits.
            7 => {
                current = dag
                    .add(
                        SkillCall::Limit {
                            n: rng.random_range(10..1000),
                        },
                        vec![current],
                    )
                    .expect("limit");
            }
            // Column fiddling.
            8 => {
                current = dag
                    .add(
                        SkillCall::CreateConstantColumn {
                            name: format!("note{i}"),
                            value: Value::Str("wip".into()),
                        },
                        vec![current],
                    )
                    .expect("column");
            }
            _ => {
                current = dag
                    .add(
                        SkillCall::Sort {
                            keys: vec![("col0".to_string(), true)],
                        },
                        vec![current],
                    )
                    .expect("sort");
            }
        }
    }
    (dag, current)
}

fn main() {
    println!("Figure 5: slicing exploratory recipes down to linear ones\n");
    println!(
        "{:>8} {:>10} {:>6} {:>12} {:>8} {:>8} {:>10}",
        "session", "original", "dead", "passthrough", "merged", "final", "reduction"
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut total_orig = 0usize;
    let mut total_final = 0usize;
    for session in 1..=10 {
        let steps = 10 + session * 3;
        let (dag, target) = exploratory_session(steps, &mut rng);
        let (_sliced, stats) = slice(&dag, target).expect("slice succeeds");
        total_orig += stats.original_nodes;
        total_final += stats.final_nodes;
        println!(
            "{:>8} {:>10} {:>6} {:>12} {:>8} {:>8} {:>9.0}%",
            session,
            stats.original_nodes,
            stats.dead_removed,
            stats.passthrough_removed,
            stats.merged,
            stats.final_nodes,
            100.0 * (1.0 - stats.final_nodes as f64 / stats.original_nodes as f64)
        );
    }
    println!(
        "\noverall: {total_orig} exploratory steps -> {total_final} recipe steps ({:.0}% smaller)",
        100.0 * (1.0 - total_final as f64 / total_orig as f64)
    );
    assert!(
        total_final * 2 < total_orig,
        "slicing should at least halve exploratory recipes"
    );
    println!("claim check: complex exploratory DAGs slice to simple linear recipes: OK");
}
