//! Recipe slicing (§2.3, Figure 5).
//!
//! "When saving an artifact ... the system evaluates which steps in the
//! DAG affect the final artifact. All steps that have no effect are
//! removed prior to saving. Additionally ... some skill calls might be
//! merged if they can be represented by a single skill call."

use crate::dag::{NodeId, SkillDag};
use crate::error::Result;
use crate::skill::SkillCall;

/// Statistics about one slicing pass (reported by the Figure 5 bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Nodes in the original DAG.
    pub original_nodes: usize,
    /// Nodes removed because the artifact does not depend on them.
    pub dead_removed: usize,
    /// Nodes removed because they carry no data effect (comments,
    /// exploration peeks) — the artifact's lineage doesn't need them.
    pub passthrough_removed: usize,
    /// Nodes eliminated by merging adjacent compatible calls.
    pub merged: usize,
    /// Nodes in the sliced recipe.
    pub final_nodes: usize,
}

/// Slice the DAG down to the minimal recipe producing `target`.
///
/// Returns the sliced recipe as a fresh linear-ish DAG (same structure,
/// only live nodes) plus statistics. Secondary inputs (joins, concats)
/// keep their own upstream chains.
pub fn slice(dag: &SkillDag, target: NodeId) -> Result<(SkillDag, SliceStats)> {
    let mut stats = SliceStats {
        original_nodes: dag.len(),
        ..SliceStats::default()
    };

    // 1. Dead-step elimination: keep only ancestors of the target.
    let live = dag.ancestors(target)?;
    stats.dead_removed = dag.len() - live.len();

    // 2. Drop non-transforming pass-through steps from the lineage
    //    (except the target itself, which may be the artifact step).
    let mut kept: Vec<NodeId> = Vec::with_capacity(live.len());
    for &id in &live {
        let node = dag.node(id)?;
        if id != target && !node.call.transforms_data() && !node.inputs.is_empty() {
            stats.passthrough_removed += 1;
            continue;
        }
        kept.push(id);
    }

    // Remap inputs through dropped pass-through nodes.
    let resolve = |mut id: NodeId| -> Result<NodeId> {
        loop {
            let node = dag.node(id)?;
            if id != target && !node.call.transforms_data() && !node.inputs.is_empty() {
                id = node.inputs[0];
            } else {
                return Ok(id);
            }
        }
    };

    // 3. Merge adjacent compatible calls along primary edges. Build the
    //    new call list first, merging into predecessors where legal.
    #[derive(Debug)]
    struct Pending {
        source: NodeId,
        call: SkillCall,
        inputs: Vec<NodeId>, // original ids, resolved
    }
    let mut pending: Vec<Pending> = Vec::new();
    // index of pending entry by original node id
    let mut where_is: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();

    for &id in &kept {
        let node = dag.node(id)?;
        let inputs: Vec<NodeId> = node
            .inputs
            .iter()
            .map(|&i| resolve(i))
            .collect::<Result<_>>()?;
        // Try to merge with the pending entry producing our primary input,
        // but only when we are its sole consumer candidate in `kept`
        // (merging under fan-out would change the shared result).
        let consumers_of_input = |inp: NodeId| {
            kept.iter()
                .filter(|&&k| {
                    dag.node(k)
                        .map(|n| {
                            n.inputs
                                .iter()
                                .any(|&i| resolve(i).unwrap_or(usize::MAX) == inp)
                        })
                        .unwrap_or(false)
                })
                .count()
        };
        let merged = if let Some(&first) = inputs.first() {
            if consumers_of_input(first) == 1 {
                where_is
                    .get(&first)
                    .copied()
                    .and_then(|pi| merge_calls(&pending[pi].call, &node.call).map(|m| (pi, m)))
            } else {
                None
            }
        } else {
            None
        };
        match merged {
            Some((pi, merged_call)) => {
                pending[pi].call = merged_call;
                pending[pi].source = id;
                stats.merged += 1;
                where_is.insert(id, pi);
            }
            None => {
                let idx = pending.len();
                pending.push(Pending {
                    source: id,
                    call: node.call.clone(),
                    inputs,
                });
                where_is.insert(id, idx);
            }
        }
    }

    // 4. Materialize the sliced DAG.
    let mut out = SkillDag::new();
    let mut new_id: std::collections::HashMap<usize, NodeId> = std::collections::HashMap::new();
    for (idx, p) in pending.iter().enumerate() {
        let inputs: Vec<NodeId> = p
            .inputs
            .iter()
            .filter_map(|orig| where_is.get(orig).and_then(|pi| new_id.get(pi)).copied())
            .collect();
        let nid = out.add(p.call.clone(), inputs)?;
        new_id.insert(idx, nid);
    }
    stats.final_nodes = out.len();
    Ok((out, stats))
}

/// Merge two adjacent calls into one when a single skill call expresses
/// both. Returns the merged call, or `None` when they must stay separate.
fn merge_calls(first: &SkillCall, second: &SkillCall) -> Option<SkillCall> {
    use SkillCall::*;
    match (first, second) {
        // Consecutive projections: the later one wins (it must be a
        // subset for the recipe to have been valid).
        (KeepColumns { .. }, KeepColumns { columns }) => Some(KeepColumns {
            columns: columns.clone(),
        }),
        // Consecutive filters conjoin.
        (KeepRows { predicate: a }, KeepRows { predicate: b }) => Some(KeepRows {
            predicate: a.clone().and(b.clone()),
        }),
        (DropRows { predicate: a }, DropRows { predicate: b }) => Some(DropRows {
            predicate: a.clone().or(b.clone()),
        }),
        // Consecutive limits keep the minimum.
        (Limit { n: a }, Limit { n: b }) => Some(Limit { n: (*a).min(*b) }),
        // A later sort supersedes an earlier one.
        (Sort { .. }, Sort { keys }) => Some(Sort { keys: keys.clone() }),
        // Distinct twice is Distinct once (same column set only).
        (Distinct { columns: a }, Distinct { columns: b }) if a == b => {
            Some(Distinct { columns: a.clone() })
        }
        // Fill-missing twice on the same column: later value wins.
        (FillMissing { column: c1, .. }, FillMissing { column: c2, value })
            if c1.eq_ignore_ascii_case(c2) =>
        {
            Some(FillMissing {
                column: c2.clone(),
                value: value.clone(),
            })
        }
        // Rename chains collapse a→b, b→c into a→c.
        (RenameColumn { from, to }, RenameColumn { from: f2, to: t2 })
            if to.eq_ignore_ascii_case(f2) =>
        {
            Some(RenameColumn {
                from: from.clone(),
                to: t2.clone(),
            })
        }
        // Constant column overwritten by another constant of the same name.
        (CreateConstantColumn { name: n1, .. }, CreateConstantColumn { name: n2, value })
            if n1.eq_ignore_ascii_case(n2) =>
        {
            Some(CreateConstantColumn {
                name: n2.clone(),
                value: value.clone(),
            })
        }
        _ => None,
    }
}

/// Convenience: the sliced recipe as a call list in execution order.
pub fn sliced_recipe(dag: &SkillDag, target: NodeId) -> Result<Vec<SkillCall>> {
    let (sliced, _) = slice(dag, target)?;
    Ok(sliced.nodes().iter().map(|n| n.call.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Expr;

    fn load() -> SkillCall {
        SkillCall::load_table("db", "t")
    }

    #[test]
    fn figure5_exploratory_dag_slims_down() {
        // An exploratory session: load, describe, dead sort branch,
        // filter, peek, filter again, limit — saved artifact at the end.
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let _describe = dag.add(SkillCall::DescribeDataset, vec![l]).unwrap();
        let dead = dag
            .add(
                SkillCall::Sort {
                    keys: vec![("x".into(), true)],
                },
                vec![l],
            )
            .unwrap();
        let _dead2 = dag.add(SkillCall::Limit { n: 3 }, vec![dead]).unwrap();
        let f1 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(1i64)),
                },
                vec![l],
            )
            .unwrap();
        let peek = dag.add(SkillCall::ShowHead { n: 5 }, vec![f1]).unwrap();
        let f2 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("y").lt(Expr::lit(9i64)),
                },
                vec![peek],
            )
            .unwrap();
        let lim = dag.add(SkillCall::Limit { n: 10 }, vec![f2]).unwrap();

        let (sliced, stats) = slice(&dag, lim).unwrap();
        assert_eq!(stats.original_nodes, 8);
        assert_eq!(stats.dead_removed, 3); // describe + dead sort + dead limit
        assert_eq!(stats.passthrough_removed, 1); // the ShowHead peek
        assert_eq!(stats.merged, 1); // the two filters conjoin
        assert_eq!(stats.final_nodes, 3); // load, merged filter, limit
        let calls: Vec<&str> = sliced.nodes().iter().map(|n| n.call.name()).collect();
        assert_eq!(calls, vec!["LoadTable", "KeepRows", "Limit"]);
        match &sliced.nodes()[1].call {
            SkillCall::KeepRows { predicate } => {
                assert_eq!(predicate.to_sql(), "((x > 1) AND (y < 9))");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn projection_chain_merges_to_last() {
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
                    columns: vec!["a".into()],
                },
                vec![a],
            )
            .unwrap();
        let recipe = sliced_recipe(&dag, b).unwrap();
        assert_eq!(recipe.len(), 2);
        assert_eq!(
            recipe[1],
            SkillCall::KeepColumns {
                columns: vec!["a".into()]
            }
        );
    }

    #[test]
    fn fanout_prevents_merging() {
        // Two consumers of the first filter: merging would change the
        // shared intermediate.
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let f1 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(1i64)),
                },
                vec![l],
            )
            .unwrap();
        let f2 = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("y").gt(Expr::lit(2i64)),
                },
                vec![f1],
            )
            .unwrap();
        let other = dag.add(SkillCall::Limit { n: 1 }, vec![f1]).unwrap();
        let joined = dag
            .add(
                SkillCall::Concat {
                    other: "x".into(),
                    remove_duplicates: false,
                },
                vec![f2, other],
            )
            .unwrap();
        let (sliced, stats) = slice(&dag, joined).unwrap();
        assert_eq!(stats.merged, 0);
        assert_eq!(sliced.len(), 5);
    }

    #[test]
    fn limits_merge_to_minimum() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let a = dag.add(SkillCall::Limit { n: 100 }, vec![l]).unwrap();
        let b = dag.add(SkillCall::Limit { n: 7 }, vec![a]).unwrap();
        let recipe = sliced_recipe(&dag, b).unwrap();
        assert_eq!(recipe[1], SkillCall::Limit { n: 7 });
        assert_eq!(recipe.len(), 2);
    }

    #[test]
    fn rename_chain_collapses() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let a = dag
            .add(
                SkillCall::RenameColumn {
                    from: "a".into(),
                    to: "b".into(),
                },
                vec![l],
            )
            .unwrap();
        let b = dag
            .add(
                SkillCall::RenameColumn {
                    from: "b".into(),
                    to: "c".into(),
                },
                vec![a],
            )
            .unwrap();
        let recipe = sliced_recipe(&dag, b).unwrap();
        assert_eq!(
            recipe[1],
            SkillCall::RenameColumn {
                from: "a".into(),
                to: "c".into()
            }
        );
    }

    #[test]
    fn unrelated_renames_do_not_merge() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let a = dag
            .add(
                SkillCall::RenameColumn {
                    from: "a".into(),
                    to: "b".into(),
                },
                vec![l],
            )
            .unwrap();
        let b = dag
            .add(
                SkillCall::RenameColumn {
                    from: "x".into(),
                    to: "y".into(),
                },
                vec![a],
            )
            .unwrap();
        assert_eq!(sliced_recipe(&dag, b).unwrap().len(), 3);
    }

    #[test]
    fn join_branches_both_survive() {
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let r = dag
            .add(
                SkillCall::LoadFile {
                    path: "o.csv".into(),
                },
                vec![],
            )
            .unwrap();
        let rf = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("k").gt(Expr::lit(0i64)),
                },
                vec![r],
            )
            .unwrap();
        let j = dag
            .add(
                SkillCall::Join {
                    other: "o".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["k".into()],
                    how: dc_engine::JoinType::Inner,
                },
                vec![l, rf],
            )
            .unwrap();
        let (sliced, _) = slice(&dag, j).unwrap();
        assert_eq!(sliced.len(), 4);
        // The join node's second input points at the filtered branch.
        let join_node = sliced.nodes().last().unwrap();
        assert_eq!(join_node.inputs.len(), 2);
    }

    #[test]
    fn target_passthrough_survives() {
        // Slicing an artifact whose final step is a chart keeps the chart.
        let mut dag = SkillDag::new();
        let l = dag.add(load(), vec![]).unwrap();
        let viz = dag
            .add(
                SkillCall::Visualize {
                    kpi: "x".into(),
                    by: vec![],
                },
                vec![l],
            )
            .unwrap();
        let recipe = sliced_recipe(&dag, viz).unwrap();
        assert_eq!(recipe.len(), 2);
        assert_eq!(recipe[1].name(), "Visualize");
    }
}
