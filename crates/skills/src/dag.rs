//! The skill DAG.
//!
//! §2.2: "The user first creates a directed acyclic graph (DAG) of skill
//! requests ... Building this DAG does not require executing any
//! computation." Nodes are skill calls; edges are dataset dependencies.
//! Names can be bound to nodes (`Use the dataset fredgraph, version 1`),
//! which is how recipes reference earlier results.

use std::collections::HashMap;

use crate::error::{Result, SkillError};
use crate::skill::SkillCall;

/// Identifier of a node within one DAG.
pub type NodeId = usize;

/// One node: a skill call plus its input dependencies (inputs[0] is the
/// primary dataset; inputs[1] the secondary for joins/concats).
#[derive(Debug, Clone, PartialEq)]
pub struct SkillNode {
    pub id: NodeId,
    pub call: SkillCall,
    pub inputs: Vec<NodeId>,
}

/// An append-only DAG of skill calls.
///
/// Name bindings are versioned: binding `fredgraph` twice creates
/// versions 1 and 2, and `Use the dataset fredgraph, version 1` resolves
/// the first (§2.3's "Versions" sidebar in the Figure 2 editor).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkillDag {
    nodes: Vec<SkillNode>,
    names: HashMap<String, Vec<NodeId>>,
}

impl SkillDag {
    /// An empty DAG.
    pub fn new() -> SkillDag {
        SkillDag::default()
    }

    /// Append a node. Inputs must already exist (append-only ⇒ acyclic).
    pub fn add(&mut self, call: SkillCall, inputs: Vec<NodeId>) -> Result<NodeId> {
        let id = self.nodes.len();
        for &i in &inputs {
            if i >= id {
                return Err(SkillError::NodeNotFound { id: i });
            }
        }
        if call.needs_input() && inputs.is_empty() {
            return Err(SkillError::invalid(format!(
                "skill {} requires an input dataset",
                call.name()
            )));
        }
        self.nodes.push(SkillNode { id, call, inputs });
        Ok(id)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Result<&SkillNode> {
        self.nodes.get(id).ok_or(SkillError::NodeNotFound { id })
    }

    /// All nodes in insertion (= topological) order.
    pub fn nodes(&self) -> &[SkillNode] {
        &self.nodes
    }

    /// Bind a dataset name to a node, appending a new version (later
    /// bindings shadow earlier ones for unversioned lookups).
    pub fn bind_name(&mut self, name: impl Into<String>, node: NodeId) -> Result<()> {
        let name = name.into();
        if node >= self.nodes.len() {
            return Err(SkillError::NodeNotFound { id: node });
        }
        self.names
            .entry(name.to_lowercase())
            .or_default()
            .push(node);
        Ok(())
    }

    /// Resolve a dataset name to its latest version (case-insensitive).
    pub fn resolve_name(&self, name: &str) -> Result<NodeId> {
        self.names
            .get(&name.to_lowercase())
            .and_then(|versions| versions.last())
            .copied()
            .ok_or_else(|| SkillError::DatasetNotFound {
                name: name.to_string(),
            })
    }

    /// Resolve a specific 1-based version of a dataset name.
    pub fn resolve_version(&self, name: &str, version: u64) -> Result<NodeId> {
        let versions =
            self.names
                .get(&name.to_lowercase())
                .ok_or_else(|| SkillError::DatasetNotFound {
                    name: name.to_string(),
                })?;
        versions
            .get((version.max(1) - 1) as usize)
            .copied()
            .ok_or_else(|| {
                SkillError::invalid(format!(
                    "dataset {name} has {} version(s), version {version} requested",
                    versions.len()
                ))
            })
    }

    /// Bound dataset names with their latest version (sorted for
    /// determinism).
    pub fn dataset_names(&self) -> Vec<(&str, NodeId)> {
        let mut v: Vec<(&str, NodeId)> = self
            .names
            .iter()
            .filter_map(|(k, versions)| versions.last().map(|&n| (k.as_str(), n)))
            .collect();
        v.sort();
        v
    }

    /// The transitive ancestor set of `target` (including itself), in
    /// topological order — the nodes an artifact actually depends on.
    /// This is the "which steps affect the final artifact" question at
    /// the core of slicing (§2.3).
    pub fn ancestors(&self, target: NodeId) -> Result<Vec<NodeId>> {
        self.node(target)?;
        let mut needed = vec![false; self.nodes.len()];
        let mut stack = vec![target];
        while let Some(id) = stack.pop() {
            if needed[id] {
                continue;
            }
            needed[id] = true;
            stack.extend(&self.nodes[id].inputs);
        }
        Ok((0..self.nodes.len()).filter(|&i| needed[i]).collect())
    }

    /// Replace a node's skill call in place (§2.3: "view the skill DAG
    /// directly in a graphical form and update parameters ... manually").
    /// The new call must have the same input arity class so edges stay
    /// valid.
    pub fn update_call(&mut self, id: NodeId, call: SkillCall) -> Result<()> {
        let node = self.nodes.get(id).ok_or(SkillError::NodeNotFound { id })?;
        if call.needs_input() && node.inputs.is_empty() {
            return Err(SkillError::invalid(format!(
                "skill {} requires an input dataset but node {id} has none",
                call.name()
            )));
        }
        self.nodes[id].call = call;
        Ok(())
    }

    /// Every node bound to a dataset name, across all versions. These
    /// nodes are addressable from outside the DAG (`Use the dataset`),
    /// so plan rewrites must leave their outputs untouched.
    pub fn bound_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.names.values().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Repoint `consumer`'s input edges from `from` to `to`. Used by
    /// plan-time rewrites (load dedup) that merge structurally identical
    /// producers; `to` must precede `consumer` so the topological
    /// invariant (`inputs < id`) is preserved.
    pub fn redirect_input(&mut self, consumer: NodeId, from: NodeId, to: NodeId) -> Result<()> {
        if self.nodes.get(consumer).is_none() || self.nodes.get(to).is_none() {
            return Err(SkillError::NodeNotFound {
                id: consumer.max(to),
            });
        }
        if to >= consumer {
            return Err(SkillError::invalid(format!(
                "redirect target {to} does not precede consumer {consumer}"
            )));
        }
        for input in self.nodes[consumer].inputs.iter_mut() {
            if *input == from {
                *input = to;
            }
        }
        Ok(())
    }

    /// How many consumer edges point at each node (a node feeding two
    /// inputs of one consumer counts twice). One O(edges) pass, shared
    /// by the pushdown planner and the optimizer so neither rescans the
    /// whole DAG per candidate node.
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                counts[input] += 1;
            }
        }
        counts
    }

    /// Render the DAG in Graphviz dot syntax (the §2.3 graphical view).
    /// Node labels are the skill names; edges carry the data flow.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph skills {\n  rankdir=LR;\n");
        for node in &self.nodes {
            out.push_str(&format!(
                "  n{} [label=\"{}: {}\", shape=box];\n",
                node.id,
                node.id,
                node.call.name()
            ));
        }
        for node in &self.nodes {
            for (slot, input) in node.inputs.iter().enumerate() {
                let style = if slot == 0 { "" } else { " [style=dashed]" };
                out.push_str(&format!("  n{input} -> n{}{style};\n", node.id));
            }
        }
        for (name, id) in self.dataset_names() {
            out.push_str(&format!(
                "  d_{name} [label=\"{name}\", shape=plaintext];\n  n{id} -> d_{name} [style=dotted];\n"
            ));
        }
        out.push_str("}\n");
        out
    }

    /// The linear primary chain ending at `target` (follow `inputs[0]`
    /// back to a source), in source→target order.
    pub fn primary_chain(&self, target: NodeId) -> Result<Vec<NodeId>> {
        self.node(target)?;
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(&prev) = self.nodes[cur].inputs.first() {
            chain.push(prev);
            cur = prev;
        }
        chain.reverse();
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Expr;

    fn linear_dag() -> (SkillDag, NodeId) {
        let mut dag = SkillDag::new();
        let load = dag.add(SkillCall::load_table("db", "t"), vec![]).unwrap();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(1i64)),
                },
                vec![load],
            )
            .unwrap();
        let l = dag.add(SkillCall::Limit { n: 10 }, vec![f]).unwrap();
        (dag, l)
    }

    #[test]
    fn append_only_construction() {
        let (dag, last) = linear_dag();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.node(last).unwrap().inputs, vec![1]);
        assert!(dag.node(99).is_err());
    }

    #[test]
    fn forward_references_rejected() {
        let mut dag = SkillDag::new();
        assert!(dag.add(SkillCall::Limit { n: 1 }, vec![5]).is_err());
    }

    #[test]
    fn sources_need_no_input_but_transforms_do() {
        let mut dag = SkillDag::new();
        assert!(dag
            .add(
                SkillCall::LoadFile {
                    path: "a.csv".into()
                },
                vec![]
            )
            .is_ok());
        assert!(dag.add(SkillCall::Limit { n: 1 }, vec![]).is_err());
    }

    #[test]
    fn name_binding_case_insensitive() {
        let (mut dag, last) = linear_dag();
        dag.bind_name("FredGraph", last).unwrap();
        assert_eq!(dag.resolve_name("fredgraph").unwrap(), last);
        assert_eq!(dag.resolve_name("FREDGRAPH").unwrap(), last);
        assert!(dag.resolve_name("other").is_err());
        assert!(dag.bind_name("x", 99).is_err());
    }

    #[test]
    fn versioned_bindings_resolve_by_index() {
        let (mut dag, last) = linear_dag();
        dag.bind_name("d", 0).unwrap();
        dag.bind_name("d", last).unwrap();
        assert_eq!(dag.resolve_name("d").unwrap(), last); // latest wins
        assert_eq!(dag.resolve_version("d", 1).unwrap(), 0);
        assert_eq!(dag.resolve_version("d", 2).unwrap(), last);
        let err = dag.resolve_version("d", 3).unwrap_err();
        assert!(err.to_string().contains("2 version(s)"));
        assert!(dag.resolve_version("missing", 1).is_err());
    }

    #[test]
    fn ancestors_exclude_dead_branches() {
        let (mut dag, last) = linear_dag();
        // Dead branch off the load node.
        let load = 0;
        let dead = dag
            .add(
                SkillCall::Sort {
                    keys: vec![("x".into(), true)],
                },
                vec![load],
            )
            .unwrap();
        let anc = dag.ancestors(last).unwrap();
        assert_eq!(anc, vec![0, 1, 2]);
        assert!(!anc.contains(&dead));
    }

    #[test]
    fn ancestors_follow_secondary_inputs() {
        let (mut dag, last) = linear_dag();
        let other = dag
            .add(
                SkillCall::LoadFile {
                    path: "b.csv".into(),
                },
                vec![],
            )
            .unwrap();
        let join = dag
            .add(
                SkillCall::Join {
                    other: "b".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["k".into()],
                    how: dc_engine::JoinType::Inner,
                },
                vec![last, other],
            )
            .unwrap();
        let anc = dag.ancestors(join).unwrap();
        assert!(anc.contains(&other));
        assert_eq!(anc.len(), 5);
    }

    #[test]
    fn update_call_edits_parameters_in_place() {
        let (mut dag, last) = linear_dag();
        dag.update_call(last, SkillCall::Limit { n: 99 }).unwrap();
        assert_eq!(dag.node(last).unwrap().call, SkillCall::Limit { n: 99 });
        // Arity class is enforced: a source cannot replace a transform.
        assert!(dag
            .update_call(
                0,
                SkillCall::Limit { n: 1 } // needs an input; node 0 has none
            )
            .is_err());
        assert!(dag.update_call(99, SkillCall::CountRows).is_err());
    }

    #[test]
    fn dot_rendering_covers_nodes_edges_and_names() {
        let (mut dag, last) = linear_dag();
        dag.bind_name("result", last).unwrap();
        let dot = dag.to_dot();
        assert!(dot.starts_with("digraph skills {"));
        assert!(dot.contains("LoadTable"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(dot.contains("d_result"));
        assert_eq!(dot.matches("shape=box").count(), 3);
    }

    #[test]
    fn primary_chain_order() {
        let (dag, last) = linear_dag();
        assert_eq!(dag.primary_chain(last).unwrap(), vec![0, 1, 2]);
    }
}
