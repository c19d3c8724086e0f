//! The skill DAG.
//!
//! §2.2: "The user first creates a directed acyclic graph (DAG) of skill
//! requests ... Building this DAG does not require executing any
//! computation." Nodes are skill calls; edges are dataset dependencies.
//! Names can be bound to nodes (`Use the dataset fredgraph, version 1`),
//! which is how recipes reference earlier results.
//!
//! A session's DAG only grows (§2.4 keeps it for as long as the session
//! lives), so everything a run asks of it costs the nodes the run depends
//! on, not the nodes the session holds: [`SkillDag::ancestors`] walks the
//! target's cone and nothing else, the DAG keeps each node's consumer count
//! and name-bound flag up to date as edges and names are added (nobody
//! recounts), and [`SkillDag::cone`] cuts the compact copy — `k` nodes, ids
//! `0..k`, a map back to this DAG's ids — that the plan step rewrites and
//! the driver walks.
//!
//! A load that repeats an earlier load's call is the same source, however
//! far apart in the session the two were written: the DAG remembers each
//! load's first copy as nodes are added, and a cone reads every later copy
//! as the first, whose consumer count then speaks for them all.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

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
#[derive(Debug, Clone, Default)]
pub struct SkillDag {
    nodes: Vec<SkillNode>,
    names: HashMap<String, Vec<NodeId>>,
    /// Consumer edges pointing at each node, kept as edges are added. In a
    /// DAG cut by [`SkillDag::cone`] these are the counts of the DAG it was
    /// cut from, a first load's with those of its later copies.
    consumers: Vec<usize>,
    /// Whether a dataset name is bound to each node.
    bound: Vec<bool>,
    /// The first load carrying each load call, by the hash of the call.
    loads: HashMap<u64, NodeId>,
    /// For each load that repeats an earlier load's call, the first load
    /// with that call. Sparse, like `passed_on`: a session keeps these for
    /// as long as it lives, and most nodes are no such copy.
    copy_of: HashMap<NodeId, NodeId>,
    /// Per first load, the consumer edges of its later copies that no name
    /// is bound to — the copies a cone reads as the first.
    passed_on: HashMap<NodeId, usize>,
}

/// Two DAGs are equal when they hold the same calls, edges and names; the
/// rest is bookkeeping derived from those.
impl PartialEq for SkillDag {
    fn eq(&self, other: &SkillDag) -> bool {
        self.nodes == other.nodes && self.names == other.names
    }
}

/// The nodes some targets depend on, cut out of a larger DAG: what one run
/// plans and executes.
#[derive(Debug, Clone)]
pub(crate) struct Cone {
    /// The cone's nodes in topological order with ids `0..k` and inputs
    /// renumbered to match. Consumer counts and name-bound flags are those
    /// of the DAG the cone was cut from, so a consumer outside the cone
    /// still counts; the names themselves stay behind.
    pub(crate) dag: SkillDag,
    /// Cone id → id in the DAG the cone was cut from, ascending.
    pub(crate) ids: Vec<NodeId>,
    /// Whether an edge of the cone was written against a later copy of a
    /// load and now reads the first.
    pub(crate) merged: bool,
}

impl Cone {
    /// The cone id of a node of the DAG the cone was cut from.
    pub(crate) fn local(&self, id: NodeId) -> Option<NodeId> {
        self.ids.binary_search(&id).ok()
    }
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
        for &i in &inputs {
            self.count_edge(i, 1);
        }
        let first = self.first_load(&call, id);
        if first != id {
            self.copy_of.insert(id, first);
        }
        if self.nodes.len() == self.nodes.capacity() {
            // A session keeps its DAG for as long as it lives: grown by
            // doubling, the nodes of a long session hold up to twice the
            // memory they need, all tenants of a fleet at the same time.
            // (Four at a time while it is small: a platform holds many
            // sessions of one short conversation each.)
            self.nodes.reserve_exact((self.nodes.len() / 8).max(4));
        }
        self.nodes.push(SkillNode { id, call, inputs });
        self.consumers.push(0);
        self.bound.push(false);
        Ok(id)
    }

    /// Append one step of a program on `current`, the node the program
    /// stands on: the one rule that wires recipes, session turns and
    /// `dc-serve` admission plans alike. `UseDataset` re-roots at the node
    /// its name is bound to (a given version of it; out of range is an
    /// error), or takes no input when the name is unbound. `Join` and
    /// `Concat` read `current`, then the node `other` is bound to or else a
    /// `UseDataset` node added for the stored dataset. Every other
    /// input-taking step reads `current`; sources read nothing.
    pub fn add_step(&mut self, call: SkillCall, current: Option<NodeId>) -> Result<NodeId> {
        let no_input = || SkillError::invalid(format!("{} needs an input dataset", call.name()));
        let inputs = match &call {
            SkillCall::UseDataset { name, version } => match (self.resolve_name(name), version) {
                (Ok(_), Some(v)) => vec![self.resolve_version(name, *v)?],
                (latest, _) => latest.ok().into_iter().collect(),
            },
            SkillCall::Concat { other, .. } | SkillCall::Join { other, .. } => {
                let first = current.ok_or_else(no_input)?;
                let (name, version) = (other.clone(), None);
                let stored = SkillCall::UseDataset { name, version };
                let second = self
                    .resolve_name(other)
                    .or_else(|_| self.add(stored, vec![]));
                vec![first, second?]
            }
            c if c.needs_input() => vec![current.ok_or_else(no_input)?],
            _ => vec![],
        };
        self.add(call, inputs)
    }

    /// A program lowered into a fresh DAG by [`SkillDag::add_step`], each
    /// step on the one before and each `(step, name)` of `bindings` bound
    /// as its step is added; with each step's node.
    pub fn lower(
        steps: &[SkillCall],
        bindings: &[(usize, String)],
    ) -> Result<(SkillDag, Vec<NodeId>)> {
        let mut dag = SkillDag::new();
        let mut node_of_step: Vec<NodeId> = Vec::with_capacity(steps.len());
        for (i, call) in steps.iter().enumerate() {
            let id = dag.add_step(call.clone(), node_of_step.last().copied())?;
            node_of_step.push(id);
            for (_, name) in bindings.iter().filter(|(at, _)| *at == i) {
                dag.bind_name(name.clone(), id)?;
            }
        }
        Ok((dag, node_of_step))
    }

    /// The first load carrying `call`: `id` itself when no earlier node
    /// does, or when `call` is no load. Calls are found by hash and compared
    /// in full.
    fn first_load(&mut self, call: &SkillCall, id: NodeId) -> NodeId {
        struct Hashed(DefaultHasher);
        impl std::fmt::Write for Hashed {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut hashed = Hashed(DefaultHasher::new());
        match call {
            // The load as users write it is two names; only a planned
            // load's predicate (an `Expr` hashes through its `Debug`
            // form alone) pays for formatting.
            SkillCall::LoadTable {
                database,
                table,
                columns,
                predicate,
            } => {
                (database, table, columns).hash(&mut hashed.0);
                if let Some(predicate) = predicate {
                    // Writing into a hasher cannot fail.
                    let _ = write!(hashed, "{predicate:?}");
                }
            }
            _ => return id,
        }
        match self.loads.entry(hashed.0.finish()) {
            Entry::Occupied(e) if self.nodes[*e.get()].call == *call => *e.get(),
            Entry::Occupied(mut e) => {
                e.insert(id);
                id
            }
            Entry::Vacant(e) => *e.insert(id),
        }
    }

    /// Count (`by = 1`) or stop counting (`by = -1`) one consumer edge
    /// pointing at `to`.
    fn count_edge(&mut self, to: NodeId, by: isize) {
        self.consumers[to] = self.consumers[to].wrapping_add_signed(by);
        if let (false, Some(&first)) = (self.bound[to], self.copy_of.get(&to)) {
            let passed_on = self.passed_on.entry(first).or_default();
            *passed_on = passed_on.wrapping_add_signed(by);
        }
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

    /// The calls of the nodes `ids` (ascending), in insertion order.
    pub(crate) fn into_calls(self, ids: &[NodeId]) -> Vec<SkillCall> {
        (self.nodes.into_iter())
            .filter(|n| ids.binary_search(&n.id).is_ok())
            .map(|n| n.call)
            .collect()
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
        // A named copy of a load stays itself in every cone, so its
        // consumers stop counting for the first.
        if let (false, Some(first)) = (self.bound[node], self.copy_of.get(&node)) {
            if let Some(passed_on) = self.passed_on.get_mut(first) {
                *passed_on -= self.consumers[node];
            }
        }
        self.bound[node] = true;
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
    ///
    /// Costs the cone, not the DAG: a session's thousandth step pays for
    /// the nodes it depends on.
    pub fn ancestors(&self, target: NodeId) -> Result<Vec<NodeId>> {
        self.reach(&[target], |input| input)
    }

    /// The nodes `targets` reach through input edges, each edge leading to
    /// the node `read_as` names for its input; in topological order.
    fn reach(&self, targets: &[NodeId], read_as: impl Fn(NodeId) -> NodeId) -> Result<Vec<NodeId>> {
        let mut needed: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack = Vec::with_capacity(targets.len());
        for &target in targets {
            self.node(target)?;
            stack.push(target);
        }
        while let Some(id) = stack.pop() {
            if needed.insert(id) {
                stack.extend(self.nodes[id].inputs.iter().map(|&i| read_as(i)));
            }
        }
        Ok(needed.into_iter().collect())
    }

    /// A compact copy of the targets' cones (see [`Cone`]). Copies the
    /// cone's nodes and nothing else of this DAG.
    ///
    /// With `merge` (the plan step's first rewrite; without it the cone is
    /// the nodes as written), a load that repeats an earlier load's call is
    /// read as that first load: edges written against the copy lead to the
    /// first, and the first's count includes the copy's consumers, inside
    /// the cone or not. A copy that is a target, `vetoed` or name-bound is
    /// observable as itself and stays itself, with its own consumers.
    pub(crate) fn cone(&self, targets: &[NodeId], vetoed: &[NodeId], merge: bool) -> Result<Cone> {
        let kept: BTreeSet<NodeId> = targets.iter().chain(vetoed).copied().collect();
        let stays = |id: NodeId| !merge || self.bound[id] || kept.contains(&id);
        let read_as = |id: NodeId| match self.copy_of.get(&id) {
            // An edited DAG may have changed either call since.
            Some(&first) if !stays(id) && self.nodes[first].call == self.nodes[id].call => first,
            _ => id,
        };
        let ids = self.reach(targets, read_as)?;
        let mut consumers: Vec<usize> = (ids.iter())
            .map(|&id| self.consumers[id] + self.passed_on.get(&id).copied().unwrap_or(0))
            .collect();
        for copy in &kept {
            // Counted in `passed_on` like any unnamed copy, but staying put.
            let Some(first) = self.copy_of.get(copy) else {
                continue;
            };
            if let (false, Ok(local)) = (self.bound[*copy], ids.binary_search(first)) {
                consumers[local] -= self.consumers[*copy];
            }
        }
        let mut dag = SkillDag {
            nodes: Vec::with_capacity(ids.len()),
            consumers,
            bound: ids.iter().map(|&id| self.bound[id]).collect(),
            ..SkillDag::default()
        };
        let mut merged = false;
        for (local, &id) in ids.iter().enumerate() {
            let node = &self.nodes[id];
            // The walk above took the same edges, so every input is found.
            let inputs = (node.inputs.iter())
                .filter_map(|&i| {
                    merged |= read_as(i) != i;
                    ids.binary_search(&read_as(i)).ok()
                })
                .collect();
            dag.nodes.push(SkillNode {
                id: local,
                call: node.call.clone(),
                inputs,
            });
        }
        Ok(Cone { dag, ids, merged })
    }

    /// Write a planned cone back over the nodes it was cut from: their
    /// calls and their input edges, with the consumer counts following the
    /// edges. Nodes outside the cone are untouched.
    pub(crate) fn write_back(&mut self, cone: Cone) {
        for (node, &id) in cone.dag.nodes.into_iter().zip(&cone.ids) {
            for (slot, local) in node.inputs.into_iter().enumerate() {
                let to = cone.ids[local];
                let from = std::mem::replace(&mut self.nodes[id].inputs[slot], to);
                self.count_edge(from, -1);
                self.count_edge(to, 1);
            }
            self.nodes[id].call = node.call;
        }
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

    /// Whether any version of a dataset name is bound to `id`. Such a
    /// node is addressable from outside the DAG (`Use the dataset`), so
    /// plan rewrites must leave its output untouched.
    pub fn is_bound(&self, id: NodeId) -> bool {
        self.bound.get(id).copied().unwrap_or(false)
    }

    /// How many consumer edges point at each node (a node feeding two
    /// inputs of one consumer counts twice). Kept up to date as edges are
    /// added, so reading it costs nothing; in a cone the counts include
    /// the consumers left outside it.
    pub fn consumer_counts(&self) -> &[usize] {
        &self.consumers
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
    fn consumer_counts_follow_the_edges() {
        let (mut dag, last) = linear_dag();
        let twin = dag.add(SkillCall::load_table("db", "t"), vec![]).unwrap();
        let cat = dag
            .add(
                SkillCall::Concat {
                    other: "self".into(),
                    remove_duplicates: false,
                },
                vec![twin, twin],
            )
            .unwrap();
        assert_eq!(dag.consumer_counts(), &[1, 1, 0, 2, 0]);
        // Cut with the plan step's merge, the copy's consumer reads the
        // first load and counts there; cut as written, it does not.
        let cone = dag.cone(&[cat], &[], true).unwrap();
        assert!(cone.merged);
        assert_eq!(cone.ids, vec![0, cat]);
        assert_eq!(cone.dag.node(1).unwrap().inputs, vec![0, 0]);
        assert_eq!(cone.dag.consumer_counts(), &[3, 0]);
        let mut merged = dag.clone();
        merged.write_back(cone);
        assert_eq!(merged.consumer_counts(), &[3, 1, 0, 0, 0]);
        let cone = dag.cone(&[cat], &[], false).unwrap();
        assert!(!cone.merged);
        assert_eq!(cone.ids, vec![twin, cat]);
        assert_eq!(cone.dag.consumer_counts(), &[2, 0]);
        assert!(!dag.is_bound(last));
        dag.bind_name("result", last).unwrap();
        assert!(dag.is_bound(last) && !dag.is_bound(0) && !dag.is_bound(99));
    }

    #[test]
    fn a_cone_is_compact_and_remembers_the_dag_around_it() {
        let (mut dag, last) = linear_dag();
        // An unrelated branch between the chain and what consumes it.
        let other = dag.add(SkillCall::load_table("db", "u"), vec![]).unwrap();
        let head = dag.add(SkillCall::ShowHead { n: 3 }, vec![1]).unwrap();
        let top = dag.add(SkillCall::CountRows, vec![last]).unwrap();
        dag.bind_name("kept", 1).unwrap();

        let cone = dag.cone(&[top], &[], true).unwrap();
        assert_eq!(cone.ids, vec![0, 1, 2, top]);
        assert_eq!(cone.local(top), Some(3));
        assert_eq!(cone.local(other), None);
        assert_eq!(cone.dag.len(), 4);
        assert_eq!(cone.dag.node(3).unwrap().inputs, vec![2]);
        assert_eq!(cone.dag.node(3).unwrap().call, SkillCall::CountRows);
        // `head` stayed outside and still counts; the name stayed behind
        // and the node still knows it is bound.
        assert_eq!(cone.dag.consumer_counts(), &[1, 2, 1, 0]);
        assert!(cone.dag.is_bound(1) && cone.dag.resolve_name("kept").is_err());
        let _ = head;

        // Written back, an edited cone changes its own nodes only.
        let mut edited = dag.cone(&[top], &[], true).unwrap();
        edited
            .dag
            .update_call(2, SkillCall::Limit { n: 99 })
            .unwrap();
        let mut out = dag.clone();
        out.write_back(edited);
        assert_eq!(out.node(last).unwrap().call, SkillCall::Limit { n: 99 });
        assert_eq!(out.node(top).unwrap().inputs, vec![last]);
        assert_eq!(out.consumer_counts(), dag.consumer_counts());
        assert_eq!(out.node(other).unwrap(), dag.node(other).unwrap());
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
