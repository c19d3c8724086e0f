//! Pass 1: schema and type propagation over a planned [`SkillDag`].
//!
//! Walks the DAG in append (= topological) order and asks each node's
//! skill contract ([`dc_skills::contract`]) for its *flow schema* — the
//! typed schema of the table the executor's cache hands to consumers —
//! and for every reason the call would fail on its inputs' schemas. The
//! driver `debug_assert!`s each flow table it records against that same
//! contract, so what this pass infers is what runs. Contract findings
//! become `DC0002`/`DC0003`/`DC0004`/`DC0005`/`DC0009` at the node.
//!
//! What the walk adds is *ordering*, which no single call can see: a
//! dataset, snapshot or model the DAG creates is visible only downstream
//! of the node creating it (`DC0103` when a name is bound later), sources
//! must exist (`DC0001`, `DC0006`, `DC0007`, `DC0008`), a snapshot name
//! is created once, and two warnings: a bin width that nulls every row,
//! and a shared artifact nobody saved.
//!
//! Soundness contract: a DAG the analyzer accepts fails at run time only
//! for data-dependent reasons the schema cannot see (e.g. fewer than three
//! valid time points for a forecast); where semantics are data-dependent
//! the contract rejects. Column lookups are case-insensitive
//! ([`Schema::field`]); environment lookups are exact, matching the
//! runtime stores.

use std::collections::HashMap;

use dc_engine::Schema;
use dc_skills::{contract, ModelInfo, NodeId, SkillCall, SkillDag, SkillNode, Sources};

use crate::context::AnalysisContext;
use crate::diag::{Code, Diagnostic, Severity, Span};

/// Per-node flow schemas inferred by the pass. `None` = statically
/// unknown (e.g. downstream of `RunSql` or `Pivot`); unknown inputs
/// disable checking, they never produce diagnostics.
pub type FlowSchemas = HashMap<NodeId, Option<Schema>>;

/// Ancestor sets, one per node, indexed by `NodeId` (nodes are
/// append-ordered). `sets[n]` contains every transitive input of `n`.
pub(crate) fn ancestor_sets(dag: &SkillDag) -> Vec<Vec<bool>> {
    let n = dag.len();
    let mut sets: Vec<Vec<bool>> = Vec::with_capacity(n);
    for node in dag.nodes() {
        let mut set = vec![false; n];
        for &i in &node.inputs {
            set[i] = true;
            for (j, anc) in sets[i].iter().enumerate() {
                if *anc {
                    set[j] = true;
                }
            }
        }
        sets.push(set);
    }
    sets
}

/// Run the schema/type pass, appending diagnostics and returning the
/// inferred flow schema per node.
pub fn schema_pass(
    dag: &SkillDag,
    ctx: &AnalysisContext,
    diags: &mut Vec<Diagnostic>,
) -> FlowSchemas {
    let mut pass = Pass {
        dag,
        ctx,
        ancestors: ancestor_sets(dag),
        flows: HashMap::with_capacity(dag.len()),
        saved: HashMap::new(),
        snapshots: HashMap::new(),
        models: HashMap::new(),
    };
    for node in dag.nodes() {
        let flow = pass.node(node, diags);
        pass.flows.insert(node.id, flow);
    }
    pass.flows
}

/// Something a node of the DAG created: visible downstream of it only.
struct Made<T> {
    node: NodeId,
    what: T,
}

struct Pass<'a> {
    dag: &'a SkillDag,
    ctx: &'a AnalysisContext,
    ancestors: Vec<Vec<bool>>,
    flows: FlowSchemas,
    /// `SaveArtifact` nodes seen so far, by name, with their flow.
    saved: HashMap<String, Made<Option<Schema>>>,
    /// `Snapshot` nodes seen so far, by name, with their flow.
    snapshots: HashMap<String, Made<Option<Schema>>>,
    /// `TrainModel` nodes seen so far whose inputs check, by model name.
    models: HashMap<String, Made<ModelInfo>>,
}

impl Pass<'_> {
    /// What a node created under `name`, if it is upstream of `node` — the
    /// only position from which an environment write (save, snapshot,
    /// train) is guaranteed to have happened before `node` runs.
    fn upstream<'m, T>(
        &self,
        made: &'m HashMap<String, Made<T>>,
        name: &str,
        node: NodeId,
    ) -> Option<&'m T> {
        let made = made.get(name)?;
        let set = self.ancestors.get(node)?;
        set.get(made.node)
            .copied()
            .unwrap_or(false)
            .then_some(&made.what)
    }

    /// The dataset a `UseDataset` of `name` reads at `node` (`Some(None)`:
    /// it exists, with an unknown schema). The runtime resolves saved
    /// artifacts by exact name; a bare catalog name, which chat and
    /// `dc-serve` both rewrite to a load before execution
    /// (`dc_skills::rewrite_use_dataset`), matches case-insensitively so
    /// pre-rewrite DAGs analyze.
    fn dataset(&self, name: &str, node: NodeId) -> Option<Option<Schema>> {
        if let Some(schema) = self.upstream(&self.saved, name, node) {
            return Some(schema.clone());
        }
        let table = || self.ctx.any_table(name).map(|meta| meta.schema());
        self.ctx.saved(name).or_else(table).cloned().map(Some)
    }

    fn snapshot(&self, name: &str, node: NodeId) -> Option<Option<Schema>> {
        match self.upstream(&self.snapshots, name, node) {
            Some(schema) => Some(schema.clone()),
            None => self.ctx.snapshot(name).cloned().map(Some),
        }
    }

    fn model(&self, name: &str, node: NodeId) -> Option<ModelInfo> {
        let trained = self.upstream(&self.models, name, node).cloned();
        trained.or_else(|| self.ctx.model(name).cloned())
    }

    fn node(&mut self, node: &SkillNode, diags: &mut Vec<Diagnostic>) -> Option<Schema> {
        use SkillCall::*;
        let (id, call) = (node.id, &node.call);
        let mut report = |code: Code, message: String, severity: Severity| {
            let d = Diagnostic::new(code, message).with_severity(severity);
            diags.push(d.with_span(Span::node(id, call.name())));
        };
        let error = Severity::Error;
        // Sources must exist; a model must be trained upstream or known.
        match call {
            LoadFile { path } if self.ctx.file(path).is_none() => {
                let message = format!("no file fixture registered at {path:?}");
                report(Code::UnknownSource, message, error);
            }
            LoadUrl { url } if self.ctx.url(url).is_none() => {
                let message = format!("no URL fixture registered at {url:?}");
                report(Code::UnknownSource, message, error);
            }
            LoadTable {
                database, table, ..
            } if self.ctx.table(database, table).is_none() => {
                let message = format!("unknown table {database:?}.{table:?} in the catalog");
                report(Code::UnknownDataset, message, error);
            }
            UseDataset { name, .. }
                if node.inputs.is_empty() && self.dataset(name, id).is_none() =>
            {
                let names = self.dag.dataset_names();
                match names.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
                    Some((_, bound)) => {
                        let message = format!(
                            "dataset {name:?} is bound at step {bound}, which is not an \
                             upstream input of this node"
                        );
                        report(Code::UseBeforeDefine, message, error);
                    }
                    None => {
                        let message = format!(
                            "unknown dataset {name:?}: not a saved artifact or catalog table"
                        );
                        report(Code::UnknownDataset, message, error);
                    }
                }
            }
            UseSnapshot { name } if self.snapshot(name, id).is_none() => {
                report(
                    Code::UnknownSnapshot,
                    format!("unknown snapshot {name:?}"),
                    error,
                );
            }
            // Checking stops at an unknown model; the input flows on.
            Predict { model } | EvaluateModel { model, .. }
                if !node.inputs.is_empty() && self.model(model, id).is_none() =>
            {
                report(
                    Code::UnknownModel,
                    format!("unknown model {model:?}"),
                    error,
                );
                return self.flows.get(&node.inputs[0]).cloned().flatten();
            }
            _ => {}
        }
        let inputs: Vec<Option<&Schema>> = (node.inputs.iter())
            .map(|i| self.flows.get(i).and_then(Option::as_ref))
            .collect();
        let upstream = Upstream {
            pass: self,
            node: id,
        };
        let c = contract(call, &inputs, self.ctx, &upstream);
        for f in &c.findings {
            report(f.kind.into(), f.message.clone(), error);
        }
        // What the node creates becomes visible downstream of it.
        let made = |what| Made { node: id, what };
        match call {
            SaveArtifact { name } if !node.inputs.is_empty() => {
                self.saved.insert(name.clone(), made(c.schema.clone()));
            }
            Snapshot { name } if !node.inputs.is_empty() => {
                if self.ctx.snapshot(name).is_some() || self.snapshots.contains_key(name) {
                    let message = format!("snapshot {name:?} already exists");
                    report(Code::InvalidArgument, message, error);
                } else {
                    self.snapshots.insert(name.clone(), made(c.schema.clone()));
                }
            }
            TrainModel { name, .. } => {
                if let Some(info) = c.model {
                    let made = Made {
                        node: id,
                        what: info,
                    };
                    self.models.insert(name.clone(), made);
                }
            }
            // The kernel nulls every row instead of erroring.
            BinColumn { width, .. } if *width <= 0 && c.schema.is_some() => {
                let message = format!("bin width {width} produces only nulls");
                report(Code::InvalidArgument, message, Severity::Warning);
            }
            // Sharing never fails at run time, but an artifact nobody
            // created is almost certainly a typo.
            ShareArtifact { artifact, .. }
                if self.upstream(&self.saved, artifact, id).is_none()
                    && self.ctx.saved(artifact).is_none() =>
            {
                let message = format!("shared artifact {artifact:?} is not saved anywhere");
                report(Code::UnknownDataset, message, Severity::Warning);
            }
            _ => {}
        }
        c.schema
    }
}

/// What a node reads: the context's sources, under what the DAG created
/// upstream of it.
struct Upstream<'p, 'a> {
    pass: &'p Pass<'a>,
    node: NodeId,
}

impl Sources for Upstream<'_, '_> {
    fn file_schema(&self, path: &str) -> Option<Schema> {
        self.pass.ctx.file_schema(path)
    }
    fn url_schema(&self, url: &str) -> Option<Schema> {
        self.pass.ctx.url_schema(url)
    }
    fn saved_schema(&self, name: &str) -> Option<Schema> {
        self.pass.dataset(name, self.node).flatten()
    }
    fn snapshot_schema(&self, name: &str) -> Option<Schema> {
        self.pass.snapshot(name, self.node).flatten()
    }
    fn model_info(&self, name: &str) -> Option<ModelInfo> {
        self.pass.model(name, self.node)
    }
}
