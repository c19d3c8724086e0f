//! Pass 1: schema and type propagation over a planned [`SkillDag`].
//!
//! Walks the DAG in append (= topological) order, inferring each node's
//! downstream-facing *flow schema* — the typed schema of the table the
//! executor's cache would hand to consumers — and rejecting calls the
//! interpreter would reject at run time: unknown columns, dtype
//! mismatches, invalid function composition, unresolvable sources.
//!
//! Soundness contract: the pass mirrors `execute_call` /
//! `execute_pure_call_with_mem` exactly for every construct it models, erring on
//! the side of *rejecting* when semantics are data-dependent. A DAG the
//! analyzer accepts therefore fails at run time only for data-dependent
//! reasons the schema cannot see (e.g. fewer than three valid time
//! points for a forecast). Column lookups are case-insensitive
//! ([`Schema::field`]); environment lookups are exact, matching the
//! runtime stores.

use std::collections::HashMap;

use dc_engine::{AggFunc, BinaryOp, DataType, Expr, Field, ScalarFunc, Schema, UnaryOp};
use dc_ml::MlMethod;
use dc_skills::{NodeId, SkillCall, SkillDag};

use crate::context::{AnalysisContext, ModelInfo};
use crate::diag::{Code, Diagnostic, Span};

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
    let ancestors = ancestor_sets(dag);
    let mut pass = Pass {
        dag,
        ctx,
        ancestors,
        flows: HashMap::with_capacity(dag.len()),
        saved_in_dag: HashMap::new(),
        snaps_in_dag: HashMap::new(),
        trained_in_dag: HashMap::new(),
    };
    for node in dag.nodes() {
        let flow = pass.infer_node(node.id, &node.call, &node.inputs, diags);
        pass.flows.insert(node.id, flow);
    }
    pass.flows
}

/// A model trained inside the DAG, keyed by name, with the node that
/// trains it (prediction is only sound downstream of that node).
struct DagModel {
    node: NodeId,
    info: ModelInfo,
}

struct Pass<'a> {
    dag: &'a SkillDag,
    ctx: &'a AnalysisContext,
    ancestors: Vec<Vec<bool>>,
    flows: FlowSchemas,
    /// `SaveArtifact` nodes seen so far: name → (node, schema).
    saved_in_dag: HashMap<String, (NodeId, Option<Schema>)>,
    /// `Snapshot` nodes seen so far: name → (node, schema).
    snaps_in_dag: HashMap<String, (NodeId, Option<Schema>)>,
    trained_in_dag: HashMap<String, DagModel>,
}

impl Pass<'_> {
    /// The flow schema arriving at `node` from input slot `slot`.
    /// `Ok(None)` = present but unknown; `Err(())` = the slot is missing
    /// (already diagnosed).
    fn input(
        &self,
        node: NodeId,
        call: &SkillCall,
        inputs: &[NodeId],
        slot: usize,
        diags: &mut Vec<Diagnostic>,
    ) -> Result<Option<Schema>, ()> {
        match inputs.get(slot) {
            Some(i) => Ok(self.flows.get(i).cloned().flatten()),
            None => {
                let what = if slot == 0 {
                    "an input dataset"
                } else {
                    "a second dataset"
                };
                diags.push(
                    Diagnostic::new(Code::MissingInput, format!("{} needs {what}", call.name()))
                        .with_span(Span::node(node, call.name())),
                );
                Err(())
            }
        }
    }

    /// True when `maybe_ancestor` is upstream of `node` — the only
    /// position from which an environment write (save, snapshot, train)
    /// is guaranteed to have happened before `node` runs.
    fn is_upstream(&self, maybe_ancestor: NodeId, node: NodeId) -> bool {
        self.ancestors
            .get(node)
            .is_some_and(|set| set.get(maybe_ancestor).copied().unwrap_or(false))
    }

    fn infer_node(
        &mut self,
        id: NodeId,
        call: &SkillCall,
        inputs: &[NodeId],
        diags: &mut Vec<Diagnostic>,
    ) -> Option<Schema> {
        use SkillCall::*;
        let span = || Span::node(id, call.name());
        // A couple of local helpers so the per-variant arms stay short.
        macro_rules! primary {
            () => {
                match self.input(id, call, inputs, 0, diags) {
                    Ok(f) => f,
                    Err(()) => return None,
                }
            };
        }

        match call {
            // ----- ingestion -----
            LoadFile { path } => match self.ctx.file(path) {
                Some(s) => Some(s.clone()),
                None => {
                    diags.push(
                        Diagnostic::new(
                            Code::UnknownSource,
                            format!("no file fixture registered at {path:?}"),
                        )
                        .with_span(span()),
                    );
                    None
                }
            },
            LoadUrl { url } => match self.ctx.url(url) {
                Some(s) => Some(s.clone()),
                None => {
                    diags.push(
                        Diagnostic::new(
                            Code::UnknownSource,
                            format!("no URL fixture registered at {url:?}"),
                        )
                        .with_span(span()),
                    );
                    None
                }
            },
            // A load with a projection carries the projected columns
            // only, in the call's column order.
            LoadTable {
                database,
                table,
                columns,
                ..
            } => match (self.ctx.table(database, table), columns) {
                (Some((schema, _stats)), None) => Some(schema.clone()),
                (Some((schema, _stats)), Some(columns)) => {
                    let fields: Vec<_> = columns
                        .iter()
                        .filter_map(|c| schema.field(c).cloned())
                        .collect();
                    dc_engine::Schema::new(fields).ok()
                }
                (None, _) => {
                    diags.push(
                        Diagnostic::new(
                            Code::UnknownDataset,
                            format!("unknown table {database:?}.{table:?} in the catalog"),
                        )
                        .with_span(span()),
                    );
                    None
                }
            },
            UseDataset { name, .. } => {
                if !inputs.is_empty() {
                    // The DAG wired the named node as our input.
                    return primary!();
                }
                // Runtime resolves against saved artifacts (exact name).
                if let Some((saver, schema)) = self.saved_in_dag.get(name) {
                    if self.is_upstream(*saver, id) {
                        return schema.clone();
                    }
                }
                if let Some(schema) = self.ctx.saved(name) {
                    return Some(schema.clone());
                }
                // The platform rewrites bare catalog names to LoadTable
                // before execution; accept them here with the same
                // case-insensitive match so pre-rewrite DAGs analyze.
                if let Some((schema, _)) = self.ctx.any_table(name) {
                    return Some(schema.clone());
                }
                if let Some((_, bound)) = self
                    .dag
                    .dataset_names()
                    .iter()
                    .find(|(n, _)| n.eq_ignore_ascii_case(name))
                {
                    diags.push(
                        Diagnostic::new(
                            Code::UseBeforeDefine,
                            format!(
                                "dataset {name:?} is bound at step {bound}, which is not an \
                                 upstream input of this node"
                            ),
                        )
                        .with_span(span()),
                    );
                } else {
                    diags.push(
                        Diagnostic::new(
                            Code::UnknownDataset,
                            format!(
                                "unknown dataset {name:?}: not a saved artifact or catalog table"
                            ),
                        )
                        .with_span(span()),
                    );
                }
                None
            }
            UseSnapshot { name } => {
                if let Some((creator, schema)) = self.snaps_in_dag.get(name) {
                    if self.is_upstream(*creator, id) {
                        return schema.clone();
                    }
                }
                if let Some(schema) = self.ctx.snapshot(name) {
                    return Some(schema.clone());
                }
                diags.push(
                    Diagnostic::new(Code::UnknownSnapshot, format!("unknown snapshot {name:?}"))
                        .with_span(span()),
                );
                None
            }
            ListDatasets => Some(Schema::default()),

            // ----- exploration (flow = input) -----
            DescribeColumn { column } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    self.require_col(s, column, &span(), diags);
                }
                flow
            }
            DescribeDataset | ShowHead { .. } | CountRows | ProfileMissing | ExportCsv => {
                primary!()
            }

            // ----- visualization (flow = input) -----
            Visualize { kpi, by } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    self.require_col(s, kpi, &span(), diags);
                    for b in by {
                        self.require_col(s, b, &span(), diags);
                    }
                }
                flow
            }
            Plot {
                x,
                y,
                color,
                size,
                for_each,
                ..
            } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    for c in [x, y, color, size, for_each].into_iter().flatten() {
                        self.require_col(s, c, &span(), diags);
                    }
                }
                flow
            }

            // ----- wrangling -----
            KeepRows { predicate } | DropRows { predicate } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    let ty = self.infer_expr(s, predicate, &span(), diags);
                    if let Known(dt) = ty {
                        if dt != DataType::Bool {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!(
                                        "predicate must evaluate to Bool, but this expression \
                                         produces {dt}"
                                    ),
                                )
                                .with_span(span()),
                            );
                        }
                    }
                }
                flow
            }
            KeepColumns { columns } => {
                let s = primary!()?;
                let mut fields = Vec::with_capacity(columns.len());
                for c in columns {
                    if let Some(f) = self.require_col(&s, c, &span(), diags) {
                        fields.push(f);
                    }
                }
                self.build_schema(fields, &span(), diags)
            }
            DropColumns { columns } => {
                let s = primary!()?;
                let mut out = s.fields().to_vec();
                for c in columns {
                    match out.iter().position(|f| f.name.eq_ignore_ascii_case(c)) {
                        Some(i) => {
                            out.remove(i);
                        }
                        // Sequential drops: a column absent here is absent
                        // at run time too (either never existed or was
                        // named twice in the list).
                        None => {
                            self.unknown_col(&s, c, &span(), diags);
                        }
                    }
                }
                self.build_schema(out, &span(), diags)
            }
            RenameColumn { from, to } => {
                let s = primary!()?;
                let idx = s.index_of(from);
                if idx.is_none() {
                    self.unknown_col(&s, from, &span(), diags);
                    return None;
                }
                if s.index_of(to).is_some_and(|j| Some(j) != idx) {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            format!("cannot rename {from:?} to {to:?}: column already exists"),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let mut fields = s.fields().to_vec();
                let i = idx.unwrap();
                fields[i] = Field::new(to, fields[i].dtype);
                self.build_schema(fields, &span(), diags)
            }
            CreateColumn { name, expr } => {
                let s = primary!()?;
                let ty = self.infer_expr(&s, expr, &span(), diags);
                match ty {
                    Known(dt) => self.with_col(&s, name, dt, &span(), diags),
                    Unknown => None,
                }
            }
            CreateConstantColumn { name, value } => {
                let s = primary!()?;
                // Null literals broadcast as a Str column of nulls.
                let dt = value.dtype().unwrap_or(DataType::Str);
                self.with_col(&s, name, dt, &span(), diags)
            }
            Compute { aggs, for_each } => {
                let s = primary!()?;
                if aggs.is_empty() {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            "group_by requires at least one aggregate".to_string(),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let mut fields = Vec::new();
                let mut ok = true;
                for k in for_each {
                    match self.require_col(&s, k, &span(), diags) {
                        Some(f) => fields.push(f),
                        None => ok = false,
                    }
                }
                for agg in aggs {
                    match (&agg.column, agg.func) {
                        (_, AggFunc::CountRecords) => {
                            fields.push(Field::new(&agg.output, DataType::Int));
                        }
                        (Some(c), func) => match self.require_col(&s, c, &span(), diags) {
                            Some(f) => {
                                if func.requires_numeric() && !f.dtype.is_numeric() {
                                    diags.push(
                                        Diagnostic::new(
                                            Code::TypeMismatch,
                                            format!(
                                                "{} requires a numeric column, but {c} is {}",
                                                func.name(),
                                                f.dtype
                                            ),
                                        )
                                        .with_span(span()),
                                    );
                                    ok = false;
                                } else {
                                    fields.push(Field::new(&agg.output, agg_output(func, f.dtype)));
                                }
                            }
                            None => ok = false,
                        },
                        (None, func) => {
                            diags.push(
                                Diagnostic::new(
                                    Code::InvalidArgument,
                                    format!("{} requires an argument column", func.name()),
                                )
                                .with_span(span()),
                            );
                            ok = false;
                        }
                    }
                }
                if !ok {
                    return None;
                }
                self.build_schema(fields, &span(), diags)
            }
            Pivot {
                index,
                columns,
                values,
                agg,
            } => {
                let s = primary!()?;
                if index.eq_ignore_ascii_case(columns) {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            "pivot index and columns must differ".to_string(),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                self.require_col(&s, index, &span(), diags);
                self.require_col(&s, columns, &span(), diags);
                if let Some(f) = self.require_col(&s, values, &span(), diags) {
                    if agg.requires_numeric() && !f.dtype.is_numeric() {
                        diags.push(
                            Diagnostic::new(
                                Code::TypeMismatch,
                                format!(
                                    "{} requires a numeric column, but {values} is {}",
                                    agg.name(),
                                    f.dtype
                                ),
                            )
                            .with_span(span()),
                        );
                    }
                }
                // Output headers are data values: statically unknown.
                None
            }
            Sort { keys } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    for (k, _) in keys {
                        self.require_col(s, k, &span(), diags);
                    }
                }
                flow
            }
            Top { column, .. } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    self.require_col(s, column, &span(), diags);
                }
                flow
            }
            Limit { .. } | ShuffleRows { .. } => primary!(),
            Sample { fraction, .. } => {
                let flow = primary!();
                if !(*fraction > 0.0 && *fraction <= 1.0) {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            format!("sample fraction must be in (0, 1], got {fraction}"),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                flow
            }
            Concat { .. } => {
                let left = primary!();
                let right = match self.input(id, call, inputs, 1, diags) {
                    Ok(f) => f,
                    Err(()) => return None,
                };
                match (left, right) {
                    (Some(l), Some(r)) => match l.concat_compatible(&r) {
                        Ok(unified) => Some(unified),
                        Err(e) => {
                            diags.push(
                                Diagnostic::new(
                                    Code::BadComposition,
                                    format!("datasets cannot be concatenated: {e}"),
                                )
                                .with_span(span()),
                            );
                            None
                        }
                    },
                    _ => None,
                }
            }
            Join {
                left_on, right_on, ..
            } => {
                let left = primary!();
                let right = match self.input(id, call, inputs, 1, diags) {
                    Ok(f) => f,
                    Err(()) => return None,
                };
                if left_on.len() != right_on.len() || left_on.is_empty() {
                    diags.push(
                        Diagnostic::new(
                            Code::BadComposition,
                            "join requires equal, non-empty key lists".to_string(),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let (Some(l), Some(r)) = (left, right) else {
                    return None;
                };
                let mut ok = true;
                for (lk, rk) in left_on.iter().zip(right_on) {
                    let lf = self.require_col(&l, lk, &span(), diags);
                    let rf = self.require_col(&r, rk, &span(), diags);
                    match (lf, rf) {
                        (Some(lf), Some(rf)) => {
                            if lf.dtype.unify(rf.dtype).is_none() {
                                diags.push(
                                    Diagnostic::new(
                                        Code::TypeMismatch,
                                        format!(
                                            "join keys {lk:?} ({}) and {rk:?} ({}) have \
                                             incompatible types",
                                            lf.dtype, rf.dtype
                                        ),
                                    )
                                    .with_span(span()),
                                );
                                ok = false;
                            }
                        }
                        _ => ok = false,
                    }
                }
                if !ok {
                    return None;
                }
                // Output: all left fields, then right non-key fields with
                // `_right` suffixes on name collisions.
                let mut fields = l.fields().to_vec();
                for f in r.fields() {
                    if right_on.iter().any(|k| f.name.eq_ignore_ascii_case(k)) {
                        continue;
                    }
                    let name = if l.field(&f.name).is_some() {
                        format!("{}_right", f.name)
                    } else {
                        f.name.clone()
                    };
                    fields.push(Field::new(name, f.dtype));
                }
                self.build_schema(fields, &span(), diags)
            }
            Distinct { columns } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    for c in columns {
                        self.require_col(s, c, &span(), diags);
                    }
                }
                flow
            }
            DropMissing { columns } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    if columns.is_empty() && s.is_empty() {
                        diags.push(
                            Diagnostic::new(
                                Code::InvalidArgument,
                                "no columns to check for missing values".to_string(),
                            )
                            .with_span(span()),
                        );
                        return None;
                    }
                    for c in columns {
                        self.require_col(s, c, &span(), diags);
                    }
                }
                flow
            }
            FillMissing { column, value } => {
                let s = primary!()?;
                let f = self.require_col(&s, column, &span(), diags)?;
                match value.dtype() {
                    // Coalesce unifies the column with the fill value.
                    Some(v) => match f.dtype.unify(v) {
                        Some(dt) => self.with_col(&s, column, dt, &span(), diags),
                        None => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!(
                                        "cannot fill {column:?} ({}) with a {v} value",
                                        f.dtype
                                    ),
                                )
                                .with_span(span()),
                            );
                            None
                        }
                    },
                    None => Some(s),
                }
            }
            ReplaceValues { column, from, to } => {
                let s = primary!()?;
                let f = self.require_col(&s, column, &span(), diags)?;
                // Desugars to If(col == from, to, col).
                if let Some(fv) = from.dtype() {
                    if fv.unify(f.dtype).is_none() && !(fv.is_numeric() && f.dtype.is_numeric()) {
                        diags.push(
                            Diagnostic::new(
                                Code::TypeMismatch,
                                format!("cannot compare {} with {fv}", f.dtype),
                            )
                            .with_span(span()),
                        );
                        return None;
                    }
                }
                match to.dtype() {
                    Some(tv) => match tv.unify(f.dtype) {
                        Some(dt) => self.with_col(&s, column, dt, &span(), diags),
                        None => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!(
                                        "if branches have incompatible types {tv} and {}",
                                        f.dtype
                                    ),
                                )
                                .with_span(span()),
                            );
                            None
                        }
                    },
                    None => Some(s),
                }
            }
            CastColumn { column, to } => {
                let s = primary!()?;
                self.require_col(&s, column, &span(), diags)?;
                // cast_value is total (unconvertible values become null),
                // so any cast succeeds structurally.
                self.with_col(&s, column, *to, &span(), diags)
            }
            BinColumn {
                column,
                width,
                name,
            } => {
                let s = primary!()?;
                let f = self.require_col(&s, column, &span(), diags)?;
                if !f.dtype.is_numeric() {
                    diags.push(
                        Diagnostic::new(
                            Code::TypeMismatch,
                            format!("bin requires a numeric column, but {column} is {}", f.dtype),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                if *width <= 0 {
                    // The kernel nulls every row instead of erroring; warn.
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            format!("bin width {width} produces only nulls"),
                        )
                        .with_span(span())
                        .with_severity(crate::diag::Severity::Warning),
                    );
                }
                let out_name = name
                    .clone()
                    .unwrap_or_else(|| format!("{column}Int{width}"));
                // bin(Int, Int) stays Int; float inputs bin to Float.
                let dt = if f.dtype == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                };
                self.with_col(&s, &out_name, dt, &span(), diags)
            }
            ExtractDatePart { column, part, name } => {
                let s = primary!()?;
                let f = self.require_col(&s, column, &span(), diags)?;
                if f.dtype != DataType::Date {
                    diags.push(
                        Diagnostic::new(
                            Code::TypeMismatch,
                            format!(
                                "{} requires a Date column, but {column} is {}",
                                part.name(),
                                f.dtype
                            ),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let out_name = name
                    .clone()
                    .unwrap_or_else(|| format!("{column}_{}", part.name()));
                self.with_col(&s, &out_name, DataType::Int, &span(), diags)
            }
            TrimColumn { column } => {
                let s = primary!()?;
                let f = self.require_col(&s, column, &span(), diags)?;
                if f.dtype != DataType::Str {
                    diags.push(
                        Diagnostic::new(
                            Code::TypeMismatch,
                            format!("trim requires a Str column, but {column} is {}", f.dtype),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                Some(s)
            }

            // ----- machine learning -----
            TrainModel {
                name,
                target,
                features,
                method,
            } => {
                let flow = primary!();
                if let Some(s) = &flow {
                    let Some(tf) = self.require_col(s, target, &span(), diags) else {
                        return flow;
                    };
                    if *method == MlMethod::Linear && !tf.dtype.is_numeric() {
                        diags.push(
                            Diagnostic::new(
                                Code::TypeMismatch,
                                format!(
                                    "linear regression needs a numeric target, but {target} \
                                     is {}",
                                    tf.dtype
                                ),
                            )
                            .with_span(span()),
                        );
                        return flow;
                    }
                    let resolved: Vec<String> = if features.is_empty() {
                        s.fields()
                            .iter()
                            .filter(|f| {
                                f.dtype.is_numeric() && !f.name.eq_ignore_ascii_case(target)
                            })
                            .map(|f| f.name.clone())
                            .collect()
                    } else {
                        features.clone()
                    };
                    if resolved.is_empty() {
                        diags.push(
                            Diagnostic::new(
                                Code::InvalidArgument,
                                "at least one feature column required (no numeric non-target \
                                 columns to default to)"
                                    .to_string(),
                            )
                            .with_span(span()),
                        );
                        return flow;
                    }
                    let mut ok = true;
                    for feat in &resolved {
                        match self.require_col(s, feat, &span(), diags) {
                            Some(f) if !f.dtype.is_numeric() && f.dtype != DataType::Date => {
                                diags.push(
                                    Diagnostic::new(
                                        Code::TypeMismatch,
                                        format!("feature {feat} is not numeric ({})", f.dtype),
                                    )
                                    .with_span(span()),
                                );
                                ok = false;
                            }
                            Some(_) => {}
                            None => ok = false,
                        }
                    }
                    if ok {
                        let numeric_target = tf.dtype.is_numeric();
                        let output = match method {
                            MlMethod::Linear => DataType::Float,
                            MlMethod::DecisionTree => DataType::Str,
                            MlMethod::Auto if numeric_target => DataType::Float,
                            MlMethod::Auto => DataType::Str,
                        };
                        self.trained_in_dag.insert(
                            name.clone(),
                            DagModel {
                                node: id,
                                info: ModelInfo {
                                    target: target.clone(),
                                    features: resolved,
                                    output,
                                },
                            },
                        );
                    }
                }
                flow
            }
            Predict { model } => {
                let flow = primary!();
                let info = match self.resolve_model(model, id) {
                    Some(info) => info,
                    None => {
                        diags.push(
                            Diagnostic::new(Code::UnknownModel, format!("unknown model {model:?}"))
                                .with_span(span()),
                        );
                        return flow;
                    }
                };
                let s = flow?;
                let mut ok = true;
                for feat in &info.features {
                    match self.require_col(&s, feat, &span(), diags) {
                        Some(f) if !f.dtype.is_numeric() && f.dtype != DataType::Date => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("feature {feat} is not numeric ({})", f.dtype),
                                )
                                .with_span(span()),
                            );
                            ok = false;
                        }
                        Some(_) => {}
                        None => ok = false,
                    }
                }
                if !ok {
                    return None;
                }
                let name = s.fresh_name(&format!("Predicted_{}", info.target));
                self.with_col(&s, &name, info.output, &span(), diags)
            }
            PredictTimeSeries {
                measures,
                horizon,
                time_column,
            } => {
                let flow = primary!();
                if *horizon == 0 {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            "horizon must be positive".to_string(),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                if measures.is_empty() {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            "at least one measure column required".to_string(),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let s = flow?;
                let mut fields = Vec::new();
                match self.require_col(&s, time_column, &span(), diags) {
                    Some(tf) => {
                        if !tf.dtype.is_numeric() && tf.dtype != DataType::Date {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!(
                                        "time column {time_column} must be numeric or Date, \
                                         not {}",
                                        tf.dtype
                                    ),
                                )
                                .with_span(span()),
                            );
                            return None;
                        }
                        fields.push(tf);
                    }
                    None => return None,
                }
                for m in measures {
                    match self.require_col(&s, m, &span(), diags) {
                        Some(f) if !f.dtype.is_numeric() => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("measure {m} is not numeric ({})", f.dtype),
                                )
                                .with_span(span()),
                            );
                            return None;
                        }
                        Some(f) => fields.push(Field::new(&f.name, DataType::Float)),
                        None => return None,
                    }
                }
                fields.push(Field::new("RecordType", DataType::Str));
                self.build_schema(fields, &span(), diags)
            }
            DetectOutliers { column, .. } => {
                let s = primary!()?;
                let f = self.require_col(&s, column, &span(), diags)?;
                if !f.dtype.is_numeric() && f.dtype != DataType::Date {
                    diags.push(
                        Diagnostic::new(
                            Code::TypeMismatch,
                            format!(
                                "outlier detection requires a numeric column, but {column} \
                                 is {}",
                                f.dtype
                            ),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let name = s.fresh_name(&format!("IsOutlier_{column}"));
                self.with_col(&s, &name, DataType::Bool, &span(), diags)
            }
            Cluster { k, features } => {
                let s = primary!()?;
                if *k == 0 {
                    diags.push(
                        Diagnostic::new(Code::InvalidArgument, "k must be positive".to_string())
                            .with_span(span()),
                    );
                    return None;
                }
                if features.is_empty() {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            "clustering requires at least one feature column".to_string(),
                        )
                        .with_span(span()),
                    );
                    return None;
                }
                let mut ok = true;
                for feat in features {
                    match self.require_col(&s, feat, &span(), diags) {
                        Some(f) if !f.dtype.is_numeric() && f.dtype != DataType::Date => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("feature {feat} is not numeric ({})", f.dtype),
                                )
                                .with_span(span()),
                            );
                            ok = false;
                        }
                        Some(_) => {}
                        None => ok = false,
                    }
                }
                if !ok {
                    return None;
                }
                let name = s.fresh_name("Cluster");
                self.with_col(&s, &name, DataType::Int, &span(), diags)
            }
            EvaluateModel { model, target } => {
                let flow = primary!();
                if self.resolve_model(model, id).is_none() {
                    diags.push(
                        Diagnostic::new(Code::UnknownModel, format!("unknown model {model:?}"))
                            .with_span(span()),
                    );
                    return flow;
                }
                if let Some(s) = &flow {
                    self.require_col(s, target, &span(), diags);
                }
                flow
            }

            // ----- SQL -----
            RunSql { .. } => None,

            // ----- collaboration / platform -----
            SaveArtifact { name } => {
                let flow = primary!();
                self.saved_in_dag.insert(name.clone(), (id, flow.clone()));
                flow
            }
            Snapshot { name } => {
                let flow = primary!();
                if self.ctx.snapshot(name).is_some() || self.snaps_in_dag.contains_key(name) {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            format!("snapshot {name:?} already exists"),
                        )
                        .with_span(span()),
                    );
                    return flow;
                }
                self.snaps_in_dag.insert(name.clone(), (id, flow.clone()));
                flow
            }
            Define { .. } | Comment { .. } => {
                if inputs.is_empty() {
                    Some(Schema::default())
                } else {
                    self.flows.get(&inputs[0]).cloned().flatten()
                }
            }
            ShareArtifact { artifact, .. } => {
                // Sharing never fails at run time, but an artifact nobody
                // created is almost certainly a typo — warn.
                let known = self
                    .saved_in_dag
                    .get(artifact)
                    .is_some_and(|(saver, _)| self.is_upstream(*saver, id))
                    || self.ctx.saved(artifact).is_some();
                if !known {
                    diags.push(
                        Diagnostic::new(
                            Code::UnknownDataset,
                            format!("shared artifact {artifact:?} is not saved anywhere"),
                        )
                        .with_span(span())
                        .with_severity(crate::diag::Severity::Warning),
                    );
                }
                if inputs.is_empty() {
                    Some(Schema::default())
                } else {
                    self.flows.get(&inputs[0]).cloned().flatten()
                }
            }
        }
    }

    /// Resolve a model name: in-DAG training upstream of `node` first,
    /// then the environment registry (exact names, like the runtime).
    fn resolve_model(&self, name: &str, node: NodeId) -> Option<ModelInfo> {
        if let Some(m) = self.trained_in_dag.get(name) {
            if self.is_upstream(m.node, node) {
                return Some(m.info.clone());
            }
        }
        self.ctx.model(name).cloned()
    }

    /// Look up `name` in `schema` (case-insensitive, like the engine),
    /// diagnosing DC0002 when absent.
    fn require_col(
        &self,
        schema: &Schema,
        name: &str,
        span: &Span,
        diags: &mut Vec<Diagnostic>,
    ) -> Option<Field> {
        match schema.field(name) {
            Some(f) => Some(f.clone()),
            None => {
                self.unknown_col(schema, name, span, diags);
                None
            }
        }
    }

    fn unknown_col(&self, schema: &Schema, name: &str, span: &Span, diags: &mut Vec<Diagnostic>) {
        let have = schema.names().join(", ");
        diags.push(
            Diagnostic::new(
                Code::UnknownColumn,
                format!("unknown column {name:?} (have: {have})"),
            )
            .with_span(span.clone()),
        );
    }

    /// Mirror `Table::with_column`: replace a same-named field in place
    /// (keeping its original casing) or append a new one.
    fn with_col(
        &self,
        schema: &Schema,
        name: &str,
        dtype: DataType,
        span: &Span,
        diags: &mut Vec<Diagnostic>,
    ) -> Option<Schema> {
        let mut fields = schema.fields().to_vec();
        match schema.index_of(name) {
            Some(i) => {
                let preserved = fields[i].name.clone();
                fields[i] = Field::new(preserved, dtype);
            }
            None => fields.push(Field::new(name, dtype)),
        }
        self.build_schema(fields, span, diags)
    }

    /// Assemble a schema, converting constraint violations (duplicate
    /// column names) into DC0004 diagnostics.
    fn build_schema(
        &self,
        fields: Vec<Field>,
        span: &Span,
        diags: &mut Vec<Diagnostic>,
    ) -> Option<Schema> {
        match Schema::new(fields) {
            Ok(s) => Some(s),
            Err(e) => {
                diags.push(
                    Diagnostic::new(
                        Code::BadComposition,
                        format!("output schema is invalid: {e}"),
                    )
                    .with_span(span.clone()),
                );
                None
            }
        }
    }

    /// Conservative expression typing, mirroring `dc_engine::eval`.
    /// Every rejection here is a rejection there; `Unknown` is returned
    /// whenever the type depends on something we cannot see.
    fn infer_expr(
        &self,
        schema: &Schema,
        expr: &Expr,
        span: &Span,
        diags: &mut Vec<Diagnostic>,
    ) -> ExprTy {
        use DataType as T;
        match expr {
            Expr::Column(name) => match schema.field(name) {
                Some(f) => Known(f.dtype),
                None => {
                    self.unknown_col(schema, name, span, diags);
                    Unknown
                }
            },
            Expr::Literal(v) => v.dtype().map(Known).unwrap_or(Unknown),
            Expr::Binary { left, op, right } => {
                let l = self.infer_expr(schema, left, span, diags);
                let r = self.infer_expr(schema, right, span, diags);
                if op.is_logical() {
                    for side in [l, r] {
                        if let Known(dt) = side {
                            if dt != T::Bool {
                                diags.push(
                                    Diagnostic::new(
                                        Code::TypeMismatch,
                                        format!("logical operand must be Bool, not {dt}"),
                                    )
                                    .with_span(span.clone()),
                                );
                            }
                        }
                    }
                    Known(T::Bool)
                } else if op.is_comparison() {
                    if let (Known(a), Known(b)) = (l, r) {
                        if a.unify(b).is_none() && !(a.is_numeric() && b.is_numeric()) {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("cannot compare {a} with {b}"),
                                )
                                .with_span(span.clone()),
                            );
                        }
                    }
                    Known(T::Bool)
                } else {
                    // Arithmetic.
                    match (l, r) {
                        (Known(a), Known(b)) => match (a, b) {
                            (T::Int, T::Int) if *op != BinaryOp::Div => Known(T::Int),
                            (T::Date, T::Int) if matches!(op, BinaryOp::Add | BinaryOp::Sub) => {
                                Known(T::Date)
                            }
                            (T::Date, T::Date) if *op == BinaryOp::Sub => Known(T::Int),
                            (T::Str, T::Str) if *op == BinaryOp::Add => Known(T::Str),
                            (a, b) if a.is_numeric() && b.is_numeric() => Known(T::Float),
                            (a, b) => {
                                diags.push(
                                    Diagnostic::new(
                                        Code::TypeMismatch,
                                        format!(
                                            "arithmetic {:?} not defined for {a} and {b}",
                                            op.sql()
                                        ),
                                    )
                                    .with_span(span.clone()),
                                );
                                Unknown
                            }
                        },
                        _ => Unknown,
                    }
                }
            }
            Expr::Unary { op, expr } => {
                let t = self.infer_expr(schema, expr, span, diags);
                match op {
                    UnaryOp::Not => {
                        if let Known(dt) = t {
                            if dt != T::Bool {
                                diags.push(
                                    Diagnostic::new(
                                        Code::TypeMismatch,
                                        format!("NOT operand must be Bool, not {dt}"),
                                    )
                                    .with_span(span.clone()),
                                );
                            }
                        }
                        Known(T::Bool)
                    }
                    UnaryOp::Neg => match t {
                        Known(dt) if dt.is_numeric() => Known(dt),
                        Known(dt) => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("cannot negate a {dt} value"),
                                )
                                .with_span(span.clone()),
                            );
                            Unknown
                        }
                        Unknown => Unknown,
                    },
                }
            }
            Expr::Func { func, args } => {
                let (min, max) = func.arity();
                if args.len() < min || args.len() > max {
                    diags.push(
                        Diagnostic::new(
                            Code::InvalidArgument,
                            format!(
                                "{} expects between {min} and {} arguments, got {}",
                                func.name(),
                                if max == usize::MAX {
                                    "unbounded".to_string()
                                } else {
                                    max.to_string()
                                },
                                args.len()
                            ),
                        )
                        .with_span(span.clone()),
                    );
                    return Unknown;
                }
                let tys: Vec<ExprTy> = args
                    .iter()
                    .map(|a| self.infer_expr(schema, a, span, diags))
                    .collect();
                self.infer_func(*func, &tys, span, diags)
            }
            Expr::Cast { expr, to } => {
                self.infer_expr(schema, expr, span, diags);
                Known(*to)
            }
            Expr::IsNull(e) | Expr::IsNotNull(e) => {
                self.infer_expr(schema, e, span, diags);
                Known(T::Bool)
            }
            Expr::InList { expr, .. } => {
                // Membership compares via SQL value equality; mismatched
                // types simply never match, they do not error.
                self.infer_expr(schema, expr, span, diags);
                Known(T::Bool)
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                let e = self.infer_expr(schema, expr, span, diags);
                for bound in [low, high] {
                    let b = self.infer_expr(schema, bound, span, diags);
                    if let (Known(a), Known(b)) = (e, b) {
                        if a.unify(b).is_none() && !(a.is_numeric() && b.is_numeric()) {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("cannot compare {a} with {b}"),
                                )
                                .with_span(span.clone()),
                            );
                        }
                    }
                }
                Known(T::Bool)
            }
        }
    }

    fn infer_func(
        &self,
        func: ScalarFunc,
        tys: &[ExprTy],
        span: &Span,
        diags: &mut Vec<Diagnostic>,
    ) -> ExprTy {
        use DataType as T;
        use ScalarFunc::*;
        let mut mismatch = |want: &str, got: DataType| {
            diags.push(
                Diagnostic::new(
                    Code::TypeMismatch,
                    format!("{} requires {want}, got {got}", func.name()),
                )
                .with_span(span.clone()),
            );
        };
        let numeric = |t: &ExprTy| !matches!(t, Known(dt) if !dt.is_numeric());
        let stringy = |t: &ExprTy| !matches!(t, Known(dt) if *dt != T::Str);
        match func {
            Abs => {
                if !numeric(&tys[0]) {
                    mismatch("a numeric argument", known(&tys[0]));
                    return Unknown;
                }
                // Abs preserves integer-ness.
                tys[0]
            }
            Ceil | Floor | Sqrt | Ln | Exp => {
                if !numeric(&tys[0]) {
                    mismatch("a numeric argument", known(&tys[0]));
                    return Unknown;
                }
                Known(T::Float)
            }
            Round => {
                if !numeric(&tys[0]) {
                    mismatch("a numeric argument", known(&tys[0]));
                    return Unknown;
                }
                if let Some(Known(dt)) = tys.get(1) {
                    if *dt != T::Int {
                        mismatch("constant Int digits", *dt);
                    }
                }
                Known(T::Float)
            }
            Pow => {
                if !numeric(&tys[0]) || !numeric(&tys[1]) {
                    mismatch(
                        "numeric arguments",
                        known(if numeric(&tys[0]) { &tys[1] } else { &tys[0] }),
                    );
                    return Unknown;
                }
                Known(T::Float)
            }
            Bin => {
                if !numeric(&tys[0]) || !numeric(&tys[1]) {
                    mismatch(
                        "numeric arguments",
                        known(if numeric(&tys[0]) { &tys[1] } else { &tys[0] }),
                    );
                    return Unknown;
                }
                // bin(Int, Int) stays Int; anything else goes float.
                match (tys[0], tys[1]) {
                    (Known(T::Int), Known(T::Int)) => Known(T::Int),
                    (Known(_), Known(_)) => Known(T::Float),
                    _ => Unknown,
                }
            }
            Lower | Upper | Trim => {
                if !stringy(&tys[0]) {
                    mismatch("a Str argument", known(&tys[0]));
                    return Unknown;
                }
                Known(T::Str)
            }
            Length => {
                if !stringy(&tys[0]) {
                    mismatch("a Str argument", known(&tys[0]));
                    return Unknown;
                }
                Known(T::Int)
            }
            Concat => Known(T::Str),
            Contains | StartsWith | EndsWith => {
                for t in &tys[..2] {
                    if !stringy(t) {
                        mismatch("Str arguments", known(t));
                    }
                }
                Known(T::Bool)
            }
            Replace => {
                for t in &tys[..3] {
                    if !stringy(t) {
                        mismatch("Str arguments", known(t));
                    }
                }
                Known(T::Str)
            }
            Substring => {
                if !stringy(&tys[0]) {
                    mismatch("a Str argument", known(&tys[0]));
                }
                for t in &tys[1..3] {
                    if let Known(dt) = t {
                        if *dt != T::Int {
                            mismatch("constant Int bounds", *dt);
                        }
                    }
                }
                Known(T::Str)
            }
            Year | Month | Day => {
                if let Known(dt) = tys[0] {
                    if dt != T::Date {
                        mismatch("a Date argument", dt);
                        return Unknown;
                    }
                }
                Known(T::Int)
            }
            Coalesce => {
                let mut acc: Option<DataType> = None;
                for t in tys {
                    if let Known(dt) = t {
                        acc = match acc {
                            None => Some(*dt),
                            // Runtime coalesce falls back to the first
                            // dtype and null-casts stragglers, so a
                            // non-unifiable mix is lossy but legal.
                            Some(prev) => Some(prev.unify(*dt).unwrap_or(prev)),
                        };
                    } else {
                        return Unknown;
                    }
                }
                acc.map(Known).unwrap_or(Unknown)
            }
            If => {
                if let Known(dt) = tys[0] {
                    if dt != T::Bool {
                        mismatch("a Bool condition", dt);
                    }
                }
                match (tys[1], tys[2]) {
                    (Known(a), Known(b)) => match a.unify(b) {
                        Some(dt) => Known(dt),
                        None => {
                            diags.push(
                                Diagnostic::new(
                                    Code::TypeMismatch,
                                    format!("if branches have incompatible types {a} and {b}"),
                                )
                                .with_span(span.clone()),
                            );
                            Unknown
                        }
                    },
                    _ => Unknown,
                }
            }
        }
    }
}

/// What the agg output column's dtype will be.
fn agg_output(func: AggFunc, input: DataType) -> DataType {
    use AggFunc::*;
    match func {
        Count | CountRecords | CountDistinct => DataType::Int,
        Sum => {
            if input == DataType::Int {
                DataType::Int
            } else {
                DataType::Float
            }
        }
        Avg | Median | StdDev | Variance => DataType::Float,
        Min | Max | First | Last => input,
    }
}

/// An inferred expression type: a concrete dtype or statically unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprTy {
    Known(DataType),
    Unknown,
}
use ExprTy::{Known, Unknown};

/// The dtype inside a [`Known`], or `Str` as a harmless display default.
fn known(t: &ExprTy) -> DataType {
    match t {
        Known(dt) => *dt,
        Unknown => DataType::Str,
    }
}
