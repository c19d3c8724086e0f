//! One contract per skill call: what it makes from its inputs.
//!
//! [`contract`] declares, for one [`SkillCall`] over the schemas of its
//! inputs, the schema of the table it hands downstream (its *flow*), every
//! reason it would fail on those schemas, the columns it reads from each
//! input, and how a demand on its output becomes a demand on each input;
//! [`rows`] declares how many rows that flow table holds, given its
//! inputs' row counts and the catalog's statistics. It is the one table of
//! per-skill semantics, and every reader calls it: the analyzer's schema
//! pass and its estimator walk a DAG with it, the optimizer's name
//! propagation and column demand are its schemas and demands, the NL
//! program checker reads its column reads, and the driver
//! `debug_assert!`s every flow table it records against it — its schema,
//! and its row count against the row rule for the inputs' actual rows.
//!
//! Expressions are typed by [`dtype_of`], the typer `eval` is itself
//! checked against, and the derived-column skills are one `eval` of the
//! expression [`derived`] names, here and in the interpreter alike.
//!
//! A schema of `None` is statically unknown: `Pivot` headers are data,
//! `RunSql` is opaque, and a source nobody can resolve has none. An
//! unknown input disables checking; it never produces a finding.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::iter::once;

use dc_engine::expr::prune::{nnf, prune_predicate, Tri};
use dc_engine::expr::{dtype_of, ExprTy, TypeFinding, TypeProblem};
use dc_engine::{AggFunc, DataType, Expr, Field, JoinType, ScalarFunc, Schema, Value};
use dc_ml::MlMethod;
use dc_storage::{ScanOptions, ScanPlan, TableMeta};

use crate::dag::{NodeId, SkillDag};
use crate::env::Env;
use crate::optimize::{column_constant, column_groups, PlanStats};
use crate::skill::{DatePart, SkillCall};

/// The sources a call can read beyond the catalog (whose schemas come from
/// [`PlanStats::table_meta`]): file and URL fixtures, saved artifacts,
/// snapshots, and model signatures. Implemented by [`Env`] and by the
/// analyzer's context; `()` resolves nothing.
pub trait Sources {
    fn file_schema(&self, _path: &str) -> Option<Schema> {
        None
    }
    fn url_schema(&self, _url: &str) -> Option<Schema> {
        None
    }
    fn saved_schema(&self, _name: &str) -> Option<Schema> {
        None
    }
    fn snapshot_schema(&self, _name: &str) -> Option<Schema> {
        None
    }
    fn model_info(&self, _name: &str) -> Option<ModelInfo> {
        None
    }
}

impl Sources for () {}

/// What running a call against this environment would read.
impl Sources for Env {
    fn file_schema(&self, path: &str) -> Option<Schema> {
        let table = dc_engine::csv::read_csv(self.file(path).ok()?).ok()?;
        Some(table.schema().clone())
    }
    fn url_schema(&self, url: &str) -> Option<Schema> {
        let table = dc_engine::csv::read_csv(self.url(url).ok()?).ok()?;
        Some(table.schema().clone())
    }
    fn saved_schema(&self, name: &str) -> Option<Schema> {
        Some(self.saved_table(name).ok()?.schema().clone())
    }
    fn snapshot_schema(&self, name: &str) -> Option<Schema> {
        Some(self.snapshots.get(name).ok()?.data.schema().clone())
    }
    fn model_info(&self, name: &str) -> Option<ModelInfo> {
        self.model(name).ok().map(ModelInfo::of)
    }
}

/// A model's statically known surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The column the model predicts.
    pub target: String,
    /// Feature columns the model reads at prediction time.
    pub features: Vec<String>,
    /// Dtype of the predicted column: `Float` for regressions, `Str` for
    /// classifiers (predicted class labels are rendered).
    pub output: DataType,
}

impl ModelInfo {
    /// A trained model's signature.
    pub fn of(model: &dc_ml::Model) -> ModelInfo {
        let output = match model.kind {
            dc_ml::ModelKind::Regression(_) => DataType::Float,
            dc_ml::ModelKind::Classification(_) => DataType::Str,
        };
        ModelInfo {
            target: model.target.clone(),
            features: model.features.clone(),
            output,
        }
    }
}

/// Why a call would fail on its input schemas. Each kind is one analyzer
/// code: `DC0002`, `DC0003`, `DC0004`, `DC0005` and `DC0009`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    UnknownColumn,
    TypeMismatch,
    BadComposition,
    MissingInput,
    InvalidArgument,
}

/// One reason a call would fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub kind: FindingKind,
    pub message: String,
}

impl From<TypeFinding> for Finding {
    fn from(f: TypeFinding) -> Finding {
        let kind = match f.problem {
            TypeProblem::UnknownColumn => FindingKind::UnknownColumn,
            TypeProblem::Mismatch => FindingKind::TypeMismatch,
            TypeProblem::Arity => FindingKind::InvalidArgument,
        };
        Finding {
            kind,
            message: f.message,
        }
    }
}

/// What a consumer needs from a node's output: everything, or a specific
/// (lowercased) column set.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Demand {
    All,
    Cols(BTreeSet<String>),
}

impl Demand {
    /// No column at all.
    pub(crate) fn none() -> Demand {
        Demand::Cols(BTreeSet::new())
    }

    /// Everything `self` or `other` needs.
    pub(crate) fn absorb(&mut self, other: Demand) {
        match (&mut *self, other) {
            (Demand::All, _) => {}
            (_, Demand::All) => *self = Demand::All,
            (Demand::Cols(a), Demand::Cols(b)) => a.extend(b),
        }
    }

    fn with(mut self, cols: impl IntoIterator<Item = String>) -> Demand {
        if let Demand::Cols(s) = &mut self {
            s.extend(cols);
        }
        self
    }
}

/// How a call's output columns come from its inputs' — with the inputs'
/// schemas, all that turning an output demand into input demands needs.
/// Names are lowercased.
#[derive(Debug, Clone)]
enum Flow {
    /// An input column may reach the output under a name the call cannot
    /// trace, or the call is not modeled: every input needs everything.
    Opaque,
    /// The first input's columns pass through.
    Through,
    /// The output's columns are computed from the call's reads alone.
    Fresh,
    /// The first input's columns, plus or replacing this one.
    Adds(String),
    /// One column renamed to this.
    Renames(String),
    /// A join: the left input's columns, then the right's non-key ones.
    Joins,
}

/// One call's contract over its input schemas.
#[derive(Debug, Clone)]
pub struct Contract {
    /// The flow table's schema; `None` when statically unknown.
    pub schema: Option<Schema>,
    /// Every reason the call would fail on these input schemas.
    pub findings: Vec<Finding>,
    /// Per input slot, the columns the call itself reads ([`reads`]).
    reads: Vec<Vec<String>>,
    /// The model a `TrainModel` registers, when its inputs check.
    pub model: Option<ModelInfo>,
    flow: Flow,
}

impl Contract {
    /// The demand on each input, whose schemas are `inputs`, when `out` is
    /// demanded of the output (missing slots demand everything). It always
    /// includes the columns the call itself reads, so projecting to it can
    /// never turn a working plan into a missing-column error.
    pub(crate) fn demand(&self, out: &Demand, inputs: &[Option<&Schema>]) -> Vec<Demand> {
        let reads = |slot: usize| {
            let cols = self.reads.get(slot).into_iter().flatten();
            cols.map(|c| c.to_ascii_lowercase())
        };
        let s = match (&self.flow, out) {
            (Flow::Opaque, _) => return vec![],
            (Flow::Through, d) => return vec![d.clone().with(reads(0))],
            (Flow::Fresh, _) => return vec![Demand::none().with(reads(0))],
            (_, Demand::All) => return vec![],
            (_, Demand::Cols(s)) => s,
        };
        match &self.flow {
            Flow::Adds(name) => {
                let kept = s.iter().filter(|c| *c != name).cloned();
                vec![Demand::Cols(kept.chain(reads(0)).collect())]
            }
            // `Table::rename_column` fails when `to` already exists, so a
            // projection must not drop a `to` the input has (or may have)
            // and turn that failure into a success.
            Flow::Renames(to) => {
                let kept = s.iter().filter(|c| *c != to).cloned();
                let input = inputs.first().copied().flatten();
                let to = input
                    .is_none_or(|s| s.index_of(to).is_some())
                    .then(|| to.clone());
                vec![Demand::Cols(kept.chain(reads(0)).chain(to).collect())]
            }
            Flow::Joins => {
                let (Some(Some(l)), Some(Some(r))) = (inputs.first(), inputs.get(1)) else {
                    return vec![];
                };
                let lower = |f: &Field| f.name.to_ascii_lowercase();
                let left: Vec<String> = l.fields().iter().map(lower).collect();
                let mut ld: BTreeSet<String> = reads(0).collect();
                ld.extend(s.iter().filter(|c| left.contains(c)).cloned());
                let mut rd: BTreeSet<String> = reads(1).collect();
                for f in r.fields().iter().map(lower) {
                    if s.contains(&f) {
                        rd.insert(f);
                    } else if s.contains(&format!("{f}_right")) {
                        // The suffix exists only because the left side has
                        // `f` too: keep that column alive, or the right one
                        // would come out unsuffixed.
                        if left.contains(&f) {
                            ld.insert(f.clone());
                        }
                        rd.insert(f);
                    }
                }
                vec![Demand::Cols(ld), Demand::Cols(rd)]
            }
            Flow::Opaque | Flow::Through | Flow::Fresh => unreachable!("answered above"),
        }
    }
}

/// The contract of `call` over its inputs' schemas (`None` = unknown; a
/// missing slot is a missing input). Catalog tables resolve through
/// `stats`, every other source through `sources`.
pub fn contract(
    call: &SkillCall,
    inputs: &[Option<&Schema>],
    stats: &dyn PlanStats,
    sources: &dyn Sources,
) -> Contract {
    let mut out = Out::default();
    let schema = out.schema(call, inputs, stats, sources);
    Contract {
        schema,
        findings: out.findings,
        reads: reads(call),
        model: out.model,
        flow: flow(call),
    }
}

/// The column a derived-column skill writes and the expression it
/// evaluates over its input to make it. Each of these skills is one
/// `eval` and one `Table::with_column`, in the interpreter and here.
pub fn derived(call: &SkillCall) -> Option<(Cow<'_, str>, Cow<'_, Expr>)> {
    use ScalarFunc::*;
    use SkillCall::*;
    let col = |c: &String| Expr::col(c.clone());
    let lit = |v: &Value| Expr::Literal(v.clone());
    let (name, func, args): (Cow<str>, ScalarFunc, Vec<Expr>) = match call {
        CreateColumn { name, expr } => return Some((name.into(), Cow::Borrowed(expr))),
        CreateConstantColumn { name, value } => return Some((name.into(), Cow::Owned(lit(value)))),
        FillMissing { column, value } => (column.into(), Coalesce, vec![col(column), lit(value)]),
        ReplaceValues { column, from, to } => {
            let hit = col(column).eq(lit(from));
            (column.into(), If, vec![hit, lit(to), col(column)])
        }
        BinColumn {
            column,
            width,
            name,
        } => {
            let name = name
                .as_ref()
                .map_or_else(|| format!("{column}Int{width}").into(), Cow::from);
            (name, Bin, vec![col(column), Expr::lit(*width)])
        }
        ExtractDatePart { column, part, name } => {
            let name = (name.as_ref())
                .map_or_else(|| format!("{column}_{}", part.name()).into(), Cow::from);
            let func = match part {
                DatePart::Year => Year,
                DatePart::Month => Month,
                DatePart::Day => Day,
            };
            (name, func, vec![col(column)])
        }
        TrimColumn { column } => (column.into(), Trim, vec![col(column)]),
        _ => return None,
    };
    Some((name, Cow::Owned(Expr::func(func, args))))
}

/// Per input slot, the columns `call` itself reads — declared names,
/// independent of any schema.
pub fn reads(call: &SkillCall) -> Vec<Vec<String>> {
    use SkillCall::*;
    let expr_cols = |e: &Expr| {
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        vec![cols]
    };
    match call {
        KeepRows { predicate } | DropRows { predicate } => expr_cols(predicate),
        CreateColumn { expr, .. } => expr_cols(expr),
        KeepColumns { columns }
        | DropColumns { columns }
        | Distinct { columns }
        | DropMissing { columns }
        | Cluster {
            features: columns, ..
        } => vec![columns.clone()],
        RenameColumn { from: column, .. }
        | FillMissing { column, .. }
        | ReplaceValues { column, .. }
        | CastColumn { column, .. }
        | BinColumn { column, .. }
        | ExtractDatePart { column, .. }
        | TrimColumn { column }
        | DescribeColumn { column }
        | Top { column, .. }
        | DetectOutliers { column, .. }
        | EvaluateModel { target: column, .. } => vec![vec![column.clone()]],
        Compute { aggs, for_each } => {
            let agg_cols = aggs.iter().filter_map(|a| a.column.as_ref());
            vec![for_each.iter().chain(agg_cols).cloned().collect()]
        }
        Pivot {
            index,
            columns,
            values,
            ..
        } => vec![vec![index.clone(), columns.clone(), values.clone()]],
        Sort { keys } => vec![keys.iter().map(|(k, _)| k.clone()).collect()],
        Join {
            left_on, right_on, ..
        } => vec![left_on.clone(), right_on.clone()],
        TrainModel {
            target, features, ..
        } => vec![once(target).chain(features).cloned().collect()],
        PredictTimeSeries {
            measures,
            time_column,
            ..
        } => vec![measures.iter().chain(once(time_column)).cloned().collect()],
        Visualize { kpi, by } => vec![once(kpi).chain(by).cloned().collect()],
        Plot {
            x,
            y,
            color,
            size,
            for_each,
            ..
        } => vec![[x, y, color, size, for_each]
            .into_iter()
            .flatten()
            .cloned()
            .collect()],
        _ => vec![],
    }
}

fn flow(call: &SkillCall) -> Flow {
    use SkillCall::*;
    match call {
        Distinct { columns } | DropMissing { columns } if columns.is_empty() => Flow::Opaque,
        KeepRows { .. }
        | DropRows { .. }
        | DropColumns { .. }
        | Sort { .. }
        | Top { .. }
        | Limit { .. }
        | Sample { .. }
        | ShuffleRows { .. }
        | CountRows
        | Distinct { .. }
        | DropMissing { .. }
        | FillMissing { .. }
        | ReplaceValues { .. }
        | CastColumn { .. }
        | BinColumn { .. }
        | ExtractDatePart { .. }
        | TrimColumn { .. }
        | DescribeColumn { .. }
        | UseDataset { .. } => Flow::Through,
        KeepColumns { .. } | Compute { .. } | Pivot { .. } => Flow::Fresh,
        CreateColumn { name, .. } | CreateConstantColumn { name, .. } => {
            Flow::Adds(name.to_ascii_lowercase())
        }
        RenameColumn { to, .. } => Flow::Renames(to.to_ascii_lowercase()),
        Join { .. } => Flow::Joins,
        _ => Flow::Opaque,
    }
}

/// A row-count interval: at least `lo` rows and at most `hi` (`None` =
/// statically unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBounds {
    pub lo: u64,
    pub hi: Option<u64>,
}

impl RowBounds {
    /// Nothing is known.
    pub const UNKNOWN: RowBounds = RowBounds { lo: 0, hi: None };

    /// Exactly `n` rows.
    pub fn exactly(n: u64) -> RowBounds {
        RowBounds { lo: n, hi: Some(n) }
    }

    /// Whether `n` rows lie in the interval.
    pub fn contains(self, n: u64) -> bool {
        self.lo <= n && self.hi.is_none_or(|hi| n <= hi)
    }

    /// Some of these rows, how many unknown.
    fn subset(self) -> RowBounds {
        RowBounds { lo: 0, hi: self.hi }
    }

    /// The first `n` of these rows.
    fn capped(self, n: u64) -> RowBounds {
        let hi = Some(self.hi.map_or(n, |h| h.min(n)));
        RowBounds {
            lo: self.lo.min(n),
            hi,
        }
    }

    /// One row per group of these rows, of which there are at most
    /// `groups` when that is known.
    fn grouped(self, groups: Option<u64>) -> RowBounds {
        let hi = match (self.hi, groups) {
            (Some(r), Some(g)) => Some(r.min(g)),
            (r, g) => r.or(g),
        };
        RowBounds {
            lo: self.lo.min(1),
            hi,
        }
    }
}

/// One input of [`rows`]: its rows, and the node of `dag` that made them,
/// through which the statistics rules find the catalog scan they come
/// from.
#[derive(Debug, Clone, Copy)]
pub struct RowInput<'d> {
    pub rows: RowBounds,
    pub dag: &'d SkillDag,
    pub node: NodeId,
}

impl<'d> RowInput<'d> {
    /// The table and load call of the catalog scan that made these rows.
    fn scan<'s>(&self, stats: &'s dyn PlanStats) -> Option<(&'s TableMeta, &'d SkillCall)> {
        let call = &self.dag.node(self.node).ok()?.call;
        let SkillCall::LoadTable {
            database, table, ..
        } = call
        else {
            return None;
        };
        Some((stats.table_meta(database, table)?, call))
    }

    /// The catalog table these rows' values come from unchanged: up a
    /// chain of calls that only select, order or drop rows and columns.
    fn source<'s>(&self, stats: &'s dyn PlanStats) -> Option<&'s TableMeta> {
        use SkillCall::*;
        let mut id = self.node;
        for _ in 0..self.dag.len() {
            let node = self.dag.node(id).ok()?;
            let keeps_values = matches!(
                node.call,
                KeepRows { .. }
                    | DropRows { .. }
                    | DropMissing { .. }
                    | KeepColumns { .. }
                    | DropColumns { .. }
                    | Sort { .. }
                    | Limit { .. }
                    | Top { .. }
                    | Sample { .. }
                    | ShuffleRows { .. }
                    | Distinct { .. }
            ) || !node.call.transforms_data();
            match &node.call {
                LoadTable {
                    database, table, ..
                } => return stats.table_meta(database, table),
                _ if keeps_values => id = *node.inputs.first()?,
                _ => return None,
            }
        }
        None
    }
}

/// The catalog table a load reads and the scan it runs there: its planned
/// projection and predicate. `None` for every other call.
pub fn load_scan(call: &SkillCall) -> Option<(&str, &str, ScanOptions)> {
    let SkillCall::LoadTable {
        database,
        table,
        columns,
        predicate,
    } = call
    else {
        return None;
    };
    let scan = ScanOptions {
        columns: columns.clone(),
        predicate: predicate.clone(),
        ..ScanOptions::default()
    };
    Some((database, table, scan))
}

/// The rows `call` hands downstream (its flow table's) when its inputs
/// hold `inputs` (a missing slot is unknown). Catalog statistics tighten
/// the rule where they can: a load's rows are those of the blocks its scan
/// plan keeps, certain in the blocks it proves all-matching; a filter
/// directly above a scan is judged block by block the same way; a group
/// key is bounded by its dictionary or zone maps; and join keys constant
/// on both sides make a cross product. Everything data-dependent degrades
/// to what the call can certainly not exceed, or to unknown.
pub fn rows(call: &SkillCall, inputs: &[RowInput<'_>], stats: &dyn PlanStats) -> RowBounds {
    use SkillCall::*;
    let slot = |i: usize| inputs.get(i).map_or(RowBounds::UNKNOWN, |input| input.rows);
    let first = slot(0);
    // At most this many distinct combinations of `keys`, by the statistics
    // of the table the first input's values come from.
    let groups = |keys: &[String]| {
        if keys.is_empty() {
            return None;
        }
        let meta = inputs.first()?.source(stats)?;
        (keys.iter()).try_fold(1u64, |p, k| {
            Some(p.saturating_mul(column_groups(meta, k)?.max(1)))
        })
    };
    match call {
        LoadTable { .. } => load_rows(call, stats).unwrap_or(RowBounds::UNKNOWN),
        // A bound `UseDataset` re-reads its producer; an unbound one reads
        // the environment, as every other outside source does.
        UseDataset { .. } if inputs.is_empty() => RowBounds::UNKNOWN,
        LoadFile { .. }
        | LoadUrl { .. }
        | UseSnapshot { .. }
        | ListDatasets
        | RunSql { .. }
        | TrainModel { .. } => RowBounds::UNKNOWN,
        KeepRows { predicate } => filter_rows(predicate, inputs, stats),
        DropRows { predicate } => filter_rows(&nnf(predicate.clone().not()), inputs, stats),
        DropMissing { .. } | Sample { .. } | DetectOutliers { .. } => first.subset(),
        Limit { n } | Top { n, .. } => first.capped(*n as u64),
        // A global aggregate makes one row.
        Compute { for_each, .. } if for_each.is_empty() => RowBounds { lo: 0, hi: Some(1) },
        Compute { for_each, .. } => first.grouped(groups(for_each)),
        Distinct { columns } => first.grouped(groups(columns)),
        Pivot { index, .. } => RowBounds {
            lo: 0,
            ..first.grouped(groups(std::slice::from_ref(index)))
        },
        Concat {
            remove_duplicates, ..
        } => {
            let second = slot(1);
            let lo = first.lo.saturating_add(second.lo);
            let hi = first.hi.zip(second.hi).map(|(a, b)| a.saturating_add(b));
            let lo = if *remove_duplicates { lo.min(1) } else { lo };
            RowBounds { lo, hi }
        }
        Join {
            left_on,
            right_on,
            how,
            ..
        } => join_rows(left_on, right_on, *how, inputs, stats),
        // The forecast alone: one row per step of the horizon.
        PredictTimeSeries { horizon, .. } => RowBounds::exactly(*horizon as u64),
        // Calls that keep every input row, and the ones that flow their
        // input through.
        UseDataset { .. }
        | KeepColumns { .. }
        | DropColumns { .. }
        | RenameColumn { .. }
        | CreateColumn { .. }
        | CreateConstantColumn { .. }
        | Sort { .. }
        | FillMissing { .. }
        | ReplaceValues { .. }
        | CastColumn { .. }
        | BinColumn { .. }
        | ExtractDatePart { .. }
        | TrimColumn { .. }
        | ShuffleRows { .. }
        | Predict { .. }
        | Cluster { .. }
        | DescribeColumn { .. }
        | DescribeDataset
        | ShowHead { .. }
        | CountRows
        | ProfileMissing
        | Visualize { .. }
        | Plot { .. }
        | ExportCsv
        | SaveArtifact { .. }
        | Snapshot { .. }
        | Define { .. }
        | Comment { .. }
        | ShareArtifact { .. }
        | EvaluateModel { .. } => first,
    }
}

/// A load's rows, those of its scan plan; `None` when its table is unknown
/// or its scan cannot be planned (it then fails).
fn load_rows(load: &SkillCall, stats: &dyn PlanStats) -> Option<RowBounds> {
    let (database, table, scan) = load_scan(load)?;
    let meta = stats.table_meta(database, table)?;
    Some(scan_rows(meta, &meta.plan(&scan).ok()?))
}

/// The rows a scan with this plan makes: at most those of the blocks it
/// keeps, at least those of the blocks it proves all-matching.
pub fn scan_rows(meta: &TableMeta, plan: &ScanPlan<'_>) -> RowBounds {
    let certain = plan.blocks.iter().filter(|(_, v)| *v == Tri::AllTrue);
    let lo = certain.map(|&(bi, _)| meta.blocks()[bi].rows).sum();
    RowBounds {
        lo,
        hi: Some(plan.rows_scanned),
    }
}

/// The rows a filter that keeps the rows where `keep` holds passes on:
/// some of its input's; directly above a catalog scan, each block the scan
/// keeps judged by `keep`'s zone-map verdict.
fn filter_rows(keep: &Expr, inputs: &[RowInput<'_>], stats: &dyn PlanStats) -> RowBounds {
    let Some(input) = inputs.first() else {
        return RowBounds::UNKNOWN;
    };
    let over_scan = || {
        let (meta, load) = input.scan(stats)?;
        let (_, _, scan) = load_scan(load)?;
        let plan = meta.plan(&scan).ok()?;
        let schema = meta.schema();
        let (mut lo, mut hi) = (0u64, 0u64);
        for &(bi, scan_v) in plan.blocks.iter().filter(|(_, v)| *v != Tri::AllFalse) {
            let block = &meta.blocks()[bi];
            let lookup = |name: &str| schema.index_of(name).map(|ci| block.columns[ci].clone());
            match prune_predicate(keep, &lookup) {
                Tri::AllFalse => {}
                // Every row reaches the filter only when the scan provably
                // kept them all.
                Tri::AllTrue if scan_v == Tri::AllTrue => {
                    (lo, hi) = (lo + block.rows, hi + block.rows)
                }
                Tri::AllTrue | Tri::Unknown => hi += block.rows,
            }
        }
        Some(RowBounds { lo, hi: Some(hi) })
    };
    over_scan().unwrap_or(input.rows.subset())
}

/// The rows of a join. At most every pair, and for an outer join each
/// unmatched row once more; at least the preserved side's rows, or every
/// pair when each key pair is provably one constant on both scans (or there
/// are no keys).
fn join_rows(
    left_on: &[String],
    right_on: &[String],
    how: JoinType,
    inputs: &[RowInput<'_>],
    stats: &dyn PlanStats,
) -> RowBounds {
    let slot = |i: usize| inputs.get(i).map_or(RowBounds::UNKNOWN, |input| input.rows);
    let (l, r) = (slot(0), slot(1));
    let constant = |i: usize, col: &str| column_constant(inputs.get(i)?.scan(stats)?.0, col);
    let cross = left_on.is_empty()
        || (!right_on.is_empty()
            && left_on.iter().zip(right_on).all(|(lk, rk)| {
                let pair = constant(0, lk).zip(constant(1, rk));
                pair.is_some_and(|(a, b)| a.partial_cmp_sql(&b) == Some(Ordering::Equal))
            }));
    let lo = match how {
        _ if cross => l.lo.saturating_mul(r.lo),
        JoinType::Inner => 0,
        JoinType::Left => l.lo,
        JoinType::Right => r.lo,
        JoinType::Full => l.lo.max(r.lo),
    };
    let hi = l.hi.zip(r.hi).map(|(l, r)| match how {
        JoinType::Inner => l.saturating_mul(r),
        JoinType::Left => l.saturating_mul(r.max(1)),
        JoinType::Right => l.max(1).saturating_mul(r),
        JoinType::Full => l.saturating_mul(r).max(l.saturating_add(r)),
    });
    RowBounds { lo, hi }
}

/// The findings (and trained model) of one contract under construction.
#[derive(Default)]
struct Out {
    findings: Vec<Finding>,
    model: Option<ModelInfo>,
}

impl Out {
    fn fail(&mut self, kind: FindingKind, message: String) {
        self.findings.push(Finding { kind, message });
    }

    /// Column `name` of `s` (case-insensitively, like the engine), or a
    /// finding.
    fn col<'s>(&mut self, s: &'s Schema, name: &str) -> Option<&'s Field> {
        let field = s.field(name);
        if field.is_none() {
            self.findings
                .push(TypeFinding::unknown_column(s, name).into());
        }
        field
    }

    fn typed(&mut self, s: &Schema, expr: &Expr) -> ExprTy {
        let mut found = Vec::new();
        let ty = dtype_of(expr, s, &mut found);
        self.findings.extend(found.into_iter().map(Finding::from));
        ty
    }

    /// A schema of `fields`, or a finding for a duplicate name.
    fn build(&mut self, fields: Vec<Field>) -> Option<Schema> {
        match Schema::new(fields) {
            Ok(s) => Some(s),
            Err(e) => {
                let message = format!("output schema is invalid: {e}");
                self.fail(FindingKind::BadComposition, message);
                None
            }
        }
    }

    /// The input with the column [`derived`] names.
    fn derive(&mut self, s: &Schema, call: &SkillCall) -> Option<Schema> {
        let (name, expr) = derived(call)?;
        match self.typed(s, &expr) {
            ExprTy::Known(dt) => Some(s.with_field(&name, dt)),
            ExprTy::Unknown => None,
        }
    }

    /// Whether every feature column exists and is numeric or a date, the
    /// ML layer's inputs; a finding for each that is not.
    fn features(&mut self, s: &Schema, features: &[String]) -> bool {
        let mut ok = true;
        for feat in features {
            match self.col(s, feat) {
                Some(f) if !f.dtype.is_numeric() && f.dtype != DataType::Date => {
                    let message = format!("feature {feat} is not numeric ({})", f.dtype);
                    self.fail(FindingKind::TypeMismatch, message);
                    ok = false;
                }
                Some(_) => {}
                None => ok = false,
            }
        }
        ok
    }

    fn schema(
        &mut self,
        call: &SkillCall,
        inputs: &[Option<&Schema>],
        stats: &dyn PlanStats,
        sources: &dyn Sources,
    ) -> Option<Schema> {
        use FindingKind::*;
        use SkillCall::*;
        // Calls that read no input.
        match call {
            LoadFile { path } => return sources.file_schema(path),
            LoadUrl { url } => return sources.url_schema(url),
            LoadTable {
                database,
                table,
                columns,
                ..
            } => {
                let schema = stats.table_meta(database, table)?.schema();
                // A projected load carries its columns, in the call's order.
                return match columns {
                    None => Some(schema.clone()),
                    Some(cols) => Schema::new(
                        cols.iter()
                            .filter_map(|c| schema.field(c).cloned())
                            .collect(),
                    )
                    .ok(),
                };
            }
            UseDataset { name, .. } if inputs.is_empty() => return sources.saved_schema(name),
            UseSnapshot { name } => return sources.snapshot_schema(name),
            ListDatasets => return Some(Schema::empty()),
            RunSql { .. } => return None,
            // Annotations flow what they are given, or nothing.
            Define { .. } | Comment { .. } | ShareArtifact { .. } => {
                return inputs.first().map_or(Some(Schema::empty()), |s| s.cloned());
            }
            _ => {}
        }
        let slots = match call {
            Concat { .. } | Join { .. } => 2,
            _ => 1,
        };
        if inputs.len() < slots {
            let what = ["an input dataset", "a second dataset"][inputs.len()];
            self.fail(MissingInput, format!("{} needs {what}", call.name()));
            return None;
        }
        // Checks that need no input schema.
        match call {
            Join {
                left_on, right_on, ..
            } if left_on.len() != right_on.len() || left_on.is_empty() => {
                let message = "join requires equal, non-empty key lists".to_string();
                self.fail(BadComposition, message);
                return None;
            }
            Sample { fraction, .. } if !(*fraction > 0.0 && *fraction <= 1.0) => {
                let message = format!("sample fraction must be in (0, 1], got {fraction}");
                self.fail(InvalidArgument, message);
                return None;
            }
            PredictTimeSeries { horizon: 0, .. } => {
                self.fail(InvalidArgument, "horizon must be positive".to_string());
                return None;
            }
            PredictTimeSeries { measures, .. } if measures.is_empty() => {
                let message = "at least one measure column required".to_string();
                self.fail(InvalidArgument, message);
                return None;
            }
            _ => {}
        }
        let s = inputs[0]?;
        let pass = || Some(s.clone());
        match call {
            DescribeColumn { column } | Top { column, .. } => {
                self.col(s, column);
                pass()
            }
            Visualize { .. } | Plot { .. } => {
                for c in reads(call).concat() {
                    self.col(s, &c);
                }
                pass()
            }
            Sort { keys } => {
                for (k, _) in keys {
                    self.col(s, k);
                }
                pass()
            }
            Distinct { columns } => {
                for c in columns {
                    self.col(s, c);
                }
                pass()
            }
            DropMissing { columns } => {
                if columns.is_empty() && s.is_empty() {
                    let message = "no columns to check for missing values".to_string();
                    self.fail(InvalidArgument, message);
                    return None;
                }
                for c in columns {
                    self.col(s, c);
                }
                pass()
            }
            KeepRows { predicate } | DropRows { predicate } => {
                if let ExprTy::Known(dt) = self.typed(s, predicate) {
                    if dt != DataType::Bool {
                        let message = format!(
                            "predicate must evaluate to Bool, but this expression produces {dt}"
                        );
                        self.fail(TypeMismatch, message);
                    }
                }
                pass()
            }
            KeepColumns { columns } => {
                let fields = columns.iter().filter_map(|c| self.col(s, c).cloned());
                let fields = fields.collect();
                self.build(fields)
            }
            // Sequential drops: a column absent here is absent at run time
            // too (it never existed, or the list names it twice).
            DropColumns { columns } => {
                let mut fields = s.fields().to_vec();
                for c in columns {
                    match fields.iter().position(|f| f.name.eq_ignore_ascii_case(c)) {
                        Some(i) => {
                            fields.remove(i);
                        }
                        None => self.findings.push(TypeFinding::unknown_column(s, c).into()),
                    }
                }
                self.build(fields)
            }
            RenameColumn { from, to } => {
                let i = self.col(s, from).and(s.index_of(from))?;
                if s.index_of(to).is_some_and(|j| j != i) {
                    let message =
                        format!("cannot rename {from:?} to {to:?}: column already exists");
                    self.fail(InvalidArgument, message);
                    return None;
                }
                let mut fields = s.fields().to_vec();
                fields[i].name = to.clone();
                self.build(fields)
            }
            CreateColumn { .. } | CreateConstantColumn { .. } => self.derive(s, call),
            // Coalescing is lossy but legal at run time; a fill value of
            // another type is almost surely a mistake, so it is rejected.
            FillMissing { column, value } => {
                let f = self.col(s, column)?;
                if let Some(v) = value.dtype().filter(|&v| f.dtype.unify(v).is_none()) {
                    let message = format!("cannot fill {column:?} ({}) with a {v} value", f.dtype);
                    self.fail(TypeMismatch, message);
                    return None;
                }
                self.derive(s, call)
            }
            ReplaceValues { column, .. }
            | BinColumn { column, .. }
            | ExtractDatePart { column, .. }
            | TrimColumn { column } => {
                self.col(s, column)?;
                self.derive(s, call)
            }
            // Casting is total: an unconvertible value becomes null.
            CastColumn { column, to } => {
                self.col(s, column)?;
                Some(s.with_field(column, *to))
            }
            Compute { aggs, for_each } => {
                if aggs.is_empty() {
                    let message = "group_by requires at least one aggregate".to_string();
                    self.fail(InvalidArgument, message);
                    return None;
                }
                let mut fields = Vec::new();
                let mut ok = true;
                for k in for_each {
                    match self.col(s, k) {
                        Some(f) => fields.push(f.clone()),
                        None => ok = false,
                    }
                }
                for agg in aggs {
                    let input = match (&agg.column, agg.func) {
                        (_, AggFunc::CountRecords) => None,
                        (Some(c), func) => match self.col(s, c) {
                            Some(f) if func.requires_numeric() && !f.dtype.is_numeric() => {
                                let message = format!(
                                    "{} requires a numeric column, but {c} is {}",
                                    func.name(),
                                    f.dtype
                                );
                                self.fail(TypeMismatch, message);
                                ok = false;
                                continue;
                            }
                            Some(f) => Some(f.dtype),
                            None => {
                                ok = false;
                                continue;
                            }
                        },
                        (None, func) => {
                            let message = format!("{} requires an argument column", func.name());
                            self.fail(InvalidArgument, message);
                            ok = false;
                            continue;
                        }
                    };
                    fields.push(Field::new(&agg.output, agg.func.output_dtype(input)));
                }
                if !ok {
                    return None;
                }
                self.build(fields)
            }
            // The output's headers are data values: statically unknown.
            Pivot {
                index,
                columns,
                values,
                agg,
            } => {
                if index.eq_ignore_ascii_case(columns) {
                    let message = "pivot index and columns must differ".to_string();
                    self.fail(InvalidArgument, message);
                    return None;
                }
                self.col(s, index);
                self.col(s, columns);
                if let Some(f) = self.col(s, values) {
                    if agg.requires_numeric() && !f.dtype.is_numeric() {
                        let message = format!(
                            "{} requires a numeric column, but {values} is {}",
                            agg.name(),
                            f.dtype
                        );
                        self.fail(TypeMismatch, message);
                    }
                }
                None
            }
            Concat { .. } => match s.concat_compatible(inputs[1]?) {
                Ok(unified) => Some(unified),
                Err(e) => {
                    let message = format!("datasets cannot be concatenated: {e}");
                    self.fail(BadComposition, message);
                    None
                }
            },
            Join {
                left_on, right_on, ..
            } => {
                let r = inputs[1]?;
                let mut ok = true;
                for (lk, rk) in left_on.iter().zip(right_on) {
                    match (self.col(s, lk), self.col(r, rk)) {
                        (Some(lf), Some(rf)) if lf.dtype.unify(rf.dtype).is_none() => {
                            let message = format!(
                                "join keys {lk:?} ({}) and {rk:?} ({}) have incompatible types",
                                lf.dtype, rf.dtype
                            );
                            self.fail(TypeMismatch, message);
                            ok = false;
                        }
                        (Some(_), Some(_)) => {}
                        _ => ok = false,
                    }
                }
                if !ok {
                    return None;
                }
                // Every left column, then the right's non-key columns,
                // suffixed `_right` when the output already has the name.
                let mut out = s.clone();
                for f in r.fields() {
                    if right_on.iter().any(|k| f.name.eq_ignore_ascii_case(k)) {
                        continue;
                    }
                    let name = match out.index_of(&f.name) {
                        Some(_) => format!("{}_right", f.name),
                        None => f.name.clone(),
                    };
                    if let Err(e) = out.push(Field::new(name, f.dtype)) {
                        self.fail(BadComposition, format!("output schema is invalid: {e}"));
                        return None;
                    }
                }
                Some(out)
            }
            TrainModel {
                target,
                features,
                method,
                ..
            } => {
                let Some(tf) = self.col(s, target) else {
                    return pass();
                };
                if *method == MlMethod::Linear && !tf.dtype.is_numeric() {
                    let message = format!(
                        "linear regression needs a numeric target, but {target} is {}",
                        tf.dtype
                    );
                    self.fail(TypeMismatch, message);
                    return pass();
                }
                let features: Vec<String> = match features.is_empty() {
                    // Every numeric column but the target, as at run time.
                    true => (s.fields().iter())
                        .filter(|f| f.dtype.is_numeric() && !f.name.eq_ignore_ascii_case(target))
                        .map(|f| f.name.clone())
                        .collect(),
                    false => features.clone(),
                };
                if features.is_empty() {
                    let message = "at least one feature column required (no numeric \
                                   non-target columns to default to)";
                    self.fail(InvalidArgument, message.to_string());
                    return pass();
                }
                if self.features(s, &features) {
                    let output = match method {
                        MlMethod::Linear => DataType::Float,
                        MlMethod::DecisionTree => DataType::Str,
                        MlMethod::Auto if tf.dtype.is_numeric() => DataType::Float,
                        MlMethod::Auto => DataType::Str,
                    };
                    let target = target.clone();
                    self.model = Some(ModelInfo {
                        target,
                        features,
                        output,
                    });
                }
                pass()
            }
            Predict { model } => {
                let info = sources.model_info(model)?;
                if !self.features(s, &info.features) {
                    return None;
                }
                let name = s.fresh_name(&format!("Predicted_{}", info.target));
                Some(s.with_field(&name, info.output))
            }
            EvaluateModel { model, target } => {
                if sources.model_info(model).is_some() {
                    self.col(s, target);
                }
                pass()
            }
            PredictTimeSeries {
                measures,
                time_column,
                ..
            } => {
                let tf = self.col(s, time_column)?;
                if !tf.dtype.is_numeric() && tf.dtype != DataType::Date {
                    let message = format!(
                        "time column {time_column} must be numeric or Date, not {}",
                        tf.dtype
                    );
                    self.fail(TypeMismatch, message);
                    return None;
                }
                let mut fields = vec![tf.clone()];
                for m in measures {
                    let f = self.col(s, m)?;
                    if !f.dtype.is_numeric() {
                        let message = format!("measure {m} is not numeric ({})", f.dtype);
                        self.fail(TypeMismatch, message);
                        return None;
                    }
                    // Under the name the call spells it with, as at run time.
                    fields.push(Field::new(m, DataType::Float));
                }
                fields.push(Field::new("RecordType", DataType::Str));
                self.build(fields)
            }
            DetectOutliers { column, .. } => {
                let f = self.col(s, column)?;
                if !f.dtype.is_numeric() && f.dtype != DataType::Date {
                    let message = format!(
                        "outlier detection requires a numeric column, but {column} is {}",
                        f.dtype
                    );
                    self.fail(TypeMismatch, message);
                    return None;
                }
                let name = s.fresh_name(&format!("IsOutlier_{column}"));
                Some(s.with_field(&name, DataType::Bool))
            }
            Cluster { k, features } => {
                if *k == 0 {
                    self.fail(InvalidArgument, "k must be positive".to_string());
                    return None;
                }
                if features.is_empty() {
                    let message = "clustering requires at least one feature column".to_string();
                    self.fail(InvalidArgument, message);
                    return None;
                }
                if !self.features(s, features) {
                    return None;
                }
                let name = s.fresh_name("Cluster");
                Some(s.with_field(&name, DataType::Int))
            }
            // Row selection, exploration, export and the platform's writes
            // flow their input through.
            Limit { .. }
            | Sample { .. }
            | ShuffleRows { .. }
            | UseDataset { .. }
            | DescribeDataset
            | ShowHead { .. }
            | CountRows
            | ProfileMissing
            | ExportCsv
            | SaveArtifact { .. }
            | Snapshot { .. } => pass(),
            // The calls that read no input answered above.
            LoadFile { .. }
            | LoadUrl { .. }
            | LoadTable { .. }
            | UseSnapshot { .. }
            | ListDatasets
            | RunSql { .. }
            | Define { .. }
            | Comment { .. }
            | ShareArtifact { .. } => unreachable!("answered before the input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Value;

    /// Every catalog table is `sales`.
    struct Catalog(dc_storage::TableMeta);

    impl PlanStats for Catalog {
        fn table_meta(&self, _: &str, _: &str) -> Option<&dc_storage::TableMeta> {
            Some(&self.0)
        }
    }

    fn catalog() -> Catalog {
        let table = dc_storage::BlockTable::new(&dc_storage::demo::sales(4, 1), 2).unwrap();
        Catalog(dc_storage::BlockSource::meta(&table).clone())
    }

    fn sales() -> Schema {
        dc_storage::demo::sales(4, 1).schema().clone()
    }

    fn over_sales(call: SkillCall) -> Contract {
        let s = sales();
        contract(&call, &[Some(&s)], &catalog(), &())
    }

    fn kinds(c: &Contract) -> Vec<FindingKind> {
        c.findings.iter().map(|f| f.kind).collect()
    }

    /// What `eval` does with a null literal — a Str column of nulls — is
    /// what the contract declares, so these five shapes, every one of
    /// which fails at run time, are rejected.
    #[test]
    fn null_literals_type_as_the_str_column_eval_makes() {
        let null = || Expr::Literal(Value::Null);
        let price = || Expr::col("price");
        let rejected = [
            SkillCall::KeepRows {
                predicate: price().gt(null()),
            },
            SkillCall::KeepRows {
                predicate: price().between(null(), Expr::lit(5i64)),
            },
            SkillCall::CreateColumn {
                name: "x".into(),
                expr: price().add(null()),
            },
            SkillCall::ReplaceValues {
                column: "price".into(),
                from: Value::Float(1.0),
                to: Value::Null,
            },
            SkillCall::ReplaceValues {
                column: "price".into(),
                from: Value::Null,
                to: Value::Float(0.0),
            },
        ];
        for call in rejected {
            let c = over_sales(call.clone());
            assert_eq!(kinds(&c), vec![FindingKind::TypeMismatch], "{call:?}");
        }
        // The shapes that run today still check clean.
        let fill = over_sales(SkillCall::FillMissing {
            column: "price".into(),
            value: Value::Null,
        });
        assert!(fill.findings.is_empty());
        assert_eq!(fill.schema, Some(sales()));
        let constant = over_sales(SkillCall::CreateConstantColumn {
            name: "note".into(),
            value: Value::Null,
        });
        assert!(constant.findings.is_empty());
        let note = constant.schema.unwrap().field("note").cloned();
        assert_eq!(note, Some(Field::new("note", DataType::Str)));
    }

    #[test]
    fn sources_and_missing_inputs() {
        let s = sales();
        let catalog = catalog();
        let load = SkillCall::LoadTable {
            database: "Main".into(),
            table: "sales".into(),
            columns: Some(vec!["PRICE".into(), "region".into()]),
            predicate: None,
        };
        let c = contract(&load, &[], &catalog, &());
        assert_eq!(c.schema.unwrap().names(), vec!["price", "region"]);
        let file = SkillCall::LoadFile { path: "x".into() };
        assert_eq!(contract(&file, &[], &catalog, &()).schema, None);
        let c = contract(&SkillCall::CountRows, &[], &catalog, &());
        assert_eq!(kinds(&c), vec![FindingKind::MissingInput]);
        let join = SkillCall::Join {
            other: "o".into(),
            left_on: vec!["region".into()],
            right_on: vec!["region".into()],
            how: dc_engine::JoinType::Inner,
        };
        let c = contract(&join, &[Some(&s)], &catalog, &());
        assert_eq!(kinds(&c), vec![FindingKind::MissingInput]);
        // Unknown inputs check nothing and flow nothing.
        let c = contract(&SkillCall::CountRows, &[None], &catalog, &());
        assert!(c.findings.is_empty() && c.schema.is_none());
    }

    #[test]
    fn joins_suffix_against_the_output_so_far() {
        let s = sales();
        let join = SkillCall::Join {
            other: "o".into(),
            left_on: vec!["order_id".into()],
            right_on: vec!["order_id".into()],
            how: dc_engine::JoinType::Inner,
        };
        let c = contract(&join, &[Some(&s), Some(&s)], &catalog(), &());
        let schema = c.schema.unwrap();
        assert_eq!(schema.len(), 2 * s.len() - 1);
        assert!(schema.field("price_right").is_some());
    }

    #[test]
    fn demand_translates_through_each_shape() {
        let cols = |names: &[&str]| Demand::Cols(names.iter().map(|n| n.to_string()).collect());
        let s = sales();
        let input = [Some(&s)];
        let create = over_sales(SkillCall::CreateColumn {
            name: "Total".into(),
            expr: Expr::col("Price").mul(Expr::col("quantity")),
        });
        assert_eq!(
            create.demand(&cols(&["total", "region"]), &input),
            vec![cols(&["price", "quantity", "region"])]
        );
        assert_eq!(create.demand(&Demand::All, &input), vec![]);
        let rename = over_sales(SkillCall::RenameColumn {
            from: "region".into(),
            to: "price".into(),
        });
        assert_eq!(
            rename.demand(&cols(&["price"]), &input),
            vec![cols(&["price", "region"])]
        );
        let keep = over_sales(SkillCall::KeepColumns {
            columns: vec!["region".into()],
        });
        assert_eq!(keep.demand(&Demand::All, &input), vec![cols(&["region"])]);
        let distinct = over_sales(SkillCall::Distinct { columns: vec![] });
        assert_eq!(distinct.demand(&cols(&["region"]), &input), vec![]);
    }

    #[test]
    fn reads_name_each_input_slot() {
        let join = SkillCall::Join {
            other: "o".into(),
            left_on: vec!["a".into()],
            right_on: vec!["b".into()],
            how: dc_engine::JoinType::Inner,
        };
        assert_eq!(
            reads(&join),
            vec![vec!["a".to_string()], vec!["b".to_string()]]
        );
        let bin = SkillCall::BinColumn {
            column: "age".into(),
            width: 20,
            name: None,
        };
        assert_eq!(reads(&bin), vec![vec!["age".to_string()]]);
        assert_eq!(derived(&bin).unwrap().0, "ageInt20");
        assert!(reads(&SkillCall::Limit { n: 1 }).is_empty());
    }
}
