//! The shared diagnostics framework: stable codes, severities, source
//! spans, and optional structured fixes.
//!
//! Every static check in the platform — the DAG analyzer in this crate,
//! the GEL recipe validator, and the NL2Code program checker (§4.5) —
//! reports through [`Diagnostic`], so callers see one uniform shape with
//! a stable machine-readable code (`DC0xxx`) regardless of which layer
//! found the problem.

use std::fmt;

/// Severity of a diagnostic.
///
/// Ordered: `Fixed < Warning < Error`, so `max()` over a report gives
/// the overall status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Repaired automatically (e.g. a removed print statement). Fixed
    /// findings are informational: the pipeline already healed them, and
    /// they are excluded from misalignment error tallies.
    Fixed,
    /// Suspicious but runnable.
    Warning,
    /// The pipeline cannot run as written.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Fixed => write!(f, "fixed"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// The numeric ranges group by pass: `DC00xx` schema/type/composition,
/// `DC01xx` dataflow, `DC02xx` cost, `DC03xx` cost/cardinality
/// estimation, `DC04xx` GEL parsing, `DC05xx` NL2Code streamlining.
/// Codes are append-only — tooling (golden tests, the `analyze_corpus`
/// gate) keys on them. (Historical exception: the NL2Code pair shipped
/// as `DC0301`/`DC0302` before any external tooling existed and moved to
/// `DC05xx` when the estimation family claimed `DC03xx`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `DC0001` — a dataset name resolves to nothing: not a DAG binding,
    /// not a saved artifact, not a catalog table.
    UnknownDataset,
    /// `DC0002` — a referenced column is absent from the inferred schema.
    UnknownColumn,
    /// `DC0003` — a column has the wrong type for the operation (numeric
    /// aggregate over text, date-part extraction from a non-date, ...).
    TypeMismatch,
    /// `DC0004` — two inputs cannot be composed (concat with incompatible
    /// schemas, join keys that do not unify or differ in arity).
    BadComposition,
    /// `DC0005` — a skill that needs an input dataset has none wired.
    MissingInput,
    /// `DC0006` — a file, URL, or catalog table source does not exist.
    UnknownSource,
    /// `DC0007` — `UseSnapshot` names a snapshot that was never created.
    UnknownSnapshot,
    /// `DC0008` — `Predict`/`EvaluateModel` names a model that is neither
    /// registered nor trained earlier in the DAG.
    UnknownModel,
    /// `DC0009` — a parameter is statically invalid (sample fraction out
    /// of (0, 1], zero forecast horizon, zero clusters, non-positive bin
    /// width).
    InvalidArgument,
    /// `DC0101` — the node feeds no analysis target; `slice()` would drop
    /// it and it only wastes compute (and scan budget) if executed.
    DeadNode,
    /// `DC0102` — the node is structurally identical to an earlier
    /// sub-DAG. The executor's structural cache runs it once, but the
    /// duplication usually means redundant recipe steps.
    DuplicateSubDag,
    /// `DC0103` — `UseDataset` references a name that is only bound by a
    /// *later* node, so at execution time it falls through to the
    /// environment and will not see the intended dataset.
    UseBeforeDefine,
    /// `DC0201` — a full catalog scan feeds a `Sample` node; a
    /// block-sampled scan (§3) would read a fraction of the bytes.
    FullScanCouldSample,
    /// `DC0202` — a full catalog scan re-reads a table that already has a
    /// same-named snapshot; reading the snapshot is fixed-cost.
    FullScanCouldSnapshot,
    /// `DC0203` — a scanned table has a string column whose dictionary is
    /// nearly as large as the table (≈ one distinct value per row), so
    /// dictionary encoding stores the payload *and* a code per row
    /// without ever deduplicating anything.
    HighCardinalityDict,
    /// `DC0204` — a `KeepRows` sits directly above a `LoadTable` but its
    /// predicate has no prunable conjunct, so predicate pushdown cannot
    /// skip any blocks; an equivalent column-vs-literal form would.
    UnprunablePredicate,
    /// `DC0205` — a step re-derives, from live table scans, the exact
    /// sub-DAG that an earlier `Snapshot` step already materializes;
    /// reading the snapshot is fixed-cost while the re-derivation re-pays
    /// the scan bytes every run.
    SnapshotPrefixReload,
    /// `DC0206` — a scan loads columns the pipeline provably never
    /// reads and the dead payload is substantial; the optimizer's
    /// projected scan would skip those bytes entirely.
    DeadColumnLoaded,
    /// `DC0207` — a chain of inner joins is written in a provably
    /// suboptimal order: statistics bound every join's fan-out, and the
    /// best order's intermediate-row bound is at least 4× smaller.
    SuboptimalJoinOrder,
    /// `DC0208` — an operator's *guaranteed-lower-bound* state (the
    /// engine's own state sizes at the estimator's lower bounds) already
    /// exceeds the executor's operator-memory budget, so the memory
    /// governor is certain to refuse it and the operator will run out of
    /// core (partitioned work, runs of records on disk).
    PredictedSpill,
    /// `DC0301` — the pipeline's *guaranteed-lower-bound* scan cost
    /// already exceeds the tenant's remaining byte budget, so execution
    /// is certain to be evicted mid-run with `BudgetExhausted`. Fires
    /// preflight, before any scan is charged.
    PredictedBudgetExhaustion,
    /// `DC0302` — a join is statically guaranteed to explode: its output
    /// cardinality lower bound is ≥ k× *both* inputs (an accidental
    /// cross join — empty key list, or key columns that are constant on
    /// both sides).
    ExplosiveJoin,
    /// `DC0303` — a node's estimated output footprint exceeds the
    /// materialized cache's capacity, so its result can never be
    /// admitted to the shared cache and every re-run re-pays the full
    /// derivation.
    UncacheableResult,
    /// `DC0401` — a GEL sentence failed to parse, or a recipe does not
    /// lower to a DAG.
    GelParse,
    /// `DC0501` — the NL2Code checker removed a print statement.
    RemovedPrint,
    /// `DC0502` — the NL2Code checker removed an assignment whose target
    /// is never used.
    RemovedUnusedCode,
}

impl Code {
    /// The stable `DC0xxx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnknownDataset => "DC0001",
            Code::UnknownColumn => "DC0002",
            Code::TypeMismatch => "DC0003",
            Code::BadComposition => "DC0004",
            Code::MissingInput => "DC0005",
            Code::UnknownSource => "DC0006",
            Code::UnknownSnapshot => "DC0007",
            Code::UnknownModel => "DC0008",
            Code::InvalidArgument => "DC0009",
            Code::DeadNode => "DC0101",
            Code::DuplicateSubDag => "DC0102",
            Code::UseBeforeDefine => "DC0103",
            Code::FullScanCouldSample => "DC0201",
            Code::FullScanCouldSnapshot => "DC0202",
            Code::HighCardinalityDict => "DC0203",
            Code::UnprunablePredicate => "DC0204",
            Code::SnapshotPrefixReload => "DC0205",
            Code::DeadColumnLoaded => "DC0206",
            Code::SuboptimalJoinOrder => "DC0207",
            Code::PredictedSpill => "DC0208",
            Code::PredictedBudgetExhaustion => "DC0301",
            Code::ExplosiveJoin => "DC0302",
            Code::UncacheableResult => "DC0303",
            Code::GelParse => "DC0401",
            Code::RemovedPrint => "DC0501",
            Code::RemovedUnusedCode => "DC0502",
        }
    }

    /// Short human title for registries and docs.
    pub fn title(self) -> &'static str {
        match self {
            Code::UnknownDataset => "unknown dataset",
            Code::UnknownColumn => "unknown column",
            Code::TypeMismatch => "type mismatch",
            Code::BadComposition => "invalid composition",
            Code::MissingInput => "missing input",
            Code::UnknownSource => "unknown source",
            Code::UnknownSnapshot => "unknown snapshot",
            Code::UnknownModel => "unknown model",
            Code::InvalidArgument => "invalid argument",
            Code::DeadNode => "dead node",
            Code::DuplicateSubDag => "duplicate sub-DAG",
            Code::UseBeforeDefine => "use before define",
            Code::FullScanCouldSample => "full scan could be sampled",
            Code::FullScanCouldSnapshot => "full scan could read a snapshot",
            Code::HighCardinalityDict => "high-cardinality dictionary column",
            Code::UnprunablePredicate => "filter above a scan cannot be pushed down",
            Code::SnapshotPrefixReload => "re-derives a snapshot-materialized sub-DAG",
            Code::DeadColumnLoaded => "scan loads columns the pipeline never reads",
            Code::SuboptimalJoinOrder => "join order provably suboptimal",
            Code::PredictedSpill => "operator state exceeds the memory budget",
            Code::PredictedBudgetExhaustion => "predicted budget exhaustion",
            Code::ExplosiveJoin => "join output guaranteed to explode",
            Code::UncacheableResult => "estimated result exceeds cache capacity",
            Code::GelParse => "GEL parse error",
            Code::RemovedPrint => "removed print statement",
            Code::RemovedUnusedCode => "removed unused code",
        }
    }

    /// The severity this code carries unless a pass overrides it.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::RemovedPrint | Code::RemovedUnusedCode => Severity::Fixed,
            Code::DeadNode
            | Code::DuplicateSubDag
            | Code::FullScanCouldSample
            | Code::FullScanCouldSnapshot
            | Code::HighCardinalityDict
            | Code::UnprunablePredicate
            | Code::SnapshotPrefixReload
            | Code::DeadColumnLoaded
            | Code::SuboptimalJoinOrder
            | Code::PredictedSpill
            | Code::ExplosiveJoin
            | Code::UncacheableResult => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Every registered code, in `DC0xxx` order.
    pub fn all() -> &'static [Code] {
        &[
            Code::UnknownDataset,
            Code::UnknownColumn,
            Code::TypeMismatch,
            Code::BadComposition,
            Code::MissingInput,
            Code::UnknownSource,
            Code::UnknownSnapshot,
            Code::UnknownModel,
            Code::InvalidArgument,
            Code::DeadNode,
            Code::DuplicateSubDag,
            Code::UseBeforeDefine,
            Code::FullScanCouldSample,
            Code::FullScanCouldSnapshot,
            Code::HighCardinalityDict,
            Code::UnprunablePredicate,
            Code::SnapshotPrefixReload,
            Code::DeadColumnLoaded,
            Code::SuboptimalJoinOrder,
            Code::PredictedSpill,
            Code::PredictedBudgetExhaustion,
            Code::ExplosiveJoin,
            Code::UncacheableResult,
            Code::GelParse,
            Code::RemovedPrint,
            Code::RemovedUnusedCode,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// The code a skill contract's finding is reported under.
impl From<dc_skills::FindingKind> for Code {
    fn from(kind: dc_skills::FindingKind) -> Code {
        use dc_skills::FindingKind::*;
        match kind {
            UnknownColumn => Code::UnknownColumn,
            TypeMismatch => Code::TypeMismatch,
            BadComposition => Code::BadComposition,
            MissingInput => Code::MissingInput,
            InvalidArgument => Code::InvalidArgument,
        }
    }
}

/// Where a diagnostic points. Layers fill what they know: the DAG
/// analyzer sets `node`, the GEL validator remaps nodes to recipe
/// `step`s and source `line`s, the NL checker sets program statement
/// `step`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// DAG node id.
    pub node: Option<usize>,
    /// 1-based recipe step / program statement.
    pub step: Option<usize>,
    /// 1-based source line.
    pub line: Option<usize>,
    /// The skill name or source excerpt the span covers.
    pub fragment: String,
}

impl Span {
    /// A span with no position (whole-pipeline findings).
    pub fn none() -> Span {
        Span::default()
    }

    /// A span anchored to a DAG node.
    pub fn node(id: usize, fragment: impl Into<String>) -> Span {
        Span {
            node: Some(id),
            fragment: fragment.into(),
            ..Span::default()
        }
    }

    /// A span anchored to a 1-based program statement / recipe step.
    pub fn step(step: usize, fragment: impl Into<String>) -> Span {
        Span {
            step: Some(step),
            fragment: fragment.into(),
            ..Span::default()
        }
    }

    /// A span anchored to a 1-based source line.
    pub fn line(line: usize, fragment: impl Into<String>) -> Span {
        Span {
            line: Some(line),
            fragment: fragment.into(),
            ..Span::default()
        }
    }

    /// Whether the span carries any position at all.
    pub fn is_none(&self) -> bool {
        self.node.is_none() && self.step.is_none() && self.line.is_none()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some(s) = self.step {
            write!(f, "step {s}")?;
            wrote = true;
        } else if let Some(n) = self.node {
            write!(f, "node {n}")?;
            wrote = true;
        }
        if let Some(l) = self.line {
            if wrote {
                write!(f, ", ")?;
            }
            write!(f, "line {l}")?;
            wrote = true;
        }
        if !self.fragment.is_empty() {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "({})", self.fragment)?;
            wrote = true;
        }
        if !wrote {
            write!(f, "pipeline")?;
        }
        Ok(())
    }
}

/// A structured, machine-applicable suggestion attached to a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// What the fix does, in one sentence.
    pub summary: String,
    /// Replacement source for the spanned fragment, when one exists.
    pub replacement: Option<String>,
}

impl Fix {
    /// A fix with a summary only.
    pub fn new(summary: impl Into<String>) -> Fix {
        Fix {
            summary: summary.into(),
            replacement: None,
        }
    }

    /// A fix that rewrites the spanned fragment.
    pub fn replace(summary: impl Into<String>, replacement: impl Into<String>) -> Fix {
        Fix {
            summary: summary.into(),
            replacement: Some(replacement.into()),
        }
    }
}

/// One finding from any static check in the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub message: String,
    pub span: Span,
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity with no span.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            span: Span::none(),
            fix: None,
        }
    }

    /// Attach a span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = span;
        self
    }

    /// Attach a structured fix.
    pub fn with_fix(mut self, fix: Fix) -> Diagnostic {
        self.fix = Some(fix);
        self
    }

    /// Override the default severity.
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// Whether this diagnostic blocks execution.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        write!(f, " — at {}", self.span)?;
        if let Some(fix) = &self.fix {
            write!(f, " (fix: {})", fix.summary)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = Code::all();
        let mut strs: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), all.len(), "duplicate DC codes");
        assert!(strs.iter().all(|s| s.starts_with("DC0") && s.len() == 6));
        assert_eq!(Code::UnknownColumn.as_str(), "DC0002");
        assert_eq!(Code::DeadNode.as_str(), "DC0101");
        assert_eq!(Code::FullScanCouldSample.as_str(), "DC0201");
        assert_eq!(Code::PredictedBudgetExhaustion.as_str(), "DC0301");
        assert_eq!(Code::ExplosiveJoin.as_str(), "DC0302");
        assert_eq!(Code::UncacheableResult.as_str(), "DC0303");
        assert_eq!(Code::RemovedPrint.as_str(), "DC0501");
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Fixed < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_renders_code_span_and_fix() {
        let d = Diagnostic::new(Code::UnknownColumn, "column \"bogus\" not found")
            .with_span(Span::step(3, "KeepRows"))
            .with_fix(Fix::new("did you mean \"bonus\"?"));
        let s = d.to_string();
        assert!(s.contains("error[DC0002]"), "{s}");
        assert!(s.contains("step 3"), "{s}");
        assert!(s.contains("did you mean"), "{s}");
        let none = Diagnostic::new(Code::GelParse, "oops");
        assert!(none.to_string().contains("pipeline"));
    }

    #[test]
    fn default_severities() {
        assert_eq!(Code::RemovedPrint.default_severity(), Severity::Fixed);
        assert_eq!(Code::DeadNode.default_severity(), Severity::Warning);
        assert_eq!(Code::ExplosiveJoin.default_severity(), Severity::Warning);
        assert_eq!(
            Code::UncacheableResult.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            Code::PredictedBudgetExhaustion.default_severity(),
            Severity::Error
        );
        assert_eq!(Code::UnknownColumn.default_severity(), Severity::Error);
    }
}
