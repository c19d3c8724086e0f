//! In-memory spans recorded around calls into the layers' public functions,
//! written out as JSON lines when the traced pass ends.
//!
//! A layer's self time is its spans' duration minus the part their child
//! spans cover, so the self times of one op's spans add up to its root span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// The op (conversation, board refresh, job) this span belongs to.
    pub op: u64,
    pub parent: Option<SpanId>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: impl Into<String>,
    ) -> SpanId {
        let now = self.now_ns();
        self.record(op, parent, layer, name, now, now)
    }

    /// Record a span whose interval was measured elsewhere (a job's queue
    /// wait and execution come back as durations on its result).
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            op,
            parent,
            layer,
            name: name.into(),
            start_ns,
            end_ns,
            rows_in: 0,
            rows_out: 0,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attach the counts taken at a span's boundaries.
    pub fn annotate(&mut self, id: SpanId, rows_in: u64, rows_out: u64, bytes: u64) {
        let s = &mut self.spans[id];
        s.rows_in = rows_in;
        s.rows_out = rows_out;
        s.bytes = bytes;
    }

    /// Time `f` as one span.
    pub fn scope<R>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(op, parent, layer, name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// Total duration, row and byte counts of the spans of `layer` (spans of
    /// one layer never nest, so durations add).
    pub fn layer_totals(&self, layer: &str) -> LayerTotals {
        let mut t = LayerTotals::default();
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            t.ns += s.duration_ns();
            t.rows_in += s.rows_in;
            t.bytes += s.bytes;
        }
        t
    }

    /// Structural check used by the smoke run and the tests: every parent
    /// exists and precedes its child, and each op's self times add up to its
    /// root span within `tolerance` (a share of the root).
    pub fn check(&self, tolerance: f64) -> Result<(), String> {
        let mut root_of_op: BTreeMap<u64, SpanId> = BTreeMap::new();
        let mut own_of_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) if p >= id => {
                    return Err(format!("span {id}: parent {p} does not precede it"))
                }
                Some(p) if self.spans[p].op != s.op => {
                    return Err(format!("span {id}: parent {p} belongs to another op"))
                }
                Some(_) => {}
                None => {
                    if root_of_op.insert(s.op, id).is_some() {
                        return Err(format!("op {} has two root spans", s.op));
                    }
                }
            }
        }
        // Parents are known to exist from here on.
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *own_of_op.entry(s.op).or_insert(0) += own;
        }
        for (op, total) in own_of_op {
            let root = root_of_op
                .get(&op)
                .ok_or_else(|| format!("op {op} has no root span"))?;
            let root_ns = self.spans[*root].duration_ns() as f64;
            if (total as f64 - root_ns).abs() > tolerance * root_ns.max(1.0) {
                return Err(format!(
                    "op {op}: self times sum to {total} ns, root span is {root_ns} ns"
                ));
            }
        }
        Ok(())
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("op", Json::Num(s.op as f64)),
                ("span", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("layer", Json::str(s.layer)),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("rows_in", Json::Num(s.rows_in as f64)),
                ("rows_out", Json::Num(s.rows_out as f64)),
                ("bytes", Json::Num(s.bytes as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// What [`Tracer::layer_totals`] returns.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub ns: u64,
    pub rows_in: u64,
    pub bytes: u64,
}

impl LayerTotals {
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let root = t.record(7, None, "harness", "op", 0, 1000);
        let plan = t.record(7, Some(root), "skills.optimize", "optimize_dag", 100, 300);
        let scan = t.record(7, Some(root), "storage.scan", "LoadTable", 300, 900);
        t.record(7, Some(scan), "engine.filter", "prefilter", 400, 500);
        let _ = plan;
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = sample();
        assert_eq!(t.self_times_ns(), vec![200, 200, 500, 100]);
        let layers = t.layer_self_ns();
        assert_eq!(layers["harness"], 200);
        assert_eq!(layers["storage.scan"], 500);
        assert_eq!(layers.values().sum::<u64>(), 1000);
        t.check(0.0).unwrap();
    }

    #[test]
    fn check_rejects_orphans_and_leaky_ops() {
        let mut t = Tracer::new();
        t.record(1, Some(5), "x", "orphan", 0, 1);
        assert!(t.check(0.02).is_err());

        let mut t = Tracer::new();
        t.record(1, None, "harness", "a", 0, 10);
        t.record(1, None, "harness", "b", 10, 20);
        assert!(t.check(0.02).unwrap_err().contains("two root spans"));

        // A child longer than its parent makes the sum overshoot the root.
        let mut t = Tracer::new();
        let root = t.record(1, None, "harness", "op", 0, 100);
        t.record(1, Some(root), "x", "too long", 0, 150);
        assert!(t.check(0.02).is_err());
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let t = sample();
        let path =
            std::env::temp_dir().join(format!("dcb-trace-test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[3].get("parent").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            lines[2].get("layer").unwrap().as_str(),
            Some("storage.scan")
        );
    }
}
