//! What every workload shares: the run configuration, the closed loop, and
//! the turn from raw samples into the metric vocabulary.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::machine::{self, Machine};
use crate::metrics::{self, quantile, ratio, sorted, Values};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Share of a traced run spent on an untraced reference segment (the base of
/// `trace.overhead_ratio` and of the per-turn chat latencies).
pub const REFERENCE_SHARE: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/50 sizes: checks the plumbing, not the numbers.
    pub smoke: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
    /// Scratch space for block files; spill directories land in `$TMPDIR`.
    pub tmp_dir: PathBuf,
}

impl Config {
    /// A fixture size or op count, shrunk for smoke runs but never below `floor`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 50).max(floor)
        } else {
            full
        }
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Raw result of one measured segment.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every op that completed and verified, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops that errored, were rejected, or returned a wrong answer.
    pub failed: u64,
    pub wall_s: f64,
    pub first_error: Option<String>,
}

impl Samples {
    pub fn record(&mut self, outcome: Result<Duration, String>) {
        self.attempted += 1;
        match outcome {
            Ok(latency) => self.latencies_ms.push(latency.as_secs_f64() * 1e3),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    /// Count another segment's attempts and failures (not its latencies).
    pub fn absorb(&mut self, other: Samples) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn p50_ms(&self) -> f64 {
        quantile(&sorted(self.latencies_ms.clone()), 0.5)
    }
}

/// One client, next op only after the previous one returned. `op` reports
/// the time spent inside the system under test, so checking the answer does
/// not count as latency.
pub fn closed_loop(budget: Duration, mut op: impl FnMut() -> Result<Duration, String>) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    while start.elapsed() < budget {
        samples.record(op());
    }
    samples.wall_s = start.elapsed().as_secs_f64();
    samples
}

/// A workload: fixtures, expected answers and a running system.
pub trait World: Sized {
    /// Build everything and run the warm-up ops. Timed as `setup_s`.
    fn setup(cfg: &Config) -> Self;
    /// Untraced closed loop for `budget`.
    fn measure(&mut self, budget: Duration) -> Samples;
    /// Bytes billed by the catalog meter so far.
    fn bytes_charged(&self) -> u64;
    /// Traced pass: replay ops in slow motion through public functions,
    /// recording spans, and derive this workload's per-layer values.
    fn trace(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        machine: &Machine,
    ) -> (Samples, Values);
}

/// What one process run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Traced runs: total self time per layer in milliseconds, largest first.
    pub layer_self_ms: Vec<(&'static str, f64)>,
    /// Why `correct` is false, or how many samples back the percentiles.
    pub note: String,
}

pub fn run<W: World>(cfg: &Config) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous world first so two never coexist in the peak RSS.
        drop(world.take());
        let t = Instant::now();
        world = Some(W::setup(cfg));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut world = world.expect("SETUP_REPEATS > 0");
    let mut values = Values::new();

    if !cfg.trace {
        let cpu_before = metrics::process_cpu_ms();
        let bytes_before = world.bytes_charged();
        let s = world.measure(cfg.budget());
        let cpu_ms = metrics::process_cpu_ms() - cpu_before;
        let bytes = world.bytes_charged() - bytes_before;
        let lat = sorted(s.latencies_ms.clone());
        let ops = s.attempted.max(1) as f64;
        values.insert("setup_s", metrics::median(&setups));
        values.insert("ops_per_s", lat.len() as f64 / s.wall_s);
        values.insert("op_p50_ms", quantile(&lat, 0.5));
        values.insert("op_p90_ms", quantile(&lat, 0.9));
        values.insert("cpu_ms_per_op", cpu_ms / ops);
        values.insert("bytes_charged_per_op", bytes as f64 / ops);
        values.insert("peak_rss_mb", metrics::peak_rss_mb());
        return outcome(s, values, Vec::new(), Ok(()));
    }

    let machine = if cfg.smoke {
        machine::probe(16 << 20, 50_000)
    } else {
        machine::probe(256 << 20, 1_000_000)
    };
    let mut tracer = Tracer::new();
    let (s, layer_values) = world.trace(cfg.budget(), &mut tracer, &machine);
    values.extend(layer_values);
    values.insert("machine.nproc", machine.nproc as f64);
    values.insert("machine.memcpy_gbps", machine.memcpy_gbps);
    values.insert("machine.sort_ns_per_row", machine.sort_ns_per_row);
    values.insert("engine.threads", dc_engine::parallel::num_threads() as f64);
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| {
            tracer.write_jsonl(&cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload)))
        })
        .map_err(|e| format!("cannot write trace: {e}"));
    let structure = tracer.check(0.02).and(written);
    let mut layers: Vec<(&'static str, f64)> = tracer
        .layer_self_ns()
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    outcome(s, values, layers, structure)
}

fn outcome(
    s: Samples,
    values: Values,
    layer_self_ms: Vec<(&'static str, f64)>,
    extra: Result<(), String>,
) -> Outcome {
    let note = match (&s.first_error, &extra) {
        (Some(e), _) => format!("first failure: {e}"),
        (None, Err(e)) => e.clone(),
        (None, Ok(())) => format!("{} verified ops", s.latencies_ms.len()),
    };
    Outcome {
        correct: s.failed == 0 && s.attempted > 0 && extra.is_ok(),
        attempted: s.attempted.max(1),
        failed: s.failed,
        values,
        layer_self_ms,
        note,
    }
}

/// `trace.overhead_ratio`: how far the staged replay is from the real path.
pub fn overhead_ratio(tracer: &Tracer, reference_p50_ms: f64) -> f64 {
    let roots: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    ratio(metrics::median(&roots), reference_p50_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_failures_apart_from_latencies() {
        let mut k = 0;
        let s = closed_loop(Duration::from_millis(20), || {
            k += 1;
            if k % 4 == 0 {
                Err(format!("op {k} wrong"))
            } else {
                Ok(Duration::from_micros(250))
            }
        });
        assert!(s.attempted >= 4);
        assert_eq!(s.attempted, s.latencies_ms.len() as u64 + s.failed);
        assert_eq!(s.first_error.as_deref(), Some("op 4 wrong"));
        assert_eq!(s.p50_ms(), 0.25);
        assert!(s.wall_s >= 0.02);
    }

    #[test]
    fn smoke_scaling_respects_the_floor() {
        let mut cfg = Config {
            workload: "x".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::new(),
            tmp_dir: PathBuf::new(),
        };
        assert_eq!(cfg.scaled(50_000, 2_000), 50_000);
        cfg.smoke = true;
        assert_eq!(cfg.scaled(50_000, 2_000), 2_000);
        assert_eq!(cfg.scaled(500_000, 2_000), 10_000);
    }
}
