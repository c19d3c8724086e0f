//! The repository's benchmark: five end-to-end workloads reported under one
//! metric vocabulary, with a staged trace that says which layer the time
//! went to. See `benchmark/README.md`.
//!
//! ```text
//! dc-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload in this process; the last stdout line is the result JSON
//! dc-benchmark [--seed N] [--repeats R] [--smoke]
//!     every workload, each run in its own process, untraced then traced;
//!     writes benchmark/out/results.json
//! dc-benchmark compare A.json B.json
//! ```
//!
//! Runs from the repository root (`run.sh` sees to that): it reads
//! `BENCHMARK.json` there and writes under `benchmark/out/`.

mod board;
mod chat;
mod compare;
mod fixtures;
mod fleet;
mod harness;
mod json;
mod machine;
mod metrics;
mod oracle;
mod replay;
mod trace;
mod windows;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{Config, Outcome};
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 5] = [
    "chat_turns",
    "scan_agg_disk",
    "join_sort_mem",
    "join_sort_spill",
    "serve_fleet",
];

const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => Args::parse(&args).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&w, &a),
            None => run_all(&a),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeats: usize,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            seed: 1,
            repeats: 1,
            ..Args::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value()?.clone()),
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => a.trace = value()? == "1",
                "--repeats" => {
                    a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?
                }
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(a)
    }
}

fn spec() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// One workload in this process.
fn run_one(workload: &str, a: &Args) -> Result<bool, String> {
    let cfg = Config {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds.unwrap_or(if a.smoke { 0.4 } else { 10.0 }),
        trace: a.trace,
        smoke: a.smoke,
        out_dir: PathBuf::from(OUT_DIR),
        tmp_dir: std::env::temp_dir(),
    };
    let outcome = match workload {
        "chat_turns" => harness::run::<chat::Chat>(&cfg),
        "scan_agg_disk" | "join_sort_mem" | "join_sort_spill" => harness::run::<board::Board>(&cfg),
        "serve_fleet" => harness::run::<fleet::Fleet>(&cfg),
        other => return Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    };
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{workload}  seed {}  {} s  trace {}  -  {}",
        cfg.seed, cfg.seconds, cfg.trace as u8, outcome.note
    );
    for d in defs {
        println!(
            "  {:<36} {:>16.4} {}",
            d.name,
            value_of(&outcome, d),
            d.unit
        );
    }
    let traced_ms: f64 = outcome.layer_self_ms.iter().map(|l| l.1).sum();
    if traced_ms > 0.0 {
        println!("  where the traced ops' time went (self time per layer):");
        for (layer, ms) in &outcome.layer_self_ms {
            println!(
                "    {layer:<34} {ms:>14.3} ms {:>6.1} %",
                ms / traced_ms * 100.0
            );
        }
    }
    println!("{}", result_line(&outcome, defs));
    Ok(outcome.correct)
}

/// A layer the workload does not touch reads 0.
fn value_of(outcome: &Outcome, d: &MetricDef) -> f64 {
    outcome.values.get(d.name).copied().unwrap_or(0.0)
}

fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Json {
    let metrics = defs
        .iter()
        .map(|d| {
            let v = Json::obj(vec![
                ("value", Json::Num(value_of(outcome, d))),
                ("unit", Json::str(d.unit)),
            ]);
            (d.name.to_string(), v)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Run one workload in a child process and parse its result line.
fn child(workload: &str, a: &Args, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parsed = Json::parse(lines.pop().unwrap_or("")).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    // Everything but the result line is for the reader.
    for line in lines {
        println!("{line}");
    }
    Ok(parsed)
}

/// Every workload: untraced for the end-to-end metrics (`repeats` times),
/// then a shorter traced pass for the per-layer metrics.
fn run_all(a: &Args) -> Result<bool, String> {
    let spec = spec()?;
    let run_seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let (seconds, traced_seconds) = if a.smoke {
        (0.3, 0.4)
    } else {
        (run_seconds, run_seconds / 2.0)
    };
    let mut all_correct = true;
    let mut problems: Vec<String> = Vec::new();
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut e2e: Vec<(String, Vec<f64>)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), vec![]))
            .collect();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for _ in 0..a.repeats.max(1) {
            let r = child(w, a, seconds, false)?;
            all_correct &= r.get("correct") == Some(&Json::Bool(true));
            attempted.push(r.get("attempted").cloned().unwrap_or(Json::Null));
            failed.push(r.get("failed").cloned().unwrap_or(Json::Null));
            problems.extend(check_names(w, &r, END_TO_END));
            for (name, values) in &mut e2e {
                values.extend(metric_value(&r, name));
            }
        }
        let traced = child(w, a, traced_seconds, true)?;
        all_correct &= traced.get("correct") == Some(&Json::Bool(true));
        problems.extend(check_names(w, &traced, PER_LAYER));

        let unit = |defs: &[MetricDef], name: &str| {
            Json::str(defs.iter().find(|d| d.name == name).map_or("", |d| d.unit))
        };
        let e2e_json = e2e
            .into_iter()
            .map(|(name, values)| {
                let v = Json::obj(vec![
                    ("unit", unit(END_TO_END, &name)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]);
                (name, v)
            })
            .collect();
        let layers_json = PER_LAYER
            .iter()
            .map(|d| {
                let v = Json::obj(vec![
                    ("unit", Json::str(d.unit)),
                    (
                        "value",
                        metric_value(&traced, d.name).map_or(Json::Null, Json::Num),
                    ),
                ]);
                (d.name.to_string(), v)
            })
            .collect();
        workloads.push((
            w.to_string(),
            Json::obj(vec![
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
                ("end_to_end", Json::Obj(e2e_json)),
                ("per_layer", Json::Obj(layers_json)),
            ]),
        ));
    }
    problems.extend(check_spec(&spec));

    let results = Json::obj(vec![
        ("seed", Json::Num(a.seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(a.smoke)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    for p in &problems {
        eprintln!("dc-benchmark: {p}");
    }
    if !all_correct {
        eprintln!("dc-benchmark: at least one workload failed verification");
    }
    Ok(all_correct && problems.is_empty())
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every metric of `defs` is reported exactly once, finite, and nothing else is.
fn check_names(workload: &str, result: &Json, defs: &[MetricDef]) -> Vec<String> {
    let reported = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    let mut problems = Vec::new();
    for d in defs {
        let hits: Vec<&Json> = reported
            .iter()
            .filter(|(k, _)| k == d.name)
            .map(|(_, v)| v)
            .collect();
        let finite = hits
            .first()
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite);
        if hits.len() != 1 || !finite {
            problems.push(format!(
                "{workload}: {} reported {} time(s), finite: {finite}",
                d.name,
                hits.len()
            ));
        }
    }
    for (k, _) in reported {
        if !defs.iter().any(|d| d.name == k) {
            problems.push(format!("{workload}: unexpected metric {k}"));
        }
    }
    problems
}

/// `BENCHMARK.json` names the same workloads and metrics, with the same
/// units, directions and bounds, as this program reports.
fn check_spec(spec: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let names = |key: &str| -> Vec<&str> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect()
    };
    if names("workloads") != WORKLOADS {
        problems.push("BENCHMARK.json: workloads differ from the program's".to_string());
    }
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = spec.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        if listed.len() != defs.len() {
            problems.push(format!(
                "BENCHMARK.json: {key} lists {} metrics, the program reports {}",
                listed.len(),
                defs.len()
            ));
        }
        for d in defs {
            let same = listed.iter().any(|m| {
                m.get("name").and_then(Json::as_str) == Some(d.name)
                    && m.get("unit").and_then(Json::as_str) == Some(d.unit)
                    && m.get("better").and_then(Json::as_str) == Some(d.better)
                    && (key == "per_layer"
                        || m.get("bound").and_then(Json::as_f64) == Some(d.bound))
            });
            if !same {
                problems.push(format!(
                    "BENCHMARK.json: {key} entry for {} is missing or differs",
                    d.name
                ));
            }
        }
    }
    problems
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let bounds = compare::bounds_of(&spec()?)?;
    let (report, pass) = compare::compare(&load(a)?, &load(b)?, &bounds)?;
    print!("{report}");
    Ok(pass)
}
