//! The metric vocabulary every workload reports under, plus the small
//! statistics and `/proc` readers that produce the values.

use std::collections::BTreeMap;

/// A metric's definition. `better` is `"lower"` or `"higher"`; `bound` (end to
/// end only) is the share of the baseline median a later change may lose.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. `BENCHMARK.json` carries the same list; the
/// smoke run fails if the two drift apart.
///
/// The time bounds are the widest the benchmark contract allows: the 2-core
/// reference box goes through phases, minutes long, in which every wall-clock
/// and CPU number is up to 20 % worse (see the A/A studies in the README), and
/// a bound inside that noise would reject changes that did nothing.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_p90_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("bytes_charged_per_op", "B", "lower", 0.03),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// One layer each; a workload that does not touch a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    layer("gel.parse_us_per_sentence", "us", "lower"),
    layer("gel.to_dag_us_per_recipe", "us", "lower"),
    layer("nl.translate_ms_per_question", "ms", "lower"),
    layer("nl.translate_ok_ratio", "ratio", "higher"),
    layer("analyze.preflight_us_per_program", "us", "lower"),
    layer("analyze.scan_bytes_qerror", "ratio", "lower"),
    layer("core.chat.gel_turn_p50_ms", "ms", "lower"),
    layer("core.chat.nl_turn_p50_ms", "ms", "lower"),
    layer("core.chat.load_turn_p50_ms", "ms", "lower"),
    layer("collab.submit_us_per_turn", "us", "lower"),
    layer("skills.optimize_us_per_dag", "us", "lower"),
    layer("skills.pushdown_us_per_dag", "us", "lower"),
    layer("skills.driver_overhead_ms_per_op", "ms", "lower"),
    layer("skills.cache.local_hit_ratio", "ratio", "higher"),
    layer("skills.cache.shared_hit_ratio", "ratio", "higher"),
    layer("skills.cache.evictions_per_kop", "1/kop", "lower"),
    layer("skills.cache.resident_mb", "MB", "lower"),
    layer("storage.scan_ms_per_op", "ms", "lower"),
    layer("storage.scan_gbps", "GB/s", "higher"),
    layer("storage.scan_frac_of_memcpy", "ratio", "higher"),
    layer("storage.blocks_pruned_ratio", "ratio", "higher"),
    layer("storage.bytes_read_per_op", "B", "lower"),
    layer("storage.bytes_scanned_per_op", "B", "lower"),
    layer("storage.projection_ratio", "ratio", "lower"),
    layer("engine.filter_ms_per_op", "ms", "lower"),
    layer("engine.filter_ns_per_row", "ns", "lower"),
    layer("engine.project_ms_per_op", "ms", "lower"),
    layer("engine.group_by_ms_per_op", "ms", "lower"),
    layer("engine.group_by_ns_per_row", "ns", "lower"),
    layer("engine.join_ms_per_op", "ms", "lower"),
    layer("engine.join_ns_per_row", "ns", "lower"),
    layer("engine.sort_ms_per_op", "ms", "lower"),
    layer("engine.sort_ns_per_row", "ns", "lower"),
    layer("engine.sort_frac_of_ceiling", "ratio", "higher"),
    layer("engine.spill.bytes_per_op", "B", "lower"),
    layer("engine.spill.partitions_per_op", "count", "lower"),
    layer("engine.spill.join_slowdown", "ratio", "lower"),
    layer("engine.spill.group_by_slowdown", "ratio", "lower"),
    layer("engine.spill.sort_slowdown", "ratio", "lower"),
    layer("serve.queue_wait_p50_ms", "ms", "lower"),
    layer("serve.queue_wait_p99_ms", "ms", "lower"),
    layer("serve.exec_p50_ms", "ms", "lower"),
    layer("serve.other_wait_p50_ms", "ms", "lower"),
    layer("serve.job_p99_ms", "ms", "lower"),
    layer("serve.preemptions_per_kjob", "1/kjob", "lower"),
    layer("serve.rejected_ratio", "ratio", "lower"),
    layer("serve.heavy_job_p50_ms", "ms", "lower"),
    layer("serve.contended_p50_ratio", "ratio", "lower"),
    layer("machine.nproc", "count", "higher"),
    layer("machine.memcpy_gbps", "GB/s", "higher"),
    layer("machine.sort_ns_per_row", "ns", "lower"),
    layer("engine.threads", "count", "higher"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// Values of one run, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`).
/// Empty input reads 0 so a workload that does not exercise a layer still
/// prints a finite value.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the acceptance rule and `compare` use. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) so the
/// numbers agree with the driver's.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = quantile(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    ((at(3) - at(1)) / med).abs()
}

/// Ratio that reads 0 instead of NaN when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `sysconf(_SC_CLK_TCK)` is 100 on every Linux this
/// repository targets, and reading it would need libc.
const CLK_TCK: f64 = 100.0;

/// User + system CPU milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / CLK_TCK)
}

/// A `kB` line of `/proc/<pid>/status` (e.g. `VmHWM`), in kilobytes.
pub fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// A counter line of `/proc/<pid>/io` (e.g. `rchar`).
pub fn parse_io_counter(io: &str, key: &str) -> Option<u64> {
    io.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().parse().ok()
    })
}

/// Process CPU time so far (all threads), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process, in megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has read through `read`-family system calls so far.
/// The disk block tables read with `pread`, so a delta around a scan is the
/// scan's real read traffic (page-cache hits included).
pub fn process_read_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| parse_io_counter(&s, "rchar"))
        .unwrap_or(0)
}

/// Reading `/proc/self/io` is itself a read that `rchar` counts; this is what
/// one [`process_read_bytes`] call adds, to be taken off a delta.
pub fn read_probe_cost() -> u64 {
    static COST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        let before = process_read_bytes();
        process_read_bytes() - before
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert!((quantile(&v, 0.5) - 5.5).abs() < 1e-12);
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
        assert!((iqr_share(&[13.0, 10.0, 20.0, 11.0]) - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn stat_cpu_survives_awkward_command_names() {
        let stat = "4242 (dc bench) (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    150 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        // utime 150 + stime 50 ticks at 100 Hz = 2000 ms.
        assert_eq!(parse_stat_cpu_ms(stat), Some(2000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
    }

    #[test]
    fn status_and_io_lines() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048.0));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        let io = "rchar: 12345\nwchar: 9\nread_bytes: 4096\n";
        assert_eq!(parse_io_counter(io, "rchar"), Some(12345));
        assert_eq!(parse_io_counter(io, "read_bytes"), Some(4096));
        assert_eq!(parse_io_counter(io, "nope"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
