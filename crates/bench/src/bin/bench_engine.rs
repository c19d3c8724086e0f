//! Kernel and dictionary-encoding timings on analytics-scale inputs,
//! emitted as machine-readable JSON (`BENCH_engine.json`).
//!
//! Each kernel runs at 1M rows; the reported time is the minimum of
//! three repeats and every record carries the worker count it ran on.
//!
//! String-keyed variants run twice: `plain` is the kernel over
//! `Column::Str` data (the pre-encoding baseline) and `dict` is the same
//! kernel over the same table dictionary-encoded, so the pair prices the
//! end-to-end win of keeping strings encoded.
//!
//! The scale sweep runs join, group-by, and sort at 1M/10M/100M rows
//! through the memory-governed entry points under a 1 GiB budget
//! (`--mem-budget 64mb`-style override accepted), recording wall time,
//! `bytes_spilled`, and `spill_partitions` per tier. Tiers whose input
//! alone exceeds the budget must spill — the run aborts if they don't —
//! and the 1M/10M constrained outputs are checked identical to the
//! in-memory kernels'.
//!
//! `--smoke` skips all timing: it runs every string-keyed op at a small
//! row count in both encodings and exits nonzero if any pair of results
//! diverges — a cheap CI gate that the dict kernels stay equivalent.
//! `--smoke --mem-budget 64mb` additionally runs the 10M-row sweep under
//! that budget and fails unless every op spills, matches the in-memory
//! result, and leaves no spill files behind.

use std::sync::Arc;
use std::time::Instant;

use dc_engine::bitmap::Bitmap;
use dc_engine::ops::{
    filter, group_by, group_by_with_mem, join, join_with_mem, sort_by, sort_by_with_mem, AggFunc,
    AggSpec, JoinType, SortKey,
};
use dc_engine::{parallel, Column, Expr, MemContext, SpillSnapshot, Table, Value};
use dc_storage::{BlockTable, DiskBlockTable, ScanOptions, ScanReceipt};

const ROWS: usize = 1_000_000;
const REPEATS: usize = 3;

fn events(n: usize) -> Table {
    Table::new(vec![
        ("id", Column::from_ints((0..n as i64).collect())),
        (
            "k",
            Column::from_strs((0..n).map(|i| format!("g{}", i % 50)).collect::<Vec<_>>()),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("table builds")
}

const STR_KEYS: usize = 1000;

/// A fact table with a medium-cardinality string key (plain `Str`
/// encoding; callers encode it for the `dict` variants).
fn str_events(n: usize) -> Table {
    Table::new(vec![
        ("id", Column::from_ints((0..n as i64).collect())),
        (
            "s",
            Column::from_strs(
                (0..n)
                    .map(|i| format!("city_{:04}", (i * 7919) % STR_KEYS))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("table builds")
}

/// One row per distinct string key — the join dimension side.
fn str_dim() -> Table {
    Table::new(vec![
        (
            "s",
            Column::from_strs(
                (0..STR_KEYS)
                    .map(|i| format!("city_{i:04}"))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "weight",
            Column::from_floats((0..STR_KEYS).map(|i| i as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("dim builds")
}

/// Parse a byte size like `64mb`, `1gb`, `512kb`, or plain bytes.
fn parse_size(s: &str) -> u64 {
    let lower = s.trim().to_ascii_lowercase();
    let (num, mult) = if let Some(p) = lower.strip_suffix("gb") {
        (p, 1u64 << 30)
    } else if let Some(p) = lower.strip_suffix("mb") {
        (p, 1 << 20)
    } else if let Some(p) = lower.strip_suffix("kb") {
        (p, 1 << 10)
    } else if let Some(p) = lower.strip_suffix('b') {
        (p, 1)
    } else {
        (lower.as_str(), 1)
    };
    let n: u64 = num
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("bad size {s:?} (want e.g. 64mb, 1gb, or bytes)"));
    n * mult
}

/// Round-trip a fixture through an on-disk block file and hand back the
/// scanned table plus the receipt, so kernel records carry the real
/// storage footprint of their input instead of 0. The file is deleted
/// once scanned.
fn disk_backed(name: &str, t: &Table) -> (Table, ScanReceipt) {
    let dir = std::env::temp_dir().join(format!("dc-bench-fixtures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = dir.join(name);
    let dt = DiskBlockTable::create(&path, t, 8192).expect("fixture block file");
    let (out, receipt) = dt.scan(&ScanOptions::full()).expect("fixture scan");
    assert!(
        receipt.bytes_read <= receipt.bytes_scanned,
        "{name}: faulted {} bytes but only {} were charged",
        receipt.bytes_read,
        receipt.bytes_scanned
    );
    drop(dt);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    (out, receipt)
}

/// Scale-sweep fact table: int id, 50-key dictionary group column, float
/// value. Columns are built directly (no per-row string formatting) so
/// the 100M tier constructs in seconds.
fn sweep_table(n: usize) -> Table {
    let dict: Arc<Vec<String>> = Arc::new((0..50).map(|i| format!("g{i:02}")).collect());
    Table::new(vec![
        (
            "id",
            Column::Int((0..n as i64).collect(), Bitmap::new_valid(n)),
        ),
        (
            "k",
            Column::Dict(
                (0..n).map(|i| (i % 50) as u32).collect(),
                dict,
                Bitmap::new_valid(n),
            ),
        ),
        (
            "v",
            Column::Float(
                (0..n).map(|i| ((i * 7919) % 100_000) as f64).collect(),
                Bitmap::new_valid(n),
            ),
        ),
    ])
    .expect("sweep table builds")
}

/// Join probe side: every id matches, one-tenth the fact rows, so the
/// fact table is the build side the governor has to page out.
fn probe_table(n: usize) -> Table {
    Table::new(vec![(
        "pid",
        Column::Int((0..n as i64).collect(), Bitmap::new_valid(n)),
    )])
    .expect("probe table builds")
}

/// One scale-sweep tier: join, group-by, and sort at `n` rows through
/// the memory-governed entry points. `budget == 0` runs unlimited (the
/// in-memory reference); otherwise the ops run under a fresh
/// [`MemContext`] and, when `verify` is set, every constrained output is
/// compared with the in-memory kernel's. Returns human-readable
/// violations (empty = the tier is clean).
fn sweep_tier(n: usize, budget: u64, verify: bool, records: &mut Vec<Record>) -> Vec<String> {
    let mut bad = Vec::new();
    let t = sweep_table(n);
    let probe = probe_table(n / 10 + 1);
    let ctx = (budget > 0).then(|| MemContext::with_budget(budget).expect("spill context builds"));
    let mem = ctx.as_ref();
    // What each op books is its own state, not its input: the join's index
    // and the sort's records grow with the rows — at these tiers, past any
    // budget the input alone exceeds, so they must reach disk — while the
    // 50-group aggregate's state never does, so it must not.
    let input_over_budget = budget > 0 && t.byte_size() as u64 > budget;
    let aggs = [
        AggSpec::new(AggFunc::Sum, "v", "s"),
        AggSpec::count_records("n"),
    ];
    let skeys = [SortKey::desc("v"), SortKey::asc("id")];
    type OpFn<'a> = Box<dyn Fn(Option<&MemContext>) -> Table + 'a>;
    // Op, whether it must spill (`false`: must not), and the op itself.
    let ops: Vec<(&'static str, bool, OpFn)> = vec![
        (
            "sweep_hash_join",
            input_over_budget,
            Box::new(|m: Option<&MemContext>| {
                join_with_mem(&probe, &t, &["pid"], &["id"], JoinType::Inner, m)
                    .expect("sweep join")
            }),
        ),
        (
            "sweep_group_by",
            false,
            Box::new(|m: Option<&MemContext>| {
                group_by_with_mem(&t, &["k"], &aggs, m).expect("sweep group-by")
            }),
        ),
        (
            "sweep_sort",
            input_over_budget,
            Box::new(|m: Option<&MemContext>| sort_by_with_mem(&t, &skeys, m).expect("sweep sort")),
        ),
    ];
    let mode = if budget > 0 { "budget" } else { "unbounded" };
    for (op, must_spill, f) in &ops {
        let before = mem
            .map(|c| c.metrics.snapshot())
            .unwrap_or(SpillSnapshot::default());
        let start = Instant::now();
        let out = f(mem);
        let ns = start.elapsed().as_nanos();
        let spilled = mem
            .map(|c| c.metrics.snapshot().delta_since(before))
            .unwrap_or(SpillSnapshot::default());
        println!(
            "{op:<28} {mode:<8} {:>10.2} ms  ({n} rows in, {} out, {} bytes spilled / {} partitions)",
            ns as f64 / 1e6,
            out.num_rows(),
            spilled.bytes_spilled,
            spilled.spill_partitions
        );
        if *must_spill && spilled.bytes_spilled == 0 {
            bad.push(format!(
                "{op}@{n}: its state exceeds the budget but nothing spilled"
            ));
        }
        if *op == "sweep_group_by" && spilled.bytes_spilled > 0 {
            bad.push(format!(
                "{op}@{n}: {} bytes spilled for 50 groups",
                spilled.bytes_spilled
            ));
        }
        if verify && budget > 0 && out != f(None) {
            bad.push(format!(
                "{op}@{n}: constrained output diverges from in-memory"
            ));
        }
        records.push(Record {
            op,
            rows: n,
            mode,
            ns_per_op: ns,
            out_rows: out.num_rows(),
            bytes_scanned: 0,
            bytes_read: 0,
            bytes_pruned: 0,
            cache_hits: 0,
            bytes_saved: 0,
            bytes_spilled: spilled.bytes_spilled,
            spill_partitions: spilled.spill_partitions,
            mem_budget: budget,
        });
    }
    if let Some(c) = &ctx {
        let leaked = std::fs::read_dir(&c.spill_root)
            .map(|rd| rd.count())
            .unwrap_or(0);
        if leaked > 0 {
            bad.push(format!("{n}-row tier leaked {leaked} spill dirs"));
        }
    }
    bad
}

/// Minimum wall-clock nanoseconds per run over [`REPEATS`] runs.
fn min_ns(mut f: impl FnMut() -> Table) -> (u128, usize) {
    let mut best = u128::MAX;
    let mut out_rows = 0;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let t = f();
        best = best.min(start.elapsed().as_nanos());
        out_rows = t.num_rows();
    }
    (best, out_rows)
}

struct Record {
    op: &'static str,
    rows: usize,
    mode: &'static str,
    ns_per_op: u128,
    out_rows: usize,
    /// Bytes the storage scan of the op's input charged.
    bytes_scanned: u64,
    /// Bytes actually faulted in from disk (`<= bytes_scanned` always).
    bytes_read: u64,
    /// Bytes the zone maps skipped (0 when no predicate was pushed).
    bytes_pruned: u64,
    /// Sub-DAG cache hits the run was served from (executor records).
    cache_hits: u64,
    /// Scan bytes those hits avoided re-charging (executor records).
    bytes_saved: u64,
    /// Bytes written to spill files while the op ran out of core.
    bytes_spilled: u64,
    /// Spill partitions (or sort runs) the op wrote.
    spill_partitions: u64,
    /// Operator-memory budget the op ran under (0 = unlimited).
    mem_budget: u64,
}

/// 1M rows clustered on both keys: `id` ascending and `key` changing
/// every 1 000 rows, so zone maps get tight per-block ranges. This is
/// the layout warehouse tables converge to after any sort or ingest by
/// time — selective predicates touch a handful of blocks.
fn clustered(n: usize) -> Table {
    Table::new(vec![
        ("id", Column::from_ints((0..n as i64).collect())),
        (
            "key",
            Column::from_strs(
                (0..n)
                    .map(|i| format!("key_{:06}", i / 1000))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "v",
            Column::from_floats((0..n).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("table builds")
}

fn str_lit(s: String) -> Expr {
    Expr::lit(Value::Str(s))
}

/// The three selectivity tiers per key type: (suffix, int predicate,
/// dict-string predicate), each matching the same row count.
fn pruning_cases(n: usize) -> Vec<(&'static str, Expr, Expr)> {
    let tier = |frac: usize| {
        let rows = n / frac;
        let keys = rows / 1000;
        (
            Expr::col("id").lt(Expr::lit(rows as i64)),
            Expr::col("key").between(
                str_lit("key_000000".to_string()),
                str_lit(format!("key_{:06}", keys.saturating_sub(1))),
            ),
        )
    };
    let (i1, s1) = tier(1000);
    let (i2, s2) = tier(100);
    let (i3, s3) = tier(10);
    vec![("0.1pct", i1, s1), ("1pct", i2, s2), ("10pct", i3, s3)]
}

/// `--smoke` half 2: a selective pushed predicate must scan strictly
/// fewer bytes than the full scan while returning identical rows.
fn pruning_divergences() -> Vec<String> {
    let t = clustered(20_000);
    let bt = BlockTable::new(&t, 1024).expect("block table");
    let (full, full_receipt) = bt.scan(&ScanOptions::full()).expect("full scan");
    let mut bad = Vec::new();
    for (name, int_pred, str_pred) in pruning_cases(20_000) {
        for (key, pred) in [("int", int_pred), ("dict", str_pred)] {
            let expected = filter(&full, &pred).expect("filters");
            let mut opts = ScanOptions::full();
            opts.predicate = Some(pred);
            let (out, receipt) = bt.scan(&opts).expect("pruned scan");
            if out != expected {
                bad.push(format!("{key}_{name}: pruned rows diverge"));
            }
            if receipt.bytes_scanned >= full_receipt.bytes_scanned {
                bad.push(format!(
                    "{key}_{name}: pruned scan charged {} bytes, full scan {}",
                    receipt.bytes_scanned, full_receipt.bytes_scanned
                ));
            }
            if receipt.bytes_scanned + receipt.bytes_pruned != full_receipt.bytes_scanned {
                bad.push(format!("{key}_{name}: scanned + pruned != full footprint"));
            }
        }
    }
    bad
}

/// Run every string-keyed op on `plain` and on its dict-encoded twin
/// and compare results. Returns the names of diverging ops.
fn dict_divergences(plain: &Table, dim: &Table) -> Vec<&'static str> {
    let enc = plain.encode_strings();
    let enc_dim = dim.encode_strings();
    let mut bad = Vec::new();
    let pred = Expr::col("s").eq(Expr::lit("city_0042"));
    if filter(&enc, &pred).expect("filters") != filter(plain, &pred).expect("filters") {
        bad.push("filter_str_eq");
    }
    let aggs = [
        AggSpec::new(AggFunc::Sum, "v", "sum"),
        AggSpec::count_records("n"),
    ];
    if group_by(&enc, &["s"], &aggs).expect("groups")
        != group_by(plain, &["s"], &aggs).expect("groups")
    {
        bad.push("group_by_str_keys");
    }
    if join(&enc, &enc_dim, &["s"], &["s"], JoinType::Inner).expect("joins")
        != join(plain, dim, &["s"], &["s"], JoinType::Inner).expect("joins")
    {
        bad.push("hash_join_str");
    }
    let keys = [SortKey::asc("s"), SortKey::asc("id")];
    if sort_by(&enc, &keys).expect("sorts") != sort_by(plain, &keys).expect("sorts") {
        bad.push("sort_str");
    }
    bad
}

/// Satellite guard: gathering 1M strings through `Column::take` must not
/// regress to per-row `get`/`push_value` costs, and the dict gather
/// (code copy + `Arc` bump) must beat the plain string gather soundly.
fn assert_gather_fast(t: &Table) {
    let plain_col = t.column("s").expect("s").materialize();
    let dict_col = plain_col.dict_encode();
    let n = plain_col.len();
    let indices: Vec<usize> = (0..n).map(|i| (i * 7919) % n).collect();

    let time = |f: &dyn Fn() -> Column| {
        let mut best = u128::MAX;
        for _ in 0..REPEATS {
            let start = Instant::now();
            std::hint::black_box(f());
            best = best.min(start.elapsed().as_nanos());
        }
        best
    };
    let naive_ns = time(&|| {
        let mut out = Column::empty(plain_col.dtype());
        for &i in &indices {
            out.push_value(&plain_col.get(i)).expect("pushes");
        }
        out
    });
    let take_ns = time(&|| plain_col.take(&indices));
    let dict_ns = time(&|| dict_col.take(&indices));
    println!(
        "gather_1m_str                naive {:>8.2} ms  take {:>8.2} ms  dict {:>8.2} ms",
        naive_ns as f64 / 1e6,
        take_ns as f64 / 1e6,
        dict_ns as f64 / 1e6
    );
    assert!(
        take_ns <= naive_ns,
        "string gather regressed: take {take_ns}ns vs naive loop {naive_ns}ns"
    );
    assert!(
        dict_ns * 2 <= take_ns,
        "dict gather should be >=2x plain: dict {dict_ns}ns vs take {take_ns}ns"
    );
}

/// The optimizer phase's 3-join star world: `fact` rows carry a fan-out
/// key (`fan_keys` values, `per_key` dimension rows each) and a sparse
/// key of which the unique-key dimension covers only `sel_keys` of
/// `key_space` values. The written plan joins the fan-out dimension
/// first — the worst order — and the optimizer provably flips it.
fn star_env(
    fact_rows: usize,
    fan_keys: usize,
    per_key: usize,
    key_space: usize,
    sel_keys: usize,
) -> dc_skills::Env {
    use dc_storage::{CloudDatabase, Pricing};
    let fact = Table::new(vec![
        (
            "fk",
            Column::from_ints((0..fact_rows as i64).map(|i| i % fan_keys as i64).collect()),
        ),
        (
            "uk",
            Column::from_ints(
                (0..fact_rows as i64)
                    .map(|i| (i * 7919) % key_space as i64)
                    .collect(),
            ),
        ),
        (
            "v",
            Column::from_floats((0..fact_rows).map(|i| (i % 997) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("fact builds");
    let fan_rows = fan_keys * per_key;
    let fan = Table::new(vec![
        (
            "k",
            Column::from_ints((0..fan_rows as i64).map(|i| i % fan_keys as i64).collect()),
        ),
        (
            "fw",
            Column::from_floats((0..fan_rows).map(|i| i as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("fan builds");
    let sel = Table::new(vec![
        ("k", Column::from_ints((0..sel_keys as i64).collect())),
        (
            "sw",
            Column::from_floats((0..sel_keys).map(|i| (i * 2) as f64).collect::<Vec<_>>()),
        ),
    ])
    .expect("sel builds");
    let mut env = dc_skills::Env::new();
    let mut db = CloudDatabase::new("bench", Pricing::default_cloud());
    db.create_table_with_blocks("fact", &fact, 8192)
        .expect("fact");
    db.create_table_with_blocks("fan", &fan, 4096).expect("fan");
    db.create_table_with_blocks("sel", &sel, 512).expect("sel");
    env.catalog.add_database(db).expect("db");
    env
}

/// fact ⋈ fan ⋈ sel → sum(v) by fk, joins written fan-first.
fn star_dag() -> (dc_skills::SkillDag, dc_skills::NodeId) {
    use dc_skills::{SkillCall, SkillDag};
    let mut dag = SkillDag::new();
    let load = |dag: &mut SkillDag, table: &str| {
        dag.add(SkillCall::load_table("bench", table), vec![])
            .expect("load node")
    };
    let fact = load(&mut dag, "fact");
    let fan = load(&mut dag, "fan");
    let sel = load(&mut dag, "sel");
    let j1 = dag
        .add(
            SkillCall::Join {
                other: "fan".into(),
                left_on: vec!["fk".into()],
                right_on: vec!["k".into()],
                how: JoinType::Inner,
            },
            vec![fact, fan],
        )
        .expect("join fan");
    let j2 = dag
        .add(
            SkillCall::Join {
                other: "sel".into(),
                left_on: vec!["uk".into()],
                right_on: vec!["k".into()],
                how: JoinType::Inner,
            },
            vec![j1, sel],
        )
        .expect("join sel");
    let g = dag
        .add(
            SkillCall::Compute {
                aggs: vec![AggSpec::new(AggFunc::Sum, "v", "total")],
                for_each: vec!["fk".into()],
            },
            vec![j2],
        )
        .expect("compute node");
    (dag, g)
}

/// A 24-column table of which the wide-projection recipe reads two.
fn wide_env(rows: usize) -> dc_skills::Env {
    use dc_storage::{CloudDatabase, Pricing};
    let mut t = Table::new(vec![(
        "day",
        Column::from_ints((0..rows as i64).map(|i| i / 1000).collect()),
    )])
    .expect("wide builds");
    for c in 1..24i64 {
        t.add_column(
            &format!("m{c}"),
            Column::from_ints((0..rows as i64).map(|i| (i * c) % 1009).collect()),
        )
        .expect("metric column");
    }
    let mut env = dc_skills::Env::new();
    let mut db = CloudDatabase::new("bench", Pricing::default_cloud());
    db.create_table_with_blocks("wide", &t, 8192).expect("wide");
    env.catalog.add_database(db).expect("db");
    env
}

/// load wide → filter on day → sum(m1) by day. Only 2 of 24 columns are
/// live, so projection pushdown should drop ~11/12 of the scan bytes.
fn wide_dag() -> (dc_skills::SkillDag, dc_skills::NodeId) {
    use dc_skills::{SkillCall, SkillDag};
    let mut dag = SkillDag::new();
    let l = dag
        .add(SkillCall::load_table("bench", "wide"), vec![])
        .expect("load node");
    let f = dag
        .add(
            SkillCall::KeepRows {
                predicate: Expr::col("day").gt(Expr::lit(0i64)),
            },
            vec![l],
        )
        .expect("filter node");
    let g = dag
        .add(
            SkillCall::Compute {
                aggs: vec![AggSpec::new(AggFunc::Sum, "m1", "total")],
                for_each: vec!["day".into()],
            },
            vec![f],
        )
        .expect("compute node");
    (dag, g)
}

/// Run one optimizer-phase pipeline to completion under the default
/// (retrying) policy with the optimizer on or off; returns (ns, bytes_scanned,
/// output). A fresh executor per run keeps the sub-DAG cache cold.
fn run_plan(
    env_of: &dyn Fn() -> dc_skills::Env,
    dag: &dc_skills::SkillDag,
    target: dc_skills::NodeId,
    optimize: bool,
) -> (u128, u64, dc_skills::SkillOutput) {
    use dc_skills::resilient::ExecPolicy;
    use dc_skills::Executor;
    let policy = ExecPolicy::default();
    let mut best_ns = u128::MAX;
    let mut bytes = 0;
    let mut output = None;
    for _ in 0..REPEATS {
        let mut env = env_of();
        let mut ex = Executor::new();
        ex.optimize = optimize;
        let start = Instant::now();
        let report = ex
            .run_resilient(dag, target, &mut env, &policy)
            .expect("pipeline runs");
        best_ns = best_ns.min(start.elapsed().as_nanos());
        assert!(report.succeeded(), "optimizer-phase pipeline failed");
        bytes = report.nodes.iter().map(|n| n.bytes_scanned).sum();
        output = report.output;
    }
    (best_ns, bytes, output.expect("pipeline output"))
}

/// `--smoke` half 3: the optimizer must leave results untouched while
/// never charging more scan bytes than the plan as written.
/// `(name, env builder, dag, target)` of one optimizer smoke case.
type OptCase = (
    &'static str,
    Box<dyn Fn() -> dc_skills::Env>,
    dc_skills::SkillDag,
    dc_skills::NodeId,
);

fn optimizer_divergences() -> Vec<String> {
    let mut bad = Vec::new();
    let cases: Vec<OptCase> = {
        let (star, star_t) = star_dag();
        let (wide, wide_t) = wide_dag();
        vec![
            (
                "star_3join",
                Box::new(|| star_env(20_000, 500, 10, 10_000, 200)),
                star,
                star_t,
            ),
            (
                "wide_projection",
                Box::new(|| wide_env(4_000)),
                wide,
                wide_t,
            ),
        ]
    };
    for (name, env_of, dag, target) in &cases {
        let (_, opt_bytes, opt_out) = run_plan(env_of, dag, *target, true);
        let (_, raw_bytes, raw_out) = run_plan(env_of, dag, *target, false);
        if opt_out != raw_out {
            bad.push(format!("{name}: optimized output diverges from as-written"));
        }
        if opt_bytes > raw_bytes {
            bad.push(format!(
                "{name}: optimized plan charged {opt_bytes} bytes, as-written {raw_bytes}"
            ));
        }
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mem_budget = args
        .iter()
        .position(|a| a == "--mem-budget")
        .map(|i| parse_size(args.get(i + 1).expect("--mem-budget needs a size")));
    if args.iter().any(|a| a == "--smoke") {
        // CI gate: small input, no timing, no JSON — just dict/plain
        // agreement across every string-keyed kernel.
        let plain = str_events(20_000);
        let bad = dict_divergences(&plain, &str_dim());
        if !bad.is_empty() {
            eprintln!("smoke FAILED: dict/plain divergence in {bad:?}");
            std::process::exit(1);
        }
        let bad = pruning_divergences();
        if !bad.is_empty() {
            eprintln!("smoke FAILED: zone-map pruning violations: {bad:?}");
            std::process::exit(1);
        }
        let bad = optimizer_divergences();
        if !bad.is_empty() {
            eprintln!("smoke FAILED: optimizer violations: {bad:?}");
            std::process::exit(1);
        }
        // Low-memory gate: the 10M-row sweep must complete out of core
        // with identical results and no leaked spill files.
        if let Some(budget) = mem_budget {
            let bad = sweep_tier(10_000_000, budget, true, &mut Vec::new());
            if !bad.is_empty() {
                eprintln!("smoke FAILED: out-of-core violations: {bad:?}");
                std::process::exit(1);
            }
            println!(
                "smoke ok: under a {budget}-byte budget the 10M-row join and sort spilled, \
                 the 50-group aggregate did not, results identical"
            );
        }
        println!(
            "smoke ok: dict kernels agree, pruned scans are cheaper + identical, \
             optimized plans are byte-cheaper + identical"
        );
        return;
    }

    let (t, t_receipt) = disk_backed("events.dcb", &events(ROWS));
    let threads = parallel::num_threads();
    let mut records: Vec<Record> = Vec::new();
    let mut push = |op: &'static str,
                    mode: &'static str,
                    (ns, out_rows): (u128, usize),
                    fixture: &ScanReceipt| {
        let pretty_ms = ns as f64 / 1e6;
        println!("{op:<28} {mode:<8} {pretty_ms:>10.2} ms  ({out_rows} rows out)");
        records.push(Record {
            op,
            rows: ROWS,
            mode,
            ns_per_op: ns,
            out_rows,
            bytes_scanned: fixture.bytes_scanned,
            bytes_read: fixture.bytes_read,
            bytes_pruned: 0,
            cache_hits: 0,
            bytes_saved: 0,
            bytes_spilled: 0,
            spill_partitions: 0,
            mem_budget: 0,
        });
    };

    let pred = Expr::col("v").gt(Expr::lit(500.0));
    push(
        "filter_1m",
        "parallel",
        min_ns(|| filter(&t, &pred).expect("filters")),
        &t_receipt,
    );

    let aggs = [
        AggSpec::new(AggFunc::Sum, "v", "s"),
        AggSpec::new(AggFunc::Avg, "v", "a"),
        AggSpec::count_records("n"),
    ];
    push(
        "group_by_1m_50groups",
        "parallel",
        min_ns(|| group_by(&t, &["k"], &aggs).expect("groups")),
        &t_receipt,
    );

    push(
        "hash_join_1m_x_1m",
        "parallel",
        min_ns(|| join(&t, &t, &["id"], &["id"], JoinType::Inner).expect("joins")),
        &t_receipt,
    );

    let keys = [SortKey::desc("v"), SortKey::asc("id")];
    push(
        "sort_1m",
        "parallel",
        min_ns(|| sort_by(&t, &keys).expect("sorts")),
        &t_receipt,
    );

    // String-keyed kernels, plain `Str` vs dictionary-encoded. Both
    // variants come off disk so their records carry the footprint each
    // encoding actually pays for.
    let (plain, plain_receipt) = disk_backed("str_events.dcb", &str_events(ROWS));
    let plain = plain.materialize_strings();
    let (enc, enc_receipt) = disk_backed("str_events_enc.dcb", &plain.encode_strings());
    let dim = str_dim();
    let enc_dim = dim.encode_strings();

    let spred = Expr::col("s").eq(Expr::lit("city_0042"));
    push(
        "filter_1m_str_eq",
        "dict",
        min_ns(|| filter(&enc, &spred).expect("filters")),
        &enc_receipt,
    );
    push(
        "filter_1m_str_eq",
        "plain",
        min_ns(|| filter(&plain, &spred).expect("filters")),
        &plain_receipt,
    );

    let saggs = [
        AggSpec::new(AggFunc::Sum, "v", "sum"),
        AggSpec::count_records("n"),
    ];
    push(
        "group_by_1m_str_keys",
        "dict",
        min_ns(|| group_by(&enc, &["s"], &saggs).expect("groups")),
        &enc_receipt,
    );
    push(
        "group_by_1m_str_keys",
        "plain",
        min_ns(|| group_by(&plain, &["s"], &saggs).expect("groups")),
        &plain_receipt,
    );

    push(
        "hash_join_1m_str",
        "dict",
        min_ns(|| join(&enc, &enc_dim, &["s"], &["s"], JoinType::Inner).expect("joins")),
        &enc_receipt,
    );
    push(
        "hash_join_1m_str",
        "plain",
        min_ns(|| join(&plain, &dim, &["s"], &["s"], JoinType::Inner).expect("joins")),
        &plain_receipt,
    );

    let skeys = [SortKey::asc("s"), SortKey::asc("id")];
    push(
        "sort_1m_str",
        "dict",
        min_ns(|| sort_by(&enc, &skeys).expect("sorts")),
        &enc_receipt,
    );
    push(
        "sort_1m_str",
        "plain",
        min_ns(|| sort_by(&plain, &skeys).expect("sorts")),
        &plain_receipt,
    );

    assert_gather_fast(&plain);

    // Zone-map pruning: pushed selective predicates vs full-scan-then-
    // filter over the same BlockTable, at three selectivities per key.
    let ct = clustered(ROWS);
    let bt = BlockTable::new(&ct, 8192).expect("block table");
    let (full, full_receipt) = bt.scan(&ScanOptions::full()).expect("full scan");
    let pruning_ops: Vec<(String, Expr)> = pruning_cases(ROWS)
        .into_iter()
        .flat_map(|(name, int_pred, str_pred)| {
            [
                (format!("scan_filter_1m_int_{name}"), int_pred),
                (format!("scan_filter_1m_dict_{name}"), str_pred),
            ]
        })
        .collect();
    for (op, pred) in &pruning_ops {
        let mut opts = ScanOptions::full();
        opts.predicate = Some(pred.clone());
        let (check, receipt) = bt.scan(&opts).expect("pruned scan");
        assert_eq!(
            check,
            filter(&full, pred).expect("filters"),
            "pruned scan must match full-scan-then-filter for {op}"
        );
        assert!(
            receipt.bytes_read <= receipt.bytes_scanned,
            "{op}: faulted more bytes than charged"
        );
        let op: &'static str = Box::leak(op.clone().into_boxed_str());
        let (ns, out_rows) = min_ns(|| bt.scan(&opts).expect("pruned scan").0);
        println!(
            "{op:<28} pruned   {:>10.2} ms  ({out_rows} rows out)",
            ns as f64 / 1e6
        );
        records.push(Record {
            op,
            rows: ROWS,
            mode: "pruned",
            ns_per_op: ns,
            out_rows,
            bytes_scanned: receipt.bytes_scanned,
            bytes_read: receipt.bytes_read,
            bytes_pruned: receipt.bytes_pruned,
            cache_hits: 0,
            bytes_saved: 0,
            bytes_spilled: 0,
            spill_partitions: 0,
            mem_budget: 0,
        });
        let (ns, out_rows) = min_ns(|| {
            let (t, _) = bt.scan(&ScanOptions::full()).expect("full scan");
            filter(&t, pred).expect("filters")
        });
        println!(
            "{op:<28} unpruned {:>10.2} ms  ({out_rows} rows out)",
            ns as f64 / 1e6
        );
        records.push(Record {
            op,
            rows: ROWS,
            mode: "unpruned",
            ns_per_op: ns,
            out_rows,
            bytes_scanned: full_receipt.bytes_scanned,
            bytes_read: full_receipt.bytes_read,
            bytes_pruned: 0,
            cache_hits: 0,
            bytes_saved: 0,
            bytes_spilled: 0,
            spill_partitions: 0,
            mem_budget: 0,
        });
    }

    // Executor sub-DAG caching: the same load→filter→aggregate pipeline
    // through one executor, cold then cached. The cached run reports how
    // many nodes were served from cache and the scan bytes that saved.
    {
        use dc_skills::resilient::ExecPolicy;
        use dc_skills::{Env, Executor, SkillCall, SkillDag};
        use dc_storage::{CloudDatabase, Pricing};

        let mut env = Env::new();
        let mut db = CloudDatabase::new("bench", Pricing::default_cloud());
        db.create_table_with_blocks("events", &ct, 8192)
            .expect("create events");
        env.catalog.add_database(db).expect("add db");
        let mut dag = SkillDag::new();
        let l = dag
            .add(SkillCall::load_table("bench", "events"), vec![])
            .expect("load node");
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("v").gt(Expr::lit(500.0)),
                },
                vec![l],
            )
            .expect("filter node");
        let g = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec::new(AggFunc::Sum, "v", "total")],
                    for_each: vec!["key".into()],
                },
                vec![f],
            )
            .expect("compute node");
        let mut ex = Executor::new();
        let policy = ExecPolicy::default();
        for mode in ["cold", "cached"] {
            let start = Instant::now();
            let report = ex
                .run_resilient(&dag, g, &mut env, &policy)
                .expect("pipeline runs");
            let ns = start.elapsed().as_nanos();
            assert!(report.succeeded());
            println!(
                "exec_pipeline_1m             {mode:<8} {:>10.2} ms  ({} cache hits, {} bytes saved)",
                ns as f64 / 1e6,
                report.cache_hits,
                report.bytes_saved
            );
            records.push(Record {
                op: "exec_pipeline_1m",
                rows: ROWS,
                mode,
                ns_per_op: ns,
                out_rows: 0,
                bytes_scanned: 0,
                bytes_read: 0,
                bytes_pruned: 0,
                cache_hits: report.cache_hits,
                bytes_saved: report.bytes_saved,
                bytes_spilled: report.bytes_spilled,
                spill_partitions: report.spill_partitions,
                mem_budget: 0,
            });
        }
    }

    // Cost-based optimizer phase: the same written DAG through the
    // executor with the optimizer on and off. The star prices join
    // reordering (fan-out dimension written first); the wide scan prices
    // projection pushdown (2 of 24 columns live).
    {
        let (star, star_t) = star_dag();
        let star_world: Box<dyn Fn() -> dc_skills::Env> =
            Box::new(|| star_env(300_000, 5_000, 10, 100_000, 1_000));
        let (wide, wide_t) = wide_dag();
        let wide_world: Box<dyn Fn() -> dc_skills::Env> = Box::new(|| wide_env(200_000));
        for (op, rows, env_of, dag, target) in [
            ("exec_star_3join", 300_000, &star_world, &star, star_t),
            ("exec_wide_projection", 200_000, &wide_world, &wide, wide_t),
        ] {
            let (opt_ns, opt_bytes, opt_out) = run_plan(env_of, dag, target, true);
            let (raw_ns, raw_bytes, raw_out) = run_plan(env_of, dag, target, false);
            assert_eq!(opt_out, raw_out, "{op}: optimized output diverged");
            assert!(
                opt_bytes <= raw_bytes,
                "{op}: optimized plan charged more bytes ({opt_bytes} > {raw_bytes})"
            );
            for (mode, ns, bytes) in [
                ("optimized", opt_ns, opt_bytes),
                ("as_written", raw_ns, raw_bytes),
            ] {
                println!(
                    "{op:<28} {mode:<10} {:>10.2} ms  ({bytes} bytes scanned)",
                    ns as f64 / 1e6
                );
                records.push(Record {
                    op,
                    rows,
                    mode,
                    ns_per_op: ns,
                    out_rows: 0,
                    bytes_scanned: bytes,
                    bytes_read: 0,
                    bytes_pruned: 0,
                    cache_hits: 0,
                    bytes_saved: 0,
                    bytes_spilled: 0,
                    spill_partitions: 0,
                    mem_budget: 0,
                });
            }
        }
    }

    // Out-of-core scale sweep: join/group-by/sort at rising row counts
    // under an operator-memory budget. The 1M and 10M tiers also run
    // unlimited (the in-memory reference the budget run must match); the
    // 100M tier exceeds the default 1 GiB budget several times over, so
    // completing it at all proves the spill paths carry the load.
    let budget = mem_budget.unwrap_or(1 << 30);
    for &(n, verify) in &[
        (1_000_000usize, true),
        (10_000_000, true),
        (100_000_000, false),
    ] {
        if verify {
            let bad = sweep_tier(n, 0, false, &mut records);
            assert!(bad.is_empty(), "unbounded sweep violations: {bad:?}");
        }
        let bad = sweep_tier(n, budget, verify, &mut records);
        assert!(bad.is_empty(), "scale sweep violations: {bad:?}");
    }

    // Hand-rolled JSON: the workspace deliberately carries no serde.
    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"op\": \"{}\", \"rows\": {}, \"mode\": \"{}\", \"threads\": {}, \"ns_per_op\": {}, \"out_rows\": {}, \"bytes_scanned\": {}, \"bytes_read\": {}, \"bytes_pruned\": {}, \"cache_hits\": {}, \"bytes_saved\": {}, \"bytes_spilled\": {}, \"spill_partitions\": {}, \"mem_budget\": {}}}{}\n",
            r.op, r.rows, r.mode, threads, r.ns_per_op, r.out_rows, r.bytes_scanned, r.bytes_read, r.bytes_pruned, r.cache_hits, r.bytes_saved, r.bytes_spilled, r.spill_partitions, r.mem_budget, sep
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");

    println!("\nthreads: {threads}");
    let ratio = |op: &str, fast: &str, slow: &str| -> f64 {
        let f = records
            .iter()
            .find(|r| r.op == op && r.mode == fast)
            .expect("fast record");
        let s = records
            .iter()
            .find(|r| r.op == op && r.mode == slow)
            .expect("slow record");
        s.ns_per_op as f64 / f.ns_per_op as f64
    };
    for op in [
        "filter_1m_str_eq",
        "group_by_1m_str_keys",
        "hash_join_1m_str",
        "sort_1m_str",
    ] {
        println!(
            "{op:<28} dict vs plain {:>5.2}x",
            ratio(op, "dict", "plain")
        );
    }
    for (op, _) in &pruning_ops {
        let r = records
            .iter()
            .find(|r| r.op == op.as_str() && r.mode == "pruned")
            .expect("pruned record");
        println!(
            "{op:<28} pruning speedup {:>5.2}x  ({} of {} bytes pruned)",
            ratio(op, "pruned", "unpruned"),
            r.bytes_pruned,
            r.bytes_pruned + r.bytes_scanned,
        );
    }
    for op in ["exec_star_3join", "exec_wide_projection"] {
        let bytes = |mode: &str| {
            records
                .iter()
                .find(|r| r.op == op && r.mode == mode)
                .expect("optimizer record")
                .bytes_scanned
        };
        println!(
            "{op:<28} optimizer speedup {:>5.2}x wall, {:.2}x bytes",
            ratio(op, "optimized", "as_written"),
            bytes("as_written") as f64 / (bytes("optimized").max(1)) as f64,
        );
    }
    for r in records.iter().filter(|r| r.mode == "budget") {
        match records
            .iter()
            .find(|u| u.op == r.op && u.rows == r.rows && u.mode == "unbounded")
        {
            Some(u) => println!(
                "{:<28} {:>4}M rows: spill overhead {:>5.2}x  ({} bytes spilled / {} partitions)",
                r.op,
                r.rows / 1_000_000,
                r.ns_per_op as f64 / u.ns_per_op.max(1) as f64,
                r.bytes_spilled,
                r.spill_partitions
            ),
            None => println!(
                "{:<28} {:>4}M rows: completed under {}-byte budget  ({} bytes spilled / {} partitions)",
                r.op,
                r.rows / 1_000_000,
                r.mem_budget,
                r.bytes_spilled,
                r.spill_partitions
            ),
        }
    }
    println!("wrote BENCH_engine.json");
}
