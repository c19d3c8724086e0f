//! The three board-refresh workloads: an op refreshes four saved artifacts
//! through `Platform::refresh_artifact` with the shared cache off, so every
//! refresh recomputes its recipe.
//!
//! * `scan_agg_disk` — on-disk facts; optimizer, pushdown, block prune /
//!   read / decode, filter, project and group-by do the work.
//! * `join_sort_mem` — in-memory facts; join, high-cardinality group-by and
//!   sort kernels do the work, storage almost none.
//! * `join_sort_spill` — the same artifacts and tables under a small memory
//!   budget, so the Grace join, partitioned group-by and external sort run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datachat_core::{ChatPath, Platform};
use dc_engine::{MemContext, Table};
use dc_skills::Executor;
use dc_storage::{CloudDatabase, CostMeter, Pricing};

use crate::fixtures::{Facts, Stores};
use crate::harness::{closed_loop, overhead_ratio, Config, Samples, World, REFERENCE_SHARE};
use crate::machine::Machine;
use crate::metrics::{ratio, Values};
use crate::oracle::{self, check, Expected};
use crate::replay::{replay_recipe, ReplayCounts};
use crate::trace::Tracer;

pub const DATABASE: &str = "bench";

/// In-memory tables are one block: their scan is a cheap hand-off.
const MEM_BLOCK_ROWS: usize = 65_536;

const LOAD_FACTS: &str = "Load the table facts from the database bench";

/// Sizes at full scale. Rows were chosen on a 2-core box so that a run of
/// `run_seconds` holds well over 100 ops of every workload.
struct Spec {
    rows: usize,
    /// `Some(block_rows)`: facts live in a DCB1 block file.
    disk_block_rows: Option<usize>,
    mem_budget: Option<u64>,
    warmup_ops: usize,
    kernels: bool,
}

fn spec_of(workload: &str) -> Spec {
    match workload {
        "scan_agg_disk" => Spec {
            rows: 200_000,
            disk_block_rows: Some(16_384),
            mem_budget: None,
            warmup_ops: 3,
            kernels: false,
        },
        "join_sort_mem" => Spec {
            rows: 36_000,
            disk_block_rows: None,
            mem_budget: None,
            warmup_ops: 5,
            kernels: true,
        },
        "join_sort_spill" => Spec {
            rows: 36_000,
            disk_block_rows: None,
            mem_budget: Some(1 << 20),
            warmup_ops: 3,
            kernels: true,
        },
        other => panic!("not a board workload: {other}"),
    }
}

struct ArtifactSpec {
    name: &'static str,
    /// GEL, one sentence per line; `-- bind: x` names the step before it.
    gel: String,
    expected: Expected,
}

fn scan_artifacts(f: &Facts) -> Vec<ArtifactSpec> {
    let by_region = "Compute the sum of qty for each region\nSort by region";
    vec![
        ArtifactSpec {
            name: "pruned",
            gel: format!("{LOAD_FACTS}\nKeep the rows where day >= 330\n{by_region}"),
            expected: oracle::qty_by_region_where(f, |i| f.day[i] >= 330, true),
        },
        ArtifactSpec {
            name: "unpruned",
            gel: format!("{LOAD_FACTS}\nKeep the rows where qty >= 18\n{by_region}"),
            expected: oracle::qty_by_region_where(f, |i| f.qty[i] >= 18, true),
        },
        ArtifactSpec {
            name: "fullagg",
            gel: format!(
                "{LOAD_FACTS}\nCompute the sum of qty and the count of records for each store"
            ),
            expected: oracle::qty_by_store_where(f, |_| true, true, false),
        },
        ArtifactSpec {
            name: "derive",
            gel: format!(
                "{LOAD_FACTS}\nCreate a new column revenue as price * qty\n\
                 Keep the rows where revenue > 5000\n\
                 Compute the average of revenue for each region"
            ),
            expected: oracle::avg_revenue_by_region_above(f, 5000.0),
        },
    ]
}

fn kernel_artifacts(f: &Facts, s: &Stores) -> Vec<ArtifactSpec> {
    vec![
        ArtifactSpec {
            name: "dimjoin",
            gel: format!(
                "Load the table stores from the database bench\n-- bind: dim\n{LOAD_FACTS}\n\
                 Join with the dataset dim on store\n\
                 Compute the sum of qty for each tier\nSort by tier"
            ),
            expected: oracle::qty_by_tier(f, s),
        },
        ArtifactSpec {
            name: "selfjoin",
            gel: format!(
                "{LOAD_FACTS}\nKeep the columns cust, qty\n-- bind: pairs\n{LOAD_FACTS}\n\
                 Keep the rows where day < 90\nJoin with the dataset pairs on cust\n\
                 Compute the count of records for each region"
            ),
            expected: oracle::selfjoin_count_by_region(f, 90),
        },
        ArtifactSpec {
            name: "hicard",
            gel: format!(
                "{LOAD_FACTS}\nCompute the sum of qty and the count of records for each cust\n\
                 Sort by cust"
            ),
            expected: oracle::qty_and_count_by_cust(f),
        },
        ArtifactSpec {
            name: "sort",
            gel: format!("{LOAD_FACTS}\nSort by price"),
            expected: oracle::sorted_by_price(f),
        },
    ]
}

pub struct Board {
    platform: Platform,
    meter: Arc<CostMeter>,
    artifacts: Vec<ArtifactSpec>,
    /// Outputs of the same artifacts without a memory budget; governed
    /// refreshes must reproduce them exactly.
    unbounded: Option<Vec<Table>>,
    block_dir: Option<PathBuf>,
}

impl Board {
    /// Save `spec` as an artifact by typing its recipe into a session.
    fn save(platform: &mut Platform, spec: &ArtifactSpec) {
        let session = platform.open_session("board-owner");
        for line in spec.gel.lines() {
            if let Some(name) = line.strip_prefix("-- bind:") {
                session
                    .session
                    .name_current(name.trim())
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                continue;
            }
            let reply = platform
                .chat(&session, line)
                .unwrap_or_else(|e| panic!("{}: {line:?}: {e}", spec.name));
            assert_eq!(reply.path, ChatPath::Gel, "{line:?} must parse as GEL");
        }
        platform
            .save_artifact(&session, spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        session.session.clear_checkpoints();
    }

    fn output(&self, name: &str) -> Result<&Table, String> {
        self.platform
            .artifact(name)
            .and_then(|a| a.output.as_table())
            .ok_or_else(|| format!("{name}: no table output"))
    }

    fn verify(&self, index: usize, out: &Table) -> Result<(), String> {
        let spec = &self.artifacts[index];
        check(out, &spec.expected).map_err(|e| format!("{}: {e}", spec.name))?;
        if let Some(unbounded) = &self.unbounded {
            if &unbounded[index] != out {
                return Err(format!("{}: differs from the unbounded output", spec.name));
            }
        }
        Ok(())
    }

    /// One board refresh: every artifact, then every answer checked.
    fn refresh_all(&mut self) -> Result<Duration, String> {
        let mut spent = Duration::ZERO;
        for i in 0..self.artifacts.len() {
            let name = self.artifacts[i].name;
            let t = Instant::now();
            self.platform
                .refresh_artifact(name)
                .map_err(|e| format!("{name}: {e}"))?;
            spent += t.elapsed();
        }
        for i in 0..self.artifacts.len() {
            self.verify(i, self.output(self.artifacts[i].name)?)?;
        }
        Ok(spent)
    }
}

impl World for Board {
    fn setup(cfg: &Config) -> Board {
        let spec = spec_of(&cfg.workload);
        let facts = Facts::generate(cfg.scaled(spec.rows, 4_000), cfg.seed);
        let stores = Stores::generate(cfg.seed);
        let mut db = CloudDatabase::new(DATABASE, Pricing::default_cloud());
        let block_dir = spec.disk_block_rows.map(|block_rows| {
            let dir = cfg.tmp_dir.join(format!("blocks-{}", std::process::id()));
            db.create_table_on_disk(
                "facts",
                &facts.to_table(),
                cfg.scaled(block_rows, 1_024),
                &dir,
            )
            .expect("write facts block file");
            dir
        });
        if block_dir.is_none() {
            db.create_table_with_blocks("facts", &facts.to_table(), MEM_BLOCK_ROWS)
                .expect("create facts");
        }
        db.create_table_with_blocks("stores", &stores.to_table(), MEM_BLOCK_ROWS)
            .expect("create stores");
        let meter = db.meter();
        // Capacity 0: the shared cache admits nothing, so refreshes recompute.
        let mut platform = Platform::with_cache_capacity(0);
        platform.add_database(db).expect("attach database");

        let artifacts = if spec.kernels {
            kernel_artifacts(&facts, &stores)
        } else {
            scan_artifacts(&facts)
        };
        for a in &artifacts {
            Board::save(&mut platform, a);
        }
        let mut board = Board {
            platform,
            meter,
            artifacts,
            unbounded: None,
            block_dir,
        };
        if let Some(budget) = spec.mem_budget {
            board.refresh_all().expect("unbounded reference refresh");
            let reference = (0..board.artifacts.len())
                .map(|i| {
                    board
                        .output(board.artifacts[i].name)
                        .expect("reference")
                        .clone()
                })
                .collect();
            board.unbounded = Some(reference);
            // Smoke fixtures are 1/50 the rows, so the budget shrinks with them.
            let budget = cfg.scaled(budget as usize, 64 << 10) as u64;
            let mem = MemContext::with_budget(budget).expect("spill directory");
            board.platform.env(|env| env.memory = Some(Arc::new(mem)));
        }
        for _ in 0..cfg.scaled(spec.warmup_ops, 1) {
            board.refresh_all().expect("warm-up refresh");
        }
        board
    }

    fn measure(&mut self, budget: Duration) -> Samples {
        closed_loop(budget, || self.refresh_all())
    }

    fn bytes_charged(&self) -> u64 {
        self.meter.bytes()
    }

    fn trace(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        machine: &Machine,
    ) -> (Samples, Values) {
        let reference = self.measure(budget.mul_f64(REFERENCE_SHARE));
        let mut counts = ReplayCounts::default();
        let mut driver_ms = 0.0;
        let (mut local_hits, mut shared_hits, mut needed) = (0u64, 0u64, 0u64);
        let mut samples = Samples::default();
        let start = Instant::now();
        let replay_budget = budget.mul_f64(1.0 - REFERENCE_SHARE);
        while start.elapsed() < replay_budget || samples.attempted == 0 {
            let op = samples.attempted;
            let root = tracer.begin(op, None, "harness", "board_refresh");
            let mut outputs = Vec::with_capacity(self.artifacts.len());
            for a in &self.artifacts {
                let meter = &self.meter;
                let span = tracer.begin(op, Some(root), "harness", a.name);
                let out = self.platform.env(|env| {
                    replay_recipe(&a.gel, DATABASE, env, meter, tracer, op, span, &mut counts)
                });
                tracer.end(span);
                outputs.push(out);
            }
            tracer.end(root);
            let took = Duration::from_nanos(tracer.spans()[root].duration_ns());

            // The real driver on the same recipes: the replay must agree with
            // it, and its wall minus the staged calls is the driver's own cost.
            let mut verdict = Ok(());
            for (i, staged) in outputs.into_iter().enumerate() {
                let a = &self.artifacts[i];
                let real = self.platform.env(|env| {
                    let recipe = dc_gel::Recipe::parse(&a.gel).map_err(|e| e.to_string())?;
                    let (dag, steps) = recipe.to_dag().map_err(|e| e.to_string())?;
                    let mut ex = Executor::new();
                    let t = Instant::now();
                    let out = ex.run(&dag, *steps.last().ok_or("empty recipe")?, env);
                    driver_ms += t.elapsed().as_secs_f64() * 1e3;
                    local_hits += ex.stats.cache_hits - ex.stats.shared_hits;
                    shared_hits += ex.stats.shared_hits;
                    needed += ex.stats.cache_hits + ex.stats.nodes_executed;
                    out.map_err(|e| e.to_string())
                });
                let checked = match (staged, real) {
                    (Ok(s), Ok(r)) if s == r => match s.as_table() {
                        Some(t) => self.verify(i, t),
                        None => Err(format!("{}: no table output", a.name)),
                    },
                    (Ok(_), Ok(_)) => Err(format!("{}: replay differs from Executor::run", a.name)),
                    (Err(e), _) | (_, Err(e)) => Err(format!("{}: {e}", a.name)),
                };
                verdict = verdict.and(checked);
            }
            samples.record(verdict.map(|()| took));
        }
        samples.wall_s = start.elapsed().as_secs_f64();

        let ops = samples.attempted as f64;
        let per_op_ms = |layer: &str| tracer.layer_totals(layer).ms() / ops;
        let ns_per_row = |layer: &str| {
            let t = tracer.layer_totals(layer);
            ratio(t.ns as f64, t.rows_in as f64)
        };
        let scan = tracer.layer_totals("storage.scan");
        // Every `execute_call` of the replay: what the driver's wall is set against.
        let staged_ms: f64 = ["filter", "project", "group_by", "join", "sort", "other"]
            .iter()
            .map(|k| tracer.layer_totals(&format!("engine.{k}")).ms())
            .sum::<f64>()
            + scan.ms();
        let cache = self.platform.materialized_cache_stats();
        let spilled: u64 = ["engine.join", "engine.group_by", "engine.sort"]
            .iter()
            .map(|l| tracer.layer_totals(l).bytes)
            .sum();
        let slowdown = |layer: &str| match counts.unbounded_ns.get(layer) {
            Some(&base) if base > 0 => counts.governed_ns[layer] as f64 / base as f64,
            _ => 1.0,
        };
        let scan_gbps = ratio(scan.bytes as f64, scan.ns as f64);

        let mut v = Values::new();
        v.insert(
            "gel.parse_us_per_sentence",
            ratio(
                tracer.layer_totals("gel.parse").ns as f64 / 1e3,
                counts.sentences as f64,
            ),
        );
        v.insert(
            "gel.to_dag_us_per_recipe",
            ratio(
                tracer.layer_totals("gel.to_dag").ns as f64 / 1e3,
                counts.recipes as f64,
            ),
        );
        v.insert(
            "analyze.preflight_us_per_program",
            ratio(
                tracer.layer_totals("analyze.preflight").ns as f64 / 1e3,
                counts.recipes as f64,
            ),
        );
        v.insert(
            "analyze.scan_bytes_qerror",
            ratio(counts.bytes_estimated_hi as f64, scan.bytes as f64),
        );
        v.insert(
            "skills.optimize_us_per_dag",
            ratio(
                tracer.layer_totals("skills.optimize").ns as f64 / 1e3,
                counts.recipes as f64,
            ),
        );
        v.insert(
            "skills.pushdown_us_per_dag",
            ratio(
                tracer.layer_totals("skills.pushdown").ns as f64 / 1e3,
                counts.recipes as f64,
            ),
        );
        v.insert(
            "skills.driver_overhead_ms_per_op",
            (driver_ms - staged_ms) / ops,
        );
        v.insert(
            "skills.cache.local_hit_ratio",
            ratio(local_hits as f64, needed as f64),
        );
        v.insert(
            "skills.cache.shared_hit_ratio",
            ratio(shared_hits as f64, needed as f64),
        );
        v.insert(
            "skills.cache.evictions_per_kop",
            cache.evictions as f64 * 1e3 / ops,
        );
        v.insert(
            "skills.cache.resident_mb",
            cache.resident_bytes as f64 / 1e6,
        );
        v.insert("storage.scan_ms_per_op", scan.ms() / ops);
        v.insert("storage.scan_gbps", scan_gbps);
        v.insert(
            "storage.scan_frac_of_memcpy",
            ratio(scan_gbps, machine.memcpy_gbps),
        );
        v.insert(
            "storage.blocks_pruned_ratio",
            1.0 - ratio(counts.blocks_scanned as f64, counts.blocks_total as f64),
        );
        v.insert("storage.bytes_read_per_op", counts.bytes_read as f64 / ops);
        v.insert("storage.bytes_scanned_per_op", scan.bytes as f64 / ops);
        v.insert(
            "storage.projection_ratio",
            ratio(scan.bytes as f64, counts.table_bytes as f64),
        );
        v.insert("engine.filter_ms_per_op", per_op_ms("engine.filter"));
        v.insert("engine.filter_ns_per_row", ns_per_row("engine.filter"));
        v.insert("engine.project_ms_per_op", per_op_ms("engine.project"));
        v.insert("engine.group_by_ms_per_op", per_op_ms("engine.group_by"));
        v.insert("engine.group_by_ns_per_row", ns_per_row("engine.group_by"));
        v.insert("engine.join_ms_per_op", per_op_ms("engine.join"));
        v.insert("engine.join_ns_per_row", ns_per_row("engine.join"));
        v.insert("engine.sort_ms_per_op", per_op_ms("engine.sort"));
        v.insert("engine.sort_ns_per_row", ns_per_row("engine.sort"));
        v.insert(
            "engine.sort_frac_of_ceiling",
            ratio(machine.sort_ns_per_row, ns_per_row("engine.sort")),
        );
        v.insert("engine.spill.bytes_per_op", spilled as f64 / ops);
        v.insert(
            "engine.spill.partitions_per_op",
            counts.spill_partitions as f64 / ops,
        );
        v.insert("engine.spill.join_slowdown", slowdown("engine.join"));
        v.insert(
            "engine.spill.group_by_slowdown",
            slowdown("engine.group_by"),
        );
        v.insert("engine.spill.sort_slowdown", slowdown("engine.sort"));
        v.insert(
            "trace.overhead_ratio",
            overhead_ratio(tracer, reference.p50_ms()),
        );
        samples.absorb(reference);
        (samples, v)
    }
}

impl Drop for Board {
    fn drop(&mut self) {
        if let Some(dir) = &self.block_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
