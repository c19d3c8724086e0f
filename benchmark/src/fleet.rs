//! `serve_fleet`: an op is one job through `SessionService::submit`.
//!
//! 32 tenants take turns; one generator thread keeps `2 x nproc` jobs
//! outstanding, so the service's fair queue (not the OS scheduler) holds the
//! backlog. 95 % of jobs are light (a day window of the small table summed by
//! region, half from hot windows and half never repeated) and every 20th is
//! heavy (a never-repeated price filter over the large table, summed by store
//! and sorted). The shared cache is capped below the working set, so it
//! evicts. Admission, queueing, world-lock wait, preemption and cache churn
//! do the work. Latency is what the tenant waits: admission (`Request::gel` and
//! `submit`, which prices the job under the world lock) plus `JobResult.wall`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datachat_core::Platform;
use dc_serve::{JobHandle, JobResult, Request, ServeConfig, SessionService, TenantConfig};
use dc_storage::{BudgetConfig, CloudDatabase, CostMeter, Pricing};

use crate::board::DATABASE;
use crate::fixtures::{Facts, Rng};
use crate::harness::{overhead_ratio, Config, Samples, World, REFERENCE_SHARE};
use crate::machine::Machine;
use crate::metrics::{quantile, ratio, sorted, Values};
use crate::oracle::{self, check, DayRegion, Expected};
use crate::trace::Tracer;
use crate::windows::Windows;

const SMALL_ROWS: usize = 50_000;
const SMALL_BLOCK_ROWS: usize = 2_048;
const LARGE_ROWS: usize = 250_000;
const LARGE_BLOCK_ROWS: usize = 16_384;
const TENANTS: usize = 32;
const HEAVY_EVERY: u64 = 20;
const CACHE_BYTES: u64 = 64 << 20;
/// Sessions are per tenant and live as long as the service; compacting their
/// checkpoints at this size keeps memory from growing with the job count.
const SESSION_CACHE_BYTES: u64 = 4 << 20;
const WARMUP_JOBS: usize = 200;

/// A job as generated: its program and what it must answer.
struct Job {
    tenant: usize,
    heavy: bool,
    program: String,
    expected: Expected,
}

pub struct Fleet {
    // Declared before the platform so the worker pool stops first.
    service: SessionService,
    platform: Platform,
    meter: Arc<CostMeter>,
    tenants: Vec<String>,
    small_by_day: DayRegion,
    large: Facts,
    windows: Windows,
    rng: Rng,
    jobs: u64,
    outstanding: usize,
}

/// When the generator stops making new jobs.
#[derive(Clone, Copy)]
enum Limit {
    For(Duration),
    Jobs(u64),
}

impl Limit {
    fn open(self, start: Instant, generated: u64) -> bool {
        match self {
            Limit::For(budget) => start.elapsed() < budget,
            Limit::Jobs(n) => generated < n,
        }
    }
}

/// The generator's side of one submission.
struct Submitted {
    at: Instant,
    /// `Request::gel`.
    parse: Duration,
    /// `SessionService::submit`.
    admit: Duration,
}

/// What the traced pass keeps of each answered job.
struct Answered {
    heavy: bool,
    result: JobResult,
}

impl Fleet {
    fn light_program(from: i64, to: i64) -> String {
        format!(
            "Load the table facts_small from the database bench\n\
             Keep the rows where day >= {from} and day < {to}\n\
             Compute the sum of qty for each region"
        )
    }

    fn next_job(&mut self) -> Job {
        let k = self.jobs;
        self.jobs += 1;
        let tenant = (k % TENANTS as u64) as usize;
        if k % HEAVY_EVERY == HEAVY_EVERY - 1 {
            // Two-decimal floors in [1, 501): at least half the rows pass, no
            // block prunes, and a floor practically never repeats.
            let cents = 100 + self.rng.below(50_000);
            let floor = cents as f64 / 100.0;
            let large = &self.large;
            return Job {
                tenant,
                heavy: true,
                program: format!(
                    "Load the table facts from the database bench\n\
                     Keep the rows where price > {floor}\n\
                     Compute the sum of qty for each store\nSort by store"
                ),
                expected: oracle::qty_by_store_where(
                    large,
                    |i| large.price[i] > floor,
                    false,
                    true,
                ),
            };
        }
        let (from, to) = if k.is_multiple_of(2) {
            self.windows.hot(&mut self.rng)
        } else {
            self.windows.fresh()
        };
        Job {
            tenant,
            heavy: false,
            program: Fleet::light_program(from, to),
            expected: self.small_by_day.qty_by_region(from, to, false),
        }
    }

    fn verdict(job: &Job, result: &JobResult, submitted: &Submitted) -> Result<Duration, String> {
        let out = result.outcome.as_ref().map_err(|e| e.to_string())?;
        let table = out.as_table().ok_or("no table output")?;
        check(table, &job.expected).map_err(|e| format!("{:?}: {e}", job.program))?;
        Ok(submitted.parse + submitted.admit + result.wall)
    }

    /// The closed loop: keep `outstanding` jobs in flight, wait for the
    /// oldest, check its answer. Jobs are generated while `limit` is open;
    /// `seen` gets every answered job.
    fn drive(
        &mut self,
        limit: Limit,
        mut seen: impl FnMut(&Job, &JobResult, &Submitted),
    ) -> Samples {
        let mut samples = Samples::default();
        let mut in_flight: VecDeque<(Job, Submitted, JobHandle)> = VecDeque::new();
        let start = Instant::now();
        let mut generated = 0;
        loop {
            while limit.open(start, generated) && in_flight.len() < self.outstanding {
                let job = self.next_job();
                generated += 1;
                let at = Instant::now();
                let request = Request::gel(&job.program);
                let parse = at.elapsed();
                let admitted =
                    request.and_then(|r| self.service.submit(&self.tenants[job.tenant], r));
                let admit = at.elapsed() - parse;
                match admitted {
                    Ok(handle) => {
                        in_flight.push_back((job, Submitted { at, parse, admit }, handle))
                    }
                    // A rejected or malformed job is an op that failed.
                    Err(e) => samples.record(Err(e.to_string())),
                }
            }
            let Some((job, submitted, handle)) = in_flight.pop_front() else {
                break;
            };
            let result = handle.wait();
            seen(&job, &result, &submitted);
            samples.record(Fleet::verdict(&job, &result, &submitted));
        }
        samples.wall_s = start.elapsed().as_secs_f64();
        samples
    }

    /// p50 wall of light jobs sent one at a time for `budget`, optionally
    /// beside a tenant that keeps one large sort in flight.
    fn light_p50_ms(&mut self, budget: Duration, noisy: bool, samples: &mut Samples) -> f64 {
        let sort = "Load the table facts from the database bench\nSort by price";
        let submit_sort = |service: &SessionService| {
            Request::gel(sort)
                .and_then(|r| service.submit("noisy", r))
                .ok()
        };
        let mut sort_job = if noisy {
            submit_sort(&self.service)
        } else {
            None
        };
        let mut walls = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || walls.is_empty() {
            if sort_job.as_ref().is_some_and(JobHandle::is_ready) {
                drop(sort_job.take().map(JobHandle::wait));
                sort_job = submit_sort(&self.service);
            }
            let mut job = self.next_job();
            while job.heavy {
                job = self.next_job();
            }
            let at = Instant::now();
            let result = Request::gel(&job.program)
                .and_then(|r| self.service.submit(&self.tenants[job.tenant], r))
                .map(|handle| (at.elapsed(), handle.wait()));
            let verdict = match &result {
                Ok((admission, result)) => {
                    let submitted = Submitted {
                        at,
                        parse: Duration::ZERO,
                        admit: *admission,
                    };
                    Fleet::verdict(&job, result, &submitted)
                }
                Err(e) => Err(e.to_string()),
            };
            if let Ok(wall) = &verdict {
                walls.push(wall.as_secs_f64() * 1e3);
            }
            samples.record(verdict);
        }
        drop(sort_job.map(JobHandle::wait));
        quantile(&sorted(walls), 0.5)
    }
}

impl World for Fleet {
    fn setup(cfg: &Config) -> Fleet {
        let small = Facts::generate(cfg.scaled(SMALL_ROWS, 4_000), cfg.seed);
        let large = Facts::generate(cfg.scaled(LARGE_ROWS, 8_000), cfg.seed.wrapping_add(1));
        let mut db = CloudDatabase::new(DATABASE, Pricing::default_cloud());
        db.create_table_with_blocks(
            "facts_small",
            &small.to_table(),
            cfg.scaled(SMALL_BLOCK_ROWS, 256),
        )
        .expect("create facts_small");
        db.create_table_with_blocks(
            "facts",
            &large.to_table(),
            cfg.scaled(LARGE_BLOCK_ROWS, 1_024),
        )
        .expect("create facts");
        let meter = db.meter();
        let platform = Platform::with_cache_capacity(CACHE_BYTES);
        platform.add_database(db).expect("attach database");

        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let service = SessionService::start(
            platform.env_handle(),
            ServeConfig {
                workers: nproc,
                session_cache_limit: Some(SESSION_CACHE_BYTES),
                ..ServeConfig::default()
            },
        );
        // Metered tenants, so admission prices every job and the result
        // carries the estimate; the budget is far too large to ever reject.
        let tenants: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i:02}")).collect();
        for t in &tenants {
            service
                .register_tenant(
                    t,
                    TenantConfig::new().budget(BudgetConfig::fixed(u64::MAX / 4)),
                )
                .expect("register tenant");
        }
        service
            .register_tenant("noisy", TenantConfig::new())
            .expect("register tenant");

        let mut rng = Rng::new(cfg.seed ^ 0xF1EE7);
        let mut fleet = Fleet {
            service,
            platform,
            meter,
            tenants,
            small_by_day: DayRegion::new(&small),
            large,
            windows: Windows::new(&mut rng),
            rng,
            jobs: 0,
            outstanding: 2 * nproc,
        };
        let warm = fleet.drive(
            Limit::Jobs(cfg.scaled(WARMUP_JOBS, 20) as u64),
            |_, _, _| {},
        );
        assert_eq!(warm.failed, 0, "warm-up job failed: {:?}", warm.first_error);
        fleet
    }

    fn measure(&mut self, budget: Duration) -> Samples {
        self.drive(Limit::For(budget), |_, _, _| {})
    }

    fn bytes_charged(&self) -> u64 {
        self.meter.bytes()
    }

    fn trace(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        _machine: &Machine,
    ) -> (Samples, Values) {
        let reference = self.measure(budget.mul_f64(REFERENCE_SHARE));

        let cache_before = self.platform.materialized_cache_stats();
        let stats_before = self.service.stats();
        let bytes_before = self.meter.bytes();
        let mut answered: Vec<Answered> = Vec::new();
        let mut sentences = 0u64;
        let epoch = Instant::now();
        let mut samples = self.drive(
            Limit::For(budget.mul_f64(0.45)),
            |job, result, submitted| {
                // One tree per job. Queue wait and execution come back as
                // durations, so their spans are laid end to end after admission;
                // what is left of the wall is the root's self time: world-lock
                // wait, dispatch, and time spent preempted.
                let op = answered.len() as u64;
                let ns = |d: Duration| d.as_nanos() as u64;
                let t0 = ns(submitted.at.duration_since(epoch));
                let admitted = t0 + ns(submitted.parse) + ns(submitted.admit);
                let wall = ns(result.wall);
                let queued = ns(result.queued).min(wall);
                let exec = ns(result.exec).min(wall - queued);
                let kind = if job.heavy { "heavy_job" } else { "light_job" };
                let root = tracer.record(op, None, "serve.other", kind, t0, admitted + wall);
                tracer.record(
                    op,
                    Some(root),
                    "gel.parse",
                    "Request::gel",
                    t0,
                    t0 + ns(submitted.parse),
                );
                tracer.record(
                    op,
                    Some(root),
                    "serve.admit",
                    "submit",
                    t0 + ns(submitted.parse),
                    admitted,
                );
                tracer.record(
                    op,
                    Some(root),
                    "serve.queue",
                    "queued",
                    admitted,
                    admitted + queued,
                );
                let run = tracer.record(
                    op,
                    Some(root),
                    "serve.exec",
                    "exec",
                    admitted + queued,
                    admitted + queued + exec,
                );
                tracer.annotate(run, 0, 0, result.bytes_charged);
                sentences += job.program.lines().count() as u64;
                answered.push(Answered {
                    heavy: job.heavy,
                    result: result.clone(),
                });
            },
        );
        let stats = self.service.stats();
        let cache = self.platform.materialized_cache_stats();
        let bytes = (self.meter.bytes() - bytes_before) as f64;

        let quiet = self.light_p50_ms(budget.mul_f64(0.12), false, &mut samples);
        let contended = self.light_p50_ms(budget.mul_f64(0.18), true, &mut samples);

        let jobs = answered.len() as f64;
        let ms = |pick: &dyn Fn(&JobResult) -> Duration, heavy: Option<bool>| -> Vec<f64> {
            sorted(
                answered
                    .iter()
                    .filter(|a| heavy.is_none_or(|h| a.heavy == h))
                    .map(|a| pick(&a.result).as_secs_f64() * 1e3)
                    .collect(),
            )
        };
        let queued = ms(&|r| r.queued, None);
        let exec = ms(&|r| r.exec, None);
        let wall = ms(&|r| r.wall, None);
        let other = ms(
            &|r| r.wall.saturating_sub(r.queued).saturating_sub(r.exec),
            None,
        );
        let heavy_wall = ms(&|r| r.wall, Some(true));
        let estimated: u64 = answered.iter().map(|a| a.result.bytes_estimated).sum();
        let charged: u64 = answered.iter().map(|a| a.result.bytes_charged).sum();
        let hits: u64 = answered.iter().map(|a| a.result.cache_hits).sum();
        let shared_hits = cache.hits - cache_before.hits;
        // Every sub-DAG result a job needed was a hit (either tier) or ran a
        // shared-cache miss first.
        let needed = hits + (cache.misses - cache_before.misses);
        let attempted = (stats.admitted - stats_before.admitted)
            + (stats.rejected_queue - stats_before.rejected_queue)
            + (stats.rejected_budget - stats_before.rejected_budget);

        let mut v = Values::new();
        v.insert(
            "gel.parse_us_per_sentence",
            ratio(
                tracer.layer_totals("gel.parse").ns as f64 / 1e3,
                sentences as f64,
            ),
        );
        v.insert(
            "analyze.scan_bytes_qerror",
            ratio(estimated as f64, charged as f64),
        );
        v.insert(
            "skills.cache.local_hit_ratio",
            ratio(hits.saturating_sub(shared_hits) as f64, needed as f64),
        );
        v.insert(
            "skills.cache.shared_hit_ratio",
            ratio(shared_hits as f64, needed as f64),
        );
        v.insert(
            "skills.cache.evictions_per_kop",
            ratio(
                (cache.evictions - cache_before.evictions) as f64 * 1e3,
                jobs,
            ),
        );
        v.insert(
            "skills.cache.resident_mb",
            cache.resident_bytes as f64 / 1e6,
        );
        v.insert("storage.bytes_scanned_per_op", ratio(bytes, jobs));
        v.insert("serve.queue_wait_p50_ms", quantile(&queued, 0.5));
        v.insert("serve.queue_wait_p99_ms", quantile(&queued, 0.99));
        v.insert("serve.exec_p50_ms", quantile(&exec, 0.5));
        v.insert("serve.other_wait_p50_ms", quantile(&other, 0.5));
        v.insert("serve.job_p99_ms", quantile(&wall, 0.99));
        v.insert(
            "serve.preemptions_per_kjob",
            ratio(
                (stats.preemptions - stats_before.preemptions) as f64 * 1e3,
                jobs,
            ),
        );
        v.insert(
            "serve.rejected_ratio",
            ratio(
                ((stats.rejected_queue - stats_before.rejected_queue)
                    + (stats.rejected_budget - stats_before.rejected_budget))
                    as f64,
                attempted as f64,
            ),
        );
        v.insert("serve.heavy_job_p50_ms", quantile(&heavy_wall, 0.5));
        v.insert("serve.contended_p50_ratio", ratio(contended, quiet));
        v.insert(
            "trace.overhead_ratio",
            overhead_ratio(tracer, reference.p50_ms()),
        );
        samples.absorb(reference);
        (samples, v)
    }
}
