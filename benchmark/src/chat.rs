//! `chat_turns`: an op is one six-turn conversation through `Platform::chat`.
//!
//! Load facts / keep a day window / derive revenue / sum it by region / sort /
//! ask one natural-language question. GEL turns cost a fraction of a
//! millisecond and the question a few, so parsing, translation, preflight
//! analysis, session bookkeeping and cache probes do most of the work and
//! the kernels almost none.
//!
//! Every conversation opens its own session, as an analyst would. (In a
//! long-lived pooled session the optimizer merges the repeated `Load` nodes,
//! the day filter stops being pushed into the scan, and the op's shape
//! drifts with the session's age.) Half the windows come from eight hot
//! ones that stay in the shared cache, half are never repeated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datachat_core::{ChatPath, Platform, SessionHandle};
use dc_gel::Recipe;
use dc_nl::Nl2Code;
use dc_skills::{optimize_dag, plan_pushdown, SkillCall};
use dc_storage::{CloudDatabase, CostMeter, Pricing};

use crate::board::DATABASE;
use crate::fixtures::{Facts, Rng};
use crate::harness::{closed_loop, overhead_ratio, Config, Samples, World, REFERENCE_SHARE};
use crate::machine::Machine;
use crate::metrics::{median, ratio, Values};
use crate::oracle::{self, check, DayRegion, Expected};
use crate::trace::Tracer;
use crate::windows::Windows;

const ROWS: usize = 50_000;
/// Small blocks, so a day window prunes to a handful of them and the bytes a
/// fresh window bills vary little from window to window.
const BLOCK_ROWS: usize = 2_048;
/// The shared cache is capped well below the 256 MiB default so that it
/// reaches its steady state — hot windows resident, one-off windows evicted —
/// during warm-up, not part-way through the timed run.
const CACHE_BYTES: u64 = 32 << 20;
const WARMUP_CONVERSATIONS: usize = 120;

const TURNS: usize = 6;
const LOAD: &str = "Load the table facts from the database bench";

struct Question {
    text: String,
    expected: Expected,
}

fn questions(f: &Facts) -> Vec<Question> {
    let mut q = vec![
        Question {
            text: "How many records are there for each region".into(),
            expected: oracle::count_by_region_where(f, |_| true),
        },
        Question {
            text: "What is the average price for each region".into(),
            expected: oracle::avg_price_by_region(f),
        },
        Question {
            text: "What is the total qty for each store".into(),
            expected: oracle::qty_by_store_where(f, |_| true, false, false),
        },
        Question {
            text: "What is the maximum price for each region".into(),
            expected: oracle::max_price_by_region(f),
        },
    ];
    for floor in 5..=15 {
        q.push(Question {
            text: format!("count the records with qty above {floor} for each region"),
            expected: oracle::count_by_region_where(f, |i| f.qty[i] > floor),
        });
    }
    q
}

#[derive(Debug, Clone, Copy)]
struct Conversation {
    from: i64,
    to: i64,
    question: usize,
}

pub struct Chat {
    platform: Platform,
    meter: Arc<CostMeter>,
    rows: usize,
    table_blocks: u64,
    table_bytes: u64,
    by_day: DayRegion,
    questions: Vec<Question>,
    windows: Windows,
    rng: Rng,
    conversations: u64,
}

impl Chat {
    fn next_conversation(&mut self) -> Conversation {
        let (from, to) = if self.conversations.is_multiple_of(2) {
            self.windows.hot(&mut self.rng)
        } else {
            self.windows.fresh()
        };
        self.conversations += 1;
        Conversation {
            from,
            to,
            question: self.rng.below(self.questions.len() as u64) as usize,
        }
    }

    fn turn_text(&self, c: &Conversation, turn: usize) -> String {
        match turn {
            0 => LOAD.to_string(),
            1 => format!("Keep the rows where day >= {} and day < {}", c.from, c.to),
            2 => "Create a new column revenue as price * qty".to_string(),
            3 => "Compute the sum of revenue for each region".to_string(),
            4 => "Sort by region".to_string(),
            _ => self.questions[c.question].text.clone(),
        }
    }

    fn check_turn(
        &self,
        c: &Conversation,
        turn: usize,
        out: &dc_skills::SkillOutput,
    ) -> Result<(), String> {
        let table = out.as_table().ok_or("no table output")?;
        match turn {
            0 => check(table, &Expected::Rows(self.rows)),
            1 | 2 => check(table, &Expected::Rows(self.by_day.rows_in(c.from, c.to))),
            3 => check(table, &self.by_day.revenue_by_region(c.from, c.to, false)),
            4 => check(table, &self.by_day.revenue_by_region(c.from, c.to, true)),
            _ => check(table, &self.questions[c.question].expected),
        }
    }

    /// One conversation through the real entry point; per-turn times.
    fn converse(&mut self) -> Result<[Duration; TURNS], String> {
        let c = self.next_conversation();
        let session = self.platform.open_session("analyst");
        let mut took = [Duration::ZERO; TURNS];
        for (turn, slot) in took.iter_mut().enumerate() {
            let text = self.turn_text(&c, turn);
            let t = Instant::now();
            let reply = self
                .platform
                .chat(&session, &text)
                .map_err(|e| format!("turn {turn} {text:?}: {e}"))?;
            *slot = t.elapsed();
            let want = if turn == TURNS - 1 {
                ChatPath::Llm
            } else {
                ChatPath::Gel
            };
            if reply.path != want {
                return Err(format!(
                    "turn {turn} {text:?}: took {:?}, expected {want:?}",
                    reply.path
                ));
            }
            self.check_turn(&c, turn, &reply.output)
                .map_err(|e| format!("turn {turn} {text:?}: {e}"))?;
        }
        // The registry never closes a session; dropping its checkpoints keeps
        // memory from growing with the number of conversations held.
        session.session.clear_checkpoints();
        Ok(took)
    }

    /// The same conversation in slow motion through the public pieces
    /// `Platform::chat` is made of.
    fn converse_traced(
        &mut self,
        op: u64,
        tracer: &mut Tracer,
        t: &mut ChatCounts,
    ) -> Result<Duration, String> {
        let c = self.next_conversation();
        let session = self.platform.open_session("analyst");
        let root = tracer.begin(op, None, "harness", "conversation");
        let mut verdict = Ok(());
        for turn in 0..TURNS {
            let text = self.turn_text(&c, turn);
            let kind = match turn {
                0 => "load_turn",
                5 => "nl_turn",
                _ => "gel_turn",
            };
            let span = tracer.begin(op, Some(root), "core.chat", kind);
            let out = self.staged_turn(&session, &text, op, span, tracer, t);
            tracer.end(span);
            verdict = out
                .and_then(|out| self.check_turn(&c, turn, &out))
                .map_err(|e| format!("turn {turn} {text:?}: {e}"));
            if verdict.is_err() {
                break;
            }
        }
        tracer.end(root);
        session.session.clear_checkpoints();
        verdict.map(|()| Duration::from_nanos(tracer.spans()[root].duration_ns()))
    }

    fn staged_turn(
        &mut self,
        session: &SessionHandle,
        text: &str,
        op: u64,
        span: usize,
        tracer: &mut Tracer,
        t: &mut ChatCounts,
    ) -> Result<dc_skills::SkillOutput, String> {
        let p = Some(span);
        t.sentences += 1;
        let parsed = tracer.scope(op, p, "gel.parse", "parse_gel", || dc_gel::parse_gel(text));
        let calls: Vec<SkillCall> = match parsed {
            Ok(call) => vec![call],
            Err(_) => {
                t.questions += 1;
                let platform = &self.platform;
                let recipe = tracer.scope(op, p, "nl.translate", "Nl2Code::generate", || {
                    let generated = platform
                        .nl
                        .generate(text, &platform.schema_hints())
                        .map_err(|e| e.to_string())?;
                    Nl2Code::to_recipe(&generated.checked).map_err(|e| e.to_string())
                })?;
                t.translated += 1;
                // `Use the dataset facts` over a catalog table becomes a load,
                // as the platform's own rewrite does.
                recipe
                    .steps()
                    .iter()
                    .map(|call| match call.name() {
                        "UseDataset" => dc_gel::parse_gel(LOAD).map_err(|e| e.to_string()),
                        _ => Ok(call.clone()),
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        if calls.first().is_some_and(|first| !first.needs_input()) {
            let mut recipe = Recipe::new();
            for call in &calls {
                recipe.push(call.clone());
            }
            tracer
                .scope(op, p, "gel.to_dag", "Recipe::to_dag", || recipe.to_dag())
                .map_err(|e| e.to_string())?;
            let platform = &self.platform;
            let analysis = tracer.scope(op, p, "analyze.preflight", "validate_recipe", || {
                dc_gel::validate_recipe(&recipe, &platform.analysis_context())
            });
            t.programs += 1;
            t.bytes_estimated_hi += analysis.estimates.scan_bytes_hi;
        }
        let mut last = None;
        for call in calls {
            let before = self.platform.materialized_cache_stats();
            let submitted = tracer.begin(op, p, "collab.submit", call.name());
            let out = session.submit(call);
            tracer.end(submitted);
            let after = self.platform.materialized_cache_stats();
            last = Some(out.map_err(|e| e.to_string())?);
            t.shared_hits += after.hits - before.hits;
            t.shared_probes += (after.hits + after.misses) - (before.hits + before.misses);

            // What the session's driver planned for this call, timed apart
            // from the span tree because it already ran inside `submit`.
            let dag = session.session.dag_snapshot();
            let target = session.session.current_node().ok_or("no current node")?;
            t.nodes_needed += dag.ancestors(target).map_err(|e| e.to_string())?.len() as u64;
            let started = Instant::now();
            let optimized = self
                .platform
                .env(|env| optimize_dag(&dag, &[target], &[], &*env));
            t.optimize_ns += started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let _ = plan_pushdown(optimized.as_ref().unwrap_or(&dag), &[target], &[]);
            t.pushdown_ns += started.elapsed().as_nanos() as u64;
            t.dags += 1;
        }
        last.ok_or_else(|| "empty program".to_string())
    }
}

/// Counts the chat trace keeps beside its spans.
#[derive(Debug, Default)]
struct ChatCounts {
    sentences: u64,
    questions: u64,
    translated: u64,
    programs: u64,
    bytes_estimated_hi: u64,
    /// Sub-DAG results each submitted call depended on; the ones that did not
    /// reach the shared cache were served from the session's own.
    nodes_needed: u64,
    shared_probes: u64,
    shared_hits: u64,
    dags: u64,
    optimize_ns: u64,
    pushdown_ns: u64,
}

impl World for Chat {
    fn setup(cfg: &Config) -> Chat {
        let rows = cfg.scaled(ROWS, 4_000);
        let facts = Facts::generate(rows, cfg.seed);
        let mut db = CloudDatabase::new(DATABASE, Pricing::default_cloud());
        db.create_table_with_blocks("facts", &facts.to_table(), cfg.scaled(BLOCK_ROWS, 256))
            .expect("create facts");
        let (table_blocks, table_bytes) = {
            let t = db.table("facts").expect("facts");
            (t.num_blocks() as u64, t.total_bytes())
        };
        let meter = db.meter();
        let mut platform = Platform::with_cache_capacity(CACHE_BYTES);
        // The default model injects seeded translation errors; the oracle model
        // never does, so every answer can be checked.
        platform.nl.model = Box::new(dc_nl::SimulatedLlm::oracle());
        platform.add_database(db).expect("attach database");

        let mut rng = Rng::new(cfg.seed ^ 0xC4A7);
        let mut chat = Chat {
            platform,
            meter,
            rows,
            table_blocks,
            table_bytes,
            by_day: DayRegion::new(&facts),
            questions: questions(&facts),
            windows: Windows::new(&mut rng),
            rng,
            conversations: 0,
        };
        for _ in 0..cfg.scaled(WARMUP_CONVERSATIONS, 8) {
            chat.converse().expect("warm-up conversation");
        }
        chat
    }

    fn measure(&mut self, budget: Duration) -> Samples {
        closed_loop(budget, || self.converse().map(|turns| turns.iter().sum()))
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
        // Reference segment: the real path, with per-turn latencies kept.
        let mut turn_ms: [Vec<f64>; 3] = Default::default();
        let reference = closed_loop(budget.mul_f64(REFERENCE_SHARE), || {
            let turns = self.converse()?;
            for (i, d) in turns.iter().enumerate() {
                let kind = match i {
                    0 => 0,
                    5 => 2,
                    _ => 1,
                };
                turn_ms[kind].push(d.as_secs_f64() * 1e3);
            }
            Ok(turns.iter().sum())
        });

        let mut counts = ChatCounts::default();
        let cache_before = self.platform.materialized_cache_stats();
        let (bytes_before, blocks_before, queries_before) = (
            self.meter.bytes(),
            self.meter.blocks(),
            self.meter.queries(),
        );
        let mut samples = Samples::default();
        let start = Instant::now();
        let replay_budget = budget.mul_f64(1.0 - REFERENCE_SHARE);
        while start.elapsed() < replay_budget || samples.attempted == 0 {
            let op = samples.attempted;
            samples.record(self.converse_traced(op, tracer, &mut counts));
        }
        samples.wall_s = start.elapsed().as_secs_f64();

        let ops = samples.attempted as f64;
        let cache = self.platform.materialized_cache_stats();
        let bytes = (self.meter.bytes() - bytes_before) as f64;
        let scans = (self.meter.queries() - queries_before) as f64;
        let us = |layer: &str| tracer.layer_totals(layer).ns as f64 / 1e3;
        let local_hits = counts.nodes_needed.saturating_sub(counts.shared_probes);

        let mut v = Values::new();
        v.insert(
            "gel.parse_us_per_sentence",
            ratio(us("gel.parse"), counts.sentences as f64),
        );
        v.insert(
            "gel.to_dag_us_per_recipe",
            ratio(us("gel.to_dag"), counts.programs as f64),
        );
        v.insert(
            "nl.translate_ms_per_question",
            ratio(us("nl.translate") / 1e3, counts.questions as f64),
        );
        v.insert(
            "nl.translate_ok_ratio",
            ratio(counts.translated as f64, counts.questions as f64),
        );
        v.insert(
            "analyze.preflight_us_per_program",
            ratio(us("analyze.preflight"), counts.programs as f64),
        );
        v.insert(
            "analyze.scan_bytes_qerror",
            ratio(counts.bytes_estimated_hi as f64, bytes),
        );
        v.insert("core.chat.load_turn_p50_ms", median(&turn_ms[0]));
        v.insert("core.chat.gel_turn_p50_ms", median(&turn_ms[1]));
        v.insert("core.chat.nl_turn_p50_ms", median(&turn_ms[2]));
        v.insert(
            "collab.submit_us_per_turn",
            us("collab.submit") / (ops * TURNS as f64),
        );
        v.insert(
            "skills.optimize_us_per_dag",
            ratio(counts.optimize_ns as f64 / 1e3, counts.dags as f64),
        );
        v.insert(
            "skills.pushdown_us_per_dag",
            ratio(counts.pushdown_ns as f64 / 1e3, counts.dags as f64),
        );
        v.insert(
            "skills.cache.local_hit_ratio",
            ratio(local_hits as f64, counts.nodes_needed as f64),
        );
        v.insert(
            "skills.cache.shared_hit_ratio",
            ratio(counts.shared_hits as f64, counts.nodes_needed as f64),
        );
        v.insert(
            "skills.cache.evictions_per_kop",
            (cache.evictions - cache_before.evictions) as f64 * 1e3 / ops,
        );
        v.insert(
            "skills.cache.resident_mb",
            cache.resident_bytes as f64 / 1e6,
        );
        v.insert("storage.bytes_scanned_per_op", bytes / ops);
        v.insert(
            "storage.blocks_pruned_ratio",
            1.0 - ratio(
                (self.meter.blocks() - blocks_before) as f64,
                scans * self.table_blocks as f64,
            ),
        );
        v.insert(
            "storage.projection_ratio",
            ratio(bytes, scans * self.table_bytes as f64),
        );
        v.insert(
            "trace.overhead_ratio",
            overhead_ratio(tracer, reference.p50_ms()),
        );
        samples.absorb(reference);
        (samples, v)
    }
}
