//! # dc-bench — the paper's tables and figures
//!
//! Regenerates every table and figure of the paper. Each `src/bin/*`
//! binary prints one and asserts its headline claim: `table1_skills`,
//! `table2_accuracy`, `fig3_entry_paths`, `fig4_consolidation`,
//! `fig5_slicing`, `fig7_distribution`, `sec3_sampling` and
//! `sec3_snapshots`. Two more are CI gates: `analyze_corpus` (the example
//! recipes analyze clean and execute inside their estimates; `--qerror`
//! sweeps the estimator) and `chaos_dag` (seeded fault injection). The
//! Criterion benches in `benches/` time the paper's performance claims
//! (§2.2 nested-vs-flat, DAG caching, §3 sampling, §4 NL2Code). The
//! repository's own benchmark is `benchmark/run.sh`, not this crate. See
//! DESIGN.md's experiment index for the full mapping.
