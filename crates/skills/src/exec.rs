//! The skill interpreter: one function per skill semantics, plus the
//! [`Executor`] — the sub-DAG cache and the entry points of the one DAG
//! driver ([`crate::resilient`]).
//!
//! Execution is split along an environment boundary: most skills are pure
//! functions of their input tables ([`execute_pure_call_with_mem`]), while
//! ingestion, model-registry, SQL, and platform skills need the mutable
//! [`Env`]. The driver exploits the split by running independent pure
//! nodes of a wave concurrently; environment-dependent nodes always run
//! serially.
//!
//! Nothing here copies a column buffer. A `Table` shares its columns
//! (`dc_engine::table`), so the skills that leave a column alone pass it
//! through, a node's flow table is a pointer copy of its output, and what
//! [`Executor::run`] returns, what the session tier keeps and what the
//! shared tier admits are one set of buffers.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dc_engine::csv::{read_csv, write_csv};
use dc_engine::ops::{
    concat, distinct, filter, group_by_with_mem, group_state, join_with_mem, limit,
    merge_group_states, pivot, sample_fraction, sort_by, sort_by_with_mem, top_n, SortKey,
};
use dc_engine::MemContext;
use dc_engine::{Column, Expr, Table, Value};
use dc_ml::{detect_outliers, fit_kmeans, fit_time_series, predict, train_model, ModelKind};
use dc_storage::ScanOptions;
use dc_viz::{auto_visualize, ChartSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cache::{sub_dag_keys, SharedKey, SubDagKey};
use crate::contract::{contract, derived, load_scan, rows, RowBounds, RowInput};
use crate::dag::{NodeId, SkillDag, SkillNode};
use crate::env::Env;
use crate::error::{Result, SkillError};
use crate::output::SkillOutput;
use crate::resilient::ExecPolicy;
use crate::skill::SkillCall;

/// Whether `call` must execute against the mutable [`Env`] (catalog,
/// snapshot store, file/URL fixtures, model registry, definitions).
///
/// Everything else is a pure function of its input tables and is safe to
/// run concurrently with other nodes. `UseDataset` is pure when the DAG
/// already wired the named node as an input; it only falls back to the
/// environment's saved artifacts otherwise.
pub fn needs_env(call: &SkillCall, has_input: bool) -> bool {
    use SkillCall::*;
    match call {
        UseDataset { .. } => !has_input,
        LoadFile { .. }
        | LoadUrl { .. }
        | LoadTable { .. }
        | UseSnapshot { .. }
        | ListDatasets
        | TrainModel { .. }
        | Predict { .. }
        | EvaluateModel { .. }
        | RunSql { .. }
        | SaveArtifact { .. }
        | Snapshot { .. }
        | Define { .. } => true,
        _ => false,
    }
}

/// Execute one skill call against its input tables.
///
/// `inputs[0]` is the primary dataset (when the skill needs one);
/// `inputs[1]` the secondary for joins and concatenations. Calls that do
/// not [`needs_env`] are delegated to [`execute_pure_call_with_mem`].
pub fn execute_call(call: &SkillCall, inputs: &[&Table], env: &mut Env) -> Result<SkillOutput> {
    use SkillCall::*;
    let primary = || -> Result<&Table> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| SkillError::invalid(format!("{} needs an input dataset", call.name())))
    };
    match call {
        // ----- ingestion -----
        LoadFile { path } => Ok(SkillOutput::Table(read_csv(env.file(path)?)?)),
        LoadUrl { url } => Ok(SkillOutput::Table(read_csv(env.url(url)?)?)),
        // A load alone is a pipeline of one call: the scan, its parts
        // stitched.
        LoadTable { .. } => run_pipeline(&[call], env).map_err(|(_, e)| e),
        UseDataset { name, .. } if inputs.is_empty() => {
            Ok(SkillOutput::Table(env.saved_table(name)?.clone()))
        }
        UseSnapshot { name } => Ok(SkillOutput::Table(env.snapshots.read(name)?.clone())),
        ListDatasets => {
            let mut lines = Vec::new();
            for db_name in env.catalog.database_names() {
                let db = env.catalog.database(db_name)?;
                for info in db.dataset_listing() {
                    lines.push(format!(
                        "{}\t{}\t{} rows\t{} columns\t{}",
                        info.database,
                        info.dataset_name,
                        info.num_rows,
                        info.num_columns,
                        info.columns.join(", ")
                    ));
                }
            }
            Ok(SkillOutput::Text(lines.join("\n")))
        }

        // ----- machine learning against the model registry -----
        TrainModel {
            name,
            target,
            features,
            method,
        } => {
            let t = primary()?;
            let features = if features.is_empty() {
                // Default: every numeric column except the target.
                t.schema()
                    .fields()
                    .iter()
                    .filter(|f| f.dtype.is_numeric() && !f.name.eq_ignore_ascii_case(target))
                    .map(|f| f.name.clone())
                    .collect()
            } else {
                features.clone()
            };
            let model = train_model(t, name.clone(), target, &features, *method)?;
            env.put_model(model.clone());
            Ok(SkillOutput::Model(model))
        }
        Predict { model } => {
            let t = primary()?;
            let m = env.model(model)?.clone();
            let preds = predict(&m, t)?;
            let name = format!("Predicted_{}", m.target);
            let name = t.schema().fresh_name(&name);
            Ok(SkillOutput::Table(t.with_column(&name, preds)?))
        }
        EvaluateModel { model, target } => {
            let t = primary()?;
            let m = env.model(model)?.clone();
            let preds = predict(&m, t)?;
            let actual_col = t.column(target)?;
            match m.kind {
                ModelKind::Regression(_) => {
                    let mut a = Vec::new();
                    let mut p = Vec::new();
                    for i in 0..t.num_rows() {
                        if let (Some(av), Some(pv)) =
                            (actual_col.numeric_at(i), preds.numeric_at(i))
                        {
                            a.push(av);
                            p.push(pv);
                        }
                    }
                    let rmse = dc_ml::metrics::rmse(&a, &p)?;
                    let mae = dc_ml::metrics::mae(&a, &p)?;
                    let r2 = dc_ml::metrics::r_squared(&a, &p)?;
                    Ok(SkillOutput::Table(Table::new(vec![
                        (
                            "metric",
                            Column::from_strs(vec!["rmse", "mae", "r_squared"]),
                        ),
                        ("value", Column::from_floats(vec![rmse, mae, r2])),
                    ])?))
                }
                ModelKind::Classification(_) => {
                    let mut a = Vec::new();
                    let mut p = Vec::new();
                    for i in 0..t.num_rows() {
                        let av = actual_col.get(i);
                        let pv = preds.get(i);
                        if !av.is_null() && !pv.is_null() {
                            a.push(av.render());
                            p.push(pv.render());
                        }
                    }
                    let acc = dc_ml::metrics::accuracy(&a, &p)?;
                    Ok(SkillOutput::Table(Table::new(vec![
                        ("metric", Column::from_strs(vec!["accuracy"])),
                        ("value", Column::from_floats(vec![acc])),
                    ])?))
                }
            }
        }

        // ----- SQL -----
        RunSql { query } => {
            let provider = CatalogProvider { env };
            let (out, _stats) = dc_sql::run_sql(query, &provider)?;
            Ok(SkillOutput::Table(out))
        }

        // ----- collaboration / platform -----
        SaveArtifact { name } => {
            let t = primary()?.clone();
            env.save_table(name.clone(), t);
            Ok(SkillOutput::Text(format!("Saved artifact {name}")))
        }
        Snapshot { name } => {
            let t = primary()?.clone();
            env.snapshots
                .create(name.clone(), t, "session", Vec::new(), None)?;
            Ok(SkillOutput::Text(format!("Created snapshot {name}")))
        }
        Define { phrase, expansion } => {
            env.define(phrase.clone(), expansion.clone());
            Ok(SkillOutput::Text(format!("Defined {phrase:?}")))
        }

        other => execute_pure_call_with_mem(other, inputs, env.memory.as_deref()),
    }
}

/// The error of a pipeline and the index, in the chain, of the call that
/// raised it (0 is the load).
pub(crate) type ChainError = (usize, SkillError);

/// Run a scan's block pipeline: `chain[0]` is a [`SkillCall::LoadTable`],
/// the calls after it are [`crate::contract::row_local`] but for the last,
/// which may be a `Compute`. Inside the pool job that fetches a block, the
/// row-local calls run over it through [`execute_pure_call_with_mem`] under
/// the run's [`MemContext`] — the same code that runs them as nodes — and a
/// closing `Compute` groups it ([`group_state`], the kernel's phase 1 with
/// the block as its morsel). The breaker then merges the blocks' group
/// states in plan order ([`merge_group_states`]) or stitches their tables
/// with the one `concat`. The scan is charged and tallied as the load's
/// would be; an error names the call of the chain that raised it, and a
/// storage error wins over a step's, as it would have failed the load
/// first.
pub(crate) fn run_pipeline(
    chain: &[&SkillCall],
    env: &mut Env,
) -> std::result::Result<SkillOutput, ChainError> {
    let Some((load, steps)) = chain.split_first() else {
        return Err((0, SkillError::invalid("an empty pipeline")));
    };
    let Some((database, table, mut opts)) = load_scan(load) else {
        let message = format!("{} is not a table load", load.name());
        return Err((0, SkillError::invalid(message)));
    };
    let top = chain.len() - 1;
    let (steps, aggregate) = match steps.split_last() {
        Some((SkillCall::Compute { aggs, for_each }, rows)) => (rows, Some((aggs, for_each))),
        _ => (steps, None),
    };
    let mem = env.memory.as_deref();
    let rows = |part: Table| -> std::result::Result<Table, ChainError> {
        let mut t = part;
        for (i, call) in steps.iter().enumerate() {
            let out = catch_unwind(AssertUnwindSafe(|| {
                execute_pure_call_with_mem(call, &[&t], mem)?.into_table()
            }));
            let out =
                out.unwrap_or_else(|payload| Err(crate::resilient::panic_error(call, payload)));
            t = out.map_err(|e| (i + 1, e))?;
        }
        Ok(t)
    };
    let db = env.catalog.database(database).map_err(|e| (0, e.into()))?;
    opts.cancel = Some(env.cancel.clone());
    let tally = &mut env.scan_tally;
    let out = match aggregate {
        Some((aggs, for_each)) => {
            let keys: Vec<&str> = for_each.iter().map(String::as_str).collect();
            let states = scan_chain(db, table, &opts, tally, &|part| {
                group_state(&rows(part)?, &keys, aggs).map_err(|e| (top, e.into()))
            })?;
            merge_group_states(states, aggs)
        }
        None => {
            let tables = scan_chain(db, table, &opts, tally, &rows)?;
            concat(&tables.iter().collect::<Vec<_>>(), false)
        }
    };
    out.map(SkillOutput::Table).map_err(|e| (top, e.into()))
}

/// A pipeline's scan of `table`, `step` run on every block: the steps'
/// results in plan order, the receipt tallied once the scan completed,
/// then the first step error in plan order, if any.
fn scan_chain<P: Send>(
    db: &dc_storage::CloudDatabase,
    table: &str,
    opts: &ScanOptions,
    tally: &mut crate::env::ScanTally,
    step: &(dyn Fn(Table) -> std::result::Result<P, ChainError> + Sync),
) -> std::result::Result<Vec<P>, ChainError> {
    let (parts, receipt) = db
        .scan_blocks(table, opts, step)
        .map_err(|e| (0, e.into()))?;
    tally.record(&receipt);
    parts.into_iter().collect()
}

/// Execute one environment-free skill call against its input tables.
///
/// These skills are pure functions of `inputs`, which is what lets the
/// driver run the ones of a wave on the engine's pool. When `mem` is
/// set, join, group-by (`Compute`) and sort admit their transient state
/// against the context's governor and spill to disk instead of exceeding
/// the budget; with `None` they never spill.
pub fn execute_pure_call_with_mem(
    call: &SkillCall,
    inputs: &[&Table],
    mem: Option<&MemContext>,
) -> Result<SkillOutput> {
    use SkillCall::*;
    let primary = || -> Result<&Table> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| SkillError::invalid(format!("{} needs an input dataset", call.name())))
    };
    let secondary = || -> Result<&Table> {
        inputs
            .get(1)
            .copied()
            .ok_or_else(|| SkillError::invalid(format!("{} needs a second dataset", call.name())))
    };
    // A derived-column skill makes or replaces one column by one `eval`;
    // every other column is shared with the input, not copied.
    if let Some((name, expr)) = derived(call) {
        let t = primary()?;
        let col = dc_engine::eval::eval(t, &expr)?;
        return Ok(SkillOutput::Table(t.with_column(&name, col)?));
    }
    match call {
        // The DAG wired the named dataset's node as our input.
        UseDataset { .. } => Ok(SkillOutput::Table(primary()?.clone())),

        // ----- exploration (pass-through artifacts) -----
        DescribeColumn { column } => Ok(SkillOutput::Summaries(vec![
            dc_engine::stats::describe_column(primary()?, column)?,
        ])),
        DescribeDataset => Ok(SkillOutput::Summaries(dc_engine::stats::describe_table(
            primary()?,
        ))),
        ShowHead { n } => Ok(SkillOutput::Text(primary()?.render(*n))),
        CountRows => Ok(SkillOutput::Text(primary()?.num_rows().to_string())),
        ProfileMissing => {
            let t = primary()?;
            let mut names = Vec::new();
            let mut nulls = Vec::new();
            let mut pcts = Vec::new();
            for (f, c) in t.schema().fields().iter().zip(t.columns()) {
                names.push(f.name.clone());
                nulls.push(c.null_count() as i64);
                pcts.push(if t.num_rows() == 0 {
                    0.0
                } else {
                    c.null_count() as f64 / t.num_rows() as f64 * 100.0
                });
            }
            Ok(SkillOutput::Table(Table::new(vec![
                ("column", Column::from_strs(names)),
                ("missing", Column::from_ints(nulls)),
                ("missing_pct", Column::from_floats(pcts)),
            ])?))
        }

        // ----- visualization -----
        Visualize { kpi, by } => {
            let charts = auto_visualize(primary()?, kpi, by)?;
            Ok(SkillOutput::Charts(charts))
        }
        Plot {
            chart,
            x,
            y,
            color,
            size,
            for_each,
        } => {
            let t = primary()?;
            // Keep only the involved columns in the spec payload.
            let mut cols: Vec<&str> = Vec::new();
            for c in [x, y, color, size, for_each].into_iter().flatten() {
                if !cols.iter().any(|e| e.eq_ignore_ascii_case(c)) {
                    cols.push(c);
                }
            }
            let data = if cols.is_empty() {
                t.clone()
            } else {
                t.select(&cols)?
            };
            let title = match (x, y) {
                (Some(x), Some(y)) => format!("{y} over {x}"),
                (Some(x), None) => format!("Distribution of {x}"),
                _ => "chart".to_string(),
            };
            Ok(SkillOutput::Charts(vec![ChartSpec {
                name: "Chart".to_string(),
                chart: *chart,
                title,
                x: x.clone(),
                y: y.clone(),
                color: color.clone(),
                size: size.clone(),
                for_each: for_each.clone(),
                data,
            }]))
        }

        // ----- wrangling -----
        KeepRows { predicate } => Ok(SkillOutput::Table(filter(primary()?, predicate)?)),
        DropRows { predicate } => Ok(SkillOutput::Table(filter(
            primary()?,
            &predicate.clone().not(),
        )?)),
        KeepColumns { columns } => {
            let refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
            Ok(SkillOutput::Table(primary()?.select(&refs)?))
        }
        DropColumns { columns } => {
            let mut t = primary()?.clone();
            for c in columns {
                t = t.drop_column(c)?;
            }
            Ok(SkillOutput::Table(t))
        }
        RenameColumn { from, to } => Ok(SkillOutput::Table(primary()?.rename_column(from, to)?)),
        Compute { aggs, for_each } => {
            let keys: Vec<&str> = for_each.iter().map(|s| s.as_str()).collect();
            Ok(SkillOutput::Table(group_by_with_mem(
                primary()?,
                &keys,
                aggs,
                mem,
            )?))
        }
        Pivot {
            index,
            columns,
            values,
            agg,
        } => Ok(SkillOutput::Table(pivot(
            primary()?,
            index,
            columns,
            values,
            *agg,
        )?)),
        Sort { keys } => {
            let sk: Vec<SortKey> = keys
                .iter()
                .map(|(c, asc)| {
                    if *asc {
                        SortKey::asc(c.clone())
                    } else {
                        SortKey::desc(c.clone())
                    }
                })
                .collect();
            Ok(SkillOutput::Table(sort_by_with_mem(primary()?, &sk, mem)?))
        }
        Top { column, n } => Ok(SkillOutput::Table(top_n(primary()?, column, *n)?)),
        Limit { n } => Ok(SkillOutput::Table(limit(primary()?, *n))),
        Concat {
            remove_duplicates, ..
        } => Ok(SkillOutput::Table(concat(
            &[primary()?, secondary()?],
            *remove_duplicates,
        )?)),
        Join {
            left_on,
            right_on,
            how,
            ..
        } => {
            let l: Vec<&str> = left_on.iter().map(|s| s.as_str()).collect();
            let r: Vec<&str> = right_on.iter().map(|s| s.as_str()).collect();
            Ok(SkillOutput::Table(join_with_mem(
                primary()?,
                secondary()?,
                &l,
                &r,
                *how,
                mem,
            )?))
        }
        Distinct { columns } => {
            let refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
            Ok(SkillOutput::Table(distinct(primary()?, &refs)?))
        }
        DropMissing { columns } => {
            let t = primary()?;
            let cols: Vec<String> = if columns.is_empty() {
                t.schema().names().iter().map(|s| s.to_string()).collect()
            } else {
                columns.clone()
            };
            let pred = cols
                .iter()
                .map(|c| Expr::col(c.clone()).is_not_null())
                .reduce(|a, b| a.and(b))
                .ok_or_else(|| SkillError::invalid("no columns to check"))?;
            Ok(SkillOutput::Table(filter(t, &pred)?))
        }
        CastColumn { column, to } => {
            let t = primary()?;
            let cast = t.column(column)?.cast(*to)?;
            Ok(SkillOutput::Table(t.with_column(column, cast)?))
        }
        Sample { fraction, seed } => Ok(SkillOutput::Table(sample_fraction(
            primary()?,
            *fraction,
            *seed,
        )?)),
        ShuffleRows { seed } => {
            let t = primary()?;
            let mut idx: Vec<usize> = (0..t.num_rows()).collect();
            let mut rng = StdRng::seed_from_u64(*seed);
            idx.shuffle(&mut rng);
            Ok(SkillOutput::Table(t.take(&idx)))
        }

        // ----- machine learning -----
        PredictTimeSeries {
            measures,
            horizon,
            time_column,
        } => Ok(SkillOutput::Table(predict_time_series(
            primary()?,
            measures,
            *horizon,
            time_column,
        )?)),
        DetectOutliers { column, method } => {
            let t = primary()?;
            let col = t.column(column)?;
            let vals: Vec<Option<f64>> = (0..col.len()).map(|i| col.numeric_at(i)).collect();
            let flags = detect_outliers(&vals, *method)?;
            let name = t.schema().fresh_name(&format!("IsOutlier_{column}"));
            Ok(SkillOutput::Table(
                t.with_column(&name, Column::from_bools(flags))?,
            ))
        }
        Cluster { k, features } => {
            let t = primary()?;
            let cols: Vec<&Column> = features
                .iter()
                .map(|f| t.column(f))
                .collect::<dc_engine::Result<_>>()?;
            let mut points = Vec::new();
            let mut kept = Vec::new();
            'rows: for r in 0..t.num_rows() {
                let mut p = Vec::with_capacity(cols.len());
                for c in &cols {
                    match c.numeric_at(r) {
                        Some(v) => p.push(v),
                        None => continue 'rows,
                    }
                }
                points.push(p);
                kept.push(r);
            }
            let model = fit_kmeans(&points, *k, 42)?;
            let labels = model.predict(&points)?;
            let mut col_vals: Vec<Option<i64>> = vec![None; t.num_rows()];
            for (&r, &l) in kept.iter().zip(&labels) {
                col_vals[r] = Some(l as i64);
            }
            let name = t.schema().fresh_name("Cluster");
            Ok(SkillOutput::Table(
                t.with_column(&name, Column::from_opt_ints(col_vals))?,
            ))
        }
        ExportCsv => Ok(SkillOutput::Text(write_csv(primary()?))),

        // ----- collaboration / platform -----
        Comment { text } => Ok(SkillOutput::Text(text.clone())),
        ShareArtifact {
            artifact,
            with_user,
        } => Ok(SkillOutput::Text(format!(
            "Shared {artifact} with {with_user}"
        ))),

        other => Err(SkillError::invalid(format!(
            "{} requires the execution environment",
            other.name()
        ))),
    }
}

/// Time-series prediction (Figure 2 step 3): fit trend + seasonality on
/// the measure columns, forecast `horizon` steps, and emit a table with
/// the advanced time column, predicted measures, and
/// `RecordType = "Predicted"`.
fn predict_time_series(
    t: &Table,
    measures: &[String],
    horizon: usize,
    time_column: &str,
) -> Result<Table> {
    if horizon == 0 {
        return Err(SkillError::invalid("horizon must be positive"));
    }
    if measures.is_empty() {
        return Err(SkillError::invalid("at least one measure column required"));
    }
    // Sort by time first so the series is well ordered.
    let sorted = sort_by(t, &[SortKey::asc(time_column)])?;
    let time_col = sorted.column(time_column)?;
    let is_date = time_col.dtype() == dc_engine::DataType::Date;

    // Collect valid time points.
    let times: Vec<f64> = (0..sorted.num_rows())
        .filter_map(|i| time_col.numeric_at(i))
        .collect();
    let last = match times[..] {
        [.., last] if times.len() >= 3 => last,
        _ => {
            return Err(SkillError::Ml(dc_ml::MlError::InsufficientData {
                needed: 3,
                got: times.len(),
            }))
        }
    };
    // Median spacing.
    let mut deltas: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let spacing = deltas[deltas.len() / 2];

    // Future time values.
    let future_times: Vec<Value> = (1..=horizon)
        .map(|k| {
            if is_date {
                let base = last as i32;
                // Quarterly/monthly/annual calendar stepping when the
                // spacing matches; otherwise uniform day steps.
                let stepped = if (89.0..=92.0).contains(&spacing) {
                    dc_engine::date::add_months(base, 3 * k as i32)
                } else if (28.0..=31.0).contains(&spacing) {
                    dc_engine::date::add_months(base, k as i32)
                } else if (365.0..=366.0).contains(&spacing) {
                    dc_engine::date::add_years(base, k as i32)
                } else {
                    base + (spacing as i32) * k as i32
                };
                Value::Date(stepped)
            } else if time_col.dtype() == dc_engine::DataType::Int {
                // The median spacing is one difference of two integers.
                let step = (spacing as i64).saturating_mul(k as i64);
                Value::Int((last as i64).saturating_add(step))
            } else {
                Value::Float(last + spacing * k as f64)
            }
        })
        .collect();

    // One fitted model per measure; seasonality guessed from spacing
    // (quarterly data gets an annual cycle).
    let period = if is_date && (89.0..=92.0).contains(&spacing) {
        4
    } else if is_date && (28.0..=31.0).contains(&spacing) {
        12
    } else {
        1
    };
    let mut out = Table::empty();
    let mut time_out = Column::empty(time_col.dtype());
    for v in &future_times {
        time_out.push_value(v)?;
    }
    // Under the name the table spells it with.
    let time_name = sorted.schema().field(time_column).map(|f| f.name.as_str());
    out.add_column(time_name.unwrap_or(time_column), time_out)?;
    for m in measures {
        let col = sorted.column(m)?;
        if !col.dtype().is_numeric() {
            return Err(SkillError::invalid(format!(
                "measure column {m} must be numeric"
            )));
        }
        let series: Vec<f64> = (0..sorted.num_rows())
            .filter_map(|i| {
                time_col.numeric_at(i)?;
                col.numeric_at(i)
            })
            .collect();
        let period = if series.len() > 2 * period { period } else { 1 };
        let model = fit_time_series(&series, period)?;
        let preds = model.forecast(horizon);
        out.add_column(m, Column::from_floats(preds))?;
    }
    out.add_column("RecordType", Column::from_strs(vec!["Predicted"; horizon]))?;
    Ok(out)
}

/// SQL table provider over every database in the environment's catalog
/// (tables resolve by bare name across databases, first match wins).
struct CatalogProvider<'e> {
    env: &'e Env,
}

impl dc_sql::TableProvider for CatalogProvider<'_> {
    fn get_table(&self, name: &str) -> dc_sql::Result<Table> {
        for db_name in self.env.catalog.database_names() {
            if let Ok(db) = self.env.catalog.database(db_name) {
                if db
                    .table_names()
                    .iter()
                    .any(|t| t.eq_ignore_ascii_case(name))
                {
                    let (t, _) = db.scan(name, &ScanOptions::full()).map_err(|e| {
                        let retryable = e.is_retryable();
                        dc_sql::SqlError::provider(e, retryable)
                    })?;
                    return Ok(t);
                }
            }
        }
        Err(dc_sql::SqlError::TableNotFound {
            name: name.to_string(),
        })
    }
}

/// Counters for one executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    pub nodes_executed: u64,
    /// Sub-DAG results served without executing, from either cache tier.
    pub cache_hits: u64,
    /// The subset of `cache_hits` served by the cross-session
    /// [`MaterializedCache`](crate::MaterializedCache) rather than this
    /// executor's own cache.
    pub shared_hits: u64,
    /// Scan footprint (`bytes_scanned + bytes_pruned`) that cache hits
    /// avoided re-charging against storage.
    pub bytes_saved: u64,
    /// Extra attempts spent absorbing retryable failures (under a policy
    /// that retries; [`Executor::run`] never does).
    pub retries: u64,
}

/// A dense structural sub-DAG id, numbered in first-seen order.
pub type SubDagId = u64;

/// Structural sub-DAG ids for every node of `dag`: its unsalted
/// [`SubDagKey`]s ([`sub_dag_keys`] without an environment) renumbered
/// densely in first-seen order. Structurally identical sub-DAGs share an
/// id — the property the static analyzer's duplicate-sub-DAG pass and the
/// estimator's dedup are built on.
pub fn structural_ids(dag: &SkillDag) -> HashMap<NodeId, SubDagId> {
    let mut dense: HashMap<SharedKey, SubDagId> = HashMap::new();
    let keys = sub_dag_keys(dag, None).into_iter().enumerate();
    keys.map(|(node, key)| {
        let next = dense.len() as SubDagId;
        (node, *dense.entry(key.hash).or_insert(next))
    })
    .collect()
}

/// Instrumentation callback invoked just before a node executes.
pub(crate) type BeforeExecuteHook = Arc<dyn Fn(&SkillCall) + Send + Sync>;

/// One checkpointed sub-DAG result.
pub(crate) struct Checkpoint {
    pub(crate) output: SkillOutput,
    /// The table that flows on to the node's consumers.
    pub(crate) flow: Arc<Table>,
    /// Scan footprint (`bytes_scanned + bytes_pruned`) of the whole
    /// sub-DAG, the recompute cost a hit saves.
    pub(crate) footprint: u64,
}

/// Executes DAG nodes with a sub-DAG result cache (§2.2: "the conversion
/// of skill calls to execution tasks is also aware of a caching layer
/// that can execute directly on previous results based on a shared skill
/// sub-DAG").
///
/// Nodes run in topological *waves* ([`Executor::run_resilient`] is the
/// one body that walks a DAG): every uncached node whose inputs are
/// materialized belongs to the current wave, and the wave's pure nodes
/// ([`needs_env`] = false) execute concurrently on the engine's worker
/// pool (`dc_engine::parallel`, the calling thread included). A cached
/// output and its flow table share their columns, so cache hits, fan-out
/// reuse and the value [`Executor::run`] returns are pointer copies, never
/// deep clones.
pub struct Executor {
    /// Whether the driver plans each DAG with the cost-based optimizer
    /// ([`crate::optimize::optimize_dag`]) before walking it — the one
    /// switch, whichever entry point is used. On by default; turn off to
    /// execute plans exactly as written (the rewrites are invisible to
    /// results either way).
    pub optimize: bool,
    /// Checkpointed results by [`SubDagKey`] hash.
    pub(crate) checkpoints: HashMap<SharedKey, Checkpoint>,
    /// The checkpoints' flow-table bytes, kept on every insert.
    bytes: u64,
    pub stats: ExecutorStats,
    /// Test/chaos instrumentation (e.g. to make specific nodes slow or
    /// panic on demand).
    pub(crate) before_execute: Option<BeforeExecuteHook>,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor {
            optimize: true,
            checkpoints: HashMap::new(),
            bytes: 0,
            stats: ExecutorStats::default(),
            before_execute: None,
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("cache_len", &self.checkpoints.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Executor {
    /// A fresh executor with an empty cache.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Approximate heap bytes held by checkpointed sub-DAG results: each
    /// entry's flow table, which is also its output table's buffers. The
    /// serving layer polls this to keep long-lived session executors
    /// memory-bounded.
    pub fn cache_bytes(&self) -> u64 {
        self.bytes
    }

    /// Checkpoint `key`'s result, keeping the byte counter.
    fn checkpoint(&mut self, key: SharedKey, checkpoint: Checkpoint) {
        self.bytes += checkpoint.flow.byte_size() as u64;
        if let Some(old) = self.checkpoints.insert(key, checkpoint) {
            self.bytes -= old.flow.byte_size() as u64;
        }
    }

    /// Execute `target` (and any un-cached ancestors), returning its
    /// output — a table output shares its columns with the cached entry.
    /// Non-transforming skills pass their input table through to
    /// downstream consumers.
    /// A failed or panicking node arrives as its error — the first in
    /// topological order — and everything that completed beside it stays
    /// checkpointed, so running the target again executes only the failed
    /// node and its dependents.
    pub fn run(&mut self, dag: &SkillDag, target: NodeId, env: &mut Env) -> Result<SkillOutput> {
        self.run_resilient(dag, target, env, &ExecPolicy::plain())?
            .into_output()
    }

    /// The downstream-facing table of a node, executed as
    /// [`Executor::run`] would. The table is shared with the cache: on a
    /// warm cache this is a pointer copy, not a deep clone.
    pub fn table_of(&mut self, dag: &SkillDag, node: NodeId, env: &mut Env) -> Result<Arc<Table>> {
        let (report, key) = self.drive(dag, node, env, &ExecPolicy::plain())?;
        report.into_output()?;
        match self.checkpoints.get(&key) {
            Some(checkpoint) => Ok(Arc::clone(&checkpoint.flow)),
            None => Err(SkillError::invalid("execution produced no table")),
        }
    }

    /// Install an instrumentation hook invoked just before every node
    /// executes (on whichever thread runs the node). Tests use it to make
    /// nodes slow; the chaos harness uses it to make nodes panic.
    pub fn set_before_execute(&mut self, hook: impl Fn(&SkillCall) + Send + Sync + 'static) {
        self.before_execute = Some(Arc::new(hook));
    }

    /// Probe the cross-session cache for a shareable `key`, checkpointing a
    /// hit (output and flow table both zero-copy, inherited footprint) and
    /// counting it. Returns whether the probe hit.
    pub(crate) fn probe_shared(&mut self, env: &Env, key: SubDagKey) -> bool {
        let (Some(shared), true) = (env.shared_cache.as_deref(), key.shareable) else {
            return false;
        };
        let Some(hit) = shared.get_as(key.hash, env.attribution.as_deref()) else {
            return false;
        };
        self.stats.cache_hits += 1;
        self.stats.shared_hits += 1;
        self.stats.bytes_saved += hit.footprint_bytes;
        let checkpoint = Checkpoint {
            output: hit.output,
            flow: hit.table,
            footprint: hit.footprint_bytes,
        };
        self.checkpoint(key.hash, checkpoint);
        true
    }

    /// A node's input tables as shared handles (pointer copies).
    pub(crate) fn input_tables(&self, node: &SkillNode, keys: &[SubDagKey]) -> Vec<Arc<Table>> {
        let flow = |&i: &NodeId| Arc::clone(&self.checkpoints[&keys[i].hash].flow);
        node.inputs.iter().map(flow).collect()
    }

    /// Record one executed node's output and downstream-facing table,
    /// accumulate its sub-DAG scan footprint, and — for results of
    /// version-addressable sub-DAGs — publish it to the cross-session
    /// cache. `chain` is the pipeline the node ran at the top of (the load
    /// first; empty for a node that ran alone): its nodes executed but keep
    /// no checkpoint, and their scan is the node's own.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &mut self,
        dag: &SkillDag,
        node: &SkillNode,
        chain: &[NodeId],
        keys: &[SubDagKey],
        inputs: Vec<Arc<Table>>,
        output: SkillOutput,
        own_scan_bytes: u64,
        env: &Env,
    ) {
        self.stats.nodes_executed += 1 + chain.len() as u64;
        let key = keys[node.id];
        let input = |i: &NodeId| self.checkpoints[&keys[*i].hash].footprint;
        let footprint = match chain {
            [] => own_scan_bytes + node.inputs.iter().map(input).sum::<u64>(),
            _ => own_scan_bytes,
        };
        // Every flow table has the schema the call's contract declares,
        // whenever it declares one, and as many rows as the call's row rule
        // allows for the rows its inputs actually hold: checked in debug
        // builds, where every run is an oracle for the contract the analyzer
        // calls. A pipeline's flow is checked against the contract composed
        // up its chain from the load, whose tables are never made.
        let declared = cfg!(debug_assertions).then(|| {
            let mut schemas: Vec<_> = inputs.iter().map(|t| Some(t.schema().clone())).collect();
            let mut rows_in: Vec<_> = (node.inputs.iter().zip(&inputs))
                .map(|(&id, t)| RowInput {
                    rows: RowBounds::exactly(t.num_rows() as u64),
                    dag,
                    node: id,
                })
                .collect();
            let mut declared = (None, RowBounds::UNKNOWN);
            for &id in chain.iter().chain([&node.id]) {
                let call = &dag.nodes()[id].call;
                let refs: Vec<_> = schemas.iter().map(Option::as_ref).collect();
                declared = (
                    contract(call, &refs, env, env).schema,
                    rows(call, &rows_in, env),
                );
                schemas = vec![declared.0.clone()];
                rows_in = vec![RowInput {
                    rows: declared.1,
                    dag,
                    node: id,
                }];
            }
            declared
        });
        let flow = match output.as_table() {
            Some(t) if node.call.transforms_data() => Arc::new(t.clone()),
            _ => inputs
                .into_iter()
                .next()
                .unwrap_or_else(|| Arc::new(Table::empty())),
        };
        if let Some((schema, bounds)) = declared {
            let (call, n) = (node.call.name(), flow.num_rows() as u64);
            if let Some(schema) = schema {
                let message = "flows what its contract does not declare";
                debug_assert_eq!(flow.schema(), &schema, "{call} {message}");
            }
            let message = "rows, outside its contract's";
            debug_assert!(bounds.contains(n), "{call} flows {n} {message} {bounds:?}");
        }
        if footprint > 0 && key.shareable {
            if let Some(shared) = &env.shared_cache {
                let who = env.attribution.as_deref();
                shared.admit_as(key.hash, output.clone(), Arc::clone(&flow), footprint, who);
            }
        }
        let checkpoint = Checkpoint {
            output,
            flow,
            footprint,
        };
        self.checkpoint(key.hash, checkpoint);
    }

    /// Drop all checkpointed results. The map's capacity is released too:
    /// a registry holds every session it ever opened, so a cleared session
    /// should cost its DAG and log, not its largest run.
    pub fn clear_cache(&mut self) {
        self.checkpoints = HashMap::new();
        self.bytes = 0;
    }

    /// Number of cached sub-DAG results.
    pub fn cache_len(&self) -> usize {
        self.checkpoints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_storage::{CloudDatabase, Pricing};

    fn env_with_table() -> Env {
        let mut env = Env::new();
        let mut db = CloudDatabase::new("MainDatabase", Pricing::default_cloud());
        let t = Table::new(vec![
            ("x", Column::from_ints((0..100).collect())),
            (
                "category",
                Column::from_strs(
                    (0..100)
                        .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                        .collect(),
                ),
            ),
        ])
        .unwrap();
        db.create_table("numbers", &t).unwrap();
        env.catalog.add_database(db).unwrap();
        env
    }

    fn load_dag() -> (SkillDag, NodeId) {
        let mut dag = SkillDag::new();
        let load = dag
            .add(SkillCall::load_table("MainDatabase", "numbers"), vec![])
            .unwrap();
        (dag, load)
    }

    #[test]
    fn load_filter_limit_pipeline() {
        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").ge(Expr::lit(50i64)),
                },
                vec![load],
            )
            .unwrap();
        let l = dag.add(SkillCall::Limit { n: 5 }, vec![f]).unwrap();
        let mut ex = Executor::new();
        let out = ex.run(&dag, l, &mut env).unwrap().into_table().unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(out.value(0, "x").unwrap(), Value::Int(50));
    }

    #[test]
    fn cache_hits_on_shared_subdag() {
        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let f = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").ge(Expr::lit(10i64)),
                },
                vec![load],
            )
            .unwrap();
        let a = dag.add(SkillCall::Limit { n: 5 }, vec![f]).unwrap();
        let b = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec::count_records("n")],
                    for_each: vec!["category".into()],
                },
                vec![f],
            )
            .unwrap();
        let mut ex = Executor::new();
        ex.run(&dag, a, &mut env).unwrap();
        assert_eq!(ex.stats.nodes_executed, 3);
        assert_eq!(ex.stats.cache_hits, 0);
        // Second request shares the load+filter sub-DAG.
        ex.run(&dag, b, &mut env).unwrap();
        assert_eq!(ex.stats.nodes_executed, 4); // only the Compute ran
        assert_eq!(ex.stats.cache_hits, 2);
        // The cloud table was scanned exactly once.
        assert_eq!(
            env.catalog
                .database("MainDatabase")
                .unwrap()
                .meter()
                .queries(),
            1
        );
    }

    #[test]
    fn exploration_passes_data_through() {
        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let describe = dag
            .add(SkillCall::DescribeColumn { column: "x".into() }, vec![load])
            .unwrap();
        let after = dag.add(SkillCall::Limit { n: 3 }, vec![describe]).unwrap();
        let mut ex = Executor::new();
        let summaries = ex.run(&dag, describe, &mut env).unwrap();
        assert!(matches!(summaries, SkillOutput::Summaries(_)));
        // Downstream of the describe, the table still flows.
        let out = ex.run(&dag, after, &mut env).unwrap().into_table().unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn compute_skill_matches_figure3() {
        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let c = dag
            .add(
                SkillCall::Compute {
                    aggs: vec![dc_engine::AggSpec::new(
                        dc_engine::AggFunc::Count,
                        "x",
                        "NumberOfCases",
                    )],
                    for_each: vec!["category".into()],
                },
                vec![load],
            )
            .unwrap();
        let mut ex = Executor::new();
        let out = ex.run(&dag, c, &mut env).unwrap().into_table().unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.schema().names(), vec!["category", "NumberOfCases"]);
    }

    #[test]
    fn train_and_predict_roundtrip() {
        let mut env = Env::new();
        env.add_file("train.csv", &{
            let mut s = String::from("x,y\n");
            for i in 0..50 {
                s.push_str(&format!("{i},{}\n", 2 * i + 1));
            }
            s
        });
        let mut dag = SkillDag::new();
        let load = dag
            .add(
                SkillCall::LoadFile {
                    path: "train.csv".into(),
                },
                vec![],
            )
            .unwrap();
        let train = dag
            .add(
                SkillCall::TrainModel {
                    name: "m".into(),
                    target: "y".into(),
                    features: vec![],
                    method: dc_ml::MlMethod::Auto,
                },
                vec![load],
            )
            .unwrap();
        let pred = dag
            .add(SkillCall::Predict { model: "m".into() }, vec![train])
            .unwrap();
        let mut ex = Executor::new();
        let out = ex.run(&dag, pred, &mut env).unwrap().into_table().unwrap();
        let p = out.value(10, "Predicted_y").unwrap().as_f64().unwrap();
        assert!((p - 21.0).abs() < 1e-6);
    }

    #[test]
    fn time_series_prediction_outputs_record_type() {
        // The Figure 2 shape: quarterly dates, 12-step horizon.
        let dates: Vec<i32> = (0..40)
            .map(|q| dc_engine::date::add_months(dc_engine::date::days_from_ymd(2005, 1, 1), 3 * q))
            .collect();
        let vals: Vec<f64> = (0..40).map(|q| 100.0 + 2.0 * q as f64).collect();
        let t = Table::new(vec![
            ("DATE", Column::from_dates(dates)),
            ("GDPC1", Column::from_floats(vals)),
        ])
        .unwrap();
        let out = predict_time_series(&t, &["GDPC1".to_string()], 12, "DATE").unwrap();
        assert_eq!(out.num_rows(), 12);
        assert_eq!(out.schema().names(), vec!["DATE", "GDPC1", "RecordType"]);
        assert_eq!(
            out.value(0, "RecordType").unwrap(),
            Value::Str("Predicted".into())
        );
        // First forecast continues the trend.
        let first = out.value(0, "GDPC1").unwrap().as_f64().unwrap();
        assert!((first - 180.0).abs() < 1.0, "{first}");
        // Dates advance quarterly.
        assert_eq!(
            out.value(0, "DATE").unwrap(),
            Value::Date(dc_engine::date::add_months(
                dc_engine::date::days_from_ymd(2005, 1, 1),
                3 * 40
            ))
        );
    }

    #[test]
    fn run_sql_against_catalog() {
        let mut env = env_with_table();
        let mut dag = SkillDag::new();
        let q = dag
            .add(
                SkillCall::RunSql {
                    query: "SELECT category, COUNT(*) AS n FROM numbers GROUP BY category".into(),
                },
                vec![],
            )
            .unwrap();
        let mut ex = Executor::new();
        let out = ex.run(&dag, q, &mut env).unwrap().into_table().unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn snapshot_skill_persists() {
        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let snap = dag
            .add(
                SkillCall::Snapshot {
                    name: "snap1".into(),
                },
                vec![load],
            )
            .unwrap();
        let mut ex = Executor::new();
        ex.run(&dag, snap, &mut env).unwrap();
        assert_eq!(env.snapshots.read("snap1").unwrap().num_rows(), 100);
        // UseSnapshot reads it back.
        let mut dag2 = SkillDag::new();
        let use_snap = dag2
            .add(
                SkillCall::UseSnapshot {
                    name: "snap1".into(),
                },
                vec![],
            )
            .unwrap();
        let out = ex
            .run(&dag2, use_snap, &mut env)
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(out.num_rows(), 100);
    }

    #[test]
    fn missing_sources_error() {
        let mut env = Env::new();
        let mut dag = SkillDag::new();
        let load = dag
            .add(
                SkillCall::LoadFile {
                    path: "none.csv".into(),
                },
                vec![],
            )
            .unwrap();
        let mut ex = Executor::new();
        assert!(matches!(
            ex.run(&dag, load, &mut env),
            Err(SkillError::SourceNotFound { .. })
        ));
    }

    #[test]
    fn fill_and_replace_values() {
        let mut env = Env::new();
        env.add_file("d.csv", "v\n1\n\n3\n");
        let mut dag = SkillDag::new();
        let load = dag
            .add(
                SkillCall::LoadFile {
                    path: "d.csv".into(),
                },
                vec![],
            )
            .unwrap();
        let fill = dag
            .add(
                SkillCall::FillMissing {
                    column: "v".into(),
                    value: Value::Int(0),
                },
                vec![load],
            )
            .unwrap();
        let replace = dag
            .add(
                SkillCall::ReplaceValues {
                    column: "v".into(),
                    from: Value::Int(3),
                    to: Value::Int(30),
                },
                vec![fill],
            )
            .unwrap();
        let mut ex = Executor::new();
        let out = ex
            .run(&dag, replace, &mut env)
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(out.value(1, "v").unwrap(), Value::Int(0));
        assert_eq!(out.value(2, "v").unwrap(), Value::Int(30));
    }

    /// Regression test for the flat-string cache keys this executor
    /// replaced: `"{call}|{inputs.join(\"|\")}"` loses input grouping, so
    /// `T(M(p, q))` and `T(M(p), q)` aliased to one key and the second
    /// target was served the first target's cached result. The
    /// structural interner must keep them distinct.
    #[test]
    fn structural_keys_distinguish_input_groupings() {
        let mut env = Env::new();
        let mut dag = SkillDag::new();
        let c = |text: &str| SkillCall::Comment { text: text.into() };
        let p = dag.add(c("p"), vec![]).unwrap();
        let q = dag.add(c("q"), vec![]).unwrap();
        let m_pq = dag.add(c("m"), vec![p, q]).unwrap();
        let t_of_m_pq = dag.add(c("t"), vec![m_pq]).unwrap();
        let m_p = dag.add(c("m"), vec![p]).unwrap();
        let t_of_m_p_q = dag.add(c("t"), vec![m_p, q]).unwrap();

        // Demonstrate that the two targets collide under the old scheme.
        let legacy_key = |dag: &SkillDag, target: NodeId| -> String {
            let mut keys: HashMap<NodeId, String> = HashMap::new();
            for &id in &dag.ancestors(target).unwrap() {
                let node = dag.node(id).unwrap();
                let input_keys: Vec<&str> = node.inputs.iter().map(|i| keys[i].as_str()).collect();
                let key = format!("{}|{}", node.call.cache_key(), input_keys.join("|"));
                keys.insert(id, key);
            }
            keys.remove(&target).unwrap()
        };
        assert_eq!(legacy_key(&dag, t_of_m_pq), legacy_key(&dag, t_of_m_p_q));

        let mut ex = Executor::new();
        ex.run(&dag, t_of_m_pq, &mut env).unwrap();
        assert_eq!(ex.stats.nodes_executed, 4);
        // The second target shares only p and q with the first; m and t
        // have different input sub-DAGs and must execute again.
        ex.run(&dag, t_of_m_p_q, &mut env).unwrap();
        assert_eq!(ex.stats.nodes_executed, 6);
        assert_eq!(ex.stats.cache_hits, 2);
        assert_eq!(ex.cache_len(), 6);
    }

    /// `x < 50` and `x >= 50` over one load, concatenated:
    /// `(dag, left, right, both)`.
    fn diamond() -> (SkillDag, NodeId, NodeId, NodeId) {
        let (mut dag, load) = load_dag();
        let left = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").lt(Expr::lit(50i64)),
                },
                vec![load],
            )
            .unwrap();
        let right = dag
            .add(
                SkillCall::KeepRows {
                    predicate: Expr::col("x").ge(Expr::lit(50i64)),
                },
                vec![load],
            )
            .unwrap();
        let both = dag
            .add(
                SkillCall::Concat {
                    other: "right".into(),
                    remove_duplicates: false,
                },
                vec![left, right],
            )
            .unwrap();
        (dag, left, right, both)
    }

    /// Two independent slow branches of a diamond must overlap: total
    /// latency stays near one branch's latency, not the sum. Overlap needs
    /// a second thread, so on one core there is nothing to check.
    #[test]
    fn diamond_waves_overlap_slow_branches() {
        use std::time::{Duration, Instant};

        if dc_engine::parallel::num_threads() < 2 {
            return;
        }
        let mut env = env_with_table();
        let (dag, _, _, both) = diamond();
        let mut ex = Executor::new();
        ex.set_before_execute(|call| {
            if matches!(call, SkillCall::KeepRows { .. }) {
                std::thread::sleep(Duration::from_millis(120));
            }
        });
        let start = Instant::now();
        let out = ex.run(&dag, both, &mut env).unwrap().into_table().unwrap();
        let elapsed = start.elapsed();
        assert_eq!(out.num_rows(), 100);
        assert!(elapsed >= Duration::from_millis(120));
        // Serial execution would take >= 240ms; allow generous headroom
        // for the surrounding (fast) load and concat work.
        assert!(
            elapsed < Duration::from_millis(220),
            "branches did not overlap: {elapsed:?}"
        );
    }

    /// A wave of 16 slow pure nodes draws from the pool's budget: never
    /// more than `num_threads()` of them run at once, and the result is
    /// the serial walk's.
    #[test]
    fn a_wide_wave_runs_at_most_num_threads_nodes_at_once_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let mut level: Vec<NodeId> = (0..16i64)
            .map(|k| {
                let predicate = Expr::col("x").ge(Expr::lit(6 * k));
                dag.add(SkillCall::KeepRows { predicate }, vec![load])
                    .unwrap()
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    let concat = SkillCall::Concat {
                        other: "right".into(),
                        remove_duplicates: false,
                    };
                    dag.add(concat, pair.to_vec()).unwrap()
                })
                .collect();
        }
        let top = level[0];

        let (in_flight, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let mut ex = Executor::new();
        let (now, most) = (Arc::clone(&in_flight), Arc::clone(&peak));
        ex.set_before_execute(move |call| {
            if matches!(call, SkillCall::KeepRows { .. }) {
                most.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                now.fetch_sub(1, Ordering::SeqCst);
            }
        });
        let out = ex.table_of(&dag, top, &mut env).unwrap();
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= dc_engine::parallel::num_threads(),
            "{peak} nodes ran at once on {} threads",
            dc_engine::parallel::num_threads()
        );

        // The serial walk: one new node per run, in id order.
        let mut serial = Executor::new();
        for id in 0..=top {
            serial.run(&dag, id, &mut env).unwrap();
        }
        assert_eq!(out, serial.table_of(&dag, top, &mut env).unwrap());
        assert_eq!(serial.stats.nodes_executed, ex.stats.nodes_executed);
    }

    /// A skill that panics under `run` arrives as `SkillError::Panic` and
    /// takes nothing with it: its sibling is checkpointed, and a second
    /// `run` executes the failed node and its dependent only.
    #[test]
    fn a_panicking_node_fails_typed_and_spares_its_sibling() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let mut env = env_with_table();
        let (dag, left, _, both) = diamond();
        let doomed = dag.node(left).unwrap().call.clone();
        let armed = Arc::new(AtomicBool::new(true));
        let mut ex = Executor::new();
        let flag = Arc::clone(&armed);
        ex.set_before_execute(move |call| {
            if flag.load(Ordering::SeqCst) && *call == doomed {
                panic!("injected");
            }
        });

        match ex.run(&dag, both, &mut env) {
            Err(SkillError::Panic { skill, message }) => {
                assert_eq!((skill.as_str(), message.as_str()), ("KeepRows", "injected"));
            }
            other => panic!("expected a typed panic, got {other:?}"),
        }
        assert_eq!(
            ex.stats.nodes_executed, 2,
            "the load and the sibling filter"
        );
        assert_eq!(ex.cache_len(), 2);

        armed.store(false, Ordering::SeqCst);
        let out = ex.run(&dag, both, &mut env).unwrap().into_table().unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(
            ex.stats.nodes_executed, 4,
            "the failed filter and the concat"
        );
        assert_eq!(ex.stats.cache_hits, 2);
    }

    /// Budgets longer than an `Instant` can reach are no budget at all: the
    /// run's deadline and the scan's cancel deadline are left unset instead
    /// of overflowing, whichever of the two (or both) is that long.
    #[test]
    fn unbounded_budgets_run_to_completion() {
        use std::time::Duration;

        let mut env = env_with_table();
        let (dag, load) = load_dag();
        let max = Some(Duration::MAX);
        for (node_budget, run_budget) in [(max, None), (None, max), (max, max)] {
            let policy = ExecPolicy {
                node_budget,
                run_budget,
                ..ExecPolicy::default()
            };
            let mut ex = Executor::new();
            let report = ex.run_resilient(&dag, load, &mut env, &policy).unwrap();
            let out = report.into_output().unwrap().into_table().unwrap();
            assert_eq!(out.num_rows(), 100);
        }
    }

    /// `cache_bytes` counts each checkpoint's flow table once, falls to
    /// zero with `clear_cache`, and counts again from there.
    #[test]
    fn cache_bytes_counts_checkpoints_and_clears_to_zero() {
        let mut env = env_with_table();
        let (mut dag, load) = load_dag();
        let predicate = Expr::col("x").ge(Expr::lit(50i64));
        let kept = dag.add(SkillCall::KeepRows { predicate }, vec![load]);
        let nodes = [load, kept.unwrap()];
        let mut ex = Executor::new();
        ex.optimize = false;
        let mut flows = |ex: &mut Executor| -> u64 {
            let tables = nodes.map(|n| ex.table_of(&dag, n, &mut env).unwrap());
            tables.iter().map(|t| t.byte_size() as u64).sum()
        };
        let warm = flows(&mut ex);
        assert_eq!((ex.cache_len(), ex.cache_bytes()), (2, warm));
        ex.clear_cache();
        assert_eq!((ex.cache_len(), ex.cache_bytes()), (0, 0));
        assert_eq!(flows(&mut ex), warm);
        assert_eq!(ex.cache_bytes(), warm);
    }

    /// Warm `table_of` calls share one allocation with the cache — a
    /// pointer copy, not a deep clone.
    #[test]
    fn warm_table_of_is_zero_copy() {
        let mut env = env_with_table();
        let (dag, load) = load_dag();
        let mut ex = Executor::new();
        let first = ex.table_of(&dag, load, &mut env).unwrap();
        let second = ex.table_of(&dag, load, &mut env).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(ex.stats.nodes_executed, 1);
    }
}
