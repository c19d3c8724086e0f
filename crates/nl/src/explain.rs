//! Per-skill explanations (§2.3).
//!
//! "Every skill in DataChat has the ability to explain its behavior to
//! users. For technical users, this is done by providing Python or SQL
//! code that represents the skill. ... the platform also provides a
//! declarative controlled English description of what the skill did,"
//! based on both the skill and the user's inputs.

use dc_engine::AggSpec;
use dc_gel::format_skill;
use dc_skills::SkillCall;

use crate::pyapi::format_call;

/// A skill's explanation in every dialect the platform offers.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The canonical GEL sentence (what recipes display).
    pub gel: String,
    /// Python API form, when the skill has one.
    pub python: Option<String>,
    /// SQL fragment, when the skill lowers to SQL.
    pub sql: Option<String>,
    /// A fuller English description of what the skill does with these
    /// inputs — prose, not a command.
    pub english: String,
}

/// Explain one skill call.
pub fn explain_skill(call: &SkillCall) -> Explanation {
    Explanation {
        gel: format_skill(call),
        python: format_call(call).ok().map(|c| format!("dataset.{c}")),
        sql: sql_fragment(call),
        english: english_of(call),
    }
}

fn agg_english(a: &AggSpec) -> String {
    match &a.column {
        Some(c) => format!("the {} of column {c} (as {})", a.func.gel_name(), a.output),
        None => format!("the {} (as {})", a.func.gel_name(), a.output),
    }
}

fn sql_fragment(call: &SkillCall) -> Option<String> {
    use SkillCall::*;
    Some(match call {
        KeepRows { predicate } => format!("WHERE {}", predicate.to_sql()),
        DropRows { predicate } => format!("WHERE NOT {}", predicate.to_sql()),
        KeepColumns { columns } => format!("SELECT {}", columns.join(", ")),
        CreateColumn { name, expr } => format!("SELECT *, {} AS {name}", expr.to_sql()),
        Compute { aggs, for_each } => {
            let items: Vec<String> = aggs
                .iter()
                .map(|a| match &a.column {
                    Some(c) => format!("{}({c}) AS {}", a.func.name().to_uppercase(), a.output),
                    None => format!("COUNT(*) AS {}", a.output),
                })
                .collect();
            if for_each.is_empty() {
                format!("SELECT {}", items.join(", "))
            } else {
                format!(
                    "SELECT {}, {} GROUP BY {}",
                    for_each.join(", "),
                    items.join(", "),
                    for_each.join(", ")
                )
            }
        }
        Sort { keys } => format!(
            "ORDER BY {}",
            keys.iter()
                .map(|(c, asc)| if *asc { c.clone() } else { format!("{c} DESC") })
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Limit { n } => format!("LIMIT {n}"),
        Distinct { columns } if columns.is_empty() => "SELECT DISTINCT *".to_string(),
        Join {
            other,
            left_on,
            right_on,
            how,
        } => format!(
            "{} {other} ON {}",
            how.sql(),
            left_on
                .iter()
                .zip(right_on)
                .map(|(l, r)| format!("{l} = {r}"))
                .collect::<Vec<_>>()
                .join(" AND ")
        ),
        _ => return None,
    })
}

fn english_of(call: &SkillCall) -> String {
    use SkillCall::*;
    match call {
        LoadFile { path } => format!("Reads the file {path}, infers a column type for every field, and makes the result the current dataset."),
        LoadUrl { url } => format!("Downloads {url}, parses it as CSV, and makes the result the current dataset."),
        LoadTable { database, table, columns, predicate } => {
            let pushed = predicate.as_ref().map(|p| format!("the filter {} pushed into the scan", p.to_sql()));
            match (columns, pushed) {
                (None, None) => format!("Scans the table {table} in the database {database}; the scan is metered under that database's pricing."),
                (None, Some(pushed)) => format!("Scans the table {table} in the database {database} with {pushed}, skipping blocks whose zone maps prove no row can match; only blocks actually read are metered."),
                (Some(columns), pushed) => {
                    let pred = pushed.map_or(String::new(), |p| format!(" and {p}"));
                    format!("Scans only the columns {} of the table {table} in the database {database}{pred}; untouched columns cost no scan bytes.", columns.join(", "))
                }
            }
        }
        UseDataset { name, .. } => format!("Switches the current dataset back to the earlier result named {name} without recomputing it."),
        UseSnapshot { name } => format!("Reads the locally cached snapshot {name}; no cloud scan is charged."),
        DescribeColumn { column } => format!("Summarizes column {column}: row and null counts, distinct values, and numeric moments where applicable. The data itself is unchanged."),
        DescribeDataset => "Summarizes every column of the current dataset. The data itself is unchanged.".into(),
        ListDatasets => "Lists every dataset in the connected databases with row and column counts.".into(),
        ShowHead { n } => format!("Displays the first {n} rows; the current dataset is unchanged."),
        CountRows => "Reports how many rows the current dataset has.".into(),
        ProfileMissing => "Reports the missing-value count and rate for every column.".into(),
        Visualize { kpi, by } => {
            if by.is_empty() {
                format!("Chooses chart types automatically to show the distribution of {kpi}.")
            } else {
                format!(
                    "Explores {kpi} against {} with automatically chosen charts (distributions, breakdowns, and a record-count bubble chart).",
                    by.join(", ")
                )
            }
        }
        Plot { chart, .. } => format!("Draws a {} chart from the current dataset with the given axis roles.", chart.display_name()),
        KeepRows { predicate } => format!("Keeps only the rows where {} holds; rows where the condition is false or unknown are removed.", predicate.to_sql()),
        DropRows { predicate } => format!("Removes the rows where {} holds.", predicate.to_sql()),
        KeepColumns { columns } => format!("Keeps only the columns {} (in that order); every other column is dropped.", columns.join(", ")),
        DropColumns { columns } => format!("Removes the columns {} from the dataset; all other columns stay.", columns.join(", ")),
        RenameColumn { from, to } => format!("Renames column {from} to {to}; values are unchanged."),
        CreateColumn { name, expr } => format!("Adds a column {name} computed per row as {}.", expr.to_sql()),
        CreateConstantColumn { name, value } => format!("Adds a column {name} holding the constant {} in every row.", value.render()),
        Compute { aggs, for_each } => {
            let parts: Vec<String> = aggs.iter().map(agg_english).collect();
            if for_each.is_empty() {
                format!("Collapses the dataset to one row holding {}.", parts.join(" and "))
            } else {
                format!(
                    "Groups the rows by {} and computes {} within each group; the result has one row per group.",
                    for_each.join(", "),
                    parts.join(" and ")
                )
            }
        }
        Pivot { index, columns, values, agg } => format!(
            "Builds a cross-tab: one row per {index}, one column per distinct value of {columns}, cells holding the {} of {values}.",
            agg.gel_name()
        ),
        Sort { keys } => format!(
            "Reorders the rows by {}; ties keep their previous relative order.",
            keys.iter()
                .map(|(c, asc)| format!("{c} ({})", if *asc { "ascending" } else { "descending" }))
                .collect::<Vec<_>>()
                .join(", then ")
        ),
        Top { column, n } => format!("Keeps the {n} rows with the largest {column} values."),
        Limit { n } => format!("Keeps only the first {n} rows of the current dataset, in their current order."),
        Concat { other, remove_duplicates } => {
            let tail = if *remove_duplicates { ", then removes exact duplicate rows" } else { "" };
            format!("Appends the rows of dataset {other} below the current dataset{tail}. Column names and types must line up.")
        }
        Join { other, left_on, how, .. } => format!(
            "Combines the current dataset with {other} on {} using a {}; unmatched rows follow the join type's rules.",
            left_on.join(", "),
            how.sql().to_lowercase()
        ),
        Distinct { columns } => {
            if columns.is_empty() {
                "Removes rows that duplicate an earlier row in every column.".into()
            } else {
                format!("Keeps the first row for each distinct combination of {}.", columns.join(", "))
            }
        }
        DropMissing { columns } => {
            if columns.is_empty() {
                "Removes rows with a missing value in any column.".into()
            } else {
                format!("Removes rows missing a value in {}.", columns.join(", "))
            }
        }
        FillMissing { column, value } => format!("Replaces missing values in {column} with {}.", value.render()),
        ReplaceValues { column, from, to } => format!("Replaces {} with {} wherever it appears in column {column}.", from.render(), to.render()),
        CastColumn { column, to } => format!("Converts column {column} to type {to}; values that cannot convert become missing."),
        BinColumn { column, width, .. } => format!("Buckets {column} into ranges of width {width}; each value is replaced by its bucket's lower edge in a new column."),
        ExtractDatePart { column, part, .. } => format!("Adds a column holding the {} of each date in {column}.", part.name()),
        TrimColumn { column } => format!("Strips leading and trailing whitespace from every value in {column}."),
        Sample { fraction, seed } => format!("Keeps each row independently with probability {:.0}%, using seed {seed} so the sample is reproducible.", fraction * 100.0),
        ShuffleRows { seed } => format!("Randomly reorders the rows (seed {seed}, reproducible)."),
        TrainModel { name, target, features, method } => {
            let feats = if features.is_empty() { "every numeric column".to_string() } else { features.join(", ") };
            let kind = match method {
                dc_ml::MlMethod::Auto => "a model chosen by the target's type",
                dc_ml::MlMethod::Linear => "a linear regression",
                dc_ml::MlMethod::DecisionTree => "a decision tree",
            };
            format!("Trains {kind} named {name} to predict {target} from {feats}; rows with missing inputs are skipped.")
        }
        Predict { model } => format!("Applies the stored model {model} to every row, adding a prediction column (missing where inputs are missing)."),
        PredictTimeSeries { measures, horizon, time_column } => format!(
            "Fits a trend-plus-seasonality model to {} ordered by {time_column} and forecasts the next {horizon} points, labeled RecordType = Predicted.",
            measures.join(", ")
        ),
        DetectOutliers { column, method } => {
            let m = match method {
                dc_ml::OutlierMethod::ZScore { threshold } => format!("values more than {threshold} standard deviations from the mean"),
                dc_ml::OutlierMethod::Iqr { k } => format!("values outside {k} interquartile ranges of the quartiles"),
            };
            format!("Flags outliers in {column} — {m} — in a new boolean column.")
        }
        Cluster { k, features } => format!("Assigns each row to one of {k} clusters by similarity over {}.", features.join(", ")),
        EvaluateModel { model, target } => format!("Scores the model {model} against the actual values of {target} (error metrics for regression, accuracy for classification)."),
        RunSql { query } => format!("Executes the SQL query {query} against the connected databases and makes its result the current dataset."),
        ExportCsv => "Serializes the current dataset as CSV text.".into(),
        SaveArtifact { name } => format!("Saves the current result as the artifact {name}, together with the sliced recipe that produced it."),
        Snapshot { name } => format!("Caches the current dataset as snapshot {name} in the fixed-cost local store; later reads cost nothing."),
        Define { phrase, expansion } => format!("Teaches the semantic layer that {phrase:?} means {expansion}, for use in later questions."),
        Comment { text } => format!("A note in the recipe ({text:?}); it has no effect on the data."),
        ShareArtifact { artifact, with_user } => format!("Grants {with_user} access to the artifact {artifact}, including its recipe."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{AggFunc, Expr};

    #[test]
    fn every_registry_skill_explains() {
        // One representative call per skill; every one must produce GEL +
        // English, and the English must be prose (ends with a period).
        let calls = representative_calls();
        assert!(calls.len() >= 45, "cover (nearly) the whole registry");
        for call in &calls {
            let e = explain_skill(call);
            assert!(!e.gel.is_empty());
            assert!(e.english.ends_with('.'), "{}: {}", call.name(), e.english);
            assert!(
                e.english.len() > 30,
                "{} explanation too thin: {}",
                call.name(),
                e.english
            );
        }
    }

    #[test]
    fn sql_fragments_where_applicable() {
        let e = explain_skill(&SkillCall::KeepRows {
            predicate: Expr::col("age").ge(Expr::lit(18i64)),
        });
        assert_eq!(e.sql.as_deref(), Some("WHERE (age >= 18)"));
        let e = explain_skill(&SkillCall::Compute {
            aggs: vec![dc_engine::AggSpec::new(AggFunc::Count, "case_id", "n")],
            for_each: vec!["k".into()],
        });
        assert_eq!(
            e.sql.as_deref(),
            Some("SELECT k, COUNT(case_id) AS n GROUP BY k")
        );
        // ML skills have Python but no SQL (the paper's "both SQL and
        // Python ... in most (but not all) cases").
        let e = explain_skill(&SkillCall::TrainModel {
            name: "m".into(),
            target: "y".into(),
            features: vec![],
            method: dc_ml::MlMethod::Auto,
        });
        assert!(e.sql.is_none());
        assert!(e.python.is_some());
    }

    #[test]
    fn english_uses_the_inputs() {
        let e = explain_skill(&SkillCall::Sample {
            fraction: 0.1,
            seed: 7,
        });
        assert!(e.english.contains("10%"));
        assert!(e.english.contains("seed 7"));
        assert!(e.english.contains("reproducible"));
    }

    fn representative_calls() -> Vec<SkillCall> {
        use SkillCall::*;
        vec![
            LoadFile {
                path: "a.csv".into(),
            },
            LoadUrl {
                url: "https://x/y.csv".into(),
            },
            SkillCall::load_table("db", "t"),
            UseDataset {
                name: "d".into(),
                version: None,
            },
            UseSnapshot { name: "s".into() },
            DescribeColumn { column: "c".into() },
            DescribeDataset,
            ListDatasets,
            ShowHead { n: 5 },
            CountRows,
            ProfileMissing,
            Visualize {
                kpi: "k".into(),
                by: vec!["g".into()],
            },
            Plot {
                chart: dc_viz::ChartType::Line,
                x: Some("a".into()),
                y: Some("b".into()),
                color: None,
                size: None,
                for_each: None,
            },
            KeepRows {
                predicate: Expr::col("x").gt(Expr::lit(1i64)),
            },
            DropRows {
                predicate: Expr::col("x").gt(Expr::lit(1i64)),
            },
            KeepColumns {
                columns: vec!["a".into()],
            },
            DropColumns {
                columns: vec!["a".into()],
            },
            RenameColumn {
                from: "a".into(),
                to: "b".into(),
            },
            CreateColumn {
                name: "n".into(),
                expr: Expr::col("a").add(Expr::lit(1i64)),
            },
            CreateConstantColumn {
                name: "n".into(),
                value: dc_engine::Value::Int(1),
            },
            Compute {
                aggs: vec![dc_engine::AggSpec::new(AggFunc::Avg, "v", "a")],
                for_each: vec!["k".into()],
            },
            Pivot {
                index: "i".into(),
                columns: "c".into(),
                values: "v".into(),
                agg: AggFunc::Sum,
            },
            Sort {
                keys: vec![("a".into(), false)],
            },
            Top {
                column: "v".into(),
                n: 3,
            },
            Limit { n: 10 },
            Concat {
                other: "o".into(),
                remove_duplicates: true,
            },
            Join {
                other: "o".into(),
                left_on: vec!["k".into()],
                right_on: vec!["k".into()],
                how: dc_engine::JoinType::Left,
            },
            Distinct { columns: vec![] },
            DropMissing {
                columns: vec!["a".into()],
            },
            FillMissing {
                column: "a".into(),
                value: dc_engine::Value::Int(0),
            },
            ReplaceValues {
                column: "a".into(),
                from: dc_engine::Value::Int(1),
                to: dc_engine::Value::Int(2),
            },
            CastColumn {
                column: "a".into(),
                to: dc_engine::DataType::Float,
            },
            BinColumn {
                column: "a".into(),
                width: 10,
                name: None,
            },
            ExtractDatePart {
                column: "d".into(),
                part: dc_skills::DatePart::Year,
                name: None,
            },
            TrimColumn { column: "s".into() },
            Sample {
                fraction: 0.5,
                seed: 1,
            },
            ShuffleRows { seed: 1 },
            TrainModel {
                name: "m".into(),
                target: "y".into(),
                features: vec!["x".into()],
                method: dc_ml::MlMethod::Linear,
            },
            Predict { model: "m".into() },
            PredictTimeSeries {
                measures: vec!["v".into()],
                horizon: 12,
                time_column: "d".into(),
            },
            DetectOutliers {
                column: "v".into(),
                method: dc_ml::OutlierMethod::default_zscore(),
            },
            Cluster {
                k: 3,
                features: vec!["a".into(), "b".into()],
            },
            EvaluateModel {
                model: "m".into(),
                target: "y".into(),
            },
            RunSql {
                query: "SELECT 1".into(),
            },
            ExportCsv,
            SaveArtifact { name: "a".into() },
            Snapshot { name: "s".into() },
            Define {
                phrase: "p".into(),
                expansion: "e".into(),
            },
            Comment { text: "t".into() },
            ShareArtifact {
                artifact: "a".into(),
                with_user: "u".into(),
            },
        ]
    }
}
