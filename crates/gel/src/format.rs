//! Formatting skill calls as canonical GEL sentences.
//!
//! GEL is the controlled natural language every recipe is shown in
//! (Figure 2a). [`format_skill`] emits the canonical sentence for a call;
//! [`crate::parse::parse_gel`] accepts it back (plus looser variants), so
//! recipes round-trip.

use dc_engine::{AggFunc, AggSpec, DataType, Expr, Value};
use dc_ml::OutlierMethod;
use dc_skills::{DatePart, SkillCall};
use dc_viz::ChartType;

/// Render a value for a GEL sentence (strings are bare when simple,
/// quoted when they contain commas/quotes).
pub fn format_value(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            let simple = !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ' ' || c == '-')
                && s.trim() == s;
            if simple {
                s.clone()
            } else {
                format!("'{}'", s.replace('\'', "''"))
            }
        }
        other => other.render(),
    }
}

fn format_list(items: &[String]) -> String {
    items.join(", ")
}

/// Render a predicate expression in GEL's condition syntax (the SQL
/// fragment form, which the condition parser accepts).
pub fn format_condition(e: &Expr) -> String {
    e.to_sql()
}

fn format_agg(spec: &AggSpec) -> String {
    match (spec.func, &spec.column) {
        (AggFunc::CountRecords, _) => "the count of records".to_string(),
        (f, Some(c)) => format!("the {} of {c}", f.gel_name()),
        (f, None) => format!("the {}", f.gel_name()),
    }
}

fn chart_name(c: ChartType) -> &'static str {
    c.display_name()
}

/// The canonical GEL sentence for a skill call.
pub fn format_skill(call: &SkillCall) -> String {
    use SkillCall::*;
    match call {
        LoadFile { path } => format!("Load data from the file {path}"),
        LoadUrl { url } => format!("Load data from the URL {url}"),
        LoadTable {
            database,
            table,
            columns,
            predicate,
        } => {
            let columns = columns
                .as_ref()
                .map_or(String::new(), |c| format!("columns {} of the ", format_list(c)));
            let filter = predicate
                .as_ref()
                .map_or(String::new(), |p| format!(" where {}", format_condition(p)));
            format!("Load the {columns}table {table} from the database {database}{filter}")
        }
        UseDataset { name, version } => match version {
            Some(v) => format!("Use the dataset {name}, version {v}"),
            None => format!("Use the dataset {name}"),
        },
        UseSnapshot { name } => format!("Use the snapshot {name}"),
        DescribeColumn { column } => format!("Describe the column {column}"),
        DescribeDataset => "Describe the dataset".to_string(),
        ListDatasets => "List the datasets".to_string(),
        ShowHead { n } => format!("Show the first {n} rows"),
        CountRows => "Count the rows".to_string(),
        ProfileMissing => "Profile the missing values".to_string(),
        Visualize { kpi, by } => {
            if by.is_empty() {
                format!("Visualize {kpi}")
            } else {
                format!("Visualize {kpi} by {}", format_list(by))
            }
        }
        Plot {
            chart,
            x,
            y,
            color,
            size,
            for_each,
        } => {
            let mut s = format!("Plot a {} chart", chart_name(*chart));
            let mut parts: Vec<String> = Vec::new();
            if let Some(x) = x {
                parts.push(format!("the x-axis {x}"));
            }
            if let Some(y) = y {
                parts.push(format!("the y-axis {y}"));
            }
            if let Some(c) = color {
                parts.push(format!("colored by {c}"));
            }
            if let Some(sz) = size {
                parts.push(format!("sized by {sz}"));
            }
            if !parts.is_empty() {
                s.push_str(" with ");
                s.push_str(&parts.join(", "));
            }
            if let Some(f) = for_each {
                s.push_str(&format!(", for each {f}"));
            }
            s
        }
        KeepRows { predicate } => format!("Keep the rows where {}", format_condition(predicate)),
        DropRows { predicate } => format!("Drop the rows where {}", format_condition(predicate)),
        KeepColumns { columns } => format!("Keep the columns {}", format_list(columns)),
        DropColumns { columns } => format!("Drop the columns {}", format_list(columns)),
        RenameColumn { from, to } => format!("Rename the column {from} to {to}"),
        CreateColumn { name, expr } => {
            format!("Create a new column {name} as {}", expr.to_sql())
        }
        CreateConstantColumn { name, value } => match value {
            Value::Str(_) => format!(
                "Create a new column {name} with text {}",
                format_value(value)
            ),
            _ => format!(
                "Create a new column {name} with value {}",
                format_value(value)
            ),
        },
        Compute { aggs, for_each } => {
            let agg_text: Vec<String> = aggs.iter().map(format_agg).collect();
            let mut s = format!("Compute {}", agg_text.join(" and "));
            if !for_each.is_empty() {
                s.push_str(&format!(" for each {}", format_list(for_each)));
            }
            let names: Vec<String> = aggs.iter().map(|a| a.output.clone()).collect();
            let defaults: Vec<String> = aggs
                .iter()
                .map(|a| AggSpec::default_output(a.func, a.column.as_deref()))
                .collect();
            if names != defaults {
                s.push_str(&format!(
                    " and call the computed columns {}",
                    format_list(&names)
                ));
            }
            s
        }
        Pivot {
            index,
            columns,
            values,
            agg,
        } => format!(
            "Pivot on {index} by {columns} using the {} of {values}",
            agg.gel_name()
        ),
        Sort { keys } => {
            let parts: Vec<String> = keys
                .iter()
                .map(|(c, asc)| {
                    if *asc {
                        c.clone()
                    } else {
                        format!("{c} descending")
                    }
                })
                .collect();
            format!("Sort by {}", parts.join(", "))
        }
        Top { column, n } => format!("Keep the top {n} rows by {column}"),
        Limit { n } => format!("Keep the first {n} rows"),
        Concat {
            other,
            remove_duplicates,
        } => {
            let mut s = format!("Concatenate with the dataset {other}");
            if *remove_duplicates {
                s.push_str(" remove all duplicates");
            }
            s
        }
        Join {
            other,
            left_on,
            right_on,
            how,
        } => {
            let on: Vec<String> = left_on
                .iter()
                .zip(right_on)
                .map(|(l, r)| {
                    if l.eq_ignore_ascii_case(r) {
                        l.clone()
                    } else {
                        format!("{l} = {r}")
                    }
                })
                .collect();
            let how_text = match how {
                dc_engine::JoinType::Inner => "",
                dc_engine::JoinType::Left => " as a left join",
                dc_engine::JoinType::Right => " as a right join",
                dc_engine::JoinType::Full => " as a full join",
            };
            format!(
                "Join with the dataset {other} on {}{how_text}",
                format_list(&on)
            )
        }
        Distinct { columns } => {
            if columns.is_empty() {
                "Remove duplicate rows".to_string()
            } else {
                format!("Remove duplicate rows based on {}", format_list(columns))
            }
        }
        DropMissing { columns } => {
            if columns.is_empty() {
                "Drop the rows with missing values".to_string()
            } else {
                format!("Drop the rows with missing {}", format_list(columns))
            }
        }
        FillMissing { column, value } => format!(
            "Fill the missing values of {column} with {}",
            format_value(value)
        ),
        ReplaceValues { column, from, to } => format!(
            "Replace {} with {} in the column {column}",
            format_value(from),
            format_value(to)
        ),
        CastColumn { column, to } => {
            format!("Change the type of {column} to {}", to.name())
        }
        BinColumn {
            column,
            width,
            name,
        } => match name {
            Some(n) => format!("Bin the column {column} with width {width} and call it {n}"),
            None => format!("Bin the column {column} with width {width}"),
        },
        ExtractDatePart { column, part, name } => match name {
            Some(n) => format!("Extract the {} of {column} and call it {n}", part.name()),
            None => format!("Extract the {} of {column}", part.name()),
        },
        TrimColumn { column } => format!("Trim whitespace in the column {column}"),
        Sample { fraction, seed } => {
            // Round float noise so 0.92 prints as 92%, not 92.00000000000001%.
            let pct = fraction * 100.0;
            let pct_text = if (pct - pct.round()).abs() < 1e-9 {
                format!("{}", pct.round() as i64)
            } else {
                format!("{pct}")
            };
            format!("Sample {pct_text}% of the rows with seed {seed}")
        }
        ShuffleRows { seed } => format!("Shuffle the rows with seed {seed}"),
        TrainModel {
            name,
            target,
            features,
            method,
        } => {
            let mut s = format!("Train a model named {name} to predict {target}");
            if !features.is_empty() {
                s.push_str(&format!(" using {}", format_list(features)));
            }
            match method {
                dc_ml::MlMethod::Auto => {}
                dc_ml::MlMethod::Linear => s.push_str(" with linear regression"),
                dc_ml::MlMethod::DecisionTree => s.push_str(" with a decision tree"),
            }
            s
        }
        Predict { model } => format!("Predict with the model {model}"),
        PredictTimeSeries {
            measures,
            horizon,
            time_column,
        } => format!(
            "Predict time series with measure columns {} for the next {horizon} values of {time_column}",
            format_list(measures)
        ),
        DetectOutliers { column, method } => match method {
            OutlierMethod::ZScore { .. } => {
                format!("Detect outliers in the column {column} using the zscore method")
            }
            OutlierMethod::Iqr { .. } => {
                format!("Detect outliers in the column {column} using the iqr method")
            }
        },
        Cluster { k, features } => format!(
            "Cluster the rows into {k} groups using {}",
            format_list(features)
        ),
        EvaluateModel { model, target } => {
            format!("Evaluate the model {model} against {target}")
        }
        RunSql { query } => format!("Run the SQL query {query}"),
        ExportCsv => "Export the dataset as CSV".to_string(),
        SaveArtifact { name } => format!("Save this as {name}"),
        Snapshot { name } => format!("Snapshot this as {name}"),
        Define { phrase, expansion } => format!("Define {phrase} as {expansion}"),
        Comment { text } => format!("Comment: {text}"),
        ShareArtifact {
            artifact,
            with_user,
        } => format!("Share the artifact {artifact} with {with_user}"),
    }
}

/// Map a cast-target name back to a type (shared with the parser).
pub fn parse_dtype(name: &str) -> Option<DataType> {
    match name.to_ascii_lowercase().as_str() {
        "int" | "integer" => Some(DataType::Int),
        "float" | "double" | "number" => Some(DataType::Float),
        "str" | "text" | "string" => Some(DataType::Str),
        "bool" | "boolean" => Some(DataType::Bool),
        "date" => Some(DataType::Date),
        _ => None,
    }
}

/// Map a date-part name (shared with the parser).
pub fn parse_date_part(name: &str) -> Option<DatePart> {
    match name.to_ascii_lowercase().as_str() {
        "year" => Some(DatePart::Year),
        "month" => Some(DatePart::Month),
        "day" => Some(DatePart::Day),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_sentences() {
        assert_eq!(
            format_skill(&SkillCall::LoadUrl {
                url: "https://fred.example/gdp.csv".into()
            }),
            "Load data from the URL https://fred.example/gdp.csv"
        );
        assert_eq!(
            format_skill(&SkillCall::PredictTimeSeries {
                measures: vec!["GDPC1".into()],
                horizon: 12,
                time_column: "DATE".into()
            }),
            "Predict time series with measure columns GDPC1 for the next 12 values of DATE"
        );
        assert_eq!(
            format_skill(&SkillCall::CreateConstantColumn {
                name: "RecordType".into(),
                value: Value::Str("Actual".into())
            }),
            "Create a new column RecordType with text Actual"
        );
        assert_eq!(
            format_skill(&SkillCall::KeepColumns {
                columns: vec!["DATE".into(), "GDPC1".into(), "RecordType".into()]
            }),
            "Keep the columns DATE, GDPC1, RecordType"
        );
    }

    #[test]
    fn figure3_compute_sentence() {
        let call = SkillCall::Compute {
            aggs: vec![AggSpec::new(AggFunc::Count, "case_id", "NumberOfCases")],
            for_each: vec!["party_sobriety".into()],
        };
        assert_eq!(
            format_skill(&call),
            "Compute the count of case_id for each party_sobriety and call the computed columns NumberOfCases"
        );
    }

    #[test]
    fn compute_with_default_name_omits_call_clause() {
        let call = SkillCall::Compute {
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                "Age",
                AggSpec::default_output(AggFunc::Avg, Some("Age")),
            )],
            for_each: vec!["JobLevel".into()],
        };
        assert_eq!(
            format_skill(&call),
            "Compute the average of Age for each JobLevel"
        );
    }

    #[test]
    fn value_quoting() {
        assert_eq!(format_value(&Value::Str("driver".into())), "driver");
        assert_eq!(format_value(&Value::Str("it's".into())), "'it''s'");
        assert_eq!(format_value(&Value::Int(5)), "5");
        assert_eq!(format_value(&Value::Str("a,b".into())), "'a,b'");
    }

    #[test]
    fn visualize_matches_figure1() {
        let call = SkillCall::Visualize {
            kpi: "at_fault".into(),
            by: vec![
                "party_age".into(),
                "party_sex".into(),
                "cellphone_in_use".into(),
            ],
        };
        assert_eq!(
            format_skill(&call),
            "Visualize at_fault by party_age, party_sex, cellphone_in_use"
        );
    }

    #[test]
    fn plot_with_all_roles() {
        let call = SkillCall::Plot {
            chart: ChartType::Line,
            x: Some("DATE".into()),
            y: Some("GDPC1".into()),
            color: None,
            size: None,
            for_each: Some("RecordType".into()),
        };
        assert_eq!(
            format_skill(&call),
            "Plot a line chart with the x-axis DATE, the y-axis GDPC1, for each RecordType"
        );
    }

    #[test]
    fn helpers() {
        assert_eq!(parse_dtype("INTEGER"), Some(DataType::Int));
        assert_eq!(parse_dtype("whatever"), None);
        assert_eq!(parse_date_part("Month"), Some(DatePart::Month));
    }
}
