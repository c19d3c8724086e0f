//! Parsing GEL sentences into skill calls.
//!
//! GEL is deliberately template-shaped (§2.1: skills are "invoked through
//! simple UI gestures" or typed with autocomplete), so the parser is a
//! set of case-insensitive sentence templates with typed holes. Condition
//! phrases accept both English sugar ("DATE is between the dates
//! 01-01-2005 to 12-31-2020", "DATE is after Today - 10 years") and SQL
//! fragments, which is also what the formatter emits.

use dc_engine::date::{add_months, add_years, days_from_ymd, parse_date};
use dc_engine::{AggFunc, AggSpec, Expr, JoinType, Value};
use dc_ml::{MlMethod, OutlierMethod};
use dc_skills::SkillCall;
use dc_viz::ChartType;

use crate::error::{GelError, Result};
use crate::format::{parse_date_part, parse_dtype};

/// The fixed "Today" used when resolving relative dates, keeping recipe
/// replay deterministic (the paper's Figure 2 recipe says "Today - 10
/// years"; a replayable reproduction needs a pinned clock).
pub const GEL_TODAY: (i64, u32, u32) = (2023, 6, 1);

fn today_days() -> i32 {
    days_from_ymd(GEL_TODAY.0, GEL_TODAY.1, GEL_TODAY.2)
}

/// Strip a case-insensitive prefix, also eating following whitespace.
fn strip_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    if s.len() >= prefix.len() && s[..prefix.len()].eq_ignore_ascii_case(prefix) {
        Some(s[prefix.len()..].trim_start())
    } else {
        None
    }
}

/// Find the first case-insensitive, word-bounded occurrence of `word`
/// and split around it.
fn split_word_ci<'a>(s: &'a str, word: &str) -> Option<(&'a str, &'a str)> {
    let lower = s.to_lowercase();
    let target = word.to_lowercase();
    let mut start = 0;
    while let Some(pos) = lower[start..].find(&target) {
        let at = start + pos;
        let before_ok = at == 0
            || lower.as_bytes()[at - 1].is_ascii_whitespace()
            || lower.as_bytes()[at - 1] == b',';
        let end = at + target.len();
        let after_ok = end == lower.len()
            || lower.as_bytes()[end].is_ascii_whitespace()
            || lower.as_bytes()[end] == b',';
        if before_ok && after_ok {
            return Some((
                s[..at].trim_end().trim_end_matches(','),
                s[end..].trim_start(),
            ));
        }
        start = at + 1;
    }
    None
}

/// Like [`split_word_ci`] but the *last* occurrence.
fn rsplit_word_ci<'a>(s: &'a str, word: &str) -> Option<(&'a str, &'a str)> {
    let lower = s.to_lowercase();
    let target = word.to_lowercase();
    let mut best = None;
    let mut start = 0;
    while let Some(pos) = lower[start..].find(&target) {
        let at = start + pos;
        let before_ok = at == 0 || lower.as_bytes()[at - 1].is_ascii_whitespace();
        let end = at + target.len();
        let after_ok = end == lower.len() || lower.as_bytes()[end].is_ascii_whitespace();
        if before_ok && after_ok {
            best = Some(at);
        }
        start = at + 1;
    }
    best.map(|at| (s[..at].trim_end(), s[at + target.len()..].trim_start()))
}

/// Split a GEL column/name list: commas and a final "and".
pub fn parse_list(s: &str) -> Vec<String> {
    let mut items: Vec<String> = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        // A trailing "x and y" inside the final comma group.
        if let Some((a, b)) = split_word_ci(part, "and") {
            if !a.is_empty() {
                items.push(a.trim().to_string());
            }
            if !b.is_empty() {
                items.push(b.trim().to_string());
            }
        } else {
            items.push(part.to_string());
        }
    }
    items
}

/// Parse a GEL value token: quoted string, number, date, bool, null, or a
/// bare word-sequence string.
pub fn parse_value(s: &str) -> Value {
    let s = s.trim();
    if s.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    if s.eq_ignore_ascii_case("true") {
        return Value::Bool(true);
    }
    if s.eq_ignore_ascii_case("false") {
        return Value::Bool(false);
    }
    if let Some(inner) = s.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        return Value::Str(inner.replace("''", "'"));
    }
    if let Some(inner) = s.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Value::Str(inner.to_string());
    }
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    if let Ok(d) = parse_date(s) {
        return Value::Date(d);
    }
    Value::Str(s.to_string())
}

/// Parse a date phrase: a literal date or `Today [- N years|months|days]`.
fn parse_date_phrase(s: &str) -> Result<i32> {
    let s = s.trim();
    if let Some(rest) = strip_ci(s, "today") {
        let rest = rest.trim();
        if rest.is_empty() {
            return Ok(today_days());
        }
        let (sign, rest) = if let Some(r) = rest.strip_prefix('-') {
            (-1i32, r.trim())
        } else if let Some(r) = rest.strip_prefix('+') {
            (1i32, r.trim())
        } else {
            return Err(GelError::bad_phrase("expected +/- offset after Today", s));
        };
        let mut parts = rest.split_whitespace();
        let n: i32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| GelError::bad_phrase("expected a number", rest))?;
        let unit = parts.next().unwrap_or("days").to_lowercase();
        let base = today_days();
        return Ok(match unit.trim_end_matches('s') {
            "year" => add_years(base, sign * n),
            "month" => add_months(base, sign * n),
            "day" => base + sign * n,
            other => return Err(GelError::bad_phrase(format!("unknown unit {other:?}"), s)),
        });
    }
    parse_date(s).map_err(|e| GelError::bad_phrase(e.to_string(), s))
}

/// Parse a GEL condition phrase into a predicate expression.
pub fn parse_condition(s: &str) -> Result<Expr> {
    let s = s.trim();
    // "<col> is between the dates <a> to <b>"
    if let Some((col, rest)) = split_word_ci(s, "is between the dates") {
        let (a, b) = split_word_ci(rest, "to")
            .or_else(|| split_word_ci(rest, "and"))
            .ok_or_else(|| GelError::bad_phrase("expected <a> to <b>", rest))?;
        return Ok(Expr::col(col).between(
            Expr::Literal(Value::Date(parse_date_phrase(a)?)),
            Expr::Literal(Value::Date(parse_date_phrase(b)?)),
        ));
    }
    // "<col> is between <a> and <b>"
    if let Some((col, rest)) = split_word_ci(s, "is between") {
        let (a, b) = split_word_ci(rest, "and")
            .ok_or_else(|| GelError::bad_phrase("expected <a> and <b>", rest))?;
        return Ok(
            Expr::col(col).between(Expr::Literal(parse_value(a)), Expr::Literal(parse_value(b)))
        );
    }
    // "<col> is after/before <date-phrase>"
    if let Some((col, rest)) = split_word_ci(s, "is after") {
        return Ok(Expr::col(col).gt(Expr::Literal(Value::Date(parse_date_phrase(rest)?))));
    }
    if let Some((col, rest)) = split_word_ci(s, "is before") {
        return Ok(Expr::col(col).lt(Expr::Literal(Value::Date(parse_date_phrase(rest)?))));
    }
    // null checks
    if let Some((col, rest)) = split_word_ci(s, "is not") {
        if rest.eq_ignore_ascii_case("null") {
            return Ok(Expr::col(col).is_not_null());
        }
        return Ok(Expr::col(col).neq(Expr::Literal(parse_value(rest))));
    }
    if let Some((col, rest)) = split_word_ci(s, "is") {
        if rest.eq_ignore_ascii_case("null") {
            return Ok(Expr::col(col).is_null());
        }
        return Ok(Expr::col(col).eq(Expr::Literal(parse_value(rest))));
    }
    if let Some((col, rest)) = split_word_ci(s, "contains") {
        return Ok(Expr::func(
            dc_engine::ScalarFunc::Contains,
            vec![Expr::col(col), Expr::Literal(parse_value(rest))],
        ));
    }
    if let Some((col, rest)) = split_word_ci(s, "starts with") {
        return Ok(Expr::func(
            dc_engine::ScalarFunc::StartsWith,
            vec![Expr::col(col), Expr::Literal(parse_value(rest))],
        ));
    }
    // Fall back to the SQL expression grammar.
    dc_sql::parse_expr(s).map_err(|e| GelError::bad_phrase(e.to_string(), s))
}

fn parse_usize(s: &str, what: &str) -> Result<usize> {
    s.trim()
        .parse()
        .map_err(|_| GelError::bad_phrase(format!("expected a number for {what}"), s))
}

/// Parse one aggregate phrase: "the count of case_id", "the count of
/// records", "the average of Age".
fn parse_agg_phrase(s: &str) -> Result<(AggFunc, Option<String>)> {
    let s = strip_ci(s, "the").unwrap_or(s);
    if s.eq_ignore_ascii_case("count of records") {
        return Ok((AggFunc::CountRecords, None));
    }
    let (fname, col) = rsplit_word_ci(s, "of")
        .ok_or_else(|| GelError::bad_phrase("expected <aggregate> of <column>", s))?;
    if col.eq_ignore_ascii_case("records") {
        return Ok((AggFunc::CountRecords, None));
    }
    let func = AggFunc::from_name(fname)
        .ok_or_else(|| GelError::bad_phrase(format!("unknown aggregate {fname:?}"), s))?;
    Ok((func, Some(col.to_string())))
}

fn chart_from_name(name: &str) -> Option<ChartType> {
    match name.to_ascii_lowercase().as_str() {
        "line" => Some(ChartType::Line),
        "bar" => Some(ChartType::Bar),
        "scatter" => Some(ChartType::Scatter),
        "bubble" => Some(ChartType::Bubble),
        "histogram" => Some(ChartType::Histogram),
        "donut" | "pie" => Some(ChartType::Donut),
        "box" => Some(ChartType::Box),
        "violin" => Some(ChartType::Violin),
        "heatmap" => Some(ChartType::Heatmap),
        _ => None,
    }
}

/// Parse one GEL sentence into a skill call.
pub fn parse_gel(sentence: &str) -> Result<SkillCall> {
    let s = sentence.trim().trim_end_matches('.');
    if s.is_empty() {
        return Err(GelError::UnknownSentence {
            sentence: sentence.to_string(),
        });
    }

    // ----- ingestion -----
    if let Some(rest) = strip_ci(s, "load data from the file") {
        return Ok(SkillCall::LoadFile { path: rest.into() });
    }
    if let Some(rest) = strip_ci(s, "load data from the url") {
        return Ok(SkillCall::LoadUrl { url: rest.into() });
    }
    // Load [the columns <columns> of] the table <table> from the
    // database <db> [where <condition>]: the projection and the scan
    // filter are the planner's, and parse back from what it formats.
    let projected = strip_ci(s, "load the columns");
    if let Some(rest) = projected.or_else(|| strip_ci(s, "load the table")) {
        let (columns, rest) = match projected {
            Some(_) => {
                let (cols, rest) = split_word_ci(rest, "of the table")
                    .ok_or_else(|| GelError::bad_phrase("expected of the table <table>", rest))?;
                (Some(parse_list(cols)), rest)
            }
            None => (None, rest),
        };
        let (table, db) = split_word_ci(rest, "from the database")
            .ok_or_else(|| GelError::bad_phrase("expected from the database <db>", rest))?;
        let (db, predicate) = match split_word_ci(db, "where") {
            Some((db, cond)) => (db, Some(parse_condition(cond)?)),
            None => (db, None),
        };
        return Ok(SkillCall::LoadTable {
            database: db.into(),
            table: table.into(),
            columns,
            predicate,
        });
    }
    if let Some(rest) = strip_ci(s, "use the dataset") {
        if let Some((name, v)) = split_word_ci(rest, "version") {
            let name = name.trim_end_matches(',').trim();
            return Ok(SkillCall::UseDataset {
                name: name.into(),
                version: Some(
                    v.trim()
                        .parse()
                        .map_err(|_| GelError::bad_phrase("expected a version number", v))?,
                ),
            });
        }
        return Ok(SkillCall::UseDataset {
            name: rest.into(),
            version: None,
        });
    }
    if let Some(rest) = strip_ci(s, "use the snapshot") {
        return Ok(SkillCall::UseSnapshot { name: rest.into() });
    }

    // ----- exploration -----
    if let Some(rest) = strip_ci(s, "describe the column") {
        return Ok(SkillCall::DescribeColumn {
            column: rest.into(),
        });
    }
    if strip_ci(s, "describe the dataset").is_some_and(|r| r.is_empty()) {
        return Ok(SkillCall::DescribeDataset);
    }
    if strip_ci(s, "list the datasets").is_some_and(|r| r.is_empty()) {
        return Ok(SkillCall::ListDatasets);
    }
    if let Some(rest) = strip_ci(s, "show the first") {
        let n = rest.trim_end_matches("rows").trim_end_matches("row").trim();
        return Ok(SkillCall::ShowHead {
            n: parse_usize(n, "row count")?,
        });
    }
    if strip_ci(s, "count the rows").is_some_and(|r| r.is_empty()) {
        return Ok(SkillCall::CountRows);
    }
    if strip_ci(s, "profile the missing values").is_some_and(|r| r.is_empty()) {
        return Ok(SkillCall::ProfileMissing);
    }

    // ----- visualization -----
    if let Some(rest) = strip_ci(s, "visualize") {
        // Visualize with a filter clause belongs to the §4.8 phrase layer
        // (it needs the semantic layer); plain GEL declines it.
        if split_word_ci(rest, "where").is_some() {
            return Err(GelError::UnknownSentence {
                sentence: sentence.to_string(),
            });
        }
        if let Some((kpi, by)) = split_word_ci(rest, "by").or_else(|| split_word_ci(rest, "using"))
        {
            return Ok(SkillCall::Visualize {
                kpi: kpi.into(),
                by: parse_list(by),
            });
        }
        return Ok(SkillCall::Visualize {
            kpi: rest.into(),
            by: vec![],
        });
    }
    if let Some(rest) = strip_ci(s, "plot a") {
        let (chart_name, rest) = rest
            .split_once(' ')
            .ok_or_else(|| GelError::bad_phrase("expected a chart type", rest))?;
        let chart = chart_from_name(chart_name)
            .ok_or_else(|| GelError::bad_phrase(format!("unknown chart {chart_name:?}"), s))?;
        let rest = strip_ci(rest, "chart").unwrap_or(rest);
        let mut x = None;
        let mut y = None;
        let mut color = None;
        let mut size = None;
        let mut for_each = None;
        let body = strip_ci(rest, "with").unwrap_or(rest);
        for clause in body.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = strip_ci(clause, "the x-axis") {
                x = Some(v.to_string());
            } else if let Some(v) = strip_ci(clause, "the y-axis") {
                y = Some(v.to_string());
            } else if let Some(v) = strip_ci(clause, "colored by") {
                color = Some(v.to_string());
            } else if let Some(v) = strip_ci(clause, "colored using:") {
                color = Some(v.to_string());
            } else if let Some(v) = strip_ci(clause, "sized by") {
                size = Some(v.to_string());
            } else if let Some(v) = strip_ci(clause, "sized using:") {
                size = Some(v.to_string());
            } else if let Some(v) = strip_ci(clause, "for each") {
                for_each = Some(v.to_string());
            } else {
                return Err(GelError::bad_phrase("unknown plot clause", clause));
            }
        }
        return Ok(SkillCall::Plot {
            chart,
            x,
            y,
            color,
            size,
            for_each,
        });
    }

    // ----- wrangling -----
    if let Some(rest) = strip_ci(s, "keep the rows where") {
        return Ok(SkillCall::KeepRows {
            predicate: parse_condition(rest)?,
        });
    }
    if let Some(rest) = strip_ci(s, "drop the rows with missing") {
        let columns = if rest.eq_ignore_ascii_case("values") {
            vec![]
        } else {
            parse_list(rest)
        };
        return Ok(SkillCall::DropMissing { columns });
    }
    if let Some(rest) = strip_ci(s, "drop the rows where") {
        return Ok(SkillCall::DropRows {
            predicate: parse_condition(rest)?,
        });
    }
    if let Some(rest) = strip_ci(s, "keep the columns") {
        return Ok(SkillCall::KeepColumns {
            columns: parse_list(rest),
        });
    }
    if let Some(rest) = strip_ci(s, "drop the columns") {
        return Ok(SkillCall::DropColumns {
            columns: parse_list(rest),
        });
    }
    if let Some(rest) = strip_ci(s, "rename the column") {
        let (from, to) = split_word_ci(rest, "to")
            .ok_or_else(|| GelError::bad_phrase("expected <from> to <to>", rest))?;
        return Ok(SkillCall::RenameColumn {
            from: from.into(),
            to: to.into(),
        });
    }
    if let Some(rest) = strip_ci(s, "create a new column") {
        if let Some((name, value)) = split_word_ci(rest, "with text") {
            return Ok(SkillCall::CreateConstantColumn {
                name: name.into(),
                value: Value::Str(match parse_value(value) {
                    Value::Str(v) => v,
                    other => other.render(),
                }),
            });
        }
        if let Some((name, value)) = split_word_ci(rest, "with value") {
            return Ok(SkillCall::CreateConstantColumn {
                name: name.into(),
                value: parse_value(value),
            });
        }
        if let Some((name, expr)) = split_word_ci(rest, "as") {
            return Ok(SkillCall::CreateColumn {
                name: name.into(),
                expr: dc_sql::parse_expr(expr)
                    .map_err(|e| GelError::bad_phrase(e.to_string(), expr))?,
            });
        }
        return Err(GelError::bad_phrase(
            "expected `as <expression>`, `with text <value>` or `with value <value>`",
            rest,
        ));
    }
    if let Some(rest) = strip_ci(s, "compute") {
        // [the] <agg> of <col> [and <agg> of <col>]* [for each <keys>]
        // [and call the computed columns <names>]
        let (body, names) = match split_word_ci(rest, "and call the computed columns") {
            Some((b, n)) => (b, Some(parse_list(n))),
            None => (rest, None),
        };
        let (agg_part, keys) = match split_word_ci(body, "for each") {
            Some((a, k)) => (a, parse_list(k)),
            None => (body, vec![]),
        };
        // Split aggregates on " and ".
        let mut agg_phrases: Vec<&str> = Vec::new();
        let mut remaining = agg_part;
        while let Some((a, b)) = split_word_ci(remaining, "and") {
            agg_phrases.push(a);
            remaining = b;
        }
        agg_phrases.push(remaining);
        let mut aggs = Vec::new();
        for (i, phrase) in agg_phrases.iter().enumerate() {
            let (func, column) = parse_agg_phrase(phrase)?;
            let output = match &names {
                Some(ns) => ns
                    .get(i)
                    .cloned()
                    .ok_or_else(|| GelError::bad_phrase("not enough output names", *phrase))?,
                None => AggSpec::default_output(func, column.as_deref()),
            };
            aggs.push(AggSpec {
                func,
                column,
                output,
            });
        }
        return Ok(SkillCall::Compute {
            aggs,
            for_each: keys,
        });
    }
    if let Some(rest) = strip_ci(s, "pivot on") {
        let (index, rest) = split_word_ci(rest, "by")
            .ok_or_else(|| GelError::bad_phrase("expected by <columns>", rest))?;
        let (columns, rest) = split_word_ci(rest, "using")
            .ok_or_else(|| GelError::bad_phrase("expected using the <agg> of <values>", rest))?;
        let (func, values) = parse_agg_phrase(rest)?;
        let values =
            values.ok_or_else(|| GelError::bad_phrase("pivot needs a values column", rest))?;
        return Ok(SkillCall::Pivot {
            index: index.into(),
            columns: columns.into(),
            values,
            agg: func,
        });
    }
    if let Some(rest) = strip_ci(s, "sort by") {
        let keys = parse_list(rest)
            .into_iter()
            .map(|item| {
                if let Some(col) = item
                    .to_lowercase()
                    .strip_suffix(" descending")
                    .map(|_| item[..item.len() - " descending".len()].to_string())
                {
                    (col, false)
                } else if let Some(col) = item
                    .to_lowercase()
                    .strip_suffix(" desc")
                    .map(|_| item[..item.len() - " desc".len()].to_string())
                {
                    (col, false)
                } else if let Some(col) = item
                    .to_lowercase()
                    .strip_suffix(" ascending")
                    .map(|_| item[..item.len() - " ascending".len()].to_string())
                {
                    (col, true)
                } else {
                    (item, true)
                }
            })
            .collect();
        return Ok(SkillCall::Sort { keys });
    }
    if let Some(rest) = strip_ci(s, "keep the top") {
        let (n, col) = split_word_ci(rest, "rows by")
            .ok_or_else(|| GelError::bad_phrase("expected <n> rows by <column>", rest))?;
        return Ok(SkillCall::Top {
            column: col.into(),
            n: parse_usize(n, "row count")?,
        });
    }
    if let Some(rest) = strip_ci(s, "keep the first") {
        let n = rest.trim_end_matches("rows").trim_end_matches("row").trim();
        return Ok(SkillCall::Limit {
            n: parse_usize(n, "row count")?,
        });
    }
    if let Some(rest) = strip_ci(s, "concatenate the datasets") {
        // Paper form: "Concatenate the datasets A and B [remove all
        // duplicates]" — the first dataset is the session's current one.
        let (body, dedupe) = match split_word_ci(rest, "remove all duplicates") {
            Some((b, _)) => (b, true),
            None => (rest, false),
        };
        let names = parse_list(body);
        let other = names
            .last()
            .cloned()
            .ok_or_else(|| GelError::bad_phrase("expected dataset names", rest))?;
        return Ok(SkillCall::Concat {
            other,
            remove_duplicates: dedupe,
        });
    }
    if let Some(rest) = strip_ci(s, "concatenate with the dataset") {
        let (body, dedupe) = match split_word_ci(rest, "remove all duplicates") {
            Some((b, _)) => (b, true),
            None => (rest, false),
        };
        return Ok(SkillCall::Concat {
            other: body.trim().into(),
            remove_duplicates: dedupe,
        });
    }
    if let Some(rest) = strip_ci(s, "join with the dataset") {
        let (other, rest) = split_word_ci(rest, "on")
            .ok_or_else(|| GelError::bad_phrase("expected on <columns>", rest))?;
        let (on_part, how) = if let Some((o, _)) = split_word_ci(rest, "as a left join") {
            (o, JoinType::Left)
        } else if let Some((o, _)) = split_word_ci(rest, "as a right join") {
            (o, JoinType::Right)
        } else if let Some((o, _)) = split_word_ci(rest, "as a full join") {
            (o, JoinType::Full)
        } else {
            (rest, JoinType::Inner)
        };
        let mut left_on = Vec::new();
        let mut right_on = Vec::new();
        for pair in parse_list(on_part) {
            match pair.split_once('=') {
                Some((l, r)) => {
                    left_on.push(l.trim().to_string());
                    right_on.push(r.trim().to_string());
                }
                None => {
                    left_on.push(pair.clone());
                    right_on.push(pair);
                }
            }
        }
        return Ok(SkillCall::Join {
            other: other.into(),
            left_on,
            right_on,
            how,
        });
    }
    if let Some(rest) = strip_ci(s, "remove duplicate rows") {
        if let Some(cols) = strip_ci(rest, "based on") {
            return Ok(SkillCall::Distinct {
                columns: parse_list(cols),
            });
        }
        if rest.is_empty() {
            return Ok(SkillCall::Distinct { columns: vec![] });
        }
    }
    if let Some(rest) = strip_ci(s, "fill the missing values of") {
        let (col, value) = split_word_ci(rest, "with")
            .ok_or_else(|| GelError::bad_phrase("expected with <value>", rest))?;
        return Ok(SkillCall::FillMissing {
            column: col.into(),
            value: parse_value(value),
        });
    }
    if let Some(rest) = strip_ci(s, "replace") {
        let (from, rest2) = split_word_ci(rest, "with")
            .ok_or_else(|| GelError::bad_phrase("expected with <value>", rest))?;
        let (to, col) = split_word_ci(rest2, "in the column")
            .ok_or_else(|| GelError::bad_phrase("expected in the column <column>", rest2))?;
        return Ok(SkillCall::ReplaceValues {
            column: col.into(),
            from: parse_value(from),
            to: parse_value(to),
        });
    }
    if let Some(rest) = strip_ci(s, "change the type of") {
        let (col, ty) = split_word_ci(rest, "to")
            .ok_or_else(|| GelError::bad_phrase("expected to <type>", rest))?;
        let to = parse_dtype(ty)
            .ok_or_else(|| GelError::bad_phrase(format!("unknown type {ty:?}"), s))?;
        return Ok(SkillCall::CastColumn {
            column: col.into(),
            to,
        });
    }
    if let Some(rest) = strip_ci(s, "bin the column") {
        let (col, rest2) = split_word_ci(rest, "with width")
            .ok_or_else(|| GelError::bad_phrase("expected with width <n>", rest))?;
        let (width, name) = match split_word_ci(rest2, "and call it") {
            Some((w, n)) => (w, Some(n.to_string())),
            None => (rest2, None),
        };
        return Ok(SkillCall::BinColumn {
            column: col.into(),
            width: width
                .trim()
                .parse()
                .map_err(|_| GelError::bad_phrase("expected a bin width", width))?,
            name,
        });
    }
    if let Some(rest) = strip_ci(s, "extract the") {
        let (part, rest2) = split_word_ci(rest, "of")
            .ok_or_else(|| GelError::bad_phrase("expected of <column>", rest))?;
        let part = parse_date_part(part)
            .ok_or_else(|| GelError::bad_phrase(format!("unknown date part {part:?}"), s))?;
        let (col, name) = match split_word_ci(rest2, "and call it") {
            Some((c, n)) => (c, Some(n.to_string())),
            None => (rest2, None),
        };
        return Ok(SkillCall::ExtractDatePart {
            column: col.into(),
            part,
            name,
        });
    }
    if let Some(rest) = strip_ci(s, "trim whitespace in the column") {
        return Ok(SkillCall::TrimColumn {
            column: rest.into(),
        });
    }
    if let Some(rest) = strip_ci(s, "sample") {
        let (pct_part, seed) = match split_word_ci(rest, "with seed") {
            Some((p, sd)) => (
                p,
                sd.trim()
                    .parse()
                    .map_err(|_| GelError::bad_phrase("expected a seed number", sd))?,
            ),
            None => (rest, 42u64),
        };
        let pct_text = pct_part
            .trim_end_matches("of the rows")
            .trim()
            .trim_end_matches('%');
        let pct: f64 = pct_text
            .trim()
            .parse()
            .map_err(|_| GelError::bad_phrase("expected a percentage", pct_part))?;
        return Ok(SkillCall::Sample {
            fraction: pct / 100.0,
            seed,
        });
    }
    if let Some(rest) = strip_ci(s, "shuffle the rows") {
        let seed = match strip_ci(rest, "with seed") {
            Some(sd) => sd
                .trim()
                .parse()
                .map_err(|_| GelError::bad_phrase("expected a seed number", sd))?,
            None => 42u64,
        };
        return Ok(SkillCall::ShuffleRows { seed });
    }

    // ----- machine learning -----
    if let Some(rest) = strip_ci(s, "train a model named") {
        let (name, rest2) = split_word_ci(rest, "to predict")
            .ok_or_else(|| GelError::bad_phrase("expected to predict <column>", rest))?;
        return parse_train_tail(name, rest2);
    }
    if let Some(rest) = strip_ci(s, "train a model to predict") {
        return parse_train_tail("", rest);
    }
    if let Some(rest) = strip_ci(s, "predict time series with measure columns") {
        let (measures, rest2) = split_word_ci(rest, "for the next").ok_or_else(|| {
            GelError::bad_phrase("expected for the next <n> values of <col>", rest)
        })?;
        let (n, time) = split_word_ci(rest2, "values of")
            .ok_or_else(|| GelError::bad_phrase("expected values of <column>", rest2))?;
        return Ok(SkillCall::PredictTimeSeries {
            measures: parse_list(measures),
            horizon: parse_usize(n, "horizon")?,
            time_column: time.into(),
        });
    }
    if let Some(rest) = strip_ci(s, "predict with the model") {
        return Ok(SkillCall::Predict { model: rest.into() });
    }
    if let Some(rest) = strip_ci(s, "detect outliers in the column") {
        let (col, method) = match split_word_ci(rest, "using the") {
            Some((c, m)) => {
                let m = m.trim_end_matches("method").trim();
                let method = match m.to_lowercase().as_str() {
                    "zscore" | "z-score" => OutlierMethod::default_zscore(),
                    "iqr" => OutlierMethod::default_iqr(),
                    other => {
                        return Err(GelError::bad_phrase(
                            format!("unknown outlier method {other:?}"),
                            s,
                        ))
                    }
                };
                (c, method)
            }
            None => (rest, OutlierMethod::default_zscore()),
        };
        return Ok(SkillCall::DetectOutliers {
            column: col.into(),
            method,
        });
    }
    if let Some(rest) = strip_ci(s, "cluster the rows into") {
        let (k, features) = split_word_ci(rest, "groups using")
            .ok_or_else(|| GelError::bad_phrase("expected <k> groups using <columns>", rest))?;
        return Ok(SkillCall::Cluster {
            k: parse_usize(k, "cluster count")?,
            features: parse_list(features),
        });
    }
    if let Some(rest) = strip_ci(s, "evaluate the model") {
        let (model, target) = split_word_ci(rest, "against")
            .ok_or_else(|| GelError::bad_phrase("expected against <column>", rest))?;
        return Ok(SkillCall::EvaluateModel {
            model: model.into(),
            target: target.into(),
        });
    }

    // ----- SQL -----
    if let Some(rest) = strip_ci(s, "run the sql query") {
        return Ok(SkillCall::RunSql { query: rest.into() });
    }
    if strip_ci(s, "export the dataset as csv").is_some_and(|r| r.is_empty()) {
        return Ok(SkillCall::ExportCsv);
    }

    // ----- collaboration -----
    if let Some(rest) = strip_ci(s, "save this as") {
        return Ok(SkillCall::SaveArtifact { name: rest.into() });
    }
    if let Some(rest) = strip_ci(s, "snapshot this as") {
        return Ok(SkillCall::Snapshot { name: rest.into() });
    }
    if let Some(rest) = strip_ci(s, "define") {
        if let Some((phrase, expansion)) = split_word_ci(rest, "as") {
            return Ok(SkillCall::Define {
                phrase: phrase.into(),
                expansion: expansion.into(),
            });
        }
    }
    if let Some(rest) = strip_ci(s, "comment:") {
        return Ok(SkillCall::Comment { text: rest.into() });
    }
    if let Some(rest) = strip_ci(s, "//") {
        return Ok(SkillCall::Comment { text: rest.into() });
    }
    if let Some(rest) = strip_ci(s, "share the artifact") {
        let (artifact, user) = split_word_ci(rest, "with")
            .ok_or_else(|| GelError::bad_phrase("expected with <user>", rest))?;
        return Ok(SkillCall::ShareArtifact {
            artifact: artifact.into(),
            with_user: user.into(),
        });
    }

    Err(GelError::UnknownSentence {
        sentence: sentence.to_string(),
    })
}

fn parse_train_tail(name: &str, rest: &str) -> Result<SkillCall> {
    let (rest, method) = if let Some((r, _)) = split_word_ci(rest, "with linear regression") {
        (r, MlMethod::Linear)
    } else if let Some((r, _)) = split_word_ci(rest, "with a decision tree") {
        (r, MlMethod::DecisionTree)
    } else {
        (rest, MlMethod::Auto)
    };
    let (target, features) = match split_word_ci(rest, "using") {
        Some((t, f)) => (t.to_string(), parse_list(f)),
        None => (rest.to_string(), vec![]),
    };
    let name = if name.is_empty() {
        format!("model_{}", target.to_lowercase())
    } else {
        name.to_string()
    };
    Ok(SkillCall::TrainModel {
        name,
        target,
        features,
        method,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::format_skill;

    #[test]
    fn figure2_recipe_parses() {
        // Every line of the Figure 2 recipe.
        let lines = [
            "Load data from the URL https://fred.stlouisfed.org/graph/fredgraph.csv?id=GDPC1",
            "Keep the rows where DATE is between the dates 01-01-2005 to 12-31-2020",
            "Predict time series with measure columns GDPC1 for the next 12 values of DATE",
            "Keep the columns DATE, GDPC1, RecordType",
            "Use the dataset fredgraph, version 1",
            "Create a new column RecordType with text Actual",
            "Keep the columns DATE, GDPC1, RecordType",
            "Concatenate the datasets fredgraph and PredictedTimeSeries_GDPC1 remove all duplicates",
            "Keep the rows where DATE is after Today - 10 years",
            "Plot a line chart with the x-axis DATE, the y-axis GDPC1, for each RecordType",
        ];
        for line in lines {
            parse_gel(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
        // Spot-check semantics.
        match parse_gel(lines[1]).unwrap() {
            SkillCall::KeepRows { predicate } => {
                let sql = predicate.to_sql();
                assert!(sql.contains("2005-01-01"), "{sql}");
                assert!(sql.contains("2020-12-31"), "{sql}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_gel(lines[8]).unwrap() {
            SkillCall::KeepRows { predicate } => {
                assert!(predicate.to_sql().contains("2013-06-01"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_gel(lines[7]).unwrap() {
            SkillCall::Concat {
                other,
                remove_duplicates,
            } => {
                assert_eq!(other, "PredictedTimeSeries_GDPC1");
                assert!(remove_duplicates);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure3_compute_parses() {
        let call = parse_gel(
            "Compute the count of case_id for each party_sobriety and call the computed columns NumberOfCases",
        )
        .unwrap();
        match call {
            SkillCall::Compute { aggs, for_each } => {
                assert_eq!(aggs.len(), 1);
                assert_eq!(aggs[0].func, AggFunc::Count);
                assert_eq!(aggs[0].column.as_deref(), Some("case_id"));
                assert_eq!(aggs[0].output, "NumberOfCases");
                assert_eq!(for_each, vec!["party_sobriety"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_aggregate_compute() {
        let call =
            parse_gel("Compute the average of Age and the median of Salary for each JobLevel")
                .unwrap();
        match call {
            SkillCall::Compute { aggs, for_each } => {
                assert_eq!(aggs.len(), 2);
                assert_eq!(aggs[0].func, AggFunc::Avg);
                assert_eq!(aggs[1].func, AggFunc::Median);
                assert_eq!(for_each, vec!["JobLevel"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_table_with_where_roundtrips() {
        let call =
            parse_gel("Load the table sales from the database MainDatabase where price > 10")
                .unwrap();
        match &call {
            SkillCall::LoadTable {
                database,
                table,
                columns: None,
                predicate: Some(predicate),
            } => {
                assert_eq!(database, "MainDatabase");
                assert_eq!(table, "sales");
                assert!(
                    predicate.to_sql().contains("price"),
                    "{}",
                    predicate.to_sql()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // The formatter emits a sentence the parser accepts back.
        let sentence = format_skill(&call);
        assert_eq!(parse_gel(&sentence).unwrap(), call);
        // Without a where clause the plain load is unchanged.
        assert_eq!(
            parse_gel("Load the table sales from the database MainDatabase").unwrap(),
            SkillCall::load_table("MainDatabase", "sales")
        );
    }

    /// One load call, four sentences: each shape formats to its own
    /// sentence, parses back to itself, and keys its own cache entry.
    #[test]
    fn the_four_load_shapes_roundtrip_and_key_apart() {
        let columns = Some(vec!["day".to_string(), "qty".to_string()]);
        let predicate = Some(Expr::col("day").ge(Expr::lit(330i64)));
        let shape = |columns: &Option<Vec<String>>, predicate: &Option<Expr>| {
            let (columns, predicate) = (columns.clone(), predicate.clone());
            SkillCall::LoadTable {
                database: "D".into(),
                table: "T".into(),
                columns,
                predicate,
            }
        };
        let shapes = [
            (shape(&None, &None), "Load the table T from the database D"),
            (
                shape(&None, &predicate),
                "Load the table T from the database D where (day >= 330)",
            ),
            (
                shape(&columns, &None),
                "Load the columns day, qty of the table T from the database D",
            ),
            (
                shape(&columns, &predicate),
                "Load the columns day, qty of the table T from the database D where (day >= 330)",
            ),
        ];
        for (call, sentence) in &shapes {
            assert_eq!(call.name(), "LoadTable");
            assert_eq!(format_skill(call), *sentence);
            assert_eq!(parse_gel(sentence).unwrap(), *call);
        }
        let keys: std::collections::BTreeSet<String> =
            shapes.iter().map(|(call, _)| call.cache_key()).collect();
        assert_eq!(keys.len(), shapes.len(), "{keys:?}");
    }

    #[test]
    fn count_of_records() {
        let call = parse_gel("Compute the count of records for each party_sobriety").unwrap();
        match call {
            SkillCall::Compute { aggs, .. } => {
                assert_eq!(aggs[0].func, AggFunc::CountRecords);
                assert_eq!(aggs[0].output, "CountOfRecords");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure1_visualize_parses() {
        let call =
            parse_gel("Visualize at_fault by party_age , party_sex , cellphone_in_use").unwrap();
        match call {
            SkillCall::Visualize { kpi, by } => {
                assert_eq!(kpi, "at_fault");
                assert_eq!(by, vec!["party_age", "party_sex", "cellphone_in_use"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn condition_sugar() {
        let e = parse_condition("party_sobriety is had not been drinking").unwrap();
        assert_eq!(e.to_sql(), "(party_sobriety = 'had not been drinking')");
        let e = parse_condition("party_age is not null").unwrap();
        assert!(matches!(e, Expr::IsNotNull(_)));
        let e = parse_condition("party_age is between 18 and 30").unwrap();
        assert!(matches!(e, Expr::Between { .. }));
        let e = parse_condition("name contains smith").unwrap();
        assert!(e.to_sql().contains("contains"));
        // SQL fallback.
        let e = parse_condition("party_age >= 18 AND at_fault = 1").unwrap();
        assert!(e.to_sql().contains("AND"));
    }

    #[test]
    fn roundtrip_canonical_sentences() {
        use dc_engine::Value;
        let calls = vec![
            SkillCall::LoadFile {
                path: "cars.csv".into(),
            },
            SkillCall::KeepRows {
                predicate: Expr::col("age").ge(Expr::lit(18i64)),
            },
            SkillCall::KeepColumns {
                columns: vec!["a".into(), "b".into()],
            },
            SkillCall::RenameColumn {
                from: "a".into(),
                to: "b".into(),
            },
            SkillCall::Compute {
                aggs: vec![AggSpec::new(AggFunc::Count, "case_id", "NumberOfCases")],
                for_each: vec!["party_sobriety".into()],
            },
            SkillCall::Sort {
                keys: vec![("x".into(), false), ("y".into(), true)],
            },
            SkillCall::Limit { n: 10 },
            SkillCall::Top {
                column: "v".into(),
                n: 5,
            },
            SkillCall::Concat {
                other: "other_ds".into(),
                remove_duplicates: true,
            },
            SkillCall::Join {
                other: "parties".into(),
                left_on: vec!["case_id".into()],
                right_on: vec!["case_id".into()],
                how: JoinType::Left,
            },
            SkillCall::Distinct { columns: vec![] },
            SkillCall::DropMissing {
                columns: vec!["x".into()],
            },
            SkillCall::FillMissing {
                column: "x".into(),
                value: Value::Int(0),
            },
            SkillCall::ReplaceValues {
                column: "sex".into(),
                from: Value::Str("male".into()),
                to: Value::Str("m".into()),
            },
            SkillCall::CastColumn {
                column: "x".into(),
                to: dc_engine::DataType::Float,
            },
            SkillCall::BinColumn {
                column: "age".into(),
                width: 20,
                name: None,
            },
            SkillCall::ExtractDatePart {
                column: "d".into(),
                part: dc_skills::DatePart::Year,
                name: Some("yr".into()),
            },
            SkillCall::Sample {
                fraction: 0.1,
                seed: 7,
            },
            SkillCall::ShuffleRows { seed: 3 },
            SkillCall::TrainModel {
                name: "m1".into(),
                target: "y".into(),
                features: vec!["x".into()],
                method: MlMethod::Linear,
            },
            SkillCall::Predict { model: "m1".into() },
            SkillCall::DetectOutliers {
                column: "v".into(),
                method: OutlierMethod::default_iqr(),
            },
            SkillCall::Cluster {
                k: 3,
                features: vec!["a".into(), "b".into()],
            },
            SkillCall::EvaluateModel {
                model: "m1".into(),
                target: "y".into(),
            },
            SkillCall::RunSql {
                query: "SELECT * FROM t".into(),
            },
            SkillCall::ExportCsv,
            SkillCall::SaveArtifact {
                name: "chart1".into(),
            },
            SkillCall::Snapshot {
                name: "snap".into(),
            },
            SkillCall::Define {
                phrase: "revenue".into(),
                expansion: "sum(price * quantity)".into(),
            },
            SkillCall::Comment {
                text: "checkpoint".into(),
            },
            SkillCall::ShareArtifact {
                artifact: "c1".into(),
                with_user: "bob".into(),
            },
            SkillCall::DescribeColumn {
                column: "age".into(),
            },
            SkillCall::DescribeDataset,
            SkillCall::ListDatasets,
            SkillCall::ShowHead { n: 5 },
            SkillCall::CountRows,
            SkillCall::ProfileMissing,
            SkillCall::UseSnapshot { name: "s1".into() },
            SkillCall::UseDataset {
                name: "fredgraph".into(),
                version: Some(1),
            },
            SkillCall::load_table("MainDatabase", "parties"),
        ];
        for call in calls {
            let text = format_skill(&call);
            let parsed =
                parse_gel(&text).unwrap_or_else(|e| panic!("failed to parse {text:?}: {e}"));
            assert_eq!(parsed, call, "roundtrip failed for {text:?}");
        }
    }

    #[test]
    fn roundtrip_condition_from_format() {
        // A formatted KeepRows sentence parses back to the same predicate.
        let call = SkillCall::KeepRows {
            predicate: Expr::col("DATE").between(
                Expr::Literal(Value::Date(days_from_ymd(2005, 1, 1))),
                Expr::Literal(Value::Date(days_from_ymd(2020, 12, 31))),
            ),
        };
        let text = format_skill(&call);
        let parsed = parse_gel(&text).unwrap();
        assert_eq!(parsed, call);
    }

    #[test]
    fn unknown_sentence_errors() {
        assert!(matches!(
            parse_gel("Make me a sandwich"),
            Err(GelError::UnknownSentence { .. })
        ));
        assert!(parse_gel("").is_err());
        assert!(parse_gel("Keep the rows where").is_err());
    }

    #[test]
    fn list_parsing_variants() {
        assert_eq!(parse_list("a, b, c"), vec!["a", "b", "c"]);
        assert_eq!(parse_list("a , b , c"), vec!["a", "b", "c"]);
        assert_eq!(parse_list("a, b and c"), vec!["a", "b", "c"]);
        assert_eq!(parse_list("a and b"), vec!["a", "b"]);
        assert_eq!(parse_list("single"), vec!["single"]);
    }

    #[test]
    fn value_parsing() {
        assert_eq!(parse_value("5"), Value::Int(5));
        assert_eq!(parse_value("2.5"), Value::Float(2.5));
        assert_eq!(parse_value("'two words'"), Value::Str("two words".into()));
        assert_eq!(parse_value("male"), Value::Str("male".into()));
        assert_eq!(parse_value("null"), Value::Null);
        assert_eq!(
            parse_value("2020-01-01"),
            Value::Date(days_from_ymd(2020, 1, 1))
        );
    }

    #[test]
    fn relative_dates() {
        assert_eq!(parse_date_phrase("Today").unwrap(), today_days());
        assert_eq!(
            parse_date_phrase("Today - 10 years").unwrap(),
            days_from_ymd(2013, 6, 1)
        );
        assert_eq!(
            parse_date_phrase("Today - 3 months").unwrap(),
            days_from_ymd(2023, 3, 1)
        );
        assert_eq!(
            parse_date_phrase("Today + 7 days").unwrap(),
            days_from_ymd(2023, 6, 8)
        );
        assert!(parse_date_phrase("Today * 2").is_err());
        assert!(parse_date_phrase("yesterday").is_err());
    }

    #[test]
    fn train_model_default_name() {
        match parse_gel("Train a model to predict Salary using Age, JobLevel").unwrap() {
            SkillCall::TrainModel {
                name,
                target,
                features,
                method,
            } => {
                assert_eq!(name, "model_salary");
                assert_eq!(target, "Salary");
                assert_eq!(features, vec!["Age", "JobLevel"]);
                assert_eq!(method, MlMethod::Auto);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sample_defaults() {
        match parse_gel("Sample 10% of the rows").unwrap() {
            SkillCall::Sample { fraction, seed } => {
                assert!((fraction - 0.1).abs() < 1e-12);
                assert_eq!(seed, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
