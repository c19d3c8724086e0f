//! Parsing GEL sentences into skill calls.
//!
//! GEL is deliberately template-shaped (§2.1: skills are "invoked through
//! simple UI gestures" or typed with autocomplete), so the parser reads a
//! sentence against the templates of `dc_skills::surface::SURFACES`, case
//! insensitively, and reads each typed hole by its kind. A hole is a
//! quoted token (`"a,b"`, `'it''s'`) or bare text up to the template's
//! next literal. Condition phrases accept both English sugar ("DATE is
//! between the dates 01-01-2005 to 12-31-2020", "DATE is after Today - 10
//! years") and SQL fragments, which is also what the formatter emits.

use dc_engine::date::{add_months, add_years, days_from_ymd, parse_date};
use dc_engine::{AggFunc, Expr, Value};
use std::sync::OnceLock;

use dc_skills::surface::{self, build, items, marker, word, Hole, Item, Kind, Surface};
use dc_skills::SkillCall;

use crate::error::{GelError, Result};

/// The fixed "Today" used when resolving relative dates, keeping recipe
/// replay deterministic (the paper's Figure 2 recipe says "Today - 10
/// years"; a replayable reproduction needs a pinned clock).
pub const GEL_TODAY: (i64, u32, u32) = (2023, 6, 1);

fn today_days() -> i32 {
    days_from_ymd(GEL_TODAY.0, GEL_TODAY.1, GEL_TODAY.2)
}

/// Strip a case-insensitive prefix, also eating following whitespace.
fn strip_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    let head = s.get(..prefix.len())?;
    head.eq_ignore_ascii_case(prefix)
        .then(|| s[prefix.len()..].trim_start())
}

/// The end of the quoted token opening at `i` (quotes inside are doubled).
pub(crate) fn quoted_end(s: &str, i: usize) -> Option<usize> {
    let q = s.as_bytes()[i];
    let mut j = i + 1;
    loop {
        j += s.as_bytes().get(j..)?.iter().position(|&b| b == q)?;
        if s.as_bytes().get(j + 1) != Some(&q) {
            return Some(j + 1);
        }
        j += 2;
    }
}

fn boundary(b: Option<&u8>) -> bool {
    b.is_none_or(|b| b.is_ascii_whitespace() || *b == b',')
}

/// Whether `w` starts at byte `i` of `s` as a whole word.
fn word_at(s: &str, i: usize, w: &str) -> bool {
    let b = s.as_bytes();
    let end = i + w.len();
    (i == 0 || boundary(b.get(i - 1)))
        && end <= b.len()
        && b[i..end].eq_ignore_ascii_case(w.as_bytes())
        && (boundary(b.get(end)) || !w.ends_with(|c: char| c.is_ascii_alphanumeric()))
}

/// Every byte offset of `s` outside quoted tokens (a quote that follows
/// whitespace, `,` or `(`), passed to `hit` until it says yes; `None` when
/// nothing hits or a quoted token is left open.
fn scan(s: &str, mut hit: impl FnMut(usize) -> bool) -> Option<usize> {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let opens = i == 0 || b[i - 1].is_ascii_whitespace() || matches!(b[i - 1], b',' | b'(');
        if opens && matches!(b[i], b'"' | b'\'') {
            i = quoted_end(s, i)?;
        } else if hit(i) {
            return Some(i);
        } else {
            i += 1;
        }
    }
    None
}

/// Split around the first whole-word `w` outside quotes.
fn split_word<'a>(s: &'a str, w: &str) -> Option<(&'a str, &'a str)> {
    let at = scan(s, |i| word_at(s, i, w))?;
    Some((
        s[..at].trim_end().trim_end_matches(','),
        s[at + w.len()..].trim_start(),
    ))
}

/// A quoted token's text, or the bare text as it stands.
fn unquote(raw: &str) -> String {
    let t = raw.trim();
    match t.as_bytes().first() {
        Some(&q @ (b'"' | b'\'')) if quoted_end(t, 0) == Some(t.len()) => {
            let q = char::from(q).to_string();
            t[1..t.len() - 1].replace(&q.repeat(2), &q)
        }
        _ => raw.to_string(),
    }
}

/// The raw items of a GEL list: commas, and an `and` inside the last
/// comma group ("a, b and c"), outside quotes.
fn list_items(s: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut rest = s;
    loop {
        let comma = scan(rest, |i| rest.as_bytes()[i] == b',');
        let part = rest[..comma.unwrap_or(rest.len())].trim();
        match split_word(part, "and") {
            Some((a, b)) => items.extend([a, b]),
            None => items.push(part),
        }
        let Some(c) = comma else { break };
        rest = &rest[c + 1..];
    }
    items.retain(|i| !i.is_empty());
    items
}

/// Split a GEL column/name list: commas and a final "and"; quoted items
/// may hold either.
pub fn parse_list(s: &str) -> Vec<String> {
    list_items(s).into_iter().map(unquote).collect()
}

/// Parse a GEL value token: quoted string, number, date, bool, null, or a
/// bare word-sequence string.
pub fn parse_value(s: &str) -> Value {
    let s = s.trim();
    if s.starts_with(['\'', '"']) && quoted_end(s, 0) == Some(s.len()) {
        return Value::Str(unquote(s));
    }
    if s.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    let bool = s.to_ascii_lowercase().parse().ok().map(Value::Bool);
    let number = || {
        s.parse()
            .ok()
            .map(Value::Int)
            .or_else(|| s.parse().ok().map(Value::Float))
    };
    let date = || parse_date(s).ok().map(Value::Date);
    bool.or_else(number)
        .or_else(date)
        .unwrap_or_else(|| Value::Str(s.to_string()))
}

/// Parse a date phrase: a literal date or `Today [- N years|months|days]`.
fn parse_date_phrase(s: &str) -> Result<i32> {
    let s = s.trim();
    let bad = |message: &str, phrase: &str| GelError::bad_phrase(message, phrase);
    let Some(rest) = strip_ci(s, "today") else {
        return parse_date(s).map_err(|e| bad(&e.to_string(), s));
    };
    let rest = rest.trim();
    let (sign, rest) = match (rest.strip_prefix('-'), rest.strip_prefix('+')) {
        _ if rest.is_empty() => return Ok(today_days()),
        (Some(r), _) => (-1i32, r.trim()),
        (_, Some(r)) => (1, r.trim()),
        _ => return Err(bad("expected +/- offset after Today", s)),
    };
    let mut parts = rest.split_whitespace();
    let n: i32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("expected a number", rest))?;
    let (base, n) = (today_days(), sign.saturating_mul(n));
    Ok(
        match parts
            .next()
            .unwrap_or("days")
            .to_lowercase()
            .trim_end_matches('s')
        {
            "year" => add_years(base, n),
            "month" => add_months(base, n),
            "day" => base.saturating_add(n),
            other => return Err(bad(&format!("unknown unit {other:?}"), s)),
        },
    )
}

/// Parse a GEL condition phrase into a predicate expression. A phrase that
/// opens with `(` is SQL (the formatter's form); otherwise English sugar
/// outside quotes comes first, then SQL.
pub fn parse_condition(s: &str) -> Result<Expr> {
    let s = s.trim();
    let sql = |s: &str| dc_sql::parse_expr(s).map_err(|e| GelError::bad_phrase(e.to_string(), s));
    if s.starts_with('(') {
        return sql(s);
    }
    let column = |c: &str| Expr::col(unquote(c));
    let lit = |v: &str| Expr::Literal(parse_value(v));
    let date = |v: &str| Ok::<_, GelError>(Expr::Literal(Value::Date(parse_date_phrase(v)?)));
    // "<col> is between the dates <a> to <b>"
    if let Some((col, rest)) = split_word(s, "is between the dates") {
        let (a, b) = split_word(rest, "to")
            .or_else(|| split_word(rest, "and"))
            .ok_or_else(|| GelError::bad_phrase("expected <a> to <b>", rest))?;
        return Ok(column(col).between(date(a)?, date(b)?));
    }
    // "<col> is between <a> and <b>"
    if let Some((col, rest)) = split_word(s, "is between") {
        let (a, b) = split_word(rest, "and")
            .ok_or_else(|| GelError::bad_phrase("expected <a> and <b>", rest))?;
        return Ok(column(col).between(lit(a), lit(b)));
    }
    // "<col> is after/before <date-phrase>"
    if let Some((col, rest)) = split_word(s, "is after") {
        return Ok(column(col).gt(date(rest)?));
    }
    if let Some((col, rest)) = split_word(s, "is before") {
        return Ok(column(col).lt(date(rest)?));
    }
    // null checks
    if let Some((col, rest)) = split_word(s, "is not") {
        if rest.eq_ignore_ascii_case("null") {
            return Ok(column(col).is_not_null());
        }
        return Ok(column(col).neq(lit(rest)));
    }
    if let Some((col, rest)) = split_word(s, "is") {
        if rest.eq_ignore_ascii_case("null") {
            return Ok(column(col).is_null());
        }
        return Ok(column(col).eq(lit(rest)));
    }
    for (phrase, func) in [
        ("contains", dc_engine::ScalarFunc::Contains),
        ("starts with", dc_engine::ScalarFunc::StartsWith),
    ] {
        if let Some((col, rest)) = split_word(s, phrase) {
            return Ok(Expr::func(func, vec![column(col), lit(rest)]));
        }
    }
    sql(s)
}

/// `<percent>%` as a fraction, moving the decimal point rather than
/// dividing, so a printed percentage reads back as the same float.
fn parse_percent(raw: &str) -> Option<f64> {
    let t = raw.trim().trim_end_matches('%').trim_end();
    let (sign, digits) = t.strip_prefix('-').map_or(("", t), |d| ("-", d));
    let (int, frac) = digits.split_once('.').unwrap_or((digits, ""));
    let plain = !int.is_empty() && (int.bytes().chain(frac.bytes())).all(|b| b.is_ascii_digit());
    if !plain {
        return t.parse::<f64>().ok().map(|p| p / 100.0);
    }
    let int = format!("00{int}");
    let (hi, lo) = int.split_at(int.len() - 2);
    format!("{sign}{hi}.{lo}{frac}").parse().ok()
}

/// One aggregate phrase: "the count of case_id", "the count of records",
/// "the average of Age".
fn parse_agg(s: &str) -> Result<(AggFunc, Option<String>)> {
    let s = strip_ci(s, "the").unwrap_or(s);
    if s.eq_ignore_ascii_case("count of records") {
        return Ok((AggFunc::CountRecords, None));
    }
    let mut last = None;
    scan(s, |i| {
        if word_at(s, i, "of") {
            last = Some(i);
        }
        false
    });
    let at = last.ok_or_else(|| GelError::bad_phrase("expected <aggregate> of <column>", s))?;
    let (fname, col) = (s[..at].trim(), s[at + 2..].trim());
    if col.eq_ignore_ascii_case("records") {
        return Ok((AggFunc::CountRecords, None));
    }
    let func = surface::agg_named(fname)
        .ok_or_else(|| GelError::bad_phrase(format!("unknown aggregate {fname:?}"), s))?;
    Ok((func, Some(unquote(col))))
}

/// One sort key: a column, then `descending`/`desc`/`ascending`.
fn parse_key(item: &str) -> (String, bool) {
    let (col, dir) = match item.starts_with(['"', '\'']) {
        true => item.split_at(quoted_end(item, 0).unwrap_or(item.len())),
        false => match item.rsplit_once(char::is_whitespace) {
            Some((c, d)) if word(&["descending|desc|ascending"], d).is_some() => (c, d),
            _ => (item, ""),
        },
    };
    let (col, dir) = (col.trim(), dir.trim());
    match dir.eq_ignore_ascii_case("ascending") || dir.is_empty() {
        true => (unquote(col), true),
        false if word(&["descending|desc"], dir).is_some() => (unquote(col), false),
        false => (unquote(item), true),
    }
}

/// One join key: `col` or `left = right`.
fn parse_pair(item: &str) -> (String, String) {
    match scan(item, |i| item.as_bytes()[i] == b'=') {
        Some(at) => (unquote(item[..at].trim()), unquote(item[at + 1..].trim())),
        None => (unquote(item), unquote(item)),
    }
}

/// Read a hole of `kind` from its raw text.
fn read_hole(kind: Kind, raw: &str) -> Result<Hole> {
    let bad = |what: &str| GelError::bad_phrase(format!("expected {what}"), raw);
    Ok(match kind {
        Kind::Name => Hole::Name(unquote(raw)),
        Kind::Names => Hole::Names(parse_list(raw)),
        Kind::Value => Hole::Value(parse_value(raw)),
        Kind::Cond => Hole::Expr(parse_condition(raw)?),
        Kind::Expr => Hole::Expr(
            dc_sql::parse_expr(raw).map_err(|e| GelError::bad_phrase(e.to_string(), raw))?,
        ),
        Kind::Int => Hole::Int(raw.trim().parse().map_err(|_| bad("a number"))?),
        Kind::Frac => Hole::Frac(parse_percent(raw).ok_or_else(|| bad("a percentage"))?),
        Kind::Word(words) => Hole::Word(word(words, raw).ok_or_else(|| bad("a known word"))?),
        Kind::Flag(_) => Hole::Word(0),
        Kind::Aggs => {
            let mut aggs = Vec::new();
            let mut rest = raw;
            while let Some((a, b)) = split_word(rest, "and") {
                aggs.push(parse_agg(a)?);
                rest = b;
            }
            aggs.push(parse_agg(rest)?);
            Hole::Aggs(aggs)
        }
        Kind::Keys => Hole::Keys(list_items(raw).into_iter().map(parse_key).collect()),
        Kind::Pairs => Hole::Pairs(list_items(raw).into_iter().map(parse_pair).collect()),
    })
}

/// The texts a bare hole stops at, given what follows it, and whether it
/// may run to the end of the sentence.
pub(crate) fn stops<'t>(rest: &[&Item<'t>], s: &Surface, out: &mut Vec<&'t str>) -> bool {
    for item in rest {
        match item {
            Item::Lit(l) if l.trim().is_empty() => {}
            Item::Lit(l) => {
                out.push(l.trim().trim_start_matches(',').trim_start());
                return false;
            }
            Item::Hole(f, _) => {
                s.field(f)
                    .into_iter()
                    .flat_map(|(_, k)| k.words())
                    .for_each(|w| out.push(w));
                return false;
            }
            Item::Opt(g) => {
                stops(&g.iter().collect::<Vec<_>>(), s, out);
            }
        }
    }
    true
}

/// The first offset of `s` at which one of `stops` starts as a word.
pub(crate) fn find_stop(s: &str, stops: &[&str]) -> Option<usize> {
    scan(s, |i| stops.iter().any(|w| word_at(s, i, w)))
}

/// Match a template literal at `pos`: case-insensitive, any run of
/// whitespace for a space, and an optional leading comma.
fn lit_at(s: &str, pos: usize, lit: &str) -> Option<usize> {
    let skip = |p: usize| p + s[p..].len() - s[p..].trim_start().len();
    let mut p = skip(pos);
    let mut lit = lit.trim();
    if let Some(l) = lit.strip_prefix(',') {
        p = skip(p + usize::from(s[p..].starts_with(',')));
        lit = l.trim_start();
    }
    for w in lit.split(' ') {
        let end = p + w.len();
        if !s.get(p..end)?.eq_ignore_ascii_case(w) {
            return None;
        }
        p = skip(end);
    }
    Some(p)
}

/// Read one hole at `pos`; its raw text and where the sentence goes on.
fn take_hole<'s>(
    s: &'s str,
    pos: usize,
    kind: Kind,
    rest: &[&Item<'_>],
    sf: &Surface,
) -> Option<(&'s str, usize)> {
    let p = pos + s[pos..].len() - s[pos..].trim_start().len();
    let here = &s[p..];
    match kind {
        Kind::Cond | Kind::Expr => Some((here, s.len())),
        Kind::Word(_) | Kind::Flag(_) => {
            let len = kind
                .words()
                .filter(|w| word_at(here, 0, w))
                .map(str::len)
                .max()?;
            Some((&here[..len], p + len))
        }
        _ => {
            let mut ends = Vec::new();
            let to_end = stops(rest, sf, &mut ends);
            match find_stop(here, &ends) {
                Some(at) => Some((
                    here[..at].trim_end().trim_end_matches(',').trim_end(),
                    p + at,
                )),
                None if to_end => Some((here, s.len())),
                None => None,
            }
        }
    }
}

/// Match the items `k` against `s` from `pos`, recording each hole's raw
/// text by field index.
fn matches<'s>(
    k: &[&Item<'_>],
    s: &'s str,
    pos: usize,
    sf: &Surface,
    out: &mut [Option<&'s str>],
) -> bool {
    let Some((head, rest)) = k.split_first() else {
        return s[pos..].trim().is_empty();
    };
    match head {
        Item::Lit(l) => lit_at(s, pos, l).is_some_and(|p| matches(rest, s, p, sf, out)),
        Item::Hole(f, _) => {
            let Some((i, kind)) = sf.field(f) else {
                return false;
            };
            let Some((raw, p)) = take_hole(s, pos, kind, rest, sf) else {
                return false;
            };
            out[i] = Some(raw);
            matches(rest, s, p, sf, out)
        }
        Item::Opt(_) => {
            // A run of adjacent groups reads in any order, each at most once.
            let run = k.iter().take_while(|i| matches!(i, Item::Opt(_))).count();
            for j in 0..run {
                let Item::Opt(g) = k[j] else { continue };
                let mut next: Vec<&Item<'_>> = g.iter().collect();
                next.extend(
                    k.iter()
                        .enumerate()
                        .filter(|(x, _)| *x != j)
                        .map(|(_, i)| *i),
                );
                let saved = out.to_vec();
                if matches(&next, s, pos, sf, out) {
                    return true;
                }
                out.copy_from_slice(&saved);
            }
            matches(&k[run..], s, pos, sf, out)
        }
    }
}

/// A GEL template split once: its skill, marker, leading literal and items.
pub(crate) struct Template {
    pub sf: &'static Surface,
    pub mark: &'static str,
    lead: &'static str,
    pub items: Vec<Item<'static>>,
}

/// Every template of the table in the order sentences are tried, and
/// beside them each lead's first byte lower-cased: a sentence's first byte
/// picks the few templates worth reading without touching the others.
pub(crate) fn templates() -> &'static (Vec<u8>, Vec<Template>) {
    static TEMPLATES: OnceLock<(Vec<u8>, Vec<Template>)> = OnceLock::new();
    TEMPLATES.get_or_init(|| {
        let all = surface::SURFACES
            .iter()
            .flat_map(|sf| sf.gel.iter().map(move |t| (sf, t)));
        let all: Vec<Template> = all
            .map(|(sf, t)| {
                let (mark, body) = marker(t);
                let lead = body[..body.find(['{', '[']).unwrap_or(body.len())].trim();
                Template {
                    sf,
                    mark,
                    lead,
                    items: items(body),
                }
            })
            .collect();
        let first = |t: &Template| t.lead.bytes().next().unwrap_or_default();
        (
            all.iter().map(|t| first(t).to_ascii_lowercase()).collect(),
            all,
        )
    })
}

/// Parse one GEL sentence into a skill call: the first template that
/// matches decides, and a hole it cannot read is the error.
pub fn parse_gel(sentence: &str) -> Result<SkillCall> {
    let s = sentence.trim().trim_end_matches('.');
    let first = s.bytes().next().map(|b| b.to_ascii_lowercase());
    let (firsts, all) = templates();
    let mut guarded: Option<&Surface> = None;
    for (t, _) in all.iter().zip(firsts).filter(|(_, f)| Some(**f) == first) {
        if guarded.is_some_and(|g| std::ptr::eq(g, t.sf)) || lit_at(s, 0, t.lead).is_none() {
            continue;
        }
        let mut raw = vec![None; t.sf.fields.len()];
        if !matches(&t.items.iter().collect::<Vec<_>>(), s, 0, t.sf, &mut raw) {
            continue;
        }
        if t.mark.contains('!') {
            guarded = Some(t.sf);
            continue;
        }
        let kinds = t.sf.fields.iter().map(|(_, kind)| *kind);
        let holes = kinds
            .zip(&raw)
            .map(|(kind, raw)| raw.map(|r| read_hole(kind, r)).transpose());
        let holes = holes.collect::<Result<Vec<_>>>()?;
        return build(t.sf, holes).map_err(|e| GelError::bad_phrase(e, s));
    }
    Err(GelError::UnknownSentence {
        sentence: sentence.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::format_skill;
    use dc_engine::{AggSpec, JoinType};
    use dc_ml::{MlMethod, OutlierMethod};

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

    /// A word no vocabulary holds is an error, not the default word.
    #[test]
    fn an_unknown_aggregate_is_an_error() {
        assert!(parse_gel("Compute the bogus of x for each y").is_err());
        assert!(parse_gel("Pivot on a by b using the bogus of c").is_err());
        assert!(surface::agg_named("bogus").is_none());
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
