//! Formatting skill calls as canonical GEL sentences.
//!
//! GEL is the controlled natural language every recipe is shown in
//! (Figure 2a). [`try_format_skill`] prints a call with the first fitting
//! template of `dc_skills::surface::SURFACES`, and [`crate::parse::parse_gel`]
//! reads it back (plus looser variants), so recipes round-trip. A name
//! prints bare when the bare form reads back as the same name, and is
//! quoted (`"a,b"`, inner quotes doubled) otherwise; a string value that
//! would read back as another type is quoted (`'42'`), and a float prints
//! in a form that reads back bit for bit. The printed sentence is read
//! back before it is returned: a call that does not come back even with
//! every name quoted is refused ([`GelError::Unprintable`]), never
//! printed as a different call.

use dc_engine::expr::format_float;
use dc_engine::{AggFunc, Value};
use dc_skills::surface::{self, spelling, Hole, Item, Kind, Surface};
use dc_skills::SkillCall;

use crate::error::{GelError, Result};
use crate::parse::{find_stop, parse_gel, parse_value, stops, templates};

/// Quote a name: `"..."` with inner `"` doubled.
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Whether `s` reads back as itself where a bare hole stops at `ends`.
fn bare(s: &str, ends: &[&str], quote_all: bool) -> bool {
    !quote_all
        && !s.is_empty()
        && s.trim() == s
        && !s.starts_with(['"', '\''])
        && !s.ends_with(['.', ','])
        && find_stop(s, ends).is_none()
}

/// A name, bare when it reads back as itself (in a list, as one item).
fn name(s: &str, ends: &[&str], quote_all: bool, list: bool) -> String {
    let one_item = || !s.contains(',') && find_stop(s, &["and"]).is_none();
    match bare(s, ends, quote_all) && (!list || one_item()) {
        true => s.to_string(),
        false => quote(s),
    }
}

/// A value as a GEL literal; `None` for a float no literal reads back as.
fn value_text(v: &Value, ends: &[&str], quote_all: bool) -> Option<String> {
    Some(match v {
        Value::Str(s) => {
            let simple = s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || " _-".contains(c));
            let reads_back = matches!(parse_value(s), Value::Str(t) if t == *s);
            match simple && reads_back && bare(s, ends, quote_all) {
                true => s.clone(),
                false => format!("'{}'", s.replace('\'', "''")),
            }
        }
        Value::Float(f) if !f.is_finite() => return None,
        Value::Float(f) => format_float(*f),
        other => other.render(),
    })
}

/// A fraction as a percentage, moving the decimal point of its shortest
/// digits rather than multiplying, so it reads back bit for bit.
fn percent(f: f64) -> String {
    let text = f.to_string();
    let (sign, digits) = text
        .strip_prefix('-')
        .map_or(("", text.as_str()), |d| ("-", d));
    let (int, frac) = digits.split_once('.').unwrap_or((digits, ""));
    let frac = format!("{frac:0<2}");
    let (moved, rest) = frac.split_at(2);
    let int = format!("{int}{moved}");
    let int = match int.trim_start_matches('0') {
        "" => "0",
        i => i,
    };
    match rest {
        "" => format!("{sign}{int}%"),
        _ => format!("{sign}{int}.{rest}%"),
    }
}

fn hole_text(kind: Kind, hole: &Hole, ends: &[&str], quote_all: bool) -> Option<String> {
    let join = |items: Vec<String>, sep: &str| items.join(sep);
    Some(match (kind, hole) {
        (_, Hole::Name(s)) => name(s, ends, quote_all, false),
        (_, Hole::Names(v)) => join(
            v.iter().map(|s| name(s, ends, quote_all, true)).collect(),
            ", ",
        ),
        (_, Hole::Value(v)) => value_text(v, ends, quote_all)?,
        (_, Hole::Expr(e)) => e.to_sql(),
        (_, Hole::Int(i)) => i.to_string(),
        (_, Hole::Frac(f)) => percent(*f),
        (Kind::Word(words), Hole::Word(i)) => spelling(words, *i, 0).to_string(),
        (Kind::Flag(text), _) => text.to_string(),
        (_, Hole::Aggs(aggs)) => {
            let ends = [ends, &["of"]].concat();
            let phrase = |(f, col): &(AggFunc, Option<String>)| {
                let c = match (f, col) {
                    (AggFunc::CountRecords, None) => return Some("the count of records".into()),
                    (_, None) => return None,
                    (_, Some(c)) if c.eq_ignore_ascii_case("records") => quote(c),
                    (_, Some(c)) => name(c, &ends, quote_all, true),
                };
                Some(format!("the {} of {c}", surface::agg_spelling(*f, 0)))
            };
            join(aggs.iter().map(phrase).collect::<Option<_>>()?, " and ")
        }
        (_, Hole::Keys(keys)) => {
            let ends = [ends, &["descending", "desc", "ascending"]].concat();
            let key = |(c, asc): &(String, bool)| match asc {
                true => name(c, &ends, quote_all, true),
                false => format!("{} descending", name(c, &ends, quote_all, true)),
            };
            join(keys.iter().map(key).collect(), ", ")
        }
        (_, Hole::Pairs(pairs)) => {
            let side = |c: &str| match c.contains('=') {
                true => quote(c),
                false => name(c, ends, quote_all, true),
            };
            let pair = |(l, r): &(String, String)| match l == r {
                true => side(l),
                false => format!("{} = {}", side(l), side(r)),
            };
            join(pairs.iter().map(pair).collect(), ", ")
        }
        (_, Hole::Word(_)) => return None,
    })
}

/// Print `holes` with the first printable template that fits them.
fn print(sf: &Surface, holes: &[Option<Hole>], quote_all: bool) -> Option<String> {
    fn has(items: &[Item<'_>], f: &str) -> bool {
        items.iter().any(|i| match i {
            Item::Hole(g, _) => *g == f,
            Item::Opt(g) => has(g, f),
            Item::Lit(_) => false,
        })
    }
    let present = |f: &str| sf.field(f).is_some_and(|(i, _)| holes[i].is_some());
    let fits = |items: &[Item<'_>]| {
        let mandatory = |i: &Item<'_>| !matches!(i, Item::Hole(f, _) if !present(f));
        items.iter().all(mandatory) && sf.fields.iter().all(|(f, _)| !present(f) || has(items, f))
    };
    let template = templates().1.iter().find(|t| {
        std::ptr::eq(t.sf, sf) && t.mark.trim_start_matches('@').is_empty() && fits(&t.items)
    })?;
    let items = &template.items;
    let mut out = String::new();
    render(
        &items.iter().collect::<Vec<_>>(),
        sf,
        holes,
        quote_all,
        &present,
        &mut out,
    )?;
    Some(out)
}

fn render(
    k: &[&Item<'_>],
    sf: &Surface,
    holes: &[Option<Hole>],
    quote_all: bool,
    present: &dyn Fn(&str) -> bool,
    out: &mut String,
) -> Option<()> {
    let Some((head, rest)) = k.split_first() else {
        return Some(());
    };
    match head {
        Item::Lit(l) => out.push_str(l),
        Item::Opt(g) => {
            if g.iter()
                .all(|i| !matches!(i, Item::Hole(f, _) if !present(f)))
            {
                let mut next: Vec<&Item<'_>> = g.iter().collect();
                next.extend(rest);
                return render(&next, sf, holes, quote_all, present, out);
            }
        }
        Item::Hole(f, _) => {
            let (i, kind) = sf.field(f)?;
            let mut ends = Vec::new();
            stops(rest, sf, &mut ends);
            out.push_str(&hole_text(kind, holes[i].as_ref()?, &ends, quote_all)?);
        }
    }
    render(rest, sf, holes, quote_all, present, out)
}

/// The canonical GEL sentence for a skill call, or why none reads back as
/// it (a non-finite float, a name with a line break, an outlier method with
/// non-default parameters, join keys of different lengths).
pub fn try_format_skill(call: &SkillCall) -> Result<String> {
    let refuse = |reason: String| GelError::Unprintable {
        skill: call.name().to_string(),
        reason,
    };
    let (sf, holes) = surface::holes(call).map_err(refuse)?;
    for quote_all in [false, true] {
        let Some(text) = print(sf, &holes, quote_all) else {
            continue;
        };
        // A recipe holds one sentence a line.
        if !text.contains(['\n', '\r']) && parse_gel(&text).is_ok_and(|back| back == *call) {
            return Ok(text);
        }
    }
    Err(refuse(
        "no GEL sentence reads back as this call".to_string(),
    ))
}

/// The canonical GEL sentence for a skill call (what recipes, logs and
/// explanations show). A call [`try_format_skill`] refuses shows as the
/// refusal, which reads as no sentence.
pub fn format_skill(call: &SkillCall) -> String {
    try_format_skill(call).unwrap_or_else(|e| format!("<{e}>"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::AggSpec;
    use dc_viz::ChartType;

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
        let text = |v: Value| value_text(&v, &[], false).unwrap();
        assert_eq!(text(Value::Str("driver".into())), "driver");
        assert_eq!(text(Value::Str("it's".into())), "'it''s'");
        assert_eq!(text(Value::Int(5)), "5");
        assert_eq!(text(Value::Str("a,b".into())), "'a,b'");
    }

    /// A float no literal reads back as is a typed refusal, and the
    /// display form of the refusal parses as no sentence.
    #[test]
    fn a_non_finite_value_is_refused() {
        let call = SkillCall::FillMissing {
            column: "x".into(),
            value: Value::Float(f64::INFINITY),
        };
        assert!(matches!(
            try_format_skill(&call),
            Err(GelError::Unprintable { .. })
        ));
        assert!(parse_gel(&format_skill(&call)).is_err());
    }

    /// A recipe is one sentence a line, so a name holding a line break has
    /// no GEL form.
    #[test]
    fn a_name_with_a_line_break_is_refused() {
        let call = SkillCall::KeepColumns {
            columns: vec!["a\nb".into()],
        };
        assert!(try_format_skill(&call).is_err());
        assert!(crate::Recipe::parse(&format_skill(&call)).is_err());
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
}
