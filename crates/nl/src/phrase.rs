//! Phrase-based translation (§4.8).
//!
//! "The input text consists of predefined phrases ... extracting
//! information from user utterances is just a lookup of the concepts
//! (phrases) represented in the semantic layer." Drives the `Visualize`
//! functionality: `Visualize <KPI> <grouping phrase> <filter phrase>`,
//! with `and`/`or` combining filter phrases. Deterministic matching is
//! the point — "higher accuracy in translating the intent to the
//! response".

use dc_engine::Expr;
use dc_skills::SkillCall;

use crate::error::{NlError, Result};
use crate::semantic::{ConceptKind, SchemaHints, SemanticLayer};

/// Result of a phrase translation: the skill calls plus which phrases
/// were consumed (for transparency).
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseTranslation {
    pub calls: Vec<SkillCall>,
    pub matched_phrases: Vec<String>,
}

/// Translate a `Visualize ...` utterance using only deterministic phrase
/// lookups. Grammar:
///
/// ```text
/// Visualize <KPI> [by <grouping columns>] [where <filter phrases>]
/// filter phrases := phrase (("and" | "or") phrase)*
/// ```
///
/// The KPI may be a raw column, a defined metric (expanded into a
/// computed column), or a defined phrase. Unknown phrases are errors —
/// the phrase layer never guesses (that is the LLM path's job).
pub fn translate_visualize(
    input: &str,
    semantics: &SemanticLayer,
    schema: &SchemaHints,
) -> Result<PhraseTranslation> {
    let trimmed = input.trim();
    let rest = trimmed
        .strip_prefix("Visualize")
        .or_else(|| trimmed.strip_prefix("visualize"))
        .ok_or_else(|| NlError::translation("phrase input must start with Visualize"))?
        .trim();

    // Split off the filter phrase first, then the grouping phrase.
    let (head, filter_part) = match split_marker(rest, " where ") {
        Some((h, f)) => (h, Some(f)),
        None => (rest, None),
    };
    let (kpi_part, group_part) = match split_marker(head, " by ") {
        Some((k, g)) => (k, Some(g)),
        None => (head, None),
    };

    let mut calls: Vec<SkillCall> = Vec::new();
    let mut matched: Vec<String> = Vec::new();

    // Filters: deterministic semantic-layer lookups joined by and/or.
    if let Some(filters) = filter_part {
        let predicate = parse_filter_phrases(filters, semantics, &mut matched)?;
        calls.push(SkillCall::KeepRows { predicate });
    }

    // KPI resolution.
    let kpi_part = kpi_part.trim();
    let kpi: String = if column_exists(schema, kpi_part) {
        kpi_part.to_string()
    } else if let Some(concept) = semantics.lookup_phrase(kpi_part) {
        matched.push(concept.name.clone());
        match &concept.kind {
            ConceptKind::Metric { formula } => {
                // Materialize the metric formula as a column to visualize.
                let inner = formula
                    .trim()
                    .strip_prefix("sum(")
                    .and_then(|r| r.strip_suffix(')'))
                    .unwrap_or(formula);
                let expr =
                    dc_sql::parse_expr(inner).map_err(|e| NlError::translation(e.to_string()))?;
                let name = concept.name.replace(' ', "_");
                calls.push(SkillCall::CreateColumn {
                    name: name.clone(),
                    expr,
                });
                name
            }
            ConceptKind::Dimension { column } => column.clone(),
            ConceptKind::ValueMapping { predicate } => {
                // A KPI phrase that is a predicate: filter, then count.
                let expr = dc_sql::parse_expr(predicate)
                    .map_err(|e| NlError::translation(e.to_string()))?;
                calls.push(SkillCall::KeepRows { predicate: expr });
                // Fall back to counting records of the filtered set; the
                // Visualize skill handles a synthetic constant KPI poorly,
                // so use the predicate's first column.
                let mut cols = Vec::new();
                dc_sql::parse_expr(predicate)
                    .map_err(|e| NlError::translation(e.to_string()))?
                    .referenced_columns(&mut cols);
                cols.first()
                    .cloned()
                    .ok_or_else(|| NlError::translation("phrase predicate names no column"))?
            }
            ConceptKind::Hierarchy { levels } => levels
                .first()
                .cloned()
                .ok_or_else(|| NlError::translation("empty hierarchy"))?,
            ConceptKind::Annotation { column, .. } => column.clone(),
        }
    } else {
        return Err(NlError::translation(format!(
            "unknown KPI phrase {kpi_part:?} (not a column or defined phrase)"
        )));
    };

    // Grouping columns: raw columns or dimension phrases.
    let mut by: Vec<String> = Vec::new();
    if let Some(group) = group_part {
        for item in dc_gel::parse_list(group) {
            if column_exists(schema, &item) {
                by.push(item);
            } else if let Some(c) = semantics.lookup_phrase(&item) {
                matched.push(c.name.clone());
                match &c.kind {
                    ConceptKind::Dimension { column } => by.push(column.clone()),
                    ConceptKind::Hierarchy { levels } => {
                        by.extend(levels.first().cloned());
                    }
                    _ => {
                        return Err(NlError::translation(format!(
                            "phrase {item:?} is not usable as a grouping"
                        )))
                    }
                }
            } else {
                return Err(NlError::translation(format!(
                    "unknown grouping phrase {item:?}"
                )));
            }
        }
    }

    calls.push(SkillCall::Visualize { kpi, by });
    Ok(PhraseTranslation {
        calls,
        matched_phrases: matched,
    })
}

fn split_marker<'a>(s: &'a str, marker: &str) -> Option<(&'a str, &'a str)> {
    let lower = s.to_lowercase();
    lower
        .find(marker)
        .map(|pos| (s[..pos].trim(), s[pos + marker.len()..].trim()))
}

fn column_exists(schema: &SchemaHints, name: &str) -> bool {
    schema
        .all_columns()
        .iter()
        .any(|c| c.eq_ignore_ascii_case(name.trim()))
}

/// Parse `phrase (and|or phrase)*` where each phrase is a semantic-layer
/// value mapping (or a raw SQL condition as a convenience).
fn parse_filter_phrases(
    text: &str,
    semantics: &SemanticLayer,
    matched: &mut Vec<String>,
) -> Result<Expr> {
    // Split on standalone and/or, preserving the connective order
    // (left-associative).
    let mut parts: Vec<(Option<&str>, String)> = Vec::new(); // (connective, phrase)
    let mut current = String::new();
    let mut pending_conn: Option<&str> = None;
    for word in text.split_whitespace() {
        match word.to_lowercase().as_str() {
            "and" | "or" if !current.is_empty() => {
                parts.push((pending_conn, std::mem::take(&mut current)));
                pending_conn = if word.eq_ignore_ascii_case("and") {
                    Some("and")
                } else {
                    Some("or")
                };
            }
            _ => {
                if !current.is_empty() {
                    current.push(' ');
                }
                current.push_str(word);
            }
        }
    }
    if !current.is_empty() {
        parts.push((pending_conn, current));
    }

    let mut expr: Option<Expr> = None;
    for (conn, phrase) in parts {
        let piece = if let Some(c) = semantics.lookup_phrase(&phrase) {
            matched.push(c.name.clone());
            match &c.kind {
                ConceptKind::ValueMapping { predicate } => dc_sql::parse_expr(predicate)
                    .map_err(|e| NlError::translation(e.to_string()))?,
                _ => {
                    return Err(NlError::translation(format!(
                        "phrase {phrase:?} is not a filter"
                    )))
                }
            }
        } else {
            // Raw condition convenience ("price > 100").
            dc_gel::parse_condition(&phrase)
                .map_err(|_| NlError::translation(format!("unknown filter phrase {phrase:?}")))?
        };
        expr = Some(match (expr, conn) {
            (None, _) => piece,
            (Some(acc), Some("or")) => acc.or(piece),
            (Some(acc), _) => acc.and(piece),
        });
    }
    expr.ok_or_else(|| NlError::translation("empty filter phrase"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaHints {
        SchemaHints::single(
            "sales",
            vec![
                "region".into(),
                "product".into(),
                "price".into(),
                "quantity".into(),
                "discount".into(),
                "PurchaseStatus".into(),
            ],
        )
    }

    #[test]
    fn kpi_column_with_grouping() {
        let t = translate_visualize(
            "Visualize price by region, product",
            &SemanticLayer::sales_demo(),
            &schema(),
        )
        .unwrap();
        assert_eq!(t.calls.len(), 1);
        match &t.calls[0] {
            SkillCall::Visualize { kpi, by } => {
                assert_eq!(kpi, "price");
                assert_eq!(by, &vec!["region".to_string(), "product".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metric_kpi_expands_formula() {
        let t = translate_visualize(
            "Visualize revenue by region",
            &SemanticLayer::sales_demo(),
            &schema(),
        )
        .unwrap();
        assert_eq!(t.calls.len(), 2);
        match &t.calls[0] {
            SkillCall::CreateColumn { name, expr } => {
                assert_eq!(name, "revenue");
                assert!(expr.to_sql().contains("discount"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.matched_phrases.contains(&"revenue".to_string()));
    }

    #[test]
    fn filter_phrases_combine_with_and_or() {
        let mut sl = SemanticLayer::sales_demo();
        sl.define_phrase("big orders", "quantity > 10");
        let t = translate_visualize(
            "Visualize price by region where successful purchases and big orders",
            &sl,
            &schema(),
        )
        .unwrap();
        match &t.calls[0] {
            SkillCall::KeepRows { predicate } => {
                let sql = predicate.to_sql();
                assert!(sql.contains("PurchaseStatus = 'Successful'"), "{sql}");
                assert!(sql.contains("quantity > 10"), "{sql}");
                assert!(sql.contains("AND"), "{sql}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let t = translate_visualize(
            "Visualize price where successful purchases or unsuccessful purchases",
            &sl,
            &schema(),
        )
        .unwrap();
        match &t.calls[0] {
            SkillCall::KeepRows { predicate } => {
                assert!(predicate.to_sql().contains("OR"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn raw_condition_fallback_in_filter() {
        let t = translate_visualize(
            "Visualize price by region where price > 100",
            &SemanticLayer::sales_demo(),
            &schema(),
        )
        .unwrap();
        match &t.calls[0] {
            SkillCall::KeepRows { predicate } => {
                assert_eq!(predicate.to_sql(), "(price > 100)");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_phrases_are_errors_not_guesses() {
        let r = translate_visualize(
            "Visualize profit by region",
            &SemanticLayer::sales_demo(),
            &schema(),
        );
        assert!(r.is_err(), "unknown KPI must not be guessed");
        let r = translate_visualize(
            "Visualize price by mystery_dimension",
            &SemanticLayer::sales_demo(),
            &schema(),
        );
        assert!(r.is_err());
        let r = translate_visualize(
            "Visualize price where the vibes are good",
            &SemanticLayer::sales_demo(),
            &schema(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn dimension_phrase_as_grouping() {
        let mut sl = SemanticLayer::sales_demo();
        sl.add(crate::semantic::Concept {
            name: "territory".into(),
            keywords: vec![],
            kind: ConceptKind::Dimension {
                column: "region".into(),
            },
        });
        let t = translate_visualize("Visualize price by territory", &sl, &schema()).unwrap();
        match &t.calls[0] {
            SkillCall::Visualize { by, .. } => assert_eq!(by, &vec!["region".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn must_start_with_visualize() {
        assert!(translate_visualize("Show me stuff", &SemanticLayer::new(), &schema()).is_err());
    }
}
