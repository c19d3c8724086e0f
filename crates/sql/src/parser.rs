//! Recursive-descent SQL parser for the DataChat dialect.
//!
//! The dialect covers what the platform's execution tasks generate:
//! `SELECT [DISTINCT] items FROM <table | (subquery) [AS alias]>
//! [JOIN ... ON a = b [AND ...]]* [WHERE expr] [GROUP BY cols]
//! [HAVING expr] [ORDER BY col [ASC|DESC], ...] [LIMIT n]`, with a full
//! scalar expression grammar (arithmetic, comparison, logic, `BETWEEN`,
//! `IN`, `IS NULL`, function calls, `CAST`, date literals).

use dc_engine::date::parse_date;
use dc_engine::{AggFunc, BinaryOp, DataType, Expr, JoinType, ScalarFunc, UnaryOp, Value};

use crate::ast::{JoinClause, Select, SelectItem, TableRef};
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize, Sym, Token};

/// Parse one SELECT statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Select> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let select = p.parse_select()?;
    if p.peek() == &Token::Symbol(Sym::Semicolon) {
        p.advance();
    }
    p.expect_eof()?;
    Ok(select)
}

/// Parse a scalar expression on its own (used by GEL's filter phrases).
pub fn parse_expr(text: &str) -> Result<Expr> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.parse_or()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::parse(
                format!("expected {}", kw.to_uppercase()),
                self.peek().describe(),
            ))
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.peek() == &Token::Symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(SqlError::parse(
                format!("expected {s:?}"),
                self.peek().describe(),
            ))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(SqlError::parse(
                "unexpected trailing input",
                self.peek().describe(),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            Token::QuotedIdent(s) => Ok(s),
            t => Err(SqlError::parse("expected identifier", t.describe())),
        }
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("from") {
            Some(self.parse_table_ref()?)
        } else {
            None
        };
        let mut joins = Vec::new();
        loop {
            let how = if self.peek().is_kw("join") || self.peek().is_kw("inner") {
                self.eat_kw("inner");
                JoinType::Inner
            } else if self.peek().is_kw("left") {
                self.advance();
                self.eat_kw("outer");
                JoinType::Left
            } else if self.peek().is_kw("right") {
                self.advance();
                self.eat_kw("outer");
                JoinType::Right
            } else if self.peek().is_kw("full") {
                self.advance();
                self.eat_kw("outer");
                JoinType::Full
            } else {
                break;
            };
            self.expect_kw("join")?;
            let table = self.parse_table_ref()?;
            self.expect_kw("on")?;
            let mut on = Vec::new();
            loop {
                let l = self.qualified_ident()?;
                self.expect_sym(Sym::Eq)?;
                let r = self.qualified_ident()?;
                on.push((l, r));
                if !self.eat_kw("and") {
                    break;
                }
            }
            joins.push(JoinClause { table, how, on });
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.parse_or()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.qualified_ident()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.parse_or()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let col = self.qualified_ident()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push((col, asc));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.advance() {
                Token::Int(n) => Some(int_literal(n, false)? as usize),
                t => return Err(SqlError::parse("expected non-negative LIMIT", t.describe())),
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// An identifier, optionally qualified (`t.col` keeps only `col` —
    /// this dialect resolves columns by name after joins).
    fn qualified_ident(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.eat_sym(Sym::Dot) {
            self.ident()
        } else {
            Ok(first)
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate at the top level?
        if let Token::Ident(name) = self.peek() {
            if AggFunc::from_name(name).is_some() && self.peek2() == &Token::Symbol(Sym::LParen) {
                let func = AggFunc::from_name(name).unwrap();
                self.advance();
                self.advance(); // (
                let arg = if self.eat_sym(Sym::Star) {
                    None
                } else {
                    Some(self.qualified_ident()?)
                };
                self.expect_sym(Sym::RParen)?;
                let alias = self.parse_alias()?;
                // COUNT(*) maps to CountRecords.
                let func = if func == AggFunc::Count && arg.is_none() {
                    AggFunc::CountRecords
                } else {
                    func
                };
                return Ok(SelectItem::Aggregate { func, arg, alias });
            }
        }
        let expr = self.parse_or()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        // Bare alias: an identifier that is not a clause keyword.
        if let Token::Ident(s) = self.peek() {
            const CLAUSES: &[&str] = &[
                "from", "where", "group", "having", "order", "limit", "join", "inner", "left",
                "right", "full", "on", "and", "or", "as", "asc", "desc", "union",
            ];
            if !CLAUSES.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let s = s.clone();
                self.advance();
                return Ok(Some(s));
            }
        }
        Ok(None)
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if self.eat_sym(Sym::LParen) {
            let inner = self.parse_select()?;
            self.expect_sym(Sym::RParen)?;
            let alias = self.parse_alias()?;
            Ok(TableRef::Subquery(Box::new(inner), alias))
        } else {
            let mut name = self.ident()?;
            // Allow db.table qualification.
            if self.eat_sym(Sym::Dot) {
                name = self.ident()?;
            }
            Ok(TableRef::Named(name))
        }
    }

    // --- expression grammar: or > and > not > cmp > add > mul > unary ---

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(self.parse_not()?.not())
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.peek().is_kw("is") {
            self.advance();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(if negated {
                left.is_not_null()
            } else {
                left.is_null()
            });
        }
        // [NOT] BETWEEN / IN
        let negated = if self.peek().is_kw("not")
            && (self.peek2().is_kw("between") || self.peek2().is_kw("in"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            let low = self.parse_additive()?;
            self.expect_kw("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_sym(Sym::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_literal_value()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(SqlError::parse(
                "expected BETWEEN or IN after NOT",
                self.peek().describe(),
            ));
        }
        let op = match self.peek() {
            Token::Symbol(Sym::Eq) => Some(BinaryOp::Eq),
            Token::Symbol(Sym::Neq) => Some(BinaryOp::Neq),
            Token::Symbol(Sym::Lt) => Some(BinaryOp::Lt),
            Token::Symbol(Sym::Le) => Some(BinaryOp::Le),
            Token::Symbol(Sym::Gt) => Some(BinaryOp::Gt),
            Token::Symbol(Sym::Ge) => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Plus) => BinaryOp::Add,
                Token::Symbol(Sym::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Star) => BinaryOp::Mul,
                Token::Symbol(Sym::Slash) => BinaryOp::Div,
                Token::Symbol(Sym::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            // A negative integer literal is signed before it is read, so
            // `i64::MIN` has a literal.
            if let Token::Int(magnitude) = *self.peek() {
                self.advance();
                return Ok(Expr::lit(int_literal(magnitude, true)?));
            }
            let inner = self.parse_unary()?;
            // Fold negative literals.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) if i != i64::MIN => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                e => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(e),
                },
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Token::Int(i) => Ok(Expr::lit(int_literal(i, false)?)),
            Token::Float(f) => Ok(Expr::lit(f)),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::QuotedIdent(s) => Ok(Expr::col(s)),
            Token::Symbol(Sym::LParen) => {
                let e = self.parse_or()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // Keyword literals.
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::lit(true));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::lit(false));
                }
                // DATE 'yyyy-mm-dd'
                if name.eq_ignore_ascii_case("date") {
                    if let Token::Str(s) = self.peek().clone() {
                        self.advance();
                        let d = parse_date(&s).map_err(|e| SqlError::plan(e.to_string()))?;
                        return Ok(Expr::Literal(Value::Date(d)));
                    }
                    // Fall through: a column literally named "date".
                }
                // CAST(expr AS type)
                if name.eq_ignore_ascii_case("cast") && self.peek() == &Token::Symbol(Sym::LParen) {
                    self.advance();
                    let e = self.parse_or()?;
                    self.expect_kw("as")?;
                    let tname = self.ident()?;
                    let to = parse_type(&tname)?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(e.cast(to));
                }
                // Scalar function call.
                if self.peek() == &Token::Symbol(Sym::LParen) {
                    if let Some(func) = ScalarFunc::from_name(&name) {
                        self.advance();
                        let mut args = Vec::new();
                        if self.peek() != &Token::Symbol(Sym::RParen) {
                            loop {
                                args.push(self.parse_or()?);
                                if !self.eat_sym(Sym::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect_sym(Sym::RParen)?;
                        return Ok(Expr::func(func, args));
                    }
                    return Err(SqlError::parse("unknown function", name));
                }
                // Qualified column `t.col`.
                if self.eat_sym(Sym::Dot) {
                    return Ok(Expr::col(self.ident()?));
                }
                Ok(Expr::col(name))
            }
            t => Err(SqlError::parse("expected expression", t.describe())),
        }
    }

    fn parse_literal_value(&mut self) -> Result<Value> {
        let negate = self.eat_sym(Sym::Minus);
        match self.advance() {
            Token::Int(i) => Ok(Value::Int(int_literal(i, negate)?)),
            Token::Float(f) => Ok(Value::Float(if negate { -f } else { f })),
            Token::Str(s) if !negate => Ok(Value::Str(s)),
            Token::Ident(s) if !negate && s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Token::Ident(s) if !negate && s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Token::Ident(s) if !negate && s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Token::Ident(s) if !negate && s.eq_ignore_ascii_case("date") => {
                if let Token::Str(d) = self.advance() {
                    let days = parse_date(&d).map_err(|e| SqlError::plan(e.to_string()))?;
                    Ok(Value::Date(days))
                } else {
                    Err(SqlError::parse("expected date string", "DATE"))
                }
            }
            t => Err(SqlError::parse("expected literal", t.describe())),
        }
    }
}

/// The `i64` an integer literal of this magnitude and sign denotes: a
/// magnitude past `i64::MAX` is `i64::MIN`'s, negated, or nothing.
fn int_literal(magnitude: u64, negate: bool) -> Result<i64> {
    let value = match negate {
        true => 0i64.checked_sub_unsigned(magnitude),
        false => i64::try_from(magnitude).ok(),
    };
    let sign = if negate { "-" } else { "" };
    value.ok_or_else(|| SqlError::parse("bad integer", format!("{sign}{magnitude}")))
}

fn parse_type(name: &str) -> Result<DataType> {
    match name.to_ascii_lowercase().as_str() {
        "int" | "integer" | "bigint" => Ok(DataType::Int),
        "float" | "double" | "real" => Ok(DataType::Float),
        "str" | "text" | "varchar" | "string" => Ok(DataType::Str),
        "bool" | "boolean" => Ok(DataType::Bool),
        "date" => Ok(DataType::Date),
        other => Err(SqlError::parse("unknown type", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT a, b FROM t").unwrap();
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from, Some(TableRef::Named("t".into())));
    }

    #[test]
    fn select_star_with_where_limit() {
        let q = parse("SELECT * FROM t WHERE a > 1 AND b = 'x' LIMIT 5;").unwrap();
        assert_eq!(q.items, vec![SelectItem::Wildcard]);
        assert!(q.where_clause.is_some());
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = parse("SELECT party_sobriety, COUNT(case_id) AS NumberOfCases FROM parties GROUP BY party_sobriety").unwrap();
        assert!(q.has_aggregates());
        assert_eq!(q.group_by, vec!["party_sobriety"]);
        match &q.items[1] {
            SelectItem::Aggregate { func, arg, alias } => {
                assert_eq!(*func, AggFunc::Count);
                assert_eq!(arg.as_deref(), Some("case_id"));
                assert_eq!(alias.as_deref(), Some("NumberOfCases"));
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn count_star_is_count_records() {
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        match &q.items[0] {
            SelectItem::Aggregate { func, arg, .. } => {
                assert_eq!(*func, AggFunc::CountRecords);
                assert!(arg.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subquery_nesting() {
        let q = parse("SELECT a FROM (SELECT a, b FROM (SELECT * FROM base))").unwrap();
        assert_eq!(q.nesting_depth(), 3);
    }

    #[test]
    fn joins() {
        let q = parse(
            "SELECT * FROM collisions LEFT JOIN parties ON collisions.case_id = parties.case_id",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].how, JoinType::Left);
        assert_eq!(
            q.joins[0].on,
            vec![("case_id".to_string(), "case_id".to_string())]
        );
    }

    #[test]
    fn multi_condition_join() {
        let q = parse("SELECT * FROM a JOIN b ON a.x = b.x AND a.y = b.y").unwrap();
        assert_eq!(q.joins[0].on.len(), 2);
    }

    #[test]
    fn order_by_directions() {
        let q = parse("SELECT * FROM t ORDER BY a DESC, b ASC, c").unwrap();
        assert_eq!(
            q.order_by,
            vec![
                ("a".to_string(), false),
                ("b".to_string(), true),
                ("c".to_string(), true)
            ]
        );
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7").unwrap();
        assert_eq!(e.to_sql(), "((1 + (2 * 3)) = 7)");
        let e = parse_expr("NOT a AND b OR c").unwrap();
        assert_eq!(e.to_sql(), "(((NOT a) AND b) OR c)");
    }

    #[test]
    fn between_in_isnull() {
        let e = parse_expr("age BETWEEN 18 AND 30").unwrap();
        assert!(matches!(e, Expr::Between { .. }));
        let e = parse_expr("x NOT IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
        let e = parse_expr("x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNotNull(_)));
    }

    #[test]
    fn date_literal() {
        let e = parse_expr("d >= DATE '2005-01-01'").unwrap();
        let sql = e.to_sql();
        assert!(sql.contains("DATE '2005-01-01'"), "{sql}");
    }

    #[test]
    fn cast_and_functions() {
        let e = parse_expr("CAST(x AS float) + abs(y)").unwrap();
        assert_eq!(e.to_sql(), "(CAST(x AS Float) + abs(y))");
        assert!(parse_expr("nosuchfunc(x)").is_err());
    }

    #[test]
    fn negative_numbers() {
        let e = parse_expr("x > -5").unwrap();
        assert_eq!(e.to_sql(), "(x > -5)");
        let e = parse_expr("x IN (-1, -2.5)").unwrap();
        if let Expr::InList { list, .. } = e {
            assert_eq!(list[0], Value::Int(-1));
            assert_eq!(list[1], Value::Float(-2.5));
        } else {
            panic!("expected InList");
        }
    }

    #[test]
    fn quoted_identifiers_and_aliases() {
        let q = parse("SELECT \"party type\" AS pt, a b FROM t").unwrap();
        match &q.items[0] {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(*expr, Expr::col("party type"));
                assert_eq!(alias.as_deref(), Some("pt"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &q.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("b")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("FROM t").is_err());
        assert!(parse("SELECT a FROM t trailing garbage ,").is_err());
    }

    #[test]
    fn roundtrip_parse_to_sql_parse() {
        let sql = "SELECT a, SUM(b) AS s FROM t WHERE (a > 1) GROUP BY a ORDER BY s DESC LIMIT 3";
        let q = parse(sql).unwrap();
        let q2 = parse(&q.to_sql()).unwrap();
        assert_eq!(q, q2);
    }
}
