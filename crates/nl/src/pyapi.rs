//! The DataChat Python API dialect (§4.1).
//!
//! "We chose DataChat's Python API as the dialect for representing the
//! analytics recipes" — a thin wrapper around skills whose calls map 1:1
//! onto GEL. The mapping is a fact of one table: every skill's Python
//! method and its GEL templates are entries of `dc_skills::surface`, whose
//! one field binding both surfaces read, so each of the 50 skills has a
//! Python form and a GEL form of the same call. This module parses the
//! dialect into skill calls and prints skill calls back as Python, giving
//! the polyglot translation of §4 (Python ↔ GEL ↔ SQL). A printed call is
//! read back before it is returned; one that would not come back (a
//! non-finite float, `Count()` of no column) is refused.
//!
//! Grammar (method-chain subset of Python):
//!
//! ```text
//! program   := statement*
//! statement := [ident "="] chain | "print" "(" ... ")"
//! chain     := ident ("." method "(" args ")")*
//! args      := (kwarg | value) ("," ...)*
//! value     := string | number | bool | list | aggcall
//! aggcall   := Ident "(" [string] ")"      e.g. Count("case_id"), date("2020-01-31")
//! ```

use std::sync::OnceLock;

use dc_engine::expr::format_float;
use dc_engine::{AggFunc, Value};
use dc_skills::surface::{self, build, spelling, word, Hole, Kind, Surface, SURFACES};
use dc_skills::SkillCall;

use crate::error::{NlError, Result};

/// One parsed statement: an optional assignment target, the root dataset
/// identifier, and the chained skill calls.
#[derive(Debug, Clone, PartialEq)]
pub struct PyStatement {
    pub target: Option<String>,
    pub root: String,
    pub calls: Vec<SkillCall>,
    /// True for `print(...)` statements (dead code the checker strips).
    pub is_print: bool,
}

/// A parsed Python-API program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PyProgram {
    pub statements: Vec<PyStatement>,
}

// ---------- lexer ----------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i128),
    Float(f64),
    Sym(char),
    Eof,
}

fn lex(src: &str, line_of: &mut Vec<usize>) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                // Newlines are statement separators unless we're inside
                // parens; the parser tracks depth, so emit a symbol.
                out.push(Tok::Sym('\n'));
                line_of.push(line);
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' | ')' | '[' | ']' | ',' | '.' | '=' => {
                out.push(Tok::Sym(c));
                line_of.push(line);
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                let mut chars = src[i + 1..].chars();
                loop {
                    let Some(ch) = chars.next() else {
                        return Err(NlError::syntax("unterminated string", line));
                    };
                    if ch == quote {
                        break;
                    }
                    s.push(match ch {
                        '\\' => match chars.next() {
                            Some('n') => '\n',
                            Some('t') => '\t',
                            Some(other) => other,
                            None => return Err(NlError::syntax("unterminated string", line)),
                        },
                        ch => ch,
                    });
                }
                i = src.len() - chars.as_str().len();
                out.push(Tok::Str(s));
                line_of.push(line);
            }
            c if c.is_ascii_digit()
                || (c == '-'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())) =>
            {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    is_float |= bytes[i] == b'.';
                    i += 1;
                }
                // An exponent: `1e20`, `2.5E-7`.
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                    if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i += 1 + sign;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let bad = |what| NlError::syntax(format!("bad {what} {text}"), line);
                out.push(match is_float {
                    true => Tok::Float(text.parse().map_err(|_| bad("float"))?),
                    false => Tok::Int(text.parse().map_err(|_| bad("int"))?),
                });
                line_of.push(line);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_string()));
                line_of.push(line);
            }
            _ => {
                let other = src[i..].chars().next().unwrap_or(c);
                return Err(NlError::syntax(
                    format!("unexpected character {other:?}"),
                    line,
                ));
            }
        }
    }
    out.push(Tok::Eof);
    line_of.push(line);
    Ok(out)
}

// ---------- argument values ----------

/// Positional and keyword arguments of one parsed call.
type ParsedArgs = (Vec<Arg>, Vec<(String, Arg)>);

/// A parsed argument value.
#[derive(Debug, Clone, PartialEq)]
enum Arg {
    Value(Value),
    Int(i128),
    List(Vec<Arg>),
    /// `Count("case_id")`-style aggregate constructor, or `date("...")`.
    Call {
        func: String,
        column: Option<String>,
    },
    Ident(String),
}

impl Arg {
    fn as_str(&self) -> Option<String> {
        match self {
            Arg::Value(Value::Str(s)) | Arg::Ident(s) => Some(s.clone()),
            _ => None,
        }
    }

    fn as_str_list(&self) -> Option<Vec<String>> {
        match self {
            Arg::List(items) => items.iter().map(|a| a.as_str()).collect(),
            single => single.as_str().map(|s| vec![s]),
        }
    }

    fn as_value(&self) -> Option<Value> {
        Some(match self {
            Arg::Value(v) => v.clone(),
            Arg::Int(i) => Value::Int(i64::try_from(*i).ok()?),
            Arg::Ident(s) => Value::Str(s.clone()),
            Arg::Call {
                func,
                column: Some(d),
            } if func == "date" => Value::Date(dc_engine::date::parse_date(d).ok()?),
            _ => return None,
        })
    }
}

struct Parser {
    toks: Vec<Tok>,
    lines: Vec<usize>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn line(&self) -> usize {
        self.lines.get(self.pos).copied().unwrap_or(0)
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, c: char) -> bool {
        if *self.peek() == Tok::Sym(c) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(NlError::syntax(
                format!("expected {c:?}, found {:?}", self.peek()),
                self.line(),
            ))
        }
    }

    fn skip_newlines(&mut self) {
        while self.eat('\n') {}
    }

    fn parse_arg(&mut self) -> Result<Arg> {
        match self.next() {
            Tok::Str(s) => Ok(Arg::Value(Value::Str(s))),
            Tok::Int(i) => Ok(Arg::Int(i)),
            Tok::Float(f) => Ok(Arg::Value(Value::Float(f))),
            Tok::Sym('[') => {
                let mut items = Vec::new();
                self.skip_newlines();
                if !self.eat(']') {
                    loop {
                        self.skip_newlines();
                        items.push(self.parse_arg()?);
                        self.skip_newlines();
                        if !self.eat(',') {
                            break;
                        }
                    }
                    self.skip_newlines();
                    self.expect(']')?;
                }
                Ok(Arg::List(items))
            }
            Tok::Ident(name) => {
                match name.as_str() {
                    "True" => return Ok(Arg::Value(Value::Bool(true))),
                    "False" => return Ok(Arg::Value(Value::Bool(false))),
                    "None" => return Ok(Arg::Value(Value::Null)),
                    _ => {}
                }
                if self.eat('(') {
                    // Aggregate constructor: Count("case_id") / Count().
                    let column = match self.peek() {
                        Tok::Str(s) => {
                            let s = s.clone();
                            self.next();
                            Some(s)
                        }
                        _ => None,
                    };
                    self.expect(')')?;
                    Ok(Arg::Call { func: name, column })
                } else {
                    Ok(Arg::Ident(name))
                }
            }
            other => Err(NlError::syntax(
                format!("unexpected token {other:?} in argument"),
                self.line(),
            )),
        }
    }

    /// Parse `( [kw=]arg, ... )`; newlines inside parens are ignored.
    fn parse_args(&mut self) -> Result<ParsedArgs> {
        self.expect('(')?;
        let mut positional = Vec::new();
        let mut keyword = Vec::new();
        self.skip_newlines();
        if self.eat(')') {
            return Ok((positional, keyword));
        }
        loop {
            self.skip_newlines();
            match (self.peek().clone(), self.toks.get(self.pos + 1)) {
                (Tok::Ident(name), Some(Tok::Sym('='))) => {
                    self.next();
                    self.next(); // '='
                    self.skip_newlines();
                    keyword.push((name, self.parse_arg()?));
                }
                _ => positional.push(self.parse_arg()?),
            }
            self.skip_newlines();
            if !self.eat(',') {
                break;
            }
            self.skip_newlines();
            if self.eat(')') {
                return Ok((positional, keyword));
            }
        }
        self.skip_newlines();
        self.expect(')')?;
        Ok((positional, keyword))
    }
}

/// Parse a Python-API program.
pub fn parse_pyapi(src: &str) -> Result<PyProgram> {
    let mut lines = Vec::new();
    let toks = lex(src, &mut lines)?;
    let mut p = Parser {
        toks,
        lines,
        pos: 0,
    };
    let mut program = PyProgram::default();
    loop {
        p.skip_newlines();
        if *p.peek() == Tok::Eof {
            break;
        }
        let line = p.line();
        let Tok::Ident(first) = p.next() else {
            return Err(NlError::syntax("expected an identifier", line));
        };
        // print(...) — parsed and marked dead.
        if first == "print" {
            let _ = p.parse_args()?;
            program.statements.push(PyStatement {
                target: None,
                root: "print".into(),
                calls: Vec::new(),
                is_print: true,
            });
            continue;
        }
        // Assignment?
        let (target, root) = if p.eat('=') {
            p.skip_newlines();
            let Tok::Ident(root) = p.next() else {
                return Err(NlError::syntax("expected a dataset identifier", p.line()));
            };
            (Some(first), root)
        } else {
            (None, first)
        };
        // Method chain.
        let mut calls = Vec::new();
        while p.eat('.') {
            let Tok::Ident(method) = p.next() else {
                return Err(NlError::syntax("expected a method name", p.line()));
            };
            let mline = p.line();
            let (pos_args, kw_args) = p.parse_args()?;
            calls.push(method_to_skill(&method, &pos_args, &kw_args, mline)?);
        }
        program.statements.push(PyStatement {
            target,
            root,
            calls,
            is_print: false,
        });
    }
    Ok(program)
}

// ---------- the surface table's Python side ----------

/// One parameter of a Python signature (see `dc_skills::surface`).
struct Param<'t> {
    /// The field it reads into, then any it may print instead.
    fields: Vec<&'t str>,
    kws: Vec<&'t str>,
    keyword: bool,
    default: Option<&'t str>,
}

/// A signature's method names and parameters.
type Signature = (Vec<&'static str>, Vec<Param<'static>>);

/// Every skill's Python signature, split once, in table order.
fn signatures() -> &'static [Signature] {
    static SIGNATURES: OnceLock<Vec<Signature>> = OnceLock::new();
    SIGNATURES.get_or_init(|| SURFACES.iter().map(|sf| signature(sf.py)).collect())
}

fn signature(py: &'static str) -> Signature {
    let (methods, params) = py.split_once('(').unwrap_or((py, ")"));
    let params = params
        .trim_end_matches(')')
        .split(", ")
        .filter(|p| !p.is_empty());
    let params = params.map(|p| {
        let (p, default) = p.split_once('?').map_or((p, None), |(p, d)| (p, Some(d)));
        let (p, keyword) = p.strip_suffix('=').map_or((p, false), |p| (p, true));
        let (fields, kws) = p.split_once(':').unwrap_or((p, p));
        Param {
            fields: fields.split('/').collect(),
            kws: kws.split('|').collect(),
            keyword,
            default,
        }
    });
    (methods.split('|').collect(), params.collect())
}

/// The argument given for keyword `name`, case-insensitively.
fn kw<'a>(kws: &'a [(String, Arg)], name: &str) -> Option<&'a Arg> {
    kws.iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, a)| a)
}

/// Read one argument as a hole of `kind` (a sort reads `ascending` from
/// `kws` too).
fn read_arg(
    kind: Kind,
    arg: &Arg,
    kws: &[(String, Arg)],
) -> std::result::Result<Option<Hole>, String> {
    let bad = || format!("expected {kind:?}, found {arg:?}");
    let text = || arg.as_str().ok_or_else(bad);
    let names = || arg.as_str_list().ok_or_else(bad);
    Ok(Some(match kind {
        Kind::Name => Hole::Name(text()?),
        Kind::Names => Hole::Names(names()?),
        Kind::Value => Hole::Value(arg.as_value().ok_or_else(bad)?),
        Kind::Cond => Hole::Expr(dc_gel::parse_condition(&text()?).map_err(|e| e.to_string())?),
        Kind::Expr => Hole::Expr(dc_sql::parse_expr(&text()?).map_err(|e| e.to_string())?),
        Kind::Int => match arg {
            Arg::Int(i) => Hole::Int(*i),
            _ => return Err(bad()),
        },
        Kind::Frac => match arg {
            Arg::Int(i) => Hole::Frac(*i as f64),
            Arg::Value(Value::Float(f)) => Hole::Frac(*f),
            _ => return Err(bad()),
        },
        Kind::Word(words) => Hole::Word(word(words, &text()?).ok_or_else(bad)?),
        Kind::Flag(_) => match arg {
            Arg::Value(Value::Bool(true)) => Hole::Word(0),
            Arg::Value(Value::Bool(false)) => return Ok(None),
            _ => return Err(bad()),
        },
        Kind::Aggs => {
            let items = match arg {
                Arg::List(items) => items.as_slice(),
                single => std::slice::from_ref(single),
            };
            let agg = |a: &Arg| match a {
                Arg::Call { func, column } => match (surface::agg_named(func), column) {
                    (Some(AggFunc::Count), None) => Ok((AggFunc::CountRecords, None)),
                    (Some(f), column) => Ok((f, column.clone())),
                    (None, _) => Err(format!("unknown aggregate {func:?}")),
                },
                other => Err(format!(
                    "expected an aggregate constructor, found {other:?}"
                )),
            };
            Hole::Aggs(
                items
                    .iter()
                    .map(agg)
                    .collect::<std::result::Result<_, _>>()?,
            )
        }
        Kind::Keys => {
            let flags = match kw(kws, "ascending") {
                Some(Arg::List(items)) => items.as_slice(),
                Some(one) => std::slice::from_ref(one),
                None => &[],
            };
            let flags = flags.iter().map(|a| match a {
                Arg::Value(Value::Bool(b)) => Some(*b),
                _ => None,
            });
            let asc: Vec<bool> = flags.collect::<Option<_>>().unwrap_or_default();
            let asc = |i: usize| asc.get(i).or(asc.first()).copied().unwrap_or(true);
            Hole::Keys(
                names()?
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (c, asc(i)))
                    .collect(),
            )
        }
        Kind::Pairs => Hole::Pairs(names()?.into_iter().map(|c| (c.clone(), c)).collect()),
    }))
}

/// The call a method with these arguments makes under surface `sf`.
fn call_of(
    sf: &Surface,
    params: &[Param<'_>],
    pos: &[Arg],
    kws: &[(String, Arg)],
) -> std::result::Result<SkillCall, String> {
    let mut holes = vec![None; sf.fields.len()];
    for (i, p) in params.iter().enumerate() {
        let (fi, kind) = sf.field(p.fields[0]).ok_or("a parameter names no field")?;
        let default = p.default.map(|d| Arg::Value(Value::Str(d.to_string())));
        let arg = pos
            .get(i)
            .or_else(|| p.kws.iter().find_map(|k| kw(kws, k)))
            .or(default.as_ref());
        holes[fi] = match (arg, kind) {
            (Some(arg), _) => read_arg(kind, arg, kws)?,
            (None, Kind::Pairs) => match (
                kw(kws, "left_on").and_then(Arg::as_str_list),
                kw(kws, "right_on").and_then(Arg::as_str_list),
            ) {
                (Some(l), Some(r)) if l.len() == r.len() => {
                    Some(Hole::Pairs(l.into_iter().zip(r).collect()))
                }
                _ => None,
            },
            (None, _) => None,
        };
    }
    build(sf, holes)
}

fn method_to_skill(
    method: &str,
    pos: &[Arg],
    kws: &[(String, Arg)],
    line: usize,
) -> Result<SkillCall> {
    let mut first_err = None;
    for (sf, (methods, params)) in SURFACES.iter().zip(signatures()) {
        if !methods.contains(&method) {
            continue;
        }
        match call_of(sf, params, pos, kws) {
            Ok(call) => return Ok(call),
            Err(e) => {
                first_err.get_or_insert(format!("{method}: {e}"));
            }
        }
    }
    Err(NlError::syntax(
        first_err.unwrap_or_else(|| format!("unknown method {method:?}")),
        line,
    ))
}

// ---------- printing ----------

fn py_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn py_list<'a>(items: impl IntoIterator<Item = &'a String>) -> String {
    let quoted: Vec<String> = items.into_iter().map(|s| py_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// A value as a Python literal; `None` for a non-finite float.
fn py_value(v: &Value) -> Option<String> {
    Some(match v {
        Value::Null => "None".into(),
        Value::Bool(true) => "True".into(),
        Value::Bool(false) => "False".into(),
        Value::Str(s) => py_str(s),
        Value::Date(_) => format!("date({})", py_str(&v.render())),
        Value::Float(f) if !f.is_finite() => return None,
        Value::Float(f) => format_float(*f),
        Value::Int(i) => i.to_string(),
    })
}

/// A hole as a Python argument; `None` when it has no Python literal.
fn py_arg(kind: Kind, hole: &Hole) -> Option<String> {
    Some(match (kind, hole) {
        (_, Hole::Name(s)) => py_str(s),
        (_, Hole::Names(v)) => py_list(v),
        (_, Hole::Value(v)) => py_value(v)?,
        (_, Hole::Expr(e)) => py_str(&e.to_sql()),
        (_, Hole::Int(i)) => i.to_string(),
        (_, Hole::Frac(f)) => py_value(&Value::Float(*f))?,
        (Kind::Word(words), Hole::Word(i)) => py_str(spelling(words, *i, 1)),
        (Kind::Flag(_), _) => "True".into(),
        (_, Hole::Aggs(aggs)) => {
            let ctor = |(f, col): &(AggFunc, Option<String>)| match (f, col) {
                (AggFunc::CountRecords, None) => Some("Count()".to_string()),
                (AggFunc::Count, None) => None,
                (f, col) => {
                    let col = col.as_deref().map(py_str).unwrap_or_default();
                    Some(format!("{}({col})", surface::agg_spelling(*f, 2)))
                }
            };
            format!(
                "[{}]",
                aggs.iter()
                    .map(ctor)
                    .collect::<Option<Vec<_>>>()?
                    .join(", ")
            )
        }
        _ => return None,
    })
}

/// Print one skill call as a Python-API method invocation (without the
/// receiver), or say why it has none.
pub fn format_call(call: &SkillCall) -> Result<String> {
    let refuse =
        |why: &str| NlError::translation(format!("{} has no Python API form: {why}", call.name()));
    let (sf, holes) = surface::holes(call).map_err(|e| refuse(&e))?;
    let at = SURFACES.iter().position(|s| std::ptr::eq(s, sf));
    let (methods, params) = &signatures()[at.unwrap_or_default()];
    let mut args = Vec::new();
    let mut positional = true;
    for p in params {
        let hole = p.fields.iter().find_map(|f| {
            let (i, kind) = sf.field(f)?;
            holes[i].as_ref().map(|h| (kind, h))
        });
        let Some((kind, hole)) = hole else {
            positional = false;
            continue;
        };
        positional &= !p.keyword;
        match hole {
            Hole::Keys(keys) => {
                let asc: Vec<&str> = keys
                    .iter()
                    .map(|(_, a)| if *a { "True" } else { "False" })
                    .collect();
                args.push(format!("by = {}", py_list(keys.iter().map(|(c, _)| c))));
                args.push(format!("ascending = [{}]", asc.join(", ")));
            }
            Hole::Pairs(pairs) => {
                let (left, right): (Vec<String>, Vec<String>) = pairs.iter().cloned().unzip();
                match left == right {
                    true => args.push(format!("on = {}", py_list(&left))),
                    false => args.push(format!(
                        "left_on = {}, right_on = {}",
                        py_list(&left),
                        py_list(&right)
                    )),
                }
            }
            hole => {
                let text =
                    py_arg(kind, hole).ok_or_else(|| refuse("a value has no Python literal"))?;
                args.push(match positional {
                    true => text,
                    false => format!("{} = {text}", p.kws[0]),
                });
            }
        }
    }
    let text = format!("{}({})", methods[0], args.join(", "));
    let back = parse_pyapi(&format!("data.{text}")).ok();
    let back = back.and_then(|p| p.statements.into_iter().next()?.calls.into_iter().next());
    match back {
        Some(back) if back == *call => Ok(text),
        _ => Err(refuse("its printed form does not read back")),
    }
}

/// Print a chain of skill calls as one Python statement on `dataset`.
pub fn format_program(dataset: &str, calls: &[SkillCall]) -> Result<String> {
    let mut s = dataset.to_string();
    for call in calls {
        s.push('.');
        s.push_str(&format_call(call)?);
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::{AggSpec, JoinType};
    use dc_viz::ChartType;

    #[test]
    fn figure3b_compute_call() {
        // The paper's Python form of the Figure 3 skill.
        let src = r#"california_car_collisions.compute(
            aggregates = [Count("case_id")],
            for_each = ["party_sobriety"],
            names = ["NumberOfCases"]
        )"#;
        let prog = parse_pyapi(src).unwrap();
        assert_eq!(prog.statements.len(), 1);
        let st = &prog.statements[0];
        assert_eq!(st.root, "california_car_collisions");
        match &st.calls[0] {
            SkillCall::Compute { aggs, for_each } => {
                assert_eq!(aggs[0].func, AggFunc::Count);
                assert_eq!(aggs[0].column.as_deref(), Some("case_id"));
                assert_eq!(aggs[0].output, "NumberOfCases");
                assert_eq!(for_each, &vec!["party_sobriety".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn section41_average_median() {
        let src = r#"data.compute(
            aggregates = [Average('Age'), Median('Salary')],
            for_each = ['JobLevel']
        )"#;
        let prog = parse_pyapi(src).unwrap();
        match &prog.statements[0].calls[0] {
            SkillCall::Compute { aggs, .. } => {
                assert_eq!(aggs[0].func, AggFunc::Avg);
                assert_eq!(aggs[1].func, AggFunc::Median);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn method_chains_and_assignment() {
        let src = "result = sales.filter(\"region = 'west'\").select([\"price\", \"quantity\"]).head(10)\n";
        let prog = parse_pyapi(src).unwrap();
        let st = &prog.statements[0];
        assert_eq!(st.target.as_deref(), Some("result"));
        assert_eq!(st.calls.len(), 3);
        assert!(matches!(st.calls[0], SkillCall::KeepRows { .. }));
        assert!(matches!(st.calls[2], SkillCall::Limit { n: 10 }));
    }

    #[test]
    fn print_statements_marked_dead() {
        let prog = parse_pyapi("print(result)\nsales.head(5)\n").unwrap();
        assert!(prog.statements[0].is_print);
        assert!(!prog.statements[1].is_print);
    }

    #[test]
    fn count_star_maps_to_count_records() {
        let prog = parse_pyapi("t.compute(aggregates = [Count()])").unwrap();
        match &prog.statements[0].calls[0] {
            SkillCall::Compute { aggs, .. } => {
                assert_eq!(aggs[0].func, AggFunc::CountRecords);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = parse_pyapi("sales.\n.bad").unwrap_err();
        assert!(matches!(err, NlError::PySyntax { .. }));
        assert!(parse_pyapi("t.nosuchmethod(1)").is_err());
        assert!(parse_pyapi("t.filter(").is_err());
        assert!(parse_pyapi("t.filter('unterminated").is_err());
    }

    #[test]
    fn roundtrip_calls() {
        let calls = vec![
            SkillCall::KeepRows {
                predicate: dc_engine::Expr::col("x").gt(dc_engine::Expr::lit(5i64)),
            },
            SkillCall::KeepColumns {
                columns: vec!["a".into(), "b".into()],
            },
            SkillCall::Compute {
                aggs: vec![AggSpec::new(AggFunc::Count, "case_id", "NumberOfCases")],
                for_each: vec!["party_sobriety".into()],
            },
            SkillCall::Sort {
                keys: vec![("a".into(), false)],
            },
            SkillCall::Limit { n: 3 },
            SkillCall::Sample {
                fraction: 0.25,
                seed: 42,
            },
            SkillCall::PredictTimeSeries {
                measures: vec!["GDPC1".into()],
                horizon: 12,
                time_column: "DATE".into(),
            },
        ];
        let text = format_program("data", &calls).unwrap();
        let parsed = parse_pyapi(&text).unwrap();
        assert_eq!(parsed.statements[0].calls, calls, "text was: {text}");
    }

    #[test]
    fn join_and_plot_parse() {
        let src = "orders.join(\"customers\", on = [\"customer_id\"], how = \"left\").plot(chart = \"bar\", x = \"region\", y = \"total\")";
        let prog = parse_pyapi(src).unwrap();
        assert!(matches!(
            prog.statements[0].calls[0],
            SkillCall::Join {
                how: JoinType::Left,
                ..
            }
        ));
        match &prog.statements[0].calls[1] {
            SkillCall::Plot { chart, x, .. } => {
                assert_eq!(*chart, ChartType::Bar);
                assert_eq!(x.as_deref(), Some("region"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiline_with_comments() {
        let src = "# load and trim\nsales.filter(\"price > 10\") # keep expensive\n";
        let prog = parse_pyapi(src).unwrap();
        assert_eq!(prog.statements.len(), 1);
    }
}
