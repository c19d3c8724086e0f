//! Expression AST.
//!
//! Expressions are the leaf language under every skill: filter predicates,
//! computed columns, aggregate arguments, and the formulas in the Visualize
//! skill's KPI phrases all lower to this AST, which the evaluator in
//! [`crate::eval`] executes vectorized against a [`crate::table::Table`].
//! [`dtype_of`] types it against a schema without evaluating it.

use std::fmt;

use crate::dtype::DataType;
use crate::value::Value;

pub mod prune;
mod typing;

pub use typing::{dtype_of, ExprTy, TypeFinding, TypeProblem};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinaryOp {
    /// Whether this operator yields a boolean.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | Neq | Lt | Le | Gt | Ge)
    }

    /// Whether this operator combines booleans.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Eq => "=",
            Neq => "<>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            And => "AND",
            Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Boolean NOT (three-valued).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    Abs,
    Ceil,
    Floor,
    Round,
    Sqrt,
    Ln,
    Exp,
    Pow,
    Lower,
    Upper,
    Trim,
    Length,
    Concat,
    Contains,
    StartsWith,
    EndsWith,
    Replace,
    Substring,
    /// Year of a date.
    Year,
    /// Month (1-12) of a date.
    Month,
    /// Day of month of a date.
    Day,
    /// First non-null argument.
    Coalesce,
    /// `if(cond, then, else)`.
    If,
    /// `bin(x, width)`: lower bound of the width-sized bucket containing
    /// `x` (powers the `party_ageInt20`-style binned axes of Figure 1).
    Bin,
}

impl ScalarFunc {
    /// Canonical lowercase name (used by SQL generation and GEL parsing).
    pub fn name(self) -> &'static str {
        use ScalarFunc::*;
        match self {
            Abs => "abs",
            Ceil => "ceil",
            Floor => "floor",
            Round => "round",
            Sqrt => "sqrt",
            Ln => "ln",
            Exp => "exp",
            Pow => "pow",
            Lower => "lower",
            Upper => "upper",
            Trim => "trim",
            Length => "length",
            Concat => "concat",
            Contains => "contains",
            StartsWith => "starts_with",
            EndsWith => "ends_with",
            Replace => "replace",
            Substring => "substring",
            Year => "year",
            Month => "month",
            Day => "day",
            Coalesce => "coalesce",
            If => "if",
            Bin => "bin",
        }
    }

    /// Look up a function by case-insensitive name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        use ScalarFunc::*;
        let all = [
            Abs, Ceil, Floor, Round, Sqrt, Ln, Exp, Pow, Lower, Upper, Trim, Length, Concat,
            Contains, StartsWith, EndsWith, Replace, Substring, Year, Month, Day, Coalesce, If,
            Bin,
        ];
        all.into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
    }

    /// Expected argument count range `(min, max)`.
    pub fn arity(self) -> (usize, usize) {
        use ScalarFunc::*;
        match self {
            Abs | Ceil | Floor | Sqrt | Ln | Exp | Lower | Upper | Trim | Length | Year | Month
            | Day => (1, 1),
            Round => (1, 2),
            Pow | Contains | StartsWith | EndsWith | Bin => (2, 2),
            Replace | Substring | If => (3, 3),
            Concat | Coalesce => (1, usize::MAX),
        }
    }
}

/// An expression tree evaluated against a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by (case-insensitive) name.
    Column(String),
    /// A constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Scalar function call.
    Func { func: ScalarFunc, args: Vec<Expr> },
    /// Explicit cast.
    Cast { expr: Box<Expr>, to: DataType },
    /// `expr IS NULL` (never itself null).
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// `expr IN (v1, v2, ...)`, optionally negated.
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive), optionally negated.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Build a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Eq, other)
    }
    /// `self <> other`.
    pub fn neq(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Neq, other)
    }
    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Lt, other)
    }
    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Le, other)
    }
    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Gt, other)
    }
    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Ge, other)
    }
    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::And, other)
    }
    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Or, other)
    }
    /// `self + other`.
    #[allow(clippy::should_implement_trait)] // builder method, not an operator impl
    pub fn add(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Add, other)
    }
    /// `self - other`.
    #[allow(clippy::should_implement_trait)] // builder method, not an operator impl
    pub fn sub(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Sub, other)
    }
    /// `self * other`.
    #[allow(clippy::should_implement_trait)] // builder method, not an operator impl
    pub fn mul(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Mul, other)
    }
    /// `self / other`.
    #[allow(clippy::should_implement_trait)] // builder method, not an operator impl
    pub fn div(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Div, other)
    }
    /// Boolean negation.
    #[allow(clippy::should_implement_trait)] // builder method, not an operator impl
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }
    /// `self BETWEEN low AND high`.
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::Between {
            expr: Box::new(self),
            low: Box::new(low),
            high: Box::new(high),
            negated: false,
        }
    }
    /// `self IN (list)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: false,
        }
    }
    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self IS NOT NULL`.
    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }
    /// Scalar function call.
    pub fn func(func: ScalarFunc, args: Vec<Expr>) -> Expr {
        Expr::Func { func, args }
    }
    /// Explicit cast.
    pub fn cast(self, to: DataType) -> Expr {
        Expr::Cast {
            expr: Box::new(self),
            to,
        }
    }

    /// Collect every column name referenced in the tree (used by skill-DAG
    /// slicing to decide which upstream steps an artifact depends on).
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|c| c.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Unary { expr, .. } => expr.referenced_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Cast { expr, .. } => expr.referenced_columns(out),
            Expr::IsNull(e) | Expr::IsNotNull(e) => e.referenced_columns(out),
            Expr::InList { expr, .. } => expr.referenced_columns(out),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
        }
    }

    /// Render as a SQL fragment (quoting identifiers, escaping strings).
    pub fn to_sql(&self) -> String {
        match self {
            Expr::Column(name) => quote_ident(name),
            Expr::Literal(v) => sql_literal(v),
            Expr::Binary { left, op, right } => {
                format!("({} {} {})", left.to_sql(), op.sql(), right.to_sql())
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => format!("(NOT {})", expr.to_sql()),
                UnaryOp::Neg => format!("(-{})", expr.to_sql()),
            },
            Expr::Func { func, args } => {
                let args: Vec<String> = args.iter().map(|a| a.to_sql()).collect();
                format!("{}({})", func.name(), args.join(", "))
            }
            Expr::Cast { expr, to } => format!("CAST({} AS {})", expr.to_sql(), to.name()),
            Expr::IsNull(e) => format!("({} IS NULL)", e.to_sql()),
            Expr::IsNotNull(e) => format!("({} IS NOT NULL)", e.to_sql()),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(sql_literal).collect();
                format!(
                    "({} {}IN ({}))",
                    expr.to_sql(),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => format!(
                "({} {}BETWEEN {} AND {})",
                expr.to_sql(),
                if *negated { "NOT " } else { "" },
                low.to_sql(),
                high.to_sql()
            ),
        }
    }
}

/// Quote a SQL identifier: bare when it lexes back as the same column (a
/// word that is not a digit-led token or one of the keywords `NULL`, `TRUE`,
/// `FALSE`, `NOT` that the expression grammar reads as something else).
pub fn quote_ident(name: &str) -> String {
    let simple = name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !["null", "true", "false", "not"]
            .iter()
            .any(|k| name.eq_ignore_ascii_case(k));
    if simple {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// Render a value as a SQL literal.
pub fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format_float(*f),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{}'", crate::date::format_date(*d)),
    }
}

/// A float as text that every surface (SQL, GEL, the Python API) lexes
/// back as the same `f64`, bit for bit: the shortest round-trip digits, with
/// a `.0` or an exponent so it never reads as an integer (`2.0`, `0.1`,
/// `1e20`, `1e-7`). Non-finite values print as `NaN`/`inf`, which no
/// surface reads back; the surfaces refuse them before printing.
pub fn format_float(f: f64) -> String {
    format!("{f:?}")
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composition() {
        let e = Expr::col("age")
            .ge(Expr::lit(18i64))
            .and(Expr::col("party_type").eq(Expr::lit("driver")));
        assert_eq!(e.to_sql(), "((age >= 18) AND (party_type = 'driver'))");
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::col("a").add(Expr::col("A")).mul(Expr::col("b"));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn sql_literal_escaping() {
        assert_eq!(sql_literal(&Value::Str("it's".into())), "'it''s'");
        assert_eq!(sql_literal(&Value::Null), "NULL");
        assert_eq!(sql_literal(&Value::Date(0)), "DATE '1970-01-01'");
    }

    /// Every finite float prints as text that reads back bit for bit, with
    /// a `.0` or an exponent, so an integral float never reads as an integer.
    #[test]
    fn float_literals_read_back_as_the_same_float() {
        assert_eq!(sql_literal(&Value::Float(1e20)), "1e20");
        assert_eq!(sql_literal(&Value::Float(2.0)), "2.0");
        assert_eq!(sql_literal(&Value::Float(1e15)), "1000000000000000.0");
        for f in [1e20, -1e20, 1e15, 1.0 / 3.0, 5e-324, f64::MAX, -0.0, 0.1] {
            let text = sql_literal(&Value::Float(f));
            let mut digits = text.trim_start_matches('-').chars();
            assert!(
                digits.all(|c| c.is_ascii_digit() || "e.-".contains(c)),
                "{text}"
            );
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
        }
    }

    #[test]
    fn quote_ident_rules() {
        assert_eq!(quote_ident("party_type"), "party_type");
        assert_eq!(quote_ident("2col"), "\"2col\"");
        assert_eq!(quote_ident("has space"), "\"has space\"");
        assert_eq!(quote_ident("has\"quote"), "\"has\"\"quote\"");
        assert_eq!(quote_ident("with.dot"), "\"with.dot\"");
        assert_eq!(quote_ident("Null"), "\"Null\"");
        assert_eq!(quote_ident(""), "\"\"");
    }

    #[test]
    fn func_lookup() {
        assert_eq!(ScalarFunc::from_name("LOWER"), Some(ScalarFunc::Lower));
        assert_eq!(ScalarFunc::from_name("nope"), None);
        assert_eq!(ScalarFunc::If.arity(), (3, 3));
    }

    #[test]
    fn between_and_in_sql() {
        let e = Expr::col("x").between(Expr::lit(1i64), Expr::lit(5i64));
        assert_eq!(e.to_sql(), "(x BETWEEN 1 AND 5)");
        let e = Expr::col("c").in_list(vec![Value::Str("a".into()), Value::Str("b".into())]);
        assert_eq!(e.to_sql(), "(c IN ('a', 'b'))");
    }
}
