//! One description of each skill's surface.
//!
//! Every skill is written two ways: as a GEL sentence (§2.3, what recipes
//! show) and as a Python-API method call (§4.1, the dialect NL2Code
//! generates). [`SURFACES`] describes both for all 50 skills: the name and
//! category, the typed holes ([`Kind`]), the GEL templates and the Python
//! signature. [`holes`] and [`build`] move a call's fields into holes and
//! back. `dc-gel` and `dc-nl`'s `pyapi` interpret this table in both
//! directions, and [`registry`] reads it for Table 1 and autocomplete.
//!
//! **GEL templates.** `{field}` is a hole (`{field:label}` names it
//! `<label>` in the registry; a label with a `<` is shown as written).
//! `[...]` is an optional group: printed when its holes are present (a
//! group without holes is always printed), skipped when it does not read.
//! Adjacent groups read in any order, and a literal's leading comma is
//! optional when reading. A template starting with `~` only parses (it
//! keeps a loose form), one starting with `!` marks a sentence that is not
//! this skill, and `@` marks the registry's template. Sentences are tried
//! in table order, templates in listed order; a call prints with the first
//! template that has every present hole and whose holes outside groups are
//! all present.
//!
//! **Python signatures.** `method|alias(param, ...)`, each param
//! `[field[/field2]:]kw[|kw..][=][?default]`: param `i` reads from
//! position `i` or any of its keywords; `=` prints it as `kw = value`;
//! `field/field2` prints whichever is present and reads into `field`;
//! `?default` is what an absent argument reads as.

use dc_engine::{AggFunc, AggSpec, DataType, Expr, JoinType, Value};
use dc_ml::{MlMethod, OutlierMethod};
use dc_viz::ChartType;

use crate::skill::{Category, DatePart, SkillCall};

/// What a hole holds, and so how each surface reads and prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A name (column, dataset, file, model) or free text.
    Name,
    /// A list of names.
    Names,
    /// A literal value.
    Value,
    /// A predicate in GEL's condition grammar.
    Cond,
    /// A SQL expression.
    Expr,
    /// An integer.
    Int,
    /// A fraction (GEL writes it as a percentage).
    Frac,
    /// One word of a vocabulary; each entry is `gel|python|aliases..`.
    Word(&'static [&'static str]),
    /// A switch: GEL writes the text, Python `True`.
    Flag(&'static str),
    /// Aggregate functions with their optional column.
    Aggs,
    /// Sort keys: column, ascending.
    Keys,
    /// Join keys: left column, right column.
    Pairs,
}

impl Kind {
    /// The spellings a word or a switch hole reads.
    pub fn words(self) -> impl Iterator<Item = &'static str> {
        let (words, flag): (&[&str], _) = match self {
            Word(words) => (words, None),
            Flag(text) => (&[], Some(text)),
            _ => (&[], None),
        };
        words.iter().flat_map(|w| w.split('|')).chain(flag)
    }
}

/// A hole's content.
#[derive(Debug, Clone, PartialEq)]
pub enum Hole {
    Name(String),
    Names(Vec<String>),
    Value(Value),
    Expr(Expr),
    Int(i128),
    Frac(f64),
    /// Index into the kind's vocabulary (`0` for a flag that is on).
    Word(usize),
    Aggs(Vec<(AggFunc, Option<String>)>),
    Keys(Vec<(String, bool)>),
    Pairs(Vec<(String, String)>),
}

/// Why a call has no surface form, or holes make no call.
type Res<T> = std::result::Result<T, String>;

fn err<T>(message: impl Into<String>) -> Res<T> {
    Err(message.into())
}

/// One skill's surface.
#[derive(Debug)]
pub struct Surface {
    pub name: &'static str,
    pub category: Category,
    pub fields: &'static [(&'static str, Kind)],
    pub gel: &'static [&'static str],
    pub py: &'static str,
}

impl Surface {
    /// The kind of field `name`, and its index.
    pub fn field(&self, name: &str) -> Option<(usize, Kind)> {
        let i = self.fields.iter().position(|(f, _)| *f == name)?;
        Some((i, self.fields[i].1))
    }
}

/// The `n`th spelling of vocabulary entry `i` (0 = GEL, 1 = Python, 2 =
/// constructor), falling back to the first.
pub fn spelling(words: &[&'static str], i: usize, n: usize) -> &'static str {
    let mut alts = words[i].split('|');
    let first = alts.next().unwrap_or_default();
    alts.nth(n.saturating_sub(1))
        .filter(|_| n > 0)
        .unwrap_or(first)
}

/// The vocabulary entry any of whose spellings is `text` (ASCII case
/// folded).
pub fn word(words: &[&str], text: &str) -> Option<usize> {
    words
        .iter()
        .position(|w| w.split('|').any(|a| a.eq_ignore_ascii_case(text.trim())))
}

use Category::*;
use Kind::*;

macro_rules! surface {
    ($name:literal, $cat:ident, [$(($f:literal, $k:expr)),*], [$($g:literal),+], $py:literal) => {
        Surface { name: $name, category: $cat, fields: &[$(($f, $k)),*], gel: &[$($g),+], py: $py }
    };
}

/// Every skill's surface, in registry order (Table 1's catalog).
pub static SURFACES: [Surface; 50] = [
    surface!("LoadFile", DataIngestion, [("path", Name)],
        ["Load data from the file {path:file name}"], "load_file(path)"),
    surface!("LoadUrl", DataIngestion, [("url", Name)], ["Load data from the URL {url}"], "load_url(url)"),
    surface!("LoadTable", DataIngestion,
        [("database", Name), ("table", Name), ("columns", Names), ("predicate", Cond)],
        ["Load the columns {columns} of the table {table} from the database {database}[ where {predicate}]",
         "@Load the table {table} from the database {database}[ where {predicate}]"],
        "load_table(database, table, columns=, predicate:where=)"),
    surface!("UseDataset", DataIngestion, [("name", Name), ("version", Int)],
        ["Use the dataset {name}, version {version}", "Use the dataset {name}"],
        "use_dataset(name, version=)"),
    surface!("UseSnapshot", DataIngestion, [("name", Name)], ["Use the snapshot {name}"], "use_snapshot(name)"),
    surface!("DescribeColumn", DataExploration, [("column", Name)],
        ["Describe the column {column}"], "describe(column)"),
    surface!("DescribeDataset", DataExploration, [], ["Describe the dataset"], "describe()"),
    surface!("ListDatasets", DataExploration, [], ["List the datasets"], "list_datasets()"),
    surface!("ShowHead", DataExploration, [("n", Int)], ["Show the first {n}[ rows]"], "show_head(n)"),
    surface!("CountRows", DataExploration, [], ["Count the rows"], "count_rows()"),
    surface!("ProfileMissing", DataExploration, [], ["Profile the missing values"], "profile_missing()"),
    surface!("Visualize", DataVisualization, [("kpi", Name), ("by", Names)],
        ["!Visualize {kpi} where {by}", "Visualize {kpi} by {by}",
         "@~Visualize {kpi:kpi column} using {by:column}", "Visualize {kpi}"],
        "visualize(kpi, by:by|using=)"),
    surface!("Plot", DataVisualization,
        [("chart", Word(CHARTS)), ("x", Name), ("y", Name), ("color", Name), ("size", Name), ("for_each", Name)],
        ["Plot a {chart} chart[ with the x-axis {x}][, the y-axis {y}][, colored by {color}][, sized by {size}][, for each {for_each}]",
         "@~Plot a {chart} chart with the x-axis {x}, the y-axis {y}",
         "~Plot a {chart} chart with[ the x-axis {x}][, the y-axis {y}][, colored by {color}][, colored using: {color}][, sized by {size}][, sized using: {size}][, for each {for_each}]"],
        "plot(chart:chart|kind=, x=, y=, color=, size=, for_each=)"),
    surface!("KeepRows", DataWrangling, [("predicate", Cond)],
        ["Keep the rows where {predicate:condition}"], "filter|keep_rows(predicate:condition|where)"),
    surface!("DropRows", DataWrangling, [("predicate", Cond)],
        ["Drop the rows where {predicate:condition}"], "drop_rows(predicate:condition|where)"),
    surface!("KeepColumns", DataWrangling, [("columns", Names)],
        ["Keep the columns {columns}"], "select|keep_columns(columns)"),
    surface!("DropColumns", DataWrangling, [("columns", Names)],
        ["Drop the columns {columns}"], "drop_columns(columns)"),
    surface!("RenameColumn", DataWrangling, [("from", Name), ("to", Name)],
        ["Rename the column {from} to {to}"], "rename|rename_column(from:from_name, to:to_name|to)"),
    surface!("CreateColumn", DataWrangling, [("name", Name), ("expr", Expr)],
        ["!Create a new column {name} with text {expr}", "!Create a new column {name} with value {expr}",
         "Create a new column {name} as {expr:expression}"],
        "with_column|create_column(name, expr:expr|expression)"),
    surface!("CreateConstantColumn", DataWrangling, [("name", Name), ("text", Name), ("value", Value)],
        ["Create a new column {name} with text {text:value}", "Create a new column {name} with value {value}"],
        "with_constant|create_constant_column(name, value/text:value|text)"),
    surface!("Compute", DataWrangling, [("aggs", Aggs), ("for_each", Names), ("names", Names)],
        ["Compute {aggs:the <aggregate> of <column>} for each {for_each:columns}[ and call the computed columns {names}]",
         "Compute {aggs}[ and call the computed columns {names}]"],
        "compute|aggregate_data(aggs:aggregates|aggregate|aggregate_data=, for_each:for_each|group_by=, names:names|call|output_names=)"),
    surface!("Pivot", DataWrangling,
        [("index", Name), ("columns", Name), ("values", Name), ("agg", Word(AGGS))],
        ["Pivot on {index} by {columns} using the {agg:aggregate} of {values}",
         "~Pivot on {index} by {columns} using {agg} of {values}"],
        "pivot(index=, columns=, values=, agg:agg|aggregate=)"),
    surface!("Sort", DataWrangling, [("keys", Keys)], ["Sort by {keys:columns}"], "sort|sort_values(keys:by=)"),
    surface!("Top", DataWrangling, [("column", Name), ("n", Int)],
        ["Keep the top {n} rows by {column}"], "top(n, column:by|column=)"),
    surface!("Limit", DataWrangling, [("n", Int)], ["Keep the first {n}[ rows]"], "head|limit(n)"),
    surface!("Concat", DataWrangling,
        [("other", Name), ("remove_duplicates", Flag("remove all duplicates")), ("datasets", Names)],
        ["Concatenate with the dataset {other}[ {remove_duplicates}]",
         "@~Concatenate the datasets {datasets:a} and {other:b}[ {remove_duplicates}]",
         "~Concatenate the datasets {datasets}[ {remove_duplicates}]"],
        "concat(other, remove_duplicates:remove_duplicates|dedupe=)"),
    surface!("Join", DataWrangling, [("other", Name), ("on", Pairs), ("how", Word(JOIN_HOW))],
        ["Join with the dataset {other} on {on:columns}[ as a {how} join]"], "join|merge(other, on=, how=)"),
    surface!("Distinct", DataWrangling, [("columns", Names)],
        ["Remove duplicate rows[ based on {columns}]"], "distinct|drop_duplicates(columns:columns|subset)"),
    surface!("DropMissing", DataWrangling, [("columns", Names)],
        ["Drop the rows with missing values", "@Drop the rows with missing {columns}"],
        "dropna|drop_missing(columns:columns|subset)"),
    surface!("FillMissing", DataWrangling, [("column", Name), ("value", Value)],
        ["Fill the missing values of {column} with {value}"], "fillna|fill_missing(column, value)"),
    surface!("ReplaceValues", DataWrangling, [("column", Name), ("from", Value), ("to", Value)],
        ["Replace {from} with {to} in the column {column}"], "replace(column, from, to)"),
    surface!("CastColumn", DataWrangling, [("column", Name), ("to", Word(DTYPES))],
        ["Change the type of {column} to {to:type}"], "cast(column, to)"),
    surface!("BinColumn", DataWrangling, [("column", Name), ("width", Int), ("name", Name)],
        ["Bin the column {column} with width {width}[ and call it {name}]"], "bin(column, width, name=)"),
    surface!("ExtractDatePart", DataWrangling, [("column", Name), ("part", Word(PARTS)), ("name", Name)],
        ["Extract the {part} of {column}[ and call it {name}]"], "extract_date_part(column, part, name=)"),
    surface!("TrimColumn", DataWrangling, [("column", Name)],
        ["Trim whitespace in the column {column}"], "trim(column)"),
    surface!("Sample", DataWrangling, [("fraction", Frac), ("seed", Int)],
        ["Sample {fraction:percent}[ of the rows][ with seed {seed}]"], "sample(fraction:fraction|frac, seed=)"),
    surface!("ShuffleRows", DataWrangling, [("seed", Int)], ["Shuffle the rows[ with seed {seed}]"], "shuffle(seed=)"),
    surface!("TrainModel", MachineLearning,
        [("name", Name), ("target", Name), ("features", Names), ("method", Word(METHODS))],
        ["Train a model named {name} to predict {target}[ using {features}][ with {method}]",
         "@~Train a model to predict {target:column}[ using {features}][ with {method}]"],
        "train_model(target=, name=?model, features=, method=)"),
    surface!("Predict", MachineLearning, [("model", Name)], ["Predict with the model {model}"], "predict(model)"),
    surface!("PredictTimeSeries", MachineLearning,
        [("measures", Names), ("horizon", Int), ("time_column", Name)],
        ["Predict time series with measure columns {measures:columns} for the next {horizon:n} values of {time_column:column}"],
        "predict_time_series(measures:measures|measure_columns=, horizon:horizon|n=, time_column:time_column|time=)"),
    surface!("DetectOutliers", MachineLearning, [("column", Name), ("method", Word(OUTLIERS))],
        ["Detect outliers in the column {column}[ using the {method}[ method]]"], "detect_outliers(column, method=)"),
    surface!("Cluster", MachineLearning, [("k", Int), ("features", Names)],
        ["Cluster the rows into {k} groups using {features:columns}"], "cluster(k=, features=)"),
    surface!("EvaluateModel", MachineLearning, [("model", Name), ("target", Name)],
        ["Evaluate the model {model} against {target:column}"], "evaluate_model(model, target)"),
    surface!("RunSql", Sql, [("query", Name)], ["Run the SQL query {query}"], "run_sql(query)"),
    surface!("ExportCsv", Sql, [], ["Export the dataset as CSV"], "export_csv()"),
    surface!("SaveArtifact", Collaboration, [("name", Name)], ["Save this as {name}"], "save|save_artifact(name)"),
    surface!("Snapshot", Collaboration, [("name", Name)], ["Snapshot this as {name}"], "snapshot(name)"),
    surface!("Define", Collaboration, [("phrase", Name), ("expansion", Name)],
        ["Define {phrase} as {expansion}"], "define(phrase, expansion)"),
    surface!("Comment", Collaboration, [("text", Name)], ["Comment: {text}", "~// {text}"], "comment(text)"),
    surface!("ShareArtifact", Collaboration, [("artifact", Name), ("with_user", Name)],
        ["Share the artifact {artifact} with {with_user:user}"], "share(artifact, with_user:with_user|user)"),
];

/// The surface of the skill named `name`.
pub fn surface(name: &str) -> Option<&'static Surface> {
    SURFACES.iter().find(|s| s.name == name)
}

/// One piece of a GEL template.
#[derive(Debug, Clone, PartialEq)]
pub enum Item<'t> {
    Lit(&'t str),
    /// A hole: field, registry label.
    Hole(&'t str, &'t str),
    /// An optional group.
    Opt(Vec<Item<'t>>),
}

/// Split a GEL template (its marker stripped) into items.
pub fn items(template: &str) -> Vec<Item<'_>> {
    fn group<'t>(t: &'t str, i: &mut usize) -> Vec<Item<'t>> {
        let mut out = Vec::new();
        while *i < t.len() {
            let rest = &t[*i..];
            if let Some(body) = rest.strip_prefix('{') {
                let end = body.find('}').unwrap_or(body.len());
                let (field, label) = body[..end]
                    .split_once(':')
                    .unwrap_or((&body[..end], &body[..end]));
                out.push(Item::Hole(field, label));
                *i += end + 2;
            } else if rest.starts_with('[') {
                *i += 1;
                out.push(Item::Opt(group(t, i)));
            } else if rest.starts_with(']') {
                *i += 1;
                return out;
            } else {
                let end = rest.find(['{', '[', ']']).unwrap_or(rest.len());
                out.push(Item::Lit(&rest[..end]));
                *i += end;
            }
        }
        out
    }
    group(template, &mut 0)
}

/// A template's marker (`~`, `!`, `@`, `@~` or none) and body.
pub fn marker(template: &str) -> (&str, &str) {
    let body = template.trim_start_matches(['@', '~', '!']);
    (&template[..template.len() - body.len()], body)
}

/// One registry entry: a skill the platform advertises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkillInfo {
    pub name: &'static str,
    pub category: Category,
    /// The GEL template users see in autocomplete.
    pub gel_template: String,
}

/// The full skill catalog (Table 1's "around 50 high-level skills"), each
/// with its `@` template (else its first printable one), holes shown as
/// `<label>` and groups with holes left out.
pub fn registry() -> Vec<SkillInfo> {
    fn show(items: &[Item<'_>], out: &mut String) {
        for item in items {
            match item {
                Item::Lit(l) => out.push_str(l),
                Item::Hole(_, l) if l.contains('<') => out.push_str(l),
                Item::Hole(_, l) => out.push_str(&format!("<{l}>")),
                Item::Opt(g) if !g.iter().any(|i| matches!(i, Item::Hole(..))) => show(g, out),
                Item::Opt(_) => {}
            }
        }
    }
    SURFACES
        .iter()
        .map(|s| {
            let shown = s.gel.iter().find(|t| t.starts_with('@'));
            let shown = shown.or_else(|| s.gel.iter().find(|t| marker(t).0.is_empty()));
            let mut gel_template = String::new();
            show(
                &items(marker(shown.unwrap_or(&s.gel[0])).1),
                &mut gel_template,
            );
            SkillInfo {
                name: s.name,
                category: s.category,
                gel_template,
            }
        })
        .collect()
}

/// How one field of a call moves into a hole and back.
trait Field: Sized {
    fn to_hole(&self) -> Res<Option<Hole>>;
    fn from_hole(h: Option<Hole>) -> Res<Self>;
}

fn bad<T>(h: Option<Hole>) -> Res<T> {
    err(match h {
        None => "is missing".to_string(),
        Some(h) => format!("cannot be {h:?}"),
    })
}

/// Fields that are one hole variant (`= default` when absent).
macro_rules! hole_field {
    ($($t:ty: $v:ident $(= $d:expr)?),*) => {$(
        impl Field for $t {
            fn to_hole(&self) -> Res<Option<Hole>> {
                Ok(Some(Hole::$v(self.clone())))
            }
            fn from_hole(h: Option<Hole>) -> Res<Self> {
                match h {
                    Some(Hole::$v(x)) => Ok(x),
                    $(None => Ok($d),)?
                    h => bad(h),
                }
            }
        }
    )*};
}
hole_field!(String: Name, Vec<String>: Names = Vec::new(), Expr: Expr, Value: Value, Vec<(String, bool)>: Keys);
// The one `f64` field a call has is a sample fraction.
hole_field!(f64: Frac);

/// Integer fields (`= default` when absent).
macro_rules! int_field {
    ($($t:ty $(= $d:expr)?),*) => {$(
        impl Field for $t {
            fn to_hole(&self) -> Res<Option<Hole>> {
                Ok(Some(Hole::Int(*self as i128)))
            }
            fn from_hole(h: Option<Hole>) -> Res<Self> {
                match h {
                    Some(Hole::Int(i)) => <$t>::try_from(i).map_err(|_| format!("{i} is out of range")),
                    $(None => Ok($d),)?
                    h => bad(h),
                }
            }
        }
    )*};
}
// A bare `u64` field is a seed (a version is an `Option<u64>`); a seed left out is 42.
int_field!(usize, i64, u64 = 42);

/// Enum fields: each vocabulary's words (`gel|python|aliases..`) with
/// their variants, and the variant an absent word means (which prints as
/// no word when the vocabulary has none for it).
macro_rules! word_field {
    ($($vis:vis $words:ident: $t:ty = [$($var:expr => $w:literal),*], $default:expr;)*) => {$(
        $vis const $words: &[&str] = &[$($w),*];
        impl Field for $t {
            fn to_hole(&self) -> Res<Option<Hole>> {
                match [$($var),*].iter().position(|x| x == self) {
                    Some(i) => Ok(Some(Hole::Word(i))),
                    None if Some(self) == $default.as_ref() => Ok(None),
                    None => err(format!("{self:?} has no word")),
                }
            }
            fn from_hole(h: Option<Hole>) -> Res<Self> {
                match h {
                    Some(Hole::Word(i)) if i < $words.len() => Ok([$($var),*][i].clone()),
                    None => $default.ok_or_else(|| "is missing".to_string()),
                    h => bad(h),
                }
            }
        }
    )*};
}
word_field! {
    CHARTS: ChartType = [ChartType::Line => "line", ChartType::Bar => "bar", ChartType::Scatter => "scatter",
        ChartType::Bubble => "bubble", ChartType::Histogram => "histogram", ChartType::Donut => "donut|donut|pie",
        ChartType::Box => "box", ChartType::Violin => "violin", ChartType::Heatmap => "heatmap"], Some(ChartType::Line);
    AGGS: AggFunc = [AggFunc::Count => "count|count|Count", AggFunc::CountRecords => "count of records|count_records|CountRecords",
        AggFunc::CountDistinct => "distinct count|count_distinct|CountDistinct", AggFunc::Sum => "sum|sum|Sum",
        AggFunc::Avg => "average|avg|Average|mean", AggFunc::Min => "minimum|min|Min", AggFunc::Max => "maximum|max|Max",
        AggFunc::Median => "median|median|Median", AggFunc::StdDev => "standard deviation|stddev|StdDev",
        AggFunc::Variance => "variance|variance|Variance", AggFunc::First => "first|first|First",
        AggFunc::Last => "last|last|Last"], Some(AggFunc::Sum);
    DTYPES: DataType = [DataType::Int => "Int|int|integer", DataType::Float => "Float|float|double|number",
        DataType::Str => "Str|str|text|string", DataType::Bool => "Bool|bool|boolean", DataType::Date => "Date|date"], None;
    PARTS: DatePart = [DatePart::Year => "year", DatePart::Month => "month", DatePart::Day => "day"], None;
    METHODS: MlMethod = [MlMethod::Linear => "linear regression|linear",
        MlMethod::DecisionTree => "a decision tree|tree|decision_tree"], Some(MlMethod::Auto);
    JOIN_HOW: JoinType = [JoinType::Left => "left", JoinType::Right => "right", JoinType::Full => "full|full|outer"],
        Some(JoinType::Inner);
    OUTLIERS: OutlierMethod = [OutlierMethod::default_zscore() => "zscore|zscore|z-score",
        OutlierMethod::default_iqr() => "iqr"], Some(OutlierMethod::default_zscore());
}

/// The aggregate function any of whose spellings is `name` (`gel`,
/// `python` or `Constructor`, ASCII case folded).
pub fn agg_named(name: &str) -> Option<AggFunc> {
    let i = word(AGGS, name)?;
    AggFunc::from_hole(Some(Hole::Word(i))).ok()
}

/// Spelling `n` of an aggregate function (0 = GEL, 1 = Python, 2 =
/// constructor).
pub fn agg_spelling(f: AggFunc, n: usize) -> &'static str {
    match f.to_hole() {
        Ok(Some(Hole::Word(i))) => spelling(AGGS, i, n),
        _ => f.name(),
    }
}

impl<T: Field> Field for Option<T> {
    fn to_hole(&self) -> Res<Option<Hole>> {
        self.as_ref().map_or(Ok(None), T::to_hole)
    }
    fn from_hole(h: Option<Hole>) -> Res<Self> {
        h.map(|h| T::from_hole(Some(h))).transpose()
    }
}

/// A switch.
impl Field for bool {
    fn to_hole(&self) -> Res<Option<Hole>> {
        Ok(self.then_some(Hole::Word(0)))
    }
    fn from_hole(h: Option<Hole>) -> Res<Self> {
        match h {
            None => Ok(false),
            Some(Hole::Word(0)) => Ok(true),
            h => bad(h),
        }
    }
}

/// A list that prints only when it has items.
struct NonEmpty;

impl NonEmpty {
    fn to_hole(v: &[String]) -> Res<Option<Hole>> {
        Ok((!v.is_empty()).then(|| Hole::Names(v.to_vec())))
    }
    fn from_hole(h: Option<Hole>) -> Res<Vec<String>> {
        Vec::<String>::from_hole(h)
    }
}

type Put<'a> = dyn FnMut(&str, Option<Hole>) + 'a;
type TakeHole<'a> = dyn FnMut(&str) -> Option<Hole> + 'a;

/// Field `f` out of the holes, its error naming the skill and the field.
fn get<T>(
    sf: &Surface,
    take: &mut TakeHole<'_>,
    f: &str,
    from: fn(Option<Hole>) -> Res<T>,
) -> Res<T> {
    from(take(f)).map_err(|e| format!("{} {f} {e}", sf.name))
}

/// The calls whose fields move one for one: `field = Codec` picks a
/// codec other than the field type's.
macro_rules! binding {
    ($($v:ident { $($f:ident $(= $c:ident)?),* })*) => {
        fn holes_of(call: &SkillCall, put: &mut Put<'_>) -> Res<()> {
            match call {
                $(SkillCall::$v { $($f),* } => { $(put(stringify!($f), binding!(@to $f $($c)?)?);)* })*
                other => return err(format!("{} has no binding", other.name())),
            }
            Ok(())
        }
        fn build_of(sf: &Surface, take: &mut TakeHole<'_>) -> Res<SkillCall> {
            Ok(match sf.name {
                $(stringify!($v) => SkillCall::$v { $($f: get(sf, take, stringify!($f), binding!(@from $($c)?))?),* },)*
                other => return err(format!("no skill {other}")),
            })
        }
    };
    (@to $f:ident) => { Field::to_hole($f) };
    (@to $f:ident $c:ident) => { $c::to_hole($f) };
    (@from) => { Field::from_hole };
    (@from $c:ident) => { $c::from_hole };
}

binding! {
    LoadFile { path }
    LoadUrl { url }
    LoadTable { database, table, columns, predicate }
    UseDataset { name, version }
    UseSnapshot { name }
    DescribeColumn { column }
    DescribeDataset {}
    ListDatasets {}
    ShowHead { n }
    CountRows {}
    ProfileMissing {}
    Visualize { kpi, by = NonEmpty }
    Plot { chart, x, y, color, size, for_each }
    KeepRows { predicate }
    DropRows { predicate }
    KeepColumns { columns }
    DropColumns { columns }
    RenameColumn { from, to }
    CreateColumn { name, expr }
    Pivot { index, columns, values, agg }
    Sort { keys }
    Top { column, n }
    Limit { n }
    Distinct { columns = NonEmpty }
    DropMissing { columns = NonEmpty }
    FillMissing { column, value }
    ReplaceValues { column, from, to }
    CastColumn { column, to }
    BinColumn { column, width, name }
    ExtractDatePart { column, part, name }
    TrimColumn { column }
    Sample { fraction, seed }
    ShuffleRows { seed }
    Predict { model }
    PredictTimeSeries { measures, horizon, time_column }
    DetectOutliers { column, method }
    Cluster { k, features }
    EvaluateModel { model, target }
    RunSql { query }
    ExportCsv {}
    SaveArtifact { name }
    Snapshot { name }
    Define { phrase, expansion }
    Comment { text }
    ShareArtifact { artifact, with_user }
}

/// A call's surface and its fields as holes, in [`Surface::fields`] order
/// (`None` for an absent or default field). A call no surface can print
/// is an error.
pub fn holes(call: &SkillCall) -> Res<(&'static Surface, Vec<Option<Hole>>)> {
    use SkillCall::*;
    let sf = surface(call.name()).ok_or_else(|| format!("{} has no surface", call.name()))?;
    let mut h = vec![None; sf.fields.len()];
    let mut put = |f: &str, hole: Option<Hole>| {
        if let Some((i, _)) = sf.field(f) {
            h[i] = hole;
        }
    };
    match call {
        CreateConstantColumn { name, value } => {
            put("name", name.to_hole()?);
            match value {
                Value::Str(s) => put("text", s.to_hole()?),
                v => put("value", v.to_hole()?),
            }
        }
        Compute { aggs, for_each } => {
            let outputs: Vec<String> = aggs.iter().map(|a| a.output.clone()).collect();
            let defaults = aggs
                .iter()
                .map(|a| AggSpec::default_output(a.func, a.column.as_deref()));
            let renamed = !outputs.iter().cloned().eq(defaults);
            put(
                "aggs",
                Some(Hole::Aggs(
                    aggs.iter().map(|a| (a.func, a.column.clone())).collect(),
                )),
            );
            put("for_each", NonEmpty::to_hole(for_each)?);
            put("names", renamed.then_some(Hole::Names(outputs)));
        }
        Join {
            other,
            left_on,
            right_on,
            how,
        } => {
            if left_on.len() != right_on.len() {
                return err("a join's left and right keys differ in number");
            }
            put("other", other.to_hole()?);
            put(
                "on",
                Some(Hole::Pairs(
                    left_on
                        .iter()
                        .cloned()
                        .zip(right_on.iter().cloned())
                        .collect(),
                )),
            );
            put("how", how.to_hole()?);
        }
        Concat {
            other,
            remove_duplicates,
        } => {
            put("other", other.to_hole()?);
            put("remove_duplicates", remove_duplicates.to_hole()?);
        }
        TrainModel {
            name,
            target,
            features,
            method,
        } => {
            put("name", name.to_hole()?);
            put("target", target.to_hole()?);
            put("features", NonEmpty::to_hole(features)?);
            put("method", method.to_hole()?);
        }
        call => holes_of(call, &mut put)?,
    }
    Ok((sf, h))
}

/// The call that holes (in [`Surface::fields`] order) describe.
pub fn build(sf: &Surface, mut holes: Vec<Option<Hole>>) -> Res<SkillCall> {
    use SkillCall::*;
    let take = &mut |f: &str| sf.field(f).and_then(|(i, _)| holes[i].take());
    let missing = |f: &str| format!("{} {f} is missing", sf.name);
    Ok(match sf.name {
        "CreateConstantColumn" => {
            let name = get(sf, take, "name", Field::from_hole)?;
            let text: Option<String> = get(sf, take, "text", Field::from_hole)?;
            let value: Option<Value> = get(sf, take, "value", Field::from_hole)?;
            let value = value
                .or(text.map(Value::Str))
                .ok_or_else(|| missing("value"))?;
            CreateConstantColumn { name, value }
        }
        "Compute" => {
            let Some(Hole::Aggs(aggs)) = take("aggs") else {
                return Err(missing("aggs"));
            };
            let names: Vec<String> = get(sf, take, "names", Field::from_hole)?;
            let mut aggs: Vec<AggSpec> = aggs
                .into_iter()
                .map(|(func, column)| {
                    let output = AggSpec::default_output(func, column.as_deref());
                    AggSpec {
                        func,
                        column,
                        output,
                    }
                })
                .collect();
            for (a, name) in aggs.iter_mut().zip(names) {
                a.output = name;
            }
            let for_each = get(sf, take, "for_each", Field::from_hole)?;
            Compute { aggs, for_each }
        }
        "Join" => {
            let other = get(sf, take, "other", Field::from_hole)?;
            let Some(Hole::Pairs(on)) = take("on") else {
                return Err(missing("on"));
            };
            let (left_on, right_on) = on.into_iter().unzip();
            let how = get(sf, take, "how", Field::from_hole)?;
            Join {
                other,
                left_on,
                right_on,
                how,
            }
        }
        "Concat" => {
            let other: Option<String> = get(sf, take, "other", Field::from_hole)?;
            let datasets: Vec<String> = get(sf, take, "datasets", Field::from_hole)?;
            let other = other
                .or(datasets.last().cloned())
                .ok_or_else(|| missing("other"))?;
            let remove_duplicates = get(sf, take, "remove_duplicates", Field::from_hole)?;
            Concat {
                other,
                remove_duplicates,
            }
        }
        "TrainModel" => {
            let target: String = get(sf, take, "target", Field::from_hole)?;
            let name: Option<String> = get(sf, take, "name", Field::from_hole)?;
            let name = name.filter(|n| !n.is_empty());
            let name = name.unwrap_or_else(|| format!("model_{}", target.to_lowercase()));
            let features = get(sf, take, "features", Field::from_hole)?;
            let method = get(sf, take, "method", Field::from_hole)?;
            TrainModel {
                name,
                target,
                features,
                method,
            }
        }
        _ => return build_of(sf, take),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holes_in<'t>(items: &[Item<'t>], out: &mut Vec<&'t str>) {
        for item in items {
            match item {
                Item::Hole(f, _) => out.push(f),
                Item::Opt(g) => holes_in(g, out),
                Item::Lit(_) => {}
            }
        }
    }

    /// Each template and signature names only fields of its skill, and
    /// every field prints on both surfaces (`datasets` is a loose GEL
    /// spelling of `Concat`'s `other` and only reads).
    #[test]
    fn templates_and_signatures_name_their_skills_fields() {
        for s in &SURFACES {
            let (mut gel, mut py) = (Vec::new(), Vec::new());
            for t in s.gel {
                let (mark, body) = marker(t);
                let mut named = Vec::new();
                holes_in(&items(body), &mut named);
                assert!(
                    named.iter().all(|f| s.field(f).is_some()),
                    "{}: {t}",
                    s.name
                );
                if !mark.contains(['~', '!']) {
                    gel.extend(named);
                }
            }
            let params =
                s.py.split_once('(')
                    .map_or("", |(_, p)| p.trim_end_matches(')'));
            for p in params.split(", ").filter(|p| !p.is_empty()) {
                let fields = p.split([':', '=', '?']).next().unwrap_or_default();
                for f in fields.split('/') {
                    assert!(s.field(f).is_some(), "{}: {}", s.name, s.py);
                    py.push(f);
                }
            }
            for (f, _) in s.fields.iter().filter(|(f, _)| *f != "datasets") {
                assert!(gel.contains(f), "{}: {f} prints in no GEL template", s.name);
                assert!(py.contains(f), "{}: {f} is in no Python parameter", s.name);
            }
        }
    }

    #[test]
    fn the_registry_shows_table_1_templates() {
        let r = registry();
        let shown = |name: &str| {
            r.iter()
                .find(|s| s.name == name)
                .map(|s| s.gel_template.clone())
        };
        assert_eq!(
            shown("Compute").as_deref(),
            Some("Compute the <aggregate> of <column> for each <columns>")
        );
        assert_eq!(
            shown("Visualize").as_deref(),
            Some("Visualize <kpi column> using <column>")
        );
        assert_eq!(
            shown("Sample").as_deref(),
            Some("Sample <percent> of the rows")
        );
        assert_eq!(
            shown("UseDataset").as_deref(),
            Some("Use the dataset <name>, version <version>")
        );
    }
}
