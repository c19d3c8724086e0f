//! The skill vocabulary.
//!
//! §2.1: "DataChat simplifies data science functions into a set of around
//! 50 high-level skills." [`SkillCall`] is one parameterized invocation;
//! [`crate::registry`] enumerates the full catalog with categories (Table
//! 1) from the surface table.

use dc_engine::{AggFunc, AggSpec, DataType, Expr, JoinType, Value};
use dc_ml::{MlMethod, OutlierMethod};
use dc_viz::ChartType;

/// Skill categories (the rows of Table 1, plus the platform categories
/// discussed in §2.4/§3/§4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    DataIngestion,
    DataExploration,
    DataVisualization,
    DataWrangling,
    MachineLearning,
    Sql,
    Collaboration,
}

impl Category {
    /// Display name matching Table 1.
    pub fn display_name(self) -> &'static str {
        match self {
            Category::DataIngestion => "Data Ingestion",
            Category::DataExploration => "Data Exploration",
            Category::DataVisualization => "Data Visualization",
            Category::DataWrangling => "Data Wrangling",
            Category::MachineLearning => "Machine Learning",
            Category::Sql => "SQL",
            Category::Collaboration => "Collaboration",
        }
    }

    /// All categories.
    pub fn all() -> [Category; 7] {
        [
            Category::DataIngestion,
            Category::DataExploration,
            Category::DataVisualization,
            Category::DataWrangling,
            Category::MachineLearning,
            Category::Sql,
            Category::Collaboration,
        ]
    }
}

/// Date parts extractable by [`SkillCall::ExtractDatePart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatePart {
    Year,
    Month,
    Day,
}

impl DatePart {
    /// Lowercase name used in GEL.
    pub fn name(self) -> &'static str {
        match self {
            DatePart::Year => "year",
            DatePart::Month => "month",
            DatePart::Day => "day",
        }
    }
}

/// One parameterized skill invocation — the unit of the skill DAG, of GEL
/// sentences, and of recipes.
#[derive(Debug, Clone, PartialEq)]
pub enum SkillCall {
    // ----- Data Ingestion -----
    /// `Load data from the file <path>`.
    LoadFile { path: String },
    /// `Load data from the URL <url>` (Figure 2 step 1).
    LoadUrl { url: String },
    /// `Load [the columns <columns> of] the table <table> from the
    /// database <database> [where <predicate>]` — the one catalog scan.
    /// As users write it, it reads every column of every row
    /// ([`SkillCall::load_table`]). `columns` narrows the scan to the
    /// columns the downstream plan touches and `predicate` is a filter
    /// evaluated inside the storage scan, where zone maps can skip whole
    /// blocks; the planner sets either on a load that has none (both
    /// parse from GEL too). Downstream steps still evaluate their full
    /// logic, so narrowing and pushing are purely optimizations.
    LoadTable {
        database: String,
        table: String,
        columns: Option<Vec<String>>,
        predicate: Option<Expr>,
    },
    /// `Use the dataset <name>, version <v>` (Figure 2 step 5).
    UseDataset { name: String, version: Option<u64> },
    /// `Use the snapshot <name>` (§3).
    UseSnapshot { name: String },

    // ----- Data Exploration -----
    /// `Describe the column <column>` (Table 1).
    DescribeColumn { column: String },
    /// `Describe the dataset`.
    DescribeDataset,
    /// `List the datasets`.
    ListDatasets,
    /// `Show the first <n> rows`.
    ShowHead { n: usize },
    /// `Count the rows`.
    CountRows,
    /// `Profile the missing values`.
    ProfileMissing,

    // ----- Data Visualization -----
    /// `Visualize <kpi> by <columns>` — auto-charting (Figure 1).
    Visualize { kpi: String, by: Vec<String> },
    /// `Plot a <chart> chart with the x-axis <x>, the y-axis <y>, ...`
    /// (Figure 2 step 10).
    Plot {
        chart: ChartType,
        x: Option<String>,
        y: Option<String>,
        color: Option<String>,
        size: Option<String>,
        for_each: Option<String>,
    },

    // ----- Data Wrangling -----
    /// `Keep the rows where <predicate>`.
    KeepRows { predicate: Expr },
    /// `Drop the rows where <predicate>`.
    DropRows { predicate: Expr },
    /// `Keep the columns <columns>` (Figure 2 steps 4/7).
    KeepColumns { columns: Vec<String> },
    /// `Drop the columns <columns>`.
    DropColumns { columns: Vec<String> },
    /// `Rename the column <from> to <to>`.
    RenameColumn { from: String, to: String },
    /// `Create a new column <name> as <expression>`.
    CreateColumn { name: String, expr: Expr },
    /// `Create a new column <name> with text <value>` (Figure 2 step 6).
    CreateConstantColumn { name: String, value: Value },
    /// `Compute the <aggregate> of <column> for each <keys>` (Figure 3).
    Compute {
        aggs: Vec<AggSpec>,
        for_each: Vec<String>,
    },
    /// `Pivot on <index> by <columns> using <agg> of <values>`.
    Pivot {
        index: String,
        columns: String,
        values: String,
        agg: AggFunc,
    },
    /// `Sort by <keys>`.
    Sort { keys: Vec<(String, bool)> },
    /// `Keep the top <n> rows by <column>`.
    Top { column: String, n: usize },
    /// `Keep the first <n> rows`.
    Limit { n: usize },
    /// `Concatenate the datasets <self> and <other> [remove all
    /// duplicates]` (Figure 2 step 8).
    Concat {
        other: String,
        remove_duplicates: bool,
    },
    /// `Join with the dataset <other> on <keys>`.
    Join {
        other: String,
        left_on: Vec<String>,
        right_on: Vec<String>,
        how: JoinType,
    },
    /// `Remove duplicate rows [based on <columns>]`.
    Distinct { columns: Vec<String> },
    /// `Drop the rows with missing <columns>`.
    DropMissing { columns: Vec<String> },
    /// `Fill the missing values of <column> with <value>`.
    FillMissing { column: String, value: Value },
    /// `Replace <from> with <to> in the column <column>`.
    ReplaceValues {
        column: String,
        from: Value,
        to: Value,
    },
    /// `Change the type of <column> to <type>`.
    CastColumn { column: String, to: DataType },
    /// `Bin the column <column> with width <width>` (party_ageInt20).
    BinColumn {
        column: String,
        width: i64,
        name: Option<String>,
    },
    /// `Extract the <part> of <column>`.
    ExtractDatePart {
        column: String,
        part: DatePart,
        name: Option<String>,
    },
    /// `Trim whitespace in the column <column>`.
    TrimColumn { column: String },
    /// `Sample <fraction> of the rows` (§3).
    Sample { fraction: f64, seed: u64 },
    /// `Shuffle the rows`.
    ShuffleRows { seed: u64 },

    // ----- Machine Learning -----
    /// `Train a model to predict <target>` (Table 1).
    TrainModel {
        name: String,
        target: String,
        features: Vec<String>,
        method: MlMethod,
    },
    /// `Predict with the model <model>`.
    Predict { model: String },
    /// `Predict time series with measure columns <measures> for the next
    /// <horizon> values of <time_column>` (Figure 2 step 3).
    PredictTimeSeries {
        measures: Vec<String>,
        horizon: usize,
        time_column: String,
    },
    /// `Detect outliers in the column <column>`.
    DetectOutliers {
        column: String,
        method: OutlierMethod,
    },
    /// `Cluster the rows into <k> groups using <features>`.
    Cluster { k: usize, features: Vec<String> },
    /// `Evaluate the model <model> against <target>`.
    EvaluateModel { model: String, target: String },

    // ----- SQL -----
    /// `Run the SQL query <query>`.
    RunSql { query: String },
    /// `Export the dataset as CSV`.
    ExportCsv,

    // ----- Collaboration / platform -----
    /// `Save this as <name>` — persist the current result as an artifact.
    SaveArtifact { name: String },
    /// `Snapshot this as <name>` (§3).
    Snapshot { name: String },
    /// `Define <phrase> as <expansion>` (§4.8's semantic-layer skill).
    Define { phrase: String, expansion: String },
    /// `Comment: <text>` — a recipe annotation with no data effect.
    Comment { text: String },
    /// `Share the artifact <artifact> with <user>`.
    ShareArtifact { artifact: String, with_user: String },
}

impl SkillCall {
    /// A load of every column and every row of a catalog table.
    pub fn load_table(database: impl Into<String>, table: impl Into<String>) -> SkillCall {
        SkillCall::LoadTable {
            database: database.into(),
            table: table.into(),
            columns: None,
            predicate: None,
        }
    }

    /// Stable skill name (matches the registry).
    pub fn name(&self) -> &'static str {
        use SkillCall::*;
        match self {
            LoadFile { .. } => "LoadFile",
            LoadUrl { .. } => "LoadUrl",
            LoadTable { .. } => "LoadTable",
            UseDataset { .. } => "UseDataset",
            UseSnapshot { .. } => "UseSnapshot",
            DescribeColumn { .. } => "DescribeColumn",
            DescribeDataset => "DescribeDataset",
            ListDatasets => "ListDatasets",
            ShowHead { .. } => "ShowHead",
            CountRows => "CountRows",
            ProfileMissing => "ProfileMissing",
            Visualize { .. } => "Visualize",
            Plot { .. } => "Plot",
            KeepRows { .. } => "KeepRows",
            DropRows { .. } => "DropRows",
            KeepColumns { .. } => "KeepColumns",
            DropColumns { .. } => "DropColumns",
            RenameColumn { .. } => "RenameColumn",
            CreateColumn { .. } => "CreateColumn",
            CreateConstantColumn { .. } => "CreateConstantColumn",
            Compute { .. } => "Compute",
            Pivot { .. } => "Pivot",
            Sort { .. } => "Sort",
            Top { .. } => "Top",
            Limit { .. } => "Limit",
            Concat { .. } => "Concat",
            Join { .. } => "Join",
            Distinct { .. } => "Distinct",
            DropMissing { .. } => "DropMissing",
            FillMissing { .. } => "FillMissing",
            ReplaceValues { .. } => "ReplaceValues",
            CastColumn { .. } => "CastColumn",
            BinColumn { .. } => "BinColumn",
            ExtractDatePart { .. } => "ExtractDatePart",
            TrimColumn { .. } => "TrimColumn",
            Sample { .. } => "Sample",
            ShuffleRows { .. } => "ShuffleRows",
            TrainModel { .. } => "TrainModel",
            Predict { .. } => "Predict",
            PredictTimeSeries { .. } => "PredictTimeSeries",
            DetectOutliers { .. } => "DetectOutliers",
            Cluster { .. } => "Cluster",
            EvaluateModel { .. } => "EvaluateModel",
            RunSql { .. } => "RunSql",
            ExportCsv => "ExportCsv",
            SaveArtifact { .. } => "SaveArtifact",
            Snapshot { .. } => "Snapshot",
            Define { .. } => "Define",
            Comment { .. } => "Comment",
            ShareArtifact { .. } => "ShareArtifact",
        }
    }

    /// Whether this skill consumes an input dataset (false for sources
    /// and catalog-level skills).
    pub fn needs_input(&self) -> bool {
        use SkillCall::*;
        !matches!(
            self,
            LoadFile { .. }
                | LoadUrl { .. }
                | LoadTable { .. }
                | UseDataset { .. }
                | UseSnapshot { .. }
                | ListDatasets
                | Define { .. }
                | Comment { .. }
                | ShareArtifact { .. }
                | RunSql { .. }
        )
    }

    /// Whether the skill transforms data (vs. producing a side artifact
    /// like a description, chart, or share). Non-transforming skills pass
    /// their input through, so slicing can drop them from data lineage.
    pub fn transforms_data(&self) -> bool {
        use SkillCall::*;
        !matches!(
            self,
            DescribeColumn { .. }
                | DescribeDataset
                | ListDatasets
                | ShowHead { .. }
                | CountRows
                | ProfileMissing
                | Visualize { .. }
                | Plot { .. }
                | ExportCsv
                | SaveArtifact { .. }
                | Snapshot { .. }
                | Define { .. }
                | Comment { .. }
                | ShareArtifact { .. }
                | EvaluateModel { .. }
        )
    }

    /// A canonical, deterministic description of the call including all
    /// parameters — the basis of sub-DAG cache keys.
    pub fn cache_key(&self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn registry_has_about_fifty_skills() {
        let r = registry();
        assert!(
            (45..=60).contains(&r.len()),
            "paper says ~50 skills, registry has {}",
            r.len()
        );
    }

    #[test]
    fn registry_covers_all_table1_categories() {
        let r = registry();
        for cat in Category::all() {
            assert!(
                r.iter().any(|s| s.category == cat),
                "missing category {cat:?}"
            );
        }
    }

    #[test]
    fn registry_names_unique() {
        let r = registry();
        let mut names: Vec<&str> = r.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), r.len());
    }

    #[test]
    fn call_names_appear_in_registry() {
        let r = registry();
        let calls = [
            SkillCall::LoadFile { path: "x".into() },
            SkillCall::Visualize {
                kpi: "k".into(),
                by: vec![],
            },
            SkillCall::Compute {
                aggs: vec![],
                for_each: vec![],
            },
            SkillCall::TrainModel {
                name: "m".into(),
                target: "t".into(),
                features: vec![],
                method: MlMethod::Auto,
            },
            SkillCall::Define {
                phrase: "p".into(),
                expansion: "e".into(),
            },
        ];
        for c in calls {
            assert!(
                r.iter().any(|s| s.name == c.name()),
                "{} missing from registry",
                c.name()
            );
        }
    }

    #[test]
    fn needs_input_classification() {
        assert!(!SkillCall::LoadFile { path: "x".into() }.needs_input());
        assert!(SkillCall::Limit { n: 3 }.needs_input());
        assert!(!SkillCall::RunSql { query: "q".into() }.needs_input());
    }

    #[test]
    fn transforms_data_classification() {
        assert!(SkillCall::Limit { n: 3 }.transforms_data());
        assert!(!SkillCall::DescribeDataset.transforms_data());
        assert!(!SkillCall::Comment { text: "hi".into() }.transforms_data());
        assert!(SkillCall::Sample {
            fraction: 0.1,
            seed: 0
        }
        .transforms_data());
    }

    #[test]
    fn cache_keys_distinguish_parameters() {
        let a = SkillCall::Limit { n: 3 }.cache_key();
        let b = SkillCall::Limit { n: 4 }.cache_key();
        assert_ne!(a, b);
    }

    #[test]
    fn categories_display_like_table1() {
        assert_eq!(Category::DataWrangling.display_name(), "Data Wrangling");
        assert_eq!(Category::MachineLearning.display_name(), "Machine Learning");
    }
}
