//! Relational operators over [`crate::table::Table`].
//!
//! Each operator lives in its own module and is a pure function from
//! input table(s) to an output table. The skills layer composes these;
//! the SQL layer lowers query plans onto them.

pub mod aggregate;
pub mod concat;
pub mod distinct;
pub mod filter;
pub mod join;
mod keys;
pub mod pivot;
pub mod sample;
pub mod sort;
pub mod spill;
pub mod window;

pub use aggregate::{group_by, group_by_with_mem, AggFunc, AggSpec};
pub use concat::concat;
pub use distinct::distinct;
pub use filter::{filter, filter_serial, limit, project};
pub use join::{join, join_with_mem, JoinType};
pub use pivot::pivot;
pub use sample::{sample_fraction, sample_n};
pub use sort::{sort_by, sort_by_with_mem, top_n, SortKey};
pub use window::{add_row_numbers, lag, rolling_mean};
