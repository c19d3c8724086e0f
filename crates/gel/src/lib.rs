//! # dc-gel — Guided English Language
//!
//! The controlled natural language of §1/§2.3: every recipe is shown and
//! editable as GEL. This crate provides both directions plus the tooling
//! the paper demonstrates:
//!
//! * [`format`](mod@format) — canonical GEL sentence for every skill call;
//! * [`parse`] — sentence templates with typed holes, plus condition
//!   sugar ("DATE is between the dates 01-01-2005 to 12-31-2020", "DATE
//!   is after Today - 10 years") falling back to SQL expressions;
//! * [`recipe`] — recipes and the IDE/debugger of Figure 2a
//!   (breakpoints, Next, Replay, edit-in-place);
//! * [`autocomplete`] — the Figure 3c console completion.

pub mod autocomplete;
pub mod error;
pub mod format;
pub mod parse;
pub mod recipe;
pub mod validate;

pub use autocomplete::{suggest, Suggestion, SuggestionKind};
pub use error::{GelError, Result};
pub use format::{format_skill, try_format_skill};
pub use parse::{parse_condition, parse_gel, parse_list, parse_value, GEL_TODAY};
pub use recipe::{Recipe, RecipeEditor, RunState};
pub use validate::{analyze_gel, validate_recipe};
