//! GEL errors.

use std::fmt;

/// Errors from parsing or running GEL.
#[derive(Debug, Clone, PartialEq)]
pub enum GelError {
    /// The sentence matched no skill template.
    UnknownSentence { sentence: String },
    /// The sentence matched a template but a piece failed to parse.
    BadPhrase { message: String, phrase: String },
    /// A call no GEL sentence reads back as (a non-finite float, say).
    Unprintable { skill: String, reason: String },
    /// A recipe-editor operation was invalid (step out of range, ...).
    Editor { message: String },
    /// Propagated skill failure during recipe execution.
    Skill(dc_skills::SkillError),
}

impl GelError {
    /// Convenience constructor for [`GelError::BadPhrase`].
    pub fn bad_phrase(message: impl Into<String>, phrase: impl Into<String>) -> Self {
        GelError::BadPhrase {
            message: message.into(),
            phrase: phrase.into(),
        }
    }
}

impl fmt::Display for GelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GelError::UnknownSentence { sentence } => {
                write!(f, "I didn't understand: {sentence:?}")
            }
            GelError::BadPhrase { message, phrase } => {
                write!(f, "couldn't read {phrase:?}: {message}")
            }
            GelError::Unprintable { skill, reason } => {
                write!(f, "cannot write {skill} in GEL: {reason}")
            }
            GelError::Editor { message } => write!(f, "editor error: {message}"),
            GelError::Skill(e) => write!(f, "skill error: {e}"),
        }
    }
}

impl std::error::Error for GelError {}

impl From<dc_skills::SkillError> for GelError {
    fn from(e: dc_skills::SkillError) -> Self {
        GelError::Skill(e)
    }
}

/// Result alias for GEL.
pub type Result<T> = std::result::Result<T, GelError>;
