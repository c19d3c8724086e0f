//! # dc-collab — collaboration platform layer (§2.3–2.4)
//!
//! Sessions with server-side tracking and the session-level lock,
//! graded permissions and secret-link sharing, artifacts with sliced
//! recipes + refresh/replay, Home Screen folders, and Insights Boards.

pub mod artifact;
pub mod board;
pub mod error;
pub mod session;
pub mod sharing;

pub use artifact::{Artifact, ArtifactKind};
pub use board::{BoardElement, FolderEntry, HomeScreen, InsightsBoard, PlacedElement};
pub use error::{CollabError, Result};
pub use session::{EnvHandle, Session, SessionRef, SessionRegistry};
pub use sharing::{LinkIssuer, Permission, ShareLink, Shareable};
