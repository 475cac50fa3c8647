//! The unified workspace error type.
//!
//! Everything that can go wrong while building a [`PrescriptionSession`]
//! (bad columns, ill-typed outcomes, malformed patterns) or solving a
//! request surfaces here as a typed, display-friendly error instead of a
//! panic — the facade crate re-exports this as `faircap::Error`.
//!
//! [`PrescriptionSession`]: crate::session::PrescriptionSession

use faircap_causal::CausalError;
use faircap_table::TableError;
use std::fmt;

/// Unified error for session construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The table layer rejected an operation (unknown column, type
    /// mismatch, malformed CSV, …).
    Table(TableError),
    /// The causal layer rejected an operation (unknown variable, invalid
    /// outcome, estimation failure, …).
    Causal(CausalError),
    /// A required builder field was never provided.
    MissingField(&'static str),
    /// A declared attribute does not exist as a column of the data.
    UnknownAttribute {
        /// Which declaration referenced it (`"immutable"`, `"mutable"`,
        /// `"protected"`).
        role: &'static str,
        /// The missing column name.
        name: String,
    },
    /// An attribute was declared with conflicting roles (immutable and
    /// mutable, overlapping the outcome, or mutable and named by the
    /// protected pattern).
    ConflictingRoles {
        /// The doubly-declared attribute.
        name: String,
        /// The two roles it was given.
        roles: (&'static str, &'static str),
    },
    /// The outcome attribute is missing from the causal DAG, so no
    /// intervention could ever be identified.
    OutcomeNotInDag {
        /// The outcome attribute.
        outcome: String,
    },
    /// A solve request was structurally invalid (e.g. nonsensical
    /// thresholds).
    InvalidRequest(String),
    /// A session snapshot could not be decoded, or does not match the
    /// session it is being restored into (wrong outcome, row count, or
    /// format version).
    Snapshot(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Table(e) => write!(f, "table error: {e}"),
            Error::Causal(e) => write!(f, "causal error: {e}"),
            Error::MissingField(field) => {
                write!(f, "session builder is missing required field `{field}`")
            }
            Error::UnknownAttribute { role, name } => {
                write!(f, "{role} attribute `{name}` is not a column of the data")
            }
            Error::ConflictingRoles { name, roles } => write!(
                f,
                "attribute `{name}` declared both {} and {}",
                roles.0, roles.1
            ),
            Error::OutcomeNotInDag { outcome } => write!(
                f,
                "outcome `{outcome}` is not a node of the causal DAG; no effect on it can be identified"
            ),
            Error::InvalidRequest(msg) => write!(f, "invalid solve request: {msg}"),
            Error::Snapshot(msg) => write!(f, "session snapshot: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Table(e) => Some(e),
            Error::Causal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for Error {
    fn from(e: TableError) -> Self {
        Error::Table(e)
    }
}

impl From<CausalError> for Error {
    fn from(e: CausalError) -> Self {
        // Unwrap nested table errors so matching stays one-level.
        match e {
            CausalError::Table(t) => Error::Table(t),
            other => Error::Causal(other),
        }
    }
}

/// Convenience alias for session-level results.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = Error::MissingField("outcome");
        assert!(e.to_string().contains("outcome"));
        let e = Error::UnknownAttribute {
            role: "mutable",
            name: "ghost".into(),
        };
        assert!(e.to_string().contains("mutable") && e.to_string().contains("ghost"));
        let e = Error::OutcomeNotInDag {
            outcome: "salary".into(),
        };
        assert!(e.to_string().contains("salary"));
    }

    #[test]
    fn causal_table_errors_flatten() {
        let nested = CausalError::Table(TableError::UnknownColumn("x".into()));
        assert_eq!(
            Error::from(nested),
            Error::Table(TableError::UnknownColumn("x".into()))
        );
    }
}
