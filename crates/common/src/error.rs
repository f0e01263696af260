//! Workspace-wide error type.
//!
//! Hand-rolled (no `thiserror`): the workspace builds offline against
//! four vendored stand-ins only (README, "Vendored dependencies").

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, LdpError>;

/// Errors produced by the LDPRecover workspace.
#[derive(Debug)]
pub enum LdpError {
    /// A parameter is outside its valid range (ε ≤ 0, empty domain, β ∉ [0,1), …).
    InvalidParameter(String),
    /// Two artifacts that must share a domain do not (e.g. a report vector of
    /// the wrong width, a frequency vector of the wrong length).
    DomainMismatch {
        /// Domain size the operation expected.
        expected: usize,
        /// Domain size it received.
        got: usize,
        /// What was being matched (for the message).
        context: &'static str,
    },
    /// An input collection that must be non-empty is empty.
    EmptyInput(&'static str),
    /// A numerical routine failed to converge or produced a non-finite value.
    Numerical(String),
    /// Underlying I/O failure (dataset loading).
    Io(std::io::Error),
    /// A dataset file line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the failure.
        message: String,
    },
}

impl fmt::Display for LdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            LdpError::DomainMismatch {
                expected,
                got,
                context,
            } => write!(
                f,
                "domain mismatch in {context}: expected size {expected}, got {got}"
            ),
            LdpError::EmptyInput(what) => write!(f, "empty input: {what}"),
            LdpError::Numerical(msg) => write!(f, "numerical error: {msg}"),
            LdpError::Io(err) => write!(f, "i/o error: {err}"),
            LdpError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LdpError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LdpError {
    fn from(err: std::io::Error) -> Self {
        LdpError::Io(err)
    }
}

impl LdpError {
    /// Shorthand constructor for [`LdpError::InvalidParameter`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        LdpError::InvalidParameter(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LdpError::invalid("epsilon must be positive");
        assert!(e.to_string().contains("epsilon"));

        let e = LdpError::DomainMismatch {
            expected: 10,
            got: 3,
            context: "frequency vector",
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('3') && msg.contains("frequency"));

        let e = LdpError::EmptyInput("reports");
        assert!(e.to_string().contains("reports"));

        let e = LdpError::Parse {
            line: 7,
            message: "not an integer".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: LdpError = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
