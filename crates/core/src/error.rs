//! Error type of the decoder crate.

use std::error::Error;
use std::fmt;

/// Errors raised by the decoder front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The channel-LLR vector length does not match the code length `n`.
    LlrLengthMismatch {
        /// Expected length (`n`).
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// The decoder configuration is invalid (e.g. zero iterations).
    InvalidConfig {
        /// Explanation of the violation.
        reason: String,
    },
    /// A batched LLR buffer or output slice has an inconsistent shape.
    BatchShape {
        /// Explanation of the violation.
        reason: String,
    },
    /// A channel LLR is NaN or infinite: no quantiser or message format can
    /// represent it, so the frame is refused instead of "decoded".
    NonFiniteLlr {
        /// Frame of the first offending LLR (within the batch or group the
        /// call was given; 0 for a single frame).
        frame: usize,
        /// Position of that LLR within its frame.
        index: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::LlrLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "channel LLR length mismatch: expected {expected}, got {actual}"
                )
            }
            DecodeError::InvalidConfig { reason } => {
                write!(f, "invalid decoder configuration: {reason}")
            }
            DecodeError::BatchShape { reason } => {
                write!(f, "invalid batch shape: {reason}")
            }
            DecodeError::NonFiniteLlr { frame, index } => {
                write!(f, "non-finite channel LLR at frame {frame}, index {index}")
            }
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DecodeError::LlrLengthMismatch {
            expected: 10,
            actual: 3,
        };
        assert!(e.to_string().contains("expected 10"));
        let e = DecodeError::InvalidConfig {
            reason: "max_iterations is zero".into(),
        };
        assert!(e.to_string().contains("max_iterations"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodeError>();
    }
}
