//! Error types of the serving layer.

use std::error::Error;
use std::fmt;

use ldpc_codes::{CodeError, CodeId};

/// Errors raised while building a [`crate::DecodeService`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The builder was finalised without any registered code.
    NoCodes,
    /// The same mode was registered twice.
    DuplicateCode {
        /// The mode registered twice.
        code: CodeId,
    },
    /// Building the code for a registered mode failed.
    Code(CodeError),
    /// The service configuration is invalid (e.g. a zero `max_batch`);
    /// rejected at [`build`](crate::DecodeServiceBuilder::build) instead of
    /// being silently clamped.
    InvalidConfig {
        /// What was rejected and why.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoCodes => write!(f, "a decode service needs at least one registered code"),
            ServeError::DuplicateCode { code } => {
                write!(f, "code {code} is already registered")
            }
            ServeError::Code(e) => write!(f, "cannot build registered code: {e}"),
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for ServeError {
    fn from(e: CodeError) -> Self {
        ServeError::Code(e)
    }
}

/// Errors raised at frame submission. The variants that refuse an otherwise
/// valid frame ([`QueueFull`](SubmitError::QueueFull),
/// [`ShutDown`](SubmitError::ShutDown)) hand the LLR buffer back so callers
/// can retry without reallocating.
#[derive(Clone, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The service has no shard for this mode.
    UnknownCode {
        /// The unregistered mode.
        code: CodeId,
    },
    /// The frame's LLR count does not match the mode's code length.
    FrameLength {
        /// The mode submitted under.
        code: CodeId,
        /// The code length `n`.
        expected: usize,
        /// LLRs supplied.
        actual: usize,
    },
    /// The frame holds a non-finite LLR (`±∞` or NaN), which no decoder can
    /// use meaningfully: normalised ingest would turn one `+∞` into an
    /// all-zero frame that "decodes" to the all-zero codeword. Counted in
    /// [`ShardStats::rejected_non_finite`](crate::ShardStats::rejected_non_finite).
    NonFiniteLlr {
        /// The mode submitted under.
        code: CodeId,
        /// Position of the first non-finite LLR in the submitted buffer.
        index: usize,
    },
    /// The shard's ingest queue is at capacity (backpressure; only from a
    /// non-blocking submission — blocking submission parks instead).
    QueueFull {
        /// The submitted LLRs, returned for a retry.
        llrs: Vec<f64>,
    },
    /// The service is shutting down and accepts no new frames.
    ShutDown {
        /// The submitted LLRs, handed back.
        llrs: Vec<f64>,
    },
}

impl SubmitError {
    /// Recovers the LLR buffer from a refused-but-valid submission, if this
    /// error carries it.
    #[must_use]
    pub fn into_llrs(self) -> Option<Vec<f64>> {
        match self {
            SubmitError::QueueFull { llrs } | SubmitError::ShutDown { llrs } => Some(llrs),
            _ => None,
        }
    }
}

// Manual Debug: a frame is thousands of LLRs; dumping them in error logs
// would bury the actual failure.
impl fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownCode { code } => {
                f.debug_struct("UnknownCode").field("code", code).finish()
            }
            SubmitError::FrameLength {
                code,
                expected,
                actual,
            } => f
                .debug_struct("FrameLength")
                .field("code", code)
                .field("expected", expected)
                .field("actual", actual)
                .finish(),
            SubmitError::NonFiniteLlr { code, index } => f
                .debug_struct("NonFiniteLlr")
                .field("code", code)
                .field("index", index)
                .finish(),
            SubmitError::QueueFull { llrs } => f
                .debug_struct("QueueFull")
                .field("llrs_len", &llrs.len())
                .finish(),
            SubmitError::ShutDown { llrs } => f
                .debug_struct("ShutDown")
                .field("llrs_len", &llrs.len())
                .finish(),
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownCode { code } => {
                write!(f, "no shard registered for code {code}")
            }
            SubmitError::FrameLength {
                code,
                expected,
                actual,
            } => write!(
                f,
                "frame for {code} has {actual} LLRs but the code length is {expected}"
            ),
            SubmitError::NonFiniteLlr { code, index } => {
                write!(f, "frame for {code} has a non-finite LLR at index {index}")
            }
            SubmitError::QueueFull { llrs } => {
                write!(f, "shard queue full ({}-LLR frame refused)", llrs.len())
            }
            SubmitError::ShutDown { llrs } => write!(
                f,
                "service shutting down ({}-LLR frame refused)",
                llrs.len()
            ),
        }
    }
}

impl Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeRate, Standard};

    #[test]
    fn debug_and_display_stay_compact() {
        let e = SubmitError::QueueFull {
            llrs: vec![0.0; 2304],
        };
        let dbg = format!("{e:?}");
        assert!(dbg.contains("llrs_len: 2304"), "{dbg}");
        assert!(!dbg.contains("0.0"), "LLR values must not be dumped");
        assert!(e.to_string().contains("2304-LLR"));
    }

    #[test]
    fn into_llrs_recovers_the_buffer() {
        let llrs = vec![1.5; 8];
        let e = SubmitError::QueueFull { llrs: llrs.clone() };
        assert_eq!(e.into_llrs(), Some(llrs.clone()));
        let e = SubmitError::ShutDown { llrs: llrs.clone() };
        assert_eq!(e.into_llrs(), Some(llrs));
        let code = CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, 576);
        assert_eq!(SubmitError::UnknownCode { code }.into_llrs(), None);
    }

    #[test]
    fn serve_error_wraps_code_errors() {
        let e: ServeError = CodeError::UnsupportedCode {
            requested: "x".into(),
        }
        .into();
        assert!(e.to_string().contains("cannot build"));
        assert!(e.source().is_some());
        assert!(ServeError::NoCodes.source().is_none());
    }
}
