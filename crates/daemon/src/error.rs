//! Error type of the daemon plane: frame codec, connection handling and
//! client-side protocol failures.

use std::fmt;

use detect::DetectError;
use ghsom_serve::ServeError;

/// Typed reject codes a server sends in a `Reject` response frame.
///
/// Codes are part of the wire protocol (normative table in
/// `docs/PROTOCOL.md`): clients dispatch on the code, the detail string
/// is for operators. The numeric values are frozen — new codes append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectCode {
    /// The tenant's bounded ingest queue is full: the client outran the
    /// scorer and the batch was load-shed instead of buffered. Back off
    /// and resend.
    Overloaded,
    /// No engine is deployed under the requested tenant name.
    UnknownTenant,
    /// The frame or batch payload failed structural validation. The
    /// server closes the connection after sending this: a malformed
    /// frame loses byte-stream framing, so the stream cannot continue.
    Malformed,
    /// The frame declared a payload longer than the server accepts.
    /// Connection closes (the oversized payload is never read).
    TooLarge,
    /// The frame carried an unknown protocol version or frame type.
    /// Connection closes.
    Unsupported,
    /// Scoring failed server-side after admission (engine error, tenant
    /// retired mid-flight). The batch produced no verdicts.
    Internal,
}

impl RejectCode {
    /// The frozen wire byte of this code.
    pub fn to_wire(self) -> u8 {
        match self {
            RejectCode::Overloaded => 1,
            RejectCode::UnknownTenant => 2,
            RejectCode::Malformed => 3,
            RejectCode::TooLarge => 4,
            RejectCode::Unsupported => 5,
            RejectCode::Internal => 6,
        }
    }

    /// Decodes a wire byte.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Malformed`] for unknown code bytes.
    pub fn from_wire(byte: u8) -> Result<Self, DaemonError> {
        match byte {
            1 => Ok(RejectCode::Overloaded),
            2 => Ok(RejectCode::UnknownTenant),
            3 => Ok(RejectCode::Malformed),
            4 => Ok(RejectCode::TooLarge),
            5 => Ok(RejectCode::Unsupported),
            6 => Ok(RejectCode::Internal),
            _ => Err(DaemonError::Malformed("unknown reject code byte")),
        }
    }

    /// Stable snake_case name, used as the metrics label.
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::Overloaded => "overloaded",
            RejectCode::UnknownTenant => "unknown_tenant",
            RejectCode::Malformed => "malformed",
            RejectCode::TooLarge => "too_large",
            RejectCode::Unsupported => "unsupported",
            RejectCode::Internal => "internal",
        }
    }
}

impl fmt::Display for RejectCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced by the daemon's frame codec, connection plane and
/// client.
///
/// Hostile bytes never panic: every malformed input maps to one of the
/// typed variants below, and on the server side a protocol error closes
/// exactly the offending connection — never the process, never a
/// serving engine. The enum is `#[non_exhaustive]`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DaemonError {
    /// Socket or filesystem I/O failed.
    Io(String),
    /// The frame does not start with the `GHSD` magic.
    BadMagic,
    /// The frame was written by an unknown protocol version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u8,
        /// Newest version this build speaks.
        supported: u8,
    },
    /// The header names a frame type this build does not know.
    UnknownFrameType(u8),
    /// The header's reserved bytes were not zero.
    ReservedNonZero,
    /// The frame declares a payload longer than the configured cap —
    /// rejected before any payload byte is read, so a hostile declared
    /// length can never force an allocation. The client raises it too,
    /// for a batch it refuses to send: before a byte is written, so its
    /// connection stays usable.
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload ended before a declared structure was complete.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The peer disconnected mid-frame (clean EOF *between* frames is
    /// not an error).
    Disconnected,
    /// The peer started a frame but did not finish it within the frame
    /// deadline — the slow-loris defence. The connection is closed.
    TimedOut,
    /// The payload parses but violates a structural invariant.
    Malformed(&'static str),
    /// Client side: the server answered with a `Reject` frame.
    Rejected {
        /// Echoed request id (`0` when the request never parsed).
        req_id: u64,
        /// Typed reject code.
        code: RejectCode,
        /// Operator-facing detail string.
        detail: String,
    },
    /// Client side: the server sent a frame type that does not answer
    /// the outstanding request.
    UnexpectedFrame {
        /// What the protocol state machine expected.
        expected: &'static str,
        /// Frame type byte actually received.
        found: u8,
    },
    /// The serving plane failed (spool, registry or engine error).
    Serve(ServeError),
    /// A verdict failed to encode or decode.
    Verdict(DetectError),
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io(msg) => write!(f, "daemon I/O error: {msg}"),
            DaemonError::BadMagic => write!(f, "not a GHSD frame (bad magic)"),
            DaemonError::UnsupportedVersion { found, supported } => write!(
                f,
                "protocol version {found} is not supported (this build speaks <= {supported})"
            ),
            DaemonError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            DaemonError::ReservedNonZero => {
                write!(f, "reserved header bytes must be zero")
            }
            DaemonError::FrameTooLarge { declared, max } => write!(
                f,
                "frame declares a {declared}-byte payload, above the {max}-byte cap"
            ),
            DaemonError::Truncated { needed, got } => {
                write!(f, "frame payload truncated: need {needed} bytes, got {got}")
            }
            DaemonError::Disconnected => write!(f, "peer disconnected mid-frame"),
            DaemonError::TimedOut => {
                write!(f, "frame not completed within the frame deadline")
            }
            DaemonError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
            DaemonError::Rejected {
                req_id,
                code,
                detail,
            } => {
                write!(f, "request {req_id} rejected ({code}): {detail}")
            }
            DaemonError::UnexpectedFrame { expected, found } => {
                write!(f, "expected {expected}, got frame type {found:#04x}")
            }
            DaemonError::Serve(e) => write!(f, "serving plane error: {e}"),
            DaemonError::Verdict(e) => write!(f, "verdict codec error: {e}"),
            DaemonError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Serve(e) => Some(e),
            DaemonError::Verdict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e.to_string())
    }
}

impl From<ServeError> for DaemonError {
    fn from(e: ServeError) -> Self {
        DaemonError::Serve(e)
    }
}

impl From<DetectError> for DaemonError {
    fn from(e: DetectError) -> Self {
        DaemonError::Verdict(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<DaemonError>();
    }

    #[test]
    fn reject_codes_roundtrip() {
        for code in [
            RejectCode::Overloaded,
            RejectCode::UnknownTenant,
            RejectCode::Malformed,
            RejectCode::TooLarge,
            RejectCode::Unsupported,
            RejectCode::Internal,
        ] {
            assert_eq!(RejectCode::from_wire(code.to_wire()).unwrap(), code);
        }
        assert!(RejectCode::from_wire(0).is_err());
        assert!(RejectCode::from_wire(200).is_err());
    }

    #[test]
    fn display_messages_are_actionable() {
        assert!(DaemonError::BadMagic.to_string().contains("magic"));
        assert!(DaemonError::FrameTooLarge {
            declared: 99,
            max: 10
        }
        .to_string()
        .contains("99"));
        assert!(DaemonError::Rejected {
            req_id: 7,
            code: RejectCode::Overloaded,
            detail: "queue full".into()
        }
        .to_string()
        .contains("overloaded"));
    }
}
