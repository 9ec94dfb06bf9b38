//! Decoding errors.
//!
//! Encoding is infallible (we write into a growable buffer); decoding is not:
//! a remote peer — or a corrupted persisted snapshot — can hand us anything.

use std::fmt;

/// Error produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was fully decoded.
    ///
    /// `needed` is the number of additional bytes the decoder wanted;
    /// `remaining` is how many were actually left.
    UnexpectedEof { needed: usize, remaining: usize },
    /// A varint ran past its maximum permitted width (corrupt or adversarial
    /// input; a well-formed u64 varint is at most 10 bytes).
    VarintOverflow,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// An `Option` tag byte was neither 0 nor 1.
    InvalidOptionTag(u8),
    /// A string payload was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant did not correspond to any known variant.
    ///
    /// Carries the type name (for diagnostics) and the offending tag.
    UnknownVariant { ty: &'static str, tag: u64 },
    /// A declared collection length exceeds the bytes remaining in the
    /// buffer. Rejecting this *before* allocating prevents a 16-byte message
    /// from demanding a 4 GiB allocation.
    LengthOverrun { declared: usize, remaining: usize },
    /// Trailing bytes were left in the buffer after a complete top-level
    /// decode. Usually indicates a protocol version mismatch.
    TrailingBytes(usize),
    /// Domain-specific validation failed after structural decoding.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of buffer: needed {needed} more bytes, {remaining} remaining"
            ),
            WireError::VarintOverflow => write!(f, "varint exceeded maximum width"),
            WireError::InvalidBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            WireError::InvalidOptionTag(b) => write!(f, "invalid Option tag byte {b:#04x}"),
            WireError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::UnknownVariant { ty, tag } => {
                write!(f, "unknown variant tag {tag} for enum {ty}")
            }
            WireError::LengthOverrun {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds {remaining} bytes remaining"
            ),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias used throughout the decoder.
pub type WireResult<T> = Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = WireError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        assert!(e.to_string().contains("3 remaining"));

        let e = WireError::UnknownVariant {
            ty: "FooCall",
            tag: 42,
        };
        assert!(e.to_string().contains("FooCall"));
        assert!(e.to_string().contains("42"));

        let e = WireError::LengthOverrun {
            declared: 1 << 40,
            remaining: 16,
        };
        assert!(e.to_string().contains("16 bytes remaining"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&WireError::VarintOverflow);
    }
}
