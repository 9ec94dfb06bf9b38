//! The [`Wire`] trait: the contract every remote-method argument, return
//! value, and persisted process state must satisfy.

use crate::error::WireResult;
use crate::reader::Reader;
use crate::writer::Writer;

/// A type that can be encoded to and decoded from the oopp wire format.
///
/// Implementations must be **self-framing**: `decode` consumes exactly the
/// bytes `encode` produced, so values can be concatenated without external
/// framing (this is what lets a request enum carry its arguments inline).
pub trait Wire: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decode one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> WireResult<Self>;

    /// Best-effort size hint in bytes, used to pre-reserve buffers for
    /// large payloads. Exact for fixed-width scalars and bulk slices.
    fn encoded_len_hint(&self) -> usize {
        0
    }
}

/// A type that decodes what `T` encodes — `T` itself, or a **view** of the
/// same bytes left where they lie in the buffer being read (`'a`): what a
/// method takes when it only reads a bulk argument, or copies it once to
/// where it is kept. The checks are `T::decode`'s; only the copy is gone.
///
/// `remote_class!`'s dispatcher decodes every argument through this trait,
/// so the parameter type of the class's own method picks the impl.
pub trait ViewOf<'a, T: Wire>: Sized {
    /// Decode one `T` from the front of `r`, as `Self`.
    fn view(r: &mut Reader<'a>) -> WireResult<Self>;
}

impl<'a, T: Wire> ViewOf<'a, T> for T {
    #[inline]
    fn view(r: &mut Reader<'a>) -> WireResult<Self> {
        T::decode(r)
    }
}

/// A type whose encoding is byte for byte the one `T` has — `T` itself, or
/// a borrow of the same data from wherever it lies: what a method returns
/// when its result is part of its own state, so the reply is written from
/// there and no owned `T` is built to be encoded once and dropped.
pub trait EncodesAs<T: Wire> {
    /// Append the encoding `T` would have to `w`.
    fn encode_as(&self, w: &mut Writer);

    /// [`Wire::encoded_len_hint`] of that encoding.
    fn encoded_len_as(&self) -> usize {
        0
    }
}

impl<T: Wire> EncodesAs<T> for T {
    #[inline]
    fn encode_as(&self, w: &mut Writer) {
        self.encode(w);
    }
    #[inline]
    fn encoded_len_as(&self) -> usize {
        self.encoded_len_hint()
    }
}

/// Encode a single value to a fresh byte buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    to_bytes_as::<T, T>(value)
}

/// The bytes [`to_bytes`] makes of a `T`, from a value that
/// [encodes alike](EncodesAs) — a snapshot written from the state itself.
pub fn to_bytes_as<T: Wire, V: EncodesAs<T>>(value: &V) -> Vec<u8> {
    let mut w = Writer::with_capacity(value.encoded_len_as());
    value.encode_as(&mut w);
    w.into_bytes()
}

/// Decode a single value from `bytes`, requiring the buffer to be fully
/// consumed (trailing bytes are a protocol error).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> WireResult<T> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;

    #[test]
    fn to_from_bytes_roundtrip() {
        let v: u64 = 0xdead_beef;
        assert_eq!(from_bytes::<u64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn values_are_self_framing() {
        // Concatenate three values, decode them back in order.
        let mut w = Writer::new();
        42u32.encode(&mut w);
        "hi".to_string().encode(&mut w);
        (-1i64).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u32::decode(&mut r).unwrap(), 42);
        assert_eq!(String::decode(&mut r).unwrap(), "hi");
        assert_eq!(i64::decode(&mut r).unwrap(), -1);
        r.expect_end().unwrap();
    }
}
