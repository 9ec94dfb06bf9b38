//! Decoding cursor.

use crate::error::{WireError, WireResult};
use crate::varint;

/// Borrowing cursor over an encoded buffer.
///
/// All reads are bounds-checked and return [`WireError::UnexpectedEof`]
/// rather than panicking: the bytes come from a remote peer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap `buf` for decoding from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Error unless the buffer has been fully consumed. Call after a
    /// top-level decode to detect protocol mismatches.
    pub fn expect_end(&self) -> WireResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    /// Take `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Take a single raw byte.
    #[inline]
    pub fn take_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Decode a varint-encoded unsigned value.
    #[inline]
    pub fn take_varint(&mut self) -> WireResult<u64> {
        let (v, used) = varint::read_u64(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Decode a declared element count, validating it against the bytes
    /// remaining so a corrupt length cannot trigger a huge allocation.
    ///
    /// `min_elem_size` is the smallest possible encoding of one element
    /// (1 for `u8`/`bool`, 8 for `f64`, 1 for variable-width types).
    #[inline]
    pub fn take_len(&mut self, min_elem_size: usize) -> WireResult<usize> {
        let declared = self.take_varint()? as usize;
        let min_bytes = declared.saturating_mul(min_elem_size.max(1));
        if min_bytes > self.remaining() {
            return Err(WireError::LengthOverrun {
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared)
    }

    /// Take a length-prefixed byte slice.
    #[inline]
    pub fn take_len_prefixed(&mut self) -> WireResult<&'a [u8]> {
        let len = self.take_len(1)?;
        self.take(len)
    }

    /// Take a length-prefixed UTF-8 string, borrowed from the buffer: what
    /// `String` decodes, without the allocation.
    #[inline]
    pub fn take_str(&mut self) -> WireResult<&'a str> {
        std::str::from_utf8(self.take_len_prefixed()?).map_err(|_| WireError::InvalidUtf8)
    }
}

macro_rules! take_le {
    ($($name:ident: $ty:ty),* $(,)?) => {
        impl<'a> Reader<'a> {
            $(
                #[doc = concat!("Decode a little-endian `", stringify!($ty), "`.")]
                #[inline]
                pub fn $name(&mut self) -> WireResult<$ty> {
                    let bytes = self.take(std::mem::size_of::<$ty>())?;
                    Ok(<$ty>::from_le_bytes(bytes.try_into().unwrap()))
                }
            )*
        }
    };
}

take_le! {
    take_u16: u16,
    take_u32: u32,
    take_u64: u64,
    take_i32: i32,
    take_i64: i64,
    take_f64: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::Writer;

    #[test]
    fn reads_back_scalars() {
        let mut w = Writer::new();
        w.put_u32(12345);
        w.put_f64(-2.5);
        w.put_i64(-7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u32().unwrap(), 12345);
        assert_eq!(r.take_f64().unwrap(), -2.5);
        assert_eq!(r.take_i64().unwrap(), -7);
        r.expect_end().unwrap();
    }

    #[test]
    fn short_buffer_is_eof_not_panic() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.take_u64(),
            Err(WireError::UnexpectedEof {
                needed: 8,
                remaining: 3
            })
        ));
    }

    #[test]
    fn take_len_rejects_absurd_lengths() {
        // Declares 2^40 f64s in a 3-byte buffer.
        let mut w = Writer::new();
        w.put_varint(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.take_len(8),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn take_len_accepts_exact_fit() {
        let mut w = Writer::new();
        w.put_varint(4);
        w.put_bytes(&[9, 9, 9, 9]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_len(1).unwrap(), 4);
        assert_eq!(r.take(4).unwrap(), &[9, 9, 9, 9]);
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        let _ = r.take_u8().unwrap();
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn position_tracks_consumption() {
        let mut r = Reader::new(&[0, 0, 0, 0]);
        assert_eq!(r.position(), 0);
        let _ = r.take_u16().unwrap();
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn take_str_borrows_what_string_decodes() {
        let mut w = Writer::new();
        w.put_len_prefixed("héllo".as_bytes());
        w.put_len_prefixed(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_str().unwrap(), "héllo");
        assert_eq!(r.take_str(), Err(WireError::InvalidUtf8));
        // The bad string was consumed like any other, as `String::decode` does.
        r.expect_end().unwrap();
        assert!(matches!(
            Reader::new(&[5, b'a']).take_str(),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut w = Writer::new();
        w.put_len_prefixed(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_len_prefixed().unwrap(), b"hello");
        r.expect_end().unwrap();
    }
}
