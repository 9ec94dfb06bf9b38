//! [`Wire`] implementations for primitive scalars.
//!
//! Conventions:
//! * `u8`/`bool` are single bytes.
//! * Wider integers and floats are fixed-width little-endian — remote array
//!   elements (§2 of the paper: `data[7] = 3.1415`) must encode to exactly
//!   `size_of::<T>()` bytes so the bulk encodings in `collections` can be a
//!   straight memcpy.
//! * `usize` travels as a varint: it is a length or an index, almost always
//!   small, and its in-memory width is platform-dependent.

use crate::codec::Wire;
use crate::error::{WireError, WireResult};
use crate::reader::Reader;
use crate::writer::Writer;

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        r.take_u8()
    }
    fn encoded_len_hint(&self) -> usize {
        1
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }
    fn encoded_len_hint(&self) -> usize {
        1
    }
}

macro_rules! wire_fixed {
    ($($ty:ty => ($put:ident, $take:ident)),* $(,)?) => {
        $(
            impl Wire for $ty {
                fn encode(&self, w: &mut Writer) {
                    w.$put(*self);
                }
                fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
                    r.$take()
                }
                fn encoded_len_hint(&self) -> usize {
                    std::mem::size_of::<$ty>()
                }
            }
        )*
    };
}

wire_fixed! {
    u16 => (put_u16, take_u16),
    u32 => (put_u32, take_u32),
    u64 => (put_u64, take_u64),
    i32 => (put_i32, take_i32),
    i64 => (put_i64, take_i64),
    f64 => (put_f64, take_f64),
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(r.take_varint()? as usize)
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::encoded_len(*self as u64)
    }
}

/// A `u64` that travels as a LEB128 varint instead of 8 fixed bytes.
///
/// `u64` itself encodes fixed-width (array elements must be memcpy-able —
/// see the module conventions above), but protocol *header* fields are a
/// different regime: the RMI frame carries per-call trace identifiers in
/// every request, and those are zero when tracing is off and small for the
/// first ~2^28 calls when it is on. `V64` gives such fields the varint
/// treatment lengths already get, so an untraced frame pays two bytes of
/// header, not sixteen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct V64(pub u64);

impl Wire for V64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(V64(r.take_varint()?))
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::encoded_len(self.0)
    }
}

impl From<u64> for V64 {
    fn from(v: u64) -> Self {
        V64(v)
    }
}

impl From<V64> for u64 {
    fn from(v: V64) -> Self {
        v.0
    }
}

impl Wire for () {
    fn encode(&self, _w: &mut Writer) {}
    fn decode(_r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(())
    }
    fn encoded_len_hint(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};

    fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(from_bytes::<T>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn integer_roundtrips() {
        rt(0u8);
        rt(255u8);
        rt(u16::MAX);
        rt(u32::MAX);
        rt(i32::MIN);
        rt(u64::MAX);
        rt(i64::MIN);
        rt(usize::MAX);
    }

    #[test]
    fn float_roundtrips_including_special_values() {
        rt(0.0f64);
        rt(-0.0f64);
        rt(f64::INFINITY);
        rt(f64::NEG_INFINITY);
        rt(f64::MIN_POSITIVE);
        rt(std::f64::consts::PI);
        // NaN != NaN, so check bit pattern instead.
        let bytes = to_bytes(&f64::NAN);
        assert!(from_bytes::<f64>(&bytes).unwrap().is_nan());
    }

    #[test]
    fn bool_roundtrips_and_rejects_junk() {
        rt(true);
        rt(false);
        assert_eq!(from_bytes::<bool>(&[2]), Err(WireError::InvalidBool(2)));
    }

    #[test]
    fn unit_encodes_to_nothing() {
        assert!(to_bytes(&()).is_empty());
        assert_eq!(from_bytes::<()>(&[]), Ok(()));
    }

    #[test]
    fn usize_is_varint_compact() {
        assert_eq!(to_bytes(&5usize).len(), 1);
        assert_eq!(to_bytes(&300usize).len(), 2);
    }

    #[test]
    fn v64_is_varint_compact_and_roundtrips() {
        rt(V64(0));
        rt(V64(127));
        rt(V64(128));
        rt(V64(u64::MAX));
        assert_eq!(to_bytes(&V64(0)).len(), 1);
        assert_eq!(to_bytes(&V64(127)).len(), 1);
        assert_eq!(to_bytes(&V64(1 << 20)).len(), 3);
        assert_eq!(to_bytes(&V64(u64::MAX)).len(), 10);
        assert_eq!(V64(7).encoded_len_hint(), to_bytes(&V64(7)).len());
        assert_eq!(u64::from(V64::from(42u64)), 42);
    }

    #[test]
    fn fixed_width_types_have_exact_hints() {
        assert_eq!(1.0f64.encoded_len_hint(), 8);
        assert_eq!(7u32.encoded_len_hint(), 4);
        assert_eq!(to_bytes(&1.0f64).len(), 8);
    }
}
