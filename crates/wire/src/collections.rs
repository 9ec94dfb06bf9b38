//! [`Wire`] implementations for compound types, plus bulk-payload wrappers.
//!
//! Rust (stable) has no impl specialization, so `Vec<T>` encodes elementwise.
//! The two payload shapes that dominate the paper's workloads — pages of raw
//! bytes and blocks of doubles — get dedicated wrapper types, [`Bytes`] and
//! [`F64s`], whose encodings are bulk copies.

use std::collections::HashMap;
use std::hash::Hash;

use crate::codec::Wire;
use crate::error::{WireError, WireResult};
use crate::reader::Reader;
use crate::writer::Writer;

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(r.take_str()?.to_owned())
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::encoded_len(self.len() as u64) + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let len = r.take_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
    fn encoded_len_hint(&self) -> usize {
        let body: usize = self.iter().map(Wire::encoded_len_hint).sum();
        crate::varint::encoded_len(self.len() as u64) + body
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::InvalidOptionTag(b)),
        }
    }
    fn encoded_len_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len_hint)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Box::new(T::decode(r)?))
    }
    fn encoded_len_hint(&self) -> usize {
        (**self).encoded_len_hint()
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Ok(v) => {
                w.put_u8(0);
                v.encode(w);
            }
            Err(e) => {
                w.put_u8(1);
                e.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.take_u8()? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            b => Err(WireError::InvalidOptionTag(b)),
        }
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        // Decode into a Vec first; N is typically tiny (coordinates, shapes).
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(r)?);
        }
        items
            .try_into()
            .map_err(|_| WireError::Invalid("array length"))
    }
}

impl<K: Wire + Eq + Hash, V: Wire> Wire for HashMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let len = r.take_len(2)?;
        let mut out = HashMap::with_capacity(len);
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                #[allow(non_snake_case)]
                let ($(ref $name,)+) = *self;
                $($name.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
                Ok(($($name::decode(r)?,)+))
            }
            fn encoded_len_hint(&self) -> usize {
                #[allow(non_snake_case)]
                let ($(ref $name,)+) = *self;
                0 $(+ $name.encoded_len_hint())+
            }
        }
    };
}

wire_tuple!(A);
wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);
wire_tuple!(A, B, C, D, E);
wire_tuple!(A, B, C, D, E, F);

/// Raw byte payload with a bulk (memcpy-style) encoding.
///
/// Use this instead of `Vec<u8>` for page-sized payloads: the generic
/// `Vec<u8>` impl pushes byte-at-a-time through the `Wire` machinery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

impl Wire for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_len_prefixed(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Bytes(r.take_len_prefixed()?.to_vec()))
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::encoded_len(self.0.len() as u64) + self.0.len()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.0
    }
}

/// Block of doubles with a bulk little-endian encoding.
///
/// The paper's array pages are `n1*n2*n3` doubles; shipping them through the
/// elementwise `Vec<f64>` path would cost a bounds check and method call per
/// element. On little-endian targets encode/decode are straight memcpys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct F64s(pub Vec<f64>);

impl Wire for F64s {
    fn encode(&self, w: &mut Writer) {
        encode_f64s(&self.0, w);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(F64s(F64sView::decode(r)?.to_vec()))
    }
    fn encoded_len_hint(&self) -> usize {
        crate::varint::encoded_len(self.0.len() as u64) + self.0.len() * 8
    }
}

/// Encode `data` byte for byte as [`F64s`] would, from wherever the slice
/// lies — no owned `Vec<f64>` needed to send one.
pub fn encode_f64s(data: &[f64], w: &mut Writer) {
    w.put_varint(data.len() as u64);
    w.put_f64s(data);
}

/// What [`F64s`] decodes, left where it lies: a checked view of the doubles
/// inside the buffer being read. The bytes may sit at any alignment, so the
/// view hands doubles out by copying them to where they are wanted
/// ([`copy_to`](Self::copy_to)) rather than as a `&[f64]`.
#[derive(Debug, Clone, Copy)]
pub struct F64sView<'a> {
    /// `8 * len` bytes: the count was checked against them on decode.
    raw: &'a [u8],
}

impl<'a> F64sView<'a> {
    /// Step over one encoded [`F64s`], keeping a view of its doubles. The
    /// declared count is checked against the bytes present before anything
    /// is sized by it, exactly as `F64s::decode` checks it.
    pub fn decode(r: &mut Reader<'a>) -> WireResult<Self> {
        let len = r.take_len(8)?;
        Ok(F64sView {
            raw: r.take(len * 8)?,
        })
    }

    /// Number of doubles in view.
    pub fn len(&self) -> usize {
        self.raw.len() / 8
    }

    /// True for a view of no doubles.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Copy the doubles `[at, at + dst.len())` of the view into `dst`.
    ///
    /// # Panics
    /// If that range does not lie inside the view, as slice indexing does.
    pub fn copy_to(&self, at: usize, dst: &mut [f64]) {
        let raw = &self.raw[at * 8..(at + dst.len()) * 8];
        for (v, bytes) in dst.iter_mut().zip(raw.chunks_exact(8)) {
            *v = f64::from_le_bytes(bytes.try_into().expect("chunks of 8"));
        }
    }

    /// The doubles in view, copied out.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.copy_to(0, &mut out);
        out
    }
}

impl From<Vec<f64>> for F64s {
    fn from(v: Vec<f64>) -> Self {
        F64s(v)
    }
}

impl From<F64s> for Vec<f64> {
    fn from(b: F64s) -> Self {
        b.0
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
    fn string_roundtrips() {
        rt(String::new());
        rt("hello".to_string());
        rt("héllo wörld 🦀".to_string());
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut w = Writer::new();
        w.put_len_prefixed(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert_eq!(from_bytes::<String>(&bytes), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn vec_roundtrips() {
        rt(Vec::<u32>::new());
        rt(vec![1u32, 2, 3]);
        rt(vec!["a".to_string(), "b".to_string()]);
        rt(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn option_roundtrips() {
        rt(None::<u64>);
        rt(Some(42u64));
        rt(Some("x".to_string()));
        rt(vec![Some(1u8), None, Some(3)]);
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert_eq!(
            from_bytes::<Option<u8>>(&[7, 0]),
            Err(WireError::InvalidOptionTag(7))
        );
    }

    #[test]
    fn result_roundtrips() {
        rt(Ok::<u32, String>(5));
        rt(Err::<u32, String>("boom".to_string()));
    }

    #[test]
    fn tuples_roundtrip() {
        rt((1u8,));
        rt((1u8, 2u16));
        rt((1u8, "x".to_string(), 3.5f64));
        rt((1u8, 2u8, 3u8, 4u8, 5u8, 6u8));
    }

    #[test]
    fn fixed_arrays_roundtrip() {
        rt([1u32, 2, 3]);
        rt([0.5f64; 4]);
    }

    #[test]
    fn hashmap_roundtrips() {
        let mut m = HashMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        rt(m);
        rt(HashMap::<u64, u64>::new());
    }

    #[test]
    fn box_roundtrips() {
        rt(Box::new(17u64));
    }

    #[test]
    fn bytes_bulk_roundtrips() {
        rt(Bytes(vec![]));
        rt(Bytes((0..=255u8).collect()));
        let big = Bytes(vec![0xabu8; 1 << 16]);
        let enc = to_bytes(&big);
        // Length prefix (3-byte varint for 65536) plus the raw payload.
        assert_eq!(enc.len(), 3 + (1 << 16));
        assert_eq!(from_bytes::<Bytes>(&enc).unwrap(), big);
    }

    #[test]
    fn f64s_bulk_roundtrips() {
        rt(F64s(vec![]));
        rt(F64s(vec![1.0, -2.5, f64::INFINITY, 0.0, -0.0]));
        let big = F64s((0..10_000).map(|i| i as f64 * 0.25).collect());
        rt(big);
    }

    #[test]
    fn f64s_layout_is_len_then_le_doubles() {
        let enc = to_bytes(&F64s(vec![1.0]));
        assert_eq!(enc[0], 1); // varint length
        assert_eq!(&enc[1..], &1.0f64.to_le_bytes());
    }

    #[test]
    fn f64s_truncated_payload_fails_cleanly() {
        // The length guard fires before allocation: a declared count of 2
        // doubles (16 bytes) against 13 remaining is a LengthOverrun.
        let mut enc = to_bytes(&F64s(vec![1.0, 2.0]));
        enc.truncate(enc.len() - 3);
        assert!(matches!(
            from_bytes::<F64s>(&enc),
            Err(WireError::LengthOverrun { .. } | WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn vec_length_overrun_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_varint(u32::MAX as u64);
        let bytes = w.into_bytes();
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn nested_structures_roundtrip() {
        rt(vec![
            (Some(Bytes(vec![1, 2, 3])), "page".to_string()),
            (None, String::new()),
        ]);
    }
}
