//! [`Wire`] implementations for compound types, plus bulk-payload wrappers.
//!
//! Rust (stable) has no impl specialization, so `Vec<T>` encodes elementwise.
//! The two payload shapes that dominate the paper's workloads — pages of raw
//! bytes and blocks of doubles — get dedicated wrapper types, [`Bytes`] and
//! [`F64s`], whose encodings are bulk copies.

use crate::codec::{EncodesAs, ViewOf, Wire};
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
        // Reserve no more than the bytes left hold: a junk count is not memory.
        let mut out = Vec::with_capacity(len.min(r.remaining() / size_of::<T>().max(1)));
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
        self.0.as_slice().encoded_len_as()
    }
}

/// What [`Bytes`] decodes, left where it lies.
impl<'a> ViewOf<'a, Bytes> for &'a [u8] {
    #[inline]
    fn view(r: &mut Reader<'a>) -> WireResult<Self> {
        r.take_len_prefixed()
    }
}

/// What [`Bytes`] encodes, from wherever the bytes lie.
impl EncodesAs<Bytes> for &[u8] {
    #[inline]
    fn encode_as(&self, w: &mut Writer) {
        w.put_len_prefixed(self);
    }
    #[inline]
    fn encoded_len_as(&self) -> usize {
        crate::varint::encoded_len(self.len() as u64) + self.len()
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
        self.0.as_slice().encoded_len_as()
    }
}

/// What [`F64s`] encodes, from wherever the doubles lie.
impl EncodesAs<F64s> for &[f64] {
    #[inline]
    fn encode_as(&self, w: &mut Writer) {
        encode_f64s(self, w);
    }
    #[inline]
    fn encoded_len_as(&self) -> usize {
        crate::varint::encoded_len(self.len() as u64) + self.len() * 8
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

    /// A view of doubles that already lie in wire order — a page as a
    /// device stores it. `None` unless `raw` is a whole number of doubles.
    pub fn of_le_bytes(raw: &'a [u8]) -> Option<Self> {
        raw.len().is_multiple_of(8).then_some(F64sView { raw })
    }

    /// The doubles in view as they lie: little-endian, at any alignment.
    pub fn as_le_bytes(&self) -> &'a [u8] {
        self.raw
    }

    /// The doubles in view, one by one.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        let doubles = self.raw.chunks_exact(8);
        doubles.map(|bytes| f64::from_le_bytes(bytes.try_into().expect("chunks of 8")))
    }

    /// Copy the doubles `[at, at + dst.len())` of the view into `dst`: one
    /// bulk copy to wherever `dst` lies, the mirror of
    /// [`Writer::put_f64s`].
    ///
    /// # Panics
    /// If that range does not lie inside the view, as slice indexing does.
    pub fn copy_to(&self, at: usize, dst: &mut [f64]) {
        let raw = &self.raw[at * 8..(at + dst.len()) * 8];
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `dst` is `size_of_val(dst)` writable bytes borrowed
            // mutably for as long as the byte view lives, `u8` has alignment
            // 1, and every bit pattern is a valid `f64`, so any bytes may be
            // written there. On a little-endian target an `f64`'s wire
            // encoding is its bytes in memory.
            let bytes = unsafe {
                std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), size_of_val(dst))
            };
            bytes.copy_from_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        {
            for (v, double) in dst.iter_mut().zip(F64sView { raw }.iter()) {
                *v = double;
            }
        }
    }

    /// The doubles in view, copied out: one pass, written once into an
    /// allocation of the exact size (zero-filling it first and copying over
    /// the zeros was a second pass over every bulk reply).
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// What [`F64s`] decodes, left where it lies.
impl<'a> ViewOf<'a, F64s> for F64sView<'a> {
    #[inline]
    fn view(r: &mut Reader<'a>) -> WireResult<Self> {
        F64sView::decode(r)
    }
}

/// A view encodes as what it was decoded from: its bytes, behind their count.
impl EncodesAs<F64s> for F64sView<'_> {
    #[inline]
    fn encode_as(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        w.put_bytes(self.raw);
    }
    #[inline]
    fn encoded_len_as(&self) -> usize {
        crate::varint::encoded_len(self.len() as u64) + self.raw.len()
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
        rt((1u8, 2u8, 3u8, 4u8));
    }

    #[test]
    fn fixed_arrays_roundtrip() {
        rt([1u32, 2, 3]);
        rt([0.5f64; 4]);
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

    /// Encode → view → `copy_to` gives back the very bits, wherever the
    /// payload lies in the buffer being read and whichever part is asked
    /// for: a byte copy has no opinion on NaN payloads or the sign of zero.
    #[test]
    fn copy_to_is_bit_exact_at_every_misalignment_and_sub_range() {
        let bits = [
            0x7ff8_0000_0000_0001u64, // quiet NaN with a payload
            0x7ff4_0000_dead_beef,    // signalling NaN
            0xfff8_0000_0000_0000,    // negative NaN
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            f64::MIN_POSITIVE.to_bits() >> 3, // subnormal
            f64::NEG_INFINITY.to_bits(),
            1.5f64.to_bits(),
            0x0123_4567_89ab_cdef,
        ];
        let doubles: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        for pad in 0..8 {
            let mut w = Writer::new();
            w.put_bytes(&vec![0xa5; pad]);
            encode_f64s(&doubles, &mut w);
            let buf = w.into_bytes();
            let r = &mut Reader::new(&buf[pad..]);
            let view = F64sView::decode(r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(view.len(), bits.len());
            let got = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(got(&view.to_vec()), bits, "pad {pad}");
            assert_eq!(got(&view.iter().collect::<Vec<_>>()), bits, "pad {pad}");
            for at in 0..=bits.len() {
                for len in 0..=bits.len() - at {
                    // Into a destination that is itself part of a longer
                    // slice, so a copy past its end would show.
                    let mut dst = vec![7.0; len + 2];
                    view.copy_to(at, &mut dst[1..=len]);
                    assert_eq!(got(&dst[1..=len]), bits[at..at + len], "pad {pad} at {at}");
                    assert_eq!((dst[0], dst[len + 1]), (7.0, 7.0));
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn copy_to_past_the_view_panics_like_a_slice_index() {
        let enc = to_bytes(&F64s(vec![1.0, 2.0]));
        let view = F64sView::decode(&mut Reader::new(&enc)).unwrap();
        view.copy_to(1, &mut [0.0; 2]);
    }

    /// The view and borrow forms are the owned types' encodings and accept
    /// exactly what the owned types' decoders accept.
    #[test]
    fn views_and_borrows_are_wire_identical_to_the_owned_types() {
        let doubles = vec![1.0, -2.5, f64::INFINITY, -0.0];
        let owned = to_bytes(&F64s(doubles.clone()));
        assert_eq!(crate::to_bytes_as::<F64s, _>(&doubles.as_slice()), owned);
        let view = <F64sView as ViewOf<F64s>>::view(&mut Reader::new(&owned)).unwrap();
        assert_eq!(view.to_vec(), doubles);
        assert_eq!(crate::to_bytes_as::<F64s, _>(&view), owned);
        assert_eq!(
            EncodesAs::<F64s>::encoded_len_as(&doubles.as_slice()),
            owned.len()
        );
        assert_eq!(EncodesAs::<F64s>::encoded_len_as(&view), owned.len());
        // A page as a device stores it is a view already.
        let page = F64sView::of_le_bytes(view.as_le_bytes()).unwrap();
        assert_eq!(page.to_vec(), doubles);
        assert!(F64sView::of_le_bytes(&owned[..7]).is_none());

        let bytes: Vec<u8> = (0..=255).collect();
        let owned = to_bytes(&Bytes(bytes.clone()));
        assert_eq!(crate::to_bytes_as::<Bytes, _>(&bytes.as_slice()), owned);
        let view = <&[u8] as ViewOf<Bytes>>::view(&mut Reader::new(&owned)).unwrap();
        assert_eq!(view, bytes);
        assert_eq!(
            EncodesAs::<Bytes>::encoded_len_as(&bytes.as_slice()),
            owned.len()
        );

        // Truncated: both refuse, with the same error.
        for cut in 1..4 {
            let short = &owned[..owned.len() - cut];
            assert_eq!(
                <&[u8] as ViewOf<Bytes>>::view(&mut Reader::new(short)).unwrap_err(),
                Bytes::decode(&mut Reader::new(short)).unwrap_err()
            );
        }
        let mut enc = to_bytes(&F64s(doubles));
        enc.truncate(enc.len() - 3);
        assert_eq!(
            <F64sView as ViewOf<F64s>>::view(&mut Reader::new(&enc)).unwrap_err(),
            F64s::decode(&mut Reader::new(&enc)).unwrap_err()
        );
        // The owned type views as itself.
        assert_eq!(
            <u32 as ViewOf<u32>>::view(&mut Reader::new(&to_bytes(&7u32))),
            Ok(7)
        );
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
