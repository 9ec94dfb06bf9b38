//! Property tests: every encodable value round-trips, truncation never
//! panics, and bulk encodings agree with elementwise ones.

use simnet::sweep::{cases, Case};

use crate::collections::{Bytes, F64s};
use crate::{from_bytes, to_bytes, Wire};

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = to_bytes(v);
    let back = from_bytes::<T>(&bytes).expect("decode of own encoding");
    assert_eq!(&back, v);
}

/// Any double but a NaN (a NaN compares unequal to itself).
fn non_nan(c: &mut Case) -> f64 {
    loop {
        let v = c.any_f64();
        if !v.is_nan() {
            return v;
        }
    }
}

/// A short vector of short strings, `(u32, String)` pairs.
fn pairs(c: &mut Case) -> Vec<(u32, String)> {
    c.vec(0..16, |c| (c.next_u64() as u32, c.string(0..12)))
}

#[test]
fn u64_roundtrips() {
    cases("u64_roundtrips", 64, |c| roundtrip(&c.next_u64()));
}

#[test]
fn i64_roundtrips() {
    cases("i64_roundtrips", 64, |c| roundtrip(&(c.next_u64() as i64)));
}

#[test]
fn usize_roundtrips() {
    cases("usize_roundtrips", 64, |c| {
        roundtrip(&(c.next_u64() as usize))
    });
}

#[test]
fn f64_roundtrips() {
    cases("f64_roundtrips", 64, |c| roundtrip(&non_nan(c)));
}

#[test]
fn f64_nan_bitpatterns_survive() {
    cases("f64_nan_bitpatterns_survive", 64, |c| {
        let bits = c.next_u64();
        let v = f64::from_bits(bits);
        let back = from_bytes::<f64>(&to_bytes(&v)).unwrap();
        assert_eq!(back.to_bits(), bits);
    });
}

#[test]
fn string_roundtrips() {
    cases("string_roundtrips", 64, |c| roundtrip(&c.string(0..12)));
}

#[test]
fn vec_u32_roundtrips() {
    cases("vec_u32_roundtrips", 64, |c| {
        roundtrip(&c.vec(0..16, |c| c.next_u64() as u32))
    });
}

#[test]
fn vec_string_roundtrips() {
    cases("vec_string_roundtrips", 64, |c| {
        roundtrip(&c.vec(0..16, |c| c.string(0..12)))
    });
}

#[test]
fn option_roundtrips() {
    cases("option_roundtrips", 64, |c| {
        roundtrip(&c.coin(0.5).then(|| c.next_u64() as i32))
    });
}

#[test]
fn tuple_roundtrips() {
    cases("tuple_roundtrips", 64, |c| {
        roundtrip(&(c.next_u64() as u8, c.next_u64() as i64, c.coin(0.5)))
    });
}

#[test]
fn nested_roundtrips() {
    cases("nested_roundtrips", 64, |c| {
        let v: Vec<Option<(u16, Vec<u8>)>> = c.vec(0..16, |c| {
            c.coin(0.5).then(|| (c.next_u64() as u16, c.bytes(0..16)))
        });
        roundtrip(&v);
    });
}

#[test]
fn bytes_roundtrips() {
    cases("bytes_roundtrips", 64, |c| {
        roundtrip(&Bytes(c.bytes(0..16)))
    });
}

#[test]
fn f64s_roundtrips() {
    cases("f64s_roundtrips", 64, |c| {
        roundtrip(&F64s(c.vec(0..512, non_nan)))
    });
}

/// The bulk F64s encoding must be byte-identical to the elementwise
/// Vec<f64> body (same length prefix, same IEEE bytes).
#[test]
fn f64s_bulk_matches_elementwise() {
    cases("f64s_bulk_matches_elementwise", 64, |c| {
        let v = c.vec(0..128, Case::any_f64);
        let bulk = to_bytes(&F64s(v.clone()));
        let element = to_bytes(&v);
        assert_eq!(bulk, element);
    });
}

/// Bytes bulk encoding must be byte-identical to elementwise Vec<u8>.
#[test]
fn bytes_bulk_matches_elementwise() {
    cases("bytes_bulk_matches_elementwise", 64, |c| {
        let v = c.bytes(0..16);
        assert_eq!(to_bytes(&Bytes(v.clone())), to_bytes(&v));
    });
}

/// Decoding any prefix of a valid encoding must fail cleanly, never
/// panic, never succeed with trailing expectations violated.
#[test]
fn truncation_fails_cleanly() {
    cases("truncation_fails_cleanly", 64, |c| {
        let (v, cut) = (pairs(c), c.range(0usize..64));
        let bytes = to_bytes(&v);
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut - 1];
            let _ = from_bytes::<Vec<(u32, String)>>(truncated); // must not panic
        }
    });
}

/// Decoding arbitrary junk must never panic.
#[test]
fn junk_never_panics() {
    cases("junk_never_panics", 64, |c| {
        let bytes = c.bytes(0..16);
        let _ = from_bytes::<Vec<(u32, String)>>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = from_bytes::<F64s>(&bytes);
        let _ = from_bytes::<Option<Vec<u64>>>(&bytes);
    });
}

/// Self-framing: two concatenated encodings decode back as two values.
#[test]
fn concatenation_is_self_framing() {
    cases("concatenation_is_self_framing", 64, |c| {
        let (a, b) = (c.vec(0..16, |c| c.next_u64() as u16), c.string(0..12));
        let mut buf = crate::Writer::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        let bytes = buf.into_bytes();
        let mut r = crate::Reader::new(&bytes);
        assert_eq!(Vec::<u16>::decode(&mut r).unwrap(), a);
        assert_eq!(String::decode(&mut r).unwrap(), b);
        r.expect_end().unwrap();
    });
}

/// Varint length prefixes are minimal-width.
#[test]
fn varint_is_minimal() {
    cases("varint_is_minimal", 64, |c| {
        let v = c.next_u64();
        let mut out = Vec::new();
        crate::varint::write_u64(&mut out, v);
        assert_eq!(out.len(), crate::varint::encoded_len(v));
    });
}

mod f64_slices {
    use simnet::sweep::Case;

    use crate::collections::{encode_f64s, F64s, F64sView};
    use crate::{from_bytes, to_bytes, Reader, Wire, WireError, Writer};

    fn doubles(rng: &mut Case, len: usize) -> Vec<f64> {
        // Any bit pattern: NaNs and denormals travel like everything else.
        (0..len).map(|_| f64::from_bits(rng.next_u64())).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The slice encoder and the view against the elementwise `Vec<f64>`
    /// codec (count, then each double through `f64`'s own impl) — and
    /// against `F64s`, which is built from them — on lengths up to 4 096,
    /// decoding at every misalignment of the buffer.
    #[test]
    fn slice_encoder_and_view_agree_with_the_elementwise_codec() {
        let rng = &mut Case::new(0x16_F64);
        let lengths = (0..64).chain((0..200).map(|_| rng.range(0..4097)));
        for len in lengths.collect::<Vec<_>>() {
            let data = doubles(rng, len);
            let reference = to_bytes(&data);

            // Encoded from one slice, and gathered from two.
            let mut whole = Writer::new();
            encode_f64s(&data, &mut whole);
            assert!(whole.as_slice() == reference, "len {len}");
            let split = rng.range(0..len + 1);
            let mut gathered = Writer::new();
            gathered.put_varint(len as u64);
            gathered.put_f64s(&data[..split]);
            gathered.put_f64s(&data[split..]);
            assert!(gathered.as_slice() == reference, "len {len} split {split}");
            assert!(to_bytes(&F64s(data.clone())) == reference, "len {len}");

            for shift in 0..8 {
                // `shift` bytes in front move the doubles to every
                // alignment; a byte behind proves the view stops in time.
                let mut buf = vec![0xEE; shift];
                buf.extend_from_slice(&reference);
                buf.push(0x5A);
                let r = &mut Reader::new(&buf[shift..]);
                let view = F64sView::decode(r).unwrap();
                assert_eq!(r.remaining(), 1);
                assert_eq!((view.len(), view.is_empty()), (len, len == 0));
                let want = bits(&from_bytes::<Vec<f64>>(&reference).unwrap());
                assert_eq!(bits(&view.to_vec()), want);
                let r = &mut Reader::new(&buf[shift..]);
                assert_eq!(bits(&F64s::decode(r).unwrap().0), want);
                // Any sub-range lands where it is sent.
                let at = rng.range(0..len + 1);
                let mut part = vec![0.0; rng.range(0..len - at + 1)];
                view.copy_to(at, &mut part);
                assert_eq!(bits(&part), want[at..at + part.len()]);
            }
        }
    }

    /// Whatever arrives, the view is a typed error or a view of bytes that
    /// are there: never a panic, and nothing is ever sized by a count the
    /// buffer does not back (the view allocates nothing at all; `to_vec`
    /// runs only on a checked count).
    #[test]
    fn damaged_buffers_are_wire_errors_never_panics() {
        let rng = &mut Case::new(0x16_BAD);
        let (mut refused, mut overruns) = (0, 0);
        for i in 0..10_000 {
            let len = rng.range(0..40);
            let data = doubles(rng, len);
            let mut buf = to_bytes(&F64s(data));
            let must_fail = match i % 3 {
                // Cut anywhere short of the end.
                0 => {
                    buf.truncate(rng.range(0..buf.len()));
                    true
                }
                // A count the bytes do not back, up to `u64::MAX` doubles.
                1 => {
                    let excess = rng.next_u64() >> rng.range(0..64);
                    let count = excess.saturating_add(len as u64 + 1);
                    let mut w = Writer::new();
                    w.put_varint(count);
                    w.put_bytes(&buf[1..]);
                    buf = w.into_bytes();
                    true
                }
                // A few bytes flipped: damage to the doubles is just other
                // doubles, damage to the count is caught.
                _ => {
                    for _ in 0..rng.range(1..4) {
                        let at = rng.range(0..buf.len());
                        buf[at] ^= 1 << rng.range(0..8);
                    }
                    false
                }
            };
            let r = &mut Reader::new(&buf);
            match F64sView::decode(r) {
                Ok(view) => {
                    assert!(!must_fail, "accepted {buf:02x?}");
                    assert!(view.len() * 8 <= buf.len());
                    assert_eq!(view.to_vec().len(), view.len());
                }
                Err(e) => {
                    refused += 1;
                    overruns += matches!(e, WireError::LengthOverrun { .. }) as u32;
                }
            }
        }
        assert!(refused > 6_000, "only {refused} of 10 000 refused");
        assert!(overruns > 3_000, "only {overruns} length overruns");
    }
}
