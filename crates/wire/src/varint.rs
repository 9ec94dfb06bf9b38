//! LEB128 variable-length integer encoding.
//!
//! Lengths and enum discriminants dominate the framing overhead of small
//! messages (a remote `data[7] = 3.1415` from the paper's §2 is a handful of
//! bytes); LEB128 keeps them to one byte in the common case.

use crate::error::{WireError, WireResult};

/// Maximum encoded width of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Append `value` to `out` as an unsigned LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an unsigned LEB128 varint from the front of `buf`.
///
/// Returns the value and the number of bytes consumed.
#[inline]
pub fn read_u64(buf: &[u8]) -> WireResult<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(WireError::VarintOverflow);
        }
        let low = (byte & 0x7f) as u64;
        // The 10th byte of a u64 varint may only contribute its lowest bit.
        if shift == 63 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(WireError::UnexpectedEof {
        needed: 1,
        remaining: 0,
    })
}

/// Number of bytes [`write_u64`] will emit for `value`.
#[inline]
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert_eq!(buf.len(), encoded_len(v), "encoded_len mismatch for {v}");
        let (decoded, used) = read_u64(&buf).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn roundtrips_boundaries() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            roundtrip(v);
        }
    }

    #[test]
    fn single_byte_values_encode_to_one_byte() {
        for v in 0..=0x7f {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf, vec![v as u8]);
        }
    }

    #[test]
    fn max_u64_is_ten_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
    }

    #[test]
    fn empty_buffer_is_eof() {
        assert!(matches!(
            read_u64(&[]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn unterminated_varint_is_eof() {
        assert!(matches!(
            read_u64(&[0x80, 0x80]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_u64(&buf), Err(WireError::VarintOverflow));
    }

    #[test]
    fn tenth_byte_overflow_is_rejected() {
        // 9 continuation bytes then a final byte with more than the low bit set.
        let mut buf = [0xffu8; 10];
        buf[9] = 0x02;
        assert_eq!(read_u64(&buf), Err(WireError::VarintOverflow));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, used) = read_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, buf.len() - 2);
    }
}
