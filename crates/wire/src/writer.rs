//! Encoding buffer.

use crate::varint;

/// Growable output buffer for wire encoding.
///
/// `Writer` is a thin wrapper over `Vec<u8>` that fixes the byte order
/// (little-endian) and the framing conventions (varint lengths) in one
/// place, so codec implementations cannot disagree about either.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// See [`tail_room`](Self::tail_room).
    tail: usize,
}

impl Writer {
    /// New, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// New writer with `cap` bytes pre-reserved — use when the payload size
    /// is known (e.g. shipping a page of fixed size).
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
            tail: 0,
        }
    }

    /// Keep `bytes` free behind a bulk append. A bulk append that has to
    /// grow the buffer grows it to fit exactly, so the next byte written
    /// would move the whole payload to a larger allocation; an owner that
    /// appends a few bytes after whatever its caller wrote (a frame's
    /// trailer behind its payload) asks for their room here, and the payload
    /// stays put. Small writes grow the buffer by doubling, as ever.
    pub fn tail_room(mut self, bytes: usize) -> Self {
        self.tail = bytes;
        self
    }

    /// A writer that goes on where `buf` ends, in `buf`'s allocation — for
    /// a buffer that has served its purpose and serves again instead of
    /// being freed and allocated anew.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Writer { buf, tail: 0 }
    }

    /// Make room for at least `additional` more bytes — for a caller about
    /// to append a payload of known size in several pieces, so the buffer
    /// grows once instead of doubling its way there. When what is written
    /// so far is the smaller part it moves to a new allocation: `realloc`
    /// would extend the small chunk where it lies — as a rule at the top of
    /// the allocator's arena, in pages never touched — while a freed buffer
    /// of the size wanted waits in a bin, and a sender whose MiB blocks
    /// outlive the call (kept and relayed by their receiver) churns its
    /// arena: the resident set rises and falls by tens of MiB.
    pub fn reserve(&mut self, additional: usize) {
        let room = additional + self.tail;
        let (len, free) = (self.buf.len(), self.buf.capacity() - self.buf.len());
        if free < room && len < room {
            let mut grown = Vec::with_capacity(len + room);
            grown.extend_from_slice(&self.buf);
            self.buf = grown;
        } else {
            self.buf.reserve(room);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Append a single raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append raw bytes verbatim (no length prefix).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        if self.buf.capacity() - self.buf.len() < bytes.len() {
            self.reserve(bytes.len());
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Append a varint-encoded unsigned value (used for lengths and tags).
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        varint::write_u64(&mut self.buf, v);
    }

    /// Append a length prefix followed by raw bytes.
    #[inline]
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Append `data` as little-endian doubles, nothing in front: one bulk
    /// copy from wherever the slice lies. The body of an
    /// [`F64s`](crate::collections::F64s) encoding — a caller that gathers
    /// one block from several slices writes the count once
    /// ([`put_varint`](Self::put_varint)) and then each slice with this.
    #[inline]
    pub fn put_f64s(&mut self, data: &[f64]) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `data` is `size_of_val(data)` initialised bytes, `u8`
            // has alignment 1 and no invalid values, and the borrow of
            // `data` outlives the byte view. On a little-endian target an
            // `f64`'s bytes in memory are its wire encoding.
            let bytes = unsafe {
                std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), size_of_val(data))
            };
            self.put_bytes(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        {
            for v in data {
                self.put_f64(*v);
            }
        }
    }
}

macro_rules! put_le {
    ($($name:ident: $ty:ty),* $(,)?) => {
        impl Writer {
            $(
                #[doc = concat!("Append a little-endian `", stringify!($ty), "`.")]
                #[inline]
                pub fn $name(&mut self, v: $ty) {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            )*
        }
    };
}

put_le! {
    put_u16: u16,
    put_u32: u32,
    put_u64: u64,
    put_i32: i32,
    put_i64: i64,
    put_f64: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_are_little_endian() {
        let mut w = Writer::new();
        w.put_u32(0x0403_0201);
        assert_eq!(w.as_slice(), &[0x01, 0x02, 0x03, 0x04]);

        let mut w = Writer::new();
        w.put_u16(0x0201);
        assert_eq!(w.as_slice(), &[0x01, 0x02]);
    }

    #[test]
    fn f64_encodes_ieee_bits() {
        let mut w = Writer::new();
        w.put_f64(1.0);
        assert_eq!(w.as_slice(), &1.0f64.to_le_bytes());
    }

    #[test]
    fn len_prefixed_frames() {
        let mut w = Writer::new();
        w.put_len_prefixed(b"abc");
        assert_eq!(w.as_slice(), &[3, b'a', b'b', b'c']);
    }

    #[test]
    fn with_capacity_reserves() {
        let w = Writer::with_capacity(4096);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    /// `reserve` makes the room it is asked for plus the tail room, whether
    /// the bytes written so far move to a new allocation (the smaller part)
    /// or the buffer grows where it is, and keeps them either way.
    #[test]
    fn reserve_makes_room_for_payload_and_tail_and_keeps_what_is_written() {
        for written in [0usize, 5, 300] {
            let mut w = Writer::appending_to(vec![7u8; written]).tail_room(16);
            w.reserve(100);
            assert_eq!(w.as_slice(), vec![7u8; written]);
            let buf = w.into_bytes();
            assert!(buf.capacity() >= written + 100 + 16, "{}", buf.capacity());
        }
        // Room enough already: nothing moves.
        let mut w = Writer::with_capacity(64);
        w.put_u8(1);
        let at = w.as_slice().as_ptr();
        w.reserve(32);
        assert_eq!(w.as_slice().as_ptr(), at);
    }
}
