//! Packets, their payload buffers, and machine identities.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// Index of a simulated machine within a cluster.
///
/// The paper writes `new(machine 1) PageDevice(...)`; a `MachineId` is that
/// `machine 1`. By convention the oopp runtime reserves the **last** id in a
/// cluster for the driver program (the paper's "machine 0" where `main`
/// runs); the substrate itself treats all ids uniformly.
pub type MachineId = usize;

/// What a packet carries: a byte range of an immutable buffer shared by
/// reference count. Dereferences to the bytes of the range.
///
/// A message has one buffer for its whole life. The sender encodes into a
/// `Vec<u8>` once and converts it (`From<Vec<u8>>`, no copy); from then on
/// every holder — the fabric, a duplicate the fault layer delivers, the
/// sender's retransmission slot, the receiver, a part of the message the
/// receiver keeps ([`slice`](Self::slice)) — is a clone of the handle, never
/// of the bytes. The buffer is freed when its last holder lets go — or,
/// when that holder is the one that will build the next message, given
/// back whole with [`into_spare`](Self::into_spare): buffer and
/// reference-count header, the message's two allocations, ready for
/// [`Spare::seal`].
#[derive(Clone)]
pub struct PacketBytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl PacketBytes {
    /// The sub-range `range` of these bytes (offsets relative to this
    /// range, not to the buffer), sharing the buffer. `None` when `range`
    /// does not lie inside them.
    pub fn slice(&self, range: Range<usize>) -> Option<PacketBytes> {
        self.clone().narrow(range)
    }

    /// [`slice`](Self::slice) for a holder that is done with the rest: this
    /// handle itself shrinks to `range`, the reference count is not touched.
    #[inline]
    pub fn narrow(mut self, range: Range<usize>) -> Option<PacketBytes> {
        if range.start > range.end || range.end > self.len() {
            return None;
        }
        let start = self.range.start + range.start;
        self.range = start..start + range.len();
        Some(self)
    }

    /// Both allocations of this message — its buffer and the header that
    /// counts its holders — if this is the last holder, for a sender that
    /// builds its next message in them. While anyone else still holds the
    /// bytes, the handle back, nothing lost: no buffer is reused while
    /// someone can read it.
    #[inline]
    pub fn into_spare(self) -> Result<Spare, PacketBytes> {
        let PacketBytes {
            buf: mut header,
            range,
        } = self;
        match Arc::get_mut(&mut header).map(std::mem::take) {
            Some(buf) => Ok(Spare { buf, header }),
            None => Err(PacketBytes { buf: header, range }),
        }
    }

    /// The buffer itself and where these bytes lie in it, if this is its
    /// last holder — for a receiver that sends a part it kept onward in the
    /// buffer it arrived in — or, while anyone else holds the buffer, the
    /// handle back.
    pub fn into_unshared_range(self) -> Result<(Vec<u8>, Range<usize>), PacketBytes> {
        let PacketBytes { buf, range } = self;
        match Arc::try_unwrap(buf) {
            Ok(buf) => Ok((buf, range)),
            Err(buf) => Err(PacketBytes { buf, range }),
        }
    }

    /// True when `self` and `other` are ranges of one allocation.
    pub fn shares_buffer_with(&self, other: &PacketBytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

impl Deref for PacketBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl AsRef<[u8]> for PacketBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for PacketBytes {
    fn from(buf: Vec<u8>) -> Self {
        let range = 0..buf.len();
        PacketBytes {
            buf: Arc::new(buf),
            range,
        }
    }
}

/// A retired message nobody else holds, taken apart: its buffer, and the
/// reference-count header that shared it (see
/// [`PacketBytes::into_spare`]). A sender writes its next message into the
/// buffer ([`take`](Self::take)) and [`seals`](Self::seal) it back into the
/// header, so a message built in a spare allocates nothing.
#[derive(Debug)]
pub struct Spare {
    buf: Vec<u8>,
    /// Holds an empty `Vec` until `seal`; never shared.
    header: Arc<Vec<u8>>,
}

impl Spare {
    /// The buffer's capacity: the largest message it holds without growing.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The buffer, moved out for writing; the header stays behind, empty,
    /// until [`seal`](Self::seal) puts a buffer back.
    #[inline]
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// `buf` as a message in this header: the bytes `range` of it, or
    /// `None` when `range` does not lie inside it.
    #[inline]
    pub fn seal(mut self, buf: Vec<u8>, range: Range<usize>) -> Option<PacketBytes> {
        let whole = 0..buf.len();
        let held = Arc::get_mut(&mut self.header).expect("a spare's header is never shared");
        *held = buf;
        PacketBytes {
            buf: self.header,
            range: whole,
        }
        .narrow(range)
    }
}

/// Equal when the bytes are, whatever holds them.
impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for PacketBytes {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl Eq for PacketBytes {}

impl std::fmt::Debug for PacketBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// An opaque message in flight between two machines.
///
/// The substrate moves bytes; framing and meaning belong to the layer above
/// (the oopp RMI protocol, or mplite's tagged messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sending machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// Encoded payload.
    pub payload: PacketBytes,
}

impl Packet {
    /// Construct a packet.
    pub fn new(src: MachineId, dst: MachineId, payload: impl Into<PacketBytes>) -> Self {
        Packet {
            src,
            dst,
            payload: payload.into(),
        }
    }

    /// Payload size in bytes — the quantity the cost model charges for.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty (control messages).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_accessors() {
        let p = Packet::new(2, 5, vec![1, 2, 3]);
        assert_eq!(p.src, 2);
        assert_eq!(p.dst, 5);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(Packet::new(0, 0, vec![]).is_empty());
    }

    #[test]
    fn payload_bytes_dereference_to_their_range_and_compare_by_content() {
        let whole = PacketBytes::from(vec![1, 2, 3, 4]);
        assert_eq!(&*whole, &[1, 2, 3, 4]);
        assert_eq!(whole, vec![1, 2, 3, 4]);
        let part = whole.slice(1..3).unwrap();
        assert_eq!(&*part, &[2, 3]);
        assert_eq!(format!("{part:?}"), "[2, 3]");
        assert_eq!(part, PacketBytes::from(vec![2, 3]));
        assert_ne!(part, whole);
    }

    #[test]
    fn sub_slices_share_the_buffer_and_cannot_leave_their_range() {
        let whole = PacketBytes::from((0u8..10).collect::<Vec<_>>());
        let mid = whole.slice(2..8).unwrap();
        assert!(mid.shares_buffer_with(&whole));
        // Offsets are relative to the range sliced, not to the buffer.
        let inner = mid.slice(1..3).unwrap();
        assert_eq!(&*inner, &[3, 4]);
        assert!(inner.shares_buffer_with(&whole));
        assert_eq!(mid.slice(0..6).unwrap(), mid);
        assert!(mid.slice(6..6).unwrap().is_empty());
        // Out of range, or inverted: refused, even where the buffer itself
        // would have had the bytes.
        assert!(mid.slice(0..7).is_none());
        assert!(mid.slice(7..7).is_none());
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 3..2;
        assert!(mid.slice(inverted).is_none());
        assert!(mid.slice(usize::MAX - 1..usize::MAX).is_none());
        // Narrowing is slicing, minus the handle given up.
        assert_eq!(mid.clone().narrow(1..3).unwrap(), inner);
        assert!(mid.clone().narrow(0..7).is_none());
        assert!(!PacketBytes::from(vec![2, 3]).shares_buffer_with(&whole));
    }

    #[test]
    fn the_last_holder_gets_buffer_and_range_anyone_else_the_handle_back() {
        let whole = PacketBytes::from((0u8..10).collect::<Vec<_>>());
        let mid = whole.slice(2..8).unwrap();
        // Two holders: the handle comes back as it went in.
        let mid = mid.into_unshared_range().unwrap_err();
        assert_eq!(&*mid, &[2, 3, 4, 5, 6, 7]);
        assert!(mid.shares_buffer_with(&whole));
        let mid = mid.into_spare().unwrap_err();
        assert!(mid.shares_buffer_with(&whole));
        drop(whole);
        let (buf, range) = mid.into_unshared_range().unwrap();
        assert_eq!((buf, range), ((0u8..10).collect(), 2..8));
    }

    #[test]
    fn a_spare_is_the_last_holders_buffer_and_header_and_seals_a_new_message() {
        let first = PacketBytes::from(vec![7u8; 64]);
        let held = first.slice(8..16).unwrap();
        // Someone still reads it: no spare, the handle back.
        let first = first.into_spare().unwrap_err();
        drop(held);
        let mut spare = first.into_spare().unwrap();
        assert_eq!(spare.capacity(), 64);
        let mut buf = spare.take();
        assert_eq!(buf.capacity(), 64);
        buf.clear();
        buf.extend_from_slice(b"next message");
        let next = spare.seal(buf, 5..12).unwrap();
        assert_eq!(&*next, b"message");
        // A range outside the buffer is refused, as `narrow` refuses it.
        let mut spare = next.into_spare().unwrap();
        let buf = spare.take();
        assert!(spare.seal(buf, 0..13).is_none());
    }
}
