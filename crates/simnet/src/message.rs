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
/// of the bytes. The buffer is freed when its last holder lets go.
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
    pub fn narrow(mut self, range: Range<usize>) -> Option<PacketBytes> {
        if range.start > range.end || range.end > self.len() {
            return None;
        }
        let start = self.range.start + range.start;
        self.range = start..start + range.len();
        Some(self)
    }

    /// The buffer itself, if this is its last holder — for a sender that
    /// gives a retired message's allocation to its next one. `None` (and
    /// nothing lost) while anyone else still holds the bytes.
    pub fn into_unshared(self) -> Option<Vec<u8>> {
        self.into_unshared_range().ok().map(|(buf, _)| buf)
    }

    /// [`into_unshared`](Self::into_unshared) for a holder that goes on
    /// with the bytes either way: the buffer and where these bytes lie in
    /// it — for a receiver that sends a part it kept onward in the buffer it
    /// arrived in — or, while anyone else holds the buffer, the handle back.
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
        drop(whole);
        let (buf, range) = mid.into_unshared_range().unwrap();
        assert_eq!((buf, range), ((0u8..10).collect(), 2..8));
    }
}
