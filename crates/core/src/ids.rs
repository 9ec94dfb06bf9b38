//! Object identities and remote references, and the hasher of the maps
//! keyed by them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use simnet::MachineId;
use wire::wire_struct;

/// A map keyed by ids: object ids, request ids, `(caller, req_id)` pairs,
/// [`ObjRef`]s. Every map on the call path is one (DESIGN.md §6).
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// FxHash's multiply-rotate step in place of SipHash: ids are integers the
/// runtime or a caller's counter mints, and each map holding ones a peer
/// chose is bounded (the dedup window at 1 024 + 1 024 keys), which bounds
/// any collision chain a fixed hash lets a peer build. `finish` folds the
/// high half into the low: hashbrown picks a bucket by the low bits, and a
/// product's low bits see only its input's — all ids of one object-table
/// shard agree mod 8.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Per-machine object identifier. Id 0 is reserved for the machine's
/// **daemon** — the built-in kernel object that creates, destroys, persists
/// and reports on ordinary objects.
pub type ObjectId = u64;

/// The daemon's well-known object id on every machine.
pub const DAEMON: ObjectId = 0;

/// A remote pointer: which machine, which object.
///
/// This is the paper's `PageDevice *` returned by `new(machine 1)
/// PageDevice(...)` — a value that can be stored, copied, and **sent to
/// other processes** (it is wire-encodable), where dereferencing it triggers
/// client–server communication. Typed client structs generated by
/// [`remote_class!`](crate::remote_class) wrap one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef {
    /// Machine hosting the object.
    pub machine: MachineId,
    /// Object id within that machine.
    pub object: ObjectId,
}

wire_struct!(ObjRef { machine, object });

impl ObjRef {
    /// Reference to machine `m`'s daemon.
    pub fn daemon(m: MachineId) -> Self {
        ObjRef {
            machine: m,
            object: DAEMON,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{from_bytes, to_bytes};

    #[test]
    fn objref_roundtrips_the_wire() {
        let r = ObjRef {
            machine: 7,
            object: 123,
        };
        assert_eq!(from_bytes::<ObjRef>(&to_bytes(&r)).unwrap(), r);
    }

    #[test]
    fn daemon_refs() {
        let d = ObjRef::daemon(3);
        assert_eq!(d.machine, 3);
        assert_eq!(d.object, DAEMON);
    }

    #[test]
    fn objref_is_compact_on_the_wire() {
        // machine (varint) + object (8 bytes LE): small ids stay small.
        let r = ObjRef {
            machine: 1,
            object: 2,
        };
        assert!(to_bytes(&r).len() <= 9);
    }

    #[test]
    fn ids_of_one_shard_spread_over_the_low_bits() {
        use std::hash::BuildHasher;
        // An object-table shard holds the ids ≡ s mod 8; hashbrown indexes
        // a 64-bucket table by the low 6 bits of the hash.
        let build = BuildHasherDefault::<IdHasher>::default();
        for s in 0..8u64 {
            let buckets: std::collections::BTreeSet<u64> =
                (0..64).map(|i| build.hash_one(s + 8 * i) & 63).collect();
            assert!(buckets.len() >= 32, "shard {s}: {} buckets", buckets.len());
        }
        // Bytes go in a word at a time: a u64 and its little-endian bytes
        // hash alike.
        let mut as_int = IdHasher::default();
        as_int.write_u64(0x0102_0304);
        let mut as_bytes = IdHasher::default();
        as_bytes.write(&0x0102_0304u64.to_le_bytes());
        assert_eq!(as_int.finish(), as_bytes.finish());
    }
}
