//! # wire — the oopp wire format
//!
//! The paper ("Object-Oriented Parallel Programming", §2) relegates the
//! development of communication protocols — "assembly and parsing of
//! messages, and much of the associated code optimization" — to the
//! compiler. This crate is that protocol layer, written from scratch: a
//! compact, deterministic binary format used for every remote method
//! invocation, reply, and persisted process snapshot in the workspace.
//!
//! ## Format
//!
//! * Fixed-width **little-endian** encodings for all numeric scalars.
//! * **LEB128 varints** for lengths and enum discriminants (short messages
//!   stay short; no 8-byte length prefixes for 3-element vectors).
//! * `Option<T>` is a one-byte tag followed by the payload when present.
//! * `Vec<T>` / `String` are a varint length followed by the elements.
//! * [`collections::Bytes`] and [`collections::F64s`] wrap `Vec<u8>` /
//!   `Vec<f64>` with bulk (memcpy-style) encodings, byte-compatible with the
//!   elementwise forms, because pages of bytes and blocks of doubles are the
//!   dominant payloads in the paper's workloads. Blocks of doubles can
//!   also be sent from, and read back to, wherever they lie:
//!   [`collections::encode_f64s`] / [`Writer::put_f64s`] encode from a
//!   slice and [`collections::F64sView`] decodes to a checked view, both
//!   byte-identical to `F64s`. [`ViewOf`] and [`EncodesAs`] say so in the
//!   type system — `F64sView: ViewOf<F64s>`, `&[f64]: EncodesAs<F64s>`,
//!   `&[u8]` both ways for `Bytes` — which is how a `remote_class!` method
//!   takes a bulk argument where it arrived and returns one from where it
//!   lies.
//!
//! ## Deriving codecs
//!
//! The [`wire_struct!`] and [`wire_enum!`] macros derive [`Wire`]
//! implementations for user types — the same mechanical derivation the
//! paper assigns to its (hypothetical) compiler.
//!
//! ```
//! use wire::{Wire, wire_struct, to_bytes, from_bytes};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! pub struct PageHeader { pub index: u64, pub len: u32 }
//! wire_struct!(PageHeader { index, len });
//!
//! let h = PageHeader { index: 17, len: 4096 };
//! let bytes = to_bytes(&h);
//! assert_eq!(from_bytes::<PageHeader>(&bytes).unwrap(), h);
//! ```

pub mod codec;
pub mod collections;
pub mod error;
pub mod primitives;
pub mod reader;
pub mod varint;
pub mod writer;

#[macro_use]
mod macros;

pub use codec::{from_bytes, to_bytes, to_bytes_as, EncodesAs, ViewOf, Wire};
pub use error::{WireError, WireResult};
pub use primitives::V64;
pub use reader::Reader;
pub use writer::Writer;

#[cfg(test)]
mod proptests;
