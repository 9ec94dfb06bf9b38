//! The RMI message protocol carried over simnet packets.
//!
//! Exactly two frame kinds exist: a request targeting an object, and its
//! response. Everything else — object creation, destruction, shutdown,
//! persistence — is a method call on the per-machine **daemon** (object 0,
//! whose verb table lives in `node::daemon`), keeping the protocol surface
//! minimal.

use std::ops::Range;

use simnet::{PacketBytes, Spare};
use wire::collections::Bytes;
use wire::varint::MAX_VARINT_LEN;
use wire::{wire_struct, EncodesAs, Reader, Wire, WireError, WireResult, Writer, V64};

use crate::dedup::KEY_SHARE;
use crate::error::{RemoteError, RemoteResult};
use crate::ids::{ObjRef, ObjectId};
use crate::trace::{EventKind, TraceCtx};

/// One frame on the wire. Its first byte is the tag, a one-byte varint:
///
/// | tag | frame | |
/// |-----|-------|-|
/// | `0` | [`Frame::Request`] | a request its sender may retransmit |
/// | `1` | [`Frame::Response`] | the answer to a request |
/// | `2` | [`Frame::SingleShot`] | a request its sender will never retransmit |
///
/// Any other tag is a typed error. The two request tags lay out the same
/// fields: what tag `2` tells a server is that no copy of the request will
/// ever ask for its reply again, so the reply need not be kept for replay
/// (DESIGN.md §6).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Invoke a method on `target`. `payload` is the method name (string)
    /// followed by the encoded arguments. The sender may retransmit it.
    Request {
        /// Caller-chosen correlation id, unique per caller.
        req_id: u64,
        /// Machine to send the [`Frame::Response`] to.
        reply_to: usize,
        /// Object being invoked (0 = daemon).
        target: ObjectId,
        /// Method name + encoded arguments.
        payload: Bytes,
        /// Flight-recorder identity (all-zero when tracing is off; costs
        /// two bytes on the wire then — both fields are varints).
        trace: TraceCtx,
        /// Caller's believed incarnation epoch for `target`. `0` means
        /// "unfenced" — the object has never been placed under supervision
        /// and no epoch checks apply (one varint byte on the wire). A
        /// nonzero epoch below the server's is rejected with
        /// [`RemoteError::Fenced`]; above it,
        /// the *server* is the stale party and fences itself.
        epoch: u64,
        /// Caller's believed **replica-set** epoch for `target`. `0` means
        /// "not replica-routed" — the common case, one varint byte on the
        /// wire (hence [`V64`], not fixed-width `u64`). A read replica
        /// serves the request only if it has synced at or past this epoch
        /// (and its coherence lease is live); otherwise it answers
        /// [`RemoteError::StaleReplica`]
        /// and the caller falls back to the primary.
        rs_epoch: V64,
        /// Absolute cluster-clock deadline in nanoseconds, or `0` for
        /// "no deadline" (the classic contract: the call may run whenever
        /// it is admitted). A nonzero deadline is checked at admission
        /// *and* again at execution time under the shard lock; expired
        /// work is dropped with
        /// [`RemoteError::DeadlineExceeded`] instead
        /// of executing after the caller has given up. On the wire this is
        /// an **optional trailing varint**: `0` is encoded by omission, so
        /// deadline-free frames are byte-identical to the pre-deadline
        /// format (see DESIGN.md §15).
        deadline: u64,
    },
    /// The outcome of a previous request.
    Response {
        /// Correlation id from the matching request.
        req_id: u64,
        /// Encoded return value, or the failure.
        result: Result<Bytes, RemoteError>,
    },
    /// A [`Frame::Request`] its sender will never retransmit: it was sent
    /// under a policy of zero retries. The fields are a request's.
    SingleShot {
        req_id: u64,
        reply_to: usize,
        target: ObjectId,
        payload: Bytes,
        trace: TraceCtx,
        epoch: u64,
        rs_epoch: V64,
        deadline: u64,
    },
}

// Hand-written `Wire` impl instead of `wire_enum!`: the trailing `deadline`
// field is *optional on the wire* (omitted when 0), which the positional
// macro cannot express. Safe because a packet carries exactly one frame:
// decoding takes the rest of the reader, and "nothing left" unambiguously
// means "field absent". Fields stay in append order; tags are protocol.
// The layout itself is spelled once per direction: `write_prefix` /
// `write_trailer` and `write_response_prefix` encode, `FrameView::parse`
// decodes.
impl Wire for Frame {
    fn encode(&self, w: &mut wire::Writer) {
        match self {
            Frame::Request {
                req_id,
                reply_to,
                target,
                payload,
                trace,
                epoch,
                rs_epoch,
                deadline,
            }
            | Frame::SingleShot {
                req_id,
                reply_to,
                target,
                payload,
                trace,
                epoch,
                rs_epoch,
                deadline,
            } => {
                let header = RequestHeader {
                    req_id: *req_id,
                    reply_to: *reply_to,
                    target: *target,
                    trace: *trace,
                    epoch: *epoch,
                    rs_epoch: *rs_epoch,
                    deadline: *deadline,
                    resend: matches!(self, Frame::Request { .. }),
                };
                header.write_prefix(payload.0.len(), w);
                w.put_bytes(&payload.0);
                header.write_trailer(w);
            }
            Frame::Response { req_id, result } => {
                write_response_prefix(*req_id, result.as_ref().ok().map(|p| p.0.len()), w);
                match result {
                    Ok(payload) => w.put_bytes(&payload.0),
                    Err(e) => e.encode(w),
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let buf = r.take(r.remaining())?;
        let copy = |range: Range<usize>| Bytes(buf[range].to_vec());
        Ok(match FrameView::parse(buf)? {
            FrameView::Request { header, payload } => {
                let RequestHeader {
                    req_id,
                    reply_to,
                    target,
                    trace,
                    epoch,
                    rs_epoch,
                    deadline,
                    resend,
                } = header;
                let payload = copy(payload);
                if resend {
                    Frame::Request {
                        req_id,
                        reply_to,
                        target,
                        payload,
                        trace,
                        epoch,
                        rs_epoch,
                        deadline,
                    }
                } else {
                    Frame::SingleShot {
                        req_id,
                        reply_to,
                        target,
                        payload,
                        trace,
                        epoch,
                        rs_epoch,
                        deadline,
                    }
                }
            }
            FrameView::Response { req_id, result } => Frame::Response {
                req_id,
                result: result.map(copy),
            },
        })
    }
}

/// A frame parsed where it lies: header fields by value, the payload as a
/// byte range of the buffer it was parsed from. This is how a node reads
/// its packets — the payload is never copied out of one, the packet's
/// buffer is [narrowed](PacketBytes::narrow) to it.
pub(crate) enum FrameView {
    Request {
        header: RequestHeader,
        payload: Range<usize>,
    },
    Response {
        req_id: u64,
        result: Result<Range<usize>, RemoteError>,
    },
}

impl FrameView {
    /// Parse the one frame `buf` holds — the one place the frame layout is
    /// read. Every range returned lies inside `buf`; anything else —
    /// truncation, an unknown tag, bytes after the frame — is a typed
    /// error.
    pub(crate) fn parse(buf: &[u8]) -> WireResult<FrameView> {
        let r = &mut Reader::new(buf);
        let view = match r.take_varint()? {
            tag @ (0 | 2) => {
                let req_id = Wire::decode(r)?;
                let reply_to = Wire::decode(r)?;
                let target = Wire::decode(r)?;
                let payload = take_range(r)?;
                let header = RequestHeader {
                    req_id,
                    reply_to,
                    target,
                    trace: Wire::decode(r)?,
                    epoch: Wire::decode(r)?,
                    rs_epoch: Wire::decode(r)?,
                    deadline: if r.is_empty() { 0 } else { r.take_varint()? },
                    resend: tag == 0,
                };
                FrameView::Request { header, payload }
            }
            1 => FrameView::Response {
                req_id: Wire::decode(r)?,
                // `Result<Bytes, RemoteError>` as `wire` lays it out.
                result: match r.take_u8()? {
                    0 => Ok(take_range(r)?),
                    1 => Err(Wire::decode(r)?),
                    b => return Err(WireError::InvalidOptionTag(b)),
                },
            },
            tag => return Err(WireError::UnknownVariant { ty: "Frame", tag }),
        };
        r.expect_end()?;
        Ok(view)
    }
}

/// Step over a length-prefixed byte string, reporting where it lies.
fn take_range(r: &mut Reader<'_>) -> WireResult<Range<usize>> {
    let len = r.take_len_prefixed()?.len();
    Ok(r.position() - len..r.position())
}

/// Most bytes a frame spends in front of its payload — a request's tag,
/// `req_id`, `reply_to`, `target` and payload length (a response's prefix
/// is shorter) — and so the room a [`Body`] keeps in front of itself.
const PREFIX_ROOM: usize = 1 + 8 + MAX_VARINT_LEN + 8 + MAX_VARINT_LEN;

/// Most bytes written behind a complete body: a request's trailer (trace
/// context, epoch, replica-set epoch, deadline), then the prefix on its way
/// to the front. Kept free behind a bulk append, so finishing a frame never
/// moves the payload to a larger allocation.
const TAIL_ROOM: usize = (2 * MAX_VARINT_LEN + 8 + 2 * MAX_VARINT_LEN) + PREFIX_ROOM;

/// A message body being encoded — a method name and its arguments, or a
/// return value — behind room for the frame prefix that will precede it:
/// the frame is finished in the buffer its body was written to, the one the
/// packet, the retransmission slot or the dedup window then share. How every
/// request and every reply ([`DispatchResult::Reply`](crate::DispatchResult))
/// is built.
#[derive(Debug)]
pub struct Body {
    w: Writer,
    /// Where the body starts in `w`; at least [`PREFIX_ROOM`].
    start: usize,
    /// The reference-count header of the retired frame whose buffer `w`
    /// writes into, which the finished frame goes back into; `None` for a
    /// buffer of the body's own.
    header: Option<Spare>,
}

impl Body {
    /// An empty body in a lane's spare frame (see [`FramePool`]): a retired
    /// message's buffer and header — or, with no spare, an empty `Vec`, and
    /// then the buffer starts small and only a bulk append makes room for
    /// itself and the tail at once.
    pub(crate) fn reusing(spare: Option<Spare>) -> Self {
        Body::in_buffer(spare, 0)
    }

    /// An empty body with room for `room` bytes, prefix room included, in
    /// `spare` (grown to fit if need be) or in a buffer of its own.
    fn in_buffer(spare: Option<Spare>, room: usize) -> Self {
        let (mut buf, header) = match spare {
            Some(mut spare) => (spare.take(), Some(spare)),
            None => (Vec::new(), None),
        };
        buf.clear();
        buf.reserve_exact(room);
        buf.resize(PREFIX_ROOM, 0);
        Body {
            w: Writer::appending_to(buf).tail_room(TAIL_ROOM),
            start: PREFIX_ROOM,
            header,
        }
    }

    /// `value` encoded as a body — a return value, sized once from its
    /// length hint: room in front, the value, and the response prefix on
    /// its way to the front.
    pub fn of<T: Wire>(value: &T) -> Self {
        Body::of_as::<T, T>(value)
    }

    /// `value` encoded as a body that decodes as a `T`: `T` itself, or a
    /// borrow of the same data that [encodes alike](EncodesAs) — a slice of
    /// the object's own state written straight into the reply. In a buffer
    /// of its own; `remote_class!` encodes what a method returns the same
    /// way, in the serving lane's spare frame when it has one that fits.
    pub fn of_as<T: Wire, V: EncodesAs<T>>(value: &V) -> Self {
        Body::of_as_in::<T, V>(None, reply_room::<T, V>(value), value)
    }

    /// [`of_as`](Self::of_as) in `spare`, when there is one, sized for
    /// `room` bytes (see `reply_room`).
    fn of_as_in<T: Wire, V: EncodesAs<T>>(spare: Option<Spare>, room: usize, value: &V) -> Self {
        let mut body = Body::in_buffer(spare, room);
        value.encode_as(&mut body.w);
        body
    }

    /// An empty body with room for `payload` bytes, for a bulk payload
    /// written in pieces; write to it through [`writer`](Self::writer).
    pub fn with_capacity(payload: usize) -> Self {
        Body::in_buffer(None, PREFIX_ROOM + payload + TAIL_ROOM)
    }

    /// `bytes` as a body, in a buffer of their own sized for them.
    pub(crate) fn copying(bytes: &[u8]) -> Self {
        let mut body = Body::with_capacity(bytes.len());
        body.w.put_bytes(bytes);
        body
    }

    /// `kept` — bytes of a request kept with
    /// [`request_bytes`](crate::NodeCtx::request_bytes) — as a body, for an
    /// object that passes on what it was sent. The bytes stay where they
    /// arrived when `kept` is the last holder of its buffer (the sender has
    /// retired the call, the dispatch that kept them is over) and lies at
    /// least a frame prefix into it: the frame is finished around them, in
    /// the tail room their sender left. Otherwise they are copied, once.
    pub fn relaying(kept: PacketBytes) -> Self {
        match kept.into_unshared_range() {
            Ok((mut buf, range)) if range.start >= PREFIX_ROOM => {
                buf.truncate(range.end);
                Body {
                    w: Writer::appending_to(buf).tail_room(TAIL_ROOM),
                    start: range.start,
                    header: None,
                }
            }
            Ok((buf, range)) => Body::copying(&buf[range]),
            Err(kept) => Body::copying(&kept),
        }
    }

    /// Where the body's bytes go.
    pub fn writer(&mut self) -> &mut Writer {
        &mut self.w
    }

    /// Bytes written to the body so far.
    pub(crate) fn len(&self) -> usize {
        self.w.len() - self.start
    }

    /// Finish the frame. The prefix ends in the payload's length, known
    /// only now: `write_prefix` encodes it behind everything written so far
    /// and it is moved, right-aligned, into the room in front. The result
    /// runs from the prefix's first byte to the last byte written before it.
    fn seal(mut self, write_prefix: impl FnOnce(&mut Writer)) -> PacketBytes {
        let end = self.w.len();
        write_prefix(&mut self.w);
        let mut buf = self.w.into_bytes();
        let start = (self.start + end)
            .checked_sub(buf.len())
            .expect("a prefix fits its room");
        buf.copy_within(end.., start);
        buf.truncate(end);
        let frame = match self.header {
            Some(header) => header.seal(buf, start..end),
            None => PacketBytes::from(buf).narrow(start..end),
        };
        frame.expect("the frame lies inside its buffer")
    }
}

/// The bytes a reply body of `value` is sized for: room in front, the
/// value, and the response prefix on its way to the front.
fn reply_room<T: Wire, V: EncodesAs<T>>(value: &V) -> usize {
    2 * PREFIX_ROOM + value.encoded_len_as()
}

/// The retired frames a lane builds its next frames in (DESIGN.md §4 3c),
/// each buffer with its reference-count header: request frames come back
/// when their call retires, reply frames when the dedup window evicts
/// them. A call in steady state then allocates nothing on either side.
///
/// Its bounds are limits the runtime has anyway. A frame heavier than one
/// key's share of the dedup window's byte budget ([`KEY_SHARE`]) is never
/// kept among the light ones — a bulk reply is freed as it always was —
/// and a heavy *request* frame is kept only while it is the last frame its
/// lane retired: the one spare a bulk writer reuses, as it always was. The
/// light frames kept are never more than the most calls this lane has had
/// in flight at once (one, for a lane that only serves: the reply it is
/// building).
#[derive(Debug, Default)]
pub(crate) struct FramePool {
    /// Light retired frames, the newest last.
    light: Vec<Spare>,
    /// The last retired request frame heavier than [`KEY_SHARE`].
    heavy: Option<Spare>,
    /// The most of this lane's calls ever in flight at once.
    in_flight: usize,
}

impl FramePool {
    /// This lane has `calls` in flight now.
    pub(crate) fn note_in_flight(&mut self, calls: usize) {
        self.in_flight = self.in_flight.max(calls);
    }

    /// An empty body for a request, whose size is not known yet: in the
    /// heavy spare when there is one — a bulk writer's next request is
    /// another bulk write — else in the newest light one.
    pub(crate) fn request(&mut self) -> Body {
        Body::reusing(self.heavy.take().or_else(|| self.light.pop()))
    }

    /// `value` as a reply body: in a light spare when the reply is light,
    /// in a buffer of its own otherwise.
    pub(crate) fn reply<T: Wire, V: EncodesAs<T>>(&mut self, value: &V) -> Body {
        let room = reply_room::<T, V>(value);
        let spare = if room <= KEY_SHARE {
            self.light.pop()
        } else {
            None
        };
        Body::of_as_in::<T, V>(spare, room, value)
    }

    /// Keep the frame of a call that retired, if nobody else holds it. A
    /// heavy spare is kept only while it is the last frame retired.
    pub(crate) fn retired(&mut self, frame: PacketBytes) {
        if let Ok(spare) = frame.into_spare() {
            if spare.capacity() > KEY_SHARE {
                self.heavy = Some(spare);
            } else {
                self.heavy = None;
                self.keep(spare);
            }
        }
    }

    /// Keep a reply frame the dedup window evicted, if nobody else holds
    /// it and it is light.
    pub(crate) fn evicted(&mut self, frame: PacketBytes) {
        if let Ok(spare) = frame.into_spare() {
            if spare.capacity() <= KEY_SHARE {
                self.keep(spare);
            }
        }
    }

    fn keep(&mut self, spare: Spare) {
        if self.light.len() < self.in_flight.max(1) {
            self.light.push(spare);
        }
    }
}

/// A response frame's bytes up to its payload (`Some(len)`, an `Ok` result)
/// or up to its error (`None`) — the one place the response layout is
/// written: tag, `req_id`, then `Result<Bytes, RemoteError>` as `wire` lays
/// it out.
fn write_response_prefix(req_id: u64, payload_len: Option<usize>, w: &mut Writer) {
    w.put_varint(1);
    Wire::encode(&req_id, w);
    match payload_len {
        Some(len) => {
            w.put_u8(0);
            w.put_varint(len as u64);
        }
        None => w.put_u8(1),
    }
}

/// Finish the response frame for `req_id` in the buffer its return value
/// (or its error) was encoded into: what goes on the wire *and* what the
/// dedup window keeps for replay. Beside it, what it weighs there — the
/// payload, so an error or an empty reply weighs nothing.
pub(crate) fn encode_response(req_id: u64, result: RemoteResult<Body>) -> (PacketBytes, usize) {
    let (body, payload_len) = match result {
        Ok(body) => {
            let len = body.len();
            (body, Some(len))
        }
        Err(e) => (Body::of(&e), None),
    };
    let frame = body.seal(|w| write_response_prefix(req_id, payload_len, w));
    (frame, payload_len.unwrap_or(0))
}

/// Every field of a [`Frame::Request`] but its payload. A node keeps one
/// beside the encoded bytes of each call in flight, so a redirect can patch
/// a field and re-encode without ever decoding a frame it wrote itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestHeader {
    pub(crate) req_id: u64,
    pub(crate) reply_to: usize,
    pub(crate) target: ObjectId,
    pub(crate) trace: TraceCtx,
    pub(crate) epoch: u64,
    pub(crate) rs_epoch: V64,
    pub(crate) deadline: u64,
    /// The sender may retransmit the request: tag `0` on the wire. A
    /// request sent under a policy of zero retries is tag `2`, and its
    /// server keeps no heavy reply for it to replay (see `dedup`).
    pub(crate) resend: bool,
}

impl RequestHeader {
    /// Finish the request frame made of this header around `body`, in the
    /// buffer the body was encoded into, and report where the payload lies
    /// in the frame. `write_prefix` and `write_trailer` are the one place
    /// the request layout is written.
    pub(crate) fn seal(&self, mut body: Body) -> (PacketBytes, Range<usize>) {
        let payload_len = body.len();
        self.write_trailer(body.writer());
        let trailer_len = body.len() - payload_len;
        let frame = body.seal(|w| self.write_prefix(payload_len, w));
        let payload_end = frame.len() - trailer_len;
        (frame, payload_end - payload_len..payload_end)
    }

    fn write_prefix(&self, payload_len: usize, w: &mut Writer) {
        w.put_varint(if self.resend { 0 } else { 2 });
        Wire::encode(&self.req_id, w);
        Wire::encode(&self.reply_to, w);
        Wire::encode(&self.target, w);
        w.put_varint(payload_len as u64);
    }

    fn write_trailer(&self, w: &mut Writer) {
        Wire::encode(&self.trace, w);
        Wire::encode(&self.epoch, w);
        Wire::encode(&self.rs_epoch, w);
        if self.deadline != 0 {
            w.put_varint(self.deadline);
        }
    }
}

/// A quiesced object's portable identity: what the daemon's `migrate_out`
/// verb returns and its `adopt_state` verb consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPayload {
    /// Registered class name (picks the restore constructor on the target).
    pub class: String,
    /// Snapshot bytes from the object's persistence codec.
    pub state: Bytes,
}

wire_struct!(MigrationPayload { class, state });

/// What [`NodeCtx::replica_status_of`](crate::NodeCtx::replica_status_of)
/// returns — the replication role and coherence position of one object,
/// for the replica manager's reconcile loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// True for a replicated primary; false for a read replica.
    pub is_primary: bool,
    /// The primary's current replica-set epoch, or the replica's last
    /// synced epoch.
    pub rs_epoch: u64,
    /// The primary's live replica set, or the replica's primary as the
    /// single entry.
    pub replicas: Vec<ObjRef>,
}

wire_struct!(ReplicaStatus {
    is_primary,
    rs_epoch,
    replicas
});

simnet::counters! {
    note EventKind;
    wire wire_struct;
    /// Machine-wide counters. Atomics, not a mutex: every lane bumps them
    /// on every call and nobody reads them until a `stats` verb asks. A
    /// row that names an event is bumped by that event's one emission
    /// path, `NodeCtx::trace_call`, traced or not, and by nothing else.
    pub(crate) struct SharedStats;
    /// Per-machine runtime counters, returned by
    /// [`NodeCtx::stats_of`](crate::NodeCtx::stats_of). One row per field,
    /// in **wire order** (rows are append-only; the order is protocol).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct NodeStats {
        /// Live (constructed, not yet destroyed) user objects.
        given objects_live;
        /// Requests this machine has served to completion.
        /// Bumped once the handler returns, not by `ServerDispatch`: `stats` never counts itself.
        counter calls_served;
        /// Requests that had to be parked because their target was busy.
        counter calls_deferred = ServerDefer;
        /// Snapshots currently stored on this machine.
        given snapshots_stored;
        /// Outbound requests this machine retransmitted (client role).
        counter calls_retried = ClientRetransmit;
        /// Duplicate requests answered from the dedup window's response cache
        /// (the original executed; only its response had been lost).
        counter dup_replayed = ServerAdmitDone;
        /// Duplicate requests dropped because the original was still being
        /// served (or waiting for its object) when the copy arrived.
        counter dup_suppressed = ServerAdmitInFlight;
        /// Requests answered with a forwarding redirect because their target
        /// object had migrated away from this machine.
        counter calls_forwarded;
        /// Objects this machine adopted through live migration.
        counter migrated_in;
        /// Objects this machine migrated away (forwarding stubs installed).
        counter migrated_out;
        /// Supervisor heartbeats this machine has answered (lease renewals).
        counter heartbeats_served;
        /// Requests rejected with [`RemoteError::Fenced`] — stale-epoch
        /// callers plus calls refused because the serving lease had expired.
        counter calls_fenced;
        /// Read verbs served by replicas hosted on this machine.
        counter replica_reads_served = ReplicaHit;
        /// Requests a replica refused with [`RemoteError::StaleReplica`]
        /// (expired coherence lease or caller ahead of the sync epoch).
        counter replica_reads_stale = ReplicaStale;
        /// Write propagations (`replica_sync`) this machine's primaries pushed.
        /// Not bumped by `ReplicaSync`, which the replica manager's re-syncs also record.
        counter replica_syncs_sent;
        /// Symbolic-name resolutions answered from this node's resolve cache
        /// (no directory round-trip).
        counter dir_cache_hits;
        /// Resolve-cache misses — resolutions that had to fall through to the
        /// control plane (a directory or shard lookup).
        counter dir_cache_misses;
        /// Requests rejected at admission with
        /// [`RemoteError::Overloaded`] — mailbox cap
        /// or machine in-flight budget exceeded (never queued).
        counter calls_shed_overload = ServerShed;
        /// Admitted requests shed at execution time because their queue
        /// sojourn exceeded the CoDel-style target (DESIGN.md §15).
        counter calls_shed_sojourn = ServerSojournDrop;
        /// Requests dropped (at admission or execution) because their
        /// propagated deadline had already expired.
        counter calls_deadline_expired = ServerDeadlineDrop;
        /// Outbound calls failed fast by an open circuit breaker without
        /// touching the network (client role).
        counter breaker_fast_fails = ClientFastFail;
        /// Retransmissions suppressed by an exhausted retry budget (client
        /// role): the retry would have amplified a brownout, so the call
        /// surfaced its timeout instead.
        counter retries_suppressed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::sweep::Case;
    use wire::{from_bytes, to_bytes};

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Request {
                req_id: 42,
                reply_to: 3,
                target: 7,
                payload: Bytes(b"read".to_vec()),
                trace: TraceCtx::default(),
                epoch: 0,
                rs_epoch: 0.into(),
                deadline: 0,
            },
            Frame::Request {
                req_id: 44,
                reply_to: 1,
                target: 9,
                payload: Bytes(b"write".to_vec()),
                trace: TraceCtx {
                    trace_id: 0x1_0000_0001.into(),
                    span: 0x2_0000_0007.into(),
                },
                epoch: 12,
                rs_epoch: 5.into(),
                deadline: 987_654_321_000,
            },
            Frame::SingleShot {
                req_id: 45,
                reply_to: 2,
                target: 9,
                payload: Bytes(b"read".to_vec()),
                trace: TraceCtx::default(),
                epoch: 3,
                rs_epoch: 0.into(),
                deadline: 55,
            },
            Frame::Response {
                req_id: 42,
                result: Ok(Bytes(vec![1, 2, 3])),
            },
            Frame::Response {
                req_id: 43,
                result: Err(RemoteError::NoSuchObject {
                    machine: 1,
                    object: 9,
                }),
            },
        ];
        for f in frames {
            assert_eq!(from_bytes::<Frame>(&to_bytes(&f)).unwrap(), f);
        }
    }

    /// The same request, tagged as one its sender will never retransmit.
    fn single_shot(frame: Frame) -> Frame {
        let Frame::Request {
            req_id,
            reply_to,
            target,
            payload,
            trace,
            epoch,
            rs_epoch,
            deadline,
        } = frame
        else {
            panic!("not a request: {frame:?}");
        };
        Frame::SingleShot {
            req_id,
            reply_to,
            target,
            payload,
            trace,
            epoch,
            rs_epoch,
            deadline,
        }
    }

    /// The two request tags differ in their first byte and nowhere else,
    /// and each decodes back to its own kind.
    #[test]
    fn a_single_shot_request_is_a_request_tagged_two() {
        let request = Frame::Request {
            req_id: 7,
            reply_to: 1,
            target: 3,
            payload: Bytes(b"get".to_vec()),
            trace: TraceCtx::default(),
            epoch: 0,
            rs_epoch: 0.into(),
            deadline: 0,
        };
        let single = single_shot(request.clone());
        let (a, b) = (to_bytes(&request), to_bytes(&single));
        assert_eq!((a[0], b[0]), (0, 2));
        assert_eq!(a[1..], b[1..]);
        assert_eq!(from_bytes::<Frame>(&a).unwrap(), request);
        assert_eq!(from_bytes::<Frame>(&b).unwrap(), single);
    }

    /// The `NodeStats` encoding is protocol: field `i` (in wire order)
    /// set to `i`, pinned against the bytes the hand-written struct and
    /// `wire_struct!` list produced before the table macro replaced them.
    #[test]
    fn node_stats_wire_order_is_pinned() {
        let s = NodeStats {
            objects_live: 0,
            calls_served: 1,
            calls_deferred: 2,
            snapshots_stored: 3,
            calls_retried: 4,
            dup_replayed: 5,
            dup_suppressed: 6,
            calls_forwarded: 7,
            migrated_in: 8,
            migrated_out: 9,
            heartbeats_served: 10,
            calls_fenced: 11,
            replica_reads_served: 12,
            replica_reads_stale: 13,
            replica_syncs_sent: 14,
            dir_cache_hits: 15,
            dir_cache_misses: 16,
            calls_shed_overload: 17,
            calls_shed_sojourn: 18,
            calls_deadline_expired: 19,
            breaker_fast_fails: 20,
            retries_suppressed: 21,
        };
        const GOLDEN: &str = "\
            0000000000000000010000000000000002000000000000000300000000000000\
            0400000000000000050000000000000006000000000000000700000000000000\
            080000000000000009000000000000000a000000000000000b00000000000000\
            0c000000000000000d000000000000000e000000000000000f00000000000000\
            1000000000000000110000000000000012000000000000001300000000000000\
            14000000000000001500000000000000";
        let bytes = to_bytes(&s);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(from_bytes::<NodeStats>(&bytes).unwrap(), s);
    }

    /// `snapshot` puts every counter and both caller-supplied rows in the
    /// field of the same name.
    #[test]
    fn shared_stats_snapshot_fills_every_field_by_name() {
        let stats = SharedStats::new(0);
        stats.calls_served.add(5);
        stats.retries_suppressed.add(9);
        let snap = stats.snapshot(3, 4);
        let want = NodeStats {
            objects_live: 3,
            snapshots_stored: 4,
            calls_served: 5,
            retries_suppressed: 9,
            ..NodeStats::default()
        };
        assert_eq!(snap, want);
    }

    #[test]
    fn migration_payload_roundtrips() {
        let p = MigrationPayload {
            class: "Counter".into(),
            state: Bytes(vec![9; 40]),
        };
        assert_eq!(from_bytes::<MigrationPayload>(&to_bytes(&p)).unwrap(), p);
    }

    #[test]
    fn request_with_large_payload_is_dominated_by_payload() {
        let payload = Bytes(vec![0u8; 10_000]);
        let f = Frame::Request {
            req_id: 1,
            reply_to: 0,
            target: 1,
            payload,
            trace: TraceCtx::default(),
            epoch: 0,
            rs_epoch: 0.into(),
            deadline: 0,
        };
        let encoded = to_bytes(&f);
        assert!(
            encoded.len() < 10_000 + 33,
            "framing overhead too large: {} bytes",
            encoded.len()
        );
    }

    #[test]
    fn untraced_request_pays_two_bytes_for_the_trace_ctx() {
        let mk = |trace| Frame::Request {
            req_id: 1,
            reply_to: 0,
            target: 1,
            payload: Bytes(b"ping".to_vec()),
            trace,
            epoch: 0,
            rs_epoch: 0.into(),
            deadline: 0,
        };
        let untraced = to_bytes(&mk(TraceCtx::default()));
        let traced = to_bytes(&mk(TraceCtx {
            trace_id: (1u64 << 48).into(),
            span: (1u64 << 48).into(),
        }));
        // Zero trace ids are single-byte varints each.
        assert_eq!(untraced.len() + 12, traced.len());
    }

    /// Encode exactly what the pre-deadline `wire_enum!` emitted for a
    /// request: tag + the seven original fields, no trailing deadline.
    fn classic_request_bytes(
        req_id: u64,
        reply_to: usize,
        target: ObjectId,
        payload: &[u8],
        trace: TraceCtx,
        epoch: u64,
        rs_epoch: u64,
    ) -> Vec<u8> {
        let mut w = wire::Writer::new();
        w.put_varint(0);
        req_id.encode(&mut w);
        reply_to.encode(&mut w);
        target.encode(&mut w);
        Bytes(payload.to_vec()).encode(&mut w);
        trace.encode(&mut w);
        epoch.encode(&mut w);
        V64::from(rs_epoch).encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn pre_deadline_frame_decodes_identically() {
        // Wire backward-compat regression: a frame encoded by a pre-PR-9
        // peer (no deadline field) must decode to the same request with
        // deadline = 0, and re-encoding it must reproduce the same bytes.
        let classic = classic_request_bytes(
            42,
            3,
            7,
            b"read",
            TraceCtx {
                trace_id: 0x1_0000_0001.into(),
                span: 0x2_0000_0007.into(),
            },
            12,
            5,
        );
        let decoded = from_bytes::<Frame>(&classic).unwrap();
        assert_eq!(
            decoded,
            Frame::Request {
                req_id: 42,
                reply_to: 3,
                target: 7,
                payload: Bytes(b"read".to_vec()),
                trace: TraceCtx {
                    trace_id: 0x1_0000_0001.into(),
                    span: 0x2_0000_0007.into(),
                },
                epoch: 12,
                rs_epoch: 5.into(),
                deadline: 0,
            }
        );
        // Deadline-free frames stay byte-identical to the classic format.
        assert_eq!(to_bytes(&decoded), classic);
    }

    /// The positional decoder the in-place parser replaced, kept as the
    /// oracle: tag, then every field through `wire`'s generic impls.
    /// Tag `2` is tag `0` retagged.
    fn reference_decode(bytes: &[u8]) -> WireResult<Frame> {
        let r = &mut Reader::new(bytes);
        let frame = match r.take_varint()? {
            tag @ (0 | 2) => {
                let request = Frame::Request {
                    req_id: Wire::decode(r)?,
                    reply_to: Wire::decode(r)?,
                    target: Wire::decode(r)?,
                    payload: Wire::decode(r)?,
                    trace: Wire::decode(r)?,
                    epoch: Wire::decode(r)?,
                    rs_epoch: Wire::decode(r)?,
                    deadline: if r.is_empty() { 0 } else { r.take_varint()? },
                };
                if tag == 0 {
                    request
                } else {
                    single_shot(request)
                }
            }
            1 => Frame::Response {
                req_id: Wire::decode(r)?,
                result: Wire::decode(r)?,
            },
            tag => return Err(WireError::UnknownVariant { ty: "Frame", tag }),
        };
        r.expect_end()?;
        Ok(frame)
    }

    /// A value of any magnitude: small ones take one varint byte, the
    /// rest up to ten.
    fn any_u64(rng: &mut Case) -> u64 {
        rng.next_u64() >> rng.range(0..64)
    }

    fn random_frame(rng: &mut Case) -> Frame {
        let mut bytes = vec![0u8; rng.range(0..200)];
        bytes.fill_with(|| rng.next_u64() as u8);
        if rng.coin(0.5) {
            let request = Frame::Request {
                req_id: any_u64(rng),
                reply_to: any_u64(rng) as usize,
                target: any_u64(rng),
                payload: Bytes(bytes),
                trace: TraceCtx {
                    trace_id: any_u64(rng).into(),
                    span: any_u64(rng).into(),
                },
                epoch: any_u64(rng),
                rs_epoch: any_u64(rng).into(),
                deadline: if rng.coin(0.5) { 0 } else { any_u64(rng) },
            };
            return if rng.coin(0.5) {
                request
            } else {
                single_shot(request)
            };
        }
        let text = || String::from_utf8_lossy(&bytes).into_owned();
        let result = match rng.range(0..5) {
            0 => Err(RemoteError::App { detail: text() }),
            1 => Err(RemoteError::NoSuchMethod {
                class: text(),
                method: "m".into(),
            }),
            2 => Err(RemoteError::StaleReplica {
                primary: ObjRef {
                    machine: any_u64(rng) as usize,
                    object: any_u64(rng),
                },
                rs_epoch: any_u64(rng),
            }),
            _ => Ok(Bytes(bytes)),
        };
        Frame::Response {
            req_id: any_u64(rng),
            result,
        }
    }

    #[test]
    fn in_place_parser_agrees_with_the_positional_decoder_on_random_frames() {
        let rng = &mut Case::new(0x14_F4A3);
        let (mut requests, mut single, mut with_deadline, mut errors) = (0, 0, 0, 0);
        for _ in 0..1_000 {
            let frame = random_frame(rng);
            single += matches!(frame, Frame::SingleShot { .. }) as u32;
            match &frame {
                Frame::Request { deadline, .. } | Frame::SingleShot { deadline, .. } => {
                    requests += 1;
                    with_deadline += (*deadline != 0) as u32;
                }
                Frame::Response { result, .. } => errors += result.is_err() as u32,
            }
            let bytes = to_bytes(&frame);
            // `from_bytes::<Frame>` is the in-place parser plus a copy of
            // the ranges it reports.
            assert_eq!(from_bytes::<Frame>(&bytes).unwrap(), frame);
            assert_eq!(reference_decode(&bytes).unwrap(), frame);
        }
        // Both kinds, both request tags, deadlines present and absent, and
        // `Err` results all came up often enough to mean something.
        assert!((300..700).contains(&requests), "{requests} requests");
        assert!(
            single > 100 && single + 100 < requests,
            "{single} single-shot"
        );
        assert!(with_deadline > 100 && with_deadline + 100 < requests);
        assert!(errors > 100, "{errors} error responses");
    }

    /// A node never builds a `Frame`: it finishes requests and responses in
    /// the buffer their body was encoded into. Both ways of writing a frame
    /// go through the same prefix and trailer, and must agree byte for byte
    /// — with a fresh buffer or a reused one, whatever it held before.
    #[test]
    fn frames_sealed_around_their_body_are_the_frames_the_codec_encodes() {
        let rng = &mut Case::new(0x16_5EA1);
        let mut spare = None;
        for _ in 0..1_000 {
            let frame = random_frame(rng);
            let reference = to_bytes(&frame);
            let body_of = |payload: &Bytes, spare: Option<Spare>| {
                let mut body = Body::reusing(spare);
                assert_eq!(body.len(), 0);
                body.writer().put_bytes(&payload.0);
                assert_eq!(body.len(), payload.0.len());
                body
            };
            let sealed = match &frame {
                Frame::Request {
                    req_id,
                    reply_to,
                    target,
                    payload,
                    trace,
                    epoch,
                    rs_epoch,
                    deadline,
                }
                | Frame::SingleShot {
                    req_id,
                    reply_to,
                    target,
                    payload,
                    trace,
                    epoch,
                    rs_epoch,
                    deadline,
                } => {
                    let header = RequestHeader {
                        req_id: *req_id,
                        reply_to: *reply_to,
                        target: *target,
                        trace: *trace,
                        epoch: *epoch,
                        rs_epoch: *rs_epoch,
                        deadline: *deadline,
                        resend: matches!(frame, Frame::Request { .. }),
                    };
                    let (sealed, at) = header.seal(body_of(payload, std::mem::take(&mut spare)));
                    assert_eq!(sealed[at], payload.0[..]);
                    sealed
                }
                Frame::Response { req_id, result } => {
                    let payload_len = result.as_ref().map_or(0, |payload| payload.0.len());
                    let result = result
                        .clone()
                        .map(|payload| body_of(&payload, std::mem::take(&mut spare)));
                    let (sealed, weight) = encode_response(*req_id, result);
                    assert_eq!(weight, payload_len);
                    sealed
                }
            };
            assert_eq!(sealed, reference);
            // The next frame is built in this one's allocations.
            spare = sealed.into_spare().ok();
            assert!(spare.is_some(), "the sealed frame has no other holder");
        }
        assert_eq!(Body::of(&(7u32, "x".to_string())).len(), 4 + 2);
    }

    /// A reply encoded from a borrow of the object's state is the reply its
    /// owned copy would have made: the same frame, in a buffer sized alike.
    #[test]
    fn a_body_of_a_borrow_is_the_body_of_the_owned_value() {
        use wire::collections::F64s;
        let doubles: Vec<f64> = (0..40_000).map(|i| i as f64 * -0.5).collect();
        let bytes: Vec<u8> = (0..70_000).map(|i| i as u8).collect();
        let sealed = |body: Body| encode_response(5, Ok(body));
        let (owned, weight) = sealed(Body::of(&F64s(doubles.clone())));
        let (borrowed, same) = sealed(Body::of_as::<F64s, _>(&doubles.as_slice()));
        assert_eq!((&borrowed, same), (&owned, weight));
        let room = |frame: PacketBytes| frame.into_spare().unwrap().capacity();
        assert_eq!(room(borrowed), room(owned));
        let (owned, _) = sealed(Body::of(&Bytes(bytes.clone())));
        let (borrowed, _) = sealed(Body::of_as::<Bytes, _>(&bytes.as_slice()));
        assert_eq!(borrowed, owned);
    }

    /// A request carrying `block` as its last argument, and the bytes of it
    /// an object would keep with `request_bytes`.
    fn put_request(header: &RequestHeader, block: &Bytes) -> (PacketBytes, PacketBytes) {
        let mut body = Body::reusing(None);
        body.writer().put_len_prefixed(b"put");
        7u64.encode(body.writer());
        block.encode(body.writer());
        let (frame, payload) = header.seal(body);
        let kept = payload.end - to_bytes(block).len()..payload.end;
        let kept = frame.slice(kept).expect("inside the frame");
        (frame, kept)
    }

    /// `Body::relaying` builds the frame around bytes kept from a request:
    /// where they arrived once everyone else has let go of the request, in
    /// a buffer of their own while someone still holds it or when nothing
    /// in front of them could take the prefix. Whichever way, the frame is
    /// the one `Body::of` the same value makes — a response or a request.
    #[test]
    fn a_relayed_body_stays_where_it_arrived_or_is_copied_and_seals_alike() {
        let rng = &mut Case::new(0x21_4E1A);
        let mut block = Bytes(vec![0u8; 5_000]);
        block.0.fill_with(|| rng.next_u64() as u8);
        let header = RequestHeader {
            req_id: 9,
            reply_to: 300,
            target: 4,
            trace: TraceCtx::default(),
            epoch: 2,
            rs_epoch: 0.into(),
            deadline: 77,
            resend: false,
        };
        let (reference, _) = encode_response(12, Ok(Body::of(&block)));
        // Where the payload of a sealed frame lies in memory.
        let payload_at = |frame: &PacketBytes| match FrameView::parse(frame).unwrap() {
            FrameView::Response { result, .. } => frame[result.unwrap()].as_ptr(),
            FrameView::Request { payload, .. } => frame[payload].as_ptr(),
        };

        // The last holder: the reply is the request's buffer.
        let (request, kept) = put_request(&header, &block);
        let arrived_at = kept.as_ptr();
        drop(request);
        let (in_place, weight) = encode_response(12, Ok(Body::relaying(kept)));
        assert_eq!(in_place, reference);
        assert_eq!(weight, to_bytes(&block).len());
        assert_eq!(payload_at(&in_place), arrived_at);

        // A second holder (the serve loop mid-dispatch, a sender yet to
        // retire the call): copied, and the holder's bytes are untouched.
        let (request, kept) = put_request(&header, &block);
        let before = request.to_vec();
        let (copied, _) = encode_response(12, Ok(Body::relaying(kept)));
        assert_eq!(copied, reference);
        assert!(!copied.shares_buffer_with(&request));
        assert_eq!(request, before);

        // Alone, but with less than a prefix in front: copied.
        let tight = PacketBytes::from(to_bytes(&block));
        let arrived_at = tight.as_ptr();
        let (copied, _) = encode_response(12, Ok(Body::relaying(tight)));
        assert_eq!(copied, reference);
        assert_ne!(payload_at(&copied), arrived_at);

        // As a request body, both arms.
        let (request, kept) = put_request(&header, &block);
        let reference = header.seal(Body::copying(&kept)).0;
        assert_eq!(header.seal(Body::relaying(kept.clone())).0, reference);
        let arrived_at = kept.as_ptr();
        drop(request);
        let (in_place, payload) = header.seal(Body::relaying(kept));
        assert_eq!(in_place, reference);
        assert_eq!(in_place[payload].as_ptr(), arrived_at);
        assert_eq!(payload_at(&in_place), arrived_at);
    }

    /// ROADMAP 4d for `Frame`: whatever bytes arrive, parsing returns —
    /// the frame the positional decoder would have produced, or its typed
    /// error — and never reports a range outside the buffer (copying such a
    /// range out, as `from_bytes::<Frame>` does, would panic).
    #[test]
    fn junk_truncated_and_trailing_buffers_are_typed_errors_never_panics() {
        let rng = &mut Case::new(0x14_D00D);
        let mut rejected = 0;
        for i in 0..10_000 {
            let frame = random_frame(rng);
            let mut buf = to_bytes(&frame);
            let must_fail = match i % 4 {
                // Cut anywhere short of the end. (A request cut exactly
                // before its trailing deadline is still a frame — the
                // deadline-free one — so leave "may parse" to the oracle.)
                0 => {
                    buf.truncate(rng.range(0..buf.len()));
                    false
                }
                // A whole frame, then garbage — which only a request without
                // a deadline could take for one.
                1 => {
                    let extra = rng.range(1..9);
                    buf.extend((0..extra).map(|_| rng.next_u64() as u8));
                    !matches!(
                        frame,
                        Frame::Request { deadline: 0, .. } | Frame::SingleShot { deadline: 0, .. }
                    )
                }
                // A frame with a few bytes flipped.
                2 => {
                    for _ in 0..rng.range(1..4) {
                        let at = rng.range(0..buf.len());
                        buf[at] = rng.next_u64() as u8;
                    }
                    false
                }
                // Noise, biased toward the three valid tags and one past
                // them.
                _ => {
                    buf.truncate(rng.range(0..64).min(buf.len()));
                    buf.fill_with(|| rng.next_u64() as u8);
                    if let Some(tag) = buf.first_mut() {
                        *tag %= 4;
                    }
                    false
                }
            };
            let parsed = from_bytes::<Frame>(&buf);
            assert_eq!(parsed, reference_decode(&buf), "buffer {buf:02x?}");
            assert!(!(must_fail && parsed.is_ok()), "accepted {buf:02x?}");
            rejected += parsed.is_err() as u32;
        }
        assert!(rejected > 5_000, "only {rejected} of 10 000 rejected");
    }

    mod frame_props {
        use super::*;

        /// Requests with and without a deadline, under either request tag,
        /// round-trip, and the deadline-absent encoding is byte-identical to
        /// the classic (pre-PR-9) wire format.
        #[test]
        fn request_roundtrips_with_and_without_deadline() {
            simnet::sweep::cases(
                "frame_props::request_roundtrips_with_and_without_deadline",
                64,
                |c| {
                    let (req_id, reply_to, target) =
                        (c.next_u64(), c.range(0usize..1024), c.next_u64());
                    let payload = c.bytes(0..64);
                    let (epoch, rs_epoch, deadline) = (c.next_u64(), c.next_u64(), c.next_u64());
                    let mk = |deadline| Frame::Request {
                        req_id,
                        reply_to,
                        target,
                        payload: Bytes(payload.clone()),
                        trace: TraceCtx::default(),
                        epoch,
                        rs_epoch: rs_epoch.into(),
                        deadline,
                    };
                    for f in [mk(0), mk(deadline), single_shot(mk(deadline))] {
                        assert_eq!(from_bytes::<Frame>(&to_bytes(&f)).unwrap(), f);
                    }
                    let classic = classic_request_bytes(
                        req_id,
                        reply_to,
                        target,
                        &payload,
                        TraceCtx::default(),
                        epoch,
                        rs_epoch,
                    );
                    assert_eq!(to_bytes(&mk(0)), classic);
                    assert_eq!(from_bytes::<Frame>(&classic).unwrap(), mk(0));
                },
            );
        }
    }
}
