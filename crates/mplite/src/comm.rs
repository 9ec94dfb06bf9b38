//! Per-rank communicator: tagged, matched point-to-point messaging.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use simnet::time::{after, nanos};
use simnet::{ActorSeat, Network, Packet, SimDisk};
use wire::{Reader, Wire, Writer};

/// Errors from message-passing operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MpError {
    /// No matching message within the receive window — in an SPMD program
    /// this almost always means a rank mismatch (deadlock).
    Timeout { src: usize, tag: u64, millis: u64 },
    /// The destination rank does not exist or has exited.
    Unreachable(usize),
    /// Payload failed to decode as the expected type.
    Decode(String),
}

impl std::fmt::Display for MpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpError::Timeout { src, tag, millis } => {
                write!(f, "recv(src={src}, tag={tag}) timed out after {millis} ms")
            }
            MpError::Unreachable(r) => write!(f, "rank {r} unreachable"),
            MpError::Decode(d) => write!(f, "decode failed: {d}"),
        }
    }
}

impl std::error::Error for MpError {}

/// Result alias for message-passing operations.
pub type MpResult<T> = Result<T, MpError>;

/// Default receive window before [`MpError::Timeout`].
pub const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// One rank's endpoint: identity, network handle, and the unexpected-message
/// queue that implements (src, tag) matching. A `Comm` holds a seat among
/// the cluster clock's actors from construction to drop: every wait of a
/// rank is a park in that clock, so on virtual time a world's run is exact
/// and replayable.
pub struct Comm {
    /// First, so it is given up before anything else of the rank goes —
    /// also on unwind: a rank that panicked must not hold virtual time
    /// still for the ranks that are waiting on it.
    _seat: ActorSeat,
    rank: usize,
    size: usize,
    net: Network,
    inbox: Receiver<Packet>,
    disks: Vec<Arc<SimDisk>>,
    unexpected: VecDeque<(usize, u64, Vec<u8>)>,
    /// Per-collective sequence number; keeps rounds of different
    /// collectives from matching each other's messages.
    pub(crate) coll_seq: u64,
    timeout: Duration,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        net: Network,
        inbox: Receiver<Packet>,
        disks: Vec<Arc<SimDisk>>,
    ) -> Self {
        Comm {
            _seat: net.clock().seat(),
            rank,
            size,
            net,
            inbox,
            disks,
            unexpected: VecDeque::new(),
            coll_seq: 0,
            timeout: RECV_TIMEOUT,
        }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The disks attached to this rank's machine.
    pub fn disks(&self) -> &[Arc<SimDisk>] {
        &self.disks
    }

    /// One local disk.
    pub fn disk(&self, i: usize) -> Arc<SimDisk> {
        self.disks[i].clone()
    }

    /// The cluster clock's reading, in nanoseconds: what a rank times its
    /// own phases with (modeled time on a virtual-time world).
    pub fn now_nanos(&self) -> u64 {
        self.net.clock().now_nanos()
    }

    /// Change the receive window (tests of failure paths use short ones).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Non-blocking tagged send. Like `MPI_Send` on an eager transport: the
    /// payload is in flight when this returns.
    pub fn send(&mut self, dst: usize, tag: u64, payload: &[u8]) -> MpResult<()> {
        let mut w = Writer::with_capacity(payload.len() + 12);
        w.put_varint(tag);
        w.put_bytes(payload);
        self.net
            .send(self.rank, dst, w.into_bytes())
            .map_err(|_| MpError::Unreachable(dst))
    }

    /// Send a wire-encodable value.
    pub fn send_val<T: Wire>(&mut self, dst: usize, tag: u64, value: &T) -> MpResult<()> {
        self.send(dst, tag, &wire::to_bytes(value))
    }

    /// Blocking receive matching `(src, tag)` exactly. Non-matching arrivals
    /// are queued for later receives (MPI's unexpected-message queue).
    pub fn recv(&mut self, src: usize, tag: u64) -> MpResult<Vec<u8>> {
        // Check the unexpected queue first.
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|(s, t, _)| *s == src && *t == tag)
        {
            return Ok(self.unexpected.remove(pos).expect("position just found").2);
        }
        let clock = self.net.clock();
        let deadline = after(clock.now_nanos(), self.timeout);
        loop {
            let pkt = clock
                .recv_until(&self.inbox, self.rank as u64, Some(deadline))
                .map_err(|_| MpError::Timeout {
                    src,
                    tag,
                    millis: nanos(self.timeout) / 1_000_000,
                })?;
            let mut r = Reader::new(&pkt.payload);
            let got_tag = r
                .take_varint()
                .map_err(|e| MpError::Decode(e.to_string()))?;
            let body = pkt.payload[r.position()..].to_vec();
            if pkt.src == src && got_tag == tag {
                return Ok(body);
            }
            self.unexpected.push_back((pkt.src, got_tag, body));
        }
    }

    /// Receive a wire-encodable value.
    pub fn recv_val<T: Wire>(&mut self, src: usize, tag: u64) -> MpResult<T> {
        let bytes = self.recv(src, tag)?;
        wire::from_bytes(&bytes).map_err(|e| MpError::Decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use crate::world::MpiWorld;
    use simnet::ClusterConfig;
    use std::time::Duration;

    #[test]
    fn ping_pong() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(2));
        let (results, _) = world.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"ping").unwrap();
                comm.recv(1, 8).unwrap()
            } else {
                let got = comm.recv(0, 7).unwrap();
                assert_eq!(got, b"ping");
                comm.send(0, 8, b"pong").unwrap();
                got
            }
        });
        assert_eq!(results[0], b"pong");
        assert_eq!(results[1], b"ping");
    }

    #[test]
    fn tag_matching_reorders_messages() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(2));
        let (results, _) = world.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"first-sent").unwrap();
                comm.send(1, 2, b"second-sent").unwrap();
                Vec::new()
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv(0, 2).unwrap();
                let a = comm.recv(0, 1).unwrap();
                vec![a, b]
            }
        });
        assert_eq!(
            results[1],
            vec![b"first-sent".to_vec(), b"second-sent".to_vec()]
        );
    }

    #[test]
    fn typed_values_roundtrip() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(2));
        let (results, _) = world.run(|comm| {
            if comm.rank() == 0 {
                comm.send_val(1, 3, &(42u64, "hello".to_string())).unwrap();
                0
            } else {
                let (n, s): (u64, String) = comm.recv_val(0, 3).unwrap();
                assert_eq!(s, "hello");
                n
            }
        });
        assert_eq!(results[1], 42);
    }

    #[test]
    fn recv_timeout_reports_cleanly() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(1));
        let (results, _) = world.run(|comm| {
            comm.set_timeout(Duration::from_millis(50));
            comm.recv(0, 99).unwrap_err()
        });
        assert!(matches!(
            results[0],
            crate::MpError::Timeout { tag: 99, .. }
        ));
    }

    #[test]
    fn on_virtual_time_a_round_trip_costs_two_latencies_and_a_silent_peer_the_timeout() {
        let world = MpiWorld::new(ClusterConfig::lan(2, 50, f64::INFINITY).with_virtual_time(9));
        let (results, _) = world.run(|comm| {
            let t0 = comm.now_nanos();
            if comm.rank() == 0 {
                comm.send(1, 7, b"ping").unwrap();
                comm.recv(1, 8).unwrap();
            } else {
                comm.recv(0, 7).unwrap();
                comm.send(0, 8, b"pong").unwrap();
            }
            let round_trip = comm.now_nanos() - t0;
            // Nobody sends tag 99: the wait ends at the window, to the
            // nanosecond, without a wall-clock second passing.
            let t1 = comm.now_nanos();
            comm.set_timeout(Duration::from_secs(3600));
            let err = comm.recv(1 - comm.rank(), 99).unwrap_err();
            assert!(matches!(err, crate::MpError::Timeout { tag: 99, .. }));
            (round_trip, comm.now_nanos() - t1)
        });
        // Rank 1's stopwatch stops at its send, one latency in.
        assert_eq!(results[0], (100_000, 3_600_000_000_000));
        assert_eq!(results[1], (50_000, 3_600_000_000_000));
    }

    #[test]
    fn metrics_count_messages() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(2));
        let (_, metrics) = world.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 100]).unwrap();
            } else {
                comm.recv(0, 1).unwrap();
            }
        });
        assert_eq!(metrics.messages_sent, 1);
        assert!(metrics.bytes_sent >= 100);
    }
}
