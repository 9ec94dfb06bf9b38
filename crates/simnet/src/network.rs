//! The message-switched network.
//!
//! Send semantics: `send` stamps the packet with the current instant,
//! charges nothing to the *sender* beyond the channel push, and hands the
//! packet to the destination machine's link, which models the receive
//! side:
//!
//! * each packet becomes visible no earlier than `sent_at + latency`
//!   (latency overlaps across concurrent packets — this is what makes the
//!   paper's §4 split-loop transformation pay off), and
//! * transfer time `bytes / bandwidth` **serializes per receiver** — a
//!   machine drinking pages from many devices is limited by its own link,
//!   which is what saturates E3's speedup curve at high fan-in.
//!
//! That rule is written once (`link_delivery`) and a fabric is one of two
//! routes, fixed when it is built:
//!
//! * **virtual time** — a delivery is a clock event: no threads, no
//!   wall-clock sleeping, and every modeled delay (a costed link, a load
//!   spike) is exact and deterministic;
//! * **real time** — `send` pushes straight into the destination inbox,
//!   channel-fast. There is nowhere to apply a delay, so a fabric with one
//!   to apply is refused when it is built: modeled time is the virtual
//!   clock's to keep.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::clock::Clock;
use crate::config::NetCost;
use crate::faults::{FaultInjector, FaultState, Verdict};
use crate::message::{MachineId, Packet, PacketBytes};
use crate::metrics::Metrics;
use crate::time::{after, transfer_time};
use crate::topology;

/// Error returned by [`Network::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination machine id does not exist in this cluster.
    NoSuchMachine(MachineId),
    /// The destination's inbox has been dropped (machine shut down).
    Disconnected(MachineId),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchMachine(m) => write!(f, "no such machine: {m}"),
            NetError::Disconnected(m) => write!(f, "machine {m} is shut down"),
        }
    }
}

impl std::error::Error for NetError {}

enum Route {
    /// Real-time path: packets go straight to the machine inbox.
    Direct(Sender<Packet>),
    /// Virtual-time path: delivery becomes a clock event; the clock owns
    /// the inbox sender and pushes the packet when the event fires.
    Sim,
}

/// Handle for sending packets between machines. Cloneable and shareable;
/// all clones refer to the same simulated fabric.
#[derive(Clone)]
pub struct Network {
    routes: Arc<Vec<Route>>,
    /// What a message between two distinct machines pays; loopback is
    /// free.
    link: NetCost,
    metrics: Arc<Metrics>,
    faults: Arc<FaultState>,
    clock: Clock,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("machines", &self.routes.len())
            .finish()
    }
}

impl Network {
    /// Build the fabric for `machines` endpoints. Returns the network handle
    /// and one inbox receiver per machine.
    ///
    /// # Panics
    /// On a real clock, if the link has a cost: a real-time fabric delivers
    /// directly and would not charge it.
    pub(crate) fn build(
        machines: usize,
        link: NetCost,
        metrics: Arc<Metrics>,
        faults: Arc<FaultState>,
        clock: Clock,
    ) -> (Network, Vec<Receiver<Packet>>) {
        assert!(
            clock.is_virtual() || link.is_zero(),
            "a real-time fabric delivers directly and cannot charge a costed link; modeled \
             delays are charged on the virtual clock: build the cluster on virtual time \
             (`ClusterConfig::with_virtual_time`)"
        );
        let mut routes = Vec::with_capacity(machines);
        let mut inboxes = Vec::with_capacity(machines);
        let mut sim_txs = Vec::with_capacity(machines);
        for _ in 0..machines {
            let (inbox_tx, inbox_rx) = unbounded::<Packet>();
            inboxes.push(inbox_rx);
            if clock.is_virtual() {
                // Link delays become clock events: the clock owns the inbox.
                sim_txs.push(inbox_tx);
                routes.push(Route::Sim);
            } else {
                routes.push(Route::Direct(inbox_tx));
            }
        }
        if clock.is_virtual() {
            clock.install_network(sim_txs, metrics.clone());
        }
        (
            Network {
                routes: Arc::new(routes),
                link,
                metrics,
                faults,
                clock,
            },
            inboxes,
        )
    }

    /// The time source this fabric charges delays on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Number of machine endpoints.
    pub fn machines(&self) -> usize {
        self.routes.len()
    }

    /// Shared metrics for this cluster.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Runtime handle for scripting partitions and machine crashes.
    pub fn fault_injector(&self) -> FaultInjector {
        FaultInjector::new(self.faults.clone(), self.clock.is_virtual())
    }

    /// Send `payload` from `src` to `dst`. Returns immediately; the packet
    /// arrives in `dst`'s inbox after the modeled link delay. A `Vec<u8>`
    /// becomes the packet's buffer without a copy; a [`PacketBytes`] — a
    /// frame the sender keeps for retransmission, a payload being echoed —
    /// travels by reference count, as does the second copy when the fault
    /// layer duplicates.
    ///
    /// Packets removed by the fault layer (seeded drops, partitions,
    /// crashed machines) are counted in [`Metrics`] but do **not** error:
    /// a lossy link gives the sender no failure signal. `Err` is reserved
    /// for structural problems — an unknown machine id, or a destination
    /// whose inbox is gone.
    pub fn send(
        &self,
        src: MachineId,
        dst: MachineId,
        payload: impl Into<PacketBytes>,
    ) -> Result<(), NetError> {
        let payload = payload.into();
        let route = self.routes.get(dst).ok_or(NetError::NoSuchMachine(dst))?;
        let m = &self.metrics;
        m.per_machine_sent.add(src, 1);
        m.per_machine_bytes_sent.add(src, payload.len() as u64);
        let (copies, extra_delay) = match self.faults.verdict(src, dst) {
            Verdict::Deliver {
                copies,
                extra_delay,
            } => {
                // Loopback never traverses the fabric, so it dodges the
                // spike (matching the verdict's delay exemption).
                if src != dst && self.faults.is_spiked(dst) {
                    m.spike_delayed.bump();
                }
                (copies, extra_delay)
            }
            Verdict::DropRandom => {
                m.faults_dropped.bump();
                return Ok(());
            }
            Verdict::DropPartitioned => {
                m.partition_dropped.bump();
                return Ok(());
            }
            Verdict::DropCrashed => {
                m.crash_dropped.bump();
                return Ok(());
            }
        };
        let packet = Packet::new(src, dst, payload);
        if copies == 2 {
            m.faults_duplicated.bump();
            self.deliver(route, packet.clone(), extra_delay)?;
        }
        self.deliver(route, packet, extra_delay)
    }

    fn deliver(
        &self,
        route: &Route,
        packet: Packet,
        extra_delay: Duration,
    ) -> Result<(), NetError> {
        let (src, dst) = (packet.src, packet.dst);
        match route {
            Route::Direct(tx) => {
                // Nowhere to apply a delay, and none to apply: `build`
                // refused a cost, `spike` is refused.
                let delivered = hand_over(tx, packet, &self.metrics);
                delivered.then_some(()).ok_or(NetError::Disconnected(dst))
            }
            Route::Sim => {
                let mut cost = topology::cost(self.link, src, dst);
                cost.latency = cost.latency.saturating_add(extra_delay);
                // A dead inbox is only discoverable when the event fires:
                // it is counted then, not surfaced here.
                self.clock.schedule_delivery(packet, &cost);
                Ok(())
            }
        }
    }
}

/// The link model: a packet of `bytes` sent at `sent` arrives after the
/// link's latency, then queues FIFO behind the link's last delivery
/// (`link_free`, which it advances) for its transfer time. Returns when it
/// is delivered. All times are clock nanos, saturating at "never".
pub(crate) fn link_delivery(
    sent: u64,
    bytes: usize,
    cost: &NetCost,
    link_free: &mut Option<u64>,
) -> u64 {
    let arrival = after(sent, cost.latency);
    let start = arrival.max(link_free.unwrap_or(0));
    let mut done = after(start, transfer_time(bytes, cost.bytes_per_sec));
    if let Some(prior) = *link_free {
        // Keep per-destination delivery strictly in send order: a link is
        // FIFO even at zero cost.
        done = done.max(prior.saturating_add(1));
    }
    *link_free = Some(done);
    done
}

/// Put a packet into its machine's inbox — at once on the real-time route,
/// once its link delay has elapsed on the virtual one — and count it:
/// delivered, or lost because the machine shut down meanwhile.
pub(crate) fn hand_over(inbox: &Sender<Packet>, packet: Packet, metrics: &Metrics) -> bool {
    let (dst, bytes) = (packet.dst, packet.len());
    let delivered = inbox.send(packet).is_ok();
    if delivered {
        metrics.per_machine_received.add(dst, 1);
        metrics.per_machine_bytes_received.add(dst, bytes as u64);
    } else {
        metrics.deliveries_dropped.bump();
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use crate::faults::FaultPlan;

    fn net(machines: usize, link: NetCost) -> (Network, Vec<Receiver<Packet>>) {
        net_faulty(machines, link, FaultPlan::none())
    }

    fn net_faulty(
        machines: usize,
        link: NetCost,
        plan: FaultPlan,
    ) -> (Network, Vec<Receiver<Packet>>) {
        Network::build(
            machines,
            link,
            Arc::new(Metrics::new(machines)),
            Arc::new(FaultState::new(plan, machines)),
            Clock::real(),
        )
    }

    fn net_virtual(machines: usize, link: NetCost, seed: u64) -> (Network, Vec<Receiver<Packet>>) {
        Network::build(
            machines,
            link,
            Arc::new(Metrics::new(machines)),
            Arc::new(FaultState::new(FaultPlan::none(), machines)),
            Clock::virtual_time(seed),
        )
    }

    #[test]
    fn zero_cost_delivery_is_direct_and_ordered() {
        let (net, inboxes) = net(2, NetCost::zero());
        for i in 0..10u8 {
            net.send(0, 1, vec![i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(inboxes[1].recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn unknown_destination_errors() {
        let (net, _inboxes) = net(2, NetCost::zero());
        assert_eq!(net.send(0, 9, vec![]), Err(NetError::NoSuchMachine(9)));
    }

    #[test]
    fn dropped_inbox_is_disconnected() {
        let (net, inboxes) = net(2, NetCost::zero());
        drop(inboxes);
        assert_eq!(net.send(0, 1, vec![1]), Err(NetError::Disconnected(1)));
    }

    fn lan(latency: Duration, bytes_per_sec: f64) -> NetCost {
        NetCost {
            latency,
            bytes_per_sec,
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let (net, inboxes) = net_virtual(2, lan(Duration::from_millis(3), f64::INFINITY), 7);
        // No registered actors: the send itself runs the event loop.
        net.send(0, 1, vec![42]).unwrap();
        assert_eq!(inboxes[1].try_recv().unwrap().payload, vec![42]);
        assert_eq!(net.clock().now_nanos(), 3_000_000);
    }

    #[test]
    fn latency_overlaps_across_concurrent_sends() {
        // 10 packets sent back-to-back each pay 3ms latency, but the
        // latencies overlap: the last lands at ~3ms, nowhere near 30ms.
        // The sender is a registered actor, so no delivery fires until it
        // parks in its first receive.
        let (net, inboxes) = net_virtual(2, lan(Duration::from_millis(3), f64::INFINITY), 7);
        let clock = net.clock();
        let seat = clock.seat();
        for i in 0..10u8 {
            net.send(0, 1, vec![i]).unwrap();
        }
        for _ in 0..10 {
            clock.recv(&inboxes[1], 1).unwrap();
        }
        drop(seat);
        // All ten arrive at 3ms; the FIFO link lands them 1ns apart.
        assert_eq!(clock.now_nanos(), 3_000_000 + 9);
    }

    #[test]
    fn bandwidth_serializes_per_receiver() {
        // 1 MB/s link, 4 packets of 2 KB from a registered sender: their
        // 1ms latencies overlap, their 2ms transfers queue on the
        // receiver's link.
        let (net, inboxes) = net_virtual(2, lan(Duration::from_millis(1), 1e6), 7);
        let clock = net.clock();
        let _seat = clock.seat();
        for _ in 0..4 {
            net.send(0, 1, vec![0u8; 2000]).unwrap();
        }
        for k in 1..=4 {
            clock.recv(&inboxes[1], 1).unwrap();
            assert_eq!(clock.now_nanos(), 1_000_000 + k * 2_000_000);
        }
    }

    #[test]
    fn loopback_is_free_even_on_costed_network() {
        let (net, inboxes) = net_virtual(2, lan(Duration::from_secs(60), 1.0), 7);
        net.send(1, 1, vec![0u8; 1000]).unwrap();
        inboxes[1].try_recv().unwrap();
        assert_eq!(net.clock().now_nanos(), 0, "loopback paid link cost");
        // The same bytes over the link: 60s of latency, 1000s of transfer.
        net.send(0, 1, vec![0u8; 1000]).unwrap();
        assert_eq!(net.clock().now_nanos(), 1_060_000_000_000);
    }

    #[test]
    fn metrics_count_sends_and_deliveries() {
        let (net, inboxes) = net(3, NetCost::zero());
        net.send(0, 1, vec![0u8; 5]).unwrap();
        net.send(2, 1, vec![0u8; 7]).unwrap();
        inboxes[1].recv().unwrap();
        inboxes[1].recv().unwrap();
        let s = net.metrics().snapshot();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.bytes_sent, 12);
        assert_eq!(s.per_machine_sent, vec![1, 0, 1]);
        assert_eq!(s.per_machine_received, vec![0, 2, 0]);
        assert_eq!(s.per_machine_bytes_received, vec![0, 12, 0]);
    }

    #[test]
    fn fault_drops_show_up_as_received_byte_asymmetry() {
        // Machine 1 sits behind a lossy link: bytes_sent counts everything,
        // but its per_machine_bytes_received only counts what survived.
        let (net, inboxes) = net_faulty(2, NetCost::zero(), FaultPlan::seeded(3).with_drop(0.5));
        for _ in 0..40 {
            net.send(0, 1, vec![0u8; 10]).unwrap();
        }
        let s = net.metrics().snapshot();
        assert!(s.faults_dropped > 0);
        assert_eq!(s.bytes_sent, 400);
        assert_eq!(
            s.per_machine_bytes_received[1],
            400 - 10 * s.faults_dropped,
            "delivered bytes must equal sent bytes minus dropped frames"
        );
        drop(inboxes);
    }

    #[test]
    fn machines_reports_endpoint_count() {
        let (net, _rx) = net(5, NetCost::zero());
        assert_eq!(net.machines(), 5);
        assert_eq!(net.clone().machines(), 5);
    }

    #[test]
    fn nic_counts_deliveries_to_a_dead_inbox() {
        // The destination's inbox is gone before the packet lands: the
        // sender is told nothing, the delivery is counted as dropped when
        // its event fires.
        let (net, mut inboxes) = net_virtual(2, lan(Duration::from_millis(1), f64::INFINITY), 7);
        drop(inboxes.remove(1));
        net.send(0, 1, vec![1, 2, 3]).unwrap();
        assert_eq!(net.clock().now_nanos(), 1_000_000);
        let s = net.metrics().snapshot();
        assert_eq!(s.deliveries_dropped, 1);
        assert_eq!(s.per_machine_received, vec![0, 0]);
    }

    #[test]
    fn a_real_time_send_to_a_dead_inbox_is_counted_dropped_not_received() {
        let (net, mut inboxes) = net(2, NetCost::zero());
        drop(inboxes.remove(1));
        assert_eq!(
            net.send(0, 1, vec![1, 2, 3]),
            Err(NetError::Disconnected(1))
        );
        let s = net.metrics().snapshot();
        assert_eq!(s.deliveries_dropped, 1);
        assert_eq!(s.per_machine_received, vec![0, 0]);
        assert_eq!(s.per_machine_bytes_received, vec![0, 0]);
    }

    #[test]
    fn plan_drops_are_counted_and_silent() {
        let (net, inboxes) = net_faulty(2, NetCost::zero(), FaultPlan::seeded(11).with_drop(0.5));
        for i in 0..100u8 {
            net.send(0, 1, vec![i]).unwrap(); // loss never errors the sender
        }
        let s = net.metrics().snapshot();
        assert!(
            s.faults_dropped > 10,
            "expected drops, got {}",
            s.faults_dropped
        );
        assert_eq!(s.messages_sent, 100);
        let mut delivered = 0;
        while inboxes[1].try_recv().is_ok() {
            delivered += 1;
        }
        assert_eq!(delivered as u64 + s.faults_dropped, 100);
    }

    #[test]
    fn plan_duplicates_deliver_twice() {
        let (net, inboxes) = net_faulty(2, NetCost::zero(), FaultPlan::seeded(5).with_dup(1.0));
        net.send(0, 1, vec![9]).unwrap();
        assert_eq!(inboxes[1].recv().unwrap().payload, vec![9]);
        assert_eq!(inboxes[1].recv().unwrap().payload, vec![9]);
        let s = net.metrics().snapshot();
        assert_eq!(s.faults_duplicated, 1);
        assert_eq!(s.per_machine_received, vec![0, 2]);
    }

    /// What is sent is a range of a buffer, and the range is the message:
    /// a duplicated packet is a second handle on the same allocation, and
    /// every count — `Packet::len`, bytes sent, bytes received — is the
    /// range's length, whatever the buffer holds around it.
    #[test]
    fn a_sent_range_is_shared_not_copied_and_counted_by_its_own_length() {
        let (net, inboxes) = net_faulty(2, NetCost::zero(), FaultPlan::seeded(5).with_dup(1.0));
        let buffer = PacketBytes::from((0u8..100).collect::<Vec<_>>());
        let frame = buffer.slice(10..40).unwrap();
        // The sender keeps its handle (a retransmission slot would).
        net.send(0, 1, frame.clone()).unwrap();
        let (first, second) = (inboxes[1].recv().unwrap(), inboxes[1].recv().unwrap());
        for p in [&first, &second] {
            assert_eq!(p.payload, (10u8..40).collect::<Vec<_>>());
            assert_eq!(p.len(), 30);
            assert!(p.payload.shares_buffer_with(&buffer));
        }
        let s = net.metrics().snapshot();
        assert_eq!((s.messages_sent, s.bytes_sent), (1, 30));
        assert_eq!(s.per_machine_bytes_sent, vec![30, 0]);
        assert_eq!(s.per_machine_bytes_received, vec![0, 60]);
        // Still held three times over: nobody can take the buffer ...
        assert!(frame.into_spare().is_err());
        assert!(first.payload.into_spare().is_err());
        drop(buffer);
        // ... until the last holder does, whole.
        assert_eq!(second.payload.into_spare().unwrap().capacity(), 100);
    }

    #[test]
    fn crashed_machine_is_dark_until_restart() {
        let (net, inboxes) = net(2, NetCost::zero());
        let inj = net.fault_injector();
        inj.crash(1);
        net.send(0, 1, vec![1]).unwrap(); // inbound: dropped
        net.send(1, 0, vec![2]).unwrap(); // outbound: dropped
        assert_eq!(net.metrics().snapshot().crash_dropped, 2);
        assert!(inboxes[1].try_recv().is_err());
        assert!(inboxes[0].try_recv().is_err());
        inj.restart(1);
        net.send(0, 1, vec![3]).unwrap();
        assert_eq!(inboxes[1].recv().unwrap().payload, vec![3]);
    }

    #[test]
    fn partition_drops_are_counted() {
        let (net, inboxes) = net(3, NetCost::zero());
        let inj = net.fault_injector();
        inj.partition(0, 1);
        net.send(0, 1, vec![1]).unwrap();
        net.send(1, 0, vec![2]).unwrap();
        net.send(0, 2, vec![3]).unwrap(); // unaffected pair
        assert_eq!(net.metrics().snapshot().partition_dropped, 2);
        assert_eq!(inboxes[2].recv().unwrap().payload, vec![3]);
        inj.heal(0, 1);
        net.send(0, 1, vec![4]).unwrap();
        assert_eq!(inboxes[1].recv().unwrap().payload, vec![4]);
    }

    #[test]
    fn virtual_network_charges_costs_without_wall_clock() {
        // 3s latency + 2KB at 1KB/s: 5s of modeled time per packet,
        // serialized per receiver — but zero wall-clock sleeping.
        let (net, inboxes) = net_virtual(
            2,
            NetCost {
                latency: Duration::from_secs(3),
                bytes_per_sec: 1e3,
            },
            7,
        );
        let t0 = Instant::now();
        for i in 0..4u8 {
            net.send(0, 1, vec![i; 2000]).unwrap();
        }
        // No registered actors: sends drain the event loop inline.
        for i in 0..4u8 {
            assert_eq!(inboxes[1].recv().unwrap().payload[0], i);
        }
        assert!(net.clock().is_virtual());
        // With no registered actors each send drains the loop inline, so
        // the packets run back to back: 4 × (3s latency + 2s transfer).
        // (Sends from *registered* actors overlap their latencies — see
        // `latency_overlaps_across_concurrent_sends`.)
        assert_eq!(net.clock().now_nanos(), 20_000_000_000);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "virtual delays must not be paid in wall-clock"
        );
        let s = net.metrics().snapshot();
        assert_eq!(s.messages_sent, 4);
        assert_eq!(s.per_machine_received, vec![0, 4]);
    }

    #[test]
    #[should_panic(
        expected = "build the cluster on virtual time (`ClusterConfig::with_virtual_time`)"
    )]
    fn spike_is_refused_where_no_delivery_can_be_delayed() {
        let (net, _inboxes) = net(2, NetCost::zero());
        net.fault_injector().spike(1, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(
        expected = "cannot charge a costed link; modeled delays are charged on the virtual clock: build the cluster on virtual time (`ClusterConfig::with_virtual_time`)"
    )]
    fn a_costed_topology_is_refused_on_the_real_clock() {
        let _ = net(2, NetCost::lan(50, 10.0));
    }

    #[test]
    fn a_delay_past_the_end_of_the_clock_lands_on_never() {
        // A spike of `Duration::MAX` is added to the link's latency.
        let never = NetCost {
            latency: Duration::from_micros(50).saturating_add(Duration::MAX),
            bytes_per_sec: 1e6,
        };
        let mut link_free = None;
        assert_eq!(link_delivery(5, 1000, &never, &mut link_free), u64::MAX);
        // ... and the next packet queues behind it without wrapping.
        assert_eq!(link_delivery(6, 1000, &never, &mut link_free), u64::MAX);
    }

    #[test]
    fn a_spiked_delivery_is_late_and_counted_on_the_virtual_route() {
        let (net, inboxes) = net_virtual(3, NetCost::zero(), 7);
        let inj = net.fault_injector();
        inj.spike(1, Duration::from_secs(7));
        // No registered actors: each send drains the event loop inline.
        net.send(0, 2, vec![2]).unwrap();
        net.send(1, 1, vec![1]).unwrap();
        assert_eq!(
            net.clock().now_nanos(),
            0,
            "only machine 1's link is spiked"
        );
        net.send(0, 1, vec![0]).unwrap();
        assert_eq!(net.clock().now_nanos(), 7_000_000_000);
        inj.unspike(1);
        net.send(0, 1, vec![3]).unwrap();
        assert_eq!(
            net.clock().now_nanos(),
            7_000_000_001,
            "prompt, FIFO behind the last"
        );
        let landed = |m: usize| std::iter::from_fn(|| inboxes[m].try_recv().ok()).count();
        assert_eq!((landed(1), landed(2)), (3, 1));
        assert_eq!(net.metrics().snapshot().spike_delayed, 1);
    }

    #[test]
    fn virtual_network_is_deterministic_across_runs() {
        let run = |seed: u64| {
            let (net, inboxes) = net_virtual(3, NetCost::zero(), seed);
            for i in 0..10u8 {
                net.send(0, 1 + (i as usize % 2), vec![i]).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(p) = inboxes[1].try_recv() {
                got.push(p.payload[0]);
            }
            while let Ok(p) = inboxes[2].try_recv() {
                got.push(p.payload[0]);
            }
            (got, net.clock().schedule().unwrap())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb, "same seed must replay the same schedule");
    }

    #[test]
    fn seeded_loss_pattern_is_reproducible_across_networks() {
        let survivors = |seed: u64| -> Vec<u8> {
            let (net, inboxes) =
                net_faulty(2, NetCost::zero(), FaultPlan::seeded(seed).with_drop(0.3));
            for i in 0..50u8 {
                net.send(0, 1, vec![i]).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(p) = inboxes[1].try_recv() {
                got.push(p.payload[0]);
            }
            got
        };
        assert_eq!(survivors(42), survivors(42));
        assert_ne!(survivors(42), survivors(43));
    }
}
