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
//! That rule is written once (`link_delivery`) and charged on one of three
//! routes, fixed for the whole fabric when it is built:
//!
//! * **virtual time** — a delivery is a clock event: no threads, no
//!   wall-clock sleeping, and costed topologies stay deterministic;
//! * **real time, nothing to charge** (a free topology and a fault plan
//!   without delay) — `send` pushes straight into the destination inbox,
//!   channel-fast;
//! * **real time, costed** — a NIC thread per machine sleeps each packet's
//!   delay out on the wall clock. It is kept beside the virtual route
//!   because it is the reference the virtual model is checked against:
//!   the nightly real-clock soak, and E1–E8 on microsecond-scale links.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::clock::Clock;
use crate::config::NetCost;
use crate::faults::{FaultInjector, FaultState, Verdict};
use crate::message::{MachineId, Packet, PacketBytes};
use crate::metrics::Metrics;
use crate::time::transfer_time;
use crate::topology::TopologySpec;

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

struct TimedPacket {
    packet: Packet,
    /// Clock nanos at the send.
    sent_at: u64,
    cost: NetCost,
}

enum Route {
    /// Costed path: packets go through the NIC delivery thread.
    Nic(Sender<TimedPacket>),
    /// Free path: packets go straight to the machine inbox.
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
    topology: TopologySpec,
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
    pub(crate) fn build(
        machines: usize,
        topology: TopologySpec,
        metrics: Arc<Metrics>,
        faults: Arc<FaultState>,
        clock: Clock,
    ) -> (Network, Vec<Receiver<Packet>>) {
        // Injected delay needs the timed NIC path even on a free topology.
        let zero = topology.is_zero() && !faults.plan().has_delay();
        let mut routes = Vec::with_capacity(machines);
        let mut inboxes = Vec::with_capacity(machines);
        let mut sim_txs = Vec::with_capacity(machines);
        for dst in 0..machines {
            let (inbox_tx, inbox_rx) = unbounded::<Packet>();
            inboxes.push(inbox_rx);
            if clock.is_virtual() {
                // No NIC threads: link delays become clock events, so even
                // costed topologies are deterministic and wall-clock free.
                sim_txs.push(inbox_tx);
                routes.push(Route::Sim);
            } else if zero {
                routes.push(Route::Direct(inbox_tx));
            } else {
                let (nic_tx, nic_rx) = unbounded::<TimedPacket>();
                let (nic_metrics, nic_clock) = (metrics.clone(), clock.clone());
                std::thread::Builder::new()
                    .name(format!("simnet-nic-{dst}"))
                    .spawn(move || nic_loop(nic_rx, inbox_tx, nic_metrics, nic_clock))
                    .expect("spawn NIC thread");
                routes.push(Route::Nic(nic_tx));
            }
        }
        if clock.is_virtual() {
            clock.install_network(sim_txs, metrics.clone());
        }
        (
            Network {
                routes: Arc::new(routes),
                topology,
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
        // A fabric is one kind of route throughout; only the direct one
        // has nowhere to apply a delay.
        let timed = !matches!(self.routes.first(), Some(Route::Direct(_)));
        FaultInjector::new(self.faults.clone(), timed)
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
        self.metrics.record_send(src, payload.len());
        let (copies, extra_delay) = match self.faults.verdict(src, dst) {
            Verdict::Deliver {
                copies,
                extra_delay,
            } => {
                // Loopback never traverses the fabric, so it dodges the
                // spike (matching the verdict's delay exemption).
                if src != dst && self.faults.is_spiked(dst) {
                    self.metrics.record_spike_delay();
                }
                (copies, extra_delay)
            }
            Verdict::DropRandom => {
                self.metrics.record_fault_drop();
                return Ok(());
            }
            Verdict::DropPartitioned => {
                self.metrics.record_partition_drop();
                return Ok(());
            }
            Verdict::DropCrashed => {
                self.metrics.record_crash_drop();
                return Ok(());
            }
        };
        let packet = Packet::new(src, dst, payload);
        if copies == 2 {
            self.metrics.record_fault_dup();
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
        let cost = || {
            let mut cost = self.topology.cost(src, dst);
            cost.latency += extra_delay;
            cost
        };
        match route {
            Route::Direct(tx) => {
                // Nowhere to apply a delay, and none to apply: this route
                // means the plan has none and `spike` is refused.
                self.metrics.record_delivery(dst, packet.len());
                tx.send(packet).map_err(|_| NetError::Disconnected(dst))
            }
            Route::Nic(tx) => tx
                .send(TimedPacket {
                    packet,
                    sent_at: self.clock.now_nanos(),
                    cost: cost(),
                })
                .map_err(|_| NetError::Disconnected(dst)),
            Route::Sim => {
                // A dead inbox is only discoverable when the event fires;
                // like the NIC path, it is counted then, not surfaced here.
                self.clock.schedule_delivery(packet, &cost());
                Ok(())
            }
        }
    }
}

/// The link model, for both timed routes: a packet of `bytes` sent at
/// `sent` arrives after the link's latency, then queues FIFO behind the
/// link's last delivery (`link_free`, which it advances) for its transfer
/// time. Returns when it is delivered. All times are clock nanos.
pub(crate) fn link_delivery(
    sent: u64,
    bytes: usize,
    cost: &NetCost,
    link_free: &mut Option<u64>,
) -> u64 {
    let arrival = sent + cost.latency.as_nanos() as u64;
    let start = arrival.max(link_free.unwrap_or(0));
    let mut done = start + transfer_time(bytes, cost.bytes_per_sec).as_nanos() as u64;
    if let Some(prior) = *link_free {
        // Keep per-destination delivery strictly in send order: a link is
        // FIFO even at zero cost.
        done = done.max(prior + 1);
    }
    *link_free = Some(done);
    done
}

/// Put a packet whose link delay has elapsed into its machine's inbox and
/// count it — delivered, or lost because the machine shut down meanwhile.
pub(crate) fn hand_over(inbox: &Sender<Packet>, packet: Packet, metrics: &Metrics) -> bool {
    let (dst, bytes) = (packet.dst, packet.len());
    let delivered = inbox.send(packet).is_ok();
    if delivered {
        metrics.record_delivery(dst, bytes);
    } else {
        metrics.record_delivery_dropped();
    }
    delivered
}

/// The real-time receive side of one machine's link. Runs until the
/// senders disconnect, so senders never block on a dead machine.
fn nic_loop(rx: Receiver<TimedPacket>, inbox: Sender<Packet>, metrics: Arc<Metrics>, clock: Clock) {
    let mut link_free = None;
    for TimedPacket {
        packet,
        sent_at,
        cost,
    } in rx
    {
        clock.sleep_until_nanos(link_delivery(sent_at, packet.len(), &cost, &mut link_free));
        hand_over(&inbox, packet, &metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetCost;
    use std::time::{Duration, Instant};

    use crate::faults::FaultPlan;

    fn net(machines: usize, spec: TopologySpec) -> (Network, Vec<Receiver<Packet>>) {
        net_faulty(machines, spec, FaultPlan::none())
    }

    fn net_faulty(
        machines: usize,
        spec: TopologySpec,
        plan: FaultPlan,
    ) -> (Network, Vec<Receiver<Packet>>) {
        Network::build(
            machines,
            spec,
            Arc::new(Metrics::new(machines)),
            Arc::new(FaultState::new(plan, machines)),
            Clock::real(true),
        )
    }

    fn net_virtual(
        machines: usize,
        spec: TopologySpec,
        seed: u64,
    ) -> (Network, Vec<Receiver<Packet>>) {
        Network::build(
            machines,
            spec,
            Arc::new(Metrics::new(machines)),
            Arc::new(FaultState::new(FaultPlan::none(), machines)),
            Clock::virtual_time(seed),
        )
    }

    #[test]
    fn zero_cost_delivery_is_direct_and_ordered() {
        let (net, inboxes) = net(2, TopologySpec::Uniform(NetCost::zero()));
        for i in 0..10u8 {
            net.send(0, 1, vec![i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(inboxes[1].recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn unknown_destination_errors() {
        let (net, _inboxes) = net(2, TopologySpec::Uniform(NetCost::zero()));
        assert_eq!(net.send(0, 9, vec![]), Err(NetError::NoSuchMachine(9)));
    }

    #[test]
    fn dropped_inbox_is_disconnected() {
        let (net, inboxes) = net(2, TopologySpec::Uniform(NetCost::zero()));
        drop(inboxes);
        assert_eq!(net.send(0, 1, vec![1]), Err(NetError::Disconnected(1)));
    }

    #[test]
    fn latency_delays_delivery() {
        let lat = Duration::from_millis(3);
        let (net, inboxes) = net(
            2,
            TopologySpec::Uniform(NetCost {
                latency: lat,
                bytes_per_sec: f64::INFINITY,
            }),
        );
        let t0 = Instant::now();
        net.send(0, 1, vec![42]).unwrap();
        let pkt = inboxes[1].recv().unwrap();
        assert!(
            t0.elapsed() >= lat,
            "delivered too early: {:?}",
            t0.elapsed()
        );
        assert_eq!(pkt.payload, vec![42]);
    }

    #[test]
    fn latency_overlaps_across_concurrent_sends() {
        // 10 packets sent back-to-back each pay 3ms latency, but the
        // latencies overlap: the last lands at ~3ms, nowhere near 30ms.
        let lat = Duration::from_millis(3);
        let spec = TopologySpec::Uniform(NetCost {
            latency: lat,
            bytes_per_sec: f64::INFINITY,
        });
        let send_ten = |net: &Network| {
            for i in 0..10u8 {
                net.send(0, 1, vec![i]).unwrap();
            }
        };

        // Exactly, on the virtual clock. The sender is a registered actor,
        // so no delivery fires until it parks in its first receive.
        let (net, inboxes) = net_virtual(2, spec, 7);
        let clock = net.clock();
        clock.register_actor();
        send_ten(&net);
        for _ in 0..10 {
            clock.recv(&inboxes[1], 1).unwrap();
        }
        clock.deregister_actor();
        // All ten arrive at 3ms; the FIFO link lands them 1ns apart.
        assert_eq!(clock.now_nanos(), 3_000_000 + 9);

        // On the real clock only the lower bound is the model's to keep:
        // how late a busy host runs the NIC thread is not.
        let (net, inboxes) = net_faulty(2, spec, FaultPlan::none());
        let t0 = Instant::now();
        send_ten(&net);
        for _ in 0..10 {
            inboxes[1].recv().unwrap();
        }
        assert!(t0.elapsed() >= lat);
    }

    #[test]
    fn bandwidth_serializes_per_receiver() {
        // 1 MB/s link, 4 packets of 2 KB each => ~8ms of serialized transfer.
        let (net, inboxes) = net(
            2,
            TopologySpec::Uniform(NetCost {
                latency: Duration::ZERO,
                bytes_per_sec: 1e6,
            }),
        );
        let t0 = Instant::now();
        for _ in 0..4 {
            net.send(0, 1, vec![0u8; 2000]).unwrap();
        }
        for _ in 0..4 {
            inboxes[1].recv().unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(8),
            "transfers failed to serialize: {elapsed:?}"
        );
    }

    #[test]
    fn loopback_is_free_even_on_costed_network() {
        // A link that would take a minute, so that "did not pay it" needs
        // no tight wall-clock bound.
        let (net, inboxes) = net(
            2,
            TopologySpec::Uniform(NetCost {
                latency: Duration::from_secs(60),
                bytes_per_sec: 1.0,
            }),
        );
        let t0 = Instant::now();
        net.send(1, 1, vec![0u8; 1000]).unwrap();
        inboxes[1].recv().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "loopback paid link cost"
        );
    }

    #[test]
    fn metrics_count_sends_and_deliveries() {
        let (net, inboxes) = net(3, TopologySpec::Uniform(NetCost::zero()));
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
        let (net, inboxes) = net_faulty(
            2,
            TopologySpec::Uniform(NetCost::zero()),
            FaultPlan::seeded(3).with_drop(0.5),
        );
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
        let (net, _rx) = net(5, TopologySpec::Uniform(NetCost::zero()));
        assert_eq!(net.machines(), 5);
        assert_eq!(net.clone().machines(), 5);
    }

    #[test]
    fn nic_counts_deliveries_to_a_dead_inbox() {
        // Costed path so delivery goes through the NIC thread; drop the
        // destination inbox before the packet lands.
        let (net, mut inboxes) = net(
            2,
            TopologySpec::Uniform(NetCost {
                latency: Duration::from_millis(1),
                bytes_per_sec: f64::INFINITY,
            }),
        );
        drop(inboxes.remove(1));
        net.send(0, 1, vec![1, 2, 3]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while net.metrics().snapshot().deliveries_dropped == 0 {
            assert!(Instant::now() < deadline, "delivery drop never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = net.metrics().snapshot();
        assert_eq!(s.deliveries_dropped, 1);
        assert_eq!(s.per_machine_received, vec![0, 0]);
    }

    #[test]
    fn plan_drops_are_counted_and_silent() {
        let (net, inboxes) = net_faulty(
            2,
            TopologySpec::Uniform(NetCost::zero()),
            FaultPlan::seeded(11).with_drop(0.5),
        );
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
        let (net, inboxes) = net_faulty(
            2,
            TopologySpec::Uniform(NetCost::zero()),
            FaultPlan::seeded(5).with_dup(1.0),
        );
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
        let (net, inboxes) = net_faulty(
            2,
            TopologySpec::Uniform(NetCost::zero()),
            FaultPlan::seeded(5).with_dup(1.0),
        );
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
        assert!(frame.into_unshared().is_none());
        assert!(first.payload.into_unshared().is_none());
        drop(buffer);
        // ... until the last holder does, whole.
        assert_eq!(second.payload.into_unshared().unwrap().len(), 100);
    }

    #[test]
    fn crashed_machine_is_dark_until_restart() {
        let (net, inboxes) = net(2, TopologySpec::Uniform(NetCost::zero()));
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
        let (net, inboxes) = net(3, TopologySpec::Uniform(NetCost::zero()));
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
            TopologySpec::Uniform(NetCost {
                latency: Duration::from_secs(3),
                bytes_per_sec: 1e3,
            }),
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
        expected = "`ClusterConfig::with_virtual_time`) or with a fault plan that can delay (`FaultPlan::with_delay`)"
    )]
    fn spike_is_refused_where_no_delivery_can_be_delayed() {
        let (net, _inboxes) = net(2, TopologySpec::Uniform(NetCost::zero()));
        net.fault_injector().spike(1, Duration::from_millis(5));
    }

    #[test]
    fn a_spiked_delivery_is_late_and_counted_on_the_nic_route() {
        // A plan that can delay (here: by next to nothing) puts even a free
        // topology on the timed NIC route, where a spike has effect.
        let plan = FaultPlan::seeded(1).with_delay(1e-9, Duration::from_nanos(1));
        let (net, inboxes) = net_faulty(3, TopologySpec::Uniform(NetCost::zero()), plan);
        let spike = Duration::from_millis(5);
        net.fault_injector().spike(1, spike);
        let t0 = Instant::now();
        net.send(0, 2, vec![2]).unwrap(); // another destination: prompt
        net.send(1, 1, vec![1]).unwrap(); // loopback never crosses the link
        net.send(0, 1, vec![0]).unwrap();
        while inboxes[1].recv().unwrap().payload != vec![0] {}
        assert!(t0.elapsed() >= spike, "spiked packet arrived early");
        inboxes[2].recv().unwrap();
        assert_eq!(net.metrics().snapshot().spike_delayed, 1);
    }

    #[test]
    fn a_spiked_delivery_is_late_and_counted_on_the_virtual_route() {
        let (net, inboxes) = net_virtual(3, TopologySpec::Uniform(NetCost::zero()), 7);
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
            let (net, inboxes) = net_virtual(3, TopologySpec::Uniform(NetCost::zero()), seed);
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
            let (net, inboxes) = net_faulty(
                2,
                TopologySpec::Uniform(NetCost::zero()),
                FaultPlan::seeded(seed).with_drop(0.3),
            );
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
