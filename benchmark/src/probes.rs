//! Layer probes: each times one layer from outside, through its public
//! functions, with the messages the workloads send. They run once, after
//! the workload trials of a traced pass.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use fft::{Direction, Fft3, Grid3};
use oopp::frame::Frame;
use oopp::wire::collections::{Bytes, F64s};
use oopp::wire::{from_bytes, to_bytes};
use oopp::{ClusterBuilder, DoubleBlockClient, NodeCtx, RemoteResult, TraceCtx};
use sched::{DepthGauge, Injector, Worker};
use simnet::{ClusterConfig, SimCluster};

use crate::procfs::{allowed_cpus, pin_current_thread, pin_to_one_cpu, ProcSample};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{fft_input, Rng, BULK_ELEMS, FFT_EDGE};

const BULK_GIB: f64 = (BULK_ELEMS * 8) as f64 / (1u64 << 30) as f64;

/// Median nanoseconds per call of `f` over `batches` batches of `iters`.
fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

/// Median microseconds of `f` over `n` calls timed one by one.
fn us_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    let each: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&each)
}

/// The method-name + arguments payload of `DoubleBlock::set(7, 2.5)`,
/// byte for byte what the generated stub writes.
fn set_payload() -> (String, usize, f64) {
    ("set".to_string(), 7, 2.5)
}

fn request(req_id: u64, payload: Vec<u8>) -> Frame {
    Frame::Request {
        req_id,
        reply_to: 1,
        target: 1,
        payload: Bytes(payload),
        trace: TraceCtx::default(),
        epoch: 0,
        rs_epoch: 0.into(),
        deadline: 0,
    }
}

fn response(req_id: u64, payload: Vec<u8>) -> Frame {
    Frame::Response {
        req_id,
        result: Ok(Bytes(payload)),
    }
}

/// Every probe; returns `(metric, value)` pairs. The spans of the
/// hand-assembled call are written to `trace`.
pub fn run_all(seed: u64, trace: &Path) -> std::io::Result<Vec<(&'static str, f64)>> {
    let mut spans = SpanLog::new();
    let mut out = Vec::new();
    wire_and_frame(&mut out);
    handoffs(&mut out);
    on_one_cpu(|| virtual_clock(seed, &mut out));
    scheduler(&mut out);
    let mut rng = Rng(seed ^ 0x6f6f_7070);
    let grid = Grid3::new([FFT_EDGE; 3], fft_input(&mut rng));
    let plan = Fft3::new([FFT_EDGE; 3]);
    out.push((
        "fft.local_ms",
        us_per_call(9, || {
            black_box(plan.transform(black_box(&grid), Direction::Forward));
        }) / 1e3,
    ));
    // The call-path probes run where the trials run: on one CPU.
    let assembled = on_one_cpu(|| {
        runtime_calls(&mut out).expect("runtime probes");
        hand_assembled_call(&mut spans)
    });
    let null_call = value_of(&out, "core.null_call_us");
    out.push(("core.sum_of_layers_us", assembled));
    out.push(("core.unexplained_us", null_call - assembled));
    spans.write_jsonl(trace)?;
    Ok(out)
}

/// Run `f` on a thread of its own restricted to one CPU, like a trial; the
/// threads `f` starts inherit the restriction and it ends with the thread.
fn on_one_cpu<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let probe = s.spawn(|| {
            pin_to_one_cpu();
            f()
        });
        probe.join().expect("probe thread")
    })
}

fn value_of(out: &[(&'static str, f64)], name: &str) -> f64 {
    out.iter().find(|m| m.0 == name).expect("probe ran").1
}

fn wire_and_frame(out: &mut Vec<(&'static str, f64)>) {
    let small = set_payload();
    let small_bytes = to_bytes(&small);
    out.push((
        "wire.small_encode_ns",
        ns_per_call(15, 20_000, || {
            black_box(to_bytes(black_box(&small)));
        }),
    ));
    out.push((
        "wire.small_decode_ns",
        ns_per_call(15, 20_000, || {
            black_box(from_bytes::<(String, usize, f64)>(black_box(&small_bytes)).unwrap());
        }),
    ));

    let bulk = F64s((0..BULK_ELEMS).map(|i| i as f64).collect());
    let bulk_bytes = to_bytes(&bulk);
    let enc = ns_per_call(9, 4, || {
        black_box(to_bytes(black_box(&bulk)));
    });
    let dec = ns_per_call(9, 4, || {
        black_box(from_bytes::<F64s>(black_box(&bulk_bytes)).unwrap());
    });
    out.push(("wire.bulk_encode_gib_s", BULK_GIB / (enc * 1e-9)));
    out.push(("wire.bulk_decode_gib_s", BULK_GIB / (dec * 1e-9)));

    // One call's frames: the request and its response.
    let frames = [
        request(42, small_bytes.clone()),
        response(42, to_bytes(&())),
    ];
    let frame_bytes = frames.each_ref().map(to_bytes);
    out.push((
        "core.frame_small_encode_ns",
        ns_per_call(15, 10_000, || {
            for f in &frames {
                black_box(to_bytes(black_box(f)));
            }
        }),
    ));
    out.push((
        "core.frame_small_decode_ns",
        ns_per_call(15, 10_000, || {
            for b in &frame_bytes {
                black_box(from_bytes::<Frame>(black_box(b)).unwrap());
            }
        }),
    ));

    // The two bulk frames: a `write_range` request, a `read_range` response.
    let frames = [request(42, bulk_bytes.clone()), response(42, bulk_bytes)];
    let frame_bytes = frames.each_ref().map(to_bytes);
    let enc = ns_per_call(9, 2, || {
        for f in &frames {
            black_box(to_bytes(black_box(f)));
        }
    });
    let dec = ns_per_call(9, 2, || {
        for b in &frame_bytes {
            black_box(from_bytes::<Frame>(black_box(b)).unwrap());
        }
    });
    out.push((
        "core.frame_bulk_encode_gib_s",
        2.0 * BULK_GIB / (enc * 1e-9),
    ));
    out.push((
        "core.frame_bulk_decode_gib_s",
        2.0 * BULK_GIB / (dec * 1e-9),
    ));
}

/// Rounds of one ping-pong probe.
const PING_ROUNDS: usize = 4_000;

/// Two threads hand a packet back and forth through `Network::send` and
/// `Clock::recv`; returns the median half round trip in nanoseconds. With
/// `pin`, the two threads are first restricted to the given CPU each;
/// `None` when the kernel refuses.
fn ping_pong(pin: Option<(usize, usize)>) -> Option<f64> {
    let cluster = SimCluster::new(ClusterConfig::zero_cost(2));
    let (inbox0, inbox1) = (cluster.take_inbox(0), cluster.take_inbox(1));
    let net = cluster.net();
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let pinned = pin.is_none_or(|(_, cpu)| pin_current_thread(&[cpu]));
            // An empty packet ends the probe.
            while let Ok(p) = net.clock().recv(&inbox1, 1) {
                if p.payload.is_empty() {
                    break;
                }
                net.send(1, 0, p.payload).expect("echo");
            }
            pinned
        });
        let ping = s.spawn(move || {
            let pinned = pin.is_none_or(|(cpu, _)| pin_current_thread(&[cpu]));
            let mut half_rtt = Vec::with_capacity(PING_ROUNDS);
            for _ in 0..PING_ROUNDS {
                let t = Instant::now();
                net.send(0, 1, vec![1]).expect("ping");
                net.clock().recv(&inbox0, 0).expect("pong");
                half_rtt.push(t.elapsed().as_nanos() as f64 / 2.0);
            }
            net.send(0, 1, Vec::new()).expect("stop");
            pinned.then(|| median(&half_rtt))
        });
        let echoed = echo.join().expect("echo thread");
        ping.join().expect("ping thread").filter(|_| echoed)
    })
}

fn handoffs(out: &mut Vec<(&'static str, f64)>) {
    let cluster = SimCluster::new(ClusterConfig::zero_cost(2));
    let inbox = cluster.take_inbox(1);
    out.push((
        "simnet.handoff_same_thread_ns",
        ns_per_call(15, 10_000, || {
            cluster.net().send(0, 1, vec![1]).expect("send");
            black_box(inbox.try_recv().expect("delivered"));
        }),
    ));
    out.push((
        "simnet.handoff_parked_ns",
        ping_pong(None).expect("unpinned probe"),
    ));
    // Where pinning is unavailable (or there is one CPU) these read 0.
    let cpus = allowed_cpus();
    let same = cpus.first().and_then(|&c| ping_pong(Some((c, c))));
    let cross = match cpus[..] {
        [a, b, ..] => ping_pong(Some((a, b))),
        _ => None,
    };
    out.push(("simnet.handoff_same_core_ns", same.unwrap_or(0.0)));
    out.push(("simnet.handoff_cross_core_ns", cross.unwrap_or(0.0)));
}

/// Whether `sched_setaffinity` works here (recorded in the result header).
pub fn affinity_available() -> bool {
    let cpus = allowed_cpus();
    !cpus.is_empty()
        && std::thread::spawn(move || pin_current_thread(&cpus))
            .join()
            .unwrap_or(false)
}

/// Sync null calls on a one-machine virtual-time cluster with LAN costs:
/// wall time per simulator event, and the kernel's share of the CPU time.
fn virtual_clock(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .sim_config(ClusterConfig::lan(0, 50, 1.0).with_virtual_time(seed))
        .build();
    let block = DoubleBlockClient::new_on(&mut driver, 0, 16).expect("create");
    let events = || cluster.sim().clock().schedule().expect("virtual").events;
    let (ev0, proc0, t0) = (events(), ProcSample::now(), Instant::now());
    while t0.elapsed() < Duration::from_millis(600) {
        for _ in 0..100 {
            block.set(&mut driver, 1, 2.0).expect("set");
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let proc = ProcSample::now().since(&proc0);
    out.push(("simnet.vclock_event_ns", wall_ns / (events() - ev0) as f64));
    out.push(("simnet.vclock_sys_share", proc.sys_share()));
    cluster.shutdown(driver);
}

fn scheduler(out: &mut Vec<(&'static str, f64)>) {
    let deque = Worker::new();
    out.push((
        "sched.push_pop_ns",
        ns_per_call(15, 50_000, || {
            deque.push(black_box(7u64));
            black_box(deque.pop());
        }),
    ));
    let stealer = deque.stealer();
    out.push((
        "sched.steal_ns",
        ns_per_call(15, 50_000, || {
            deque.push(black_box(7u64));
            black_box(stealer.steal().success());
        }),
    ));
    let injector = Injector::new();
    out.push((
        "sched.injector_ns",
        ns_per_call(15, 50_000, || {
            injector.push(black_box(7u64));
            black_box(injector.pop());
        }),
    ));
    let gauge = DepthGauge::new();
    out.push((
        "sched.gauge_ns",
        ns_per_call(15, 50_000, || {
            black_box(gauge.try_acquire(black_box(64)).is_ok());
            gauge.release(1);
        }),
    ));
}

/// Forwards a `get` to a block on its own machine: the same-machine nested
/// call the FFT workers make.
pub struct Relay;

oopp::remote_class! {
    class Relay {
        ctor();
        fn get_via(&mut self, target: DoubleBlockClient, i: usize) -> f64;
    }
}

impl Relay {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Relay)
    }

    fn get_via(
        &mut self,
        ctx: &mut NodeCtx,
        target: DoubleBlockClient,
        i: usize,
    ) -> RemoteResult<f64> {
        target.get(ctx, i)
    }
}

/// Probes that need a running cluster: the plain null call, the nested
/// same-machine call on top of it, and object creation.
fn runtime_calls(out: &mut Vec<(&'static str, f64)>) -> RemoteResult<()> {
    let (cluster, mut driver) = ClusterBuilder::new(1).register::<Relay>().build();
    let d = &mut *driver;
    let block = DoubleBlockClient::new_on(d, 0, 16)?;
    let relay = RelayClient::new_on(d, 0)?;
    for _ in 0..500 {
        block.get(d, 3)?;
        relay.get_via(d, block, 3)?;
    }
    let plain = us_per_call(4_000, || {
        black_box(block.get(d, 3).expect("get"));
    });
    let nested = us_per_call(2_000, || {
        black_box(relay.get_via(d, block, 3).expect("get_via"));
    });
    let create = us_per_call(500, || {
        let x = DoubleBlockClient::new_on(d, 0, 16).expect("create");
        x.destroy(d).expect("destroy");
    });
    out.push(("core.null_call_us", plain));
    out.push(("core.same_machine_call_us", nested - plain));
    out.push(("core.create_destroy_us", create));
    cluster.shutdown(driver);
    Ok(())
}

/// Calls of the hand-assembled probe, and how many of them leave spans.
const ASSEMBLED_CALLS: usize = 4_000;
const ASSEMBLED_SPANNED: usize = 1_000;

/// One null call put together by hand from the layers it cannot do
/// without — encode the arguments, frame them, hand the packet to another
/// thread, decode, and the same back — with a span around each step.
/// Returns the median round trip in microseconds: what a call costs when
/// the runtime adds nothing on top.
fn hand_assembled_call(spans: &mut SpanLog) -> f64 {
    let cluster = SimCluster::new(ClusterConfig::zero_cost(2));
    let (inbox0, inbox1) = (cluster.take_inbox(0), cluster.take_inbox(1));
    let net = cluster.net();
    // Each side stamps its own steps; the spans are assembled after the join.
    let (client, server) = std::thread::scope(|s| {
        let server = s.spawn(move || {
            let mut stamps = Vec::with_capacity(ASSEMBLED_CALLS);
            while let Ok(p) = net.clock().recv(&inbox1, 1) {
                if p.payload.is_empty() {
                    break;
                }
                let b0 = Instant::now();
                let Ok(Frame::Request {
                    req_id, payload, ..
                }) = from_bytes::<Frame>(&p.payload)
                else {
                    panic!("not a request");
                };
                let b1 = Instant::now();
                black_box(from_bytes::<(String, usize, f64)>(&payload.0).expect("arguments"));
                let b2 = Instant::now();
                let reply = to_bytes(&response(req_id, to_bytes(&())));
                let b3 = Instant::now();
                net.send(1, 0, reply).expect("reply");
                stamps.push([b0, b1, b2, b3]);
            }
            stamps
        });
        let client = s.spawn(move || {
            let mut stamps = Vec::with_capacity(ASSEMBLED_CALLS);
            for i in 0..ASSEMBLED_CALLS {
                let a0 = Instant::now();
                let args = to_bytes(black_box(&set_payload()));
                let a1 = Instant::now();
                let packet = to_bytes(&request(i as u64, args));
                let a2 = Instant::now();
                net.send(0, 1, packet).expect("request");
                let p = net.clock().recv(&inbox0, 0).expect("response");
                let a3 = Instant::now();
                let Ok(Frame::Response { result, .. }) = from_bytes::<Frame>(&p.payload) else {
                    panic!("not a response");
                };
                let a4 = Instant::now();
                from_bytes::<()>(&result.expect("ok").0).expect("unit");
                let a5 = Instant::now();
                stamps.push([a0, a1, a2, a3, a4, a5]);
            }
            net.send(0, 1, Vec::new()).expect("stop");
            stamps
        });
        (
            client.join().expect("client thread"),
            server.join().expect("server thread"),
        )
    });

    for (i, (a, b)) in client
        .iter()
        .zip(&server)
        .enumerate()
        .take(ASSEMBLED_SPANNED)
    {
        let op = i as u64 + 1;
        let call = spans.reserve();
        for (name, start, end) in [
            ("wire.encode_args", a[0], a[1]),
            ("core.frame_encode_request", a[1], a[2]),
            ("simnet.handoff_request", a[2], b[0]),
            ("core.frame_decode_request", b[0], b[1]),
            ("wire.decode_args", b[1], b[2]),
            ("core.frame_encode_response", b[2], b[3]),
            ("simnet.handoff_response", b[3], a[3]),
            ("core.frame_decode_response", a[3], a[4]),
            ("wire.decode_result", a[4], a[5]),
        ] {
            spans.leaf(call, op, name, start, end);
        }
        spans.record(call, 0, op, "hand_assembled_call", a[0], a[5]);
    }
    let round_trips: Vec<f64> = client
        .iter()
        .map(|a| a[5].duration_since(a[0]).as_secs_f64() * 1e6)
        .collect();
    median(&round_trips)
}
