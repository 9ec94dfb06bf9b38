//! Simulated block storage devices.
//!
//! A [`SimDisk`] is the hardware behind the paper's `PageDevice` (§2): a
//! flat byte range with explicit positioning and transfer costs. Operations
//! on one disk serialize (each queues behind the device's last scheduled
//! op), while operations on *different* disks proceed in parallel — exactly
//! the property the paper's §4 parallel-I/O example exploits ("when each
//! ArrayPageDevice … is assigned to a different hard drive, the processes
//! … will carry out disk I/O in parallel").

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::Clock;
use crate::config::DiskConfig;
use crate::metrics::{Counter, Metrics};
use crate::time::{nanos, transfer_time};

/// Errors from disk operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The operation would cross the end of the device.
    OutOfBounds {
        offset: usize,
        len: usize,
        capacity: usize,
    },
    /// An allocation request exceeds the free space.
    OutOfSpace { requested: usize, free: usize },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "disk access [{offset}, {offset}+{len}) exceeds capacity {capacity}"
            ),
            DiskError::OutOfSpace { requested, free } => {
                write!(f, "allocation of {requested} bytes exceeds {free} free")
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// One simulated disk: a bounds-checked byte range with a cost model.
pub struct SimDisk {
    config: DiskConfig,
    capacity: usize,
    data: Mutex<Vec<u8>>,
    metrics: Arc<Metrics>,
    clock: Clock,
    /// Clock instant the device finishes its queued work. An op sleeps on
    /// the clock until its own slot behind this watermark ends, holding no
    /// lock: under virtual time a thread blocked on a mutex is invisible to
    /// the clock's quiescence rule and would deadlock the simulation.
    busy_until: Mutex<u64>,
    ops: Counter,
    next_alloc: AtomicU64,
}

impl fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimDisk")
            .field("capacity", &self.capacity)
            .field("ops", &self.ops.get())
            .finish()
    }
}

impl SimDisk {
    /// Create a disk of `capacity` bytes (zero-filled) on a real-time
    /// clock. Cluster-built disks use [`SimDisk::with_clock`] instead so
    /// modeled delays follow the cluster's time mode.
    pub fn new(config: DiskConfig, capacity: usize, metrics: Arc<Metrics>) -> Self {
        SimDisk::with_clock(config, capacity, metrics, Clock::real())
    }

    /// Create a disk charging its costs on the given clock.
    pub fn with_clock(
        config: DiskConfig,
        capacity: usize,
        metrics: Arc<Metrics>,
        clock: Clock,
    ) -> Self {
        SimDisk {
            config,
            capacity,
            data: Mutex::new(vec![0u8; capacity]),
            metrics,
            clock,
            busy_until: Mutex::new(0),
            ops: Counter::default(),
            next_alloc: AtomicU64::new(0),
        }
    }

    /// Reserve `bytes` of exclusive space (bump allocation), returning the
    /// region's base offset. This is the substrate's "create a file":
    /// several devices can share one disk without overlapping. Regions are
    /// never reclaimed — the simulation has no deletion workload that
    /// needs it.
    pub fn alloc(&self, bytes: usize) -> Result<usize, DiskError> {
        let mut cur = self.next_alloc.load(Ordering::Relaxed);
        loop {
            let free = self.capacity - cur as usize;
            if bytes > free {
                return Err(DiskError::OutOfSpace {
                    requested: bytes,
                    free,
                });
            }
            match self.next_alloc.compare_exchange_weak(
                cur,
                cur + bytes as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(cur as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Operations (reads + writes) performed on this device so far. E5 uses
    /// this to count how many devices a page map actually engaged.
    pub fn op_count(&self) -> u64 {
        self.ops.get()
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<(), DiskError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(DiskError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// One device operation over `[offset, offset + len)`: bounds, the
    /// copy, then the modeled time, counted in its kind's `[count, bytes]`
    /// rows and the shared busy time.
    ///
    /// The op is scheduled from the instant it was issued, behind whatever
    /// the device already has queued, and the caller sleeps on the clock
    /// until its slot ends — the same rule on both clocks, so concurrent
    /// ops on one disk serialize as on real hardware.
    fn op(
        &self,
        offset: usize,
        len: usize,
        [count, bytes]: [&Counter; 2],
        copy: impl FnOnce(&mut [u8]),
    ) -> Result<(), DiskError> {
        self.check_bounds(offset, len)?;
        let transfer = transfer_time(len, self.config.bytes_per_sec);
        let busy = nanos(self.config.seek.saturating_add(transfer));
        // A free disk never reads the clock (under virtual time that is a
        // lock every actor shares).
        let issued = (!self.config.is_zero()).then(|| self.clock.now_nanos());
        copy(&mut self.data.lock()[offset..offset + len]);
        if let Some(issued) = issued {
            let done = {
                let mut busy_until = self.busy_until.lock();
                *busy_until = issued.max(*busy_until).saturating_add(busy);
                *busy_until
            };
            self.clock.sleep_until_nanos(done);
        }
        self.ops.bump();
        count.bump();
        bytes.add(len as u64);
        self.metrics.disk_busy_nanos.add(busy);
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `offset`.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        let rows = [&self.metrics.disk_reads, &self.metrics.disk_bytes_read];
        self.op(offset, buf.len(), rows, |data| buf.copy_from_slice(data))
    }

    /// Write `data` starting at `offset`.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), DiskError> {
        let rows = [&self.metrics.disk_writes, &self.metrics.disk_bytes_written];
        self.op(offset, data.len(), rows, |to| to.copy_from_slice(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn mem_disk(capacity: usize) -> SimDisk {
        SimDisk::new(DiskConfig::zero(), capacity, Arc::new(Metrics::new(0)))
    }

    #[test]
    fn write_then_read_roundtrips() {
        let d = mem_disk(1024);
        d.write(100, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        d.read(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(d.op_count(), 2);
    }

    #[test]
    fn fresh_disk_reads_zeroes() {
        let d = mem_disk(64);
        let mut buf = [0xffu8; 8];
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let d = mem_disk(16);
        let mut buf = [0u8; 8];
        assert!(matches!(
            d.read(10, &mut buf),
            Err(DiskError::OutOfBounds {
                offset: 10,
                len: 8,
                capacity: 16
            })
        ));
        assert!(d.write(16, &[1]).is_err());
        // Boundary-exact access is fine.
        d.write(8, &[9u8; 8]).unwrap();
        assert_eq!(d.op_count(), 1, "failed ops must not count");
    }

    #[test]
    fn offset_overflow_is_rejected() {
        let d = mem_disk(16);
        assert!(d.write(usize::MAX, &[1, 2]).is_err());
    }

    #[test]
    fn metrics_capture_bytes_and_busy_time() {
        let metrics = Arc::new(Metrics::new(0));
        let cfg = DiskConfig {
            seek: Duration::from_micros(100),
            bytes_per_sec: 1e9,
        };
        let d = SimDisk::new(cfg, 1 << 20, metrics.clone());
        d.write(0, &vec![0u8; 1000]).unwrap();
        let mut buf = vec![0u8; 500];
        d.read(0, &mut buf).unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.disk_writes, 1);
        assert_eq!(s.disk_reads, 1);
        assert_eq!(s.disk_bytes_written, 1000);
        assert_eq!(s.disk_bytes_read, 500);
        // Each op: 100µs seek + ~1µs transfer.
        assert!(s.disk_busy_nanos >= 200_000, "busy = {}", s.disk_busy_nanos);
    }

    #[test]
    fn costed_ops_take_modeled_time() {
        let cfg = DiskConfig {
            seek: Duration::from_millis(2),
            bytes_per_sec: f64::INFINITY,
        };
        let d = SimDisk::new(cfg, 64, Arc::new(Metrics::new(0)));
        let t0 = Instant::now();
        d.write(0, &[1]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn virtual_disk_charges_modeled_time_logically() {
        let cfg = DiskConfig {
            seek: Duration::from_secs(20),
            bytes_per_sec: f64::INFINITY,
        };
        let clock = Clock::virtual_time(5);
        let d = SimDisk::with_clock(cfg, 64, Arc::new(Metrics::new(0)), clock.clone());
        let t0 = Instant::now();
        d.write(0, &[1]).unwrap();
        let mut buf = [0u8; 1];
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf, [1]);
        // 2 ops × 20 s seek, serialized on the device's virtual busy-time.
        assert_eq!(clock.now_nanos(), 40_000_000_000);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "virtual disk cost paid in wall-clock"
        );
    }

    /// One costed op from each of two threads, released together: on one
    /// disk the second queues behind the first, on two disks they overlap.
    /// Returns the pair's wall-clock time and how far the clock moved.
    fn two_concurrent_ops(clock: &Clock, same_disk: bool, op: Duration) -> (Duration, u64) {
        let cfg = DiskConfig {
            seek: op,
            bytes_per_sec: f64::INFINITY,
        };
        let disk = || {
            let metrics = Arc::new(Metrics::new(0));
            Arc::new(SimDisk::with_clock(cfg, 64, metrics, clock.clone()))
        };
        let first = disk();
        let second = if same_disk { first.clone() } else { disk() };
        let start = Arc::new(std::sync::Barrier::new(2));
        let (t0, before) = (Instant::now(), clock.now_nanos());
        let threads: Vec<_> = [first, second]
            .into_iter()
            .map(|d| {
                // Enrolled before either runs: virtual time cannot move
                // until both ops are parked on their device.
                let (seat, start) = (clock.seat(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    d.write(0, &[1]).unwrap();
                    drop(seat);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        (t0.elapsed(), clock.now_nanos() - before)
    }

    #[test]
    fn one_disk_serializes_and_two_disks_overlap_on_the_real_clock() {
        let op = Duration::from_millis(5);
        let (same, _) = two_concurrent_ops(&Clock::real(), true, op);
        assert!(same >= op * 2, "two ops on one disk took {same:?}");
        let (apart, _) = two_concurrent_ops(&Clock::real(), false, op);
        assert!(apart >= op, "two ops on two disks took {apart:?}");
    }

    #[test]
    fn one_disk_serializes_and_two_disks_overlap_on_the_virtual_clock() {
        let op = Duration::from_secs(5);
        let (_, same) = two_concurrent_ops(&Clock::virtual_time(3), true, op);
        assert_eq!(
            same, 10_000_000_000,
            "the second op queues behind the first"
        );
        let (_, apart) = two_concurrent_ops(&Clock::virtual_time(3), false, op);
        assert_eq!(apart, 5_000_000_000, "ops on different disks overlap");
    }

    #[test]
    fn zero_cost_ops_are_fast() {
        let d = mem_disk(1 << 20);
        let t0 = Instant::now();
        for i in 0..1000 {
            d.write(i * 8, &[0u8; 8]).unwrap();
        }
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
