//! Cluster-wide counters, and the table macro ([`counters!`](crate::counters)) that
//! generates them and core's per-machine `NodeStats`.
//!
//! Experiments need more than wall-clock time: E5 ("the PageMap determines
//! the degree of parallelism") is answered by *which devices did work*, and
//! the RMI-vs-message-passing comparisons need message and byte counts to
//! show the two models generate the same traffic. All counters are relaxed
//! atomics — they are statistics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// One live count, bumped in place.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Count `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The count so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One live count per machine; a machine that does not exist counts
/// nowhere.
#[derive(Debug, Default)]
pub struct PerMachine(Vec<Counter>);

impl PerMachine {
    /// Zeroed counts for `machines` machines.
    pub fn new(machines: usize) -> Self {
        PerMachine((0..machines).map(|_| Counter::default()).collect())
    }

    /// Count `n` against `machine`.
    pub fn add(&self, machine: usize, n: u64) {
        if let Some(c) = self.0.get(machine) {
            c.add(n);
        }
    }

    /// Every machine's count so far.
    pub fn get(&self) -> Vec<u64> {
        self.0.iter().map(Counter::get).collect()
    }
}

/// A counter table. A row is `counter name;` (a [`Counter`]), `counter
/// name = Event;` (one that the live struct's `note(Event)` bumps),
/// `per_machine name;` (a [`PerMachine`]), `given name;` (no live count: an
/// argument of `snapshot`, in row order) or `total name = row;` (no live
/// count: the sum of a `per_machine` row of the same snapshot, so bumping
/// that row bumps no cluster-wide count). The table generates the live
/// struct (a `pub(crate)` field per live row, which bumps itself:
/// `metrics.disk_reads.bump()`), its snapshot (every row, in row order),
/// `new`, `snapshot` and the saturating `since`, so a new counter is one
/// row. `note Event;` adds `note` and the snapshot's `mirrored` (each row
/// that names an event, with its count); `wire m;` expands
/// `m!(Snapshot { field, … })` at the call site.
#[macro_export]
macro_rules! counters {
    (
        $( note $event:ident; )?
        $( wire $wire:ident; )?
        $(#[$lmeta:meta])+ $lvis:vis struct $live:ident;
        $(#[$smeta:meta])* $svis:vis struct $snap:ident {
            $( $(#[$doc:meta])* $kind:ident $name:ident $(= $x:ident)?; )*
        }
    ) => {
        $(#[$smeta])*
        $svis struct $snap {
            $( $(#[$doc])* pub $name: $crate::counters!(@copy $kind), )*
        }
        $crate::counters!(@wire [$($wire)?] $snap [$($name)*]);
        $crate::counters!(@sort [[$($event)?] [$(#[$lmeta])+ $lvis struct $live] $snap] [] [] [] []
            $( $(#[$doc])* $kind $name $(= $x)?; )*);
    };
    (@copy per_machine) => { Vec<u64> };
    (@copy $kind:ident) => { u64 };
    (@wire [] $snap:ident $fields:tt) => {};
    (@wire [$wire:ident] $snap:ident [$($field:ident)*]) => { $wire!($snap { $($field),* }); };
    // Sort the rows into counters (each with the event it names, if any),
    // per-machine rows, given rows and totals.
    (@sort $h:tt [$($c:tt)*] $p:tt $g:tt $t:tt
        $(#[$d:meta])* counter $n:ident $(= $e:ident)?; $($r:tt)*
    ) => { $crate::counters!(@sort $h [$($c)* [$(#[$d])*] $n [$($e)?]] $p $g $t $($r)*); };
    (@sort $h:tt $c:tt [$($p:tt)*] $g:tt $t:tt $(#[$d:meta])* per_machine $n:ident; $($r:tt)*)
        => { $crate::counters!(@sort $h $c [$($p)* [$(#[$d])*] $n] $g $t $($r)*); };
    (@sort $h:tt $c:tt $p:tt [$($g:tt)*] $t:tt $(#[$d:meta])* given $n:ident; $($r:tt)*)
        => { $crate::counters!(@sort $h $c $p [$($g)* $n] $t $($r)*); };
    (@sort $h:tt $c:tt $p:tt $g:tt [$($t:tt)*]
        $(#[$d:meta])* total $n:ident = $of:ident; $($r:tt)*
    ) => { $crate::counters!(@sort $h $c $p $g [$($t)* $n $of] $($r)*); };
    (@sort [[$($event:ident)?] [$(#[$lmeta:meta])+ $lvis:vis struct $live:ident] $snap:ident]
        [$( [$(#[$cdoc:meta])*] $c:ident [$($ev:ident)?] )*]
        [$( [$(#[$pdoc:meta])*] $p:ident )*]
        [$( $g:ident )*]
        [$( $t:ident $of:ident )*]
    ) => {
        $(#[$lmeta])+
        $lvis struct $live {
            $( $(#[$cdoc])* pub(crate) $c: $crate::metrics::Counter, )*
            $( $(#[$pdoc])* pub(crate) $p: $crate::metrics::PerMachine, )*
        }

        impl $live {
            /// Zeroed counters, `machines` to each per-machine row.
            #[allow(unused_variables)]
            pub fn new(machines: usize) -> Self {
                $live {
                    $( $c: Default::default(), )*
                    $( $p: $crate::metrics::PerMachine::new(machines), )*
                }
            }

            /// Copy every counter; the caller supplies the `given` rows.
            pub fn snapshot(&self, $($g: u64),*) -> $snap {
                $( let $p = self.$p.get(); )*
                $snap {
                    $( $t: $of.iter().sum(), )*
                    $( $p, )*
                    $( $g, )*
                    $( $c: self.$c.get(), )*
                }
            }
        }

        impl $snap {
            /// Row-wise `self - earlier`: the activity between two
            /// snapshots, saturating so a mismatched pair never underflows.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $p: self.$p.iter().enumerate().map(|(i, &v)| {
                        v.saturating_sub(earlier.$p.get(i).copied().unwrap_or(0))
                    }).collect(), )*
                    $( $t: self.$t.saturating_sub(earlier.$t), )*
                    $( $g: self.$g.saturating_sub(earlier.$g), )*
                    $( $c: self.$c.saturating_sub(earlier.$c), )*
                }
            }
        }

        $crate::counters!(@note [$($event)?] $live $snap [$( $c [$($ev)?] )*]);
    };
    (@note [] $live:ident $snap:ident $rows:tt) => {};
    (@note [$event:ident] $live:ident $snap:ident [$( $c:ident [$($ev:ident)?] )*]) => {
        impl $live {
            /// Bump the row that names `kind`, if one does.
            pub fn note(&self, kind: $event) {
                match kind {
                    $( $( $event::$ev => self.$c.bump(), )? )*
                    _ => {}
                }
            }
        }

        impl $snap {
            /// Every row that names an event: its name, event and count.
            pub fn mirrored(&self) -> Vec<(&'static str, $event, u64)> {
                vec![$( $( (stringify!($c), $event::$ev, self.$c), )? )*]
            }
        }
    };
}

counters! {
    /// Live counters shared by every component of a cluster.
    #[derive(Debug)]
    pub struct Metrics;
    /// Point-in-time copy of [`Metrics`], cheap to diff.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        /// Total messages injected into the network.
        total messages_sent = per_machine_sent;
        /// Total payload bytes injected into the network.
        total bytes_sent = per_machine_bytes_sent;
        /// Messages sent, per source machine.
        per_machine per_machine_sent;
        /// Payload bytes injected, per source machine: a machine serving hot
        /// objects shows up here through its reply traffic even when its
        /// receive side is quiet.
        per_machine per_machine_bytes_sent;
        /// Messages delivered, per destination machine.
        per_machine per_machine_received;
        /// Payload bytes delivered, per destination machine. Under faults this
        /// diverges from a sender-side view: a machine behind a lossy or
        /// partitioned link *receives* fewer bytes than its peers sent it, and
        /// that asymmetry is only visible receiver-side.
        per_machine per_machine_bytes_received;
        /// Disk read operations across all disks.
        counter disk_reads;
        /// Disk write operations across all disks.
        counter disk_writes;
        /// Bytes read from disks.
        counter disk_bytes_read;
        /// Bytes written to disks.
        counter disk_bytes_written;
        /// Modeled disk busy time, summed over all disks, in nanoseconds.
        /// `disk_busy_nanos / wall_clock` estimates achieved I/O parallelism.
        counter disk_busy_nanos;
        /// Packets that reached a NIC whose machine inbox was already gone
        /// (machine shut down mid-delivery).
        counter deliveries_dropped;
        /// Packets dropped by the seeded [`FaultPlan`](crate::FaultPlan).
        counter faults_dropped;
        /// Packets duplicated by the seeded fault plan.
        counter faults_duplicated;
        /// Packets dropped because their (src, dst) pair was partitioned.
        counter partition_dropped;
        /// Packets dropped because their source or destination was crashed.
        counter crash_dropped;
        /// Packets delivered late because their destination was load-spiked
        /// (see [`FaultInjector::spike`](crate::FaultInjector::spike)).
        counter spike_delayed;
    }
}

impl MetricsSnapshot {
    /// Total packets the fault layer removed from the fabric.
    pub fn total_fault_drops(&self) -> u64 {
        self.faults_dropped + self.partition_dropped + self.crash_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Shed,
        Send,
    }

    /// What `wire` hands its macro: the snapshot's fields, in row order.
    macro_rules! field_names {
        ($snap:ident { $($field:ident),* }) => {
            impl $snap {
                const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];
            }
        };
    }

    counters! {
        note Kind;
        wire field_names;
        /// One row of every kind.
        struct Live;
        /// A copy of [`Live`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Snap {
            /// The sum of `per_sent`.
            total sent = per_sent;
            /// Sends per machine.
            per_machine per_sent;
            /// A plain count.
            counter reads;
            /// Supplied by whoever takes the snapshot.
            given live_objects;
            /// Bumped by `note(Kind::Shed)`.
            counter sheds = Shed;
        }
    }

    #[test]
    fn counters_accumulate() {
        let t = Live::new(3);
        t.per_sent.add(0, 2);
        t.per_sent.add(2, 1);
        t.reads.bump();
        t.reads.add(4);
        let s = t.snapshot(7);
        let want = Snap {
            sent: 3,
            per_sent: vec![2, 0, 1],
            reads: 5,
            live_objects: 7,
            sheds: 0,
        };
        assert_eq!(s, want);
    }

    #[test]
    fn out_of_range_machine_ids_are_ignored() {
        let t = Live::new(1);
        // Machine 5 doesn't exist: no row counts it, and the total is the
        // row's sum.
        t.per_sent.add(5, 10);
        let s = t.snapshot(0);
        assert_eq!(s.sent, 0);
        assert_eq!(s.per_sent, vec![0]);
        // A table of no machines counts nowhere.
        let t = Live::new(0);
        t.per_sent.add(0, 1);
        assert_eq!(t.snapshot(0).per_sent, Vec::<u64>::new());
    }

    #[test]
    fn note_bumps_only_the_row_that_names_the_event() {
        let t = Live::new(1);
        t.note(Kind::Shed);
        t.note(Kind::Shed);
        t.note(Kind::Send);
        let s = t.snapshot(0);
        assert_eq!((s.sent, s.reads, s.sheds), (0, 0, 2));
        assert_eq!(s.mirrored(), vec![("sheds", Kind::Shed, 2)]);
    }

    #[test]
    fn wire_gets_the_fields_in_row_order() {
        assert_eq!(
            Snap::FIELDS,
            ["sent", "per_sent", "reads", "live_objects", "sheds"]
        );
    }

    #[test]
    fn delivered_bytes_accumulate_per_machine() {
        let m = Metrics::new(2);
        m.per_machine_bytes_received.add(0, 64);
        m.per_machine_bytes_received.add(0, 36);
        m.per_machine_bytes_received.add(1, 8);
        let s = m.snapshot();
        assert_eq!(s.per_machine_bytes_received, vec![100, 8]);

        // And they diff like every other counter.
        let before = s;
        m.per_machine_bytes_received.add(1, 5);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.per_machine_bytes_received, vec![0, 5]);
    }

    #[test]
    fn since_diffs_counters() {
        let t = Live::new(2);
        t.per_sent.add(0, 1);
        t.reads.bump();
        let before = t.snapshot(4);
        t.per_sent.add(1, 2);
        t.reads.bump();
        t.note(Kind::Shed);
        let delta = t.snapshot(6).since(&before);
        let want = Snap {
            sent: 2,
            per_sent: vec![0, 2],
            reads: 1,
            live_objects: 2,
            sheds: 1,
        };
        assert_eq!(delta, want);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let a = Snap {
            per_sent: vec![1, 1],
            ..Default::default()
        };
        let b = Snap {
            sent: 5,
            per_sent: vec![3],
            reads: 2,
            live_objects: 9,
            sheds: 1,
        };
        let want = Snap {
            per_sent: vec![0, 1],
            ..Default::default()
        };
        assert_eq!(a.since(&b), want);
    }
}
