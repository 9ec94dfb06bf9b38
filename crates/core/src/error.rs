//! The error type that crosses the wire.
//!
//! A remote method can fail on the *far* side (no such object, application
//! error, bad arguments) or on the *near* side (network down, timeout).
//! Both kinds surface as [`RemoteError`], which is itself wire-encodable so
//! servers can ship failures back to callers.

use std::fmt;

use wire::{wire_enum, WireError};

use crate::ids::ObjRef;

/// Any failure of a remote operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The target object id does not exist on the target machine (it was
    /// never created, or its destructor already ran).
    NoSuchObject { machine: usize, object: u64 },
    /// `new(machine i) T(...)` named a class the runtime has never heard of
    /// — the class was not registered with the cluster builder.
    NoSuchClass { class: String },
    /// The target class has no method with this name (protocol mismatch, or
    /// a call to a derived-class method through a base object).
    NoSuchMethod { class: String, method: String },
    /// A payload failed to decode; carries the decoder's message.
    Decode { detail: String },
    /// The destination machine id is outside the cluster.
    BadMachine { machine: usize, machines: usize },
    /// The far machine has shut down or its inbox is gone.
    Disconnected { machine: usize },
    /// No reply within the configured window, across every attempt the
    /// [`CallPolicy`](crate::CallPolicy) allowed. With a single-attempt
    /// policy the usual cause in oopp programs is distributed deadlock:
    /// object A's method is blocked on a call to object B while B's method
    /// is blocked on a call back to A (each request parked in the other's
    /// mailbox). With retries enabled, exhausting them usually means
    /// the target machine is crashed or partitioned away — the caller can
    /// fail over via snapshot reactivation (see
    /// [`resolve_or_activate_supervised`](crate::naming::resolve_or_activate_supervised)).
    Timeout {
        /// Machine the unanswered call targeted.
        machine: usize,
        /// Object the unanswered call targeted (0 = daemon).
        object: u64,
        /// Send attempts made (1 = no retries were configured).
        attempts: u32,
        /// Total time spent waiting, summed over all attempts.
        millis: u64,
    },
    /// The class is not persistent: no snapshot/restore support.
    NotPersistent { class: String },
    /// No stored snapshot under this key on this machine.
    NoSuchSnapshot { key: String },
    /// Application-level failure raised by a server method body.
    App { detail: String },
    /// The object was migrated away; a forwarding stub at its old address
    /// redirects the caller to `to` (see
    /// [`NodeCtx::migrate`](crate::NodeCtx::migrate)). Callers normally
    /// never observe this: the engine chases one forward transparently and
    /// only surfaces `Moved` when the forward itself points at a second
    /// forward — the signal to re-resolve through the naming directory.
    Moved { to: ObjRef },
    /// The request carried an incarnation epoch below (or above) the one the
    /// server holds for the target object — the caller's pointer refers to a
    /// superseded incarnation, or the server itself has been superseded and
    /// self-fenced. Either way the write must not happen here: the caller
    /// re-resolves through the naming directory, which records the epoch of
    /// the live incarnation (see DESIGN.md §10).
    Fenced { current_epoch: u64 },
    /// A read replica refused the call because its coherence lease had
    /// expired or the caller's replica-set epoch is ahead of the replica's —
    /// the replica can no longer prove it has seen every acknowledged write.
    /// The caller retries at the `primary`, which is always coherent, and
    /// drops the replica from its local route until the replica manager
    /// re-syncs it (see DESIGN.md §11).
    StaleReplica {
        /// The primary (authoritative) copy to retry against.
        primary: ObjRef,
        /// Replica-set epoch the replica last synced at.
        rs_epoch: u64,
    },
    /// The object is the primary of a live replica set and therefore
    /// unmovable: migrating it would strand the replicas' write-through
    /// routes. Unreplicate it first (`ReplicaManager::unreplicate`), then
    /// migrate it.
    Replicated { object: u64 },
    /// The call's propagated deadline expired before the work ran — at the
    /// client (budget spent waiting), at admission, or at execution time
    /// under the shard lock (see DESIGN.md §15). The work was **not**
    /// executed; retrying with the same deadline is pointless.
    DeadlineExceeded {
        /// Nanoseconds past the deadline when the call was dropped
        /// (0 = the budget was already zero on arrival).
        elapsed_nanos: u64,
    },
    /// The server refused to queue the request — its mailbox cap or the
    /// machine's in-flight budget was exceeded (cheap reject, never
    /// queued), or a client-side circuit breaker for the destination is
    /// open and failed the call without touching the network
    /// (`queue_depth == 0` in that case). Back off for at least
    /// `retry_after_nanos` before retrying; blind immediate retries
    /// amplify the brownout.
    Overloaded {
        /// Queue depth observed at the rejecting server (its mailbox or
        /// in-flight count), 0 for client-side breaker fast-fails.
        queue_depth: u64,
        /// Server's backoff hint before the caller should retry.
        retry_after_nanos: u64,
    },
}

wire_enum!(RemoteError {
    0 => NoSuchObject { machine, object },
    1 => NoSuchClass { class },
    2 => NoSuchMethod { class, method },
    3 => Decode { detail },
    4 => BadMachine { machine, machines },
    5 => Disconnected { machine },
    6 => Timeout { machine, object, attempts, millis },
    7 => NotPersistent { class },
    8 => NoSuchSnapshot { key },
    9 => App { detail },
    10 => Moved { to },
    11 => Fenced { current_epoch },
    12 => StaleReplica { primary, rs_epoch },
    13 => Replicated { object },
    14 => DeadlineExceeded { elapsed_nanos },
    15 => Overloaded { queue_depth, retry_after_nanos },
});

impl RemoteError {
    /// Construct an application-level error from anything printable.
    pub fn app(detail: impl fmt::Display) -> Self {
        RemoteError::App {
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::NoSuchObject { machine, object } => {
                write!(f, "no object {object} on machine {machine}")
            }
            RemoteError::NoSuchClass { class } => {
                write!(f, "class {class:?} is not registered with this cluster")
            }
            RemoteError::NoSuchMethod { class, method } => {
                write!(f, "class {class:?} has no method {method:?}")
            }
            RemoteError::Decode { detail } => write!(f, "wire decode failed: {detail}"),
            RemoteError::BadMachine { machine, machines } => {
                write!(f, "machine {machine} out of range (cluster has {machines})")
            }
            RemoteError::Disconnected { machine } => {
                write!(f, "machine {machine} is disconnected")
            }
            RemoteError::Timeout {
                machine,
                object,
                attempts,
                millis,
            } => {
                if *attempts <= 1 {
                    write!(
                        f,
                        "no reply from machine {machine} object {object} after \
                         {millis} ms (possible distributed deadlock)"
                    )
                } else {
                    write!(
                        f,
                        "no reply from machine {machine} object {object} after \
                         {attempts} attempts over {millis} ms (machine crashed \
                         or partitioned?)"
                    )
                }
            }
            RemoteError::NotPersistent { class } => {
                write!(f, "class {class:?} does not support persistence")
            }
            RemoteError::NoSuchSnapshot { key } => {
                write!(f, "no snapshot stored under key {key:?}")
            }
            RemoteError::App { detail } => write!(f, "application error: {detail}"),
            RemoteError::Moved { to } => {
                write!(
                    f,
                    "object migrated to machine {} object {} (stale pointer; re-resolve)",
                    to.machine, to.object
                )
            }
            RemoteError::Fenced { current_epoch } => {
                write!(
                    f,
                    "request fenced: object is at incarnation epoch {current_epoch} \
                     (stale or superseded pointer; re-resolve)"
                )
            }
            RemoteError::StaleReplica { primary, rs_epoch } => {
                write!(
                    f,
                    "read replica stale at replica-set epoch {rs_epoch}; retry \
                     at primary machine {} object {}",
                    primary.machine, primary.object
                )
            }
            RemoteError::Replicated { object } => {
                write!(
                    f,
                    "object {object} is replicated and unmovable; unreplicate \
                     first (or scale the replica set instead)"
                )
            }
            RemoteError::DeadlineExceeded { elapsed_nanos } => {
                write!(
                    f,
                    "deadline exceeded: call dropped {elapsed_nanos} ns past \
                     its propagated deadline (work was not executed)"
                )
            }
            RemoteError::Overloaded {
                queue_depth,
                retry_after_nanos,
            } => {
                if *queue_depth == 0 {
                    write!(
                        f,
                        "destination overloaded: circuit breaker open, retry \
                         after {retry_after_nanos} ns"
                    )
                } else {
                    write!(
                        f,
                        "server overloaded: request rejected at admission \
                         (queue depth {queue_depth}), retry after \
                         {retry_after_nanos} ns"
                    )
                }
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Decode {
            detail: e.to_string(),
        }
    }
}

/// Result alias for remote operations.
pub type RemoteResult<T> = Result<T, RemoteError>;

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{from_bytes, to_bytes};

    /// One value of each `wire_enum!` variant, in tag order.
    fn one_of_each() -> [RemoteError; 16] {
        [
            RemoteError::NoSuchObject {
                machine: 3,
                object: 17,
            },
            RemoteError::NoSuchClass {
                class: "FFT".into(),
            },
            RemoteError::NoSuchMethod {
                class: "PageDevice".into(),
                method: "frobnicate".into(),
            },
            RemoteError::Decode {
                detail: "bad varint".into(),
            },
            RemoteError::BadMachine {
                machine: 9,
                machines: 4,
            },
            RemoteError::Disconnected { machine: 1 },
            RemoteError::Timeout {
                machine: 2,
                object: 11,
                attempts: 3,
                millis: 10_000,
            },
            RemoteError::NotPersistent {
                class: "Barrier".into(),
            },
            RemoteError::NoSuchSnapshot {
                key: "oopp://x".into(),
            },
            RemoteError::app("page index 99 out of range"),
            RemoteError::Moved {
                to: ObjRef {
                    machine: 2,
                    object: 41,
                },
            },
            RemoteError::Fenced { current_epoch: 7 },
            RemoteError::StaleReplica {
                primary: ObjRef {
                    machine: 0,
                    object: 13,
                },
                rs_epoch: 4,
            },
            RemoteError::Replicated { object: 99 },
            RemoteError::DeadlineExceeded {
                elapsed_nanos: 1_500_000,
            },
            RemoteError::Overloaded {
                queue_depth: 4096,
                retry_after_nanos: 2_000_000,
            },
        ]
    }

    #[test]
    fn errors_roundtrip_the_wire() {
        for e in one_of_each() {
            assert_eq!(from_bytes::<RemoteError>(&to_bytes(&e)).unwrap(), e);
        }
    }

    /// A message is one sentence on one line: a lost `\` continuation in a
    /// string literal shows as a run of spaces or a line break.
    #[test]
    fn every_variant_renders_as_one_line_without_double_spaces() {
        for e in one_of_each() {
            let text = e.to_string();
            assert!(
                !text.contains('\n') && !text.contains("  "),
                "{e:?} renders {text:?}"
            );
        }
    }

    #[test]
    fn wire_errors_convert() {
        let we = WireError::InvalidUtf8;
        let re: RemoteError = we.into();
        assert!(matches!(re, RemoteError::Decode { .. }));
        assert!(re.to_string().contains("UTF-8"));
    }

    #[test]
    fn display_mentions_key_facts() {
        let e = RemoteError::NoSuchObject {
            machine: 2,
            object: 5,
        };
        assert!(e.to_string().contains("machine 2"));
        let e = RemoteError::Timeout {
            machine: 0,
            object: 4,
            attempts: 1,
            millis: 250,
        };
        assert!(e.to_string().contains("deadlock"));
        assert!(e.to_string().contains("machine 0"));
        let e = RemoteError::Timeout {
            machine: 3,
            object: 4,
            attempts: 5,
            millis: 900,
        };
        assert!(e.to_string().contains("5 attempts"), "got {e}");
        assert!(!e.to_string().contains("deadlock"));
    }
}
