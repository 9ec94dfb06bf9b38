//! [`Trace::audit`]: the one judge of a traced run, a pure function of the
//! events the recorder keeps (DESIGN.md §8 states its rules).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use simnet::MachineId;

use super::EventKind::*;
use super::{Family, SpanEvent, Trace};
use crate::dedup::DEFAULT_DEDUP_CAPACITY;

/// The rule a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Call events trace back to their span's one send (DESIGN.md §8).
    Causality,
    /// A request runs at most once (DESIGN.md §6, §11).
    AtMostOnce,
    /// A dropped request never runs there afterwards (DESIGN.md §15).
    NoLateWork,
    /// Ring wrap-around let events go.
    Incomplete,
}

/// One breach: its rule, what happened, and each event it names as
/// `(machine, lane, at_nanos)`. It renders as one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    pub detail: String,
    pub events: Vec<(MachineId, u32, u64)>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.rule, self.detail)?;
        let at = |(m, lane, ns): &(MachineId, u32, u64)| format!("m{m}/{lane} @ {ns} ns");
        let sites: Vec<String> = self.events.iter().map(at).collect();
        if sites.is_empty() {
            return Ok(());
        }
        write!(f, " [{}]", sites.join(", "))
    }
}

fn breach(rule: Rule, detail: String, events: &[&SpanEvent]) -> Violation {
    let events = events.iter().map(|e| (e.machine, e.worker, e.at_nanos));
    Violation {
        rule,
        detail,
        events: events.collect(),
    }
}

impl Trace {
    /// Hold the run to its contract — causality, at most once, no late
    /// work — and report lost events. Empty means every rule held.
    pub fn audit(&self) -> Vec<Violation> {
        let mut out = causality(&self.events);
        out.extend(at_most_once(&self.events));
        out.extend(no_late_work(&self.events));
        if self.dropped > 0 {
            let lost = format!("{} events lost to ring wrap-around", self.dropped);
            out.push(breach(Rule::Incomplete, lost, &[]));
        }
        out
    }
}

/// Markers are origins; a call's own events need its span's one send, a
/// retransmit repeats that send's request id and method as attempt ≥ 2,
/// and a parent span exists.
fn causality(events: &[SpanEvent]) -> Vec<Violation> {
    let (mut sends, mut out) = (HashMap::new(), Vec::new());
    for e in events.iter().filter(|e| e.kind == ClientSend) {
        if let Some(first) = sends.insert(e.span_id, e) {
            let twice = format!("span {:#x} ({}) was sent twice", e.span_id, e.method);
            out.push(breach(Rule::Causality, twice, &[first, e]));
        }
    }
    let known: HashSet<u64> = events.iter().map(|e| e.span_id).collect();
    for e in events {
        let (span, method) = (e.span_id, &e.method);
        match sends.get(&span) {
            None if e.kind != ClientSend && e.kind.family() == Family::Call => {
                let label = e.kind.label();
                let orphan =
                    format!("{label} for span {span:#x} ({method}) has no originating send");
                out.push(breach(Rule::Causality, orphan, &[e]));
            }
            Some(send)
                if e.kind == ClientRetransmit
                    && (e.req_id != send.req_id || *method != send.method || e.attempt < 2) =>
            {
                let other = format!(
                    "retransmit {} of span {span:#x} ({method}, req {}) repeats no send of req {} ({})",
                    e.attempt, e.req_id, send.req_id, send.method
                );
                out.push(breach(Rule::Causality, other, &[send, e]));
            }
            _ => {}
        }
        if e.parent_span != 0 && !known.contains(&e.parent_span) {
            let parent = e.parent_span;
            let unknown = format!("span {span:#x} ({method}) names unknown parent {parent:#x}");
            out.push(breach(Rule::Causality, unknown, &[e]));
        }
    }
    out
}

/// One dispatch per `(reply_to, req_id)`. A read that fell back from a
/// replica may also have run once on the replica it left. A move's chase
/// (its old home never ran it) and a refence (a fresh id) are not excused,
/// nor is a run past the dedup window's horizon: the line says how many
/// keys came between.
fn at_most_once(events: &[SpanEvent]) -> Vec<Violation> {
    let mut runs: BTreeMap<(MachineId, u64), Vec<&SpanEvent>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == ServerDispatch) {
        runs.entry((e.peer, e.req_id)).or_default().push(e);
    }
    let mut out = Vec::new();
    for (key, runs) in runs.into_iter().filter(|(_, runs)| runs.len() > 1) {
        let machines: BTreeSet<MachineId> = runs.iter().map(|e| e.machine).collect();
        let fell_back = |e: &SpanEvent| e.kind == ReplicaFallback && (e.machine, e.req_id) == key;
        if runs.len() == 2 && machines.len() == 2 && events.iter().any(fell_back) {
            continue;
        }
        let (first, last) = (runs[0], runs[runs.len() - 1]);
        let between = events
            .iter()
            .filter(|e| e.kind == ServerAdmitNew && e.machine == last.machine)
            .filter(|e| (first.at_nanos..=last.at_nanos).contains(&e.at_nanos))
            .filter(|e| (e.peer, e.req_id) != key)
            .count();
        let ran = runs.len();
        let detail = format!(
            "request {} from m{} ({}) ran {ran} times; the dedup window keeps \
             {DEFAULT_DEDUP_CAPACITY} keys (DESIGN §6) and m{} admitted {between} others \
             between its first and last runs",
            key.1, key.0, first.method, last.machine
        );
        out.push(breach(Rule::AtMostOnce, detail, &runs));
    }
    out
}

/// A deadline or sojourn drop rides the span of the request it refused,
/// so the request is its `(machine, caller, req_id)`: no dispatch of that
/// key on that machine may come at or after the drop.
fn no_late_work(events: &[SpanEvent]) -> Vec<Violation> {
    // Walked backwards, so a key's first drop is the one kept.
    let dropped: HashMap<_, _> = events
        .iter()
        .rev()
        .filter(|e| matches!(e.kind, ServerDeadlineDrop | ServerSojournDrop))
        .map(|drop| ((drop.machine, drop.peer, drop.req_id), drop))
        .collect();
    let late = |run: &SpanEvent| {
        let (machine, caller, req) = (run.machine, run.peer, run.req_id);
        let drop = dropped.get(&(machine, caller, req))?;
        (drop.at_nanos <= run.at_nanos).then(|| {
            let (method, kind) = (&run.method, drop.kind.label());
            let detail =
                format!("m{machine} ran request {req} from m{caller} ({method}) after a {kind}");
            breach(Rule::NoLateWork, detail, &[drop, run])
        })
    };
    let runs = events.iter().filter(|e| e.kind == ServerDispatch);
    runs.filter_map(late).collect()
}
