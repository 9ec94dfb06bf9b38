//! Scenario specification: the TOML file that fully determines a run.
//!
//! The build environment vendors no TOML crate, so this module carries
//! a deliberately small parser for the subset the harness needs:
//! `[section]` headers, `key = value` pairs (integers, floats, quoted
//! strings), and `#` comments. Unknown sections or keys are
//! errors — a typo in an SLO threshold must not silently become the
//! default.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::loadgen::ArrivalCurve;
use crate::slo::{SloSpec, SloTargets};

/// The sections of a scenario file, in canonical order.
const SECTIONS: [&str; 5] = ["cluster", "scenario", "load", "faults", "slo"];

/// The scalar keys of a scenario file, declared once: a struct from a
/// table of `[section]` headers over `key: type = default;` rows (then,
/// after `..`, fields with a hand-written file syntax). From the table
/// come the public struct, its `Default`, the parser's `[section] key`
/// dispatch (`assign`) and the canonical rendering of a section
/// (`render`) — so a new key is one row, and cannot be parsed under one
/// name, rendered under another, or left out of either.
macro_rules! spec_fields {
    (@read f64 $v:expr) => { $crate::config::num($v).ok_or("a number") };
    (@read $int:ident $v:expr) => {
        // Never narrow silently: `dir_shards = 4294967297` is not 1.
        $crate::config::int($v)
            .and_then(|i| $int::try_from(i).ok())
            .ok_or(concat!("an integer that fits ", stringify!($int)))
    };
    (@show f64 $x:expr) => { $crate::config::fmt_f64($x) };
    (@show $int:ident $x:expr) => { $x.to_string() };
    (
        $(#[$meta:meta])*
        pub struct $Spec:ident {
            $( [$section:ident] $( $(#[$doc:meta])* $key:ident: $ty:ident = $default:expr; )+ )+
            $( .. $( $(#[$xdoc:meta])* $xkey:ident: $xty:ty = $xdefault:expr; )+ )?
        }
    ) => {
        $(#[$meta])*
        pub struct $Spec {
            $($( $(#[$doc])* pub $key: $ty, )+)+
            $($( $(#[$xdoc])* pub $xkey: $xty, )+)?
        }

        impl Default for $Spec {
            fn default() -> Self {
                $Spec {
                    $($( $key: $default, )+)+
                    $($( $xkey: $xdefault, )+)?
                }
            }
        }

        impl $Spec {
            /// Store `value` under `[section] key` if the table has that
            /// row (`None` if not); `Err` names the type the row wants.
            pub(crate) fn assign(
                &mut self,
                section: &str,
                key: &str,
                value: &str,
            ) -> Option<Result<(), &'static str>> {
                $($( if section == stringify!($section) && key == stringify!($key) {
                    return Some($crate::config::spec_fields!(@read $ty value).map(|v| self.$key = v));
                } )+)+
                None
            }

            /// Append the table's `key = value` lines of `section`.
            pub(crate) fn render(&self, section: &str, out: &mut String) {
                $($( if section == stringify!($section) {
                    let value = $crate::config::spec_fields!(@show $ty self.$key);
                    out.push_str(&format!("{} = {value}\n", stringify!($key)));
                } )+)+
            }
        }
    };
}

spec_fields! {
    /// Everything a run needs; `seed` plus this struct determine the run
    /// byte for byte (DESIGN.md §16 determinism contract).
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioSpec {
        [cluster]
        /// Worker machines (the driver is an extra, separate node).
        machines: usize = 6;
        /// Directory shards (0 = root directory only).
        dir_shards: u32 = 2;
        /// Scheduler worker lanes per machine (0 = single-threaded).
        sched_workers: usize = 2;
        /// Virtual-time seed; `SIMNET_SEED` overrides it for replay.
        seed: u64 = 0xE16_2026;
        /// Per-object mailbox admission cap.
        mailbox_cap: usize = 64;
        [scenario]
        /// `User` objects.
        users: usize = 24;
        /// `Session` objects.
        sessions: usize = 24;
        /// `Feed` objects; feed 0 is the Zipf head and gets the replicas.
        feeds: usize = 12;
        /// Read replicas materialized for the hot feed.
        hot_replicas: usize = 2;
        /// Modeled service time per verb, microseconds.
        service_us: u64 = 120;
        /// Zipf skew across feeds.
        zipf_s: f64 = 1.1;
        [load]
        /// Peak closed-loop window (the N virtual clients).
        clients: usize = 24;
        /// Total requests to issue.
        requests: usize = 2400;
        /// Writes per thousand requests.
        write_permille: u32 = 120;
        /// Per-request deadline, milliseconds.
        deadline_ms: u64 = 40;
        [faults]
        /// Crash the hot feed's home machine this far into the run
        /// (virtual ms); 0 disables the episode.
        crash_at_ms: u64 = 0;
        /// Latency-spike a replica machine this far into the run
        /// (virtual ms); 0 disables the episode.
        spike_at_ms: u64 = 0;
        /// Spike duration, virtual ms.
        spike_dur_ms: u64 = 150;
        /// Extra per-message latency while spiked, milliseconds.
        spike_extra_ms: u64 = 2;
        ..
        /// Arrival curve shaping the window over the run (`[load] curve`
        /// and its `curve_*` arguments).
        curve: ArrivalCurve = ArrivalCurve::Diurnal { period_ms: 400, trough: 0.4 };
        /// The gates `reproduce e16` asserts (`[slo]`).
        slo: SloTargets = SloTargets::default();
    }
}

pub(crate) use spec_fields;

impl ScenarioSpec {
    /// The per-request deadline as a `Duration`.
    pub fn deadline(&self) -> Duration {
        Duration::from_millis(self.deadline_ms)
    }

    /// The run's seed, with the `SIMNET_SEED` environment variable
    /// taking precedence — the same one-line replay knob the chaos
    /// soak uses.
    pub fn effective_seed(&self) -> u64 {
        simnet::sweep::env_seed().unwrap_or(self.seed)
    }

    /// The SLO gate list in evaluation order.
    pub fn slos(&self) -> Vec<SloSpec> {
        self.slo.specs()
    }

    /// Parse the TOML subset; unknown sections/keys and malformed
    /// values are errors.
    pub fn from_toml(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::default();
        let mut curve_name = None;
        let mut curve_args: BTreeMap<&str, &str> = BTreeMap::new();
        let mut section = "";
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim();
                if !SECTIONS.contains(&section) {
                    return Err(format!("line {}: unknown section [{section}]", lineno + 1));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |want: &str| format!("line {}: [{section}] {key} must be {want}", lineno + 1);
            let assigned = spec
                .assign(section, key, value)
                .or_else(|| spec.slo.assign(section, key, value));
            match (assigned, section, key) {
                (Some(stored), ..) => stored.map_err(bad)?,
                (None, "load", "curve") => {
                    curve_name = Some(string(value).ok_or_else(|| bad("a string"))?)
                }
                (None, "load", k) if CURVE_ARGS.contains(&k) => {
                    curve_args.insert(key, value);
                }
                _ => {
                    return Err(format!(
                        "line {}: unknown key [{section}] {key}",
                        lineno + 1
                    ))
                }
            }
        }
        if let Some(name) = curve_name {
            spec.curve = curve_from_parts(name, &curve_args)?;
        } else if !curve_args.is_empty() {
            return Err("curve_* keys given without a `curve` name".into());
        }
        if spec.machines < 3 {
            return Err(
                "cluster.machines must be >= 3 (primary home + replica home + tail)".into(),
            );
        }
        if spec.feeds == 0 || spec.clients == 0 || spec.requests == 0 {
            return Err("scenario.feeds, load.clients and load.requests must be > 0".into());
        }
        // The request mix draws `% users` and `% sessions`.
        if spec.users == 0 || spec.sessions == 0 {
            return Err("scenario.users and scenario.sessions must be > 0".into());
        }
        // (`machines >= 3` above: the subtraction cannot wrap, where
        // `hot_replicas + 2` could.)
        if spec.hot_replicas > spec.machines - 2 {
            return Err("scenario.hot_replicas needs machines >= hot_replicas + 2".into());
        }
        Ok(spec)
    }

    /// Canonical rendering; `from_toml(to_toml(s)) == s`.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for section in SECTIONS {
            let gap = if out.is_empty() { "" } else { "\n" };
            out.push_str(&format!("{gap}[{section}]\n"));
            self.render(section, &mut out);
            self.slo.render(section, &mut out);
            if section == "load" {
                self.render_curve(&mut out);
            }
        }
        out
    }

    fn render_curve(&self, out: &mut String) {
        let (name, args) = match &self.curve {
            ArrivalCurve::Steady => ("steady", vec![]),
            ArrivalCurve::Diurnal { period_ms, trough } => (
                "diurnal",
                vec![
                    ("period_ms", period_ms.to_string()),
                    ("trough", fmt_f64(*trough)),
                ],
            ),
            ArrivalCurve::Spike {
                at_ms,
                dur_ms,
                factor,
            } => (
                "spike",
                vec![
                    ("at_ms", at_ms.to_string()),
                    ("dur_ms", dur_ms.to_string()),
                    ("factor", fmt_f64(*factor)),
                ],
            ),
        };
        out.push_str(&format!("curve = \"{name}\"\n"));
        for (arg, value) in args {
            out.push_str(&format!("curve_{arg} = {value}\n"));
        }
    }
}

/// Render a float so the TOML round trip is exact and canonical
/// (`1` becomes `1.0`, everything else uses the shortest repr).
pub(crate) fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` only opens a comment outside quotes.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The `[load]` keys that parameterize the arrival curve.
const CURVE_ARGS: [&str; 5] = [
    "curve_period_ms",
    "curve_trough",
    "curve_at_ms",
    "curve_dur_ms",
    "curve_factor",
];

fn curve_from_parts(name: &str, args: &BTreeMap<&str, &str>) -> Result<ArrivalCurve, String> {
    let u = |k: &str, d: u64| args.get(k).map_or(Some(d), |v| int(v));
    let f = |k: &str, d: f64| args.get(k).map_or(Some(d), |v| num(v));
    match name {
        "steady" => Ok(ArrivalCurve::Steady),
        "diurnal" => Ok(ArrivalCurve::Diurnal {
            period_ms: u("curve_period_ms", 400).ok_or("curve_period_ms must be an integer")?,
            trough: f("curve_trough", 0.4).ok_or("curve_trough must be a number")?,
        }),
        "spike" => Ok(ArrivalCurve::Spike {
            at_ms: u("curve_at_ms", 0).ok_or("curve_at_ms must be an integer")?,
            dur_ms: u("curve_dur_ms", 100).ok_or("curve_dur_ms must be an integer")?,
            factor: f("curve_factor", 2.0).ok_or("curve_factor must be a number")?,
        }),
        other => Err(format!("unknown arrival curve {other:?}")),
    }
}

/// An integer as a scenario file spells it: decimal or `0x` hex, with
/// `_` separators allowed.
pub(crate) fn int(text: &str) -> Option<u64> {
    let clean = text.replace('_', "");
    match clean.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => clean.parse().ok(),
    }
}

/// A number: any integer, or a float.
pub(crate) fn num(text: &str) -> Option<f64> {
    let float = || text.replace('_', "").parse().ok();
    int(text).map(|i| i as f64).or_else(float)
}

/// A double-quoted string.
fn string(text: &str) -> Option<&str> {
    text.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_toml() {
        let spec = ScenarioSpec::default();
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(spec, back);
        // Canonical: rendering the parse reproduces the text.
        assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn every_curve_round_trips() {
        for curve in [
            ArrivalCurve::Steady,
            ArrivalCurve::Diurnal {
                period_ms: 250,
                trough: 0.25,
            },
            ArrivalCurve::Spike {
                at_ms: 30,
                dur_ms: 60,
                factor: 3.0,
            },
        ] {
            let spec = ScenarioSpec {
                curve,
                ..ScenarioSpec::default()
            };
            assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        }
    }

    #[test]
    fn comments_hex_and_underscores_parse() {
        let spec = ScenarioSpec::from_toml(
            "# a scenario\n[cluster]\nseed = 0xE16_2026 # replayable\n[load]\nrequests = 1_200\n",
        )
        .unwrap();
        assert_eq!(spec.seed, 0xE16_2026);
        assert_eq!(spec.requests, 1200);
    }

    #[test]
    fn unknown_keys_and_sections_are_errors() {
        assert!(ScenarioSpec::from_toml("[cluster]\nmachine = 4\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(ScenarioSpec::from_toml("[clutser]\n")
            .unwrap_err()
            .contains("unknown section"));
        assert!(ScenarioSpec::from_toml("[load]\ncurve = \"bursty\"\n")
            .unwrap_err()
            .contains("unknown arrival curve"));
        assert!(ScenarioSpec::from_toml("[cluster]\nmachines = 2\n").is_err());
        for key in ["users", "sessions"] {
            let refused = ScenarioSpec::from_toml(&format!("[scenario]\n{key} = 0\n"));
            assert!(refused.unwrap_err().contains(&format!("scenario.{key}")));
        }
    }

    /// The canonical rendering is a file format: pinned text, not just a
    /// round trip.
    #[test]
    fn rendering_matches_the_golden_text() {
        let spec = ScenarioSpec {
            curve: ArrivalCurve::Spike {
                at_ms: 30,
                dur_ms: 60,
                factor: 3.0,
            },
            ..ScenarioSpec::default()
        };
        assert_eq!(
            spec.to_toml(),
            "[cluster]\nmachines = 6\ndir_shards = 2\nsched_workers = 2\nseed = 236331046\n\
             mailbox_cap = 64\n\n[scenario]\nusers = 24\nsessions = 24\nfeeds = 12\n\
             hot_replicas = 2\nservice_us = 120\nzipf_s = 1.1\n\n[load]\nclients = 24\n\
             requests = 2400\nwrite_permille = 120\ndeadline_ms = 40\ncurve = \"spike\"\n\
             curve_at_ms = 30\ncurve_dur_ms = 60\ncurve_factor = 3.0\n\n[faults]\n\
             crash_at_ms = 0\nspike_at_ms = 0\nspike_dur_ms = 150\nspike_extra_ms = 2\n\n\
             [slo]\nread_p99_ms = 8.0\nread_goodput = 0.95\nwrite_p99_ms = 12.0\n\
             write_goodput = 0.9\n"
        );
    }

    /// An integer too large for its key is an error on its line, never a
    /// silent narrowing (`4294967297` shards must not parse as 1).
    #[test]
    fn out_of_range_integers_are_line_numbered_errors() {
        let err = ScenarioSpec::from_toml("[cluster]\ndir_shards = 4294967297\n").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("dir_shards"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml("[load]\n\nwrite_permille = 0x1_0000_0000\n");
        let err = err.unwrap_err();
        assert!(err.contains("line 3") && err.contains("fits u32"), "{err}");
        let max = ScenarioSpec::from_toml("[cluster]\ndir_shards = 4294967295\n").unwrap();
        assert_eq!(max.dir_shards, u32::MAX);
        // Wrong type altogether: same shape of error.
        let err = ScenarioSpec::from_toml("[slo]\nread_p99_ms = \"fast\"\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("a number"), "{err}");
    }

    /// Regression: `hot_replicas + 2 > machines` overflowed on a junk
    /// `hot_replicas` — a panic in a debug build; in release it wrapped
    /// and the spec was accepted.
    #[test]
    fn a_junk_hot_replica_count_is_refused() {
        for junk in ["0xffffffffffffffff", "18446744073709551614", "5"] {
            let text = format!("[scenario]\nhot_replicas = {junk}\n");
            let err = ScenarioSpec::from_toml(&text).unwrap_err();
            assert!(err.contains("hot_replicas"), "{junk}: {err}");
        }
        // Six machines seat the primary, four replicas and the tail.
        let most = ScenarioSpec::from_toml("[scenario]\nhot_replicas = 4\n").unwrap();
        assert_eq!(most.hot_replicas, 4);
    }

    /// Junk input for the TOML subset: seeded mutations of canonical
    /// scenarios — every line truncated at every character, bytes flipped,
    /// every value replaced by an edge value — each parse to `Ok` or `Err`,
    /// never a panic, and every spec that parses has an arrival curve that
    /// answers at every point of its run.
    #[test]
    fn junk_scenarios_parse_or_refuse_and_never_panic() {
        const EDGES: [&str; 6] = [
            "0",
            "-1",
            "nan",
            "inf",
            "18446744073709551615",
            "0x10000000000000000",
        ];
        let spike = ArrivalCurve::Spike {
            at_ms: 30,
            dur_ms: 60,
            factor: 3.0,
        };
        let bases: Vec<String> = [ArrivalCurve::Steady, spike, ScenarioSpec::default().curve]
            .into_iter()
            .map(|curve| {
                ScenarioSpec {
                    curve,
                    ..ScenarioSpec::default()
                }
                .to_toml()
            })
            .collect();
        let mut mutants = Vec::new();
        for base in &bases {
            let lines: Vec<&str> = base.lines().collect();
            let with_line = |i: usize, line: &str| {
                let mut edited = lines.clone();
                edited[i] = line;
                edited.join("\n")
            };
            for (i, line) in lines.iter().enumerate() {
                for (cut, _) in line.char_indices() {
                    mutants.push(with_line(i, &line[..cut]));
                }
                if let Some((key, _)) = line.split_once('=') {
                    for edge in EDGES {
                        mutants.push(with_line(i, &format!("{key}= {edge}")));
                    }
                }
            }
            let mut state = base.len() as u64;
            for _ in 0..2000 {
                let mut bytes = base.clone().into_bytes();
                for _ in 0..1 + state % 3 {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    let at = (state >> 33) as usize % bytes.len();
                    // Bits 0–6 only: the text stays ASCII.
                    bytes[at] ^= 1 << ((state >> 29) % 7);
                }
                mutants.push(String::from_utf8(bytes).expect("ASCII"));
            }
        }
        let (mut parsed, mut refused) = (0, 0);
        for text in &mutants {
            let spec = std::panic::catch_unwind(|| ScenarioSpec::from_toml(text))
                .unwrap_or_else(|_| panic!("the parser panicked on:\n{text}"));
            let Ok(spec) = spec else {
                refused += 1;
                continue;
            };
            parsed += 1;
            // Two seconds in steps of a little over 4 ms, then the far end.
            let run = (0..500u64).map(|i| i * 4_000_001);
            for elapsed in run.chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
                let window =
                    std::panic::catch_unwind(|| spec.curve.window_at(elapsed, spec.clients))
                        .unwrap_or_else(|_| panic!("{:?} at {elapsed} panicked", spec.curve));
                assert!(window >= 1, "{:?} at {elapsed}", spec.curve);
            }
        }
        assert!(
            parsed > 100 && refused > 100,
            "{parsed} parsed, {refused} refused"
        );
    }
}
