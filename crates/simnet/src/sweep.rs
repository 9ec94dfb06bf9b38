//! One runner for every randomized test. [`cases`]`(name, n, body)` runs
//! `body` on `n` [`Case`]s; case `i` is seeded from the FNV-1a hash of
//! `name` and `i` and draws through [`mix`], so it is the same input on
//! every host. A panicking case prints `SIMNET_SEED=0x… cargo test <name>`
//! and unwinds again; with `SIMNET_SEED` set, only that case runs. No
//! shrinking: a failing case is replayed, not minimised. [`env_seed`] is
//! the one reader of `SIMNET_SEED`, for the chaos soak and the workload
//! runner too.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use crate::faults::{mix, unit, GAMMA};

/// Run `body` on `n` seeded cases, or on the one `SIMNET_SEED` names.
pub fn cases(name: &str, n: u32, mut body: impl FnMut(&mut Case)) {
    for seed in seeds(name, n, env_seed()) {
        let run = panic::catch_unwind(AssertUnwindSafe(|| body(&mut Case::new(seed))));
        if let Err(payload) = run {
            eprintln!("{}", replay_line(name, seed));
            panic::resume_unwind(payload);
        }
    }
}

fn seeds(name: &str, n: u32, replay: Option<u64>) -> Vec<u64> {
    let fnv = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    replay.map_or_else(
        || (0..n).map(|i| mix(fnv ^ i as u64)).collect(),
        |s| vec![s],
    )
}

/// The line a failing case prints: it replays that case alone.
fn replay_line(name: &str, seed: u64) -> String {
    format!("SIMNET_SEED={seed:#018x} cargo test {name}")
}

/// `0x`/`0X` hex or decimal, `_` anywhere, blanks around ignored.
fn parse_seed(text: &str) -> Option<u64> {
    let clean = text.trim().replace('_', "");
    match clean.strip_prefix("0x").or(clean.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => clean.parse().ok(),
    }
}

/// The seed `SIMNET_SEED` names — `0x`/`0X` hex or decimal, `_` anywhere
/// — if it is set and parses.
pub fn env_seed() -> Option<u64> {
    parse_seed(&std::env::var("SIMNET_SEED").ok()?)
}

/// One case's inputs: the SplitMix64 stream `mix(seed + k·γ)`.
#[derive(Debug, Clone)]
pub struct Case(u64);

impl Case {
    pub fn new(seed: u64) -> Case {
        Case(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let word = mix(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        word
    }

    /// Uniform in `0..n` (modulo bias aside).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in a non-empty `range`.
    pub fn range<T: Draw>(&mut self, range: Range<T>) -> T {
        T::draw(self, range)
    }

    /// True with probability `p`.
    pub fn coin(&mut self, p: f64) -> bool {
        unit(self.next_u64()) < p
    }

    /// Any bit pattern, NaNs and infinities included.
    pub fn any_f64(&mut self) -> f64 {
        f64::from_bits(self.next_u64())
    }

    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |c| c.next_u64() as u8)
    }

    /// Mostly printable ASCII, some two- and three-byte UTF-8.
    pub fn string(&mut self, len: Range<usize>) -> String {
        let char_of = |c: &mut Case| match c.below(8) {
            0 => char::from_u32(0xc0 + c.below(0x100) as u32),
            1 => char::from_u32(0x4e00 + c.below(0x100) as u32),
            _ => char::from_u32(0x20 + c.below(0x5f) as u32),
        };
        self.vec(len, |c| char_of(c).unwrap_or('?'))
            .into_iter()
            .collect()
    }

    pub fn vec<T>(&mut self, len: Range<usize>, mut each: impl FnMut(&mut Case) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| each(self)).collect()
    }
}

/// A type [`Case::range`] draws from.
pub trait Draw: Sized {
    fn draw(case: &mut Case, range: Range<Self>) -> Self;
}

macro_rules! draw_ints {
    ($($t:ty),*) => {$(impl Draw for $t {
        fn draw(case: &mut Case, r: Range<$t>) -> $t {
            assert!(r.start < r.end, "empty range {r:?}");
            (r.start as i128 + case.below((r.end as i128 - r.start as i128) as u64) as i128) as $t
        }
    })*};
}

draw_ints!(u8, u16, u32, u64, usize, i32, i64);

impl Draw for f64 {
    fn draw(case: &mut Case, r: Range<f64>) -> f64 {
        r.start + unit(case.next_u64()) * (r.end - r.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(case: &mut Case) -> Vec<u64> {
        (0..4).map(|_| case.next_u64()).collect()
    }

    /// The inputs of a sweep's cases, as `cases` would draw them without
    /// a replay seed.
    fn inputs(name: &str, n: u32) -> Vec<Vec<u64>> {
        let cases = seeds(name, n, None);
        cases
            .into_iter()
            .map(|s| draws(&mut Case::new(s)))
            .collect()
    }

    #[test]
    fn a_sweep_is_deterministic_per_name_and_case() {
        let first = inputs("sweep::determinism", 6);
        assert_eq!(first, inputs("sweep::determinism", 6));
        let distinct: std::collections::BTreeSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 6, "every case is its own stream");
        let other = inputs("sweep::another_name", 6);
        assert!(other.iter().all(|d| !first.contains(d)));
    }

    /// The line a failing case prints names a seed that, read back through
    /// the parser `SIMNET_SEED` goes through, runs that case alone and
    /// rebuilds its exact input.
    #[test]
    fn the_printed_seed_replays_the_failing_case() {
        let name = "sweep::replay";
        let failing = seeds(name, 20, None)[4];
        let line = replay_line(name, failing);
        assert!(line.ends_with(name));
        let printed = line
            .strip_prefix("SIMNET_SEED=")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(parse_seed)
            .expect("the line starts with a parsable seed");
        assert_eq!(seeds(name, 20, Some(printed)), [failing]);
        assert_eq!(draws(&mut Case::new(printed)), inputs(name, 20)[4]);
    }

    /// A failing case panics through `cases` with its own message.
    #[test]
    #[should_panic(expected = "the case failed")]
    fn a_failing_case_unwinds_through_the_runner() {
        cases("sweep::unwinds", 3, |_| panic!("the case failed"));
    }

    #[test]
    fn the_seed_grammar_is_hex_or_decimal_with_underscores() {
        for (text, want) in [
            ("0x50AC_C0DE", Some(0x50AC_C0DE)),
            ("0X1f", Some(0x1f)),
            (" 1_000 ", Some(1000)),
            ("42", Some(42)),
            ("0x", None),
            ("seed", None),
            ("-1", None),
        ] {
            assert_eq!(parse_seed(text), want, "{text:?}");
        }
    }

    #[test]
    fn draws_stay_in_their_ranges() {
        cases("sweep::ranges", 64, |c| {
            assert!((3u8..9).contains(&c.range(3u8..9)));
            assert!((-5i64..5).contains(&c.range(-5i64..5)));
            assert!(c.range(0u64..u64::MAX) < u64::MAX);
            let x = c.range(0.25..0.5);
            assert!((0.25..0.5).contains(&x));
            assert!(c.string(0..12).chars().count() < 12);
            assert_eq!(c.bytes(7..8).len(), 7);
            assert!(!c.coin(0.0) && c.coin(1.0));
        });
    }
}
