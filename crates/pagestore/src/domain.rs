//! Array subdomains — the paper's `Domain` class (§5).
//!
//! A domain is a half-open box `[a1,b1) × [a2,b2) × [a3,b3)` of array
//! indices. The same type is a box on both sides of the wire: the §5
//! `Array` splits a global domain into pages with the intersection algebra
//! below, and each [`ArrayPageDevice`](crate::ArrayPageDevice) sub-box verb
//! takes the page-local domain it is sent. [`Domain::runs_in`] is the one
//! walk over a box's rows inside a row-major buffer.

use std::ops::Range;

use wire::{Reader, Wire, WireError, WireResult, Writer};

/// A half-open 3-D index box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain {
    /// Inclusive lower corner `(a1, a2, a3)`.
    pub a: [u64; 3],
    /// Exclusive upper corner `(b1, b2, b3)`.
    pub b: [u64; 3],
}

/// Bounds travel as `a1 a2 a3 b1 b2 b3`; a box decodes only if `a <= b`
/// on every axis, as [`Domain::new`] asserts.
impl Wire for Domain {
    fn encode(&self, w: &mut Writer) {
        self.a.encode(w);
        self.b.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let domain = Domain {
            a: Wire::decode(r)?,
            b: Wire::decode(r)?,
        };
        if !domain.is_ordered() {
            return Err(WireError::Invalid("domain bounds must satisfy a <= b"));
        }
        Ok(domain)
    }
    fn encoded_len_hint(&self) -> usize {
        self.a.encoded_len_hint() + self.b.encoded_len_hint()
    }
}

impl Domain {
    /// The box `[a1,b1) × [a2,b2) × [a3,b3)`.
    ///
    /// # Panics
    /// If any `a > b`.
    pub fn new(a1: u64, b1: u64, a2: u64, b2: u64, a3: u64, b3: u64) -> Self {
        assert!(
            a1 <= b1 && a2 <= b2 && a3 <= b3,
            "domain bounds must satisfy a <= b"
        );
        Domain {
            a: [a1, a2, a3],
            b: [b1, b2, b3],
        }
    }

    /// The whole `[0,n1) × [0,n2) × [0,n3)` box.
    pub fn whole(n1: u64, n2: u64, n3: u64) -> Self {
        Domain::new(0, n1, 0, n2, 0, n3)
    }

    /// A single point.
    pub fn point(i1: u64, i2: u64, i3: u64) -> Self {
        Domain::new(i1, i1 + 1, i2, i2 + 1, i3, i3 + 1)
    }

    /// Extent along each axis.
    pub fn extent(&self) -> [u64; 3] {
        [0, 1, 2].map(|d| self.b[d] - self.a[d])
    }

    /// Number of points.
    pub fn len(&self) -> u64 {
        self.extent().iter().product()
    }

    /// True when the box contains no points.
    pub fn is_empty(&self) -> bool {
        self.a.iter().zip(&self.b).any(|(a, b)| a == b)
    }

    /// True if `(i1, i2, i3)` lies inside.
    pub fn contains(&self, i1: u64, i2: u64, i3: u64) -> bool {
        let p = [i1, i2, i3];
        (0..3).all(|d| self.a[d] <= p[d] && p[d] < self.b[d])
    }

    fn is_ordered(&self) -> bool {
        (0..3).all(|d| self.a[d] <= self.b[d])
    }

    /// True if `other` lies entirely inside `self`. An empty box lies
    /// anywhere; an inverted one (some `a > b`) nowhere.
    pub fn contains_domain(&self, other: &Domain) -> bool {
        other.is_ordered()
            && (other.is_empty()
                || (0..3).all(|d| self.a[d] <= other.a[d] && other.b[d] <= self.b[d]))
    }

    /// The common box, or `None` when disjoint (or the overlap is empty).
    pub fn intersect(&self, other: &Domain) -> Option<Domain> {
        let a = [0, 1, 2].map(|d| self.a[d].max(other.a[d]));
        let b = [0, 1, 2].map(|d| self.b[d].min(other.b[d]));
        (0..3).all(|d| a[d] < b[d]).then_some(Domain { a, b })
    }

    /// Translate so that `origin` becomes zero — the page-local coordinates
    /// of a global sub-box.
    ///
    /// # Panics
    /// If the domain does not lie at or above `origin` on every axis.
    pub fn relative_to(&self, origin: [u64; 3]) -> Domain {
        assert!(
            (0..3).all(|d| self.a[d] >= origin[d]),
            "domain {self:?} below origin {origin:?}"
        );
        let shift = |x: [u64; 3]| [0, 1, 2].map(|d| x[d] - origin[d]);
        Domain {
            a: shift(self.a),
            b: shift(self.b),
        }
    }

    /// The rows of `self` inside the row-major buffer that holds `outer`:
    /// one range of buffer offsets per `(i1, i2)`, in row-major order, and
    /// none for an empty box. `outer` must contain `self`.
    pub fn runs_in(&self, outer: &Domain) -> impl Iterator<Item = Range<usize>> {
        debug_assert!(outer.contains_domain(self), "{self:?} outside {outer:?}");
        let (a, b, o, e) = (self.a, self.b, outer.a, outer.extent());
        let rows = if self.is_empty() { 0..0 } else { a[0]..b[0] };
        rows.flat_map(move |i1| {
            (a[1]..b[1]).map(move |i2| {
                let start = (((i1 - o[0]) * e[1] + i2 - o[1]) * e[2] + a[2] - o[2]) as usize;
                start..start + (b[2] - a[2]) as usize
            })
        })
    }

    /// Row-major iteration over all points (small domains: a page grid, a
    /// test mirror).
    pub fn points(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let (a, b) = (self.a, self.b);
        (a[0]..b[0]).flat_map(move |i1| {
            (a[1]..b[1]).flat_map(move |i2| (a[2]..b[2]).map(move |i3| (i1, i2, i3)))
        })
    }

    /// Split along the first (slowest) axis into `parts` near-equal slabs —
    /// how a driver divides work among parallel Array clients (§5).
    /// Degenerate slabs are omitted, so fewer than `parts` may return.
    pub fn split_axis0(&self, parts: u64) -> Vec<Domain> {
        assert!(parts > 0, "parts must be positive");
        let span = self.b[0] - self.a[0];
        let mut out = Vec::new();
        let mut start = self.a[0];
        for p in 0..parts {
            // Distribute the remainder over the leading slabs.
            let size = span / parts + u64::from(p < span % parts);
            if size == 0 {
                continue;
            }
            out.push(Domain {
                a: [start, self.a[1], self.a[2]],
                b: [start + size, self.b[1], self.b[2]],
            });
            start += size;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_len_empty() {
        let d = Domain::new(1, 4, 2, 2, 0, 5);
        assert_eq!(d.extent(), [3, 0, 5]);
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
        let d = Domain::new(0, 2, 0, 3, 0, 4);
        assert_eq!(d.len(), 24);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "a <= b")]
    fn inverted_bounds_panic() {
        let _ = Domain::new(3, 2, 0, 1, 0, 1);
    }

    #[test]
    fn contains_points_and_domains() {
        let d = Domain::new(1, 4, 1, 4, 1, 4);
        assert!(d.contains(1, 1, 1));
        assert!(d.contains(3, 3, 3));
        assert!(!d.contains(4, 1, 1));
        assert!(!d.contains(0, 2, 2));
        assert!(d.contains_domain(&Domain::new(2, 3, 1, 4, 1, 2)));
        assert!(!d.contains_domain(&Domain::new(0, 2, 1, 2, 1, 2)));
        // Empty domains are vacuously contained.
        assert!(d.contains_domain(&Domain::new(9, 9, 9, 9, 9, 9)));
    }

    #[test]
    fn intersection_cases() {
        let d = Domain::new(0, 4, 0, 4, 0, 4);
        let e = Domain::new(2, 6, 1, 3, 0, 4);
        assert_eq!(d.intersect(&e), Some(Domain::new(2, 4, 1, 3, 0, 4)));
        // Disjoint.
        assert_eq!(d.intersect(&Domain::new(4, 8, 0, 4, 0, 4)), None);
        // Touching faces share no points.
        assert_eq!(d.intersect(&Domain::new(0, 4, 4, 5, 0, 4)), None);
        // Self-intersection.
        assert_eq!(d.intersect(&d), Some(d));
    }

    #[test]
    fn relative_to_rebases() {
        let d = Domain::new(5, 7, 10, 12, 3, 4);
        let r = d.relative_to([5, 10, 3]);
        assert_eq!(r, Domain::new(0, 2, 0, 2, 0, 1));
    }

    #[test]
    fn points_iterates_row_major() {
        let d = Domain::new(0, 2, 0, 1, 0, 2);
        let pts: Vec<_> = d.points().collect();
        assert_eq!(pts, vec![(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]);
        assert_eq!(pts.len() as u64, d.len());
    }

    #[test]
    fn split_axis0_covers_without_overlap() {
        let d = Domain::new(0, 10, 0, 3, 0, 3);
        let slabs = d.split_axis0(4);
        assert_eq!(slabs.len(), 4);
        let total: u64 = slabs.iter().map(Domain::len).sum();
        assert_eq!(total, d.len());
        // Slabs tile the axis in order.
        for w in slabs.windows(2) {
            assert_eq!(w[0].b[0], w[1].a[0]);
        }
        // More parts than extent: degenerate slabs dropped.
        let tiny = Domain::new(0, 2, 0, 1, 0, 1);
        assert_eq!(tiny.split_axis0(5).len(), 2);
    }

    #[test]
    fn runs_walk_a_box_inside_its_enclosing_buffer() {
        let outer = Domain::new(1, 4, 0, 3, 2, 6);
        let runs: Vec<_> = Domain::new(2, 4, 1, 3, 3, 5).runs_in(&outer).collect();
        assert_eq!(runs, vec![17..19, 21..23, 29..31, 33..35]);
        let offsets: Vec<usize> = runs.into_iter().flatten().collect();
        let expect: Vec<usize> = Domain::new(2, 4, 1, 3, 3, 5)
            .points()
            .map(|(i1, i2, i3)| (((i1 - 1) * 3 + i2) * 4 + i3 - 2) as usize)
            .collect();
        assert_eq!(offsets, expect);
        assert_eq!(outer.runs_in(&outer).flatten().count() as u64, outer.len());
        // An empty box has no rows, wherever it lies.
        assert_eq!(Domain::new(9, 9, 0, 3, 2, 6).runs_in(&outer).count(), 0);
        assert_eq!(Domain::new(1, 4, 0, 3, 9, 9).runs_in(&outer).count(), 0);
    }

    #[test]
    fn an_inverted_box_is_contained_nowhere_and_never_decodes() {
        let inverted = Domain {
            a: [2, 0, 0],
            b: [1, 4, 4],
        };
        assert!(!Domain::whole(4, 4, 4).contains_domain(&inverted));
        let bytes = wire::to_bytes(&inverted);
        assert_eq!(bytes.len(), 48);
        assert!(matches!(
            wire::from_bytes::<Domain>(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn domain_is_wire_encodable() {
        let d = Domain::new(1, 2, 3, 4, 5, 6);
        let back: Domain = wire::from_bytes(&wire::to_bytes(&d)).unwrap();
        assert_eq!(back, d);
    }
}
