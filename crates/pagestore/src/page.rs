//! Pages: the transfer containers of the paper's §2–§3.

use wire::collections::{Bytes, F64s};

/// A block of unstructured data — the paper's `Page` class.
///
/// Pages are plain values here: the device processes own the storage, and a
/// `Page` is what travels between a client and a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Vec<u8>,
}

impl Page {
    /// A zero-filled page of `n` bytes.
    pub fn zeroed(n: usize) -> Self {
        Page { data: vec![0; n] }
    }

    /// Wrap existing bytes.
    pub fn new(data: Vec<u8>) -> Self {
        Page { data }
    }

    /// The paper's `GenerateDataPage()`: a deterministic pseudo-random page
    /// (splitmix64 over the seed, no external dependencies) so tests and
    /// benchmarks can produce distinguishable pages cheaply.
    pub fn generate(n: usize, seed: u64) -> Self {
        Page {
            data: splitmix64(seed)
                .flat_map(u64::to_le_bytes)
                .take(n)
                .collect(),
        }
    }

    /// Page size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-byte page.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Convert into the wire payload type.
    pub fn into_bytes(self) -> Bytes {
        Bytes(self.data)
    }

    /// Build from a wire payload.
    pub fn from_bytes(b: Bytes) -> Self {
        Page { data: b.0 }
    }
}

/// The splitmix64 stream over `seed` that both `generate`s draw from:
/// `simnet`'s mix of `seed`, `seed + γ`, `seed + 2γ`, …
fn splitmix64(seed: u64) -> impl Iterator<Item = u64> {
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
    (0u64..).map(move |k| simnet::faults::mix(seed.wrapping_add(k.wrapping_mul(GAMMA))))
}

/// A page carrying an `n1 × n2 × n3` block of doubles — the paper's
/// `ArrayPage`, "easily derived from the previously defined Page class to
/// handle blocks of structured data" (§3).
///
/// Storage is row-major: index `(i1, i2, i3)` lives at
/// `(i1 * n2 + i2) * n3 + i3`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayPage {
    n1: usize,
    n2: usize,
    n3: usize,
    data: Vec<f64>,
}

impl ArrayPage {
    /// A zero-filled `n1 × n2 × n3` array page.
    pub fn zeroed(n1: usize, n2: usize, n3: usize) -> Self {
        ArrayPage {
            n1,
            n2,
            n3,
            data: vec![0.0; n1 * n2 * n3],
        }
    }

    /// Wrap existing data.
    ///
    /// # Panics
    /// If `data.len() != n1 * n2 * n3`.
    pub fn new(n1: usize, n2: usize, n3: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            n1 * n2 * n3,
            "ArrayPage data length must equal n1*n2*n3"
        );
        ArrayPage { n1, n2, n3, data }
    }

    /// Deterministic pseudo-random page (values in [0, 1)).
    pub fn generate(n1: usize, n2: usize, n3: usize, seed: u64) -> Self {
        let data = splitmix64(seed)
            .map(|z| (z >> 11) as f64 / (1u64 << 53) as f64)
            .take(n1 * n2 * n3)
            .collect();
        ArrayPage { n1, n2, n3, data }
    }

    /// Dimensions `(n1, n2, n3)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n1, self.n2, self.n3)
    }

    /// Elements per page.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the page holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn offset(&self, i1: usize, i2: usize, i3: usize) -> usize {
        debug_assert!(i1 < self.n1 && i2 < self.n2 && i3 < self.n3);
        (i1 * self.n2 + i2) * self.n3 + i3
    }

    /// Element `(i1, i2, i3)`.
    ///
    /// # Panics
    /// If any index is out of range.
    pub fn at(&self, i1: usize, i2: usize, i3: usize) -> f64 {
        assert!(
            i1 < self.n1 && i2 < self.n2 && i3 < self.n3,
            "ArrayPage index out of range"
        );
        self.data[self.offset(i1, i2, i3)]
    }

    /// Set element `(i1, i2, i3)`.
    ///
    /// # Panics
    /// If any index is out of range.
    pub fn set(&mut self, i1: usize, i2: usize, i3: usize, v: f64) {
        assert!(
            i1 < self.n1 && i2 < self.n2 && i3 < self.n3,
            "ArrayPage index out of range"
        );
        let off = self.offset(i1, i2, i3);
        self.data[off] = v;
    }

    /// The paper's `ArrayPage::sum`: a method that uses the array structure
    /// of the data.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Flat access to the elements.
    pub fn elements(&self) -> &[f64] {
        &self.data
    }

    /// Convert to the wire payload type (dimensions are carried by the
    /// device, which knows its page shape).
    pub fn into_f64s(self) -> F64s {
        F64s(self.data)
    }

    /// Reinterpret as an unstructured [`Page`] (derived → base, "moving the
    /// data to the computation" ships the raw bytes).
    pub fn into_page(self) -> Page {
        Page::new(self.data.iter().flat_map(|v| v.to_le_bytes()).collect())
    }

    /// Reinterpret an unstructured page as an array page.
    ///
    /// # Panics
    /// If the byte length does not equal `n1 * n2 * n3 * 8`.
    pub fn from_page(n1: usize, n2: usize, n3: usize, page: Page) -> Self {
        let bytes = page.bytes();
        assert_eq!(
            bytes.len(),
            n1 * n2 * n3 * 8,
            "page size does not match array shape"
        );
        let data = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        ArrayPage { n1, n2, n3, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_generate_is_deterministic_and_seed_sensitive() {
        let a = Page::generate(100, 1);
        let b = Page::generate(100, 1);
        let c = Page::generate(100, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }

    #[test]
    fn page_wire_conversion_roundtrips() {
        let p = Page::generate(64, 9);
        let back = Page::from_bytes(p.clone().into_bytes());
        assert_eq!(back, p);
    }

    #[test]
    fn array_page_indexing_is_row_major() {
        let mut p = ArrayPage::zeroed(2, 3, 4);
        p.set(1, 2, 3, 7.0);
        assert_eq!(p.at(1, 2, 3), 7.0);
        // (1*3 + 2)*4 + 3 = 23, the last element.
        assert_eq!(p.elements()[23], 7.0);
        assert_eq!(p.dims(), (2, 3, 4));
        assert_eq!(p.len(), 24);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn array_page_out_of_range_panics() {
        let p = ArrayPage::zeroed(2, 2, 2);
        let _ = p.at(2, 0, 0);
    }

    #[test]
    fn array_page_sum() {
        let mut p = ArrayPage::zeroed(2, 2, 2);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    p.set(i, j, k, 1.5);
                }
            }
        }
        assert_eq!(p.sum(), 12.0);
        assert_eq!(ArrayPage::zeroed(3, 3, 3).sum(), 0.0);
    }

    #[test]
    fn array_page_to_page_roundtrip() {
        let p = ArrayPage::generate(3, 4, 5, 17);
        let raw = p.clone().into_page();
        assert_eq!(raw.len(), 8 * p.len());
        let back = ArrayPage::from_page(3, 4, 5, raw);
        assert_eq!(back, p);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_page_rejects_wrong_shape() {
        let raw = Page::zeroed(64);
        let _ = ArrayPage::from_page(2, 2, 3, raw); // needs 96 bytes
    }

    #[test]
    #[should_panic(expected = "n1*n2*n3")]
    fn new_rejects_wrong_length() {
        let _ = ArrayPage::new(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn generate_values_are_in_unit_interval() {
        let p = ArrayPage::generate(4, 4, 4, 5);
        assert!(p.elements().iter().all(|&v| (0.0..1.0).contains(&v)));
        // and not all equal
        let first = p.elements()[0];
        assert!(p.elements().iter().any(|&v| v != first));
    }
}
