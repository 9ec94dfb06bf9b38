//! Multi-dimensional FFTs by the row–column method.
//!
//! A 3-D transform is three passes of 1-D transforms, one per axis. This is
//! both the local reference the distributed transform is tested against and
//! the per-slab kernel it runs on each worker.

use crate::complex::Complex;
use crate::dft::Direction;
use crate::plan::Fft;

/// Row-major 3-D buffer of complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    shape: [usize; 3],
    data: Vec<Complex>,
}

impl Grid3 {
    /// A zeroed `n1 × n2 × n3` grid.
    pub fn zeroed(shape: [usize; 3]) -> Self {
        Grid3 {
            shape,
            data: vec![Complex::ZERO; shape[0] * shape[1] * shape[2]],
        }
    }

    /// Wrap existing data.
    ///
    /// # Panics
    /// If `data.len()` does not match the shape.
    pub fn new(shape: [usize; 3], data: Vec<Complex>) -> Self {
        assert_eq!(
            data.len(),
            shape[0] * shape[1] * shape[2],
            "shape/data mismatch"
        );
        Grid3 { shape, data }
    }

    /// Grid dimensions.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// Flat index of `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.shape[1] + j) * self.shape[2] + k
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize, k: usize) -> Complex {
        self.data[self.idx(i, j, k)]
    }

    /// Mutable element access.
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut Complex {
        let idx = self.idx(i, j, k);
        &mut self.data[idx]
    }

    /// Flat view.
    pub fn data(&self) -> &[Complex] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [Complex] {
        &mut self.data
    }
}

/// 3-D FFT plan: one 1-D plan per axis. A plane's 2-D transform is its
/// rows (length `n3`), then its columns (length `n2`).
///
/// The two passes are public because a slab decomposition runs them apart,
/// with a transpose between: [`FftWorker`](crate::FftWorker) (axis 0 over
/// a row table) and the message-passing baseline call the same two sweeps
/// [`process`](Self::process) does.
#[derive(Debug, Clone)]
pub struct Fft3 {
    shape: [usize; 3],
    rows: Fft,
    columns: Fft,
    axis0: Fft,
}

impl Fft3 {
    /// Plan a transform for `n1 × n2 × n3` grids.
    ///
    /// # Panics
    /// If an edge is not a power of two.
    pub fn new(shape: [usize; 3]) -> Self {
        Fft3 {
            shape,
            rows: Fft::new(shape[2]),
            columns: Fft::new(shape[1]),
            axis0: Fft::new(shape[0]),
        }
    }

    /// Grid shape this plan covers.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// In-place 3-D transform.
    ///
    /// # Panics
    /// If the grid shape does not match the plan.
    pub fn process(&self, grid: &mut Grid3, dir: Direction) {
        assert_eq!(grid.shape(), self.shape, "grid shape must match plan");
        self.process_planes(grid.data_mut(), dir);
        self.process_axis0(grid.data_mut(), dir);
    }

    /// Axes 1 and 2: the 2-D transform of every `n2 × n3` plane of `slab`,
    /// any number of whole planes, where they lie.
    ///
    /// # Panics
    /// If `slab` is not a whole number of planes.
    pub fn process_planes(&self, slab: &mut [Complex], dir: Direction) {
        let [_, n2, n3] = self.shape;
        assert_eq!(slab.len() % (n2 * n3), 0, "slab must be whole planes");
        for plane in slab.chunks_exact_mut(n2 * n3) {
            self.rows.process_rows(plane, dir);
            self.columns.process_columns(plane, n3, dir);
        }
    }

    /// Axis 0: all columns of the row-major `[n1][width]` buffer `columns`
    /// — the whole grid (`width = n2·n3`), or the part of every plane a
    /// slab-decomposed transform gathered (`width = (n2/P)·n3`).
    ///
    /// # Panics
    /// If `columns` is not `n1` rows of one width.
    pub fn process_axis0(&self, columns: &mut [Complex], dir: Direction) {
        let width = columns.len() / self.shape[0];
        self.axis0.process_columns(columns, width, dir);
    }

    /// Axis 0 over a row table: `rows[i]` is plane `i`'s part of the
    /// columns, wherever it lies — in a slab-decomposed transform, a run of
    /// the worker's own slab for its own planes and a row of the receive
    /// buffer for every other plane. The same sweep as
    /// [`process_axis0`](Self::process_axis0), value for value.
    ///
    /// # Panics
    /// If `rows` is not `n1` rows of one width.
    pub(crate) fn process_axis0_rows(&self, rows: &mut [&mut [Complex]], dir: Direction) {
        self.axis0.process_table(rows, dir);
    }

    /// Out-of-place convenience.
    pub fn transform(&self, grid: &Grid3, dir: Direction) -> Grid3 {
        let mut out = grid.clone();
        self.process(&mut out, dir);
        out
    }
}

/// Reference O(N²) 3-D DFT for small grids (test oracle).
pub fn dft3(grid: &Grid3, dir: Direction) -> Grid3 {
    let [n1, n2, n3] = grid.shape();
    let sign = dir.sign();
    let mut out = Grid3::zeroed(grid.shape());
    for k1 in 0..n1 {
        for k2 in 0..n2 {
            for k3 in 0..n3 {
                let mut acc = Complex::ZERO;
                for j1 in 0..n1 {
                    for j2 in 0..n2 {
                        for j3 in 0..n3 {
                            let theta = sign
                                * std::f64::consts::TAU
                                * ((j1 * k1) as f64 / n1 as f64
                                    + (j2 * k2) as f64 / n2 as f64
                                    + (j3 * k3) as f64 / n3 as f64);
                            acc += grid.at(j1, j2, j3) * Complex::cis(theta);
                        }
                    }
                }
                *out.at_mut(k1, k2, k3) = acc;
            }
        }
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / (n1 * n2 * n3) as f64;
        for v in out.data_mut() {
            *v = v.scale(inv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};

    fn sample(shape: [usize; 3]) -> Grid3 {
        let n = shape[0] * shape[1] * shape[2];
        Grid3::new(
            shape,
            (0..n)
                .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect(),
        )
    }

    #[test]
    fn matches_reference_dft3() {
        for shape in [[2, 2, 2], [4, 2, 8], [4, 4, 4]] {
            let grid = sample(shape);
            let plan = Fft3::new(shape);
            let fast = plan.transform(&grid, Direction::Forward);
            let slow = dft3(&grid, Direction::Forward);
            let err = max_error(fast.data(), slow.data());
            assert!(err < 1e-8, "shape {shape:?}: error {err}");
        }
    }

    #[test]
    fn roundtrip_3d() {
        let shape = [8, 4, 2];
        let grid = sample(shape);
        let plan = Fft3::new(shape);
        let back = plan.transform(
            &plan.transform(&grid, Direction::Forward),
            Direction::Inverse,
        );
        assert!(max_error(grid.data(), back.data()) < 1e-9);
    }

    #[test]
    fn delta_transforms_to_constant_3d() {
        let shape = [4, 4, 4];
        let mut grid = Grid3::zeroed(shape);
        *grid.at_mut(0, 0, 0) = Complex::ONE;
        let out = Fft3::new(shape).transform(&grid, Direction::Forward);
        for v in out.data() {
            assert!((*v - Complex::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn separable_tone_peaks_at_its_3d_bin() {
        let shape = [4, 4, 4];
        let (f1, f2, f3) = (1usize, 2, 3);
        let mut grid = Grid3::zeroed(shape);
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let theta = std::f64::consts::TAU
                        * ((f1 * i) as f64 + (f2 * j) as f64 + (f3 * k) as f64)
                        / 4.0;
                    *grid.at_mut(i, j, k) = Complex::cis(theta);
                }
            }
        }
        let out = Fft3::new(shape).transform(&grid, Direction::Forward);
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let v = out.at(i, j, k).abs();
                    if (i, j, k) == (f1, f2, f3) {
                        assert!((v - 64.0).abs() < 1e-8);
                    } else {
                        assert!(v < 1e-8, "leakage at ({i},{j},{k}): {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn grid_indexing() {
        let mut g = Grid3::zeroed([2, 3, 4]);
        *g.at_mut(1, 2, 3) = c64(5.0, 0.0);
        assert_eq!(g.at(1, 2, 3), c64(5.0, 0.0));
        assert_eq!(g.idx(1, 2, 3), 23);
        assert_eq!(g.shape(), [2, 3, 4]);
        assert_eq!(g.data().len(), 24);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn grid_rejects_wrong_length() {
        let _ = Grid3::new([2, 2, 2], vec![Complex::ZERO; 7]);
    }
}
