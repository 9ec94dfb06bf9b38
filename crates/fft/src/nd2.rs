//! 2-D FFTs by the row–column method — the per-plane kernel of the
//! distributed 3-D transform, exposed as a standalone plan.

use crate::complex::Complex;
use crate::dft::Direction;
use crate::plan::Fft;

/// Row-major 2-D buffer of complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2 {
    shape: [usize; 2],
    data: Vec<Complex>,
}

impl Grid2 {
    /// A zeroed `n1 × n2` grid.
    pub fn zeroed(shape: [usize; 2]) -> Self {
        Grid2 {
            shape,
            data: vec![Complex::ZERO; shape[0] * shape[1]],
        }
    }

    /// Wrap existing data.
    ///
    /// # Panics
    /// If `data.len()` does not match the shape.
    pub fn new(shape: [usize; 2], data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), shape[0] * shape[1], "shape/data mismatch");
        Grid2 { shape, data }
    }

    /// Grid dimensions.
    pub fn shape(&self) -> [usize; 2] {
        self.shape
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize) -> Complex {
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element access.
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut Complex {
        &mut self.data[i * self.shape[1] + j]
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

/// 2-D FFT plan: one 1-D plan per axis.
#[derive(Debug, Clone)]
pub struct Fft2 {
    shape: [usize; 2],
    plans: [Fft; 2],
}

impl Fft2 {
    /// Plan a transform for `n1 × n2` grids.
    pub fn new(shape: [usize; 2]) -> Self {
        Fft2 {
            shape,
            plans: [Fft::new(shape[0]), Fft::new(shape[1])],
        }
    }

    /// Grid shape this plan covers.
    pub fn shape(&self) -> [usize; 2] {
        self.shape
    }

    /// In-place 2-D transform.
    ///
    /// # Panics
    /// If the grid shape does not match the plan.
    pub fn process(&self, grid: &mut Grid2, dir: Direction) {
        assert_eq!(grid.shape(), self.shape, "grid shape must match plan");
        self.process_plane(grid.data_mut(), dir);
    }

    /// In-place 2-D transform of one row-major `n1 × n2` plane where it
    /// lies: all rows, then all columns.
    ///
    /// # Panics
    /// If `plane.len() != n1 * n2`.
    pub fn process_plane(&self, plane: &mut [Complex], dir: Direction) {
        let [n1, n2] = self.shape;
        assert_eq!(plane.len(), n1 * n2, "plane size must match plan");
        self.plans[1].process_rows(plane, dir);
        self.plans[0].process_columns(plane, n2, dir);
    }

    /// Out-of-place convenience.
    pub fn transform(&self, grid: &Grid2, dir: Direction) -> Grid2 {
        let mut out = grid.clone();
        self.process(&mut out, dir);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};
    use crate::dft::dft;

    fn sample(shape: [usize; 2]) -> Grid2 {
        let n = shape[0] * shape[1];
        Grid2::new(
            shape,
            (0..n)
                .map(|i| c64((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect(),
        )
    }

    /// Reference 2-D DFT by transforming rows then columns with the naive
    /// 1-D DFT.
    fn dft2(grid: &Grid2, dir: Direction) -> Grid2 {
        let [n1, n2] = grid.shape();
        let mut mid = grid.clone();
        for i in 0..n1 {
            let row: Vec<Complex> = (0..n2).map(|j| grid.at(i, j)).collect();
            let out = dft(&row, dir);
            for (j, v) in out.into_iter().enumerate() {
                *mid.at_mut(i, j) = v;
            }
        }
        let mut out = mid.clone();
        for j in 0..n2 {
            let col: Vec<Complex> = (0..n1).map(|i| mid.at(i, j)).collect();
            let t = dft(&col, dir);
            for (i, v) in t.into_iter().enumerate() {
                *out.at_mut(i, j) = v;
            }
        }
        out
    }

    #[test]
    fn matches_reference() {
        for shape in [[2usize, 2], [4, 6], [5, 3], [8, 8]] {
            let g = sample(shape);
            let fast = Fft2::new(shape).transform(&g, Direction::Forward);
            let slow = dft2(&g, Direction::Forward);
            let err = max_error(fast.data(), slow.data());
            assert!(err < 1e-8, "shape {shape:?}: error {err}");
        }
    }

    #[test]
    fn roundtrip() {
        let shape = [8usize, 12];
        let g = sample(shape);
        let plan = Fft2::new(shape);
        let back = plan.transform(&plan.transform(&g, Direction::Forward), Direction::Inverse);
        assert!(max_error(g.data(), back.data()) < 1e-9);
    }

    #[test]
    fn delta_to_constant() {
        let mut g = Grid2::zeroed([4, 4]);
        *g.at_mut(0, 0) = Complex::ONE;
        let out = Fft2::new([4, 4]).transform(&g, Direction::Forward);
        for v in out.data() {
            assert!((*v - Complex::ONE).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn wrong_data_length_panics() {
        let _ = Grid2::new([2, 3], vec![Complex::ZERO; 5]);
    }
}
