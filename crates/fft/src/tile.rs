//! What the column forms of the power-of-two kernels share: a transform of
//! all `width` columns of a row-major `[n][width]` matrix goes a tile of
//! columns at a time, through every stage, so that the `n × TILE` values it
//! works on stay in cache from the digit reversal to the last butterfly.

use std::ops::Range;

use crate::complex::Complex;

/// Columns per tile. A constant, not a parameter: tiles of 16 to 64 run
/// alike and 128 is slower (DESIGN §4, "the FFT kernel").
const TILE: usize = 64;

/// The column ranges of the tiles of a `width`-column matrix, in order.
pub(crate) fn tiles(width: usize) -> impl Iterator<Item = Range<usize>> {
    (0..width)
        .step_by(TILE)
        .map(move |c| c..(c + TILE).min(width))
}

/// The exchanges `(i, j)`, `i < j`, of the index reversal `reversed` of
/// `0..n`, in the order of `i`.
pub(crate) fn swap_pairs(n: usize, reversed: impl Fn(u32) -> u32) -> Vec<(u32, u32)> {
    let pairs = (0..n as u32).map(|i| (i, reversed(i)));
    pairs.filter(|(i, j)| i < j).collect()
}

/// Exchange columns `cols` of rows `i` and `j` for every `(i, j)` of `swaps`.
pub(crate) fn swap_rows(
    data: &mut [Complex],
    width: usize,
    cols: &Range<usize>,
    swaps: &[(u32, u32)],
) {
    for &(i, j) in swaps {
        let (lo, hi) = data.split_at_mut(j as usize * width);
        lo[i as usize * width..][cols.clone()].swap_with_slice(&mut hi[cols.clone()]);
    }
}

/// Scale columns `cols` of every row by `k`.
pub(crate) fn scale_rows(data: &mut [Complex], width: usize, cols: &Range<usize>, k: f64) {
    for row in data.chunks_exact_mut(width) {
        for v in &mut row[cols.clone()] {
            *v = v.scale(k);
        }
    }
}
