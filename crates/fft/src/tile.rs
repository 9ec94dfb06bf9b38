//! The one sweep both power-of-two kernels run, for every kind of line —
//! the columns of a row-major `[n][width]` matrix or of a table of rows,
//! the rows of a row-major `[rows][n]` matrix, a single line — and
//! everything about it that is not a radix's own butterflies: tiles of
//! columns, runs of values per butterfly, the transposed row scratch, the
//! twiddles' form and the two builds (DESIGN §4 3d). Every output is bit
//! for bit what a line-at-a-time kernel computes.

use std::ops::Range;

use crate::complex::{c64, Complex};
use crate::dft::Direction;

/// Columns per tile. A constant, not a parameter: 64 and 128 run alike,
/// and at 32 the benchmark's `[64][2048]` column pass loses its gain on
/// AVX2 (DESIGN §4 3d).
const TILE: usize = 64;

/// Complex values per run. A constant, not a parameter: 2 and 4 read
/// alike on AVX2, 4 is slower on the baseline build, and at 8 the baseline
/// build spills its locals (DESIGN §4 3d).
pub(crate) const RUN: usize = 2;

/// Rows a row pass transposes into its scratch at a time: the scratch's
/// width, so each load of a butterfly's twiddles serves `ROWS / RUN` runs.
/// A constant, not a parameter: measured against 2, 4 and 16 (DESIGN §4 3d).
pub(crate) const ROWS: usize = 8;

/// One radix's butterflies, as the sweep drives them.
pub(crate) trait Stages {
    /// `reversal()[i]` is the index whose value the stages expect at `i`;
    /// its length is the transform's size.
    fn reversal(&self) -> &[u32];

    /// Every stage's butterflies on columns `cols` of the `n` rows `rows`,
    /// whose contents are in reversed order; the inverse's last stage
    /// scales its outputs by `1/n`. Implementations are `#[inline(always)]`,
    /// so that each build of the sweep compiles them for its own target
    /// features.
    fn stages<'a, const INVERSE: bool>(&self, rows: impl Rows<'a>, cols: &Range<usize>);
}

/// One butterfly of a stage: what it makes of `N` runs, one per row.
/// Passed by value, so that its twiddles stay in registers.
pub(crate) trait Butterfly<const N: usize> {
    /// The butterfly on runs of `R` values. `#[inline(always)]`.
    fn run<const R: usize>(&self, runs: [Run<R>; N]) -> [Run<R>; N];
}

/// Rows of one width a sweep runs down, wherever they lie: the rows of a
/// row-major matrix ([`Matrix`]), or a table of row slices. The sweep is
/// written once over this and compiled for each: a table costs a load per
/// row per butterfly, which a matrix computes (DESIGN §4 3d).
pub(crate) trait Rows<'a>: Sized {
    /// Each row, in order.
    fn each(self) -> impl Iterator<Item = &'a mut [Complex]>;
    /// The first `mid` rows, and the rest.
    fn split(self, mid: usize) -> (Self, Self);
    /// The same rows, borrowed for a shorter while.
    fn by_ref(&mut self) -> impl Rows<'_>;
}

/// The rows of a row-major `[rows][width]` matrix, `width > 0`.
pub(crate) struct Matrix<'a> {
    data: &'a mut [Complex],
    width: usize,
}

impl<'a> Rows<'a> for Matrix<'a> {
    #[inline(always)]
    fn each(self) -> impl Iterator<Item = &'a mut [Complex]> {
        self.data.chunks_exact_mut(self.width)
    }

    #[inline(always)]
    fn split(self, mid: usize) -> (Self, Self) {
        let (lo, hi) = self.data.split_at_mut(mid * self.width);
        let width = self.width;
        (Matrix { data: lo, width }, Matrix { data: hi, width })
    }

    #[inline(always)]
    fn by_ref(&mut self) -> impl Rows<'_> {
        Matrix {
            data: &mut *self.data,
            width: self.width,
        }
    }
}

impl<'a> Rows<'a> for &'a mut [&mut [Complex]] {
    #[inline(always)]
    fn each(self) -> impl Iterator<Item = &'a mut [Complex]> {
        self.iter_mut().map(|row| &mut **row)
    }

    #[inline(always)]
    fn split(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }

    #[inline(always)]
    fn by_ref(&mut self) -> impl Rows<'_> {
        &mut **self
    }
}

/// Where the values of a sweep's transforms lie.
pub(crate) enum Lines<'a, 'r> {
    /// Down the columns of a row-major `[n][width]` matrix; a line is the
    /// matrix of one column.
    Columns(&'a mut [Complex], usize),
    /// Down the columns of a table of `n` rows of one width, each wherever
    /// it lies.
    Table(&'a mut [&'r mut [Complex]]),
    /// Along the rows of a row-major `[rows][n]` matrix.
    Rows(&'a mut [Complex]),
}

/// The row table of the row-major `[n][width]` matrix `data`: its rows, in
/// order, where they lie.
///
/// # Panics
/// If `data.len() != n * width`.
pub(crate) fn row_table(data: &mut [Complex], n: usize, width: usize) -> Vec<&mut [Complex]> {
    assert_eq!(data.len(), n * width, "buffer must be [n][width]");
    if width == 0 {
        return (0..n).map(|_| <&mut [Complex]>::default()).collect();
    }
    data.chunks_exact_mut(width).collect()
}

/// Transform the lines of `lines` with `plan`, in the build of the sweep
/// the CPU runs ([`avx2`]).
///
/// # Panics
/// If the lines are not whole: a matrix of other than `n` rows, a table of
/// other than `n` rows or of rows of unequal widths, rows of other than `n`
/// values.
pub(crate) fn sweep<S: Stages>(plan: &S, lines: Lines<'_, '_>, dir: Direction) {
    let n = plan.reversal().len();
    match &lines {
        Lines::Columns(data, width) => {
            assert_eq!(data.len(), n * width, "buffer must be [n][width]")
        }
        Lines::Table(rows) => {
            table_width(rows, n);
        }
        Lines::Rows(data) => assert_whole_rows(data.len(), n),
    }
    if n <= 1 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `sweep_avx2` asks only that the CPU has AVX2, which
        // `avx2` has just checked.
        return unsafe { sweep_avx2(plan, lines, dir) };
    }
    sweep_baseline(plan, lines, dir)
}

/// The width of the row table `rows`.
///
/// # Panics
/// Unless `rows` is `n` rows of one width.
pub(crate) fn table_width(rows: &[&mut [Complex]], n: usize) -> usize {
    let width = rows.first().map_or(0, |row| row.len());
    assert!(
        rows.len() == n && rows.iter().all(|row| row.len() == width),
        "a row table must be {n} rows of one width"
    );
    width
}

/// Panics unless `len` values are whole rows of `n`.
pub(crate) fn assert_whole_rows(len: usize, n: usize) {
    assert!(
        len.is_multiple_of(n),
        "buffer of {len} values is not whole rows of {n}"
    );
}

/// True when [`sweep`] runs its AVX2 build: on an `x86_64` CPU that has
/// AVX2 (and in a test, unless inside `baseline_only`).
pub(crate) fn avx2() -> bool {
    #[cfg(test)]
    if BASELINE_ONLY.get() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    avx2
}

/// The sweep for any CPU: SSE2 on `x86_64`.
fn sweep_baseline<S: Stages>(plan: &S, lines: Lines<'_, '_>, dir: Direction) {
    by_direction(plan, lines, dir)
}

/// The sweep compiled for AVX2: 256-bit vectors for the runs.
///
/// # Safety
/// Outside code built for AVX2 a call is `unsafe`: the CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2<S: Stages>(plan: &S, lines: Lines<'_, '_>, dir: Direction) {
    by_direction(plan, lines, dir)
}

#[inline(always)]
fn by_direction<S: Stages>(plan: &S, lines: Lines<'_, '_>, dir: Direction) {
    match dir {
        Direction::Forward => by_lines::<S, false>(plan, lines),
        Direction::Inverse => by_lines::<S, true>(plan, lines),
    }
}

#[inline(always)]
fn by_lines<S: Stages, const INVERSE: bool>(plan: &S, lines: Lines<'_, '_>) {
    let reversal = plan.reversal();
    let n = reversal.len();
    match lines {
        // A line, compiled for its one column: through the arm below, where
        // every butterfly is a run of one value of unknown width, it read
        // twice as slow as the old line kernel.
        Lines::Columns(data, 1) => in_place::<S, INVERSE>(plan, Matrix { data, width: 1 }, 0..1),
        Lines::Columns(data, width) => by_tiles::<S, INVERSE>(plan, Matrix { data, width }, width),
        Lines::Table(rows) => {
            let width = rows[0].len();
            by_tiles::<S, INVERSE>(plan, rows, width);
        }
        Lines::Rows(data) => {
            // Always `ROWS` columns wide, so that the sweep is compiled for
            // that width: a last block of fewer rows leaves stale columns,
            // transformed and never copied back.
            let mut scratch = vec![Complex::ZERO; n * ROWS];
            for rows in data.chunks_mut(n * ROWS) {
                for (to, &j) in scratch.chunks_exact_mut(ROWS).zip(reversal) {
                    for (v, row) in to.iter_mut().zip(rows.chunks_exact(n)) {
                        *v = row[j as usize];
                    }
                }
                let matrix = Matrix {
                    data: &mut scratch,
                    width: ROWS,
                };
                plan.stages::<INVERSE>(matrix, &(0..ROWS));
                for (i, from) in scratch.chunks_exact(ROWS).enumerate() {
                    for (v, row) in from.iter().zip(rows.chunks_exact_mut(n)) {
                        row[i] = *v;
                    }
                }
            }
        }
    }
}

/// [`in_place`] on every tile of `rows`, `width` columns wide.
#[inline(always)]
fn by_tiles<'a, S: Stages, const INVERSE: bool>(plan: &S, mut rows: impl Rows<'a>, width: usize) {
    for cols in tiles(width) {
        in_place::<S, INVERSE>(plan, rows.by_ref(), cols);
    }
}

/// The column ranges of the tiles of a `width`-column matrix, in order.
fn tiles(width: usize) -> impl Iterator<Item = Range<usize>> {
    (0..width)
        .step_by(TILE)
        .map(move |c| c..(c + TILE).min(width))
}

/// Columns `cols` of `rows` put in reversed order, then every stage on
/// them.
#[inline(always)]
fn in_place<'a, S: Stages, const INVERSE: bool>(
    plan: &S,
    mut rows: impl Rows<'a>,
    cols: Range<usize>,
) {
    for (i, &j) in plan.reversal().iter().enumerate() {
        let j = j as usize;
        if i < j {
            // Value by value: `swap_with_slice` read 15–20 % slower.
            let (lo, hi) = rows.by_ref().split(j);
            let (a, b) = (lo.each().nth(i), hi.each().next());
            let (a, b) = (a.expect("row i < j"), b.expect("row j < n"));
            for (a, b) in a[cols.clone()].iter_mut().zip(&mut b[cols.clone()]) {
                std::mem::swap(a, b);
            }
        }
    }
    plan.stages::<INVERSE>(rows, &cols);
}

/// `b` on columns `cols` of `rows`: `RUN` values of each row at a time,
/// then what is left one value at a time.
#[inline(always)]
pub(crate) fn runs<const N: usize>(
    b: impl Butterfly<N>,
    rows: [&mut [Complex]; N],
    cols: &Range<usize>,
) {
    let mut rows = rows.map(|row| &mut row[cols.clone()]);
    let (len, mut at) = (cols.len(), 0);
    while at + RUN <= len {
        run::<N, RUN>(&b, &mut rows, at);
        at += RUN;
    }
    while at < len {
        run::<N, 1>(&b, &mut rows, at);
        at += 1;
    }
}

/// `b` on the values `at..at + R` of every row of `rows`.
#[inline(always)]
fn run<const N: usize, const R: usize>(
    b: &impl Butterfly<N>,
    rows: &mut [&mut [Complex]; N],
    at: usize,
) {
    let mut runs = [Run([Complex::ZERO; R]); N];
    for (run, row) in runs.iter_mut().zip(rows.iter()) {
        run.0.copy_from_slice(&row[at..at + R]);
    }
    for (run, row) in b.run(runs).iter().zip(rows.iter_mut()) {
        row[at..at + R].copy_from_slice(&run.0);
    }
}

/// A twiddle `w` as the two factors a vector unit multiplies a complex
/// value `v = x + iy` by: `v·w = (x, y)·(w.re, w.re) + (y, x)·(−w.im, w.im)`.
/// The real part `x·w.re + y·(−w.im)` is `x·w.re − y·w.im` to the bit (a
/// difference is the sum with the negation, and `y·(−w.im)` is `−(y·w.im)`)
/// and the imaginary part `y·w.re + x·w.im` is `x·w.im + y·w.re`, the same
/// two products in the other order. Kept as data, the two factors reach
/// the vector unit as they are: given `w` alone, the compiler folds the
/// sum back into the difference, splits real from imaginary parts with
/// shuffles around every multiply, and the baseline build read 10–20 %
/// slower than the old kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Twiddle {
    re: Complex,
    im: Complex,
}

impl Twiddle {
    /// The factors of `w`.
    pub(crate) fn new(w: Complex) -> Self {
        Twiddle {
            re: c64(w.re, w.re),
            im: c64(-w.im, w.im),
        }
    }
}

/// `R` consecutive complex values of one row, and their arithmetic.
#[derive(Clone, Copy)]
pub(crate) struct Run<const R: usize>([Complex; R]);

impl<const R: usize> Run<R> {
    /// Every value times `w`, to the bit what `Complex`'s `*` computes.
    #[inline(always)]
    pub(crate) fn twiddle(mut self, w: Twiddle) -> Self {
        let Twiddle { re, im } = w;
        for v in &mut self.0 {
            *v = c64(v.re * re.re + v.im * im.re, v.im * re.im + v.re * im.im);
        }
        self
    }

    /// Every value times the real `k`, to the bit what
    /// [`Complex::scale`] computes.
    #[inline(always)]
    pub(crate) fn scale(mut self, k: f64) -> Self {
        for v in &mut self.0 {
            *v = v.scale(k);
        }
        self
    }

    /// Every value times `-i`, or `+i` for the inverse: a swap and a
    /// negation.
    #[inline(always)]
    pub(crate) fn rotate<const INVERSE: bool>(mut self) -> Self {
        for v in &mut self.0 {
            *v = if INVERSE {
                c64(-v.im, v.re)
            } else {
                c64(v.im, -v.re)
            };
        }
        self
    }
}

impl<const R: usize> std::ops::Add for Run<R> {
    type Output = Self;
    #[inline(always)]
    fn add(mut self, other: Self) -> Self {
        for (v, w) in self.0.iter_mut().zip(other.0) {
            *v += w;
        }
        self
    }
}

impl<const R: usize> std::ops::Sub for Run<R> {
    type Output = Self;
    #[inline(always)]
    fn sub(mut self, other: Self) -> Self {
        for (v, w) in self.0.iter_mut().zip(other.0) {
            *v -= w;
        }
        self
    }
}

#[cfg(test)]
thread_local! {
    static BASELINE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `f`, with every [`sweep`] on this thread running the baseline build.
#[cfg(test)]
pub(crate) fn baseline_only<T>(f: impl FnOnce() -> T) -> T {
    let was = BASELINE_ONLY.replace(true);
    let out = f();
    BASELINE_ONLY.set(was);
    out
}
