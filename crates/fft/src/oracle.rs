//! The kernels this crate had before its column forms, kept as the oracle:
//! one line at a time, one twiddle table read at a stride, a conjugation
//! and a complex multiply by `±i` per butterfly, a strided column gathered
//! into a line and scattered back. The new kernels do the same arithmetic
//! in the same order on every element, so the tests here ask for `==`, not
//! for a tolerance.

use crate::complex::{c64, Complex};
use crate::dft::Direction;
use crate::radix2::Radix2;
use crate::radix4::Radix4;
use crate::tile::{sweep, Build, Lines};
use crate::*;

/// `Radix2::process` as it was.
fn radix2_reference(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    let twiddles: Vec<Complex> = (0..n / 2)
        .map(|k| Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64))
        .collect();
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let conj = dir == Direction::Inverse;
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for j in 0..len / 2 {
                let mut w = twiddles[j * stride];
                if conj {
                    w = w.conj();
                }
                let a = data[start + j];
                let b = data[start + j + len / 2] * w;
                data[start + j] = a + b;
                data[start + j + len / 2] = a - b;
            }
        }
        len <<= 1;
    }
    if conj {
        let inv = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// `Radix4::process` as it was.
fn radix4_reference(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(radix4::is_power_of_four(n));
    if n <= 1 {
        return;
    }
    let pairs = n.trailing_zeros() / 2;
    let twiddles: Vec<Complex> = (0..n)
        .map(|k| Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64))
        .collect();
    for i in 0..n {
        let (mut v, mut j) = (i, 0);
        for _ in 0..pairs {
            j = (j << 2) | (v & 3);
            v >>= 2;
        }
        if i < j {
            data.swap(i, j);
        }
    }
    let conj = dir == Direction::Inverse;
    // -i as negating `Complex::I` gives it: re is -0.0, not 0.0.
    let rot = if conj { Complex::I } else { c64(-0.0, -1.0) };
    let mut len = 4;
    while len <= n {
        let quarter = len / 4;
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for j in 0..quarter {
                let mut w = [1, 2, 3].map(|m| twiddles[m * j * stride]);
                if conj {
                    w = w.map(Complex::conj);
                }
                let a = data[start + j];
                let b = data[start + j + quarter] * w[0];
                let c = data[start + j + 2 * quarter] * w[1];
                let d = data[start + j + 3 * quarter] * w[2];

                let ac_sum = a + c;
                let ac_diff = a - c;
                let bd_sum = b + d;
                let bd_diff = (b - d) * rot;

                data[start + j] = ac_sum + bd_sum;
                data[start + j + quarter] = ac_diff + bd_diff;
                data[start + j + 2 * quarter] = ac_sum - bd_sum;
                data[start + j + 3 * quarter] = ac_diff - bd_diff;
            }
        }
        len <<= 2;
    }
    if conj {
        let inv = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// The old power-of-two kernel `Fft::new(n)` would have picked.
fn pow2_reference(data: &mut [Complex], dir: Direction) {
    if radix4::is_power_of_four(data.len()) && data.len() > 1 {
        radix4_reference(data, dir)
    } else {
        radix2_reference(data, dir)
    }
}

/// Every strided axis as it was run: each column of the row-major
/// `[n][width]` matrix gathered into a line, transformed, scattered back.
fn columns_by_line(data: &mut [Complex], width: usize, mut process: impl FnMut(&mut [Complex])) {
    let n = data.len() / width;
    let mut line = vec![Complex::ZERO; n];
    for col in 0..width {
        for j in 0..n {
            line[j] = data[j * width + col];
        }
        process(&mut line);
        for j in 0..n {
            data[j * width + col] = line[j];
        }
    }
}

/// `Fft3::process` as it was, over `line`, the 1-D transform of the day.
fn fft3_by_line(grid: &mut Grid3, mut line: impl FnMut(&mut [Complex])) {
    let [_, n2, n3] = grid.shape();
    for row in grid.data_mut().chunks_exact_mut(n3) {
        line(row);
    }
    for plane in grid.data_mut().chunks_exact_mut(n2 * n3) {
        columns_by_line(plane, n3, &mut line);
    }
    columns_by_line(grid.data_mut(), n2 * n3, &mut line);
}

/// Finite values in `[-0.5, 0.5)`, the same for the same seed.
fn seeded(len: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..len).map(|_| c64(next(), next())).collect()
}

const BOTH: [Direction; 2] = [Direction::Forward, Direction::Inverse];

#[test]
fn lines_equal_the_old_kernels_for_every_power_of_two() {
    for bits in 1..=10 {
        let n = 1usize << bits;
        for dir in BOTH {
            let x = seeded(n, bits as u64);
            let mut old = x.clone();
            pow2_reference(&mut old, dir);
            assert_eq!(Fft::new(n).transform(&x, dir), old, "n={n} {dir:?}");

            // Both kernels serve every size they can plan, whichever the
            // plan picks.
            let mut old = x.clone();
            radix2_reference(&mut old, dir);
            let mut new = x.clone();
            sweep(&Radix2::new(n), Lines::Columns(&mut new, 1), dir);
            assert_eq!(new, old, "radix-2 n={n} {dir:?}");
        }
    }
}

#[test]
fn columns_equal_the_old_kernels_line_by_line() {
    // Tile edges, widths that are no multiple of a tile, the worker's real
    // width (32 rows of 64 at 64³ over two workers).
    for width in [1usize, 3, 64, 65, 130, 2048] {
        // Every power of two up to 1 024; at the real width, the real sizes.
        let bits = if width == 2048 { 5..=6 } else { 1..=10 };
        for n in bits.map(|b| 1usize << b) {
            for dir in BOTH {
                let x = seeded(n * width, (n + width) as u64);
                let mut old = x.clone();
                columns_by_line(&mut old, width, |line| pow2_reference(line, dir));
                let mut new = x;
                Fft::new(n).process_columns(&mut new, width, dir);
                assert!(new == old, "n={n} width={width} {dir:?}");
            }
        }
    }
    // The radix-2 column form at powers of four, where no plan picks it.
    for n in [4usize, 16, 64] {
        for dir in BOTH {
            let x = seeded(n * 65, n as u64);
            let mut old = x.clone();
            columns_by_line(&mut old, 65, |line| radix2_reference(line, dir));
            let mut new = x;
            sweep(&Radix2::new(n), Lines::Columns(&mut new, 65), dir);
            assert!(new == old, "radix-2 n={n} {dir:?}");
        }
    }
}

#[test]
fn bluestein_columns_equal_its_lines() {
    for n in [12usize, 60] {
        let plan = Fft::new(n);
        for width in [1usize, 3, 65] {
            for dir in BOTH {
                let x = seeded(n * width, (n * width) as u64);
                let mut old = x.clone();
                columns_by_line(&mut old, width, |line| plan.process(line, dir));
                let mut new = x;
                plan.process_columns(&mut new, width, dir);
                assert!(new == old, "n={n} width={width} {dir:?}");
            }
        }
    }
}

#[test]
fn a_matrix_of_no_columns_or_one_row_is_left_alone() {
    for n in [1usize, 2, 4, 12] {
        Fft::new(n).process_columns(&mut [], 0, Direction::Forward);
    }
    let x = seeded(7, 1);
    let mut y = x.clone();
    Fft::new(1).process_columns(&mut y, 7, Direction::Inverse);
    assert_eq!(x, y);
}

#[test]
#[should_panic(expected = "[n][width]")]
fn columns_reject_a_buffer_of_the_wrong_size() {
    Fft::new(4).process_columns(&mut [Complex::ZERO; 9], 2, Direction::Forward);
}

#[test]
fn fft3_equals_the_old_passes_and_the_definition() {
    // Powers of two: `==` against the old passes over the old kernels.
    for shape in [[4usize, 8, 16], [16, 16, 16], [2, 64, 32]] {
        for dir in BOTH {
            let len = shape.iter().product();
            let mut old = Grid3::new(shape, seeded(len, len as u64));
            let mut new = old.clone();
            fft3_by_line(&mut old, |line| pow2_reference(line, dir));
            Fft3::new(shape).process(&mut new, dir);
            assert!(new == old, "{shape:?} {dir:?}");
        }
    }
    // One axis of each kind — radix-4, Bluestein, Bluestein — against the
    // O(N²) definition, and `==` against the passes line by line.
    let shape = [4usize, 6, 10];
    let grid = Grid3::new(shape, seeded(240, 7));
    for dir in BOTH {
        let fast = Fft3::new(shape).transform(&grid, dir);
        let err = max_error(fast.data(), dft3(&grid, dir).data());
        assert!(err < 1e-9, "{dir:?}: error {err}");
        let mut old = grid.clone();
        fft3_by_line(&mut old, |line| Fft::new(line.len()).process(line, dir));
        assert!(fast == old, "{dir:?}");
    }
}

/// Every build of the sweep this CPU runs, narrowest first, printed with
/// the one it dispatches to.
fn builds_here() -> Vec<Build> {
    let builds: Vec<Build> = Build::runnable().collect();
    let names: Vec<&str> = builds.iter().map(|b| b.name()).collect();
    println!(
        "builds checked: {}; this host dispatches to the {} build",
        names.join(", "),
        Build::detect().name()
    );
    builds
}

/// Every build of the sweep this CPU runs `==` the old kernels, for every
/// kind of line: one line, rows (block edges: fewer rows than the build's
/// run, a run and one more, the row scratch's width and one more, a
/// plane's worth), columns (the widths above). Radix-4 at n = 4…1 024,
/// radix-2 at n = 2…512 — powers of four included, where no plan picks it.
/// Nothing else runs a build narrower than the host's widest.
#[test]
fn every_build_of_the_kernel_equals_the_old_kernels() {
    let builds = builds_here();
    let radix4 = (1..=5).map(|k| 1usize << (2 * k));
    let radix2 = (1..=9).map(|k| 1usize << k);
    let plans = radix4.map(|n| (n, true)).chain(radix2.map(|n| (n, false)));
    for (n, four) in plans {
        let reference = |line: &mut [Complex], dir| {
            if four {
                radix4_reference(line, dir)
            } else {
                radix2_reference(line, dir)
            }
        };
        let (r4, r2) = (four.then(|| Radix4::new(n)), Radix2::new(n));
        let kernel = |lines: Lines<'_, '_>, dir| match &r4 {
            Some(p) => sweep(p, lines, dir),
            None => sweep(&r2, lines, dir),
        };
        for &build in &builds {
            for dir in BOTH {
                let what = format!(
                    "n={n} radix-{} {dir:?} {} build",
                    if four { 4 } else { 2 },
                    build.name()
                );
                // One line.
                let x = seeded(n, n as u64);
                let mut old = x.clone();
                reference(&mut old, dir);
                let mut new = x;
                tile::forced(build, || kernel(Lines::Columns(&mut new, 1), dir));
                assert!(new == old, "line, {what}");
                // Rows: fewer than a run, a run and one more, a scratch's
                // worth and one more, a plane's worth.
                let (run, scratch) = (build.run(), tile::ROWS);
                for rows in [1, run - 1, run, run + 1, scratch, scratch + 1, 64] {
                    let x = seeded(n * rows, (n + rows) as u64);
                    let mut old = x.clone();
                    old.chunks_exact_mut(n).for_each(|row| reference(row, dir));
                    let mut new = x;
                    tile::forced(build, || kernel(Lines::Rows(&mut new), dir));
                    assert!(new == old, "{rows} rows, {what}");
                }
                // Columns.
                for width in [1usize, 3, 64, 65, 130, 2048] {
                    if width == 2048 && n > 64 {
                        continue;
                    }
                    let x = seeded(n * width, (n * width) as u64);
                    let mut old = x.clone();
                    columns_by_line(&mut old, width, |line| reference(line, dir));
                    let mut new = x;
                    tile::forced(build, || kernel(Lines::Columns(&mut new, width), dir));
                    assert!(new == old, "width {width}, {what}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "not whole rows of 4")]
fn rows_reject_a_buffer_that_is_not_whole_rows() {
    Fft::new(4).process_rows(&mut [Complex::ZERO; 6], Direction::Forward);
}

/// Where the rows of an `n`-row table lie in two buffers, in the order they
/// are placed there: `(row, buffer, gap before it)`. The rows go in a
/// scrambled order (`7k + 3 mod n`, a permutation while 7 does not divide
/// `n`), each into buffer 0 or 1 by no stride a kernel could follow, a gap
/// of 0–2 values after the row before it — the way a worker's table finds
/// runs of its slab and rows of a receive buffer.
fn spread_layout(n: usize) -> Vec<(usize, usize, usize)> {
    assert!(!n.is_multiple_of(7));
    (0..n)
        .map(|k| ((7 * k + 3) % n, (k * k / 3) % 2, (5 * k) % 3))
        .collect()
}

/// The rows of the `[n][width]` matrix `x` written into two buffers as
/// [`spread_layout`] places them; every gap holds a value no transform of
/// these inputs makes.
fn spread(x: &[Complex], n: usize, width: usize) -> [Vec<Complex>; 2] {
    let junk = c64(1e300, -1e300);
    let mut buffers = [Vec::new(), Vec::new()];
    for (row, buffer, gap) in spread_layout(n) {
        let buffer = &mut buffers[buffer];
        buffer.extend(std::iter::repeat_n(junk, gap));
        buffer.extend_from_slice(&x[row * width..][..width]);
    }
    buffers
}

/// The row table of what [`spread`] wrote: row `i` where it put row `i`.
fn spread_table(buffers: &mut [Vec<Complex>; 2], n: usize, width: usize) -> Vec<&mut [Complex]> {
    let mut rest = buffers.each_mut().map(|b| b.as_mut_slice());
    let mut rows: Vec<Option<&mut [Complex]>> = (0..n).map(|_| None).collect();
    for (row, buffer, gap) in spread_layout(n) {
        let here = std::mem::take(&mut rest[buffer]);
        let (this, after) = here[gap..].split_at_mut(width);
        rows[row] = Some(this);
        rest[buffer] = after;
    }
    rows.into_iter().map(Option::unwrap).collect()
}

/// The row table form of every plan, in every build this CPU runs, `==`
/// the old kernels
/// line by line, with the rows spread over two buffers at arbitrary offsets
/// in a scrambled order (as a worker's axis-0 table finds them: runs of its
/// slab, rows of what it received) — and nothing between the rows touched.
/// Radix-4, radix-2 (at powers of four too, where no plan picks it) and
/// Bluestein sizes.
#[test]
fn row_tables_anywhere_equal_the_old_kernels() {
    let pow2 = (1..=7).map(|k| 1usize << k);
    let bluestein = [12usize, 60];
    for build in builds_here() {
        for n in pow2.clone().chain(bluestein) {
            let plan = Fft::new(n);
            for width in [1usize, 3, 65, 130] {
                for dir in BOTH {
                    let what = format!("n={n} width={width} {dir:?} {} build", build.name());
                    let x = seeded(n * width, (3 * n + width) as u64);
                    let mut old = x.clone();
                    if n.is_power_of_two() {
                        columns_by_line(&mut old, width, |line| pow2_reference(line, dir));
                    } else {
                        columns_by_line(&mut old, width, |line| plan.process(line, dir));
                    }
                    let mut new = spread(&x, n, width);
                    tile::forced(build, || {
                        plan.process_table(&mut spread_table(&mut new, n, width), dir)
                    });
                    assert!(new == spread(&old, n, width), "{what}");
                    if !n.is_power_of_two() {
                        continue;
                    }
                    let mut old = x.clone();
                    columns_by_line(&mut old, width, |line| radix2_reference(line, dir));
                    let mut new = spread(&x, n, width);
                    tile::forced(build, || {
                        let rows = &mut spread_table(&mut new, n, width);
                        sweep(&Radix2::new(n), Lines::Table(rows), dir)
                    });
                    assert!(new == spread(&old, n, width), "radix-2, {what}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "a row table must be 4 rows of one width")]
fn a_row_table_of_unequal_rows_is_refused() {
    let mut rows = [[Complex::ZERO; 3]; 4];
    let [a, b, c, d] = rows.each_mut().map(|row| &mut row[..]);
    let mut table = [a, b, c, &mut d[..2]];
    Fft::new(4).process_table(&mut table, Direction::Forward);
}

/// FNV-1a over the bit patterns of the parts of `values`, in order.
fn fnv1a(values: &[Complex]) -> u64 {
    let bytes = values
        .iter()
        .flat_map(|v| [v.re, v.im])
        .flat_map(|x| x.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The spectra of every kind of plan, pinned to the bit in every build:
/// Bluestein sizes whose inner size `m` is a power of two (3, 12, 60) or
/// of four (5, 17, 100) — the tolerance tests would not notice the inner
/// plan change radix — and radix-2 and radix-4 sizes. `(n, forward,
/// inverse)` digests of a seeded input, recorded before the plans' sweep
/// moved into `Fft`.
#[test]
fn spectra_equal_their_pinned_digests() {
    const PINS: [(usize, u64, u64); 10] = [
        (3, 0xe85a_53e8_d663_db26, 0x7315_f667_c5b9_0e05),
        (5, 0x7b30_c53e_7fbf_0461, 0xa2b9_3b8d_3297_7a68),
        (12, 0xba0c_5014_ef6e_9af0, 0x6129_ca1b_478f_8e15),
        (17, 0x2635_4ff3_d123_9fd0, 0x7fbf_44a5_73a9_17da),
        (60, 0xd421_0b88_e92e_ed1a, 0x1090_16c7_8158_009d),
        (100, 0x596a_ea8e_5358_b124, 0x6b88_eb06_6ac8_5d79),
        (8, 0xc141_f5c7_5c9d_3dbd, 0xc1ce_d3f4_c1d2_6412),
        (16, 0x5516_7835_8851_7cb2, 0xa882_894c_adc5_b486),
        (128, 0xc0d3_7d48_0851_c0e7, 0xb9e8_9857_7397_0c29),
        (256, 0x5353_63b7_a5b6_476b, 0xcc6a_00ff_48e5_f55e),
    ];
    for build in builds_here() {
        for (n, forward, inverse) in PINS {
            let (plan, x) = (Fft::new(n), seeded(n, n as u64));
            let got = tile::forced(build, || {
                [plan.forward(&x), plan.inverse(&x)].map(|y| fnv1a(&y))
            });
            assert_eq!(got, [forward, inverse], "n={n} {} build", build.name());
        }
    }
}
