//! Row-kernel linear algebra over generic fields: the [`FastOps`]
//! specialization trait and kernelized Gaussian elimination.
//!
//! The scalar [`crate::matrix`]/[`crate::linalg`] path multiplies one
//! element at a time through the [`Field`] vtable of operations. Every hot
//! loop in the NAB pipeline, however, has the same *row shape* — "add a
//! scalar multiple of one row into another" — so this module factors that
//! shape out as [`FastOps::mul_row_add`] and lets each field supply its
//! best implementation:
//!
//! - [`crate::gf2m::Gf2_16`], the engine's symbol field — the arch-SIMD
//!   tier ([`crate::simd`]) for rows it covers, else two 256-entry split
//!   tables (low/high byte) built per scalar and amortized over long rows,
//!   else a log-domain loop for short rows,
//! - every other field ([`crate::gf256::Gf256`], [`crate::gf2m::Gf2m`] of
//!   any degree) — the scalar defaults, so generic field code keeps
//!   working unchanged.
//!
//! The functions here ([`mat_mul`], [`echelon`], [`invert`], [`solve`],
//! [`kernel_basis`], [`left_mul_vec`]) mirror [`crate::linalg`]
//! operation-for-operation — same pivot choices, same elimination order —
//! so their results are **bit-identical** to the scalar path for every
//! field (pinned by `tests/differential.rs`).

use crate::field::Field;
use crate::gf256::Gf256;
use crate::gf2m::{Gf2_16, Gf2m};
use crate::linalg::Echelon;
use crate::matrix::Matrix;
use crate::simd;

/// Row lengths below this use the log-domain loop for `Gf2_16`: building
/// the two 256-entry split tables costs 512 field multiplications plus a
/// kilobyte of cache traffic, which only pays off once the row is long
/// enough to amortize it (measured break-even sits near 1k elements; see
/// `BENCH_gf.json`). Rows of [`crate::simd::SIMD_THRESHOLD`] or more take
/// the arch-SIMD tier first when one was detected (see [`crate::simd`]).
pub const GF2_16_SPLIT_THRESHOLD: usize = 1024;

/// Column-stripe width (in elements) of [`mat_mul`]: for very wide
/// right-hand sides (the packed cross-instance slabs of the batched
/// equality check) the destination and source stripes stay cache-resident.
/// Striping never changes results — characteristic-2 accumulation is
/// exact XOR.
pub const COL_BLOCK: usize = 1024;

/// The scalar reference implementation of the fused row kernel:
/// `dst[i] += s · src[i]` one element at a time. This is both the default
/// body of [`FastOps::mul_row_add`] and the baseline the differential
/// tests and the `perf` binary compare specialized kernels against.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn scalar_mul_row_add<F: Field>(dst: &mut [F], src: &[F], s: F) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_row_add length mismatch: dst has {} elements, src has {}",
        dst.len(),
        src.len()
    );
    if s.is_zero() {
        return;
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = d.add(s.mul(x));
    }
}

/// The scalar reference implementation of in-place row scaling.
pub fn scalar_scale_row<F: Field>(row: &mut [F], s: F) {
    if s == F::ONE {
        return;
    }
    for x in row.iter_mut() {
        *x = x.mul(s);
    }
}

/// Per-field row kernels — the specialization seam between generic
/// [`Field`] code and table-driven loops.
///
/// Every provided field implements this trait; fields without a special
/// kernel inherit the scalar defaults, so `F: FastOps` is no more
/// restrictive than `F: Field` in practice. All implementations must be
/// *exact*: specialized kernels may not change results, only speed
/// (enforced by the differential test suite).
pub trait FastOps: Field {
    /// Fused multiply-add row kernel: `dst[i] += s · src[i]`
    /// (equivalently `-=` in characteristic 2).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn mul_row_add(dst: &mut [Self], src: &[Self], s: Self) {
        scalar_mul_row_add(dst, src, s);
    }

    /// In-place row scaling: `row[i] = s · row[i]`.
    fn scale_row(row: &mut [Self], s: Self) {
        scalar_scale_row(row, s);
    }
}

/// Builds the split product tables for one `GF(2^16)` scalar:
/// `lo[b] = s·b` and `hi[b] = s·(b << 8)`. Multiplication is
/// `GF(2)`-linear, so `s·x = lo[x & 0xFF] ^ hi[x >> 8]`.
fn gf2_16_split_tables(s: Gf2_16) -> ([u16; 256], [u16; 256]) {
    let mut lo = [0u16; 256];
    let mut hi = [0u16; 256];
    for b in 1..256u16 {
        lo[b as usize] = s.mul(Gf2_16(b)).0;
        hi[b as usize] = s.mul(Gf2_16(b << 8)).0;
    }
    (lo, hi)
}

impl FastOps for Gf2_16 {
    fn mul_row_add(dst: &mut [Self], src: &[Self], s: Self) {
        assert_eq!(
            dst.len(),
            src.len(),
            "mul_row_add length mismatch: dst has {} elements, src has {}",
            dst.len(),
            src.len()
        );
        if s.0 == 0 {
            return;
        }
        if s.0 == 1 {
            for (d, &x) in dst.iter_mut().zip(src) {
                d.0 ^= x.0;
            }
        } else if dst.len() >= simd::SIMD_THRESHOLD && simd::gf2_16_mul_row_add(dst, src, s) {
            // Handled by the detected arch-SIMD tier; `false` (no tier)
            // falls through to the table loops below.
        } else if dst.len() >= GF2_16_SPLIT_THRESHOLD {
            let (lo, hi) = gf2_16_split_tables(s);
            for (d, &x) in dst.iter_mut().zip(src) {
                d.0 ^= lo[(x.0 & 0xFF) as usize] ^ hi[(x.0 >> 8) as usize];
            }
        } else {
            crate::gf2m::mul_row_add_log16(dst, src, s);
        }
    }

    fn scale_row(row: &mut [Self], s: Self) {
        if s.0 == 1 {
            return;
        }
        if s.0 == 0 {
            row.fill(Gf2_16(0));
        } else if row.len() >= GF2_16_SPLIT_THRESHOLD {
            let (lo, hi) = gf2_16_split_tables(s);
            for x in row.iter_mut() {
                x.0 = lo[(x.0 & 0xFF) as usize] ^ hi[(x.0 >> 8) as usize];
            }
        } else {
            crate::gf2m::scale_row_log16(row, s);
        }
    }
}

// Every other field takes the scalar defaults: `Gf256` only serves as a
// small test field, and generic-degree carry-less multiplication has no
// table representation worth building at runtime.
impl FastOps for Gf256 {}
impl<const M: u32> FastOps for Gf2m<M> {}

/// Kernelized matrix multiplication `a * b`: the i–k–j loop order turns
/// the inner dimension into whole-row [`FastOps::mul_row_add`] calls,
/// striped [`COL_BLOCK`] output columns at a time. Bit-identical to
/// [`Matrix::mul`].
///
/// # Panics
///
/// Panics unless `a.cols() == b.rows()`.
pub fn mat_mul<F: FastOps>(a: &Matrix<F>, b: &Matrix<F>) -> Matrix<F> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "mat_mul dim mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zero(a.rows(), b.cols());
    let w = b.cols();
    for j0 in (0..w).step_by(COL_BLOCK) {
        let j1 = (j0 + COL_BLOCK).min(w);
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let s = a[(i, k)];
                if !s.is_zero() {
                    F::mul_row_add(&mut out.row_mut(i)[j0..j1], &b.row(k)[j0..j1], s);
                }
            }
        }
    }
    out
}

/// Kernelized row-vector × matrix product `v * m` (the Algorithm-1 encode
/// shape). Bit-identical to [`Matrix::left_mul_vec`].
///
/// # Panics
///
/// Panics unless `v.len() == m.rows()`.
pub fn left_mul_vec<F: FastOps>(m: &Matrix<F>, v: &[F]) -> Vec<F> {
    assert_eq!(
        v.len(),
        m.rows(),
        "left_mul_vec dim mismatch: vector of {} over {} rows",
        v.len(),
        m.rows()
    );
    let mut out = vec![F::ZERO; m.cols()];
    for (r, &x) in v.iter().enumerate() {
        if !x.is_zero() {
            F::mul_row_add(&mut out, m.row(r), x);
        }
    }
    out
}

/// Reduces `m` to reduced row-echelon form in place, returning the pivot
/// columns. Pivot selection and elimination order match
/// [`crate::linalg::echelon`] exactly.
pub fn echelon_in_place<F: FastOps>(m: &mut Matrix<F>) -> Vec<usize> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut pivots = Vec::new();
    let mut pr = 0;
    for pc in 0..cols {
        let Some(sel) = (pr..rows).find(|&r| !m[(r, pc)].is_zero()) else {
            continue;
        };
        if sel != pr {
            m.swap_rows(sel, pr);
        }
        let inv = m[(pr, pc)].inv().expect("pivot is non-zero"); // nab-lint: allow(NAB003): pivot was selected non-zero by the search above
        F::scale_row(m.row_mut(pr), inv);
        for r in 0..rows {
            if r != pr {
                let factor = m[(r, pc)];
                if !factor.is_zero() {
                    let (dst, src) = m.two_rows_mut(r, pr);
                    // add == sub in characteristic 2.
                    F::mul_row_add(dst, src, factor);
                }
            }
        }
        pivots.push(pc);
        pr += 1;
        if pr == rows {
            break;
        }
    }
    pivots
}

/// Kernelized [`crate::linalg::echelon`].
pub fn echelon<F: FastOps>(a: &Matrix<F>) -> Echelon<F> {
    let mut m = a.clone();
    let pivots = echelon_in_place(&mut m);
    Echelon { matrix: m, pivots }
}

/// Kernelized [`crate::linalg::rank`].
pub fn rank<F: FastOps>(a: &Matrix<F>) -> usize {
    let mut m = a.clone();
    echelon_in_place(&mut m).len()
}

/// Kernelized [`crate::linalg::is_invertible`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn is_invertible<F: FastOps>(a: &Matrix<F>) -> bool {
    assert_eq!(a.rows(), a.cols(), "invertibility requires a square matrix");
    rank(a) == a.rows()
}

/// Kernelized [`crate::linalg::invert`]: Gauss–Jordan on the augmented
/// matrix `[A | I]` with row kernels, in place.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn invert<F: FastOps>(a: &Matrix<F>) -> Option<Matrix<F>> {
    assert_eq!(a.rows(), a.cols(), "inversion requires a square matrix");
    let n = a.rows();
    let mut aug = a.hstack(&Matrix::identity(n));
    let pivots = echelon_in_place(&mut aug);
    // Invertible iff the left block reduced to the identity, i.e. the
    // first n pivots are exactly columns 0..n.
    if pivots.len() < n || pivots.iter().take(n).enumerate().any(|(i, &pc)| pc != i) {
        return None;
    }
    let right: Vec<usize> = (n..2 * n).collect();
    Some(aug.select_cols(&right))
}

/// Kernelized [`crate::linalg::solve`].
///
/// # Panics
///
/// Panics unless `b.len() == a.rows()`.
pub fn solve<F: FastOps>(a: &Matrix<F>, b: &[F]) -> Option<Vec<F>> {
    assert_eq!(b.len(), a.rows(), "rhs length must equal row count");
    let bm = Matrix::from_fn(a.rows(), 1, |r, _| b[r]);
    let mut aug = a.hstack(&bm);
    let pivots = echelon_in_place(&mut aug);
    if pivots.last() == Some(&a.cols()) {
        return None;
    }
    let mut x = vec![F::ZERO; a.cols()];
    for (row, &pc) in pivots.iter().enumerate() {
        x[pc] = aug[(row, a.cols())];
    }
    Some(x)
}

/// Kernelized [`crate::linalg::kernel_basis`].
pub fn kernel_basis<F: FastOps>(a: &Matrix<F>) -> Matrix<F> {
    let e = echelon(a);
    let n = a.cols();
    let pivot_set: std::collections::HashSet<usize> = e.pivots.iter().copied().collect();
    let free: Vec<usize> = (0..n).filter(|c| !pivot_set.contains(c)).collect();

    let mut rows = Vec::with_capacity(free.len());
    for &fc in &free {
        let mut v = vec![F::ZERO; n];
        v[fc] = F::ONE;
        for (row, &pc) in e.pivots.iter().enumerate() {
            v[pc] = e.matrix[(row, fc)];
        }
        rows.push(v);
    }
    if rows.is_empty() {
        Matrix::zero(0, n)
    } else {
        Matrix::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gf2_16_split_kernel_matches_scalar_at_all_lengths() {
        // Cover both sides of the split-table threshold.
        let mut rng = StdRng::seed_from_u64(71);
        for len in [
            0,
            1,
            7,
            GF2_16_SPLIT_THRESHOLD - 1,
            GF2_16_SPLIT_THRESHOLD,
            200,
        ] {
            let src: Vec<Gf2_16> = (0..len).map(|_| Gf2_16::random(&mut rng)).collect();
            let base: Vec<Gf2_16> = (0..len).map(|_| Gf2_16::random(&mut rng)).collect();
            for s in [0u64, 1, 2, 0xFFFF, 0xABCD] {
                let s = Gf2_16::from_u64(s);
                let mut fast = base.clone();
                let mut slow = base.clone();
                Gf2_16::mul_row_add(&mut fast, &src, s);
                scalar_mul_row_add(&mut slow, &src, s);
                assert_eq!(fast, slow, "len={len} s={s:?}");
                let mut fast = base.clone();
                let mut slow = base.clone();
                Gf2_16::scale_row(&mut fast, s);
                scalar_scale_row(&mut slow, s);
                assert_eq!(fast, slow, "scale len={len} s={s:?}");
            }
        }
    }

    #[test]
    fn mat_mul_matches_scalar_mul_for_generic_fields() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = Matrix::<Gf2m<13>>::random(4, 6, &mut rng);
        let b = Matrix::<Gf2m<13>>::random(6, 3, &mut rng);
        assert_eq!(mat_mul(&a, &b), a.mul(&b));
        let v: Vec<Gf2m<13>> = (0..4).map(|_| Gf2m::random(&mut rng)).collect();
        assert_eq!(left_mul_vec(&a, &v), a.left_mul_vec(&v));
    }

    #[test]
    #[should_panic(expected = "mat_mul dim mismatch")]
    fn mat_mul_rejects_bad_shapes() {
        let a = Matrix::<Gf2_16>::zero(2, 3);
        let _ = mat_mul(&a, &a);
    }
}
