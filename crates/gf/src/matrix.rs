//! Dense matrices over an arbitrary [`Field`].
//!
//! The equality-check machinery of NAB is naturally phrased in matrix
//! language: per-edge coding matrices `C_e` (`ρ × z_e`), their block
//! expansions `B_e`, the concatenated check matrix `C_H`, and the square
//! spanning-tree submatrix `M_H` whose invertibility Theorem 1 establishes.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

use crate::field::Field;

/// A dense row-major matrix over a finite field `F`.
///
/// # Example
///
/// ```
/// use nab_gf::{Matrix, Gf256, Field};
/// let i = Matrix::<Gf256>::identity(3);
/// let a = Matrix::from_fn(3, 3, |r, c| Gf256::from_u64((r * 3 + c) as u64));
/// assert_eq!(i.mul(&a), a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// The all-zero `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize"); // nab-lint: allow(NAB003): dimension overflow is unrecoverable misuse; documented panic
        Matrix {
            rows,
            cols,
            data: vec![F::ZERO; len],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize"); // nab-lint: allow(NAB003): dimension overflow is unrecoverable misuse; documented panic
        let mut data = Vec::with_capacity(len);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a row-major nested vector.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows_in: Vec<Vec<F>>) -> Self {
        let rows = rows_in.len();
        let cols = rows_in.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows * cols);
        for row in &rows_in {
            assert_eq!(row.len(), cols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix { rows, cols, data }
    }

    /// A matrix with independently uniform random entries.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| F::random(rng))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|x| x.is_zero())
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[F] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [F] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<F> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix addition.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add dim mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a.add(b))
                .collect(),
        }
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.rows()`.
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.cols, rhs.rows,
            "mul dim mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Self::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    let prod = a.mul(rhs[(k, c)]);
                    out[(r, c)] = out[(r, c)].add(prod);
                }
            }
        }
        out
    }

    /// Row-vector × matrix product: `v * self`, returning a vector of length
    /// `self.cols()`.
    ///
    /// This is the shape used by Algorithm 1 (`Y_e = X_i · C_e`).
    ///
    /// # Panics
    ///
    /// Panics unless `v.len() == self.rows()`.
    pub fn left_mul_vec(&self, v: &[F]) -> Vec<F> {
        assert_eq!(v.len(), self.rows, "left_mul_vec dim mismatch");
        let mut out = vec![F::ZERO; self.cols];
        for (r, &x) in v.iter().enumerate() {
            if x.is_zero() {
                continue;
            }
            for c in 0..self.cols {
                out[c] = out[c].add(x.mul(self[(r, c)]));
            }
        }
        out
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: F) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x.mul(s)).collect(),
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Panics
    ///
    /// Panics unless row counts match.
    pub fn hstack(&self, rhs: &Self) -> Self {
        assert_eq!(self.rows, rhs.rows, "hstack row mismatch");
        Self::from_fn(self.rows, self.cols + rhs.cols, |r, c| {
            if c < self.cols {
                self[(r, c)]
            } else {
                rhs[(r, c - self.cols)]
            }
        })
    }

    /// Vertical concatenation `[self; rhs]`.
    ///
    /// # Panics
    ///
    /// Panics unless column counts match.
    pub fn vstack(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.cols, "vstack col mismatch");
        Self::from_fn(self.rows + rhs.rows, self.cols, |r, c| {
            if r < self.rows {
                self[(r, c)]
            } else {
                rhs[(r - self.rows, c)]
            }
        })
    }

    /// The submatrix selecting the given rows and columns (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Self {
        Self::from_fn(rows.len(), cols.len(), |r, c| self[(rows[r], cols[c])])
    }

    /// The submatrix selecting the given columns (all rows).
    pub fn select_cols(&self, cols: &[usize]) -> Self {
        let all_rows: Vec<usize> = (0..self.rows).collect();
        self.submatrix(&all_rows, cols)
    }

    /// Swaps two rows in place (no-op when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(
            a < self.rows && b < self.rows,
            "swap_rows({a}, {b}) out of bounds ({} rows)",
            self.rows
        );
        if a == b {
            return;
        }
        let w = self.cols;
        let (ra, rb) = split_rows_mut(&mut self.data, w, a, b);
        ra.swap_with_slice(rb);
    }

    /// Disjoint mutable borrows of rows `a` and `b` — the split-borrow the
    /// row-kernel elimination in [`crate::kernel`] needs ("add a multiple
    /// of row `b` into row `a`").
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of bounds.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [F], &mut [F]) {
        assert!(
            a < self.rows && b < self.rows,
            "two_rows_mut({a}, {b}) out of bounds ({} rows)",
            self.rows
        );
        split_rows_mut(&mut self.data, self.cols, a, b)
    }
}

/// Splits two distinct rows of width `w` out of a flat row-major slab.
///
/// # Panics
///
/// Panics if `a == b`.
fn split_rows_mut<T>(data: &mut [T], w: usize, a: usize, b: usize) -> (&mut [T], &mut [T]) {
    assert_ne!(a, b, "split_rows_mut requires distinct row indices");
    if a < b {
        let (head, tail) = data.split_at_mut(b * w);
        (&mut head[a * w..(a + 1) * w], &mut tail[..w])
    } else {
        let (head, tail) = data.split_at_mut(a * w);
        let rb = &mut head[b * w..(b + 1) * w];
        (&mut tail[..w], rb)
    }
}

impl<F: Field> Index<(usize, usize)> for Matrix<F> {
    type Output = F;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &F {
        debug_assert!(
            r < self.rows && c < self.cols,
            "matrix index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<F: Field> IndexMut<(usize, usize)> for Matrix<F> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut F {
        debug_assert!(
            r < self.rows && c < self.cols,
            "matrix index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<F: Field> fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:x} ", self[(r, c)].to_u64())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;

    type M = Matrix<Gf256>;

    fn m(rows: &[&[u64]]) -> M {
        Matrix::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|&x| Gf256::from_u64(x)).collect())
                .collect(),
        )
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let i = M::identity(3);
        assert_eq!(i.mul(&a), a);
        assert_eq!(a.mul(&i), a);
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
        assert_eq!(a.transpose().cols(), 2);
    }

    #[test]
    fn left_mul_vec_matches_full_mul() {
        let a = m(&[&[1, 2], &[3, 4], &[5, 6]]);
        let v = [Gf256::from_u64(9), Gf256::from_u64(8), Gf256::from_u64(7)];
        let as_row = Matrix::from_rows(vec![v.to_vec()]);
        assert_eq!(a.left_mul_vec(&v), as_row.mul(&a).row(0).to_vec());
    }

    #[test]
    fn hstack_vstack_shapes_and_content() {
        let a = m(&[&[1, 2]]);
        let b = m(&[&[3, 4]]);
        let h = a.hstack(&b);
        assert_eq!(h, m(&[&[1, 2, 3, 4]]));
        let v = a.vstack(&b);
        assert_eq!(v, m(&[&[1, 2], &[3, 4]]));
    }

    #[test]
    fn submatrix_picks_requested_entries() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let s = a.submatrix(&[0, 2], &[1, 2]);
        assert_eq!(s, m(&[&[2, 3], &[8, 9]]));
        let c = a.select_cols(&[0]);
        assert_eq!(c, m(&[&[1], &[4], &[7]]));
    }

    #[test]
    fn addition_is_xor_in_char_2() {
        let a = m(&[&[1, 2]]);
        assert!(a.add(&a).is_zero());
    }

    #[test]
    fn mul_associates() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[5, 6], &[7, 8]]);
        let c = m(&[&[9, 10], &[11, 12]]);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    #[should_panic(expected = "mul dim mismatch")]
    fn mul_rejects_bad_shapes() {
        let a = m(&[&[1, 2, 3]]);
        let b = m(&[&[1, 2]]);
        let _ = a.mul(&b);
    }

    #[test]
    fn swap_and_two_rows_mut() {
        let mut a = m(&[&[1, 2], &[3, 4], &[5, 6]]);
        a.swap_rows(0, 2);
        assert_eq!(a, m(&[&[5, 6], &[3, 4], &[1, 2]]));
        a.swap_rows(1, 1); // no-op
        let (top, bottom) = a.two_rows_mut(0, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(bottom[0].to_u64(), 1);
        // Order of the requested indices is preserved.
        let (r2, r0) = a.two_rows_mut(2, 0);
        assert_eq!(r2[0].to_u64(), 1);
        assert_eq!(r0[0].to_u64(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds for 2x3 matrix")]
    fn index_out_of_bounds_panics_with_shape() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        let _ = a[(2, 0)];
    }

    #[test]
    #[should_panic(expected = "two_rows_mut(0, 3) out of bounds")]
    fn two_rows_mut_rejects_out_of_bounds() {
        let mut a = m(&[&[1, 2], &[3, 4]]);
        let _ = a.two_rows_mut(0, 3);
    }

    #[test]
    fn row_and_col_accessors() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(
            a.row(1).iter().map(|x| x.to_u64()).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(
            a.col(2).iter().map(|x| x.to_u64()).collect::<Vec<_>>(),
            vec![3, 6]
        );
    }
}
