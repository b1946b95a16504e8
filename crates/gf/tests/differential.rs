//! Differential test suite: every row-kernel operation must be
//! **bit-identical** to the generic scalar `Matrix`/`linalg` path, across
//! random shapes and seeds.
//!
//! This is the contract that lets the NAB hot paths route through
//! [`nab_gf::kernel`] without changing a single simulation result: the
//! fast tiers may only change speed, never values. Each property draws
//! random shapes (including degenerate 0/1 dimensions, rows straddling
//! the `GF(2^16)` split-table threshold, and products wider than one
//! `mat_mul` column stripe) and compares the kernel output against the
//! scalar reference element-for-element.

use nab_gf::field::Field;
use nab_gf::kernel::{self, scalar_mul_row_add, scalar_scale_row, FastOps};
use nab_gf::linalg;
use nab_gf::matrix::Matrix;
use nab_gf::{Gf256, Gf2_16, Gf2m};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random matrix of the given shape from a drawn seed.
fn mat<F: Field>(rows: usize, cols: usize, seed: u64) -> Matrix<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random(rows, cols, &mut rng)
}

fn vec_of<F: Field>(len: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| F::random(&mut rng)).collect()
}

/// Row lengths covering both sides of the `GF(2^16)` split-table
/// threshold (1024): half the draws are short rows (0..200), half are
/// long rows (1000..1100).
fn row_len() -> impl Strategy<Value = usize> {
    (any::<bool>(), 0usize..200).prop_map(|(long, l)| if long { 1000 + l % 100 } else { l })
}

/// Instantiates the full differential property set for one field.
macro_rules! differential_suite {
    ($modname:ident, $ty:ty) => {
        mod $modname {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(32))]

                #[test]
                fn mul_row_add_matches_scalar(
                    len in row_len(),
                    seed in any::<u64>(),
                    s in any::<u64>(),
                ) {
                    let s = <$ty>::from_u64(s);
                    let src = vec_of::<$ty>(len, seed);
                    let mut fast = vec_of::<$ty>(len, seed ^ 1);
                    let mut slow = fast.clone();
                    <$ty as FastOps>::mul_row_add(&mut fast, &src, s);
                    scalar_mul_row_add(&mut slow, &src, s);
                    prop_assert_eq!(fast, slow);
                }

                #[test]
                fn scale_row_matches_scalar(
                    len in row_len(),
                    seed in any::<u64>(),
                    s in any::<u64>(),
                ) {
                    let s = <$ty>::from_u64(s);
                    let mut fast = vec_of::<$ty>(len, seed);
                    let mut slow = fast.clone();
                    <$ty as FastOps>::scale_row(&mut fast, s);
                    scalar_scale_row(&mut slow, s);
                    prop_assert_eq!(fast, slow);
                }

                #[test]
                fn mat_mul_matches_matrix_mul(
                    r in 1usize..10, k in 1usize..10,
                    // Output widths cover both sides of the column-stripe
                    // boundary (the batched equality check's shape: few
                    // rows, very wide packed slabs).
                    c in (any::<bool>(), 1usize..10)
                        .prop_map(|(wide, c)| if wide { kernel::COL_BLOCK + 28 + c } else { c }),
                    seed in any::<u64>(),
                ) {
                    let a = mat::<$ty>(r, k, seed);
                    let b = mat::<$ty>(k, c, seed ^ 0xFACE);
                    prop_assert_eq!(kernel::mat_mul(&a, &b), a.mul(&b));
                }

                #[test]
                fn left_mul_vec_matches_matrix(
                    r in 1usize..12, c in 1usize..12,
                    seed in any::<u64>(),
                ) {
                    let m = mat::<$ty>(r, c, seed);
                    let v = vec_of::<$ty>(r, seed ^ 0xBEEF);
                    prop_assert_eq!(kernel::left_mul_vec(&m, &v), m.left_mul_vec(&v));
                }

                #[test]
                fn echelon_and_rank_match_linalg(
                    r in 1usize..8, c in 1usize..10,
                    seed in any::<u64>(),
                ) {
                    let a = mat::<$ty>(r, c, seed);
                    let fast = kernel::echelon(&a);
                    let slow = linalg::echelon(&a);
                    prop_assert_eq!(&fast.pivots, &slow.pivots);
                    prop_assert_eq!(fast.matrix, slow.matrix);
                    prop_assert_eq!(kernel::rank(&a), linalg::rank(&a));
                }

                #[test]
                fn invert_matches_linalg(n in 1usize..9, seed in any::<u64>()) {
                    let a = mat::<$ty>(n, n, seed);
                    prop_assert_eq!(kernel::invert(&a), linalg::invert(&a));
                    prop_assert_eq!(
                        kernel::is_invertible(&a),
                        linalg::is_invertible(&a)
                    );
                }

                #[test]
                fn solve_matches_linalg(
                    r in 1usize..8, c in 1usize..8,
                    seed in any::<u64>(),
                ) {
                    // Arbitrary rectangular systems: consistent or not,
                    // both paths must agree exactly (including the choice
                    // of solution for under-determined systems).
                    let a = mat::<$ty>(r, c, seed);
                    let b = vec_of::<$ty>(r, seed ^ 0xD1CE);
                    prop_assert_eq!(kernel::solve(&a, &b), linalg::solve(&a, &b));
                }

                #[test]
                fn kernel_basis_matches_linalg(
                    r in 1usize..7, c in 1usize..9,
                    seed in any::<u64>(),
                ) {
                    let a = mat::<$ty>(r, c, seed);
                    prop_assert_eq!(kernel::kernel_basis(&a), linalg::kernel_basis(&a));
                }
            }
        }
    };
}

differential_suite!(diff_gf256, Gf256);
differential_suite!(diff_gf2_16, Gf2_16);
differential_suite!(diff_gf2m_13, Gf2m<13>);
differential_suite!(diff_gf2m_32, Gf2m<32>);
