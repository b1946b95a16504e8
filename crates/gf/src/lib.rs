//! Finite fields `GF(2^m)` and dense linear algebra over them.
//!
//! The NAB equality-check algorithm (Algorithm 1 of Liang & Vaidya 2012)
//! interprets an `L`-bit broadcast value as `ρ` symbols of `GF(2^{L/ρ})` and
//! transmits random linear combinations of those symbols on every link. This
//! crate provides everything that machinery needs:
//!
//! - [`field::Field`] — the abstract field interface,
//! - [`gf2m::Gf2_16`] — the engine's symbol field, table-based,
//! - [`gf2m::Gf2m`] — generic `GF(2^m)` for any `1 ≤ m ≤ 64` via carry-less
//!   multiplication and a built-in table of low-weight irreducible
//!   polynomials (the Theorem-1 field-size experiments),
//! - [`gf256::Gf256`] — a small table-based field the tests use as a
//!   fixture,
//! - [`matrix::Matrix`] — dense row-major matrices with multiplication,
//!   stacking and slicing; the one matrix type,
//! - [`linalg`] — scalar Gaussian elimination: rank, determinant-zero
//!   testing, inversion, solving, and kernel bases (the reference oracle),
//! - [`kernel`] — the [`kernel::FastOps`] row-kernel specialization trait
//!   and kernelized linear algebra, bit-identical to [`linalg`] but
//!   table-driven for `GF(2^16)`; its column-striped [`kernel::mat_mul`]
//!   is the engine's batched equality-check multiply,
//! - [`simd`] — the runtime-detected arch-SIMD `GF(2^16)` row-kernel tier
//!   (nibble-split PSHUFB tables via SSSE3/AVX2 intrinsics, with a
//!   portable fallback identical in results).
//!
//! # Example
//!
//! ```
//! use nab_gf::gf2m::Gf2_16;
//! use nab_gf::matrix::Matrix;
//! use nab_gf::field::Field;
//!
//! # fn main() {
//! let mut rng = rand::thread_rng();
//! let a = Matrix::<Gf2_16>::random(4, 4, &mut rng);
//! if let Some(inv) = nab_gf::linalg::invert(&a) {
//!     assert_eq!(a.mul(&inv), Matrix::identity(4));
//! }
//! # }
//! ```

pub mod field;
pub mod gf256;
pub mod gf2m;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod poly2;
pub mod simd;

pub use field::Field;
pub use gf256::Gf256;
pub use gf2m::{Gf2_16, Gf2_32, Gf2m};
pub use kernel::FastOps;
pub use matrix::Matrix;
