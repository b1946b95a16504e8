//! `GF(2^8)` with log/antilog tables — a small field the tests use as a
//! fixture (the engine codes over `GF(2^16)`). It takes the scalar
//! [`crate::kernel::FastOps`] defaults.
//!
//! Uses the primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11D`), the
//! conventional Reed–Solomon modulus, for which `x` (i.e. `2`) is a
//! multiplicative generator.

use std::fmt;
use std::sync::OnceLock;

use crate::field::Field;

/// The modulus `x^8 + x^4 + x^3 + x^2 + 1`.
pub const MODULUS: u16 = 0x11D;

struct Tables {
    exp: [u8; 512],
    log: [u16; 256],
}

#[allow(clippy::needless_range_loop)] // the index is the discrete log itself
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= MODULUS;
            }
        }
        // Duplicate so exp[log a + log b] never needs a mod-255 reduction.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// An element of `GF(2^8)`.
///
/// # Example
///
/// ```
/// use nab_gf::{Field, Gf256};
/// let a = Gf256::from_u64(7);
/// let b = a.inv().expect("non-zero");
/// assert_eq!(a.mul(b), Gf256::ONE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);
    const BITS: u32 = 8;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256(0);
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf256(t.exp[idx])
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        let t = tables();
        let l = t.log[self.0 as usize] as usize;
        Some(Gf256(t.exp[255 - l]))
    }

    #[inline]
    fn from_u64(x: u64) -> Self {
        Gf256(x as u8)
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self.0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly2;

    #[test]
    fn modulus_is_irreducible() {
        assert!(poly2::is_irreducible(MODULUS as u128));
    }

    #[test]
    fn mul_matches_polynomial_reference() {
        // Cross-check the table multiply against carry-less poly arithmetic.
        for a in 0..=255u64 {
            for b in (0..=255u64).step_by(7) {
                let fast = Gf256::from_u64(a).mul(Gf256::from_u64(b)).to_u64();
                let slow = poly2::mul_mod(a as u128, b as u128, MODULUS as u128) as u64;
                assert_eq!(fast, slow, "mismatch at {a} * {b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u64 {
            let x = Gf256::from_u64(a);
            let ix = x.inv().expect("non-zero element must be invertible");
            assert_eq!(x.mul(ix), Gf256::ONE, "inverse failed for {a}");
        }
        assert_eq!(Gf256::ZERO.inv(), None);
    }

    #[test]
    fn generator_has_full_order() {
        // 2 is a generator for 0x11D: its powers enumerate all 255 non-zero
        // elements.
        let g = Gf256::from_u64(2);
        let mut seen = std::collections::HashSet::new();
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(seen.insert(x.0));
            x = x.mul(g);
        }
        assert_eq!(x, Gf256::ONE);
        assert_eq!(seen.len(), 255);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = Gf256::from_u64(9);
        let mut acc = Gf256::ONE;
        for e in 0..20u64 {
            assert_eq!(x.pow(e), acc);
            acc = acc.mul(x);
        }
    }

    #[test]
    fn div_is_mul_by_inverse() {
        let a = Gf256::from_u64(100);
        let b = Gf256::from_u64(33);
        let q = a.div(b).unwrap();
        assert_eq!(q.mul(b), a);
        assert_eq!(a.div(Gf256::ZERO), None);
    }
}
