//! Arch-SIMD `GF(2^16)` row kernels: nibble-split PSHUFB-style table
//! lookups.
//!
//! `GF(2^m)` multiplication by a fixed scalar `s` is `GF(2)`-linear, so it
//! splits over any basis of the operand: `s·x = Σ_k s·(nibble_k(x) << 4k)`.
//! Each 4-bit nibble has only 16 possible values, and a 16-entry byte table
//! is exactly one `PSHUFB` (`_mm_shuffle_epi8`) register, so one fused
//! multiply-add over a row becomes a handful of shuffles and XORs per
//! 16/32-byte vector. This is the classic SIMD erasure-coding kernel
//! (ISA-L, klauspost/reedsolomon).
//!
//! The tier is picked **once per process** by runtime CPU-feature
//! detection ([`tier`]): `avx2` → 32-byte vectors, `ssse3` → 16-byte
//! vectors, `portable` → the chunked table loops the process already had
//! (non-x86 builds compile only the portable path). Every tier is
//! **bit-identical**: characteristic-2 addition is XOR, so vectorization
//! changes neither values nor any accumulation result. The differential
//! suite in `tests/differential.rs` pins all tiers against the scalar
//! reference.

use std::sync::OnceLock;

use crate::gf2m::Gf2_16;

/// Rows shorter than this (in elements) skip the SIMD dispatch: below a
/// couple of vectors the table-build and tail handling dominate, and the
/// scalar table loops are already fast.
pub const SIMD_THRESHOLD: usize = 64;

/// The kernel tier selected for this process.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Tier {
    Avx2,
    Ssse3,
    Portable,
}

fn detect() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return Tier::Ssse3;
        }
    }
    Tier::Portable
}

fn tier_enum() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

/// The selected SIMD tier name: `"avx2"`, `"ssse3"`, or `"portable"`.
/// Decided once at first use from runtime CPU-feature detection.
pub fn tier() -> &'static str {
    match tier_enum() {
        Tier::Avx2 => "avx2",
        Tier::Ssse3 => "ssse3",
        Tier::Portable => "portable",
    }
}

/// Comma-joined list of the detected CPU features relevant to the GF
/// kernels (e.g. `"sse2,ssse3,avx2"`), or `"none"` when no candidate
/// feature is present (including non-x86 builds). Recorded in perf
/// baselines and the sweep-start trace event so numbers from different
/// machines stay comparable.
pub fn cpu_features() -> &'static str {
    static FEATURES: OnceLock<String> = OnceLock::new();
    FEATURES.get_or_init(|| {
        let mut found: Vec<&str> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                found.push("sse2");
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                found.push("ssse3");
            }
            if std::arch::is_x86_feature_detected!("avx") {
                found.push("avx");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                found.push("avx2");
            }
        }
        if found.is_empty() {
            "none".to_string()
        } else {
            found.join(",")
        }
    })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `cfg`-gated intrinsics bodies. Safety contract throughout:
    //! the caller checked the CPU feature at runtime (the tier is only
    //! selected when detection succeeded), and all loads/stores are
    //! unaligned (`loadu`/`storeu`) so no alignment obligations exist.
    use super::*;
    use crate::field::Field;
    use std::arch::x86_64::*;

    // --- GF(2^16): four nibble tables, each split lo/hi product byte. ---
    //
    // A 16-bit operand has four nibbles; `T_k[n] = s·(n << 4k)` for
    // k = 0..3, with each table stored as two 16-byte PSHUFB registers
    // (low product byte, high product byte). Per vector of operands:
    // deinterleave into a low-byte vector and a high-byte vector with
    // PACKUSWB (exact — inputs are pre-masked to ≤ 255, so saturation
    // never fires), do 8 shuffles + XOR trees, then re-interleave the
    // product bytes with PUNPCKL/HBW. Both pack and unpack operate
    // per 128-bit lane, so the lane permutation pack introduces is
    // exactly undone by unpack and products land back on their operands.

    pub(super) struct Tables16x4 {
        lo: [[u8; 16]; 4],
        hi: [[u8; 16]; 4],
    }

    pub(super) fn gf2_16_nibble_tables(s: Gf2_16) -> Tables16x4 {
        let mut t = Tables16x4 {
            lo: [[0; 16]; 4],
            hi: [[0; 16]; 4],
        };
        for k in 0..4 {
            for n in 0..16u16 {
                let p = s.mul(Gf2_16(n << (4 * k))).0;
                t.lo[k][n as usize] = p as u8;
                t.hi[k][n as usize] = (p >> 8) as u8;
            }
        }
        t
    }

    // SAFETY: caller must have verified SSSE3 via runtime
    // detection; all vector loads/stores below are unaligned and
    // bounded by the slice lengths, so no other obligations exist.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn gf2_16_mul_row_add_ssse3(dst: &mut [Gf2_16], src: &[Gf2_16], s: Gf2_16) {
        let t = gf2_16_nibble_tables(s);
        let tl: [__m128i; 4] =
            std::array::from_fn(|k| _mm_loadu_si128(t.lo[k].as_ptr() as *const __m128i));
        let th: [__m128i; 4] =
            std::array::from_fn(|k| _mm_loadu_si128(t.hi[k].as_ptr() as *const __m128i));
        let nib = _mm_set1_epi8(0x0F);
        let byte = _mm_set1_epi16(0x00FF);
        let n = dst.len();
        // `Gf2_16` is repr(transparent) over u16, so the slabs reinterpret
        // as raw u16 (little-endian byte pairs) for the vector loads.
        let sp = src.as_ptr() as *const u8;
        let dp = dst.as_mut_ptr() as *mut u8;
        let mut i = 0;
        // 16 elements (two 8×u16 vectors) per iteration.
        while i + 16 <= n {
            let v0 = _mm_loadu_si128(sp.add(2 * i) as *const __m128i);
            let v1 = _mm_loadu_si128(sp.add(2 * i + 16) as *const __m128i);
            let lob = _mm_packus_epi16(_mm_and_si128(v0, byte), _mm_and_si128(v1, byte));
            let hib = _mm_packus_epi16(_mm_srli_epi16::<8>(v0), _mm_srli_epi16::<8>(v1));
            let n0 = _mm_and_si128(lob, nib);
            let n1 = _mm_and_si128(_mm_srli_epi64::<4>(lob), nib);
            let n2 = _mm_and_si128(hib, nib);
            let n3 = _mm_and_si128(_mm_srli_epi64::<4>(hib), nib);
            let plo = _mm_xor_si128(
                _mm_xor_si128(_mm_shuffle_epi8(tl[0], n0), _mm_shuffle_epi8(tl[1], n1)),
                _mm_xor_si128(_mm_shuffle_epi8(tl[2], n2), _mm_shuffle_epi8(tl[3], n3)),
            );
            let phi = _mm_xor_si128(
                _mm_xor_si128(_mm_shuffle_epi8(th[0], n0), _mm_shuffle_epi8(th[1], n1)),
                _mm_xor_si128(_mm_shuffle_epi8(th[2], n2), _mm_shuffle_epi8(th[3], n3)),
            );
            let r0 = _mm_unpacklo_epi8(plo, phi);
            let r1 = _mm_unpackhi_epi8(plo, phi);
            let d0 = _mm_loadu_si128(dp.add(2 * i) as *const __m128i);
            let d1 = _mm_loadu_si128(dp.add(2 * i + 16) as *const __m128i);
            _mm_storeu_si128(dp.add(2 * i) as *mut __m128i, _mm_xor_si128(d0, r0));
            _mm_storeu_si128(dp.add(2 * i + 16) as *mut __m128i, _mm_xor_si128(d1, r1));
            i += 16;
        }
        if i < n {
            crate::gf2m::mul_row_add_log16(&mut dst[i..], &src[i..], s);
        }
    }

    // SAFETY: caller must have verified AVX2 via runtime
    // detection; all vector loads/stores below are unaligned and
    // bounded by the slice lengths, so no other obligations exist.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gf2_16_mul_row_add_avx2(dst: &mut [Gf2_16], src: &[Gf2_16], s: Gf2_16) {
        let t = gf2_16_nibble_tables(s);
        let tl: [__m256i; 4] = std::array::from_fn(|k| {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo[k].as_ptr() as *const __m128i))
        });
        let th: [__m256i; 4] = std::array::from_fn(|k| {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi[k].as_ptr() as *const __m128i))
        });
        let nib = _mm256_set1_epi8(0x0F);
        let byte = _mm256_set1_epi16(0x00FF);
        let n = dst.len();
        let sp = src.as_ptr() as *const u8;
        let dp = dst.as_mut_ptr() as *mut u8;
        let mut i = 0;
        // 32 elements (two 16×u16 vectors) per iteration. VPACKUSWB and
        // VPUNPCKL/HBW are both per-lane, so pack's lane interleaving is
        // undone by unpack: r0 covers elements i..i+16, r1 the next 16.
        while i + 32 <= n {
            let v0 = _mm256_loadu_si256(sp.add(2 * i) as *const __m256i);
            let v1 = _mm256_loadu_si256(sp.add(2 * i + 32) as *const __m256i);
            let lob = _mm256_packus_epi16(_mm256_and_si256(v0, byte), _mm256_and_si256(v1, byte));
            let hib = _mm256_packus_epi16(_mm256_srli_epi16::<8>(v0), _mm256_srli_epi16::<8>(v1));
            let n0 = _mm256_and_si256(lob, nib);
            let n1 = _mm256_and_si256(_mm256_srli_epi64::<4>(lob), nib);
            let n2 = _mm256_and_si256(hib, nib);
            let n3 = _mm256_and_si256(_mm256_srli_epi64::<4>(hib), nib);
            let plo = _mm256_xor_si256(
                _mm256_xor_si256(
                    _mm256_shuffle_epi8(tl[0], n0),
                    _mm256_shuffle_epi8(tl[1], n1),
                ),
                _mm256_xor_si256(
                    _mm256_shuffle_epi8(tl[2], n2),
                    _mm256_shuffle_epi8(tl[3], n3),
                ),
            );
            let phi = _mm256_xor_si256(
                _mm256_xor_si256(
                    _mm256_shuffle_epi8(th[0], n0),
                    _mm256_shuffle_epi8(th[1], n1),
                ),
                _mm256_xor_si256(
                    _mm256_shuffle_epi8(th[2], n2),
                    _mm256_shuffle_epi8(th[3], n3),
                ),
            );
            let r0 = _mm256_unpacklo_epi8(plo, phi);
            let r1 = _mm256_unpackhi_epi8(plo, phi);
            let d0 = _mm256_loadu_si256(dp.add(2 * i) as *const __m256i);
            let d1 = _mm256_loadu_si256(dp.add(2 * i + 32) as *const __m256i);
            _mm256_storeu_si256(dp.add(2 * i) as *mut __m256i, _mm256_xor_si256(d0, r0));
            _mm256_storeu_si256(dp.add(2 * i + 32) as *mut __m256i, _mm256_xor_si256(d1, r1));
            i += 32;
        }
        if i < n {
            crate::gf2m::mul_row_add_log16(&mut dst[i..], &src[i..], s);
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::*;

/// SIMD-dispatched `dst[i] ^= s · src[i]` over `GF(2^16)`.
///
/// Caller guarantees `s ∉ {0, 1}` and equal lengths; returns `false`
/// when no SIMD tier is available so the caller falls back to its table
/// loops (the "portable" tier).
pub(crate) fn gf2_16_mul_row_add(dst: &mut [Gf2_16], src: &[Gf2_16], s: Gf2_16) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(s.0 >= 2);
    match tier_enum() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            // SAFETY: this tier is only selected after runtime detection
            // proved AVX2 is available on this CPU.
            unsafe { gf2_16_mul_row_add_avx2(dst, src, s) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Ssse3 => {
            // SAFETY: this tier is only selected after runtime detection
            // proved SSSE3 is available on this CPU.
            unsafe { gf2_16_mul_row_add_ssse3(dst, src, s) };
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::kernel::scalar_mul_row_add;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tier_is_a_known_name_and_stable() {
        let t = tier();
        assert!(["avx2", "ssse3", "portable"].contains(&t), "{t}");
        assert_eq!(tier(), t, "tier is decided once");
    }

    #[test]
    fn cpu_features_is_nonempty_and_consistent_with_tier() {
        let f = cpu_features();
        assert!(!f.is_empty());
        match tier() {
            "avx2" => assert!(f.contains("avx2"), "{f}"),
            "ssse3" => assert!(f.contains("ssse3"), "{f}"),
            _ => {}
        }
    }

    #[test]
    fn gf2_16_simd_matches_scalar_at_awkward_lengths() {
        let mut rng = StdRng::seed_from_u64(0x51E);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 47, 64, 65, 500] {
            let src: Vec<Gf2_16> = (0..len).map(|_| Gf2_16::random(&mut rng)).collect();
            let base: Vec<Gf2_16> = (0..len).map(|_| Gf2_16::random(&mut rng)).collect();
            for s in [2u16, 0x100, 0xABCD, 0xFFFF] {
                let s = Gf2_16(s);
                let mut fast = base.clone();
                if !gf2_16_mul_row_add(&mut fast, &src, s) {
                    continue; // portable tier: nothing to compare
                }
                let mut slow = base.clone();
                scalar_mul_row_add(&mut slow, &src, s);
                assert_eq!(fast, slow, "len={len} s={s:?}");
            }
        }
    }
}
