//! Chunked, vectorization-friendly evaluation of the per-dimension
//! epsilon condition — the one seam every scalar match path in the
//! workspace routes through.
//!
//! The short-circuited form (`iter().zip().all(...)`) compiles to a
//! branch per dimension, which defeats auto-vectorization. [`all_within`]
//! instead evaluates 8-wide chunks of dimensions branchlessly
//! (`ok &= within` per lane) and only branches once per chunk, which
//! LLVM lowers to SIMD compares on every target with vector units (a
//! `u32`/`f32` chunk is two 128-bit or one 256-bit register).
//!
//! It returns exactly the same booleans as the scalar reference
//! ([`all_within_scalar`]), so callers can swap freely between them
//! without changing results.

use crate::scalar::Scalar;

/// Chunk width of [`all_within`].
const LANES: usize = 8;

/// Branchless evaluation of one `LANES`-wide chunk.
#[inline]
fn chunk_within<S: Scalar>(b: &[S], a: &[S], eps: S) -> bool {
    let mut ok = true;
    for k in 0..LANES {
        ok &= b[k].within(a[k], eps);
    }
    ok
}

/// `|b_i - a_i| <= eps` for every dimension, evaluated 8 lanes at a
/// time.
///
/// Equivalent to [`all_within_scalar`] but vectorization-friendly.
#[inline]
#[must_use]
pub fn all_within<S: Scalar>(b: &[S], a: &[S], eps: S) -> bool {
    debug_assert_eq!(b.len(), a.len());
    let mut bc = b.chunks_exact(LANES);
    let mut ac = a.chunks_exact(LANES);
    for (bk, ak) in bc.by_ref().zip(ac.by_ref()) {
        if !chunk_within(bk, ak, eps) {
            return false;
        }
    }
    let rb = bc.remainder();
    let ra = ac.remainder();
    rb.iter().zip(ra).all(|(&x, &y)| x.within(y, eps))
}

/// The scalar short-circuit reference: one branch per dimension.
///
/// Kept as the explicit "legacy" path so benchmarks (and
/// `QuantMode::Off` in `csj-core`) can compare against the exact
/// pre-vectorization behaviour.
#[inline]
#[must_use]
pub fn all_within_scalar<S: Scalar>(b: &[S], a: &[S], eps: S) -> bool {
    debug_assert_eq!(b.len(), a.len());
    b.iter().zip(a.iter()).all(|(&x, &y)| x.within(y, eps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_matches_scalar_u32() {
        // Lengths around every chunk boundary, mismatch in every position.
        for d in [0usize, 1, 7, 8, 9, 15, 16, 17, 27, 32, 33, 40] {
            let b: Vec<u32> = (0..d as u32).collect();
            for bad in 0..d {
                let mut a = b.clone();
                a[bad] = a[bad].wrapping_add(10);
                assert!(!all_within(&b, &a, 3), "d={d} bad={bad}");
                assert_eq!(
                    all_within(&b, &a, 3),
                    all_within_scalar(&b, &a, 3),
                    "d={d} bad={bad}"
                );
            }
            let a = b.clone();
            assert!(all_within(&b, &a, 0), "d={d} equal");
        }
        // Small-range values (byte- and 16-bit-sized profiles) widened
        // to u32 run the same chunked path.
        let d = 27usize;
        let b: Vec<u32> = (0..d as u32).map(|v| (v * 7) % 256).collect();
        let mut a = b.clone();
        a[13] = (a[13] + 50) % 256;
        assert_eq!(all_within(&b, &a, 4), all_within_scalar(&b, &a, 4));
        let b16: Vec<u32> = b.iter().map(|&v| v * 300).collect();
        let a16: Vec<u32> = a.iter().map(|&v| v * 300).collect();
        assert_eq!(
            all_within(&b16, &a16, 1000),
            all_within_scalar(&b16, &a16, 1000)
        );
    }

    #[test]
    fn boundary_is_inclusive() {
        assert!(all_within(&[5u32; 9], &[7u32; 9], 2));
        assert!(!all_within(&[5u32; 9], &[8u32; 9], 2));
    }

    #[test]
    fn float_lanes_match_scalar() {
        let b: Vec<f32> = (0..20).map(|i| i as f32 * 0.05).collect();
        let mut a = b.clone();
        a[19] += 0.5;
        assert_eq!(
            all_within(&b, &a, 0.1f32),
            all_within_scalar(&b, &a, 0.1f32)
        );
        assert!(!all_within(&b, &a, 0.1f32));
    }
}
