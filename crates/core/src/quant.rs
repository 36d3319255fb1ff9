//! The compare path of the integer-domain kernels.
//!
//! Every `drive_*` kernel settles a candidate pair with one full
//! d-dimensional test, `|b_i - a_i| <= eps`, on the communities' raw
//! `u32` counters. [`QuantMode`] picks how that test runs:
//!
//! * `Auto` (the default) — the chunked, branchless
//!   [`csj_ego::lanes::all_within`] kernel, plus the cache-blocked
//!   all-pairs scan for Ex-Baseline (`A` walked in [`tile_geometry`]
//!   tiles);
//! * `Off` — the scalar short-circuit loop and the serial scan: the
//!   `kernel_gate` baseline and the parity suite's reference.
//!
//! Both paths return exactly the same boolean for every pair, so the
//! mode changes timings and the telemetry's `lane_bits`/`a_tiles`
//! fields, never a result.
//!
//! There is one lane width because the paper's counters need all 32
//! bits: VK counters reach 152,532 and Synthetic ones 500,000. Across
//! the `perfbench` workloads no community fits 16 bits (the smallest
//! per-community maximum is 99,517 on `vk` and 499,681 on `synthetic`,
//! seeds 1, 2, 3, 301 and 305), so narrower copies of the data would
//! never be used.

use csj_ego::lanes;

use crate::community::Community;

/// How the join kernels compare counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Chunked `u32` compares and the cache-blocked exact scan (the
    /// default).
    #[default]
    Auto,
    /// Scalar short-circuit `u32` comparisons, no chunked kernels, no
    /// tiling: the `kernel_gate` baseline.
    Off,
}

impl QuantMode {
    /// Whether the chunked fast path is enabled.
    #[inline]
    #[must_use]
    pub fn enabled(self) -> bool {
        !matches!(self, QuantMode::Off)
    }
}

/// A borrowed view of one community pair's counters: the one object
/// the `drive_*` kernels consult for full d-dimensional comparisons.
/// Rows are addressed by community index on either side.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneView<'x> {
    b: &'x [u32],
    a: &'x [u32],
    d: usize,
    eps: u32,
    /// `false` under [`QuantMode::Off`]: the scalar reference path.
    chunked: bool,
}

impl<'x> LaneView<'x> {
    /// The view of `b` against `a` under `mode`.
    pub(crate) fn select(mode: QuantMode, b: &'x Community, a: &'x Community, eps: u32) -> Self {
        debug_assert_eq!(b.d(), a.d());
        LaneView {
            b: b.raw_data(),
            a: a.raw_data(),
            d: b.d(),
            eps,
            chunked: mode.enabled(),
        }
    }

    /// Dimensionality of the viewed vectors.
    pub(crate) fn d(&self) -> usize {
        self.d
    }

    /// Lane width in bits for telemetry; `0` marks the scalar path.
    pub(crate) fn lane_bits(&self) -> u64 {
        if self.chunked {
            32
        } else {
            0
        }
    }

    /// Full per-dimension comparison of `B` row `bi` against `A` row
    /// `aj`. Both paths compute the same boolean; they differ only in
    /// kernel shape.
    #[inline]
    pub(crate) fn matches(&self, bi: usize, aj: usize) -> bool {
        let d = self.d;
        let b = &self.b[bi * d..bi * d + d];
        let a = &self.a[aj * d..aj * d + d];
        if self.chunked {
            lanes::all_within(b, a, self.eps)
        } else {
            lanes::all_within_scalar(b, a, self.eps)
        }
    }
}

/// Cache-blocking geometry for the all-pairs exact scan: how many `A`
/// rows fit one tile so a tile's counters stay resident in L1/L2 while
/// a block of `B` rows streams over it.
///
/// Returns `(tile_rows, tile_count)`. Also feeds the planner's tile
/// feature, so it must stay deterministic in `(na, d)`.
#[must_use]
pub fn tile_geometry(na: usize, d: usize) -> (usize, usize) {
    /// Target bytes of `A` data per tile — half a typical 64 KiB L1d,
    /// leaving room for the `B` block and edge buffers.
    const TILE_BYTES: usize = 32 * 1024;
    if na == 0 {
        return (0, 0);
    }
    let row_bytes = d.max(1) * std::mem::size_of::<u32>();
    let tile_rows = (TILE_BYTES / row_bytes).clamp(64, na.max(64)).min(na);
    (tile_rows, na.div_ceil(tile_rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_views_agree_with_scalar() {
        // Small counters (every value fits a byte) still run, and agree,
        // on the chunked u32 path.
        let mut b = Community::new("B", 4);
        b.push(1, &[1, 200, 3, 40]).unwrap();
        b.push(2, &[9, 9, 9, 9]).unwrap();
        let mut a = Community::new("A", 4);
        a.push(7, &[2, 199, 3, 41]).unwrap();
        a.push(8, &[100, 100, 100, 100]).unwrap();
        for eps in [0u32, 1, 2, 150] {
            let fast = LaneView::select(QuantMode::Auto, &b, &a, eps);
            let slow = LaneView::select(QuantMode::Off, &b, &a, eps);
            assert_eq!((fast.lane_bits(), slow.lane_bits()), (32, 0));
            for bi in 0..2 {
                for aj in 0..2 {
                    assert_eq!(
                        fast.matches(bi, aj),
                        slow.matches(bi, aj),
                        "eps={eps} bi={bi} aj={aj}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_geometry_covers_a_exactly() {
        for na in [1usize, 63, 64, 1000, 5000] {
            for d in [1usize, 27, 200] {
                let (rows, count) = tile_geometry(na, d);
                assert!(rows >= 1 && rows <= na);
                assert_eq!(count, na.div_ceil(rows));
            }
        }
        assert_eq!(tile_geometry(0, 27), (0, 0));
    }
}
