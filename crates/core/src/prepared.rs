//! Prepared communities: encode once, join many times.
//!
//! Catalog workloads (the engine's screening phase, broadcast sweeps)
//! join the *same* community against many partners. The plain entry
//! points re-encode both sides on every call; a [`PreparedCommunity`]
//! carries both encoded buffers (`Encd_B` for when it plays the smaller
//! side, `Encd_A` for when it plays the larger side) so repeated MinMax
//! joins skip the `O(n·d + n log n)` encode-and-sort setup entirely.
//!
//! ```
//! use csj_core::prepared::{ex_minmax_between, PreparedCommunity};
//! use csj_core::{Community, CsjOptions};
//!
//! let mut x = Community::new("X", 2);
//! x.push(1, &[1, 1]).unwrap();
//! let mut y = Community::new("Y", 2);
//! y.push(9, &[1, 2]).unwrap();
//!
//! let opts = CsjOptions::new(1);
//! let px = PreparedCommunity::new(x, &opts);
//! let py = PreparedCommunity::new(y, &opts);
//! let raw = ex_minmax_between(&px, &py, &opts);
//! assert_eq!(raw.pairs.len(), 1);
//! ```

use std::sync::Arc;

use crate::algorithms::{CsjOptions, RawJoin};
use crate::community::Community;
use crate::encoding::{encode_a, encode_b, EncodedA, EncodedB, EncodingParams};

/// A community with both MinMax encodings precomputed for a fixed
/// `(eps, parts)` configuration.
///
/// The community itself is held behind an [`Arc`], so preparing an
/// encoding for a community someone else already owns (the engine's
/// registry, a caller keeping its own handle) shares the user vectors
/// instead of copying them — see [`PreparedCommunity::from_shared`].
#[derive(Debug, Clone)]
pub struct PreparedCommunity {
    community: Arc<Community>,
    eps: u32,
    params: EncodingParams,
    as_b: EncodedB,
    as_a: EncodedA,
}

impl PreparedCommunity {
    /// Encode `community` for joins under `opts` (only `eps` and the
    /// encoding parameters matter here).
    pub fn new(community: Community, opts: &CsjOptions) -> Self {
        Self::from_shared(Arc::new(community), opts)
    }

    /// Encode an already-shared community without copying its rows.
    pub fn from_shared(community: Arc<Community>, opts: &CsjOptions) -> Self {
        let as_b = encode_b(&community, opts.encoding);
        let as_a = encode_a(&community, opts.eps, opts.encoding);
        Self {
            community,
            eps: opts.eps,
            params: opts.encoding,
            as_b,
            as_a,
        }
    }

    /// The wrapped community.
    pub fn community(&self) -> &Community {
        &self.community
    }

    /// The epsilon the encodings were built for.
    pub fn eps(&self) -> u32 {
        self.eps
    }

    /// The encoding parameters the buffers were built with.
    pub fn params(&self) -> EncodingParams {
        self.params
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.community.len()
    }

    /// Whether the community is empty.
    pub fn is_empty(&self) -> bool {
        self.community.is_empty()
    }

    /// The `Encd_B` buffer (used when this community is the smaller side).
    pub fn encoded_b(&self) -> &EncodedB {
        &self.as_b
    }

    /// The `Encd_A` buffer (used when this community is the larger side).
    pub fn encoded_a(&self) -> &EncodedA {
        &self.as_a
    }

    /// The wrapped community's shared handle (cheap refcount bump).
    pub fn shared_community(&self) -> Arc<Community> {
        Arc::clone(&self.community)
    }

    /// Consume the wrapper, returning the community. Clones the rows
    /// only when another `Arc` still shares them.
    pub fn into_community(self) -> Community {
        Arc::try_unwrap(self.community).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Reassemble from persisted pieces (the `csj_data::io` load path).
    /// The buffers must match the community's size and the `(eps, parts)`
    /// configuration; mismatches are rejected.
    pub fn from_parts(
        community: Community,
        eps: u32,
        params: EncodingParams,
        as_b: EncodedB,
        as_a: EncodedA,
    ) -> Result<Self, crate::CsjError> {
        let expected_parts = params.effective_parts(community.d());
        if as_b.len() != community.len()
            || as_a.len() != community.len()
            || as_b.parts() != expected_parts
            || as_a.parts() != expected_parts
        {
            return Err(crate::CsjError::InvalidOptions(
                "prepared buffers do not match the community/configuration".into(),
            ));
        }
        Ok(Self {
            community: Arc::new(community),
            eps,
            params,
            as_b,
            as_a,
        })
    }
}

fn check_compatible(b: &PreparedCommunity, a: &PreparedCommunity, opts: &CsjOptions) {
    assert_eq!(
        b.community.d(),
        a.community.d(),
        "prepared communities must share dimensionality"
    );
    assert!(
        b.eps == opts.eps && a.eps == opts.eps,
        "prepared encodings were built for a different eps"
    );
    assert!(
        b.params == opts.encoding && a.params == opts.encoding,
        "prepared encodings were built with different encoding params"
    );
}

/// Ap-MinMax over prepared communities (`b` smaller, `a` larger); no
/// re-encoding happens.
pub fn ap_minmax_between(
    b: &PreparedCommunity,
    a: &PreparedCommunity,
    opts: &CsjOptions,
) -> RawJoin {
    check_compatible(b, a, opts);
    crate::algorithms::minmax::ap_minmax_prepared(
        b.community(),
        a.community(),
        b.encoded_b(),
        a.encoded_a(),
        opts,
    )
}

/// Ex-MinMax over prepared communities (`b` smaller, `a` larger); no
/// re-encoding happens.
pub fn ex_minmax_between(
    b: &PreparedCommunity,
    a: &PreparedCommunity,
    opts: &CsjOptions,
) -> RawJoin {
    check_compatible(b, a, opts);
    crate::algorithms::minmax::ex_minmax_prepared(
        b.community(),
        a.community(),
        b.encoded_b(),
        a.encoded_a(),
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{ap_minmax, ex_minmax};

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    fn random_community(name: &str, n: usize, d: usize, seed: u64) -> Community {
        let mut rng = lcg(seed);
        Community::from_rows(
            name,
            d,
            (0..n).map(|i| (i as u64, (0..d).map(|_| rng() % 12).collect::<Vec<u32>>())),
        )
        .expect("well-formed")
    }

    #[test]
    fn prepared_joins_match_plain_joins() {
        let opts = CsjOptions::new(1).with_parts(2);
        let b = random_community("B", 80, 4, 1);
        let a = random_community("A", 100, 4, 2);
        let pb = PreparedCommunity::new(b.clone(), &opts);
        let pa = PreparedCommunity::new(a.clone(), &opts);

        let plain_ap = ap_minmax(&b, &a, &opts);
        let prep_ap = ap_minmax_between(&pb, &pa, &opts);
        assert_eq!(plain_ap.pairs, prep_ap.pairs);
        assert_eq!(plain_ap.telemetry, prep_ap.telemetry);

        let plain_ex = ex_minmax(&b, &a, &opts);
        let prep_ex = ex_minmax_between(&pb, &pa, &opts);
        assert_eq!(plain_ex.pairs, prep_ex.pairs);
    }

    #[test]
    fn either_orientation_works_from_one_preparation() {
        // The same prepared object serves as B against one partner and as
        // A against another.
        let opts = CsjOptions::new(1).with_parts(2);
        let mid = PreparedCommunity::new(random_community("mid", 60, 3, 7), &opts);
        let small = PreparedCommunity::new(random_community("small", 40, 3, 8), &opts);
        let large = PreparedCommunity::new(random_community("large", 90, 3, 9), &opts);
        let as_a = ex_minmax_between(&small, &mid, &opts);
        let as_b = ex_minmax_between(&mid, &large, &opts);
        assert!(as_a.pairs.len() <= small.len());
        assert!(as_b.pairs.len() <= mid.len());
    }

    #[test]
    fn accessors() {
        let opts = CsjOptions::new(2).with_parts(3);
        let c = random_community("acc", 10, 3, 3);
        let p = PreparedCommunity::new(c.clone(), &opts);
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
        assert_eq!(p.eps(), 2);
        assert_eq!(p.params().parts, 3);
        assert_eq!(p.encoded_b().len(), 10);
        assert_eq!(p.encoded_a().len(), 10);
        assert_eq!(p.into_community(), c);
    }

    #[test]
    fn from_shared_shares_rather_than_copies() {
        let opts = CsjOptions::new(1).with_parts(2);
        let c = Arc::new(random_community("sh", 10, 3, 5));
        let p = PreparedCommunity::from_shared(Arc::clone(&c), &opts);
        assert!(Arc::ptr_eq(&c, &p.shared_community()));
        // With the outer Arc still alive, consuming must clone.
        let back = p.into_community();
        assert_eq!(back, *c);
    }

    #[test]
    #[should_panic(expected = "different eps")]
    fn rejects_mismatched_eps() {
        let c = random_community("x", 4, 2, 1);
        let p1 = PreparedCommunity::new(c.clone(), &CsjOptions::new(1));
        let p2 = PreparedCommunity::new(c, &CsjOptions::new(2));
        let _ = ex_minmax_between(&p1, &p2, &CsjOptions::new(1));
    }
}
