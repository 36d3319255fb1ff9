//! Cost-based query planning: pick a [`CsjMethod`] from the instance.
//!
//! The paper's Section 6.2 timing analysis shows that no single method
//! wins everywhere: the Ex-MinMax / Ex-SuperEGO crossover moves with
//! `|A|`, `|B|`, `d`, `eps` and data density, and the discussion
//! sketches a "combined algorithm" that picks per instance. This module
//! is that combiner's model half: a [`PlanInput`] summarises one join
//! instance, a versioned [`CostTable`] holds per-method linear cost
//! coefficients (seeded from the offline `tables -- crossover`
//! experiment, recalibratable via [`fit`]), and [`CostTable::plan`]
//! deterministically resolves [`CsjMethod::Auto`] to the cheapest
//! admissible concrete method, keeping the rejected alternatives for
//! `csj explain` and query traces.
//!
//! Everything here is **pure and deterministic**: the same table and the
//! same input always produce the same [`QueryPlan`] (the planner's
//! online feedback loop lives in `csj-engine`, where latency
//! observations exist). The table serialises to a small versioned text
//! format (`csj-cost-table v1`) so a calibrated model survives process
//! restarts and can be reviewed in a diff.

use crate::algorithms::CsjMethod;
use crate::prepared::PreparedCommunity;

/// Format/semantics version of [`CostTable`]; bumped when the feature
/// vector or the serialised layout changes incompatibly. v2 extended
/// the vector with the kernel features (lane-scaled compare volume,
/// A-tile count).
pub const COST_TABLE_VERSION: u32 = 2;

/// Length of the per-method feature/weight vector.
pub const FEATURES: usize = 6;

/// Number of concrete methods the table covers.
const METHODS: usize = CsjMethod::ALL.len();

/// Density assumed when no prepared encodings are available to estimate
/// it (cold CLI paths, registry-average ladder inputs).
pub const DEFAULT_DENSITY: f64 = 0.25;

/// What kind of answer the caller needs; restricts which methods a plan
/// may choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exactness {
    /// Only exact methods qualify (refinement, cached similarities).
    Exact,
    /// Only approximate methods qualify (screening, degraded sweeps).
    Approximate,
    /// Any method qualifies; the plan simply picks the cheapest.
    Any,
}

impl Exactness {
    /// Whether `method` satisfies this requirement.
    pub fn admits(self, method: CsjMethod) -> bool {
        match self {
            Exactness::Exact => method.is_exact(),
            Exactness::Approximate => !method.is_exact(),
            Exactness::Any => true,
        }
    }

    /// Stable label used in traces and `csj explain`.
    pub fn label(self) -> &'static str {
        match self {
            Exactness::Exact => "exact",
            Exactness::Approximate => "approximate",
            Exactness::Any => "any",
        }
    }
}

/// Everything the cost model knows about one join instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanInput {
    /// Size of the smaller community `B`.
    pub nb: usize,
    /// Size of the larger community `A`.
    pub na: usize,
    /// Dimensionality.
    pub d: usize,
    /// The per-dimension epsilon threshold.
    pub eps: u32,
    /// The caller's exactness requirement.
    pub exactness: Exactness,
    /// Estimated fraction of `(b, a)` pairs that survive the cheap
    /// MIN/MAX filters and reach a full d-dimensional comparison, in
    /// `(0, 1]`. Derived from the prepared encodings' part-sum spread
    /// ([`PlanInput::from_prepared`]) or [`DEFAULT_DENSITY`].
    pub density: f64,
}

impl PlanInput {
    /// An input with the default density estimate.
    pub fn new(nb: usize, na: usize, d: usize, eps: u32, exactness: Exactness) -> Self {
        Self {
            nb,
            na,
            d,
            eps,
            exactness,
            density: DEFAULT_DENSITY,
        }
    }

    /// Build the input from two prepared communities (`b` smaller, `a`
    /// larger), estimating the candidate density from their encodings:
    /// the mean `[encoded_Min, encoded_Max]` window of `A` relative to
    /// the spread of `B`'s sorted `encoded_ID`s approximates the
    /// fraction of `A` each driven `B` row must consider.
    pub fn from_prepared(
        b: &PreparedCommunity,
        a: &PreparedCommunity,
        exactness: Exactness,
    ) -> Self {
        let mut input = Self::new(b.len(), a.len(), b.community().d(), b.eps(), exactness);
        input.density = density_estimate(b, a);
        input
    }

    /// The model's feature vector: `[1, setup elements, raw candidate
    /// pairs, surviving comparisons, lane-scaled compare volume, A-tile
    /// count]`. The last two describe the kernel: the compare volume at
    /// the kernel's lane width (every pair compares on `u32` lanes, so
    /// it equals the surviving comparisons; the v2 table format keeps
    /// the slot) and the number of L1-sized tiles the blocked scan walks
    /// (per-tile loop overhead).
    pub fn features(&self) -> [f64; FEATURES] {
        let nb = self.nb as f64;
        let na = self.na as f64;
        let d = self.d as f64;
        let compare = nb * na * d * self.density.clamp(1e-6, 1.0);
        let (_, tiles) = crate::quant::tile_geometry(self.na, self.d);
        [1.0, (nb + na) * d, nb * na, compare, compare, tiles as f64]
    }
}

/// Density estimate from prepared encodings; see
/// [`PlanInput::from_prepared`].
pub fn density_estimate(b: &PreparedCommunity, a: &PreparedCommunity) -> f64 {
    let eb = b.encoded_b();
    let ea = a.encoded_a();
    if eb.is_empty() || ea.is_empty() {
        return DEFAULT_DENSITY;
    }
    let window_sum: u64 = ea
        .encd_mins
        .iter()
        .zip(&ea.encd_maxs)
        .map(|(&lo, &hi)| hi - lo + 1)
        .sum();
    let mean_window = window_sum as f64 / ea.len() as f64;
    let spread = (eb.encd_ids[eb.len() - 1] - eb.encd_ids[0]).max(1) as f64;
    (mean_window / spread).clamp(1.0 / a.len().max(1) as f64, 1.0)
}

/// One method's cost estimate within a [`QueryPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCandidate {
    /// The concrete method.
    pub method: CsjMethod,
    /// Estimated wall-clock cost, microseconds.
    pub estimated_us: f64,
}

/// The resolved plan for one join instance: the chosen method, its cost
/// estimate and every admissible alternative the model rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The instance the plan was made for.
    pub input: PlanInput,
    /// The cheapest admissible method.
    pub chosen: CsjMethod,
    /// The chosen method's estimated cost, microseconds.
    pub estimated_us: f64,
    /// Every admissible candidate, cheapest first (the chosen method is
    /// `candidates[0]`).
    pub candidates: Vec<PlanCandidate>,
    /// Version of the cost table that produced the plan.
    pub table_version: u32,
    /// Provenance of the table (`"seeded"` or `"calibrated"`).
    pub table_source: String,
}

impl QueryPlan {
    /// The admissible alternatives the model did *not* choose, cheapest
    /// first.
    pub fn rejected(&self) -> &[PlanCandidate] {
        &self.candidates[1..]
    }

    /// One-line rendering of the rejected alternatives, for traces and
    /// `csj explain` (`"ex-superego:312us, ex-baseline:4102us"`).
    pub fn rejected_summary(&self) -> String {
        self.rejected()
            .iter()
            .map(|c| format!("{}:{:.0}us", c.method.name(), c.estimated_us))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Versioned per-method cost coefficients over [`PlanInput::features`].
/// `weights[i]` corresponds to `CsjMethod::ALL[i]`; the estimated cost
/// of a method is the dot product of its weights with the feature
/// vector, in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// Format/semantics version (see [`COST_TABLE_VERSION`]).
    pub version: u32,
    /// Provenance: `"seeded"` for the built-in coefficients,
    /// `"calibrated"` for tables produced by [`fit`].
    pub source: String,
    /// Per-method weight rows, indexed like [`CsjMethod::ALL`].
    pub weights: [[f64; FEATURES]; METHODS],
}

fn method_index(method: CsjMethod) -> usize {
    CsjMethod::ALL
        .iter()
        .position(|&m| m == method)
        .expect("concrete method in ALL")
}

impl CostTable {
    /// The built-in coefficients, seeded from the shape of the
    /// `tables -- crossover` results: Baseline pays nothing in setup but
    /// scans every pair; MinMax buys a ~5x smaller scan with a cheap
    /// encode-and-sort; SuperEGO pays the largest setup (normalise,
    /// reorder, EGO sort) for the cheapest scan; hybrids sit between.
    /// Exact variants add the matcher's per-edge cost on top of their
    /// approximate siblings. Absolute values are rough — [`fit`]
    /// recalibrates them on the actual machine — but the *relative*
    /// shape already reproduces the paper's small-instance/large-
    /// instance crossover.
    pub fn seeded() -> Self {
        // The two v2 kernel features (lane-scaled compare volume, tile
        // count) are seeded at zero: the seed stays behaviourally
        // identical to the v1 table and only calibration against the
        // kernels gives them weight.
        let row =
            |base: f64, setup: f64, scan: f64, compare: f64| [base, setup, scan, compare, 0.0, 0.0];
        Self {
            version: COST_TABLE_VERSION,
            source: "seeded".to_string(),
            // Indexed like CsjMethod::ALL:
            // ApBaseline, ApMinMax, ApSuperEgo, ApHybrid,
            // ExBaseline, ExMinMax, ExSuperEgo, ExHybrid.
            weights: [
                row(2.0, 0.0, 0.0040, 0.0015),
                row(3.0, 0.010, 0.0008, 0.0015),
                row(5.0, 0.030, 0.0005, 0.0015),
                row(5.0, 0.020, 0.0006, 0.0015),
                row(3.0, 0.0, 0.0040, 0.0035),
                row(4.0, 0.010, 0.0008, 0.0035),
                row(6.0, 0.030, 0.0005, 0.0035),
                row(6.0, 0.020, 0.0006, 0.0035),
            ],
        }
    }

    /// Estimated cost of running `method` on `input`, microseconds.
    /// Never below 1 µs (a calibrated row must not go negative on
    /// inputs outside its fitting range).
    pub fn estimate(&self, method: CsjMethod, input: &PlanInput) -> f64 {
        let w = &self.weights[method_index(method)];
        let f = input.features();
        w.iter()
            .zip(f.iter())
            .map(|(wi, fi)| wi * fi)
            .sum::<f64>()
            .max(1.0)
    }

    /// Resolve `input` to a concrete method: every admissible method is
    /// costed and the cheapest wins (ties break on [`CsjMethod::ALL`]
    /// order, so planning is fully deterministic).
    pub fn plan(&self, input: &PlanInput) -> QueryPlan {
        let mut candidates: Vec<PlanCandidate> = CsjMethod::ALL
            .iter()
            .filter(|&&m| input.exactness.admits(m))
            .map(|&m| PlanCandidate {
                method: m,
                estimated_us: self.estimate(m, input),
            })
            .collect();
        candidates.sort_by(|p, q| {
            p.estimated_us
                .total_cmp(&q.estimated_us)
                .then_with(|| method_index(p.method).cmp(&method_index(q.method)))
        });
        let best = candidates[0];
        QueryPlan {
            input: *input,
            chosen: best.method,
            estimated_us: best.estimated_us,
            candidates,
            table_version: self.version,
            table_source: self.source.clone(),
        }
    }

    /// The degradation ladder for an exact `primary` method under
    /// pressure (open breaker, deadline): *fastest-exact → hybrid →
    /// approximate*. Rungs are ordered from least to most degraded and
    /// the final rung is always [`CsjMethod::approximate_counterpart`],
    /// whose score is a sound lower bound within a factor of two of the
    /// exact answer. An approximate (or [`CsjMethod::Auto`]) primary
    /// has nothing to degrade to and gets a single-rung ladder.
    pub fn degradation_ladder(&self, primary: CsjMethod, input: &PlanInput) -> Vec<CsjMethod> {
        if !primary.is_exact() {
            return vec![primary.approximate_counterpart()];
        }
        let mut ladder = Vec::with_capacity(4);
        let push = |m: CsjMethod, ladder: &mut Vec<CsjMethod>| {
            if m != primary && !ladder.contains(&m) {
                ladder.push(m);
            }
        };
        // Rung 1: the cheapest *other* exact method (the breaker is
        // per-method, so a healthy exact sibling preserves exactness).
        if let Some(fastest) = CsjMethod::ALL
            .iter()
            .filter(|&&m| m.is_exact() && m != primary)
            .min_by(|&&p, &&q| self.estimate(p, input).total_cmp(&self.estimate(q, input)))
        {
            push(*fastest, &mut ladder);
        }
        // Rung 2: the exact hybrid — a different substrate (integer EGO
        // recursion + encoded leaf), robust when the primary's substrate
        // is the problem.
        push(CsjMethod::ExHybrid, &mut ladder);
        // Rung 3+: approximate — cheapest first, the primary's
        // counterpart always last (the documented 2x soundness rung).
        if let Some(cheapest_ap) = CsjMethod::ALL
            .iter()
            .filter(|&&m| !m.is_exact() && m != primary.approximate_counterpart())
            .min_by(|&&p, &&q| self.estimate(p, input).total_cmp(&self.estimate(q, input)))
        {
            push(*cheapest_ap, &mut ladder);
        }
        let counterpart = primary.approximate_counterpart();
        if !ladder.contains(&counterpart) {
            ladder.push(counterpart);
        }
        ladder
    }

    /// Serialise to the versioned `csj-cost-table` text format. Float
    /// weights use Rust's shortest-roundtrip rendering, so
    /// `from_text(to_text())` reproduces the table bit-identically.
    pub fn to_text(&self) -> String {
        let mut out = format!("csj-cost-table v{}\nsource {}\n", self.version, self.source);
        for (i, m) in CsjMethod::ALL.iter().enumerate() {
            out.push_str(&format!("method {}", m.name()));
            for w in &self.weights[i] {
                out.push_str(&format!(" {w:?}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the `csj-cost-table` text format; rejects unknown versions,
    /// unknown/missing methods and malformed weights.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty cost table")?;
        let version: u32 = header
            .strip_prefix("csj-cost-table v")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("bad cost-table header: {header:?}"))?;
        if version != COST_TABLE_VERSION {
            return Err(format!(
                "unsupported cost-table version {version} (this build reads v{COST_TABLE_VERSION})"
            ));
        }
        let source_line = lines.next().ok_or("missing source line")?;
        let source = source_line
            .strip_prefix("source ")
            .ok_or_else(|| format!("bad source line: {source_line:?}"))?
            .trim()
            .to_string();
        let mut weights = [[f64::NAN; FEATURES]; METHODS];
        let mut seen = [false; METHODS];
        for line in lines {
            let mut tok = line.split_whitespace();
            match tok.next() {
                Some("method") => {}
                other => return Err(format!("unexpected line start: {other:?}")),
            }
            let name = tok.next().ok_or("method line without a name")?;
            let method: CsjMethod = name.parse().map_err(|e| format!("cost table: {e}"))?;
            if method == CsjMethod::Auto {
                return Err("cost table cannot contain a row for auto".into());
            }
            let idx = method_index(method);
            if seen[idx] {
                return Err(format!("duplicate row for {name}"));
            }
            seen[idx] = true;
            for w in weights[idx].iter_mut() {
                let raw = tok
                    .next()
                    .ok_or_else(|| format!("{name}: missing weight"))?;
                *w = raw
                    .parse()
                    .map_err(|_| format!("{name}: bad weight {raw:?}"))?;
                if !w.is_finite() {
                    return Err(format!("{name}: non-finite weight {raw:?}"));
                }
            }
            if tok.next().is_some() {
                return Err(format!("{name}: too many weights"));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!(
                "cost table missing a row for {}",
                CsjMethod::ALL[missing].name()
            ));
        }
        Ok(Self {
            version,
            source,
            weights,
        })
    }
}

impl Default for CostTable {
    fn default() -> Self {
        Self::seeded()
    }
}

/// One calibration observation: `method` ran on `input` in `actual_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    /// The measured method.
    pub method: CsjMethod,
    /// The instance it ran on.
    pub input: PlanInput,
    /// Measured wall-clock, microseconds.
    pub actual_us: f64,
}

/// Fit a calibrated table from measured samples: per method, ridge
/// least squares over the feature vector, regularised toward the seed
/// coefficients so under-determined fits (few shapes) degrade to a
/// rescaled seed instead of oscillating. Methods with no samples keep
/// their seed row. Deterministic: same samples, same table.
pub fn fit(samples: &[CostSample], seed: &CostTable) -> CostTable {
    let mut table = seed.clone();
    table.source = "calibrated".to_string();
    for (idx, &method) in CsjMethod::ALL.iter().enumerate() {
        let rows: Vec<&CostSample> = samples.iter().filter(|s| s.method == method).collect();
        if rows.is_empty() {
            continue;
        }
        // Normal equations with Tikhonov regularisation toward the seed:
        // (X'X + λS) w = X'y + λS w_seed, with S scaling λ per feature so
        // the penalty is dimensionless across wildly different feature
        // magnitudes.
        let mut xtx = [[0.0f64; FEATURES]; FEATURES];
        let mut xty = [0.0f64; FEATURES];
        let mut scale = [0.0f64; FEATURES];
        for s in &rows {
            let f = s.input.features();
            for i in 0..FEATURES {
                scale[i] += f[i] * f[i];
                xty[i] += f[i] * s.actual_us;
                for j in 0..FEATURES {
                    xtx[i][j] += f[i] * f[j];
                }
            }
        }
        const LAMBDA: f64 = 1e-2;
        for i in 0..FEATURES {
            let s = LAMBDA * (scale[i] / rows.len() as f64).max(1e-12);
            xtx[i][i] += s;
            xty[i] += s * seed.weights[idx][i];
        }
        if let Some(w) = solve(xtx, xty) {
            table.weights[idx] = w;
        }
    }
    table
}

/// Gaussian elimination with partial pivoting; `None` on a (numerically)
/// singular system — the caller keeps the seed row then.
fn solve(mut a: [[f64; FEATURES]; FEATURES], mut b: [f64; FEATURES]) -> Option<[f64; FEATURES]> {
    for col in 0..FEATURES {
        let pivot = (col..FEATURES).max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..FEATURES {
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, &p) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; FEATURES];
    for row in (0..FEATURES).rev() {
        let mut acc = b[row];
        for k in (row + 1)..FEATURES {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
        if !x[row].is_finite() {
            return None;
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn input(nb: usize, na: usize, d: usize, eps: u32, exactness: Exactness) -> PlanInput {
        PlanInput::new(nb, na, d, eps, exactness)
    }

    #[test]
    fn plan_respects_exactness() {
        let table = CostTable::seeded();
        let exact = table.plan(&input(100, 120, 27, 2, Exactness::Exact));
        assert!(exact.chosen.is_exact());
        assert!(exact.candidates.iter().all(|c| c.method.is_exact()));
        assert_eq!(exact.candidates.len(), 4);

        let approx = table.plan(&input(100, 120, 27, 2, Exactness::Approximate));
        assert!(!approx.chosen.is_exact());
        assert_eq!(approx.candidates.len(), 4);

        let any = table.plan(&input(100, 120, 27, 2, Exactness::Any));
        assert_eq!(any.candidates.len(), 8);
        // The cheapest overall can never be exact under this model: the
        // exact sibling always adds matcher cost on identical features.
        assert!(!any.chosen.is_exact());
    }

    #[test]
    fn candidates_sorted_and_rejected_excludes_chosen() {
        let table = CostTable::seeded();
        let plan = table.plan(&input(500, 550, 27, 2, Exactness::Exact));
        assert!(plan
            .candidates
            .windows(2)
            .all(|w| w[0].estimated_us <= w[1].estimated_us));
        assert_eq!(plan.candidates[0].method, plan.chosen);
        assert_eq!(plan.rejected().len(), plan.candidates.len() - 1);
        assert!(plan.rejected().iter().all(|c| c.method != plan.chosen));
        assert!(plan.rejected_summary().contains(":"));
    }

    #[test]
    fn seeded_model_reproduces_the_crossover_shape() {
        // Tiny instances: no-setup Baseline wins. Large instances: the
        // encoded scan methods win (setup amortised).
        let table = CostTable::seeded();
        let small = table.plan(&input(8, 10, 27, 2, Exactness::Exact));
        assert_eq!(small.chosen, CsjMethod::ExBaseline);
        let large = table.plan(&input(4000, 4400, 27, 2, Exactness::Exact));
        assert_ne!(large.chosen, CsjMethod::ExBaseline);
    }

    #[test]
    fn text_roundtrip_is_identical() {
        let table = CostTable::seeded();
        let text = table.to_text();
        let back = CostTable::from_text(&text).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_malformed_tables() {
        assert!(CostTable::from_text("").is_err());
        assert!(CostTable::from_text("csj-cost-table v99\nsource x\n").is_err());
        let mut missing = CostTable::seeded().to_text();
        let last = missing.rfind("method").unwrap();
        missing.truncate(last);
        assert!(CostTable::from_text(&missing)
            .unwrap_err()
            .contains("missing"));
        let dup = format!(
            "{}method ap-baseline 1 1 1 1 1 1\n",
            CostTable::seeded().to_text()
        );
        assert!(CostTable::from_text(&dup)
            .unwrap_err()
            .contains("duplicate"));
        let auto_row = "csj-cost-table v2\nsource x\nmethod auto 1 1 1 1 1 1\n";
        assert!(CostTable::from_text(auto_row).is_err());
        // Pre-kernel v1 tables (4 features) are rejected loudly, not
        // silently zero-extended.
        let v1 = "csj-cost-table v1\nsource seeded\nmethod ap-baseline 1 1 1 1\n";
        assert!(CostTable::from_text(v1)
            .unwrap_err()
            .contains("unsupported cost-table version 1"));
    }

    #[test]
    fn ladder_ends_on_the_counterpart_and_never_contains_primary() {
        let table = CostTable::seeded();
        let inp = input(400, 440, 27, 2, Exactness::Exact);
        for primary in CsjMethod::ALL.into_iter().filter(|m| m.is_exact()) {
            let ladder = table.degradation_ladder(primary, &inp);
            assert!(!ladder.is_empty());
            assert!(!ladder.contains(&primary), "{primary}");
            assert_eq!(*ladder.last().unwrap(), primary.approximate_counterpart());
            // fastest-exact rung first, then strictly more degraded.
            assert!(ladder[0].is_exact(), "{primary}: {ladder:?}");
            let mut deduped = ladder.clone();
            deduped.dedup();
            assert_eq!(deduped, ladder, "no duplicate rungs");
        }
        // Approximate primaries have a single self rung.
        assert_eq!(
            table.degradation_ladder(CsjMethod::ApMinMax, &inp),
            vec![CsjMethod::ApMinMax]
        );
        // Auto is not exact: delegated selection stays delegated.
        assert_eq!(
            table.degradation_ladder(CsjMethod::Auto, &inp),
            vec![CsjMethod::Auto]
        );
    }

    #[test]
    fn fit_recovers_planted_coefficients() {
        // Synthesise samples from a known table and check the fit ranks
        // methods identically on a held-out instance.
        let mut truth = CostTable::seeded();
        truth.weights[method_index(CsjMethod::ExMinMax)] = [10.0, 0.02, 0.0002, 0.001, 0.0, 0.0];
        truth.weights[method_index(CsjMethod::ExBaseline)] = [5.0, 0.0, 0.006, 0.004, 0.0, 0.0];
        let shapes = [
            input(50, 60, 27, 2, Exactness::Exact),
            input(200, 220, 27, 2, Exactness::Exact),
            input(800, 880, 27, 2, Exactness::Exact),
            input(2000, 2200, 27, 2, Exactness::Exact),
            input(400, 800, 27, 2, Exactness::Exact),
        ];
        let mut samples = Vec::new();
        for m in [CsjMethod::ExMinMax, CsjMethod::ExBaseline] {
            for s in &shapes {
                samples.push(CostSample {
                    method: m,
                    input: *s,
                    actual_us: truth.estimate(m, s),
                });
            }
        }
        let fitted = fit(&samples, &CostTable::seeded());
        assert_eq!(fitted.source, "calibrated");
        let held_out = input(1200, 1300, 27, 2, Exactness::Exact);
        let truth_best = truth.estimate(CsjMethod::ExMinMax, &held_out)
            < truth.estimate(CsjMethod::ExBaseline, &held_out);
        let fit_best = fitted.estimate(CsjMethod::ExMinMax, &held_out)
            < fitted.estimate(CsjMethod::ExBaseline, &held_out);
        assert_eq!(truth_best, fit_best);
        // Unmeasured methods keep their seed rows.
        assert_eq!(
            fitted.weights[method_index(CsjMethod::ApSuperEgo)],
            CostTable::seeded().weights[method_index(CsjMethod::ApSuperEgo)]
        );
    }

    #[test]
    fn estimates_have_a_floor() {
        let mut table = CostTable::seeded();
        table.weights[0] = [-100.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let e = table.estimate(CsjMethod::ApBaseline, &input(1, 1, 1, 0, Exactness::Any));
        assert_eq!(e, 1.0);
    }

    proptest! {
        /// Frozen-table determinism: for any seeded input, planning is a
        /// pure function — two independent table instances (one via the
        /// text roundtrip) produce byte-identical plans.
        #[test]
        fn frozen_table_plans_are_byte_identical(
            nb in 1usize..5000,
            extra in 0usize..5000,
            d in 1usize..64,
            eps in 0u32..10,
            density_millis in 1u32..1000,
            which in 0usize..3,
        ) {
            let exactness = [Exactness::Exact, Exactness::Approximate, Exactness::Any][which];
            let mut input = PlanInput::new(nb, nb + extra, d, eps, exactness);
            input.density = f64::from(density_millis) / 1000.0;
            let table = CostTable::seeded();
            let roundtripped = CostTable::from_text(&table.to_text()).unwrap();
            let p1 = table.plan(&input);
            let p2 = roundtripped.plan(&input);
            prop_assert_eq!(&p1, &p2);
            prop_assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
            prop_assert!(input.exactness.admits(p1.chosen));
        }
    }
}
