//! Small numeric helpers: a seeded generator, Zipf sampling and
//! order statistics over raw samples.

/// SplitMix64: tiny, seedable and good enough to shape inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(s) over `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation
/// between closest ranks. Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds → milliseconds of a duration, as `f64`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `min / median / max` of `values`, for logs.
pub fn summary(values: &[f64]) -> String {
    if values.is_empty() {
        return "no samples".into();
    }
    format!(
        "{:.4} / {:.4} / {:.4}",
        quantile(values, 0.0),
        median(values),
        quantile(values, 1.0)
    )
}

/// Per-item best (lowest) time across repetitions. Each item gets its
/// own quickest repetition: on a shared host whose speed changes from
/// moment to moment and from minute to minute, an item's best time
/// moves less from run to run than its median does.
#[derive(Debug, Clone, Default)]
pub struct BestOf(Vec<f64>);

impl BestOf {
    pub fn add(&mut self, item: usize, value: f64) {
        if self.0.len() <= item {
            self.0.resize(item + 1, f64::INFINITY);
        }
        self.0[item] = self.0[item].min(value);
    }

    /// The sum over items of each one's best time.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The mean over items of each one's best time.
    pub fn mean(&self) -> f64 {
        self.total() / self.0.len().max(1) as f64
    }
}
