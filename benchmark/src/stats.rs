//! Medians, percentiles and the quartile spread the acceptance rule uses.

/// Median of `v` (mean of the middle two for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile mean: drop the lowest and highest quarter (rounded
/// down), average the rest. Over a run's five rounds it ignores one
/// outlier round like the median does, but averages the three it keeps
/// instead of reporting whichever happens to be in the middle.
pub fn midmean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let kept = &s[s.len() / 4..s.len() - s.len() / 4];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile `p` (0..=100) of an already sorted slice.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` (the
/// default "exclusive" method) computes them. 0 for fewer than 2 values.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3) - q(1)) / med).abs()
}

/// Coefficient of variation (population σ ÷ mean); 0 for fewer than 2.
pub fn cv(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// FNV-1a over a byte stream, fed incrementally.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
