//! The result line, sample statistics, and seed derivation.

/// One run's result: the correctness verdict, the attempted/failed
/// counts, and the named metrics in print order.
#[derive(Default)]
pub struct Report {
    /// Cleared by any failed check.
    pub correct: bool,
    /// Operations attempted (restorations, served jobs, checks).
    pub attempted: u64,
    /// Operations that failed a check, errored, or missed a deadline.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the run is not correct, one line per failed check (stderr).
    problems: Vec<String>,
}

impl Report {
    /// An empty, so far correct, report.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records one attempted operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.correct = false;
        self.problems.push(why);
    }

    /// The result line. A non-finite metric makes the run incorrect and
    /// prints as 0, so the line is always valid JSON.
    pub fn to_json(&self) -> String {
        for p in &self.problems {
            eprintln!("sgr-perfbench: check failed: {p}");
        }
        let mut correct = self.correct && self.attempted > 0;
        let mut body = Vec::with_capacity(self.metrics.len());
        for &(name, value, unit) in &self.metrics {
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("sgr-perfbench: metric {name} is not finite");
                correct = false;
                0.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Median (mean of the two middle samples for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// The tail latency `job_latency_p90_s` reports, and how many samples
/// lie beyond it: the nearest-rank 90th percentile, lowered until at
/// least ten samples lie beyond it, but never below the (upper) median.
/// So it is the true p90 from 100 samples on, and the median when fewer
/// than 20 samples leave no resolvable tail. `(0, 0)` if empty.
pub fn tail_percentile(xs: &[f64]) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p90 = (9 * n).div_ceil(10);
    let p50 = n / 2 + 1;
    let rank = p90.min(n.saturating_sub(10)).max(p50.min(n));
    (v[rank - 1], n - rank)
}

/// Arithmetic mean; 0 if empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A seed for stream `stream`, item `index` of the workload seed
/// (SplitMix64 finalizer over the mixed inputs), so every generated
/// input is a pure function of `--seed`.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (90.0, 10));
        assert_eq!(tail_percentile(&xs[..50]), (40.0, 10));
        assert_eq!(tail_percentile(&xs[..15]), (8.0, 7));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
