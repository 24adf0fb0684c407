//! Order statistics over repetition samples, and the time box that decides
//! how many repetitions a run makes.

/// Sort a sample ascending (NaN-free by construction: every sample is a
/// measured duration, count or ratio of non-zero counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// spreads `compare` reports are the ones the acceptance check computes.
/// A single-value sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Nearest-rank percentile `p ∈ [0, 1]` of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[((v.len() - 1) as f64 * p).round() as usize]
}

/// How long a measuring loop keeps adding repetitions: at least
/// `min_reps`, then until `budget_s` seconds are spent. A host that is ten
/// times slower therefore costs precision, not a timeout.
#[derive(Debug, Clone, Copy)]
pub struct TimeBox {
    /// Repetitions made regardless of the budget.
    pub min_reps: usize,
    /// Seconds after which no further repetition starts.
    pub budget_s: f64,
}

impl TimeBox {
    /// Whether another repetition should start after `reps_done`
    /// repetitions that took `spent_s` seconds in total.
    pub fn wants_more(&self, reps_done: usize, spent_s: f64) -> bool {
        reps_done < self.min_reps || spent_s < self.budget_s
    }

    /// Run `rep` until the box is full; returns the repetition count.
    pub fn run(&self, mut rep: impl FnMut(usize)) -> usize {
        let start = std::time::Instant::now();
        let mut reps = 0;
        while self.wants_more(reps, start.elapsed().as_secs_f64()) {
            rep(reps);
            reps += 1;
        }
        reps
    }
}
