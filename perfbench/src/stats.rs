//! Exact order statistics over raw samples.
//!
//! Every per-op latency is kept until its slice of the window closes,
//! so quantiles come from the sorted samples themselves rather than
//! from histogram bucket edges.

/// The `q`-quantile (0.0–1.0) of `sorted` by the nearest-rank rule: the
/// smallest sample `x` such that at least `q · n` samples are `≤ x`.
/// `None` when there are no samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of `values` (nearest-rank, as [`quantile`]); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5).unwrap_or(0.0)
}

/// A sorted copy of `values` (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One closed slice of a window: its length and its latency quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub secs: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Latency samples cut into consecutive slices of at least `min_secs`
/// and `min_samples` as they arrive. A slice's quantiles are taken when
/// it closes and its samples dropped, so memory stays bounded by one
/// slice however many ops a window runs: the benchmark's own buffers do
/// not grow the measured resident set with the program's speed.
#[derive(Debug, Clone)]
pub struct Slices {
    min_secs: f64,
    min_samples: usize,
    closed: Vec<Slice>,
    open: Vec<f64>,
    open_since: f64,
    count: u64,
    sum: f64,
}

impl Slices {
    pub fn new(min_secs: f64, min_samples: usize) -> Slices {
        Slices {
            min_secs,
            min_samples,
            closed: Vec::new(),
            open: Vec::new(),
            open_since: 0.0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Adds a sample observed `at` seconds into the window.
    pub fn push(&mut self, sample: f64, at: f64) {
        self.open.push(sample);
        self.count += 1;
        self.sum += sample;
        if at - self.open_since >= self.min_secs && self.open.len() >= self.min_samples {
            self.close(at);
        }
    }

    /// Closes the open slice at `at` seconds (the window's end), however
    /// short; an empty one is dropped.
    pub fn close(&mut self, at: f64) {
        if !self.open.is_empty() {
            let s = sorted(&self.open);
            let q = |p| quantile(&s, p).unwrap_or(0.0);
            self.closed.push(Slice {
                secs: at - self.open_since,
                p50: q(0.5),
                p90: q(0.9),
                p99: q(0.99),
            });
            self.open.clear();
        }
        self.open_since = at;
    }

    /// Appends the closed slices of `next`, a window that ran after this
    /// one (the open slices of both must be closed).
    pub fn append(&mut self, next: &Slices) {
        self.closed.extend_from_slice(&next.closed);
        self.count += next.count;
        self.sum += next.sum;
    }

    /// Samples pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of every sample pushed; 0 when none.
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count as f64)
    }

    /// Average of `f` over the closed slices, each weighted by its
    /// length; 0 when there are none.
    pub fn time_average(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let secs: f64 = self.closed.iter().map(|s| s.secs).sum();
        ratio(self.closed.iter().map(|s| f(s) * s.secs).sum(), secs)
    }
}

/// `num / den`, or 0 when the denominator is 0 — ratios of counters
/// that a workload never moves print as 0 instead of NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the smallest sample with at least `q · n` samples at or
    /// below it, found by counting over every candidate.
    fn brute_force(samples: &[f64], q: f64) -> f64 {
        let n = samples.len() as f64;
        let mut candidates = samples.to_vec();
        candidates.sort_by(f64::total_cmp);
        *candidates
            .iter()
            .find(|&&x| samples.iter().filter(|&&s| s <= x).count() as f64 >= q * n)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn matches_sorted_sample_reference_at_every_count() {
        // Deterministic, unsorted, with ties.
        let pool: Vec<f64> = (0..257u64)
            .map(|i| ((i * 7919) % 101) as f64 * 0.5)
            .collect();
        for n in 1..=pool.len() {
            let samples = &pool[..n];
            let s = sorted(samples);
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                assert_eq!(
                    quantile(&s, q),
                    Some(brute_force(samples, q)),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn small_counts_pick_real_samples() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.9), Some(3.0));
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&s, 0.5), Some(5.0));
        assert_eq!(quantile(&s, 0.9), Some(9.0));
        assert_eq!(quantile(&s, 0.99), Some(10.0));
        // Unlike a 2×-bucket histogram, p50, p90 and p99 differ.
        let spread: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&spread, 0.5), Some(50.0));
        assert_eq!(quantile(&spread, 0.9), Some(90.0));
        assert_eq!(quantile(&spread, 0.99), Some(99.0));
    }

    #[test]
    fn slices_close_on_time_and_count_and_weight_by_length() {
        let mut s = Slices::new(1.0, 3);
        // Three samples by 1.5 s: the first slice closes there.
        for (x, t) in [(1.0, 0.2), (2.0, 0.9), (3.0, 1.5)] {
            s.push(x, t);
        }
        // Four more by 2.1 s: long enough in count, not in time.
        for (x, t) in [(10.0, 1.6), (20.0, 1.7), (30.0, 1.8), (40.0, 2.1)] {
            s.push(x, t);
        }
        assert_eq!(s.closed.len(), 1);
        s.close(3.0);
        let c = &s.closed;
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].secs, c[0].p50, c[0].p90), (1.5, 2.0, 3.0));
        assert_eq!((c[1].secs, c[1].p50, c[1].p90), (1.5, 20.0, 40.0));
        assert_eq!(s.time_average(|x| x.p50), 11.0);
        assert_eq!(s.count(), 7);
        assert_eq!(s.mean(), 106.0 / 7.0);
        // An empty open slice is dropped; appending keeps every slice.
        s.close(4.0);
        let mut whole = Slices::new(1.0, 3);
        whole.append(&s);
        whole.append(&s);
        assert_eq!(whole.closed.len(), 4);
        assert_eq!(whole.count(), 14);
        assert_eq!(whole.time_average(|x| x.p90), 21.5);
    }

    #[test]
    fn helpers() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
