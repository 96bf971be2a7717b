//! Sample statistics shared by every workload.
//!
//! Percentiles are nearest-rank (`vtm_obs::percentile_sorted`, the
//! workspace's single copy of that math). Live latencies go into
//! fixed-size log-linear histograms (1/128 of an octave per bucket, each
//! bucket keeping the sum of its samples, so a percentile is the mean of
//! the samples in its bucket), so the harness's own memory does not grow
//! with throughput and `peak_rss_mb` measures the program. Figures that gate a change are
//! medians over samples spread across the whole run, so one stall or one
//! burst of host contention moves one sample, not the reported number.

use vtm_obs::percentile_sorted;

/// Sorts `samples` and returns the nearest-rank `q` percentile
/// (`q` in `[0, 1]`), or `None` for an empty sample set.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_sorted(samples, q))
}

/// Median (nearest rank) of `samples`, or `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest of the reported percentiles (p50, p90, p99, p99.9) that has
/// at least ten samples beyond it, or `None` when even the median has
/// fewer. A p99 needs at least 1000 samples.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Linear sub-buckets per octave.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear range: values up to 2^35 ns (~34 s) get
/// their own buckets; longer ones share the last.
const OCTAVES: u32 = 28;

/// A log-linear histogram of durations in nanoseconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    sums_ns: Vec<f64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets = ((OCTAVES + 1) as u64 * SUB) as usize;
        Self {
            counts: vec![0; buckets],
            sums_ns: vec![0.0; buckets],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros() - SUB_BITS).min(OCTAVES - 1);
        let index = u64::from(shift + 1) * SUB + ((ns >> shift) - SUB).min(SUB - 1);
        index as usize
    }

    /// Records one duration given in microseconds.
    pub fn record_us(&mut self, us: f64) {
        let ns = (us * 1e3).max(0.0);
        let index = Self::index(ns as u64);
        self.counts[index] += 1;
        self.sums_ns[index] += ns;
        self.total += 1;
    }

    /// Adds another histogram's counts.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.sums_ns.iter_mut().zip(&other.sums_ns) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank `q` percentile in microseconds (the mean of the samples
    /// in the bucket holding that rank), `None` when empty.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(self.sums_ns[index] / count as f64 / 1e3);
            }
        }
        unreachable!("rank never exceeds the total")
    }
}

/// Time slices of a run: each sample is recorded into the slice of the
/// moment it belongs to.
#[derive(Debug, Clone)]
pub struct Slices {
    slices: Vec<Histogram>,
}

impl Slices {
    /// `count` empty slices.
    pub fn new(count: usize) -> Self {
        Self {
            slices: vec![Histogram::default(); count],
        }
    }

    /// Appends another recorder's slices after this one's.
    pub fn append(&mut self, other: Slices) {
        self.slices.extend(other.slices);
    }

    /// Records `us` into slice `index` (clamped to the last slice).
    pub fn record(&mut self, index: usize, us: f64) {
        let last = self.slices.len() - 1;
        self.slices[index.min(last)].record_us(us);
    }

    /// Adds another recorder's samples slice by slice.
    pub fn merge(&mut self, other: &Slices) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.merge(theirs);
        }
    }

    /// Every sample in one histogram.
    pub fn all(&self) -> Histogram {
        let mut all = Histogram::default();
        self.slices.iter().for_each(|s| all.merge(s));
        all
    }

    /// Samples per slice.
    pub fn counts(&self) -> Vec<u64> {
        self.slices.iter().map(Histogram::count).collect()
    }

    /// The median over slices of each slice's `q` percentile when every
    /// slice has enough samples for `q`; otherwise the `q` percentile of
    /// all samples together. `None` when there are no samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.over_slices(q, 0.5)
    }

    /// Like [`Slices::percentile`], but the lower quartile over slices in
    /// place of their median: the figure of the run's quieter moments. On
    /// a host whose busy spells stretch a light load's latency by several
    /// times for seconds at a time, the share of busy slices differs from
    /// run to run and moves a median, while a quarter of the slices is
    /// quiet in every run; a change to the program moves every slice.
    pub fn quiet_percentile(&self, q: f64) -> Option<f64> {
        self.over_slices(q, 0.25)
    }

    fn over_slices(&self, q: f64, rank: f64) -> Option<f64> {
        let supported = |n: u64| highest_supported_percentile(n).is_some_and(|best| best >= q);
        if self.slices.len() > 1 && self.slices.iter().all(|s| supported(s.count())) {
            let mut per_slice: Vec<f64> = self
                .slices
                .iter()
                .map(|s| s.percentile_us(q).expect("slice is non-empty"))
                .collect();
            percentile(&mut per_slice, rank)
        } else {
            self.all().percentile_us(q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.5), Some(5.0));
        assert_eq!(percentile(&mut samples, 0.9), Some(9.0));
        assert_eq!(percentile(&mut samples, 0.99), Some(10.0));
        assert_eq!(percentile(&mut samples, 0.0), Some(1.0));
        assert_eq!(median(&mut [7.0]), Some(7.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn histogram_percentiles_track_the_exact_nearest_rank() {
        let mut exact: Vec<f64> = (0..20_000u64)
            .map(|i| 0.05 + ((i * 7919) % 20_000) as f64 * 0.37)
            .collect();
        let mut histogram = Histogram::default();
        exact.iter().for_each(|&us| histogram.record_us(us));
        assert_eq!(histogram.count(), 20_000);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = percentile(&mut exact, q).unwrap();
            let got = histogram.percentile_us(q).unwrap();
            assert!(
                (got - want).abs() <= want * 0.004 + 1e-3,
                "q={q}: {got} vs {want}"
            );
        }
        assert_eq!(Histogram::default().percentile_us(0.5), None);
    }

    #[test]
    fn sliced_percentile_ignores_one_bad_slice() {
        let mut slices = Slices::new(5);
        for i in 0..5000 {
            let value = if (100..1100).contains(&i) {
                1000.0
            } else {
                1.0
            };
            slices.record(i / 1000, value);
        }
        assert_eq!(slices.counts(), vec![1000; 5]);
        let p99 = slices.percentile(0.99).unwrap();
        assert!((p99 - 1.0).abs() < 0.01, "{p99}");
        // Busy slices stretch the latency 5×: with two of five busy the
        // median still reads the quiet figure, with three only the quiet
        // quartile does.
        for (busy, median) in [(2, 1.0), (3, 5.0)] {
            let mut slices = Slices::new(5);
            for i in 0..5000 {
                slices.record(i / 1000, if i / 1000 < busy { 5.0 } else { 1.0 });
            }
            assert!((slices.quiet_percentile(0.5).unwrap() - 1.0).abs() < 0.01);
            assert!((slices.percentile(0.5).unwrap() - median).abs() < 0.03);
        }
        // Too few samples for p99 per slice: falls back to all samples.
        let mut sparse = Slices::new(5);
        (0..1500).for_each(|i| sparse.record(i % 5, 2.0));
        sparse.record(0, 9.0);
        assert!((sparse.percentile(0.99).unwrap() - 2.0).abs() < 0.01);
        assert!((sparse.percentile(1.0).unwrap() - 9.0).abs() < 0.04);
        assert_eq!(Slices::new(3).percentile(0.5), None);
    }
}
