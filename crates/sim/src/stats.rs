//! Metric primitives: counters, log-bucketed histograms, time series.
//!
//! Every OS model exposes its measurements through these types so the
//! benchmark harness can print uniform tables. The histogram uses
//! logarithmic bucketing (HDR-style, 16 sub-buckets per power of two) which
//! keeps relative error below ~6% across the nanosecond-to-second range the
//! simulation spans, with O(1) recording.

use std::fmt;

use crate::time::SimTime;

/// A named monotonic counter.
///
/// # Example
///
/// ```
/// use popcorn_sim::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

const SUB_BUCKET_BITS: u32 = 4; // 16 sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const BUCKET_GROUPS: usize = 64;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Recording is O(1); quantiles are approximate with bounded relative error
/// (one sub-bucket, ≤ 1/16 of the value's magnitude).
///
/// # Example
///
/// ```
/// use popcorn_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 40, 50] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 10);
/// assert_eq!(h.max(), 50);
/// assert!(h.quantile(0.5) >= 30 && h.quantile(0.5) <= 32);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    saturated: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram spanning the full `u64` range.
    pub fn new() -> Self {
        Self::with_groups(BUCKET_GROUPS)
    }

    /// Creates an empty histogram covering only the first `groups` powers of
    /// two. Samples above the covered range are counted as saturations (see
    /// [`Histogram::saturations`]) and excluded from the bucket counts so
    /// they cannot drag upper quantiles down to the covered range's ceiling;
    /// the full-range [`Histogram::new`] never saturates.
    pub fn with_groups(groups: usize) -> Self {
        assert!(
            (1..=BUCKET_GROUPS).contains(&groups),
            "groups must be in 1..={BUCKET_GROUPS}"
        );
        Histogram {
            counts: vec![0; groups * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            saturated: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let group = 63 - value.leading_zeros() as usize; // floor(log2)
        let shift = group as u32 - SUB_BUCKET_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        // Groups below SUB_BUCKET_BITS are covered by the linear range above.
        (group - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value of a bucket index.
    fn bucket_floor(index: usize) -> u64 {
        let group = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if group == 0 {
            return sub;
        }
        let shift = (group - 1) as u32;
        ((SUB_BUCKETS as u64) + sub) << shift
    }

    /// Records one sample. Samples beyond the bucketed range are tallied as
    /// saturations and kept *out* of the bucket counts (they still update
    /// the exact count/sum/min/max), so quantile interpolation never treats
    /// overflow mass as if it had landed in the top covered bucket — that
    /// would silently flatten the tail toward the bucket range's ceiling.
    pub fn record(&mut self, value: u64) {
        let raw = Self::bucket_of(value);
        if raw >= self.counts.len() {
            self.saturated += 1;
        } else {
            self.counts[raw] += 1;
        }
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`SimTime`] sample as nanoseconds.
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of samples that overflowed the bucketed range. Nonzero means
    /// the upper quantiles are clamped and the histogram (or the cost model
    /// feeding it) needs a wider range.
    pub fn saturations(&self) -> u64 {
        self.saturated
    }

    /// Exact mean of recorded samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (0 if empty). Clamped to the
    /// exact min/max so the tails never report out-of-range values. Ranks
    /// that fall into the saturated overflow mass (every overflow sample is
    /// by construction ≥ every bucketed one) resolve to the exact recorded
    /// max: an explicit upper clamp that may over-report inside the
    /// overflow range but can never *under*-report the tail the way
    /// folding overflow into the top bucket would.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        // Bucket counts exclude saturations, so a rank beyond
        // `count - saturated` falls through to the exact max.
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.saturated += other.saturated;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Condensed summary for reporting.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
            saturated: self.saturations(),
        }
    }
}

/// Condensed distribution summary produced by [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Samples that overflowed the bucketed range (upper quantiles clamped).
    pub saturated: u64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.0} min={} p50={} p95={} p99={} max={}",
            self.count, self.mean, self.min, self.p50, self.p95, self.p99, self.max
        )?;
        if self.saturated > 0 {
            write!(f, " sat={}", self.saturated)?;
        }
        Ok(())
    }
}

/// A statistic a [`metric_table!`](crate::metric_table) exports as one
/// scalar: a [`Counter`] exports its count, a [`Histogram`] its mean.
pub trait Metric {
    /// The exported value, before the table entry's divisor.
    fn value(&self) -> f64;

    /// Samples beyond the bucketed range (always 0 for a counter).
    fn saturations(&self) -> u64 {
        0
    }
}

impl Metric for Counter {
    fn value(&self) -> f64 {
        self.get() as f64
    }
}

impl Metric for Histogram {
    fn value(&self) -> f64 {
        self.mean()
    }

    fn saturations(&self) -> u64 {
        self.saturated
    }
}

/// Declares a statistics struct whose metric names are written once.
///
/// Each entry is `field: Counter` or `field: Histogram`, optionally
/// followed by `=> "exported_name"` (the field name is the default) and
/// `/ divisor` (applied to the exported value). Fields that are not
/// exported go in a trailing `extra { … }` block. The macro generates the
/// struct (`pub` fields, `Debug` + `Default`) and two methods:
///
/// - `export(prefix, &mut map)` *adds* each entry's value under
///   `prefix` + its name, so exporting several instances into one map
///   sums them;
/// - `saturations()` totals every entry's histogram saturations.
///
/// # Example
///
/// ```
/// use std::collections::BTreeMap;
/// use popcorn_sim::{metric_table, Counter, Histogram};
///
/// metric_table! {
///     /// Per-kernel statistics.
///     pub struct Stats {
///         /// Requests served.
///         served: Counter,
///         /// Service latency, in ns.
///         latency: Histogram => "latency_us_mean" / 1e3,
///     }
///     extra {
///         /// Not exported.
///         peak: u64,
///     }
/// }
///
/// let mut a = Stats::default();
/// a.served.incr();
/// a.latency.record(4_000);
/// let mut b = Stats::default();
/// b.served.add(2);
/// let mut m = BTreeMap::new();
/// a.export("k_", &mut m);
/// b.export("k_", &mut m);
/// assert_eq!(m["k_served"], 3.0);
/// assert_eq!(m["k_latency_us_mean"], 4.0);
/// assert_eq!(a.saturations(), 0);
/// ```
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $kind:ident $(=> $export:literal)? $(/ $div:expr)?
            ),* $(,)?
        }
        $(extra {
            $(
                $(#[$xmeta:meta])*
                $xfield:ident: $xty:ty
            ),* $(,)?
        })?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $kind,)*
            $($($(#[$xmeta])* pub $xfield: $xty,)*)?
        }

        impl $name {
            /// Adds every exported metric into `m` under `prefix` + its
            /// name (summing with any value already there).
            pub fn export(&self, prefix: &str, m: &mut ::std::collections::BTreeMap<String, f64>) {
                let entries: &[(&str, f64)] = &[$((
                    $crate::metric_table!(@name $field $($export)?),
                    $crate::stats::Metric::value(&self.$field) $(/ $div)?,
                )),*];
                for &(name, v) in entries {
                    *m.entry(format!("{prefix}{name}")).or_insert(0.0) += v;
                }
            }

            /// Total histogram saturations across the exported entries.
            pub fn saturations(&self) -> u64 {
                0 $(+ $crate::stats::Metric::saturations(&self.$field))*
            }
        }
    };
    (@name $field:ident) => {
        stringify!($field)
    };
    (@name $field:ident $export:literal) => {
        $export
    };
}

/// A `(time, value)` series sampled during a run, e.g. runqueue depth over
/// time. Stores raw points; the harness downsamples at print time.
///
/// # Example
///
/// ```
/// use popcorn_sim::{TimeSeries, SimTime};
/// let mut ts = TimeSeries::new();
/// ts.push(SimTime::from_micros(1), 4.0);
/// ts.push(SimTime::from_micros(2), 6.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.mean(), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    disorder: u64,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            points: Vec::new(),
            disorder: 0,
        }
    }

    /// Appends a point.
    ///
    /// Series are sampled on the monotonic simulation clock, so `at` must not
    /// be earlier than the last point. An out-of-order append panics in debug
    /// builds; in release builds it is clamped to the last timestamp (keeping
    /// the series monotonic so [`TimeSeries::time_weighted_mean`] stays
    /// well-defined) and counted in [`TimeSeries::disorder`].
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| at >= t),
            "time series must be appended in time order"
        );
        let at = match self.points.last() {
            Some(&(t, _)) if at < t => {
                self.disorder += 1;
                t
            }
            _ => at,
        };
        self.points.push((at, value));
    }

    /// Number of out-of-order appends that were clamped (always 0 in debug
    /// builds, which panic instead).
    pub fn disorder(&self) -> u64 {
        self.disorder
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Point-weighted mean of the recorded values (0.0 if empty).
    ///
    /// Every sample counts equally regardless of how long it was in effect,
    /// so this is only meaningful for *evenly* sampled series. Event-driven
    /// series (runqueue depth sampled on scheduling events, occupancy
    /// sampled on arrivals) over-weight bursty intervals — use
    /// [`TimeSeries::time_weighted_mean`] for those.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Time-weighted mean, treating the series as a step function: each
    /// value holds from its timestamp until the next point's timestamp.
    ///
    /// This is the correct average for event-driven samples (load, queue
    /// depth, occupancy), where [`TimeSeries::mean`] would over-weight
    /// bursts of closely spaced samples. The final point carries no weight
    /// (its holding interval is unknown). Falls back to the point-weighted
    /// mean when the series spans zero time.
    pub fn time_weighted_mean(&self) -> f64 {
        let (first, last) = match (self.points.first(), self.points.last()) {
            (Some(&(f, _)), Some(&(l, _))) => (f, l),
            _ => return 0.0,
        };
        let span = last.saturating_sub(first).as_nanos();
        if span == 0 {
            return self.mean();
        }
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            let (t0, v) = w[0];
            let (t1, _) = w[1];
            acc += v * t1.saturating_sub(t0).as_nanos() as f64;
        }
        acc / span as f64
    }

    /// Largest recorded value (0.0 if empty).
    pub fn max(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Iterates over the raw points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_empty_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_exact_small_values() {
        // Values below 16 land in exact linear buckets.
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = Histogram::new();
        let exact = 1_234_567u64;
        h.record(exact);
        let got = h.quantile(0.5);
        let err = (got as f64 - exact as f64).abs() / exact as f64;
        assert!(err <= 1.0 / 16.0, "relative error {err} too large");
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.mean(), 200.0);
    }

    #[test]
    fn histogram_quantiles_are_monotonic() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let qs: Vec<u64> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotonic: {qs:?}");
        }
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000);
        assert_eq!(a.mean(), 505.0);
    }

    #[test]
    fn histogram_huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn full_range_histogram_never_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        debug_assert_eq!(h.saturations(), 0);
        assert_eq!(h.saturations(), 0);
        assert_eq!(h.summary().saturated, 0);
    }

    #[test]
    fn bounded_histogram_counts_saturations() {
        // 8 groups cover values up to 2^11 - 1; anything above is tallied
        // as a saturation and kept out of the buckets, not silently
        // clamped into the top one.
        let mut h = Histogram::with_groups(8);
        h.record(100);
        h.record(1 << 20);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.saturations(), 2);
        assert_eq!(h.summary().saturated, 2);
        assert!(h.summary().to_string().contains("sat=2"));
        // Exact stats are unaffected by bucketing.
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 100);
    }

    #[test]
    fn histogram_merge_carries_saturations() {
        let mut a = Histogram::with_groups(8);
        let mut b = Histogram::with_groups(8);
        a.record(1 << 30);
        b.record(1 << 40);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.saturations(), 2);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn saturated_histogram_never_under_reports_p99() {
        // Regression: overflow samples used to be folded into the top
        // covered bucket, so once `saturated > 0` the p99 of a
        // with_groups(8) histogram (range ceiling 2^11 - 1) came back as
        // the top bucket's floor (~1.9k) even when the true tail sat in the
        // millions. Overflow mass is now excluded from interpolation and
        // tail ranks clamp to the exact max.
        let mut h = Histogram::with_groups(8);
        let mut samples = Vec::new();
        for i in 0..90u64 {
            samples.push(100 + i); // in range
        }
        for i in 0..10u64 {
            samples.push((1 << 20) + i * 1_000); // far beyond the range
        }
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.saturations(), 10);
        samples.sort_unstable();
        let true_p99 = samples[((0.99 * samples.len() as f64).ceil() as usize) - 1];
        assert!(
            h.quantile(0.99) >= true_p99,
            "p99 {} under-reports true p99 {true_p99} with saturation present",
            h.quantile(0.99)
        );
        // Lower quantiles still interpolate over the covered mass.
        assert!(h.quantile(0.50) < 1 << 11);
        // And the reported tail is the exact recorded max, an explicit
        // upper clamp rather than a silently flattened value.
        assert_eq!(h.quantile(0.999), h.max());
    }

    #[test]
    fn quantiles_unchanged_when_nothing_saturates() {
        let mut bounded = Histogram::with_groups(8);
        let mut full = Histogram::new();
        for v in [3u64, 90, 250, 1_000, 1_900] {
            bounded.record(v);
            full.record(v);
        }
        assert_eq!(bounded.saturations(), 0);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(bounded.quantile(q), full.quantile(q));
        }
    }

    #[test]
    fn bucket_roundtrip_floor_below_value() {
        for &v in &[0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = Histogram::bucket_of(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // And the next bucket's floor is above the value.
            let next = Histogram::bucket_floor(idx + 1);
            assert!(next > v, "next floor {next} <= value {v}");
        }
    }

    #[test]
    fn summary_display_is_nonempty() {
        let mut h = Histogram::new();
        h.record(5);
        let s = h.summary().to_string();
        assert!(s.contains("n=1"));
    }

    #[test]
    fn time_series_max_of_all_negative_series_is_negative() {
        // Regression: max() used to fold from 0.0, reporting 0.0 for a
        // series that never reached zero.
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(1), -5.0);
        ts.push(SimTime::from_nanos(2), -2.5);
        ts.push(SimTime::from_nanos(3), -7.0);
        assert_eq!(ts.max(), -2.5);
        assert_eq!(TimeSeries::new().max(), 0.0, "empty series stays 0.0");
    }

    #[test]
    fn time_series_mean_and_max() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(1), 1.0);
        ts.push(SimTime::from_nanos(2), 3.0);
        ts.push(SimTime::from_nanos(3), 2.0);
        assert_eq!(ts.mean(), 2.0);
        assert_eq!(ts.max(), 3.0);
        assert_eq!(ts.iter().count(), 3);
        assert!(!ts.is_empty());
    }

    #[test]
    fn time_weighted_mean_weights_by_holding_interval() {
        // Value 10 holds for 1ns, value 0 holds for 9ns: the point-weighted
        // mean says 5 (3 with the terminal point), but the step function
        // spends 90% of the span at 0.
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(0), 10.0);
        ts.push(SimTime::from_nanos(1), 0.0);
        ts.push(SimTime::from_nanos(10), 7.0);
        assert_eq!(ts.time_weighted_mean(), 1.0);
        assert!((ts.mean() - 17.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_degenerate_series() {
        assert_eq!(TimeSeries::new().time_weighted_mean(), 0.0);
        let mut one = TimeSeries::new();
        one.push(SimTime::from_nanos(5), 3.0);
        assert_eq!(one.time_weighted_mean(), 3.0, "zero span → point mean");
        let mut same = TimeSeries::new();
        same.push(SimTime::from_nanos(5), 2.0);
        same.push(SimTime::from_nanos(5), 4.0);
        assert_eq!(same.time_weighted_mean(), 3.0, "zero span → point mean");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time order"))]
    fn time_series_out_of_order_push_is_caught() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(10), 1.0);
        // Debug builds panic; release builds clamp to the last timestamp
        // and count the violation.
        ts.push(SimTime::from_nanos(5), 2.0);
        assert_eq!(ts.disorder(), 1);
        let pts: Vec<_> = ts.iter().collect();
        assert_eq!(pts[1].0, SimTime::from_nanos(10), "clamped, not reordered");
        // The clamped series spans zero time, so it falls back to the point
        // mean (1.5), as documented.
        assert_eq!(ts.time_weighted_mean(), ts.mean());
    }
}
