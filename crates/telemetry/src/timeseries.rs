//! Continuous time-series flight recorder.
//!
//! A [`FlightRecorder`] is a [`TraceSink`](crate::sink::TraceSink)
//! that *aggregates as it records*: instead of storing every event it
//! folds the stream into bounded per-quantity time series — per-link
//! utilization, active-flow count, open-phase mix per track, fault and
//! lifecycle counters, plus any [`TraceEvent::Sample`] gauges emitted
//! by higher layers (the cluster scheduler's per-tenant queue depth,
//! running-job counts and stretch) — and a log-bucketed
//! flow-completion-time histogram per simulation segment.
//!
//! Memory is bounded by construction, not by dropping the tail the way
//! the ring recorder must: every [`Series`] holds at most
//! [`Series::CAP`] samples and *decimates* when full (every other
//! sample is discarded and the minimum sim-time cadence between kept
//! samples doubles). A finished series therefore spans the whole run
//! at a resolution that adapted to the run's length — the flight
//! recorder never overflows and never forgets the beginning of the
//! flight. Per-link series are additionally capped at
//! [`FlightRecorder::MAX_LINK_SERIES`] per segment (wafer-scale meshes
//! have tens of thousands of links; a dashboard cannot show them all)
//! with a drop counter surfaced in the snapshot.
//!
//! Everything here is deterministic: the same event stream produces
//! bit-identical snapshots (asserted by the integration tests), so
//! exported series are a valid regression surface.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::event::{TraceEvent, Track};
use crate::sink::TraceSink;

/// How a series' values combine over time (the dashboard prints it on
/// each series card; storage is identical — both keep the current
/// value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// A point-in-time level (utilization, queue depth).
    Gauge,
    /// A cumulative, monotonically non-decreasing count.
    Counter,
}

impl SeriesKind {
    /// Lowercase type name (`gauge` / `counter`).
    pub fn prom_type(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
        }
    }
}

/// One bounded time series of `(sim_seconds, value)` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name, `base/detail` by convention (`link_util/3`,
    /// `queue_depth/high`).
    pub name: String,
    /// Gauge or counter.
    pub kind: SeriesKind,
    /// Samples, ascending in time.
    pub samples: Vec<(f64, f64)>,
    /// Minimum sim-time spacing between kept samples; doubles on each
    /// decimation (0 until the first decimation: every update kept).
    min_dt: f64,
}

impl Series {
    /// Samples held per series before decimation halves the resolution.
    pub const CAP: usize = 512;

    /// Creates an empty series.
    pub fn new(name: impl Into<String>, kind: SeriesKind) -> Series {
        Series {
            name: name.into(),
            kind,
            samples: Vec::new(),
            min_dt: 0.0,
        }
    }

    /// Records the value at `t` sim-seconds. Updates inside the
    /// current cadence window overwrite the window's sample (latest
    /// value wins — both gauges and cumulative counters want the most
    /// recent level); when the buffer reaches [`Series::CAP`] it is
    /// decimated in place and the cadence doubles.
    pub fn push(&mut self, t: f64, value: f64) {
        if let Some(last) = self.samples.last_mut() {
            if t <= last.0 + self.min_dt {
                last.1 = value;
                return;
            }
        }
        self.samples.push((t, value));
        if self.samples.len() >= Series::CAP {
            let span = self.samples.last().expect("non-empty").0 - self.samples[0].0;
            let mut i = 0;
            self.samples.retain(|_| {
                i += 1;
                (i - 1) % 2 == 0
            });
            self.min_dt = (span / (Series::CAP as f64 / 2.0)).max(self.min_dt * 2.0);
        }
    }

    /// The most recent value, if any sample was recorded.
    pub fn last_value(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Minimum and maximum recorded value (`None` when empty).
    pub fn value_range(&self) -> Option<(f64, f64)> {
        self.samples.iter().fold(None, |acc, &(_, v)| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        })
    }
}

/// A log₂-bucketed histogram of positive values.
///
/// Bucket `i` covers `[floor·2^i, floor·2^(i+1))`; values below
/// `floor` land in bucket 0, values beyond the last bucket in the
/// last. Constant memory, O(1) insert, and quantiles answered to
/// within one bucket's width — the classic flight-recorder trade.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    floor: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Number of log₂ buckets: `floor` to `floor·2^64` spans any
    /// physically meaningful range (1 ns to ~584 years at ns floor).
    pub const BUCKETS: usize = 64;

    /// Creates an empty histogram with the given smallest resolvable
    /// value.
    ///
    /// # Panics
    ///
    /// Panics unless `floor` is finite and positive.
    pub fn new(floor: f64) -> LogHistogram {
        assert!(
            floor.is_finite() && floor > 0.0,
            "histogram floor must be finite and positive, got {floor}"
        );
        LogHistogram {
            floor,
            counts: vec![0; LogHistogram::BUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.floor || v.is_nan() {
            return 0;
        }
        ((v / self.floor).log2().floor() as usize).min(LogHistogram::BUCKETS - 1)
    }

    /// Records one value. Non-finite values are ignored (JSON cannot
    /// carry them and no simulator quantity should produce them).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let b = self.bucket_of(v);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Lower and upper bound of the bucket holding the nearest-rank
    /// `q`-quantile (0 < q ≤ 1). The exact quantile of the recorded
    /// multiset is guaranteed to lie inside the returned interval —
    /// the resolution contract the oracle test enforces. Returns
    /// `(0, 0)` when empty.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `(0, 1]`.
    pub fn quantile_bounds(&self, q: f64) -> (f64, f64) {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.total == 0 {
            return (0.0, 0.0);
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = if i == 0 {
                    // Bucket 0 also absorbs sub-floor values.
                    self.min.min(self.floor)
                } else {
                    self.floor * (i as f64).exp2()
                };
                let hi = self.floor * ((i + 1) as f64).exp2();
                return (lo.min(self.max), hi.min(self.max.max(lo)));
            }
        }
        (self.max, self.max)
    }

    /// Point estimate of the `q`-quantile: the geometric midpoint of
    /// [`LogHistogram::quantile_bounds`], clamped to the observed
    /// range. Within a factor of √2̄ of a bucket edge of the true
    /// value.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let (lo, hi) = self.quantile_bounds(q);
        if lo <= 0.0 || hi <= 0.0 {
            return lo.max(0.0);
        }
        (lo * hi).sqrt().clamp(self.min, self.max)
    }

    /// The non-empty prefix of buckets as `(upper_bound, count)` — the
    /// dashboard's histogram bars.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let last = match self.counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        (0..=last)
            .map(|i| (self.floor * ((i + 1) as f64).exp2(), self.counts[i]))
            .collect()
    }
}

/// Mutable recorder state behind the [`TraceSink`] interior
/// mutability.
#[derive(Debug)]
struct FlightState {
    /// Current simulation segment (one per [`TraceEvent::Topology`];
    /// the figure binaries run several simulations into one sink).
    segment: u32,
    seen_topology: bool,
    /// Series storage, keyed `(segment, name)`.
    index: BTreeMap<(u32, String), usize>,
    series: Vec<Series>,
    /// Flow-completion-time histogram per segment (seconds, ns floor).
    fct: BTreeMap<u32, LogHistogram>,
    /// Open-phase count per track, reset at segment boundaries.
    open: [i64; Track::ALL.len()],
    injected: u64,
    completed: u64,
    faults: u64,
    link_series: usize,
    link_series_dropped: u64,
}

/// Aggregating [`TraceSink`]: bounded time series + histograms, never
/// overflows. See the [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    state: RefCell<FlightState>,
}

impl FlightRecorder {
    /// Per-link series cap per segment; link series beyond it are
    /// dropped (and counted) rather than exhausting memory on a
    /// 64×64-mesh churn run.
    pub const MAX_LINK_SERIES: usize = 128;

    /// Creates an empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            state: RefCell::new(FlightState {
                segment: 0,
                seen_topology: false,
                index: BTreeMap::new(),
                series: Vec::new(),
                fct: BTreeMap::new(),
                open: [0; Track::ALL.len()],
                injected: 0,
                completed: 0,
                faults: 0,
                link_series: 0,
                link_series_dropped: 0,
            }),
        }
    }

    /// Clones out the recorded state for export.
    pub fn snapshot(&self) -> FlightSnapshot {
        let st = self.state.borrow();
        let mut segments: BTreeMap<u32, SegmentSnapshot> = BTreeMap::new();
        for (&(seg, _), &idx) in &st.index {
            segments
                .entry(seg)
                .or_insert_with(|| SegmentSnapshot {
                    segment: seg,
                    series: Vec::new(),
                    fct: LogHistogram::new(1e-9),
                })
                .series
                .push(st.series[idx].clone());
        }
        for (&seg, fct) in &st.fct {
            segments
                .entry(seg)
                .or_insert_with(|| SegmentSnapshot {
                    segment: seg,
                    series: Vec::new(),
                    fct: LogHistogram::new(1e-9),
                })
                .fct = fct.clone();
        }
        FlightSnapshot {
            segments: segments.into_values().collect(),
            link_series_dropped: st.link_series_dropped,
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightState {
    fn push(&mut self, name: &str, kind: SeriesKind, t: f64, value: f64) {
        let key = (self.segment, name.to_string());
        let idx = match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.series.push(Series::new(name, kind));
                self.index.insert(key, i);
                i
            }
        };
        self.series[idx].push(t, value);
    }

    fn push_link(&mut self, link: u32, t: f64, value: f64) {
        let key = (self.segment, format!("link_util/{link}"));
        if let Some(&idx) = self.index.get(&key) {
            self.series[idx].push(t, value);
            return;
        }
        if self.link_series >= FlightRecorder::MAX_LINK_SERIES {
            self.link_series_dropped += 1;
            return;
        }
        self.link_series += 1;
        let i = self.series.len();
        self.series
            .push(Series::new(key.1.clone(), SeriesKind::Gauge));
        self.index.insert(key, i);
        self.series[i].push(t, value);
    }

    fn on_event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Topology { .. } => {
                if self.seen_topology {
                    self.segment += 1;
                }
                self.seen_topology = true;
                self.open = [0; Track::ALL.len()];
                self.injected = 0;
                self.completed = 0;
                self.faults = 0;
                self.link_series = 0;
            }
            TraceEvent::FlowInjected { t, .. } => {
                self.injected += 1;
                let v = self.injected as f64;
                self.push("flows_injected", SeriesKind::Counter, t, v);
            }
            TraceEvent::FlowDrained { .. } => {}
            TraceEvent::FlowCompleted { t, injected_at, .. } => {
                self.completed += 1;
                let v = self.completed as f64;
                self.push("flows_completed", SeriesKind::Counter, t, v);
                self.fct
                    .entry(self.segment)
                    .or_insert_with(|| LogHistogram::new(1e-9))
                    .record(t - injected_at);
            }
            TraceEvent::RateEpoch {
                t, active_flows, ..
            } => {
                self.push("active_flows", SeriesKind::Gauge, t, active_flows as f64);
            }
            TraceEvent::LinkUtil {
                t,
                link,
                utilization,
            } => self.push_link(link, t, utilization),
            TraceEvent::PhaseBegin { t, track, .. } => {
                self.open[track.index() as usize] += 1;
                let v = self.open[track.index() as usize] as f64;
                self.push(
                    &format!("open_phases/{}", track.short()),
                    SeriesKind::Gauge,
                    t,
                    v,
                );
            }
            TraceEvent::PhaseEnd { t, track, .. } => {
                self.open[track.index() as usize] -= 1;
                let v = self.open[track.index() as usize] as f64;
                self.push(
                    &format!("open_phases/{}", track.short()),
                    SeriesKind::Gauge,
                    t,
                    v,
                );
            }
            TraceEvent::Fault { t, .. } => {
                self.faults += 1;
                let v = self.faults as f64;
                self.push("faults", SeriesKind::Counter, t, v);
            }
            TraceEvent::Sample { t, ref key, value } => {
                self.push(key, SeriesKind::Gauge, t, value);
            }
            TraceEvent::SpanDep { .. } | TraceEvent::IterStage { .. } => {}
        }
    }
}

impl TraceSink for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: TraceEvent) {
        self.state.borrow_mut().on_event(ev);
    }
}

/// One simulation segment's recorded series and completion-time
/// histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSnapshot {
    /// Segment index, in recording order.
    pub segment: u32,
    /// Recorded series, sorted by name (the snapshot preserves the
    /// `BTreeMap` key order).
    pub series: Vec<Series>,
    /// Flow-completion-time histogram (seconds).
    pub fct: LogHistogram,
}

/// A point-in-time export of a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// One entry per simulation segment that recorded anything.
    pub segments: Vec<SegmentSnapshot>,
    /// Per-link series discarded beyond
    /// [`FlightRecorder::MAX_LINK_SERIES`].
    pub link_series_dropped: u64,
}

impl FlightSnapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_decimates_and_spans_the_whole_run() {
        let mut s = Series::new("x", SeriesKind::Gauge);
        for i in 0..10_000 {
            s.push(i as f64, (i % 7) as f64);
        }
        assert!(s.samples.len() < Series::CAP);
        assert!(s.samples.len() > Series::CAP / 8);
        // First and most recent regions both survive decimation.
        assert!(s.samples[0].0 < 100.0);
        assert!(s.samples.last().unwrap().0 > 9_000.0);
        let mut prev = f64::NEG_INFINITY;
        for &(t, _) in &s.samples {
            assert!(t > prev, "samples must stay time-ordered");
            prev = t;
        }
    }

    #[test]
    fn series_same_window_keeps_latest_value() {
        let mut s = Series::new("x", SeriesKind::Gauge);
        s.push(1.0, 10.0);
        s.push(1.0, 20.0);
        assert_eq!(s.samples, vec![(1.0, 20.0)]);
        assert_eq!(s.last_value(), Some(20.0));
    }

    #[test]
    fn histogram_tracks_count_sum_extremes() {
        let mut h = LogHistogram::new(1e-9);
        for v in [1e-6, 2e-6, 1e-3] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 1.003e-3).abs() < 1e-12);
        assert_eq!(h.min(), 1e-6);
        assert_eq!(h.max(), 1e-3);
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_bounds_bracket_the_exact_quantile() {
        let mut h = LogHistogram::new(1e-9);
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 3.7e-6).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1];
            let (lo, hi) = h.quantile_bounds(q);
            assert!(
                lo <= exact && exact <= hi,
                "q={q}: exact {exact} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn recorder_builds_series_per_segment() {
        let r = FlightRecorder::new();
        r.record(TraceEvent::Topology {
            t: 0.0,
            capacities: Box::new([1.0]),
        });
        r.record(TraceEvent::LinkUtil {
            t: 0.5,
            link: 0,
            utilization: 0.8,
        });
        r.record(TraceEvent::Topology {
            t: 0.0,
            capacities: Box::new([1.0]),
        });
        r.record(TraceEvent::LinkUtil {
            t: 0.25,
            link: 0,
            utilization: 0.4,
        });
        let snap = r.snapshot();
        assert_eq!(snap.segments.len(), 2);
        assert_eq!(snap.segments[0].series[0].last_value(), Some(0.8));
        assert_eq!(snap.segments[1].series[0].last_value(), Some(0.4));
        assert_eq!(snap.segments[0].series[0].name, "link_util/0");
    }

    #[test]
    fn link_series_cap_drops_and_counts() {
        let r = FlightRecorder::new();
        for l in 0..(FlightRecorder::MAX_LINK_SERIES as u32 + 10) {
            r.record(TraceEvent::LinkUtil {
                t: 0.1,
                link: l,
                utilization: 0.5,
            });
        }
        let snap = r.snapshot();
        assert_eq!(snap.link_series_dropped, 10);
        assert_eq!(
            snap.segments[0].series.len(),
            FlightRecorder::MAX_LINK_SERIES
        );
    }
}
