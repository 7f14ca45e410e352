//! Job-level SLO metrics: queueing delay, makespan stretch, fairness
//! and fabric utilization.
//!
//! The cluster's service quality is judged per *job*, not per flow:
//! how long a job waited for slots, how much slower it ran sharing the
//! fabric than it would have run alone (stretch), and how evenly that
//! slowdown was spread across tenants (Jain's index over per-job
//! speed).

use fred_sim::time::Time;

use crate::job::JobClass;

/// Outcome of one completed job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job display name.
    pub name: String,
    /// Priority class it ran under.
    pub class: JobClass,
    /// Contiguous NPU slots it occupied.
    pub npus: usize,
    /// When it arrived at the cluster.
    pub arrival: Time,
    /// When it first started running (first placement; preemption does
    /// not reset this).
    pub first_start: Time,
    /// When its last task finished.
    pub completion: Time,
    /// Times it was preempted and requeued.
    pub preemptions: u32,
    /// Makespan of the same job running alone on the same fabric — the
    /// stretch denominator.
    pub solo_secs: f64,
}

impl JobRecord {
    /// Seconds spent queued before first starting.
    pub fn queueing_delay_secs(&self) -> f64 {
        self.first_start.since(self.arrival).as_secs()
    }

    /// Seconds from first start to completion, including any time lost
    /// to preemption and restart.
    pub fn service_secs(&self) -> f64 {
        self.completion.since(self.first_start).as_secs()
    }

    /// Makespan stretch: shared-fabric service time over solo
    /// makespan. 1.0 = no interference; 2.0 = the job took twice as
    /// long as it would have alone.
    ///
    /// A non-positive `solo_secs` denominator (a degenerate or
    /// zero-length solo reference) is defined as stretch 1.0 rather
    /// than `NaN`/`inf`: a `NaN` here would silently poison every
    /// aggregate built on top (quantiles panic in their comparator,
    /// means and Jain's index propagate it into `BENCH_*.json`).
    pub fn stretch(&self) -> f64 {
        if self.solo_secs <= 0.0 {
            return 1.0;
        }
        self.service_secs() / self.solo_secs
    }
}

/// Aggregate outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Fabric configuration name.
    pub fabric: String,
    /// Per-job outcomes, in submission order.
    pub records: Vec<JobRecord>,
    /// Completion time of the last job (absolute; arrivals start at 0).
    pub makespan: Time,
    /// NPU slots the fabric offers.
    pub npu_slots: usize,
    /// Occupied-slot-seconds integrated over the run.
    pub busy_npu_secs: f64,
    /// Total preemption events.
    pub preemptions: u32,
    /// Trace events the sink lost during this run (ring overflow).
    /// Zero for untraced runs; when non-zero the recorded series and
    /// traces are truncated and the run warned on stderr.
    pub dropped_events: u64,
}

impl ClusterReport {
    /// The first field, in a fixed order, where `other` differs from
    /// this report bit for bit, or `None` when they agree. The fields
    /// are the makespan, the occupied NPU-seconds, and each job's first
    /// start, completion, preemption count and solo makespan (the
    /// stretch denominator, which comes from a compile context the two
    /// runs may or may not share). A run resumed from a snapshot, or
    /// forked without faults, must agree with the uninterrupted run on
    /// all of them.
    pub fn first_difference(&self, other: &ClusterReport) -> Option<String> {
        let bits = |t: Time| t.as_secs().to_bits();
        if bits(self.makespan) != bits(other.makespan) {
            return Some("makespan".into());
        }
        if self.busy_npu_secs.to_bits() != other.busy_npu_secs.to_bits() {
            return Some("busy NPU-seconds".into());
        }
        if self.records.len() != other.records.len() {
            return Some("job count".into());
        }
        self.records.iter().zip(&other.records).find_map(|(a, b)| {
            let field = if bits(a.first_start) != bits(b.first_start) {
                "first start"
            } else if bits(a.completion) != bits(b.completion) {
                "completion"
            } else if a.preemptions != b.preemptions {
                "preemption count"
            } else if a.solo_secs.to_bits() != b.solo_secs.to_bits() {
                "solo makespan"
            } else {
                return None;
            };
            Some(format!("job {} {field}", a.name))
        })
    }

    /// Fraction of offered NPU-seconds actually occupied by placed
    /// jobs, `busy / (slots × makespan)`.
    pub fn utilization(&self) -> f64 {
        let offered = self.npu_slots as f64 * self.makespan.as_secs();
        if offered == 0.0 {
            0.0
        } else {
            self.busy_npu_secs / offered
        }
    }

    /// The `q`-quantile of per-job queueing delay (seconds).
    pub fn queueing_delay_secs(&self, q: f64) -> f64 {
        percentile(
            &self
                .records
                .iter()
                .map(JobRecord::queueing_delay_secs)
                .collect::<Vec<_>>(),
            q,
        )
    }

    /// The `q`-quantile of per-job makespan stretch. 1.0 (no observed
    /// slowdown) for a run with zero completed jobs.
    pub fn stretch(&self, q: f64) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        percentile(
            &self
                .records
                .iter()
                .map(JobRecord::stretch)
                .collect::<Vec<_>>(),
            q,
        )
    }

    /// Mean makespan stretch across jobs. 1.0 (no observed slowdown)
    /// for a run with zero completed jobs.
    pub fn mean_stretch(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().map(JobRecord::stretch).sum::<f64>() / self.records.len() as f64
    }

    /// Jain's fairness index over per-job *speed* (1/stretch): 1.0
    /// when every job suffers the same slowdown, toward `1/n` when one
    /// job absorbs all the interference.
    ///
    /// Defined for every degenerate input: zero completed jobs is
    /// vacuously fair (1.0), and jobs whose speed is non-finite (a
    /// zero-stretch record from an instant completion) are skipped
    /// rather than letting `inf` turn the whole index into `NaN`.
    pub fn jain_fairness(&self) -> f64 {
        let speeds: Vec<f64> = self
            .records
            .iter()
            .map(|r| 1.0 / r.stretch())
            .filter(|s| s.is_finite())
            .collect();
        if speeds.is_empty() {
            return 1.0;
        }
        jain(&speeds)
    }
}

/// The `q`-quantile (0 < q ≤ 1) by the nearest-rank rule on a sorted
/// copy: element `⌈q·n⌉ − 1`. Zero for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1.0 for equal shares,
/// `1/n` when one participant takes everything. Zero for empty input.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.01), 7.0);
    }

    #[test]
    fn jain_brackets_equal_and_maximally_unequal_shares() {
        assert!((jain(&[2.0, 2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        let lopsided = jain(&[1.0, 0.0, 0.0, 0.0]);
        assert!((lopsided - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[]), 0.0);
    }

    #[test]
    fn record_derived_metrics() {
        let r = JobRecord {
            name: "j".into(),
            class: JobClass::Normal,
            npus: 4,
            arrival: Time::from_secs(1.0),
            first_start: Time::from_secs(3.0),
            completion: Time::from_secs(7.0),
            preemptions: 0,
            solo_secs: 2.0,
        };
        assert_eq!(r.queueing_delay_secs(), 2.0);
        assert_eq!(r.service_secs(), 4.0);
        assert_eq!(r.stretch(), 2.0);
    }

    fn record(service: f64, solo: f64) -> JobRecord {
        JobRecord {
            name: "j".into(),
            class: JobClass::Normal,
            npus: 4,
            arrival: Time::ZERO,
            first_start: Time::ZERO,
            completion: Time::from_secs(service),
            preemptions: 0,
            solo_secs: solo,
        }
    }

    fn report(records: Vec<JobRecord>) -> ClusterReport {
        ClusterReport {
            fabric: "fred-d".into(),
            records,
            makespan: Time::ZERO,
            npu_slots: 20,
            busy_npu_secs: 0.0,
            preemptions: 0,
            dropped_events: 0,
        }
    }

    #[test]
    fn first_difference_compares_solo_makespans_bit_for_bit() {
        let a = report(vec![record(4.0, 2.0)]);
        assert_eq!(a.first_difference(&report(vec![record(4.0, 2.0)])), None);
        let b = report(vec![record(4.0, f64::from_bits(2.0f64.to_bits() + 1))]);
        assert_eq!(a.first_difference(&b), Some("job j solo makespan".into()));
    }

    #[test]
    fn zero_solo_makespan_defines_stretch_as_one() {
        // Degenerate denominator: 0/0 and x/0 both stay finite.
        assert_eq!(record(0.0, 0.0).stretch(), 1.0);
        assert_eq!(record(4.0, 0.0).stretch(), 1.0);
        assert_eq!(record(4.0, -1.0).stretch(), 1.0);
        assert!(record(4.0, 2.0).stretch() == 2.0, "healthy path unchanged");
    }

    #[test]
    fn empty_report_metrics_are_defined_not_nan() {
        let r = report(Vec::new());
        assert_eq!(r.mean_stretch(), 1.0);
        assert_eq!(r.stretch(0.99), 1.0);
        assert_eq!(r.jain_fairness(), 1.0);
        assert_eq!(r.queueing_delay_secs(0.99), 0.0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn degenerate_records_never_poison_aggregates() {
        // One instant completion (stretch 0 → infinite speed), one
        // zero-solo record, one healthy record: every aggregate must
        // stay finite.
        let r = report(vec![record(0.0, 5.0), record(3.0, 0.0), record(4.0, 2.0)]);
        assert!(r.mean_stretch().is_finite());
        assert!(r.stretch(0.5).is_finite());
        let fairness = r.jain_fairness();
        assert!(fairness.is_finite(), "got {fairness}");
        assert!(fairness > 0.0 && fairness <= 1.0);
    }

    #[test]
    fn all_degenerate_records_yield_vacuous_fairness() {
        // Every speed filtered out (all instant completions): defined
        // as vacuously fair rather than NaN.
        let r = report(vec![record(0.0, 5.0), record(0.0, 9.0)]);
        assert_eq!(r.jain_fairness(), 1.0);
    }
}
