//! Critical-path time attribution buckets.
//!
//! Every nanosecond of a run's makespan is charged to exactly one
//! bucket, reproducing the paper's bottleneck arguments (§8): is a
//! design point limited by compute, by exposed communication of one
//! parallelism dimension, or by link contention serialising flows that
//! a conflict-free fabric would have run at full rate?
//!
//! The split between *exposed communication* and *contention* follows
//! the ideal-rate re-costing of [`crate::analysis`]: a communication
//! span on the critical path contributes its contention-free duration
//! (every flow re-costed at the bottleneck-link capacity it would get
//! running alone) to its dimension's bucket, and the remainder —
//! observed minus ideal — to [`Bucket::Contention`].

use std::fmt;

use crate::event::Track;
use crate::json::push_num;

/// Where one critical-path second is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// Roofline compute on the critical worker.
    Compute,
    /// Exposed model/tensor-parallel communication at its ideal rate.
    CommMp,
    /// Exposed pipeline-parallel communication at its ideal rate.
    CommPp,
    /// Exposed data-parallel communication at its ideal rate.
    CommDp,
    /// Exposed bulk / input-load / streaming traffic at its ideal rate.
    CommBulk,
    /// Extra serialisation inflicted by link sharing: observed minus
    /// contention-free duration of critical-path communication.
    Contention,
    /// Critical-path time no recorded span or edge explains (non-zero
    /// only on truncated or partially instrumented traces).
    Unattributed,
}

impl Bucket {
    /// All buckets, in report order.
    pub const ALL: [Bucket; 7] = [
        Bucket::Compute,
        Bucket::CommMp,
        Bucket::CommPp,
        Bucket::CommDp,
        Bucket::CommBulk,
        Bucket::Contention,
        Bucket::Unattributed,
    ];

    /// Stable JSON/report key.
    pub fn key(self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::CommMp => "comm_mp",
            Bucket::CommPp => "comm_pp",
            Bucket::CommDp => "comm_dp",
            Bucket::CommBulk => "comm_bulk",
            Bucket::Contention => "contention",
            Bucket::Unattributed => "unattributed",
        }
    }

    /// The exposed-communication bucket for a display track, or
    /// [`Bucket::Compute`] for the compute/iteration lanes.
    pub fn for_track(track: Track) -> Bucket {
        match track {
            Track::Mp => Bucket::CommMp,
            Track::Pp => Bucket::CommPp,
            Track::Dp => Bucket::CommDp,
            Track::Bulk => Bucket::CommBulk,
            Track::Compute | Track::Iteration => Bucket::Compute,
        }
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Seconds of critical-path time per bucket. The class invariant the
/// analysis maintains (and `bench-diff --self-check` verifies) is
/// `total() == makespan` of the analysed run, within float tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Attribution {
    secs: [f64; Bucket::ALL.len()],
}

impl Attribution {
    /// Adds `secs` to `bucket` (negative contributions are clamped to
    /// zero — they can only arise from float residue).
    pub fn add(&mut self, bucket: Bucket, secs: f64) {
        self.secs[Self::index(bucket)] += secs.max(0.0);
    }

    /// Seconds charged to `bucket`.
    pub fn get(&self, bucket: Bucket) -> f64 {
        self.secs[Self::index(bucket)]
    }

    /// Sum over every bucket — equals the analysed makespan.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Sum of the per-dimension exposed-communication buckets (the
    /// ideal-rate portion, excluding contention).
    pub fn exposed_comm_total(&self) -> f64 {
        self.get(Bucket::CommMp)
            + self.get(Bucket::CommPp)
            + self.get(Bucket::CommDp)
            + self.get(Bucket::CommBulk)
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &Attribution) {
        for (a, b) in self.secs.iter_mut().zip(&other.secs) {
            *a += b;
        }
    }

    /// Appends `{"compute":…, "comm_mp":…, …}` to `out`.
    pub fn push_json(&self, out: &mut String) {
        out.push('{');
        for (i, b) in Bucket::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(b.key());
            out.push_str("\":");
            push_num(out, self.get(*b));
        }
        out.push('}');
    }

    fn index(bucket: Bucket) -> usize {
        Bucket::ALL
            .iter()
            .position(|&b| b == bucket)
            .expect("bucket in ALL")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_have_distinct_keys() {
        let keys: std::collections::BTreeSet<&str> = Bucket::ALL.iter().map(|b| b.key()).collect();
        assert_eq!(keys.len(), Bucket::ALL.len());
    }

    #[test]
    fn track_mapping_covers_dimensions() {
        assert_eq!(Bucket::for_track(Track::Mp), Bucket::CommMp);
        assert_eq!(Bucket::for_track(Track::Pp), Bucket::CommPp);
        assert_eq!(Bucket::for_track(Track::Dp), Bucket::CommDp);
        assert_eq!(Bucket::for_track(Track::Bulk), Bucket::CommBulk);
        assert_eq!(Bucket::for_track(Track::Compute), Bucket::Compute);
    }

    #[test]
    fn totals_and_merge() {
        let mut a = Attribution::default();
        a.add(Bucket::Compute, 1.0);
        a.add(Bucket::CommDp, 0.5);
        a.add(Bucket::Contention, 0.25);
        assert!((a.total() - 1.75).abs() < 1e-12);
        assert!((a.exposed_comm_total() - 0.5).abs() < 1e-12);

        let mut b = Attribution::default();
        b.add(Bucket::CommDp, 2.0);
        a.merge(&b);
        assert!((a.get(Bucket::CommDp) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn negative_additions_are_clamped() {
        let mut a = Attribution::default();
        a.add(Bucket::Contention, -1.0);
        assert_eq!(a.get(Bucket::Contention), 0.0);
    }

    #[test]
    fn json_shape() {
        let mut a = Attribution::default();
        a.add(Bucket::CommMp, 0.125);
        let mut s = String::new();
        a.push_json(&mut s);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"comm_mp\":0.125"));
        assert!(s.contains("\"unattributed\":0"));
    }
}
