//! Training-time breakdown records (§7.4 "Metric of Evaluation").
//!
//! The paper reports end-to-end training time decomposed into total
//! compute time and *exposed* communication times — time the workload
//! spends blocked on communication that is not overlapped with compute —
//! per source: input load, MP, DP, PP and weight streaming.

use std::collections::BTreeMap;
use std::fmt;

use fred_sim::flow::Priority;
use fred_sim::time::Duration;

/// The sources of exposed communication time (Fig 10's stack segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommType {
    /// Initial input-minibatch load.
    InputLoad,
    /// Model/tensor-parallel collectives.
    Mp,
    /// Pipeline-parallel stage transfers.
    Pp,
    /// Data-parallel gradient collectives.
    Dp,
    /// Weight/gradient streaming (weight-streaming execution only).
    Streaming,
}

impl CommType {
    /// All types in report order.
    pub const ALL: [CommType; 5] = [
        CommType::InputLoad,
        CommType::Mp,
        CommType::Pp,
        CommType::Dp,
        CommType::Streaming,
    ];

    /// The virtual-channel priority class this traffic travels in
    /// (§5.4: MP > PP > DP > bulk).
    pub fn priority(self) -> Priority {
        match self {
            CommType::Mp => Priority::Mp,
            CommType::Pp => Priority::Pp,
            CommType::Dp => Priority::Dp,
            CommType::InputLoad | CommType::Streaming => Priority::Bulk,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CommType::InputLoad => "input_load",
            CommType::Mp => "mp",
            CommType::Pp => "pp",
            CommType::Dp => "dp",
            CommType::Streaming => "streaming",
        }
    }
}

impl fmt::Display for CommType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The collective patterns each parallelism type incurs (Table 1).
///
/// ```
/// use fred_workloads::report::{patterns_for, CommType};
/// assert!(patterns_for(CommType::Dp).contains(&"all-reduce"));
/// assert!(patterns_for(CommType::Pp).contains(&"point-to-point"));
/// ```
pub fn patterns_for(parallelism: CommType) -> &'static [&'static str] {
    match parallelism {
        // Model parallelism: everything but point-to-point (Table 1).
        CommType::Mp => &["reduce-scatter", "all-gather", "all-reduce", "all-to-all"],
        // Data parallelism: reduce-scatter / all-gather (ZeRO) and
        // all-reduce.
        CommType::Dp => &["reduce-scatter", "all-gather", "all-reduce"],
        // Pipeline parallelism: stage-boundary transfers only.
        CommType::Pp => &["point-to-point"],
        // I/O paths: streaming multicast/reduce and scatter loads.
        CommType::InputLoad | CommType::Streaming => &["multicast", "reduce", "scatter"],
    }
}

/// Breakdown of one simulated training iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingReport {
    /// Workload name.
    pub workload: String,
    /// Fabric configuration name.
    pub config: String,
    /// Parallelization strategy, e.g. `MP(2)-DP(5)-PP(2)`.
    pub strategy: String,
    /// Minibatch samples per iteration.
    pub minibatch: usize,
    /// End-to-end iteration time.
    pub total: Duration,
    /// Average per-NPU busy compute time.
    pub compute: Duration,
    /// Exposed communication per type (averaged over workers).
    pub exposed: BTreeMap<CommType, Duration>,
}

impl TrainingReport {
    /// Sum of all exposed communication.
    pub fn exposed_total(&self) -> Duration {
        self.exposed.values().fold(Duration::ZERO, |a, &b| a + b)
    }

    /// Exposed time for one type (zero if absent).
    pub fn exposed_for(&self, t: CommType) -> Duration {
        self.exposed.get(&t).copied().unwrap_or(Duration::ZERO)
    }

    /// Iteration time divided by minibatch size — the normalisation the
    /// paper applies when comparing strategies with different minibatch
    /// sizes (§7.4).
    pub fn time_per_sample(&self) -> f64 {
        self.total.as_secs() / self.minibatch.max(1) as f64
    }

    /// Speedup of `self` over `other` on per-sample time.
    pub fn speedup_over(&self, other: &TrainingReport) -> f64 {
        other.time_per_sample() / self.time_per_sample()
    }
}

impl fmt::Display for TrainingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: total {} (compute {}, ",
            self.workload, self.config, self.strategy, self.total, self.compute
        )?;
        let mut first = true;
        for t in CommType::ALL {
            let d = self.exposed_for(t);
            if d > Duration::ZERO {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{t} {d}")?;
                first = false;
            }
        }
        if first {
            write!(f, "no exposed comm")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainingReport {
        let mut exposed = BTreeMap::new();
        exposed.insert(CommType::Dp, Duration::from_secs(0.2));
        exposed.insert(CommType::Mp, Duration::from_secs(0.3));
        TrainingReport {
            workload: "Test".into(),
            config: "Baseline".into(),
            strategy: "MP(2)-DP(2)-PP(1)".into(),
            minibatch: 32,
            total: Duration::from_secs(1.5),
            compute: Duration::from_secs(1.0),
            exposed,
        }
    }

    #[test]
    fn exposed_accounting() {
        let r = sample();
        assert!((r.exposed_total().as_secs() - 0.5).abs() < 1e-12);
        assert_eq!(r.exposed_for(CommType::Pp), Duration::ZERO);
        assert!((r.exposed_for(CommType::Mp).as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn normalisation_and_speedup() {
        let a = sample();
        let mut b = sample();
        b.total = Duration::from_secs(3.0);
        b.minibatch = 32;
        assert!((a.time_per_sample() - 1.5 / 32.0).abs() < 1e-12);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
        // Different minibatches normalise fairly.
        b.minibatch = 64;
        assert!((a.speedup_over(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_pattern_matrix() {
        // Table 1: 3D parallelism incurs the union of all patterns.
        let td: std::collections::BTreeSet<&str> = CommType::ALL
            .iter()
            .flat_map(|&t| patterns_for(t).iter().copied())
            .collect();
        for p in [
            "reduce-scatter",
            "all-gather",
            "all-reduce",
            "all-to-all",
            "point-to-point",
        ] {
            assert!(td.contains(p), "3D union missing {p}");
        }
        // DP never needs all-to-all; PP only point-to-point.
        assert!(!patterns_for(CommType::Dp).contains(&"all-to-all"));
        assert_eq!(patterns_for(CommType::Pp), &["point-to-point"]);
    }

    #[test]
    fn display_lists_nonzero_components() {
        let s = sample().to_string();
        assert!(s.contains("mp"));
        assert!(s.contains("dp"));
        assert!(!s.contains("streaming"));
    }
}
