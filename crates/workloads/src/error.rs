//! Typed trainer failures.
//!
//! The trainer used to `panic!` on a stalled schedule or a rejected
//! flow; under fault injection those conditions are *expected* outcomes
//! (a cut fabric, a dependency deadlock exposed by re-planning), so
//! they are surfaced as [`TrainError`] values the caller can inspect —
//! the fault sweep turns them into data points instead of aborts.

use std::fmt;

use fred_sim::topology::RouteError;

use crate::schedule::TaskId;

/// One unfinished task at the moment the trainer stalled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTask {
    /// The task that never finished.
    pub id: TaskId,
    /// Its direct dependencies that were also unfinished — the edges a
    /// deadlock cycle (if any) runs through.
    pub blocked_on: Vec<TaskId>,
}

/// Why a training iteration could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The trainer ran out of pending events with tasks unfinished:
    /// a dependency deadlock in the schedule, or traffic that was
    /// silently dropped. Carries the full pending-task list so the
    /// cycle can be diagnosed without re-running.
    Stalled {
        /// Tasks that did finish.
        completed: usize,
        /// Total tasks in the schedule.
        total: usize,
        /// Every unfinished task with its unfinished dependencies.
        pending: Vec<PendingTask>,
    },
    /// A flow completion carried a correlation tag that maps to no
    /// in-flight comm task with an outstanding transfer — a tagging bug
    /// in the scheduler, a foreign flow leaked into the trainer's
    /// network, or a restored state that miscounts a task's transfers.
    UnknownCommTag {
        /// The offending tag (task index + 1 by the trainer's scheme).
        tag: u64,
    },
    /// The network rejected staged flows outright (invalid route).
    Route(RouteError),
    /// Link failures cut a transfer's endpoints apart: no surviving
    /// route exists, so the schedule cannot make progress even after
    /// re-planning.
    Unroutable {
        /// The comm task whose transfer became unroutable, when known.
        task: Option<TaskId>,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Stalled {
                completed,
                total,
                pending,
            } => {
                write!(
                    f,
                    "trainer stalled: {completed}/{total} tasks done but no pending events; \
                     unfinished:"
                )?;
                for p in pending.iter().take(8) {
                    write!(f, " t{}(waits:", p.id.0)?;
                    for (k, b) in p.blocked_on.iter().enumerate() {
                        write!(f, "{}t{}", if k > 0 { "," } else { "" }, b.0)?;
                    }
                    write!(f, ")")?;
                }
                if pending.len() > 8 {
                    write!(f, " … {} more", pending.len() - 8)?;
                }
                Ok(())
            }
            TrainError::UnknownCommTag { tag } => {
                write!(f, "flow completion with unknown comm tag {tag}")
            }
            TrainError::Route(e) => write!(f, "network rejected staged flows: {e}"),
            TrainError::Unroutable { task: Some(t) } => write!(
                f,
                "comm task t{} has no surviving route around failed links",
                t.0
            ),
            TrainError::Unroutable { task: None } => {
                write!(f, "a transfer has no surviving route around failed links")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Route(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteError> for TrainError {
    fn from(e: RouteError) -> TrainError {
        TrainError::Route(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::topology::LinkId;

    #[test]
    fn display_summarises_pending_tasks() {
        let e = TrainError::Stalled {
            completed: 1,
            total: 3,
            pending: vec![
                PendingTask {
                    id: TaskId(1),
                    blocked_on: vec![TaskId(2)],
                },
                PendingTask {
                    id: TaskId(2),
                    blocked_on: vec![TaskId(1)],
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("1/3"), "{s}");
        assert!(s.contains("t1(waits:t2)"), "{s}");
        assert!(s.contains("t2(waits:t1)"), "{s}");
    }

    #[test]
    fn route_errors_convert_and_chain() {
        let e: TrainError = RouteError::FailedLink(LinkId(4)).into();
        assert!(e.to_string().contains("failed link l4"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
