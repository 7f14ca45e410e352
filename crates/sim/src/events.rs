//! A small generic discrete-event queue.
//!
//! Higher layers (the trainer in `fred-workloads`, the switch microsim in
//! `fred-core`) need an ordered queue of timestamped events of their own
//! event type. [`EventQueue`] provides deterministic FIFO ordering among
//! events scheduled for the same instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// An event scheduled for a given instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: Time,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// ```
/// use fred_sim::events::EventQueue;
/// use fred_sim::time::Time;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_secs(2.0), "late");
/// q.schedule(Time::from_secs(1.0), "early");
/// q.schedule(Time::from_secs(1.0), "early-second");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// The instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|Reverse(s)| s)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every pending event with its instant, in pop order. The pop
    /// order is all a queue's state: snapshots serialize this list and
    /// [`EventQueue::from_entries`] rebuilds an equivalent queue.
    pub fn entries(&self) -> Vec<(Time, E)>
    where
        E: Clone,
    {
        let mut out: Vec<&Scheduled<E>> = self.heap.iter().map(|Reverse(s)| s).collect();
        out.sort_unstable();
        out.into_iter().map(|s| (s.at, s.event.clone())).collect()
    }

    /// Rebuilds a queue from [`EventQueue::entries`], numbering the
    /// entries by position. Pop order matches the captured queue, and
    /// so does all future tie-breaking: every later
    /// [`EventQueue::schedule`] numbers above every restored entry, as
    /// it did above every captured one.
    pub fn from_entries(entries: Vec<(Time, E)>) -> EventQueue<E> {
        let next_seq = entries.len() as u64;
        let heap = (0..)
            .zip(entries)
            .map(|(seq, (at, event))| Reverse(Scheduled { at, seq, event }))
            .collect();
        EventQueue { heap, next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(3.0), 30);
        q.schedule(Time::from_secs(1.0), 10);
        q.schedule(Time::from_secs(1.0), 11);
        q.schedule(Time::from_secs(2.0), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn entries_round_trip_preserves_pop_order_and_sequencing() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(2.0), 'b');
        q.schedule(Time::from_secs(1.0), 'a');
        q.schedule(Time::from_secs(1.0), 'c');
        q.schedule(Time::from_secs(1.0), 'e');
        q.pop();
        // The capture is the pop order, without sequence numbers.
        let entries = q.entries();
        let at = Time::from_secs;
        assert_eq!(entries, [(at(1.0), 'c'), (at(1.0), 'e'), (at(2.0), 'b')]);
        let mut r = EventQueue::from_entries(entries);
        assert_eq!(r.entries(), q.entries());
        // New same-instant events in both queues keep FIFO parity.
        q.schedule(Time::from_secs(1.0), 'd');
        r.schedule(Time::from_secs(1.0), 'd');
        let drain = |q: &mut EventQueue<char>| -> Vec<(f64, char)> {
            std::iter::from_fn(|| q.pop().map(|s| (s.at.as_secs(), s.event))).collect()
        };
        assert_eq!(drain(&mut q), drain(&mut r));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(Time::from_secs(1.0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
    }
}
