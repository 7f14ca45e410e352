//! Trace sinks: where instrumented layers send their events.
//!
//! The contract instrumentation relies on:
//!
//! * call [`TraceSink::enabled`] first and skip event construction
//!   when it returns `false` — this is what makes the [`NullSink`]
//!   default zero-overhead (no event is built, no branch beyond one
//!   virtual call);
//! * [`TraceSink::record`] takes `&self`: sinks use interior
//!   mutability, so one sink can be shared by the network, the
//!   collective executor and the trainer simultaneously.

use std::cell::{Cell, RefCell};
use std::fmt::Debug;

use crate::event::TraceEvent;

/// A consumer of [`TraceEvent`]s.
pub trait TraceSink: Debug {
    /// Whether recording is on. Instrumented code checks this before
    /// building an event, so a disabled sink costs one virtual call
    /// and nothing else.
    fn enabled(&self) -> bool;

    /// Records one event. May drop it (ring overflow).
    fn record(&self, ev: TraceEvent);

    /// How many events this sink has lost so far (ring overwrites,
    /// caps). Consumers surface this so a truncated recording is
    /// never mistaken for a complete one. Defaults to 0 for sinks
    /// that never drop.
    fn dropped(&self) -> u64 {
        0
    }
}

impl<T: TraceSink + ?Sized> TraceSink for std::rc::Rc<T> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&self, ev: TraceEvent) {
        (**self).record(ev)
    }

    fn dropped(&self) -> u64 {
        (**self).dropped()
    }
}

/// The zero-overhead default: reports disabled, drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ev: TraceEvent) {}
}

/// A single-threaded, preallocated ring-buffer recorder.
///
/// The buffer is allocated once at construction; recording into a
/// non-full ring writes into reserved capacity and recording into a
/// full ring overwrites the oldest event in place — neither path
/// allocates. ("Lock-free-ish": interior mutability via `Cell` /
/// `RefCell`, no locks, single-threaded by construction — the
/// simulator itself is single-threaded per experiment.)
#[derive(Debug)]
pub struct RingRecorder {
    buf: RefCell<Vec<TraceEvent>>,
    /// Index of the oldest event once the ring has wrapped.
    head: Cell<usize>,
    cap: usize,
    overwritten: Cell<u64>,
}

impl RingRecorder {
    /// Default ring capacity (2^20 events), bounding worst-case memory
    /// to ~100 MB of events.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a recorder holding at most `cap` events (the most
    /// recent ones win).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> RingRecorder {
        assert!(cap > 0, "ring capacity must be positive");
        RingRecorder {
            buf: RefCell::new(Vec::with_capacity(cap)),
            head: Cell::new(0),
            cap,
            overwritten: Cell::new(0),
        }
    }

    /// Creates a recorder with [`RingRecorder::DEFAULT_CAPACITY`].
    pub fn new() -> RingRecorder {
        RingRecorder::with_capacity(RingRecorder::DEFAULT_CAPACITY)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were overwritten because the ring was full.
    pub fn overwritten(&self) -> u64 {
        self.overwritten.get()
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let buf = self.buf.borrow();
        let head = self.head.get();
        let mut out = Vec::with_capacity(buf.len());
        out.extend_from_slice(&buf[head..]);
        out.extend_from_slice(&buf[..head]);
        out
    }

    /// Clears the ring (capacity is retained).
    pub fn clear(&self) {
        self.buf.borrow_mut().clear();
        self.head.set(0);
        self.overwritten.set(0);
    }
}

impl Default for RingRecorder {
    fn default() -> RingRecorder {
        RingRecorder::new()
    }
}

impl TraceSink for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: TraceEvent) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() < self.cap {
            buf.push(ev);
        } else {
            let head = self.head.get();
            buf[head] = ev;
            self.head.set((head + 1) % self.cap);
            self.overwritten.set(self.overwritten.get() + 1);
        }
    }

    fn dropped(&self) -> u64 {
        self.overwritten()
    }
}

/// Fans every event out to two sinks (e.g. a ring recorder and a
/// streaming [`AnalysisSink`](crate::analysis::AnalysisSink)).
#[derive(Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn record(&self, ev: TraceEvent) {
        if self.0.enabled() {
            self.0.record(ev.clone());
        }
        if self.1.enabled() {
            self.1.record(ev);
        }
    }

    fn dropped(&self) -> u64 {
        self.0.dropped() + self.1.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(t: f64) -> TraceEvent {
        TraceEvent::RateEpoch {
            t,
            active_flows: 0,
            changed: 0,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(marker(0.0)); // no-op, no panic
    }

    #[test]
    fn ring_records_in_order() {
        let r = RingRecorder::with_capacity(8);
        for i in 0..5 {
            r.record(marker(i as f64));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].time(), 0.0);
        assert_eq!(evs[4].time(), 4.0);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let r = RingRecorder::with_capacity(4);
        for i in 0..10 {
            r.record(marker(i as f64));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        // The last four survive, oldest first.
        let times: Vec<f64> = evs.iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(r.overwritten(), 6);
    }

    #[test]
    fn ring_never_reallocates_after_construction() {
        let r = RingRecorder::with_capacity(16);
        let cap_before = r.buf.borrow().capacity();
        for i in 0..100 {
            r.record(marker(i as f64));
        }
        assert_eq!(r.buf.borrow().capacity(), cap_before);
    }

    #[test]
    fn clear_resets_state() {
        let r = RingRecorder::with_capacity(2);
        r.record(marker(0.0));
        r.record(marker(1.0));
        r.record(marker(2.0));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 0);
        r.record(marker(3.0));
        assert_eq!(r.events()[0].time(), 3.0);
    }

    #[test]
    fn tee_fans_out() {
        let t = TeeSink(
            RingRecorder::with_capacity(4),
            RingRecorder::with_capacity(4),
        );
        assert!(t.enabled());
        t.record(marker(1.0));
        assert_eq!(t.0.len(), 1);
        assert_eq!(t.1.len(), 1);
    }

    #[test]
    fn dropped_propagates_through_tee_and_rc() {
        let t = TeeSink(
            std::rc::Rc::new(RingRecorder::with_capacity(2)),
            RingRecorder::with_capacity(4),
        );
        for i in 0..6 {
            t.record(marker(i as f64));
        }
        assert_eq!(t.0.dropped(), 4);
        assert_eq!(t.1.dropped(), 2);
        assert_eq!(t.dropped(), 6);
        assert_eq!(NullSink.dropped(), 0);
    }
}
