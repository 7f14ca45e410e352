//! Scoped host-side self-profiler.
//!
//! Wall-clock instrumentation for the simulator's own hot paths
//! (solver solves, batch injection, placement search, preemption
//! scans). Unlike the flight recorder — which lives in *sim* time —
//! this layer measures where *host* time goes, per simulator layer.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** The profiler defaults to disabled;
//!    every instrumentation site is guarded by a single `Relaxed`
//!    atomic load ([`enabled`]) before any clock is read or
//!    thread-local touched. `scaling` asserts the overhead budget
//!    (a profiled churn run keeps ≥ 95% of the unprofiled events/s),
//!    which is why scopes are placed on infrequent paths
//!    — per solve / per batch, never per event.
//! 2. **No dependencies, no unsafe.** Storage is a thread-local
//!    `BTreeMap<&'static str, SiteStats>`; site names are `'static`
//!    string literals so no allocation happens on the hot path after
//!    a site's first hit.
//! 3. **Scoped, not sampled.** A [`ScopeTimer`] records on drop, so
//!    early returns and `?` propagation are timed correctly.
//!
//! Sites also accept plain values via [`record_value`] — the solver
//! reports its dirty-component sizes through the same table, so one
//! snapshot carries both wall-clock and `SolverStats`-style series.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{push_num, push_str_lit};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SITES: RefCell<BTreeMap<&'static str, SiteStats>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Samples flushed out of worker threads' locals (see
/// [`flush_thread`]). Locked only at flush/snapshot/reset — never on
/// the instrumentation hot path, which stays thread-local.
static FLUSHED: Mutex<BTreeMap<&'static str, SiteStats>> = Mutex::new(BTreeMap::new());

/// Aggregate statistics for one instrumentation site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SiteStats {
    /// Times the site fired (scope completions or value records).
    pub count: u64,
    /// Sum of recorded values — seconds for scopes, the raw quantity
    /// for [`record_value`] sites.
    pub total: f64,
    /// Largest single recorded value.
    pub max: f64,
}

impl SiteStats {
    /// Mean recorded value (0 when the site never fired).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

/// Turns profiling on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently on — the one check every
/// instrumentation site pays when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts timing `site` if profiling is on. Bind the result to a
/// local (`let _scope = prof::scope("solver.solve");`): the elapsed
/// wall-clock is recorded when the guard drops.
#[inline]
pub fn scope(site: &'static str) -> Option<ScopeTimer> {
    if enabled() {
        Some(ScopeTimer {
            site,
            start: Instant::now(),
        })
    } else {
        None
    }
}

/// Records a plain value (a component size, a heap depth) against
/// `site` if profiling is on.
#[inline]
pub fn record_value(site: &'static str, value: f64) {
    if enabled() {
        add(site, value);
    }
}

fn add(site: &'static str, value: f64) {
    SITES.with(|s| {
        let mut map = s.borrow_mut();
        let st = map.entry(site).or_default();
        st.count += 1;
        st.total += value;
        if value > st.max {
            st.max = value;
        }
    });
}

/// RAII guard returned by [`scope`]; records elapsed seconds on drop.
#[derive(Debug)]
pub struct ScopeTimer {
    site: &'static str,
    start: Instant,
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        add(self.site, self.start.elapsed().as_secs_f64());
    }
}

impl SiteStats {
    fn merge(&mut self, other: &SiteStats) {
        self.count += other.count;
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// Moves this thread's accumulated samples into the process-wide
/// flushed table, leaving the local table empty. Worker threads call
/// this right before exiting (the DSE runner's point workers do) so
/// their samples survive the thread and show up in the draining
/// thread's [`snapshot`]. Cheap no-op when the local
/// table is empty.
pub fn flush_thread() {
    SITES.with(|s| {
        let mut local = s.borrow_mut();
        if local.is_empty() {
            return;
        }
        let mut global = FLUSHED.lock().expect("prof flush table poisoned");
        for (name, st) in std::mem::take(&mut *local) {
            global.entry(name).or_default().merge(&st);
        }
    });
}

/// Clones out the accumulated site table: this thread's samples merged
/// with everything worker threads have [`flush_thread`]-ed. A
/// single-threaded caller sees exactly its own table, as before the
/// profiler became multi-thread-aware.
pub fn snapshot() -> BTreeMap<&'static str, SiteStats> {
    let mut out = FLUSHED.lock().expect("prof flush table poisoned").clone();
    SITES.with(|s| {
        for (name, st) in s.borrow().iter() {
            out.entry(name).or_default().merge(st);
        }
    });
    out
}

/// Clears this thread's site table *and* the flushed cross-thread
/// table (the enabled flag is untouched). Samples still sitting in
/// other live threads' locals are not reachable and not cleared; flush
/// or join those threads first.
pub fn reset() {
    FLUSHED.lock().expect("prof flush table poisoned").clear();
    SITES.with(|s| s.borrow_mut().clear());
}

/// Renders a snapshot as a JSON object keyed by site name, each value
/// `{count, total, mean, max}` — the `prof` section of a bench report.
pub fn to_json(sites: &BTreeMap<&'static str, SiteStats>) -> String {
    let mut s = String::with_capacity(256);
    s.push('{');
    for (i, (name, st)) in sites.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_lit(&mut s, name);
        s.push_str(":{\"count\":");
        push_num(&mut s, st.count as f64);
        s.push_str(",\"total\":");
        push_num(&mut s, st.total);
        s.push_str(",\"mean\":");
        push_num(&mut s, st.mean());
        s.push_str(",\"max\":");
        push_num(&mut s, st.max);
        s.push('}');
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the enabled flag is process-global and
    // the default harness runs tests concurrently.
    #[test]
    fn disabled_is_silent_then_enabled_accumulates() {
        set_enabled(false);
        reset();
        {
            let _t = scope("test.noop");
            record_value("test.value", 42.0);
        }
        assert!(snapshot().is_empty());

        set_enabled(true);
        {
            let _t = scope("test.scope");
        }
        record_value("test.value", 3.0);
        record_value("test.value", 5.0);
        let snap = snapshot();
        set_enabled(false);
        let sc = snap["test.scope"];
        assert_eq!(sc.count, 1);
        assert!(sc.total >= 0.0);
        let v = snap["test.value"];
        assert_eq!(v.count, 2);
        assert_eq!(v.total, 8.0);
        assert_eq!(v.max, 5.0);
        assert_eq!(v.mean(), 4.0);
        let json = to_json(&snap);
        assert!(json.contains("\"test.value\""));
        assert!(json.contains("\"max\":5"));
        reset();
        assert!(snapshot().is_empty());

        // Worker-thread samples reach the parent's snapshot once the
        // worker flushes (and only then).
        set_enabled(true);
        record_value("test.cross", 1.0);
        std::thread::scope(|s| {
            s.spawn(|| {
                record_value("test.cross", 2.0);
                record_value("test.worker_only", 7.0);
                flush_thread();
            });
        });
        let snap = snapshot();
        set_enabled(false);
        let c = snap["test.cross"];
        assert_eq!(c.count, 2);
        assert_eq!(c.total, 3.0);
        assert_eq!(c.max, 2.0);
        assert_eq!(snap["test.worker_only"].count, 1);
        reset();
        assert!(snapshot().is_empty());
    }
}
