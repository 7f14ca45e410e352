//! Simulation clock newtypes.
//!
//! The simulator measures time in seconds stored as `f64`. The paper's
//! quantities span nanosecond link latencies (20 ns, Table 3) to
//! multi-second training iterations, which fits comfortably within `f64`
//! precision (~15 significant digits). [`Time`] is an absolute instant on
//! the simulation clock; [`Duration`] is a span between instants. Both are
//! totally ordered (via `f64::total_cmp`), so they can be used directly as
//! keys in event queues.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in seconds since the
/// start of the simulation.
///
/// ```
/// use fred_sim::time::{Duration, Time};
/// let t = Time::ZERO + Duration::from_millis(500.0);
/// assert_eq!(t.as_secs(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

/// A span of simulated time, in seconds.
///
/// ```
/// use fred_sim::time::Duration;
/// let d = Duration::from_secs(3.0) + Duration::from_secs(2.0);
/// assert_eq!(d.as_nanos(), 5e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Duration(f64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Time {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "time must be finite and non-negative"
        );
        Time(secs)
    }

    /// Seconds since the start of the simulation.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Nanoseconds since the start of the simulation.
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(
            self.0 >= earlier.0 - 1e-15,
            "since() called with a later instant"
        );
        Duration((self.0 - earlier.0).max(0.0))
    }
}

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    pub fn from_secs(secs: f64) -> Duration {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        Duration(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Duration {
        Duration::from_secs(ms * 1e-3)
    }

    /// Seconds in this span.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Nanoseconds in this span.
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// The longer of two spans.
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The shorter of two spans.
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Time {}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for Duration {}

impl Ord for Duration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.4} s")
        } else if s >= 1e-3 {
            write!(f, "{:.4} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.4} us", s * 1e6)
        } else {
            write!(f, "{:.2} ns", s * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_secs(1.5) + Duration::from_millis(500.0);
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!((t - Time::from_secs(1.0)).as_secs(), 1.0);
    }

    #[test]
    fn duration_unit_conversions() {
        assert_eq!(Duration::from_millis(250.0).as_secs(), 0.25);
        assert_eq!(Duration::from_secs(2.0).as_nanos(), 2e9);
    }

    #[test]
    fn ordering_is_total() {
        let a = Time::from_secs(1.0);
        let b = Time::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn saturating_subtraction_never_negative() {
        let d = Duration::from_secs(1.0) - Duration::from_secs(2.0);
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_duration_panics() {
        let _ = Duration::from_secs(-1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Duration::from_secs(20e-9)), "20.00 ns");
        assert_eq!(format!("{}", Duration::from_secs(2.5)), "2.5000 s");
        assert_eq!(format!("{}", Duration::from_secs(3e-6)), "3.0000 us");
        assert_eq!(format!("{}", Duration::from_millis(7.25)), "7.2500 ms");
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_secs(2.0) * 3.0;
        assert_eq!(d.as_secs(), 6.0);
        assert_eq!((d / 2.0).as_secs(), 3.0);
        assert_eq!(d / Duration::from_secs(2.0), 3.0);
    }
}
