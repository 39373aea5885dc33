//! Virtual time.
//!
//! All simulation time is expressed as [`SimTime`], a nanosecond count since
//! simulation start. `SimTime` doubles as a duration type: the engine only
//! ever needs points and offsets on one monotonic axis, and a separate
//! duration newtype buys little while costing many conversions in protocol
//! code. Saturating arithmetic keeps cost-model arithmetic panic-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time (or a span of virtual time), in nanoseconds.
///
/// # Example
///
/// ```
/// use popcorn_sim::SimTime;
///
/// let t = SimTime::from_micros(3) + SimTime::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert_eq!(format!("{t}"), "3.500us");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero, the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never" in timeout slots.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from a number of CPU cycles at the given clock
    /// frequency in GHz (cycles are rounded to whole nanoseconds).
    ///
    /// # Example
    ///
    /// ```
    /// use popcorn_sim::SimTime;
    /// // 2400 cycles at 2.4 GHz is exactly one microsecond.
    /// assert_eq!(SimTime::from_cycles(2400, 2.4), SimTime::from_micros(1));
    /// ```
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        debug_assert!(ghz > 0.0, "clock frequency must be positive");
        SimTime((cycles as f64 / ghz).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as floating-point milliseconds (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as floating-point seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; `a.saturating_sub(b)` is zero when `b > a`.
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales this span by a floating-point factor, rounding to nanoseconds.
    pub fn scale(self, factor: f64) -> SimTime {
        debug_assert!(factor >= 0.0, "time cannot be scaled negative");
        SimTime((self.0 as f64 * factor).round() as u64)
    }

    /// True if this is time zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    /// Renders with an adaptive unit: `ns` below 1 µs, `us` below 1 ms,
    /// `ms` below 1 s, `s` above.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{}.{:03}us", ns / 1_000, ns % 1_000)
        } else if ns < 1_000_000_000 {
            write!(f, "{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        } else {
            write!(f, "{}.{:03}s", ns / 1_000_000_000, (ns / 1_000_000) % 1_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_compose() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(
            SimTime::from_secs(1),
            SimTime::from_millis(999) + SimTime::from_micros(1000)
        );
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_nanos(4));
    }

    #[test]
    fn cycles_conversion_rounds() {
        assert_eq!(SimTime::from_cycles(1, 2.0).as_nanos(), 1); // 0.5ns rounds up
        assert_eq!(SimTime::from_cycles(3000, 3.0).as_nanos(), 1000);
    }

    #[test]
    fn scale_rounds_to_nanoseconds() {
        assert_eq!(SimTime::from_nanos(10).scale(1.25), SimTime::from_nanos(13));
        assert_eq!(SimTime::from_nanos(10).scale(0.0), SimTime::ZERO);
    }

    #[test]
    fn display_adapts_unit() {
        assert_eq!(SimTime::from_nanos(999).to_string(), "999ns");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimTime::from_millis(3_250).to_string(), "3.250s");
    }

    #[test]
    fn min_max_ordering() {
        let a = SimTime::from_nanos(3);
        let b = SimTime::from_nanos(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a < b);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }

    #[test]
    fn mul_div_scalars() {
        assert_eq!(SimTime::from_nanos(6) * 7, SimTime::from_nanos(42));
        assert_eq!(SimTime::from_nanos(42) / 6, SimTime::from_nanos(7));
    }
}
