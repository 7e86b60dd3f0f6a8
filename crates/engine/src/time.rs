//! Simulated time: microsecond-resolution monotonic clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
///
/// `u64` microseconds overflow after ~584 000 years of simulated time, so
/// arithmetic uses plain addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Constructs from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Value in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, us: u64) -> SimTime {
        SimTime(self.0 + us)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, us: u64) {
        self.0 += us;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_mins(1).as_secs_f64(), 60.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + 500;
        assert_eq!(t.as_micros(), 1_000_500);
        assert_eq!(t - SimTime::from_secs(1), 500);
        assert_eq!(SimTime::ZERO - t, 0, "saturating");
        assert_eq!(t.since(SimTime::ZERO), 1_000_500);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
    }
}
