//! Operation timestamps `⟨clock_time, process_id⟩`.
//!
//! Algorithm 1 orders all broadcast operations by these timestamps; every
//! replica executes them on its local copy in ascending timestamp order.
//! Pure accessors get the timestamp `⟨local_time − X, pid⟩`, "pretending"
//! they were invoked `X` earlier (Chapter V §A.2).
//!
//! A batched invocation of the sharded namespace layer is one op of a
//! `Batch` spec, so it takes one timestamp like any other op.

use core::fmt;

use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockTime, SimDuration};

/// A totally ordered operation timestamp: clock time first, process id as
/// tie-breaker.
///
/// # Examples
///
/// ```
/// use skewbound_core::timestamp::Timestamp;
/// use skewbound_sim::ids::ProcessId;
/// use skewbound_sim::time::ClockTime;
///
/// let a = Timestamp::new(ClockTime::from_ticks(5), ProcessId::new(0));
/// let b = Timestamp::new(ClockTime::from_ticks(5), ProcessId::new(1));
/// let c = Timestamp::new(ClockTime::from_ticks(6), ProcessId::new(0));
/// assert!(a < b && b < c);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// The invoking process's clock reading (minus `X` for accessors).
    pub time: ClockTime,
    /// The invoking process.
    pub pid: ProcessId,
}

impl Timestamp {
    /// Creates a timestamp.
    #[must_use]
    pub fn new(time: ClockTime, pid: ProcessId) -> Self {
        Timestamp { time, pid }
    }

    /// The accessor timestamp: `time − x`.
    #[must_use]
    pub fn accessor(time: ClockTime, x: SimDuration, pid: ProcessId) -> Self {
        Timestamp {
            time: time - x,
            pid,
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.time, self.pid)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order() {
        let t = |c: i64, p: u32| Timestamp::new(ClockTime::from_ticks(c), ProcessId::new(p));
        assert!(t(1, 9) < t(2, 0));
        assert!(t(1, 0) < t(1, 1));
        assert_eq!(t(3, 2), t(3, 2));
    }

    #[test]
    fn accessor_shifts_back() {
        let ts = Timestamp::accessor(
            ClockTime::from_ticks(10),
            SimDuration::from_ticks(4),
            ProcessId::new(1),
        );
        assert_eq!(ts.time, ClockTime::from_ticks(6));
    }

    #[test]
    fn display_format() {
        let ts = Timestamp::new(ClockTime::from_ticks(-2), ProcessId::new(3));
        assert_eq!(format!("{ts}"), "⟨-2,p3⟩");
    }
}
