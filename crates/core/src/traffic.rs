//! Traffic-class identifiers: the key of the per-class feedback plane.
//!
//! SpecEE's exit profile is workload-dependent — chat traffic settles in
//! the first few layers while reasoning-heavy traffic saturates near the
//! end of the stack — so one blurred controller operating point per
//! engine wastes most of what the feedback stream knows. A
//! [`TrafficClass`] tags a request (and therefore every
//! [`crate::ExitFeedback`] event its decoding produces) with the
//! workload family it belongs to, letting controllers keep per-class
//! state, coordinators merge per-class evidence across workers, and
//! routers price a worker's per-class operating point.
//!
//! Class `0` is the **default class**: untagged traffic lands there and
//! behaves exactly as the pre-class runtime did. Classes derived from a
//! predicted exit depth ([`TrafficClass::from_exit_depth`]) use ids
//! `1..=4`, so hint-derived classes never collide with explicit default
//! traffic.

use std::fmt;

/// Number of depth bands [`TrafficClass::from_exit_depth`] buckets into.
pub const DEPTH_BANDS: u16 = 4;

/// A traffic-class identifier carried by requests and exit feedback.
///
/// Semantically opaque: the runtime only ever compares, sorts and hashes
/// it. Callers mint ids however they like (tenant, prompt domain,
/// depth band) — the one reserved value is `0`, the default class for
/// untagged traffic.
///
/// # Examples
///
/// ```
/// use specee_core::TrafficClass;
///
/// assert!(TrafficClass::DEFAULT.is_default());
/// assert_eq!(TrafficClass::new(3).id(), 3);
/// // Depth-derived classes partition [0, n_layers] into bands 1..=4.
/// let shallow = TrafficClass::from_exit_depth(3.0, 32);
/// let deep = TrafficClass::from_exit_depth(30.0, 32);
/// assert_ne!(shallow, deep);
/// assert!(!shallow.is_default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TrafficClass(u16);

impl TrafficClass {
    /// The default class untagged traffic belongs to.
    pub const DEFAULT: TrafficClass = TrafficClass(0);

    /// A class with an explicit id (`0` is [`TrafficClass::DEFAULT`]).
    pub const fn new(id: u16) -> Self {
        TrafficClass(id)
    }

    /// The raw class id.
    pub const fn id(self) -> u16 {
        self.0
    }

    /// Whether this is the default (untagged) class.
    pub const fn is_default(self) -> bool {
        self.0 == 0
    }

    /// Buckets a predicted mean exit depth (layers, as carried by e.g. a
    /// cluster request's `exit_hint`) into one of [`DEPTH_BANDS`] classes
    /// with ids `1..=DEPTH_BANDS`: band 1 is the shallowest quarter of
    /// the stack, band `DEPTH_BANDS` the deepest. Non-finite or negative
    /// depths and a zero-depth stack fall back to the deepest band (the
    /// conservative full-depth assumption routers already make).
    pub fn from_exit_depth(depth: f64, n_layers: usize) -> Self {
        if n_layers == 0 || !depth.is_finite() || depth < 0.0 {
            return TrafficClass(DEPTH_BANDS);
        }
        let frac = (depth / n_layers as f64).clamp(0.0, 1.0);
        let band = (frac * f64::from(DEPTH_BANDS)).floor() as u16;
        TrafficClass(1 + band.min(DEPTH_BANDS - 1))
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class{}", self.0)
    }
}

/// A priority lane carried by requests through admission and re-seating.
///
/// Lanes order *scheduling*, classes key *feedback*: a request's
/// [`TrafficClass`] decides which controller adapts on its tokens, while
/// its `Lane` decides who is seated first when slots or KV pages are
/// scarce and who is evicted first when the page pool runs dry. Lower
/// numeric lanes are more important; lane `0` is the default (and
/// highest) lane, so untagged traffic is never preempted in favor of
/// tagged traffic. Ties inside a lane break by request id — admission
/// and preemption order are total and deterministic.
///
/// # Examples
///
/// ```
/// use specee_core::Lane;
///
/// assert!(Lane::DEFAULT < Lane::new(1), "lower lane = higher priority");
/// assert_eq!(Lane::new(3).id(), 3);
/// assert_eq!(Lane::DEFAULT.to_string(), "lane0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lane(u8);

impl Lane {
    /// The default (highest-priority) lane untagged traffic rides in.
    pub const DEFAULT: Lane = Lane(0);

    /// A lane with an explicit priority (`0` is [`Lane::DEFAULT`]).
    pub const fn new(id: u8) -> Self {
        Lane(id)
    }

    /// The raw lane id (lower is higher priority).
    pub const fn id(self) -> u8 {
        self.0
    }

    /// Whether this is the default (highest-priority) lane.
    pub const fn is_default(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lane{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_class_zero() {
        assert_eq!(TrafficClass::default(), TrafficClass::DEFAULT);
        assert!(TrafficClass::DEFAULT.is_default());
        assert!(!TrafficClass::new(1).is_default());
        assert_eq!(format!("{}", TrafficClass::new(2)), "class2");
    }

    #[test]
    fn depth_bands_partition_the_stack() {
        let n = 32;
        // Band edges: [0, 8) -> 1, [8, 16) -> 2, [16, 24) -> 3, rest 4.
        assert_eq!(TrafficClass::from_exit_depth(0.0, n).id(), 1);
        assert_eq!(TrafficClass::from_exit_depth(7.9, n).id(), 1);
        assert_eq!(TrafficClass::from_exit_depth(8.0, n).id(), 2);
        assert_eq!(TrafficClass::from_exit_depth(16.0, n).id(), 3);
        assert_eq!(TrafficClass::from_exit_depth(24.0, n).id(), 4);
        assert_eq!(TrafficClass::from_exit_depth(32.0, n).id(), 4);
        // Depth-derived classes never collide with the default class.
        for d in 0..=n {
            assert!(!TrafficClass::from_exit_depth(d as f64, n).is_default());
        }
    }

    #[test]
    fn degenerate_depths_fall_back_to_the_deepest_band() {
        assert_eq!(TrafficClass::from_exit_depth(4.0, 0).id(), DEPTH_BANDS);
        assert_eq!(
            TrafficClass::from_exit_depth(f64::NAN, 32).id(),
            DEPTH_BANDS
        );
        assert_eq!(TrafficClass::from_exit_depth(-1.0, 32).id(), DEPTH_BANDS);
        assert_eq!(TrafficClass::from_exit_depth(1e9, 32).id(), DEPTH_BANDS);
    }

    #[test]
    fn ordering_is_by_id() {
        let mut v = [
            TrafficClass::new(3),
            TrafficClass::DEFAULT,
            TrafficClass::new(1),
        ];
        v.sort();
        assert_eq!(v.map(TrafficClass::id), [0, 1, 3]);
    }
}
