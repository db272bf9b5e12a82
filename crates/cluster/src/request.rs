//! Cluster-level requests: a serving request plus routing metadata.

use specee_core::{Lane, TrafficClass};
use specee_serve::ServeRequest;

/// One request entering the cluster's shared admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRequest {
    /// The underlying serving request (id, prompt, decode length,
    /// arrival time). Ids must be unique across a run; submissions must
    /// be ordered by arrival time.
    pub request: ServeRequest,
    /// Explicit traffic class, when the caller tags one (tenant, prompt
    /// domain, …). When absent, the class is derived from `exit_hint` at
    /// admission ([`ClusterRequest::traffic_class`]); hint-less,
    /// class-less requests land in [`TrafficClass::DEFAULT`].
    pub class: Option<TrafficClass>,
    /// Predicted mean exit depth in layers, when the caller has one —
    /// e.g. the expected exit of the trained predictor schedule on this
    /// request's traffic class. Consumed by the exit-aware router;
    /// `None` is treated as full depth.
    pub exit_hint: Option<f64>,
    /// Absolute simulated-time admission deadline, seconds. A request
    /// still queued when its worker's clock passes the deadline is
    /// cancelled instead of decoded and reported in
    /// [`crate::WorkerReport::timed_out`]. `None` waits forever.
    pub deadline_s: Option<f64>,
    /// Priority lane (lower id = higher priority; defaults to
    /// [`Lane::DEFAULT`]). Workers admit the best lane present first and,
    /// when preemption is enabled, a higher-priority arrival may evict a
    /// strictly lower-priority resident under page pressure.
    pub lane: Lane,
}

/// The serving loop reads the wrapped request; the routing metadata rides
/// along to the sequence factory.
impl AsRef<ServeRequest> for ClusterRequest {
    fn as_ref(&self) -> &ServeRequest {
        &self.request
    }
}

impl ClusterRequest {
    /// Wraps a serving request with no class, no hint and no deadline.
    pub fn new(request: ServeRequest) -> Self {
        ClusterRequest {
            request,
            class: None,
            exit_hint: None,
            deadline_s: None,
            lane: Lane::DEFAULT,
        }
    }

    /// Sets an explicit traffic class (overrides hint derivation).
    pub fn with_class(mut self, class: TrafficClass) -> Self {
        self.class = Some(class);
        self
    }

    /// The traffic class this request is admitted under on an
    /// `n_layers`-deep deployment: the explicit class when tagged,
    /// otherwise the exit hint's depth band
    /// ([`TrafficClass::from_exit_depth`]), otherwise the default class.
    /// Workers and routers call this with the same `n_layers`, so both
    /// ends of the feedback plane agree on the key.
    pub fn traffic_class(&self, n_layers: usize) -> TrafficClass {
        if let Some(class) = self.class {
            return class;
        }
        match self.exit_hint {
            Some(hint) => TrafficClass::from_exit_depth(hint, n_layers),
            None => TrafficClass::DEFAULT,
        }
    }

    /// Sets the predicted exit depth, layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is not finite — a NaN hint (e.g. from a `0/0`
    /// calibration) would otherwise poison every router score comparison.
    pub fn with_exit_hint(mut self, layers: f64) -> Self {
        assert!(layers.is_finite(), "exit hint must be finite");
        self.exit_hint = Some(layers);
        self
    }

    /// Sets the absolute admission deadline, seconds.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Sets the priority lane (lower id = higher priority).
    pub fn with_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> ClusterRequest {
        ClusterRequest::new(ServeRequest {
            id: 0,
            prompt: vec![1, 2],
            gen_len: 4,
            arrival_s: 0.0,
        })
    }

    #[test]
    fn class_resolution_prefers_explicit_then_hint_then_default() {
        assert!(req().traffic_class(32).is_default(), "no hint, no class");
        let hinted = req().with_exit_hint(3.0);
        assert_eq!(
            hinted.traffic_class(32),
            TrafficClass::from_exit_depth(3.0, 32)
        );
        let tagged = req().with_exit_hint(3.0).with_class(TrafficClass::new(9));
        assert_eq!(tagged.traffic_class(32), TrafficClass::new(9));
    }

    #[test]
    fn lane_defaults_and_builds() {
        assert!(req().lane.is_default());
        assert_eq!(req().with_lane(Lane::new(3)).lane, Lane::new(3));
    }
}
