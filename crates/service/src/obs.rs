//! Service-level observability: every admission-control, retry,
//! degradation and breaker decision lands in a `csj_service_*` metric
//! and on the request's flight-recorder trace.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use csj_core::CsjMethod;
use csj_obs::{
    Counter, CounterSelector, FlightRecorder, Gauge, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, Objective, QueryTrace, SloSource,
};

use crate::breaker::{BreakerState, Transition};
use crate::request::Fate;

/// The service's standard SLOs, declared over its own `csj_service_*`
/// series so an [`csj_obs::SloEngine`] fed with
/// [`CsjService::metrics_snapshot`](crate::CsjService::metrics_snapshot)
/// can evaluate burn rates without any extra instrumentation:
///
/// * `request_latency` — ≤1% of requests slower than
///   `latency_threshold_us` (p99 end-to-end latency objective);
/// * `degraded_fraction` — ≤10% of completed requests served degraded;
/// * `shed_fraction` — ≤5% of submitted requests shed at admission.
///
/// The fractions reconcile with the four-fates identities by
/// construction: `degraded_fraction` draws from the same
/// `csj_service_completed_total` family whose outcomes partition
/// admitted-and-resolved requests, and `shed_fraction` is
/// `shed / submitted` with `submitted == admitted + shed`.
pub fn service_slos(latency_threshold_us: u64) -> Vec<Objective> {
    vec![
        Objective {
            name: "request_latency".into(),
            target: 0.01,
            source: SloSource::LatencyAbove {
                histogram: "csj_service_request_seconds".into(),
                labels: vec![],
                threshold_us: latency_threshold_us,
            },
        },
        Objective {
            name: "degraded_fraction".into(),
            target: 0.10,
            source: SloSource::CounterFraction {
                bad: CounterSelector::new(
                    "csj_service_completed_total",
                    &[("outcome", "degraded")],
                ),
                total: CounterSelector::new("csj_service_completed_total", &[]),
            },
        },
        Objective {
            name: "shed_fraction".into(),
            target: 0.05,
            source: SloSource::CounterFraction {
                bad: CounterSelector::new("csj_service_shed_total", &[]),
                total: CounterSelector::new("csj_service_submitted_total", &[]),
            },
        },
    ]
}

/// Degradation triggers (metrics label values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeTrigger {
    /// The primary method's breaker was open.
    Breaker,
    /// Not enough deadline left for an exact attempt (or the exact
    /// attempt exhausted its budget slice).
    Deadline,
    /// A multi-pair query lost one or more shards: the answer is exact on
    /// what survived but its candidate coverage is incomplete.
    Coverage,
}

impl DegradeTrigger {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            DegradeTrigger::Breaker => "breaker",
            DegradeTrigger::Deadline => "deadline",
            DegradeTrigger::Coverage => "coverage",
        }
    }
}

/// Registry + flight recorder for the service layer. Engine metrics
/// stay in the engine's own registry; [`ServiceObs::snapshot`] output
/// is concatenated with the engine snapshot by the service.
pub struct ServiceObs {
    registry: MetricsRegistry,
    flight: FlightRecorder,
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    completed_answered: Arc<Counter>,
    completed_degraded: Arc<Counter>,
    completed_failed: Arc<Counter>,
    retries: Arc<Counter>,
    degraded_breaker: Arc<Counter>,
    degraded_deadline: Arc<Counter>,
    degraded_coverage: Arc<Counter>,
    transitions: HashMap<(&'static str, &'static str), Arc<Counter>>,
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    queue_wait: Arc<LatencyHistogram>,
    request_latency: Arc<LatencyHistogram>,
}

impl ServiceObs {
    /// Register every service metric; `flight_capacity` bounds the
    /// request-trace ring.
    pub fn new(flight_capacity: usize) -> Self {
        let registry = MetricsRegistry::new();
        let submitted = registry.counter(
            "csj_service_submitted_total",
            "Requests submitted to the service (admitted + shed).",
            vec![],
        );
        let admitted = registry.counter(
            "csj_service_admitted_total",
            "Requests accepted into the admission queue.",
            vec![],
        );
        let shed = registry.counter(
            "csj_service_shed_total",
            "Requests rejected at admission because the queue was full.",
            vec![],
        );
        let completed = |outcome: &'static str| {
            registry.counter(
                "csj_service_completed_total",
                "Admitted requests resolved, by outcome.",
                vec![("outcome", outcome.to_string())],
            )
        };
        let retries = registry.counter(
            "csj_service_retries_total",
            "Transient-failure retries performed (backoff sleeps).",
            vec![],
        );
        let degraded = |trigger: DegradeTrigger| {
            registry.counter(
                "csj_service_degraded_total",
                "Exact requests served by their approximate counterpart, by trigger.",
                vec![("trigger", trigger.label().to_string())],
            )
        };
        let mut transitions = HashMap::new();
        for method in CsjMethod::ALL.into_iter().filter(|m| m.is_exact()) {
            for to in [
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed,
            ] {
                transitions.insert(
                    (method.name(), to.label()),
                    registry.counter(
                        "csj_service_breaker_transitions_total",
                        "Circuit-breaker state transitions, by method and target state.",
                        vec![
                            ("method", method.name().to_string()),
                            ("to", to.label().to_string()),
                        ],
                    ),
                );
            }
        }
        let queue_depth = registry.gauge(
            "csj_service_queue_depth",
            "Requests currently waiting in the admission queue.",
            vec![],
        );
        let inflight = registry.gauge(
            "csj_service_inflight",
            "Requests currently executing on workers.",
            vec![],
        );
        let queue_wait = registry.latency(
            "csj_service_queue_wait_seconds",
            "Time requests spent queued before a worker picked them up.",
            vec![],
        );
        let request_latency = registry.latency(
            "csj_service_request_seconds",
            "End-to-end request latency (queue wait + execution).",
            vec![],
        );
        let completed_answered = completed("answered");
        let completed_degraded = completed("degraded");
        let completed_failed = completed("failed");
        let degraded_breaker = degraded(DegradeTrigger::Breaker);
        let degraded_deadline = degraded(DegradeTrigger::Deadline);
        let degraded_coverage = degraded(DegradeTrigger::Coverage);
        Self {
            registry,
            flight: FlightRecorder::new(flight_capacity),
            submitted,
            admitted,
            shed,
            completed_answered,
            completed_degraded,
            completed_failed,
            retries,
            degraded_breaker,
            degraded_deadline,
            degraded_coverage,
            transitions,
            queue_depth,
            inflight,
            queue_wait,
            request_latency,
        }
    }

    pub(crate) fn on_submitted(&self) {
        self.submitted.inc();
    }

    pub(crate) fn on_admitted(&self, depth: usize) {
        self.admitted.inc();
        self.queue_depth.set(depth as u64);
    }

    pub(crate) fn on_shed(&self) {
        self.shed.inc();
    }

    pub(crate) fn on_dequeued(&self, depth: usize, wait: Duration) {
        self.queue_depth.set(depth as u64);
        self.queue_wait.observe(wait);
    }

    pub(crate) fn on_inflight(&self, n: u64) {
        self.inflight.set(n);
    }

    pub(crate) fn on_retry(&self) {
        self.retries.inc();
    }

    pub(crate) fn on_degraded(&self, trigger: DegradeTrigger) {
        match trigger {
            DegradeTrigger::Breaker => self.degraded_breaker.inc(),
            DegradeTrigger::Deadline => self.degraded_deadline.inc(),
            DegradeTrigger::Coverage => self.degraded_coverage.inc(),
        }
    }

    pub(crate) fn on_transition(&self, t: Transition) {
        if let Some(c) = self.transitions.get(&(t.method.name(), t.to.label())) {
            c.inc();
        }
    }

    pub(crate) fn on_completed(&self, fate: Fate, latency: Duration) {
        self.request_latency.observe(latency);
        match fate {
            Fate::Answered => self.completed_answered.inc(),
            Fate::Degraded => self.completed_degraded.inc(),
            Fate::Failed => self.completed_failed.inc(),
            // Shed requests never complete; counted by `on_shed`.
            Fate::Shed => {}
        }
    }

    pub(crate) fn record_trace(&self, trace: QueryTrace) {
        self.flight.record(trace);
    }

    /// The most recent `n` service request traces, oldest first.
    pub fn traces(&self, n: usize) -> Vec<QueryTrace> {
        self.flight.last(n)
    }

    /// Snapshot of every `csj_service_*` series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_decision_has_a_series() {
        let obs = ServiceObs::new(8);
        obs.on_submitted();
        obs.on_admitted(1);
        obs.on_shed();
        obs.on_retry();
        obs.on_degraded(DegradeTrigger::Breaker);
        obs.on_degraded(DegradeTrigger::Deadline);
        obs.on_degraded(DegradeTrigger::Coverage);
        obs.on_transition(Transition {
            method: CsjMethod::ExMinMax,
            to: BreakerState::Open,
        });
        obs.on_dequeued(0, Duration::from_micros(50));
        obs.on_completed(Fate::Answered, Duration::from_micros(200));
        let snap = obs.snapshot();
        assert_eq!(snap.counter_value("csj_service_submitted_total", &[]), 1);
        assert_eq!(snap.counter_value("csj_service_shed_total", &[]), 1);
        assert_eq!(
            snap.counter_value("csj_service_degraded_total", &[("trigger", "breaker")]),
            1
        );
        assert_eq!(
            snap.counter_value("csj_service_degraded_total", &[("trigger", "coverage")]),
            1
        );
        assert_eq!(
            snap.counter_value(
                "csj_service_breaker_transitions_total",
                &[("method", "ex-minmax"), ("to", "open")]
            ),
            1
        );
        assert_eq!(
            snap.counter_value("csj_service_completed_total", &[("outcome", "answered")]),
            1
        );
        // The exposition must lint clean (HELP/TYPE, histogram shape).
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE csj_service_queue_wait_seconds histogram"));
        assert!(prom.contains("csj_service_request_seconds_bucket{le=\"+Inf\"}"));
    }

    #[test]
    fn ap_methods_have_no_breaker_series() {
        let obs = ServiceObs::new(1);
        // Recording a transition for an Ap method is a no-op, not a panic.
        obs.on_transition(Transition {
            method: CsjMethod::ApMinMax,
            to: BreakerState::Open,
        });
        assert_eq!(
            obs.snapshot()
                .find(
                    "csj_service_breaker_transitions_total",
                    &[("method", "ap-minmax")]
                )
                .map(|_| ()),
            None
        );
    }
}
