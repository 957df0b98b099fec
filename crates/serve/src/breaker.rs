//! Per-endpoint circuit breakers: fast-shed around misbehaving detectors.
//!
//! A detector that fails every batch (a corrupted model artifact, a
//! contract-violating implementation, a poisoned feature pipeline) would
//! otherwise keep receiving rows, keep burning a drain per tile, and keep
//! fanning errors to every ticket — while, in a sharded fleet, the
//! least-loaded router happily routes *more* traffic at it because its tile
//! is always empty. The breaker is the standard three-state supervisor
//! around each serving unit:
//!
//! ```text
//!            consecutive failed drains >= failure_threshold
//!   Closed ─────────────────────────────────────────────────▶ Open
//!     ▲                                                        │
//!     │ probe drain succeeds                 cooldown elapses   │
//!     └───────────────────── HalfOpen ◀───────────────────────┘
//!                             │    ▲
//!                             └────┘ probe drain fails → Open again
//! ```
//!
//! * **Closed** — healthy; failed drains are counted, any successful drain
//!   resets the count.
//! * **Open** — shedding; every request is refused immediately (no tile, no
//!   drain, no memory) until the cooldown elapses. What "refused" means is
//!   the [`FallbackPolicy`]: hard rejection with
//!   [`crate::FleetError::CircuitOpen`], or graceful degradation to a
//!   synthetic *escalate* report — the paper's rejection semantics applied
//!   to infrastructure uncertainty: when the system cannot trust its own
//!   scoring path, the honest output is "escalate to an analyst", not a
//!   guessed label.
//! * **HalfOpen** — one probe request is admitted; its drain outcome closes
//!   the breaker or re-opens it for another cooldown. While the probe is in
//!   flight every other request keeps shedding.
//!
//! State transitions are driven by drain outcomes and request arrivals —
//! there is no timer thread. Concurrent tiles can race a transition (a tile
//! admitted while Closed may drain while Open); such stale outcomes only
//! feed the same consecutive-failure accounting and cannot wedge the state
//! machine.

use crate::deadline_after;
use crate::sync::LockExt;
use hmd_core::estimator::UncertainPrediction;
use hmd_core::trusted::{Decision, DetectionReport};
use hmd_data::Label;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What an endpoint serves while its breaker is shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FallbackPolicy {
    /// Refuse the request with [`crate::FleetError::CircuitOpen`]. The
    /// caller sees the outage and applies its own fallback.
    Reject,
    /// Serve a synthetic degraded report ([`degraded_escalation`]):
    /// `Decision::Escalate` with infinite entropy and zero estimators — the
    /// detector's own "too uncertain to act" output, extended to the case
    /// where the *serving path* is what cannot be trusted. Degraded rows are
    /// counted in [`crate::HealthSnapshot::degraded_rows`] and never touch
    /// the endpoint's monitor statistics.
    EscalateUncertain,
}

/// Circuit-breaker configuration of one endpoint (one replica in a sharded
/// fleet — each replica is supervised independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failed drains that trip the breaker (clamped to at least
    /// 1 by [`BreakerPolicy::new`]).
    pub failure_threshold: usize,
    /// How long the breaker stays Open before admitting a half-open probe.
    /// `Duration::ZERO` makes recovery attempts immediate — useful for
    /// deterministic tests. A cooldown too large to represent as a deadline
    /// (such as `Duration::MAX`) never elapses: a tripped breaker stays
    /// Open.
    pub cooldown: Duration,
    /// What shedding looks like to callers.
    pub fallback: FallbackPolicy,
}

impl BreakerPolicy {
    /// A breaker tripping after `failure_threshold` consecutive failed
    /// drains, cooling down for `cooldown`, rejecting while Open.
    pub fn new(failure_threshold: usize, cooldown: Duration) -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: failure_threshold.max(1),
            cooldown,
            fallback: FallbackPolicy::Reject,
        }
    }

    /// Sets the shedding behaviour.
    #[must_use]
    pub fn with_fallback(mut self, fallback: FallbackPolicy) -> BreakerPolicy {
        self.fallback = fallback;
        self
    }

    /// A breaker that never trips (`failure_threshold == usize::MAX`) —
    /// the pre-supervision behaviour.
    pub fn disabled() -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: usize::MAX,
            cooldown: Duration::ZERO,
            fallback: FallbackPolicy::Reject,
        }
    }
}

impl Default for BreakerPolicy {
    /// Trip after 5 consecutive failed drains, cool down 250 ms, reject
    /// while Open.
    fn default() -> BreakerPolicy {
        BreakerPolicy::new(5, Duration::from_millis(250))
    }
}

/// Observable breaker state of one endpoint/replica.
///
/// `Open` is reported until a request actually transitions the breaker to
/// its half-open probe — the stored state, not a clock read — so a tripped
/// breaker with an elapsed cooldown still reads `Open` until traffic
/// arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BreakerState {
    /// Healthy: requests are admitted, failures are counted.
    #[default]
    Closed,
    /// Shedding: requests are refused (or degraded) until the cooldown
    /// elapses and a probe is admitted.
    Open,
    /// Probing: one request is in flight to decide recovery.
    HalfOpen,
}

/// Whether `enqueue` may admit a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Admit the request (possibly as the half-open probe).
    Admit,
    /// Shed per the [`FallbackPolicy`].
    Shed,
}

/// The breaker's state; `Open::until` is `None` when the cooldown never
/// elapses.
enum Inner {
    Closed { failures: usize },
    Open { until: Option<Instant> },
    HalfOpen { probing: bool },
}

/// The per-endpoint state machine. Internal: fleets expose it through
/// [`BreakerState`] snapshots and [`crate::HealthSnapshot`].
pub(crate) struct Breaker {
    policy: BreakerPolicy,
    inner: Mutex<Inner>,
}

impl Breaker {
    pub(crate) fn new(policy: BreakerPolicy) -> Breaker {
        Breaker {
            policy,
            inner: Mutex::new(Inner::Closed { failures: 0 }),
        }
    }

    pub(crate) fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Gate for one arriving request. Transitions Open → HalfOpen when the
    /// cooldown has elapsed (the arriving request becomes the probe).
    pub(crate) fn admit(&self, now: Instant) -> Admission {
        let mut inner = self.inner.lock_unpoisoned();
        match *inner {
            Inner::Closed { .. } => Admission::Admit,
            Inner::Open { until } => {
                if until.is_some_and(|until| now >= until) {
                    *inner = Inner::HalfOpen { probing: true };
                    Admission::Admit
                } else {
                    Admission::Shed
                }
            }
            Inner::HalfOpen { probing: false } => {
                *inner = Inner::HalfOpen { probing: true };
                Admission::Admit
            }
            Inner::HalfOpen { probing: true } => Admission::Shed,
        }
    }

    /// Records one drain outcome; returns `true` when this call tripped the
    /// breaker (Closed/HalfOpen → Open).
    pub(crate) fn record(&self, ok: bool, now: Instant) -> bool {
        let mut inner = self.inner.lock_unpoisoned();
        if ok {
            match *inner {
                // Reset the consecutive-failure count / close after a
                // successful probe.
                Inner::Closed { .. } | Inner::HalfOpen { .. } => {
                    *inner = Inner::Closed { failures: 0 };
                }
                // A success from a tile admitted before the trip must not
                // short-circuit the cooldown.
                Inner::Open { .. } => {}
            }
            return false;
        }
        match *inner {
            Inner::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.policy.failure_threshold {
                    *inner = Inner::Open {
                        until: deadline_after(now, self.policy.cooldown),
                    };
                    true
                } else {
                    *inner = Inner::Closed { failures };
                    false
                }
            }
            // A failed probe re-opens for another full cooldown.
            Inner::HalfOpen { .. } => {
                *inner = Inner::Open {
                    until: deadline_after(now, self.policy.cooldown),
                };
                true
            }
            Inner::Open { .. } => false,
        }
    }

    /// Whether a request arriving at `now` would be shed — the time-aware
    /// routing signal: an Open breaker whose cooldown has elapsed is *not*
    /// shedding (it wants a probe), a half-open breaker with its probe in
    /// flight is.
    pub(crate) fn would_shed(&self, now: Instant) -> bool {
        match *self.inner.lock_unpoisoned() {
            Inner::Closed { .. } => false,
            Inner::Open { until } => until.is_none_or(|until| now < until),
            Inner::HalfOpen { probing } => probing,
        }
    }

    /// The stored state, for dashboards and tests.
    pub(crate) fn state(&self) -> BreakerState {
        match *self.inner.lock_unpoisoned() {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { .. } => BreakerState::Open,
            Inner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }
}

/// The synthetic report served under [`FallbackPolicy::EscalateUncertain`]:
/// an escalation with **infinite entropy** and zero estimators, so degraded
/// results are unmistakably distinguishable from anything a real ensemble
/// can produce (a real vote distribution's entropy is at most 1 bit).
pub fn degraded_escalation() -> DetectionReport {
    DetectionReport {
        prediction: UncertainPrediction {
            // Fail-safe posture: if anyone ignores the escalation and reads
            // the label anyway, they read the conservative class.
            label: Label::Malware,
            malware_vote_fraction: 0.5,
            entropy: f64::INFINITY,
            num_estimators: 0,
        },
        decision: Decision::Escalate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn trips_after_consecutive_failures_and_successes_reset() {
        let breaker = Breaker::new(BreakerPolicy::new(3, Duration::from_secs(60)));
        assert!(!breaker.record(false, now()));
        assert!(!breaker.record(false, now()));
        assert!(!breaker.record(true, now()), "success resets the count");
        assert!(!breaker.record(false, now()));
        assert!(!breaker.record(false, now()));
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(
            breaker.record(false, now()),
            "third consecutive failure trips"
        );
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(now()), Admission::Shed);
        assert!(breaker.would_shed(now()));
    }

    #[test]
    fn half_open_admits_one_probe_then_sheds() {
        let breaker = Breaker::new(BreakerPolicy::new(1, Duration::ZERO));
        assert!(breaker.record(false, now()));
        // Zero cooldown: the next arrival probes immediately...
        assert_eq!(breaker.admit(now()), Admission::Admit);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // ...and siblings shed while the probe is in flight.
        assert_eq!(breaker.admit(now()), Admission::Shed);
        assert!(breaker.would_shed(now()));
        // Probe succeeds: closed again.
        assert!(!breaker.record(true, now()));
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let breaker = Breaker::new(BreakerPolicy::new(1, Duration::from_secs(60)));
        let trip = now();
        assert!(breaker.record(false, trip));
        assert_eq!(breaker.admit(trip), Admission::Shed, "cooldown not elapsed");
        // Pretend the cooldown elapsed by probing with a far-future clock.
        let later = trip + Duration::from_secs(120);
        assert_eq!(breaker.admit(later), Admission::Admit);
        assert!(breaker.record(false, later), "failed probe re-trips");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(later), Admission::Shed);
    }

    #[test]
    fn stale_successes_do_not_close_an_open_breaker() {
        let breaker = Breaker::new(BreakerPolicy::new(1, Duration::from_secs(60)));
        let trip = now();
        assert!(breaker.record(false, trip));
        assert!(!breaker.record(true, trip), "pre-trip tile draining late");
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn degraded_report_is_unmistakable() {
        let report = degraded_escalation();
        assert!(report.decision.is_escalation());
        assert!(report.prediction.entropy.is_infinite());
        assert_eq!(report.prediction.num_estimators, 0);
    }

    /// A cooldown too large to represent never elapses. The reopen
    /// deadline is computed inside the drain, so an overflow panic there
    /// would take the draining thread (possibly the background flusher)
    /// down with it.
    #[test]
    fn unrepresentable_cooldown_keeps_the_breaker_open() {
        let breaker = Breaker::new(BreakerPolicy::new(1, Duration::MAX));
        assert!(breaker.record(false, now()), "the failure trips");
        assert_eq!(breaker.state(), BreakerState::Open);
        let much_later = now() + Duration::from_secs(3600 * 24 * 365);
        assert_eq!(breaker.admit(much_later), Admission::Shed);
        assert!(breaker.would_shed(much_later));
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let breaker = Breaker::new(BreakerPolicy::disabled());
        for _ in 0..1000 {
            assert!(!breaker.record(false, now()));
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
}
