//! Deterministic fault injection for serving-layer chaos tests.
//!
//! Robustness claims ("breakers trip and recover", "shedding bounds
//! memory", "surviving rows stay bit-identical") are only testable if
//! faults arrive on a schedule the test controls. [`FaultInjector`] wraps
//! any [`Detector`] and misbehaves according to a [`FaultPlan`] keyed on
//! the **batch-call number** — the 1-based count of `detect_rows`
//! invocations on that wrapper — so a seeded test knows exactly which
//! drain fails, which one stalls, and which one returns a short report
//! vector. No randomness, no wall-clock coupling: the same plan against
//! the same request schedule injects the same faults every run.
//!
//! One plan carries two fault vocabularies read by different layers:
//! detector faults (fail/slow/corrupt, keyed on `detect_rows` call
//! numbers) interpreted by [`FaultInjector`], and **transport faults**
//! (dropped connection, slow reader, truncated frame, garbage frame, keyed
//! on per-connection frame numbers) interpreted by the wire server's
//! fault-injecting stream wrapper in [`crate::net`]. Each interpreter
//! ignores the other's schedule, so a chaos test can hand the same plan to
//! both layers and reason about one deterministic timeline.
//!
//! The injector deliberately does **not** implement persistence
//! (`to_saved_json` stays `None`): a fault plan is test scaffolding, not a
//! model, and must never survive a save/load round trip. A fleet never
//! serialises what it deploys, so the injector deploys into a
//! [`crate::ShardedFleet`] as is. Through plain
//! [`ShardedFleet::deploy`](crate::ShardedFleet::deploy) one injector is
//! shared by every replica, so its call-numbered plan counts `detect_rows`
//! calls across all of them;
//! [`ShardedFleet::deploy_replicas`](crate::ShardedFleet::deploy_replicas)
//! gives each replica its own injector and plan.

use hmd_core::detector::Detector;
use hmd_core::trusted::DetectionReport;
use hmd_data::RowsView;
use hmd_ml::MlError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic schedule of detector misbehaviour, keyed on the 1-based
/// `detect_rows` call number of the [`FaultInjector`] that carries it.
///
/// Faults compose per call in a fixed order: a slow-call delay (if any)
/// happens first, then a scheduled failure wins over width corruption. An
/// empty plan injects nothing and the wrapper is a transparent proxy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    fail_calls: Vec<u64>,
    fail_from: Option<u64>,
    slow_calls: Vec<(u64, Duration)>,
    corrupt_calls: Vec<u64>,
    drop_reads: Vec<u64>,
    slow_reads: Vec<(u64, Duration)>,
    truncate_writes: Vec<u64>,
    garbage_writes: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan: the injector proxies every call untouched.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fails batch call `call` (1-based) with an injected
    /// [`MlError::ContractViolation`].
    #[must_use]
    pub fn fail_call(mut self, call: u64) -> FaultPlan {
        self.fail_calls.push(call);
        self
    }

    /// Fails **every** batch call numbered `call` or later — a detector that
    /// breaks at a known point and stays broken until redeployed (or until
    /// the test swaps the plan out by deploying a clean detector).
    #[must_use]
    pub fn fail_after(mut self, call: u64) -> FaultPlan {
        self.fail_from = Some(match self.fail_from {
            Some(existing) => existing.min(call),
            None => call,
        });
        self
    }

    /// Delays batch call `call` (1-based) by `latency` before scoring — a
    /// stalled model run that backs its endpoint's tile up.
    #[must_use]
    pub fn slow_call(mut self, call: u64, latency: Duration) -> FaultPlan {
        self.slow_calls.push((call, latency));
        self
    }

    /// Makes batch call `call` (1-based) return one report **fewer** than
    /// the view has rows — the report-count contract violation a buggy
    /// detector implementation would commit. The serving layer must fail
    /// the whole batch rather than panic or misalign tickets.
    #[must_use]
    pub fn corrupt_width(mut self, call: u64) -> FaultPlan {
        self.corrupt_calls.push(call);
        self
    }

    /// Drops the connection instead of serving **request frame** `frame`
    /// (1-based, counted per connection): the peer sees its write or the
    /// response read fail mid-conversation — the transport fault a crashed
    /// or restarted server produces.
    ///
    /// Transport faults are interpreted by the server's fault-injecting
    /// stream wrapper (`hmd_serve::net`), not by [`FaultInjector`]; one
    /// plan can carry both vocabularies and each layer reads only its own.
    #[must_use]
    pub fn drop_connection(mut self, frame: u64) -> FaultPlan {
        self.drop_reads.push(frame);
        self
    }

    /// Stalls for `delay` before reading request frame `frame` (1-based,
    /// per connection) — a slow reader that backs the peer's writes up and
    /// exercises client-side read timeouts without killing the connection.
    #[must_use]
    pub fn slow_reader(mut self, frame: u64, delay: Duration) -> FaultPlan {
        self.slow_reads.push((frame, delay));
        self
    }

    /// Truncates **response frame** `frame` (1-based, per connection):
    /// writes roughly half the frame's bytes, then drops the connection.
    /// The peer reads a header that promises more payload than ever
    /// arrives — the mid-frame cut of a crashing sender.
    #[must_use]
    pub fn truncate_frame(mut self, frame: u64) -> FaultPlan {
        self.truncate_writes.push(frame);
        self
    }

    /// Corrupts response frame `frame` (1-based, per connection): the full
    /// frame is written but its magic bytes are garbage, so the peer's
    /// framing layer must reject the stream as desynchronised rather than
    /// misparse it.
    #[must_use]
    pub fn garbage_frame(mut self, frame: u64) -> FaultPlan {
        self.garbage_writes.push(frame);
        self
    }

    /// True if the plan schedules any transport fault (as opposed to the
    /// detector faults [`FaultInjector`] interprets).
    pub fn has_transport_faults(&self) -> bool {
        !self.drop_reads.is_empty()
            || !self.slow_reads.is_empty()
            || !self.truncate_writes.is_empty()
            || !self.garbage_writes.is_empty()
    }

    pub(crate) fn drops_read(&self, frame: u64) -> bool {
        self.drop_reads.contains(&frame)
    }

    pub(crate) fn read_delay(&self, frame: u64) -> Option<Duration> {
        self.slow_reads
            .iter()
            .find(|(slow, _)| *slow == frame)
            .map(|(_, delay)| *delay)
    }

    pub(crate) fn truncates_write(&self, frame: u64) -> bool {
        self.truncate_writes.contains(&frame)
    }

    pub(crate) fn garbles_write(&self, frame: u64) -> bool {
        self.garbage_writes.contains(&frame)
    }

    fn fails(&self, call: u64) -> bool {
        self.fail_calls.contains(&call) || self.fail_from.is_some_and(|from| call >= from)
    }

    fn delay(&self, call: u64) -> Option<Duration> {
        self.slow_calls
            .iter()
            .find(|(slow, _)| *slow == call)
            .map(|(_, latency)| *latency)
    }

    fn corrupts(&self, call: u64) -> bool {
        self.corrupt_calls.contains(&call)
    }
}

struct Counters {
    calls: AtomicU64,
    injected: AtomicU64,
}

/// A cloneable observation handle on a [`FaultInjector`]'s counters, so a
/// test keeps visibility after the injector itself is boxed and deployed
/// into a fleet.
#[derive(Clone)]
pub struct FaultCounters {
    counters: Arc<Counters>,
}

impl FaultCounters {
    /// Total `detect_rows` calls the injector has seen (faulted or clean).
    pub fn calls(&self) -> u64 {
        self.counters.calls.load(Ordering::SeqCst)
    }

    /// How many of those calls had a fault injected (failure, delay, or
    /// width corruption — a delayed call that then fails counts once).
    pub fn injected(&self) -> u64 {
        self.counters.injected.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for FaultCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCounters")
            .field("calls", &self.calls())
            .field("injected", &self.injected())
            .finish()
    }
}

/// A [`Detector`] wrapper that injects the faults its [`FaultPlan`]
/// schedules and proxies everything else to the wrapped detector.
///
/// Clean calls are bit-transparent: the inner detector's reports pass
/// through untouched, which is what lets chaos tests assert surviving rows
/// bit-identical to direct scoring.
pub struct FaultInjector {
    inner: Box<dyn Detector>,
    plan: FaultPlan,
    counters: Arc<Counters>,
}

impl FaultInjector {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: Box<dyn Detector>, plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            inner,
            plan,
            counters: Arc::new(Counters {
                calls: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// An observation handle that stays valid after the injector is boxed
    /// and deployed.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            counters: Arc::clone(&self.counters),
        }
    }
}

impl Detector for FaultInjector {
    fn name(&self) -> String {
        format!("faulty[{}]", self.inner.name())
    }

    fn entropy_threshold(&self) -> f64 {
        self.inner.entropy_threshold()
    }

    fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
        let call = self.counters.calls.fetch_add(1, Ordering::SeqCst) + 1;
        let mut faulted = false;
        if let Some(latency) = self.plan.delay(call) {
            faulted = true;
            std::thread::sleep(latency);
        }
        let result = if self.plan.fails(call) {
            faulted = true;
            Err(MlError::ContractViolation {
                message: format!("injected fault on batch call {call}"),
            })
        } else if self.plan.corrupts(call) {
            faulted = true;
            self.inner.detect_rows(batch).map(|mut reports| {
                reports.pop();
                reports
            })
        } else {
            self.inner.detect_rows(batch)
        };
        if faulted {
            self.counters.injected.fetch_add(1, Ordering::SeqCst);
        }
        result
    }

    // No `to_saved_json` override: the default `None` is deliberate — a
    // fault plan must not survive persistence. Fleets never serialise a
    // deployed detector, so the injector still deploys on any replica
    // count: shared by every replica through `deploy`, or one per replica
    // through `deploy_replicas`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_data::Matrix;

    /// A minimal healthy detector: everything benign, fixed threshold.
    struct Stub;

    impl Detector for Stub {
        fn name(&self) -> String {
            "stub".into()
        }

        fn entropy_threshold(&self) -> f64 {
            0.5
        }

        fn detect_rows(&self, batch: RowsView<'_>) -> Result<Vec<DetectionReport>, MlError> {
            use hmd_core::estimator::UncertainPrediction;
            use hmd_core::trusted::Decision;
            use hmd_data::Label;
            Ok((0..batch.rows())
                .map(|_| DetectionReport {
                    prediction: UncertainPrediction {
                        label: Label::Benign,
                        malware_vote_fraction: 0.0,
                        entropy: 0.0,
                        num_estimators: 1,
                    },
                    decision: Decision::Accept(Label::Benign),
                })
                .collect())
        }
    }

    fn rows(n: usize) -> Matrix {
        Matrix::from_vec(n, 2, vec![0.0; n * 2]).expect("valid shape")
    }

    #[test]
    fn empty_plans_proxy_transparently() {
        let injector = FaultInjector::new(Box::new(Stub), FaultPlan::new());
        let counters = injector.counters();
        assert!(injector.name().starts_with("faulty[stub"));
        assert_eq!(injector.entropy_threshold(), 0.5);
        let reports = injector.detect_rows(rows(3).view()).expect("clean call");
        assert_eq!(reports.len(), 3);
        assert_eq!((counters.calls(), counters.injected()), (1, 0));
        assert!(injector.to_saved_json().is_none(), "never persistable");
    }

    #[test]
    fn fail_call_hits_exactly_the_scheduled_call() {
        let injector = FaultInjector::new(Box::new(Stub), FaultPlan::new().fail_call(2));
        assert!(injector.detect_rows(rows(1).view()).is_ok());
        let err = injector.detect_rows(rows(1).view()).unwrap_err();
        assert!(matches!(err, MlError::ContractViolation { .. }));
        assert!(injector.detect_rows(rows(1).view()).is_ok());
        assert_eq!(injector.counters().injected(), 1);
    }

    #[test]
    fn fail_after_is_sticky_and_keeps_the_earliest_onset() {
        let injector =
            FaultInjector::new(Box::new(Stub), FaultPlan::new().fail_after(5).fail_after(2));
        assert!(injector.detect_rows(rows(1).view()).is_ok());
        for _ in 0..4 {
            assert!(injector.detect_rows(rows(1).view()).is_err());
        }
        assert_eq!(injector.counters().injected(), 4);
    }

    #[test]
    fn corrupt_width_drops_exactly_one_report() {
        let injector = FaultInjector::new(Box::new(Stub), FaultPlan::new().corrupt_width(1));
        let short = injector.detect_rows(rows(4).view()).expect("still Ok");
        assert_eq!(short.len(), 3, "one report short of the 4 rows");
        let clean = injector.detect_rows(rows(4).view()).expect("clean call");
        assert_eq!(clean.len(), 4);
    }

    #[test]
    fn transport_faults_live_beside_detector_faults() {
        let plan = FaultPlan::new()
            .fail_call(1)
            .drop_connection(2)
            .slow_reader(3, Duration::from_millis(5))
            .truncate_frame(4)
            .garbage_frame(5);
        assert!(plan.has_transport_faults());
        assert!(plan.drops_read(2) && !plan.drops_read(1));
        assert_eq!(plan.read_delay(3), Some(Duration::from_millis(5)));
        assert!(plan.truncates_write(4) && !plan.truncates_write(5));
        assert!(plan.garbles_write(5) && !plan.garbles_write(4));
        // Detector-only plans schedule no transport faults, and the
        // detector-side injector ignores the transport schedule entirely.
        assert!(!FaultPlan::new().fail_call(1).has_transport_faults());
        let injector = FaultInjector::new(Box::new(Stub), plan);
        let err = injector.detect_rows(rows(1).view()).unwrap_err();
        assert!(matches!(err, MlError::ContractViolation { .. }));
        assert!(injector.detect_rows(rows(1).view()).is_ok());
    }

    #[test]
    fn slow_call_delays_then_scores_normally() {
        let injector = FaultInjector::new(
            Box::new(Stub),
            FaultPlan::new().slow_call(1, Duration::from_millis(20)),
        );
        let started = std::time::Instant::now();
        let reports = injector
            .detect_rows(rows(2).view())
            .expect("slow, not broken");
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(reports.len(), 2);
        assert_eq!(injector.counters().injected(), 1);
    }
}
