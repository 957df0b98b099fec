//! Drift detection over the monitor stream.
//!
//! The paper's deployment story assumes the input distribution moves: new
//! applications ship, malware families evolve, and a detector trained on
//! last month's workload mix starts escalating traffic it used to score
//! confidently. This module turns the serving fleet's
//! [`MonitorStats`](hmd_core::detector::MonitorStats) window snapshots into
//! a typed [`DriftVerdict`] using Page–Hinkley cumulative statistics — the
//! classic sequential change-point test: cheap (a handful of f64 ops per
//! window snapshot), memoryless beyond its running sums, and tunable
//! through an explicit [`DriftPolicy`].
//!
//! Two channels are watched, because the two failure modes the paper cares
//! about surface differently:
//!
//! * **escalation rate** — the fraction of windows the detector hands to
//!   the trusted model. Out-of-distribution traffic (the zero-day proxy)
//!   raises predictive entropy past the threshold, so the escalation rate
//!   is the most direct drift signal the serving path already computes.
//! * **mean entropy** — a softer precursor: entropy can creep upward while
//!   still below the escalation threshold, flagging drift *before* the
//!   escalation budget is blown.
//!
//! Either channel crossing its Page–Hinkley threshold yields
//! [`DriftVerdict::Drifted`]; the warning fraction of the threshold yields
//! [`DriftVerdict::Warning`] first, so operators (and the
//! [`LoopSupervisor`](crate::LoopSupervisor)) get a two-stage signal.

use hmd_core::detector::MonitorStats;

/// Thresholds and calibration for [`DriftDetector`].
///
/// The defaults suit escalation-rate/mean-entropy streams (both live in
/// `[0, 1]`): drift fires once a channel's Page–Hinkley statistic — the
/// cumulative excess of the observed value over its calibrated baseline,
/// beyond the `delta` slack — exceeds `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Slack subtracted from every deviation before it accumulates: shifts
    /// smaller than `delta` per window never trigger, no matter how long
    /// they persist.
    pub delta: f64,
    /// Page–Hinkley threshold: a channel is drifted once its cumulative
    /// statistic exceeds this. With values in `[0, 1]`, `lambda = 0.6`
    /// means e.g. three consecutive snapshots escalating 20 points above
    /// baseline (or any equivalent area under the deviation curve).
    pub lambda: f64,
    /// Fraction of `lambda` at which [`DriftVerdict::Warning`] is reported.
    pub warning_ratio: f64,
    /// Number of window snapshots used to calibrate each channel's baseline
    /// before the test arms. During calibration the verdict is `Stable`.
    pub calibration_windows: usize,
    /// Window snapshots with fewer rows than this are ignored entirely
    /// (they would make rate estimates too noisy to accumulate).
    pub min_window_rows: usize,
}

impl Default for DriftPolicy {
    fn default() -> DriftPolicy {
        DriftPolicy {
            delta: 0.02,
            lambda: 0.6,
            warning_ratio: 0.5,
            calibration_windows: 3,
            min_window_rows: 8,
        }
    }
}

/// The drift detector's current judgement of the monitor stream.
///
/// Ordered by severity (`Stable < Warning < Drifted`), so callers can
/// `max()` verdicts across channels or detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftVerdict {
    /// Both channels within their calibrated baselines (or still
    /// calibrating).
    Stable,
    /// A channel's statistic has crossed the warning fraction of `lambda`.
    Warning,
    /// A channel's statistic has crossed `lambda`. Sticky: the verdict
    /// stays `Drifted` until [`DriftDetector::reset`].
    Drifted,
}

/// Calibrated per-channel baselines, exposed for promotion/verify gating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBaseline {
    /// Mean escalation rate over the calibration snapshots.
    pub escalation_rate: f64,
    /// Mean of the per-snapshot mean entropies over calibration.
    pub mean_entropy: f64,
}

/// One Page–Hinkley channel: a one-sided *increase* test with a baseline
/// fixed at calibration time (deterministic, unlike the running-mean
/// variant, which matters for seeded tests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Channel {
    /// Sum of calibration observations (baseline numerator).
    calibration_sum: f64,
    /// Calibration observations seen so far.
    calibrated: usize,
    /// Baseline mean, fixed once calibration completes.
    mu0: f64,
    /// Cumulative statistic `m_t = Σ (x_i − mu0 − delta)`.
    m: f64,
    /// Running minimum of `m_t`; the test statistic is `m − m_min`.
    m_min: f64,
}

impl Channel {
    /// Feeds one observation; returns the current test statistic, or 0.0
    /// while still calibrating.
    fn observe(&mut self, x: f64, policy: &DriftPolicy) -> f64 {
        if self.calibrated < policy.calibration_windows {
            self.calibration_sum += x;
            self.calibrated += 1;
            if self.calibrated == policy.calibration_windows {
                self.mu0 = self.calibration_sum / self.calibrated as f64;
            }
            return 0.0;
        }
        self.m += x - self.mu0 - policy.delta;
        self.m_min = self.m_min.min(self.m);
        self.m - self.m_min
    }

    fn is_calibrated(&self, policy: &DriftPolicy) -> bool {
        self.calibrated >= policy.calibration_windows
    }
}

/// A two-channel Page–Hinkley drift detector over
/// [`MonitorStats`](hmd_core::detector::MonitorStats) window snapshots.
///
/// Feed it the reset-on-read window snapshots the serving layer produces
/// (e.g. [`ShardedFleet::window_stats`](hmd_serve::ShardedFleet::window_stats))
/// at whatever cadence suits the deployment; it calibrates a baseline from
/// the first [`DriftPolicy::calibration_windows`] snapshots and then
/// accumulates deviations.
///
/// # Example
///
/// ```
/// use hmd_loop::{DriftDetector, DriftPolicy, DriftVerdict};
/// use hmd_core::detector::MonitorStats;
/// # use hmd_core::trusted::Decision;
/// # use hmd_core::{DetectionReport, UncertainPrediction};
/// # use hmd_data::Label;
/// # fn window(escalated: usize, total: usize) -> MonitorStats {
/// #     let mut stats = MonitorStats::default();
/// #     for i in 0..total {
/// #         let escalate = i < escalated;
/// #         stats.record(&DetectionReport {
/// #             prediction: UncertainPrediction {
/// #                 label: Label::Benign,
/// #                 malware_vote_fraction: 0.0,
/// #                 entropy: if escalate { 0.9 } else { 0.1 },
/// #                 num_estimators: 1,
/// #             },
/// #             decision: if escalate { Decision::Escalate } else { Decision::Accept(Label::Benign) },
/// #         });
/// #     }
/// #     stats.window_snapshot()
/// # }
///
/// let mut detector = DriftDetector::new(DriftPolicy::default());
/// // Calibrate on a healthy stream: ~10 % escalation.
/// for _ in 0..3 {
///     assert_eq!(detector.observe(&window(2, 20)), DriftVerdict::Stable);
/// }
/// // A sustained jump to 80 % escalation crosses the threshold.
/// let mut verdict = DriftVerdict::Stable;
/// for _ in 0..3 {
///     verdict = detector.observe(&window(16, 20));
/// }
/// assert_eq!(verdict, DriftVerdict::Drifted);
/// ```
#[derive(Debug, Clone)]
pub struct DriftDetector {
    policy: DriftPolicy,
    escalation: Channel,
    entropy: Channel,
    verdict: DriftVerdict,
}

impl DriftDetector {
    /// Creates a detector with the given policy, in calibration state.
    pub fn new(policy: DriftPolicy) -> DriftDetector {
        DriftDetector {
            policy,
            escalation: Channel::default(),
            entropy: Channel::default(),
            verdict: DriftVerdict::Stable,
        }
    }

    /// The policy this detector runs under.
    pub fn policy(&self) -> &DriftPolicy {
        &self.policy
    }

    /// The current verdict without feeding a new observation.
    pub fn verdict(&self) -> DriftVerdict {
        self.verdict
    }

    /// The calibrated baselines, once calibration has completed.
    pub fn baseline(&self) -> Option<DriftBaseline> {
        if self.escalation.is_calibrated(&self.policy) {
            Some(DriftBaseline {
                escalation_rate: self.escalation.mu0,
                mean_entropy: self.entropy.mu0,
            })
        } else {
            None
        }
    }

    /// Feeds one window snapshot and returns the updated verdict.
    ///
    /// Snapshots with fewer than [`DriftPolicy::min_window_rows`] rows are
    /// ignored (the current verdict is returned unchanged). Once `Drifted`
    /// is reached it is sticky until [`DriftDetector::reset`] — drift does
    /// not "heal" by averaging back down, because the stream that caused it
    /// has already been judged out-of-distribution.
    pub fn observe(&mut self, window: &MonitorStats) -> DriftVerdict {
        if window.windows < self.policy.min_window_rows {
            return self.verdict;
        }
        let escalation_score = self
            .escalation
            .observe(window.escalation_rate(), &self.policy);
        let entropy_score = self.entropy.observe(window.mean_entropy(), &self.policy);
        if self.verdict == DriftVerdict::Drifted {
            return self.verdict;
        }
        let score = escalation_score.max(entropy_score);
        self.verdict = if score > self.policy.lambda {
            DriftVerdict::Drifted
        } else if score > self.policy.warning_ratio * self.policy.lambda {
            DriftVerdict::Warning
        } else {
            DriftVerdict::Stable
        };
        self.verdict
    }

    /// Returns the detector to its initial state: verdict `Stable`, both
    /// channels cleared, and a fresh calibration phase (a promoted
    /// challenger has a different healthy baseline than the model it
    /// replaced).
    pub fn reset(&mut self) {
        self.escalation = Channel::default();
        self.entropy = Channel::default();
        self.verdict = DriftVerdict::Stable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_core::trusted::Decision;
    use hmd_core::{DetectionReport, UncertainPrediction};
    use hmd_data::Label;

    fn report(entropy: f64, escalate: bool) -> DetectionReport {
        DetectionReport {
            prediction: UncertainPrediction {
                label: Label::Benign,
                malware_vote_fraction: 0.0,
                entropy,
                num_estimators: 1,
            },
            decision: if escalate {
                Decision::Escalate
            } else {
                Decision::Accept(Label::Benign)
            },
        }
    }

    /// A window snapshot with `escalated` of `total` rows escalated at the
    /// given entropy, the rest accepted at low entropy.
    fn window(escalated: usize, total: usize, hot_entropy: f64) -> MonitorStats {
        let mut stats = MonitorStats::default();
        for i in 0..total {
            stats.record(&report(
                if i < escalated { hot_entropy } else { 0.1 },
                i < escalated,
            ));
        }
        stats.window_snapshot()
    }

    #[test]
    fn stable_stream_stays_stable() {
        let mut detector = DriftDetector::new(DriftPolicy::default());
        for _ in 0..50 {
            assert_eq!(detector.observe(&window(2, 20, 0.9)), DriftVerdict::Stable);
        }
        let baseline = detector.baseline().expect("calibrated");
        assert!((baseline.escalation_rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn step_shift_in_escalation_rate_is_detected_with_warning_first() {
        let mut detector = DriftDetector::new(DriftPolicy::default());
        for _ in 0..5 {
            assert_eq!(detector.observe(&window(2, 20, 0.9)), DriftVerdict::Stable);
        }
        // Escalation jumps 10 % -> 60 %: +0.48 accumulates per snapshot, so
        // the first post-shift snapshot warns and the second crosses lambda.
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(detector.observe(&window(12, 20, 0.9)));
        }
        assert_eq!(
            seen,
            vec![
                DriftVerdict::Warning,
                DriftVerdict::Drifted,
                DriftVerdict::Drifted
            ]
        );
        // Sticky: healthy snapshots do not clear it.
        assert_eq!(detector.observe(&window(2, 20, 0.9)), DriftVerdict::Drifted);
    }

    /// Reaction latency in served rows: calibrated on 32-row windows at
    /// 10 % escalation (3 rows), a step to 30, 50 and 80 % (10, 16 and 26
    /// rows) first reads `Drifted` after exactly 128, 64 and 32 rows.
    #[test]
    fn larger_escalation_steps_are_detected_in_fewer_rows() {
        const ROWS: usize = 32;
        let reaction_rows = |escalated: usize| {
            let mut detector = DriftDetector::new(DriftPolicy::default());
            while detector.baseline().is_none() {
                assert_eq!(
                    detector.observe(&window(3, ROWS, 0.9)),
                    DriftVerdict::Stable
                );
            }
            let mut rows = 0;
            loop {
                rows += ROWS;
                if detector.observe(&window(escalated, ROWS, 0.9)) == DriftVerdict::Drifted {
                    return rows;
                }
                assert!(rows < 10_000, "a step to {escalated}/{ROWS} never drifted");
            }
        };
        let rows: Vec<usize> = [10, 16, 26].into_iter().map(reaction_rows).collect();
        assert_eq!(rows, [128, 64, 32]);
    }

    #[test]
    fn entropy_creep_without_escalations_is_detected() {
        // Escalation rate constant at zero; only the accepted windows'
        // entropy creeps upward, still below the escalation threshold.
        let creeping = |entropy: f64| {
            let mut stats = MonitorStats::default();
            for _ in 0..20 {
                stats.record(&report(entropy, false));
            }
            stats.window_snapshot()
        };
        let mut detector = DriftDetector::new(DriftPolicy::default());
        for _ in 0..3 {
            assert_eq!(detector.observe(&creeping(0.10)), DriftVerdict::Stable);
        }
        let mut verdict = DriftVerdict::Stable;
        for _ in 0..4 {
            verdict = detector.observe(&creeping(0.45));
        }
        assert_eq!(verdict, DriftVerdict::Drifted);
    }

    #[test]
    fn small_windows_are_ignored() {
        let mut detector = DriftDetector::new(DriftPolicy::default());
        for _ in 0..3 {
            detector.observe(&window(2, 20, 0.9));
        }
        // A tiny, wildly-escalating window must not advance the statistic.
        for _ in 0..100 {
            assert_eq!(detector.observe(&window(4, 4, 0.9)), DriftVerdict::Stable);
        }
    }

    #[test]
    fn zero_min_window_rows_admits_empty_snapshots_without_poisoning() {
        // With the row floor removed, even empty reset-on-read snapshots
        // (both rates degrade to 0.0, never NaN) flow into calibration and
        // accumulation. They must not corrupt the statistic: an empty
        // window deviates by -delta and the running minimum absorbs it.
        let policy = DriftPolicy {
            min_window_rows: 0,
            ..DriftPolicy::default()
        };
        let mut detector = DriftDetector::new(policy);
        for _ in 0..3 {
            assert_eq!(
                detector.observe(&MonitorStats::default()),
                DriftVerdict::Stable
            );
        }
        // Calibrated against the all-empty baseline: zeros, not NaN.
        let baseline = detector.baseline().expect("calibrated on empty windows");
        assert_eq!(baseline.escalation_rate, 0.0);
        assert_eq!(baseline.mean_entropy, 0.0);
        for _ in 0..50 {
            assert_eq!(
                detector.observe(&MonitorStats::default()),
                DriftVerdict::Stable
            );
        }
        // The test still arms: a real escalation burst crosses lambda.
        let mut verdict = DriftVerdict::Stable;
        for _ in 0..3 {
            verdict = detector.observe(&window(16, 20, 0.9));
        }
        assert_eq!(verdict, DriftVerdict::Drifted);
    }

    #[test]
    fn single_row_windows_calibrate_and_detect_with_min_window_rows_one() {
        // min_window_rows = 1 admits the noisiest possible estimates: each
        // snapshot's escalation rate is exactly 0 or 1. Calibrating on
        // accepted singletons then streaming escalated singletons must
        // still drift — each one accumulates ~(1 - delta).
        let policy = DriftPolicy {
            min_window_rows: 1,
            ..DriftPolicy::default()
        };
        let mut detector = DriftDetector::new(policy);
        for _ in 0..3 {
            assert_eq!(detector.observe(&window(0, 1, 0.9)), DriftVerdict::Stable);
        }
        assert_eq!(
            detector.baseline().expect("calibrated").escalation_rate,
            0.0
        );
        // One escalated singleton exceeds lambda = 0.6 on its own.
        assert_eq!(detector.observe(&window(1, 1, 0.9)), DriftVerdict::Drifted);
    }

    #[test]
    fn zero_calibration_windows_arms_immediately_against_a_zero_baseline() {
        // calibration_windows = 0 skips calibration entirely: the baseline
        // is reported immediately (both channels at their zero defaults)
        // and every observation accumulates against it. A stream that
        // would be perfectly healthy under a calibrated baseline therefore
        // reads as sustained positive deviation and eventually drifts —
        // the footgun this policy encodes, pinned down as a regression.
        let policy = DriftPolicy {
            calibration_windows: 0,
            ..DriftPolicy::default()
        };
        let mut detector = DriftDetector::new(policy);
        let baseline = detector.baseline().expect("armed before any observation");
        assert_eq!(baseline.escalation_rate, 0.0);
        assert_eq!(baseline.mean_entropy, 0.0);

        // 10 % escalation accumulates 0.08 per snapshot against mu0 = 0;
        // lambda = 0.6 is crossed on the 8th snapshot.
        let mut verdicts = Vec::new();
        for _ in 0..8 {
            verdicts.push(detector.observe(&window(2, 20, 0.9)));
        }
        assert_eq!(verdicts[0], DriftVerdict::Stable);
        assert_eq!(*verdicts.last().unwrap(), DriftVerdict::Drifted);
        assert!(
            verdicts.contains(&DriftVerdict::Warning),
            "two-stage signal skipped the warning: {verdicts:?}"
        );
    }

    #[test]
    fn identical_windows_never_accumulate_drift() {
        // A perfectly stationary stream: every post-calibration snapshot
        // equals the calibration mean exactly, so each deviation is -delta,
        // the cumulative sum only falls, and the test statistic
        // (m - m_min) stays pinned at zero forever — no false positive at
        // any horizon, for any escalation level.
        for escalated in [0, 5, 20] {
            let mut detector = DriftDetector::new(DriftPolicy::default());
            for _ in 0..1000 {
                assert_eq!(
                    detector.observe(&window(escalated, 20, 0.9)),
                    DriftVerdict::Stable,
                    "identical windows ({escalated}/20 escalated) drifted"
                );
            }
        }
    }

    #[test]
    fn reset_clears_verdict_and_recalibrates() {
        let mut detector = DriftDetector::new(DriftPolicy::default());
        for _ in 0..3 {
            detector.observe(&window(2, 20, 0.9));
        }
        for _ in 0..3 {
            detector.observe(&window(16, 20, 0.9));
        }
        assert_eq!(detector.verdict(), DriftVerdict::Drifted);

        detector.reset();
        assert_eq!(detector.verdict(), DriftVerdict::Stable);
        assert!(detector.baseline().is_none());
        // Recalibrates against the *new* baseline: a steady 60 % escalation
        // stream is now "healthy" and stays stable.
        for _ in 0..20 {
            assert_eq!(detector.observe(&window(12, 20, 0.9)), DriftVerdict::Stable);
        }
    }
}
