//! The closed-loop supervisor: drift → retrain → shadow → promote → verify.
//!
//! [`LoopSupervisor`] is the state machine that closes the online loop over
//! a [`ShardedFleet`] endpoint. It is deliberately *caller-driven*: the
//! deployment decides when to call [`LoopSupervisor::tick`] (every N served
//! rows, on a timer, from a cron job), and every transition is recorded in
//! an auditable [`LoopEvent`] log. The supervisor owns no threads and holds
//! no locks across ticks, so it composes with whatever scheduling the
//! serving process already has.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use hmd_core::detector::{DetectorConfig, MonitorStats};
use hmd_data::{DataError, Label, Matrix};
use hmd_ml::MlError;
use hmd_serve::{FleetError, ShardedFleet};

use crate::drift::{DriftDetector, DriftPolicy, DriftVerdict};

/// Everything that can interrupt a loop tick.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LoopError {
    /// The serving fleet rejected an operation.
    Fleet(FleetError),
    /// Retraining the challenger failed.
    Ml(MlError),
    /// Drift was detected but the labelled sliding window has fewer rows
    /// than [`LoopConfig::min_retrain_rows`] — ingest more labelled rows
    /// and tick again.
    WindowStarved {
        /// Labelled rows currently buffered.
        have: usize,
        /// Rows required before a retrain is attempted.
        need: usize,
    },
    /// The shadow challenger disappeared mid-deployment (cleared through
    /// the fleet API behind the supervisor's back).
    ShadowVanished {
        /// The endpoint whose shadow vanished.
        endpoint: String,
    },
}

impl fmt::Display for LoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopError::Fleet(e) => write!(f, "fleet operation failed: {e}"),
            LoopError::Ml(e) => write!(f, "challenger retrain failed: {e}"),
            LoopError::WindowStarved { have, need } => write!(
                f,
                "drift detected but only {have} labelled rows buffered ({need} required to retrain)"
            ),
            LoopError::ShadowVanished { endpoint } => write!(
                f,
                "shadow challenger on endpoint `{endpoint}` vanished mid-deployment"
            ),
        }
    }
}

impl std::error::Error for LoopError {}

impl From<FleetError> for LoopError {
    fn from(e: FleetError) -> LoopError {
        LoopError::Fleet(e)
    }
}

impl From<MlError> for LoopError {
    fn from(e: MlError) -> LoopError {
        LoopError::Ml(e)
    }
}

impl From<DataError> for LoopError {
    fn from(e: DataError) -> LoopError {
        LoopError::Ml(MlError::from(e))
    }
}

/// Where the loop currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopState {
    /// Watching window snapshots for drift; no challenger in flight.
    Monitoring,
    /// A retrained challenger is shadow-scoring served traffic.
    Shadowing,
    /// A challenger was promoted; watching the new champion for regression.
    Verifying,
}

/// How a shadow challenger earns promotion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PromotionGate {
    /// Promote only if the challenger's shadow escalation rate is no worse
    /// than the champion's over the same shadow period, plus `margin`.
    /// The rate is measured on the *same served rows* (the shadow scores
    /// exactly the tiles the champion served), so the comparison is
    /// apples-to-apples by construction.
    ChallengerNoWorse {
        /// Slack added to the champion's rate before comparing.
        margin: f64,
    },
    /// Promote unconditionally once the shadow has scored enough rows.
    /// Useful for forced rollouts — and for exercising the verify/rollback
    /// path with a deliberately bad challenger.
    Always,
}

/// One entry in the supervisor's auditable event log.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LoopEvent {
    /// A drift channel crossed the warning fraction of its threshold.
    DriftWarning {
        /// Escalation rate of the snapshot that triggered the warning.
        escalation_rate: f64,
        /// Mean entropy of that snapshot.
        mean_entropy: f64,
    },
    /// A drift channel crossed its threshold; a retrain will be attempted.
    DriftDetected {
        /// Escalation rate of the snapshot that tipped the verdict.
        escalation_rate: f64,
        /// Mean entropy of that snapshot.
        mean_entropy: f64,
    },
    /// A challenger was fit on the labelled sliding window.
    Retrained {
        /// Rows in the retrain window.
        rows: usize,
    },
    /// The challenger was installed as a shadow on every replica.
    ShadowStarted {
        /// The challenger's detector name.
        challenger: String,
    },
    /// The challenger passed its gate and now serves traffic.
    Promoted {
        /// The version the promotion published.
        version: u64,
        /// Challenger escalation rate over the shadow period.
        challenger_escalation: f64,
        /// Champion escalation rate over the same served rows.
        champion_escalation: f64,
    },
    /// The challenger failed its gate; the shadow was dropped.
    ShadowRejected {
        /// Challenger escalation rate over the shadow period.
        challenger_escalation: f64,
        /// Champion escalation rate over the same served rows.
        champion_escalation: f64,
    },
    /// Post-promotion verification found a regression and rolled back.
    RolledBack {
        /// The version the rollback restored.
        restored: u64,
        /// Escalation rate observed during verification.
        escalation_rate: f64,
        /// The healthy baseline it was compared against.
        baseline: f64,
    },
    /// Post-promotion verification passed; the loop closed.
    Recovered {
        /// Escalation rate observed during verification.
        escalation_rate: f64,
        /// The healthy baseline it was compared against.
        baseline: f64,
    },
}

/// Tuning for one [`LoopSupervisor`].
///
/// Construct with [`LoopConfig::new`] and adjust fields directly; the
/// defaults suit integration-test-sized streams and err on the side of
/// reacting fast.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct LoopConfig {
    /// Drift thresholds (see [`DriftPolicy`]).
    pub drift: DriftPolicy,
    /// Capacity of the labelled sliding window; the oldest rows are evicted
    /// first once full. A capacity of 0 keeps no rows, so a retrain starves
    /// like any window below [`LoopConfig::min_retrain_rows`].
    pub window_capacity: usize,
    /// Minimum labelled rows required before a retrain is attempted
    /// (ticking while starved returns [`LoopError::WindowStarved`]).
    pub min_retrain_rows: usize,
    /// Rows the shadow challenger must score before its gate is evaluated.
    pub shadow_rows: u64,
    /// How the challenger earns promotion.
    pub gate: PromotionGate,
    /// Champion rows observed post-promotion before the verify verdict.
    pub verify_rows: usize,
    /// Allowed excess of the post-promotion escalation rate over the
    /// calibrated healthy baseline before an automatic rollback fires.
    pub regression_tolerance: f64,
    /// Pipeline configuration used to fit challengers.
    pub detector: DetectorConfig,
    /// Seed for challenger fits (bumped by one per retrain so successive
    /// challengers are not clones when the window has not moved).
    pub seed: u64,
}

impl LoopConfig {
    /// A config with the given pipeline recipe and default loop tuning.
    pub fn new(detector: DetectorConfig) -> LoopConfig {
        LoopConfig {
            drift: DriftPolicy::default(),
            window_capacity: 2048,
            min_retrain_rows: 64,
            shadow_rows: 64,
            gate: PromotionGate::ChallengerNoWorse { margin: 0.05 },
            verify_rows: 64,
            regression_tolerance: 0.15,
            detector,
            seed: 17,
        }
    }
}

/// The closed-loop supervisor over one [`ShardedFleet`] endpoint.
///
/// State machine: `Monitoring` —drift→ retrain + shadow → `Shadowing`
/// —gate passed→ promote → `Verifying` —healthy→ back to `Monitoring`
/// (event `Recovered`), or —regressed→ automatic rollback (event
/// `RolledBack`). A challenger that fails its gate is dropped
/// (`ShadowRejected`) and the loop keeps monitoring.
///
/// The supervisor consumes the endpoint's reset-on-read window snapshots
/// ([`ShardedFleet::window_stats`]), so it never perturbs the lifetime
/// statistics operators watch, and it feeds retrains from a labelled
/// sliding window the caller fills with [`LoopSupervisor::ingest`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use hmd_core::detector::{DetectorBackend, DetectorConfig};
/// use hmd_data::{Dataset, Label, Matrix};
/// use hmd_loop::{LoopConfig, LoopState, LoopSupervisor};
/// use hmd_serve::ShardedFleet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[
///     vec![0.1, 0.2], vec![0.2, 0.1], vec![0.9, 0.8], vec![0.8, 0.9],
/// ])?;
/// let y = vec![Label::Benign, Label::Benign, Label::Malware, Label::Malware];
/// let train = Dataset::new(x, y)?;
/// let recipe = DetectorConfig::trusted(DetectorBackend::decision_tree())
///     .with_num_estimators(9);
/// let champion = recipe.clone().fit(&train, 3)?;
///
/// let fleet = Arc::new(ShardedFleet::new(2));
/// fleet.deploy("hmd", champion)?;
///
/// let mut supervisor = LoopSupervisor::new(Arc::clone(&fleet), "hmd", LoopConfig::new(recipe));
/// // Serve traffic, feed labelled rows back, and tick at your own cadence.
/// for row in [[0.15, 0.15], [0.85, 0.9]] {
///     let scored = fleet.score("hmd", &row).and_then(|t| {
///         fleet.flush("hmd")?;
///         t.wait()
///     })?;
///     let label = Label::from(row[1] >= 0.5); // ground truth arrives later
///     supervisor.ingest(&row, label);
///     let _ = scored;
/// }
/// assert_eq!(supervisor.tick()?, LoopState::Monitoring);
/// assert!(supervisor.events().is_empty()); // healthy stream: nothing to do
/// # Ok(())
/// # }
/// ```
pub struct LoopSupervisor {
    fleet: Arc<ShardedFleet>,
    endpoint: String,
    config: LoopConfig,
    drift: DriftDetector,
    warned: bool,
    window_rows: VecDeque<Vec<f64>>,
    window_labels: VecDeque<Label>,
    state: LoopState,
    /// Champion window stats accumulated while a shadow runs (the gate's
    /// denominator: same served rows as the challenger scored).
    champion_during_shadow: MonitorStats,
    /// Champion window stats accumulated post-promotion.
    verify: MonitorStats,
    retrains: u64,
    events: Vec<LoopEvent>,
}

impl LoopSupervisor {
    /// Creates a supervisor for `endpoint` on `fleet`.
    ///
    /// The endpoint does not have to exist yet — it is only touched by
    /// [`LoopSupervisor::tick`] — but every tick against a missing endpoint
    /// returns [`LoopError::Fleet`].
    pub fn new(fleet: Arc<ShardedFleet>, endpoint: &str, config: LoopConfig) -> LoopSupervisor {
        let drift = DriftDetector::new(config.drift);
        LoopSupervisor {
            fleet,
            endpoint: endpoint.to_string(),
            config,
            drift,
            warned: false,
            window_rows: VecDeque::new(),
            window_labels: VecDeque::new(),
            state: LoopState::Monitoring,
            champion_during_shadow: MonitorStats::default(),
            verify: MonitorStats::default(),
            retrains: 0,
            events: Vec::new(),
        }
    }

    /// Adds one labelled row to the sliding retrain window, evicting the
    /// oldest row once [`LoopConfig::window_capacity`] is reached (a
    /// capacity of 0 drops every row).
    ///
    /// In a real deployment labels arrive late (forensics on escalated
    /// windows, periodic audits); the supervisor only requires that *some*
    /// labelled stream exists, not that it is synchronous with serving.
    pub fn ingest(&mut self, row: &[f64], label: Label) {
        if self.config.window_capacity == 0 {
            return;
        }
        if self.window_rows.len() == self.config.window_capacity {
            self.window_rows.pop_front();
            self.window_labels.pop_front();
        }
        self.window_rows.push_back(row.to_vec());
        self.window_labels.push_back(label);
    }

    /// Labelled rows currently buffered for retraining.
    pub fn window_len(&self) -> usize {
        self.window_rows.len()
    }

    /// The loop's current state.
    pub fn state(&self) -> LoopState {
        self.state
    }

    /// The audit log, oldest event first.
    pub fn events(&self) -> &[LoopEvent] {
        &self.events
    }

    /// The drift detector (verdict, calibrated baselines).
    pub fn drift_detector(&self) -> &DriftDetector {
        &self.drift
    }

    /// Advances the state machine one step.
    ///
    /// Call at any cadence: each tick consumes the endpoint's pending
    /// window snapshot and performs at most one transition. Returns the
    /// state after the tick.
    ///
    /// # Errors
    ///
    /// [`LoopError::Fleet`] if the endpoint is missing or a fleet operation
    /// fails, [`LoopError::Ml`] if a retrain fails,
    /// [`LoopError::WindowStarved`] if drift fired before enough labelled
    /// rows were ingested (ingest more and tick again), and
    /// [`LoopError::ShadowVanished`] if the challenger was cleared behind
    /// the supervisor's back.
    pub fn tick(&mut self) -> Result<LoopState, LoopError> {
        match self.state {
            LoopState::Monitoring => self.tick_monitoring()?,
            LoopState::Shadowing => self.tick_shadowing()?,
            LoopState::Verifying => self.tick_verifying()?,
        }
        Ok(self.state)
    }

    fn tick_monitoring(&mut self) -> Result<(), LoopError> {
        let window = self.fleet.window_stats(&self.endpoint)?;
        let verdict = self.drift.observe(&window);
        match verdict {
            DriftVerdict::Stable => {
                self.warned = false;
            }
            DriftVerdict::Warning => {
                if !self.warned {
                    self.warned = true;
                    self.events.push(LoopEvent::DriftWarning {
                        escalation_rate: window.escalation_rate(),
                        mean_entropy: window.mean_entropy(),
                    });
                }
            }
            DriftVerdict::Drifted => {
                self.events.push(LoopEvent::DriftDetected {
                    escalation_rate: window.escalation_rate(),
                    mean_entropy: window.mean_entropy(),
                });
                self.start_challenger()?;
            }
        }
        Ok(())
    }

    fn start_challenger(&mut self) -> Result<(), LoopError> {
        let have = self.window_rows.len();
        if have < self.config.min_retrain_rows {
            return Err(LoopError::WindowStarved {
                have,
                need: self.config.min_retrain_rows,
            });
        }
        let rows: Vec<Vec<f64>> = self.window_rows.iter().cloned().collect();
        let labels: Vec<Label> = self.window_labels.iter().copied().collect();
        let matrix = Matrix::from_rows(&rows)?;
        let seed = self.config.seed.wrapping_add(self.retrains);
        self.retrains += 1;
        let challenger = self
            .config
            .detector
            .refit_on_window(&matrix.view(), &labels, seed)?;
        self.events.push(LoopEvent::Retrained { rows: have });
        let name = challenger.name();
        self.fleet.deploy_shadow(&self.endpoint, challenger)?;
        self.events
            .push(LoopEvent::ShadowStarted { challenger: name });
        self.champion_during_shadow = MonitorStats::default();
        self.state = LoopState::Shadowing;
        Ok(())
    }

    fn tick_shadowing(&mut self) -> Result<(), LoopError> {
        let window = self.fleet.window_stats(&self.endpoint)?;
        self.champion_during_shadow.merge(&window);
        let shadow =
            self.fleet
                .shadow_stats(&self.endpoint)?
                .ok_or_else(|| LoopError::ShadowVanished {
                    endpoint: self.endpoint.clone(),
                })?;
        if shadow.rows < self.config.shadow_rows {
            return Ok(()); // keep shadowing
        }
        let challenger_escalation = shadow.stats.escalation_rate();
        let champion_escalation = self.champion_during_shadow.escalation_rate();
        let promote = match self.config.gate {
            PromotionGate::Always => true,
            PromotionGate::ChallengerNoWorse { margin } => {
                challenger_escalation <= champion_escalation + margin
            }
        };
        if promote {
            let version = self.fleet.promote_shadow(&self.endpoint)?;
            self.events.push(LoopEvent::Promoted {
                version,
                challenger_escalation,
                champion_escalation,
            });
            self.verify = MonitorStats::default();
            self.state = LoopState::Verifying;
        } else {
            self.fleet.clear_shadow(&self.endpoint)?;
            self.events.push(LoopEvent::ShadowRejected {
                challenger_escalation,
                champion_escalation,
            });
            // The drift verdict stays sticky, so the next monitoring tick
            // retries with whatever fresher rows were ingested meanwhile.
            self.state = LoopState::Monitoring;
        }
        Ok(())
    }

    fn tick_verifying(&mut self) -> Result<(), LoopError> {
        let window = self.fleet.window_stats(&self.endpoint)?;
        self.verify.merge(&window);
        if self.verify.windows < self.config.verify_rows {
            return Ok(()); // keep verifying
        }
        let baseline = self
            .drift
            .baseline()
            .map(|b| b.escalation_rate)
            .unwrap_or(0.0);
        let escalation_rate = self.verify.escalation_rate();
        if escalation_rate > baseline + self.config.regression_tolerance {
            let restored = self.fleet.rollback(&self.endpoint)?;
            self.events.push(LoopEvent::RolledBack {
                restored,
                escalation_rate,
                baseline,
            });
        } else {
            self.events.push(LoopEvent::Recovered {
                escalation_rate,
                baseline,
            });
        }
        // Either way the loop re-arms against the now-serving champion:
        // fresh calibration, fresh verdict.
        self.drift.reset();
        self.warned = false;
        self.state = LoopState::Monitoring;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_core::detector::DetectorBackend;
    use hmd_data::Dataset;

    fn blobs(n: usize, seed: u64) -> Dataset {
        // Two well-separated clusters, deterministic placement.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let malware = i % 2 == 0;
            let c = if malware { 2.0 } else { -2.0 };
            let jitter = ((i * 2654435761 + seed as usize) % 997) as f64 / 997.0 - 0.5;
            rows.push(vec![c + jitter, c - jitter, jitter]);
            labels.push(Label::from(malware));
        }
        Dataset::new(Matrix::from_rows(&rows).expect("consistent rows"), labels)
            .expect("valid dataset")
    }

    fn recipe() -> DetectorConfig {
        DetectorConfig::trusted(DetectorBackend::decision_tree())
            .with_num_estimators(9)
            .with_entropy_threshold(0.5)
    }

    /// A supervisor over a fresh 1-replica fleet whose drift channel fires
    /// after one calibration window, with a labelled window of
    /// `window_capacity` rows and a retrain threshold of 64 rows.
    fn quick_drift_loop(window_capacity: usize) -> (Arc<ShardedFleet>, LoopSupervisor) {
        let train = blobs(80, 5);
        let fleet = Arc::new(ShardedFleet::new(1));
        fleet
            .deploy("hmd", recipe().fit(&train, 3).expect("fits"))
            .expect("deploys");

        let mut config = LoopConfig::new(recipe());
        config.drift = DriftPolicy {
            calibration_windows: 1,
            min_window_rows: 4,
            ..DriftPolicy::default()
        };
        config.window_capacity = window_capacity;
        config.min_retrain_rows = 64;
        let supervisor = LoopSupervisor::new(Arc::clone(&fleet), "hmd", config);
        (fleet, supervisor)
    }

    /// Calibrates on a confident batch, then floods the endpoint with
    /// ambiguous rows (between the clusters) until drift fires, and returns
    /// the error of the tick that tried to retrain.
    fn drift_until_retrain_fails(
        fleet: &ShardedFleet,
        supervisor: &mut LoopSupervisor,
    ) -> LoopError {
        let confident = Matrix::from_rows(&vec![vec![2.0, 2.0, 0.0]; 16]).expect("matrix");
        fleet.score_batch("hmd", &confident).expect("scores");
        supervisor.tick().expect("calibration tick");

        let ambiguous = Matrix::from_rows(&vec![vec![0.1, -0.1, 0.0]; 16]).expect("matrix");
        for _ in 0..4 {
            fleet.score_batch("hmd", &ambiguous).expect("scores");
            if let Err(error) = supervisor.tick() {
                return error;
            }
        }
        panic!("drift never fired on an all-ambiguous stream");
    }

    #[test]
    fn starved_window_is_an_error_not_a_silent_skip() {
        let (fleet, mut supervisor) = quick_drift_loop(2048);
        assert_eq!(
            drift_until_retrain_fails(&fleet, &mut supervisor),
            LoopError::WindowStarved { have: 0, need: 64 }
        );
    }

    #[test]
    fn zero_capacity_window_stays_empty_and_starves_retrains() {
        for capacity in [0, 1, 8] {
            let (_, mut supervisor) = quick_drift_loop(capacity);
            for i in 0..1000 {
                supervisor.ingest(&[2.0, 2.0, i as f64], Label::Malware);
            }
            assert_eq!(supervisor.window_len(), capacity, "capacity {capacity}");
        }
        let (fleet, mut supervisor) = quick_drift_loop(0);
        for _ in 0..1000 {
            supervisor.ingest(&[2.0, 2.0, 0.0], Label::Malware);
        }
        assert_eq!(
            drift_until_retrain_fails(&fleet, &mut supervisor),
            LoopError::WindowStarved { have: 0, need: 64 }
        );
    }

    #[test]
    fn unknown_endpoint_surfaces_as_fleet_error() {
        let fleet = Arc::new(ShardedFleet::new(1));
        let mut supervisor = LoopSupervisor::new(fleet, "ghost", LoopConfig::new(recipe()));
        assert_eq!(
            supervisor.tick(),
            Err(LoopError::Fleet(FleetError::UnknownEndpoint {
                name: "ghost".into()
            }))
        );
    }
}
