//! The discrete-time system simulator.
//!
//! Steps the whole stack at the HAR window period: harvest → scheduling →
//! sensing → inference → radio → host aggregation → scoring, exactly the
//! loop described across Sections III and IV.

use crate::confidence::ConfidenceMatrix;
use crate::deployment::{Deployment, NodeSource};
use crate::ensemble::EnsembleKind;
use crate::error::CoreError;
use crate::host::HostDevice;
use crate::models::{ModelBank, ModelVariant};
use crate::policy::{PolicyKind, PolicyState};
use origin_energy::{AdvanceFlows, DutyState, EnergyNode, NodeCounters};
use origin_net::{Endpoint, Message, MessageBus};
use origin_nn::{ConfusionMatrix, KernelPath, Scalar, Workspace};
use origin_sensors::{
    add_noise_snr, sample_window, window_features, ActivityTimeline, TimelineConfig, UserProfile,
};
use origin_telemetry::{DrawOp, LedgerEntry, NoopObserver, SimEvent, SimObserver};
use origin_types::{ActivitySet, Energy, NodeId, SensorLocation, SimDuration, SimTime, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Everything one simulation run needs beyond the deployment and models.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The scheduling policy under test.
    pub policy: PolicyKind,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Master seed (timeline, runtime windows, link loss).
    pub seed: u64,
    /// The wearer.
    pub user: UserProfile,
    /// Optional Gaussian corruption of runtime windows at this SNR (dB) —
    /// Fig. 6 uses 20 dB.
    pub noise_snr_db: Option<f64>,
    /// Scales activity dwell times (1.0 = class-typical).
    pub dwell_scale: f64,
    /// Multiplies the deployment's per-location harvest power (1.0 = the
    /// calibrated office). Population sweeps draw this per user
    /// ([`crate::PopulationSpec`]); steady fully-powered sources ignore
    /// it.
    pub harvest_scale: f64,
    /// Which classifier variant the nodes run.
    pub variant: ModelVariant,
    /// Confidence-matrix moving-average rate.
    pub alpha: f64,
    /// Nodes that have failed outright (sensor-failure robustness study:
    /// Origin "poses minimum risk if one of the sensors fails").
    pub disabled_nodes: Vec<NodeId>,
    /// Feed the scheduler the *true* current activity instead of the
    /// host's classification — the oracle-anticipation ablation that
    /// upper-bounds what better activity prediction could buy AAS.
    pub oracle_anticipation: bool,
    /// Which NN kernel implementations the run's inference workspace
    /// dispatches to. Both paths are bitwise identical (`Unrolled`, the
    /// default, is the fast one); the knob exists for A/B benching and
    /// regression bisection, and is recorded in manifests only when
    /// non-default.
    pub kernel_path: KernelPath,
}

impl SimConfig {
    /// A config for `policy` with one-hour horizon, nominal user, pruned
    /// models and the default adaptation rate.
    #[must_use]
    pub fn new(policy: PolicyKind) -> Self {
        Self {
            policy,
            horizon: SimDuration::from_secs(3_600),
            seed: 0x5EED,
            user: UserProfile::nominal(UserId::new(0)),
            noise_snr_db: None,
            dwell_scale: 1.0,
            harvest_scale: 1.0,
            variant: ModelVariant::Pruned,
            alpha: ConfidenceMatrix::DEFAULT_ALPHA,
            disabled_nodes: Vec::new(),
            oracle_anticipation: false,
            kernel_path: KernelPath::default(),
        }
    }

    /// Sets the horizon. Builder-style.
    #[must_use]
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the master seed. Builder-style.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the wearer. Builder-style.
    #[must_use]
    pub fn with_user(mut self, user: UserProfile) -> Self {
        self.user = user;
        self
    }

    /// Adds runtime window noise at `snr_db`. Builder-style.
    #[must_use]
    pub fn with_noise_snr(mut self, snr_db: f64) -> Self {
        self.noise_snr_db = Some(snr_db);
        self
    }

    /// Selects the classifier variant. Builder-style.
    #[must_use]
    pub fn with_variant(mut self, variant: ModelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Scales activity dwell times. Builder-style.
    #[must_use]
    pub fn with_dwell_scale(mut self, scale: f64) -> Self {
        self.dwell_scale = scale;
        self
    }

    /// Scales the deployment's harvest power for this run. Builder-style.
    ///
    /// `1.0` is bit-identical to not setting a scale at all, so the
    /// committed f64 goldens are unaffected by this knob existing.
    #[must_use]
    pub fn with_harvest_scale(mut self, scale: f64) -> Self {
        self.harvest_scale = scale;
        self
    }

    /// Sets the confidence adaptation rate. Builder-style.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Marks nodes as failed for the whole run. Builder-style.
    #[must_use]
    pub fn with_disabled_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.disabled_nodes = nodes.into_iter().collect();
        self
    }

    /// Enables oracle anticipation (scheduling ablation). Builder-style.
    #[must_use]
    pub fn with_oracle_anticipation(mut self) -> Self {
        self.oracle_anticipation = true;
        self
    }

    /// Pins the NN [`KernelPath`] for the run (default
    /// [`KernelPath::Unrolled`]; both paths are bitwise identical).
    /// Builder-style.
    #[must_use]
    pub fn with_kernel_path(mut self, path: KernelPath) -> Self {
        self.kernel_path = path;
        self
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Label of the policy that ran ("RR12 Origin").
    pub policy_label: String,
    /// The class set dense labels index into.
    pub activities: ActivitySet,
    /// Total simulated windows.
    pub windows: u64,
    /// Windows where the host had no classification yet.
    pub no_output_windows: u64,
    /// Ground truth × prediction over windows *with* output.
    pub confusion: ConfusionMatrix,
    /// Per-class counts of windows without output.
    pub missed_by_class: Vec<u64>,
    /// Windows in which at least one inference was attempted.
    pub attempt_windows: u64,
    /// Total inference attempts.
    pub attempts: u64,
    /// Attempts that completed.
    pub completions: u64,
    /// Attempt-windows where every attempter finished (Fig. 1a "all
    /// succeed").
    pub windows_all_completed: u64,
    /// Attempt-windows where some but not all finished.
    pub windows_some_completed: u64,
    /// Attempt-windows where nobody finished.
    pub windows_none_completed: u64,
    /// Radio frames offered / lost.
    pub messages_sent: u64,
    /// Radio frames lost to the link.
    pub messages_dropped: u64,
    /// Radio frames offered by each node, indexed by node id.
    pub sent_by_node: Vec<u64>,
    /// Radio frames lost per sending node, indexed by node id.
    pub dropped_by_node: Vec<u64>,
    /// Final per-node energy counters.
    pub node_counters: Vec<NodeCounters>,
    /// The host's confidence matrix at the end of the run.
    pub final_confidence: ConfidenceMatrix,
}

/// Whole-run energy totals summed over nodes, in the energy ledger's
/// flow terms: `offered = harvested + charge_loss + clipped`, and the
/// stored delta over the run is `harvested − consumed − leaked`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy offered by the harvester front-ends (pre-efficiency).
    pub offered: Energy,
    /// Energy actually stored into the capacitors.
    pub harvested: Energy,
    /// Energy drawn for duties, inference, radio and checkpoints.
    pub consumed: Energy,
    /// Energy lost to imperfect charge efficiency.
    pub charge_loss: Energy,
    /// Post-efficiency energy rejected at capacity.
    pub clipped: Energy,
    /// Capacitor self-discharge.
    pub leaked: Energy,
}

impl SimReport {
    /// Whole-run energy totals summed over the final node counters.
    #[must_use]
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for c in &self.node_counters {
            total.offered += c.offered;
            total.harvested += c.harvested;
            total.consumed += c.consumed;
            total.charge_loss += c.charge_loss;
            total.clipped += c.clipped;
            total.leaked += c.leaked;
        }
        total
    }

    /// Overall top-1 accuracy; windows without output count as wrong.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.activities.len())
            .map(|c| self.confusion.count(c, c))
            .sum();
        correct as f64 / self.windows as f64
    }

    /// Per-activity accuracy (missing-output windows count as wrong), or
    /// `None` when the activity never occurred or is out of set.
    #[must_use]
    pub fn per_activity_accuracy(&self, activity: origin_types::ActivityClass) -> Option<f64> {
        let dense = self.activities.dense_index(activity)?;
        let row: u64 = (0..self.activities.len())
            .map(|p| self.confusion.count(dense, p))
            .sum();
        let total = row + self.missed_by_class[dense];
        if total == 0 {
            return None;
        }
        Some(self.confusion.count(dense, dense) as f64 / total as f64)
    }

    /// Fraction of attempts that completed.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.completions as f64 / self.attempts as f64
        }
    }

    /// Fig. 1 breakdown over attempt-windows: (all, some, none) fractions.
    #[must_use]
    pub fn completion_breakdown(&self) -> (f64, f64, f64) {
        if self.attempt_windows == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = self.attempt_windows as f64;
        (
            self.windows_all_completed as f64 / n,
            self.windows_some_completed as f64 / n,
            self.windows_none_completed as f64 / n,
        )
    }
}

impl core::fmt::Display for SimReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (all, some, none) = self.completion_breakdown();
        writeln!(
            f,
            "{}: {:.2}% top-1 over {} windows ({} without output)",
            self.policy_label,
            self.accuracy() * 100.0,
            self.windows,
            self.no_output_windows
        )?;
        writeln!(
            f,
            "  attempts {} / completions {} ({:.1}%); windows all/some/none: {:.1}%/{:.1}%/{:.1}%",
            self.attempts,
            self.completions,
            self.completion_rate() * 100.0,
            all * 100.0,
            some * 100.0,
            none * 100.0
        )?;
        write!(
            f,
            "  radio: {} sent, {} dropped",
            self.messages_sent, self.messages_dropped
        )?;
        for (n, (sent, dropped)) in self
            .sent_by_node
            .iter()
            .zip(&self.dropped_by_node)
            .enumerate()
        {
            write!(f, "; node{n} {sent}/{dropped}")?;
        }
        Ok(())
    }
}

/// Binds a deployment to a trained model bank and runs policies over it.
///
/// The deployment and models are held behind [`Arc`], so cloning a
/// `Simulator` — or sharing one across worker threads (`Simulator` is
/// `Send + Sync`; [`Simulator::run`] takes `&self`) — never re-trains or
/// deep-copies them. Parallel sweeps build one simulator per
/// deployment/model pair and fan cells out over it.
///
/// The simulator runs at whatever kernel precision its bank was trained
/// at (`Simulator<f32>` over a `ModelBank<f32>`); reports, confidence
/// scores and every counter stay `f64` regardless.
#[derive(Debug, Clone)]
pub struct Simulator<S: Scalar = f64> {
    deployment: Arc<Deployment>,
    models: Arc<ModelBank<S>>,
}

impl<S: Scalar> Simulator<S> {
    /// Creates a simulator for the deployment/model pair.
    #[must_use]
    pub fn new(deployment: Deployment, models: ModelBank<S>) -> Self {
        Self::from_shared(Arc::new(deployment), Arc::new(models))
    }

    /// Creates a simulator over already-shared deployment/models handles,
    /// without cloning either (the fan-out path: one trained
    /// [`ModelBank`] serves every worker).
    #[must_use]
    pub fn from_shared(deployment: Arc<Deployment>, models: Arc<ModelBank<S>>) -> Self {
        Self { deployment, models }
    }

    /// The deployment.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The model bank.
    #[must_use]
    pub fn models(&self) -> &ModelBank<S> {
        &self.models
    }

    /// The shared handle to the model bank (cheap to clone across
    /// workers).
    #[must_use]
    pub fn shared_models(&self) -> Arc<ModelBank<S>> {
        Arc::clone(&self.models)
    }

    /// The shared handle to the deployment.
    #[must_use]
    pub fn shared_deployment(&self) -> Arc<Deployment> {
        Arc::clone(&self.deployment)
    }

    /// Runs one policy over the configured horizon.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadCycle`] for an invalid ER-r cycle.
    pub fn run(&self, config: &SimConfig) -> Result<SimReport, CoreError> {
        self.run_observed(config, &mut NoopObserver)
    }

    /// [`Simulator::run`] with telemetry: every stage of the loop emits
    /// [`SimEvent`]s into `observer` — window starts, harvest slices,
    /// slot decisions (no-op slots included), activation signals,
    /// inference attempts/completions/brownouts, NVP checkpoints, radio
    /// traffic, recall and ensemble votes, and confidence updates.
    ///
    /// Observers are pure consumers: an instrumented run produces a
    /// report identical to [`Simulator::run`] on the same config
    /// (`tests/telemetry.rs` pins this byte-for-byte).
    ///
    /// When `observer` answers `true` to [`SimObserver::wants_ledger`]
    /// (e.g. a [`origin_telemetry::LedgerAuditor`] or any observer behind
    /// [`origin_telemetry::WithLedger`]), the run additionally emits the
    /// per-node, per-slot energy-ledger flow stream
    /// ([`SimEvent::Ledger`]); the flag is read once at run start, so it
    /// must be constant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadCycle`] for an invalid ER-r cycle.
    pub fn run_observed<O: SimObserver>(
        &self,
        config: &SimConfig,
        observer: &mut O,
    ) -> Result<SimReport, CoreError> {
        let window = self.deployment.window();
        let windows_total = config.horizon.steps_of(window);
        let activities = self.models.activities().clone();
        let classes = activities.len();

        let timeline = ActivityTimeline::generate(
            &TimelineConfig {
                activities: activities.clone(),
                dwell_jitter: 0.4,
                dwell_scale: config.dwell_scale,
            },
            config.seed ^ 0x7131_E11E,
            config.horizon,
        );

        let mut nodes: Vec<EnergyNode<NodeSource>> =
            self.deployment.build_nodes_scaled(config.harvest_scale);
        let node_count = nodes.len();
        let mut policy = PolicyState::new(config.policy, self.models.rank_table(), node_count)?;

        let ensemble = config.policy.ensemble();
        let confidence = if ensemble == EnsembleKind::ConfidenceWeighted {
            self.models.confidence_matrix(config.alpha)
        } else {
            ConfidenceMatrix::uniform(activities.clone(), node_count, config.alpha)
        };
        let mut host = HostDevice::new(
            node_count,
            ensemble,
            confidence,
            config.policy.adapts_confidence(),
        );

        let mut bus = MessageBus::new(self.deployment.link(), node_count);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51AB_1E5E);
        // One reusable NN workspace per run keeps the per-window inference
        // hot path allocation-free (bitwise-identical to `classify`),
        // pinned to the config's kernel path.
        let mut ws = Workspace::with_kernel_path(config.kernel_path);

        // Per-node attempt energy (sense is paid through the duty).
        let infer_cost: Vec<Energy> = SensorLocation::ALL
            .iter()
            .map(|&loc| self.models.inference_energy(config.variant, loc))
            .collect();
        let sense_cost = self.deployment.costs().sense_per_window;

        let mut report = SimReport {
            policy_label: config.policy.label(),
            activities: activities.clone(),
            windows: windows_total,
            no_output_windows: 0,
            confusion: ConfusionMatrix::new(classes),
            missed_by_class: vec![0; classes],
            attempt_windows: 0,
            attempts: 0,
            completions: 0,
            windows_all_completed: 0,
            windows_some_completed: 0,
            windows_none_completed: 0,
            messages_sent: 0,
            messages_dropped: 0,
            sent_by_node: Vec::new(),
            dropped_by_node: Vec::new(),
            node_counters: Vec::new(),
            final_confidence: host.confidence().clone(),
        };

        // Hoisted once per run: `wants_ledger` must answer constantly, so
        // the uninstrumented path never pays for flow decomposition.
        let ledger = observer.wants_ledger();
        if ledger {
            for (n, node) in nodes.iter().enumerate() {
                observer.on_event(&SimEvent::Ledger {
                    window: 0,
                    node: NodeId::new(n as u32),
                    entry: LedgerEntry::Opening {
                        stored_uj: node.stored().as_microjoules(),
                    },
                });
            }
        }

        // Per-window, per-node scratch, overwritten every window.
        let mut headroom = vec![0.0; node_count];
        let mut sensed_ok = vec![false; node_count];
        for w in 0..windows_total {
            let t0 = SimTime::from_micros(w * window.as_micros());
            let t1 = t0 + window;
            let truth = timeline.activity_at(t0);
            let truth_dense = activities
                .dense_index(truth)
                .expect("timeline draws from the model's activity set");
            observer.on_event(&SimEvent::WindowStart {
                window: w,
                at_us: t0.as_micros(),
                truth,
            });

            for (n, (node, room)) in nodes.iter().zip(&mut headroom).enumerate() {
                *room = if config.disabled_nodes.iter().any(|d| d.as_usize() == n) {
                    0.0 // a dead sensor never has energy
                } else {
                    let cost = (sense_cost + infer_cost[n]).as_microjoules();
                    node.stored().as_microjoules() / cost
                };
            }
            let anticipated = if config.oracle_anticipation {
                Some(truth)
            } else {
                host.anticipated()
            };
            let plan = policy.plan_observed(w, anticipated, &headroom, observer);

            // AAS hand-off signalling.
            if let Some((from, to)) = plan.signal {
                observer.on_event(&SimEvent::ActivationSignal {
                    window: w,
                    from,
                    to,
                });
                let frame = Message::ActivationSignal {
                    target: to,
                    anticipated: truth, // payload only; content is opaque here
                };
                let bytes = frame.wire_size();
                let tx_cost = self.deployment.costs().tx_cost(bytes);
                let paid = nodes[from.as_usize()].pay(tx_cost);
                if ledger {
                    let uj = if paid { tx_cost.as_microjoules() } else { 0.0 };
                    emit_drawn(observer, w, from, DrawOp::RadioTx, uj);
                }
                bus.send_observed(
                    Endpoint::Node(from),
                    Endpoint::Node(to),
                    frame,
                    t0,
                    &mut rng,
                    observer,
                );
            }

            // Advance every node with its duty for this window.
            for (n, node) in nodes.iter_mut().enumerate() {
                let is_attempter = plan.attempters.iter().any(|a| a.as_usize() == n);
                let duty = if is_attempter {
                    DutyState::Sense
                } else {
                    DutyState::Sleep
                };
                let before = node.counters();
                sensed_ok[n] = node.advance(t0, t1, duty);
                observer.on_event(&SimEvent::HarvestSlice {
                    window: w,
                    node: NodeId::new(n as u32),
                    harvested_uj: (node.counters().harvested - before.harvested).as_microjoules(),
                    stored_uj: node.stored().as_microjoules(),
                });
                if ledger {
                    emit_advance_ledger(observer, w, NodeId::new(n as u32), node.last_advance());
                }
            }

            // Inference attempts.
            let attempts_this = plan.attempters.len() as u64;
            let mut completions_this = 0u64;
            for &attempter in &plan.attempters {
                let n = attempter.as_usize();
                report.attempts += 1;
                observer.on_event(&SimEvent::InferenceAttempt {
                    window: w,
                    node: attempter,
                    headroom: headroom[n],
                });
                if config.disabled_nodes.contains(&attempter) {
                    continue; // a failed sensor produces nothing
                }
                if !sensed_ok[n] {
                    // Browned out while sampling: no usable window.
                    observer.on_event(&SimEvent::InferenceBrownout {
                        window: w,
                        node: attempter,
                        sensed: false,
                    });
                    continue;
                }
                let before = nodes[n].counters();
                if !nodes[n].attempt_window(infer_cost[n]) {
                    let suspended = nodes[n].counters().suspended > before.suspended;
                    if suspended {
                        observer.on_event(&SimEvent::NvpCheckpoint {
                            window: w,
                            node: attempter,
                        });
                    }
                    observer.on_event(&SimEvent::InferenceBrownout {
                        window: w,
                        node: attempter,
                        sensed: true,
                    });
                    if ledger {
                        let uj = (nodes[n].counters().consumed - before.consumed).as_microjoules();
                        let op = if suspended {
                            DrawOp::Checkpoint
                        } else {
                            DrawOp::Lost
                        };
                        emit_drawn(observer, w, attempter, op, uj);
                    }
                    continue;
                }
                if ledger {
                    let uj = (nodes[n].counters().consumed - before.consumed).as_microjoules();
                    emit_drawn(observer, w, attempter, DrawOp::Infer, uj);
                }
                completions_this += 1;
                report.completions += 1;

                let location = SensorLocation::from_index(n).expect("three paper locations");
                let mut imu_window =
                    sample_window(self.models.spec(), truth, location, &config.user, &mut rng);
                if let Some(snr) = config.noise_snr_db {
                    add_noise_snr(&mut imu_window, snr, &mut rng);
                }
                let features = window_features(&imu_window);
                let classification = self
                    .models
                    .classifier(config.variant, location)
                    .classify_with(&mut ws, &features)
                    .expect("feature width matches the trained classifier");

                observer.on_event(&SimEvent::InferenceCompleted {
                    window: w,
                    node: attempter,
                    activity: classification.activity,
                    confidence: classification.confidence,
                });

                let frame = Message::ClassificationReport {
                    node: attempter,
                    activity: classification.activity,
                    confidence: classification.confidence,
                };
                let bytes = frame.wire_size();
                let tx_cost = self.deployment.costs().tx_cost(bytes);
                let paid = nodes[n].pay(tx_cost);
                if ledger {
                    let uj = if paid { tx_cost.as_microjoules() } else { 0.0 };
                    emit_drawn(observer, w, attempter, DrawOp::RadioTx, uj);
                }
                bus.send_observed(
                    Endpoint::Node(attempter),
                    Endpoint::Host,
                    frame,
                    t0,
                    &mut rng,
                    observer,
                );
            }

            if attempts_this > 0 {
                report.attempt_windows += 1;
                if completions_this == attempts_this {
                    report.windows_all_completed += 1;
                } else if completions_this > 0 {
                    report.windows_some_completed += 1;
                } else {
                    report.windows_none_completed += 1;
                }
            }

            // Host ingests reports that arrived within the window.
            for frame in bus.poll(Endpoint::Host, t1) {
                if let Message::ClassificationReport {
                    node,
                    activity,
                    confidence,
                } = frame.message
                {
                    host.on_report_observed(node, activity, confidence, frame.arrives_at, observer);
                }
            }
            // Nodes receive activation signals (pay the rx cost).
            for (n, node) in nodes.iter_mut().enumerate() {
                let id = NodeId::new(n as u32);
                for frame in bus.poll(Endpoint::Node(id), t1) {
                    let bytes = frame.message.wire_size();
                    let rx_cost = self.deployment.costs().rx_cost(bytes);
                    let paid = node.pay(rx_cost);
                    if ledger {
                        let uj = if paid { rx_cost.as_microjoules() } else { 0.0 };
                        emit_drawn(observer, w, id, DrawOp::RadioRx, uj);
                    }
                }
            }

            // All energy movement for this window is done: close the
            // ledger slot on every node (scoring below draws nothing).
            if ledger {
                for (n, node) in nodes.iter().enumerate() {
                    observer.on_event(&SimEvent::Ledger {
                        window: w,
                        node: NodeId::new(n as u32),
                        entry: LedgerEntry::SlotClose {
                            stored_uj: node.stored().as_microjoules(),
                        },
                    });
                }
            }

            // Score the host's current output against ground truth.
            match host.classify_observed(w, observer) {
                Some(prediction) => {
                    let pred_dense = activities
                        .dense_index(prediction)
                        .expect("host votes come from in-set classifiers");
                    report.confusion.record(truth_dense, pred_dense);
                }
                None => {
                    report.no_output_windows += 1;
                    report.missed_by_class[truth_dense] += 1;
                }
            }
        }

        report.messages_sent = bus.sent_count();
        report.messages_dropped = bus.dropped_count();
        report.sent_by_node = bus.sent_by_node().to_vec();
        report.dropped_by_node = bus.dropped_by_node().to_vec();
        report.node_counters = nodes.iter().map(|n| n.counters()).collect();
        report.final_confidence = host.confidence().clone();
        Ok(report)
    }
}

/// Emits the harvest-side ledger flows of one [`EnergyNode::advance`]
/// call: `Harvested` (offered), `ChargeLoss`, `Clipped`, the duty
/// `Drawn` and `Leaked`, in that fixed order.
///
/// Declared under `[hot-paths]` in `lint-allow.toml`: with the ledger
/// enabled this runs once per node per window and must stay
/// allocation-free.
fn emit_advance_ledger<O: SimObserver>(
    observer: &mut O,
    window: u64,
    node: NodeId,
    flows: AdvanceFlows,
) {
    observer.on_event(&SimEvent::Ledger {
        window,
        node,
        entry: LedgerEntry::Harvested {
            uj: flows.offered.as_microjoules(),
        },
    });
    observer.on_event(&SimEvent::Ledger {
        window,
        node,
        entry: LedgerEntry::ChargeLoss {
            uj: flows.charge_loss.as_microjoules(),
        },
    });
    observer.on_event(&SimEvent::Ledger {
        window,
        node,
        entry: LedgerEntry::Clipped {
            uj: flows.clipped.as_microjoules(),
        },
    });
    observer.on_event(&SimEvent::Ledger {
        window,
        node,
        entry: LedgerEntry::Drawn {
            op: DrawOp::Duty,
            uj: flows.duty_drawn.as_microjoules(),
        },
    });
    observer.on_event(&SimEvent::Ledger {
        window,
        node,
        entry: LedgerEntry::Leaked {
            uj: flows.leaked.as_microjoules(),
        },
    });
}

/// Emits one `Drawn` ledger entry. Declared under `[hot-paths]` in
/// `lint-allow.toml` alongside [`emit_advance_ledger`].
fn emit_drawn<O: SimObserver>(observer: &mut O, window: u64, node: NodeId, op: DrawOp, uj: f64) {
    observer.on_event(&SimEvent::Ledger {
        window,
        node,
        entry: LedgerEntry::Drawn { op, uj },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_sensors::DatasetSpec;

    fn quick_sim() -> Simulator {
        let spec = DatasetSpec::mhealth_like().with_windows(10, 6);
        let models = ModelBank::<f64>::train(&spec, 21).expect("training succeeds");
        let deployment = Deployment::builder().seed(21).build();
        Simulator::new(deployment, models)
    }

    fn short(policy: PolicyKind) -> SimConfig {
        SimConfig::new(policy)
            .with_horizon(SimDuration::from_secs(300))
            .with_seed(5)
    }

    #[test]
    fn naive_policy_mostly_fails_on_harvested_energy() {
        let sim = quick_sim();
        let report = sim.run(&short(PolicyKind::NaiveAllOn)).unwrap();
        assert_eq!(report.attempt_windows, report.windows);
        let (_all, _some, none) = report.completion_breakdown();
        assert!(none > 0.5, "naive should mostly fail, none = {none}");
        assert!(report.completion_rate() < 0.5);
    }

    #[test]
    fn rr12_completes_more_than_rr3() {
        let sim = quick_sim();
        let rr3 = sim
            .run(&short(PolicyKind::RoundRobin { cycle: 3 }))
            .unwrap();
        let rr12 = sim
            .run(&short(PolicyKind::RoundRobin { cycle: 12 }))
            .unwrap();
        assert!(
            rr12.completion_rate() > rr3.completion_rate(),
            "rr12 {} <= rr3 {}",
            rr12.completion_rate(),
            rr3.completion_rate()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = quick_sim();
        let cfg = short(PolicyKind::Origin { cycle: 12 });
        let a = sim.run(&cfg).unwrap();
        let b = sim.run(&cfg).unwrap();
        assert_eq!(a.accuracy(), b.accuracy());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    fn fully_powered_naive_always_completes() {
        let spec = DatasetSpec::mhealth_like().with_windows(10, 6);
        let models = ModelBank::<f64>::train(&spec, 22).unwrap();
        let deployment = Deployment::builder().fully_powered().build();
        let sim = Simulator::new(deployment, models);
        let report = sim.run(&short(PolicyKind::NaiveAllOn)).unwrap();
        let (all, _, none) = report.completion_breakdown();
        assert!(all > 0.99, "all = {all}");
        assert_eq!(none, 0.0);
        // With every sensor voting every window, accuracy is solid.
        assert!(report.accuracy() > 0.7, "accuracy = {}", report.accuracy());
    }

    #[test]
    fn origin_reports_adapt_confidence() {
        let sim = quick_sim();
        let report = sim.run(&short(PolicyKind::Origin { cycle: 12 })).unwrap();
        assert!(report.final_confidence.update_count() > 0);
        // AASR does not adapt.
        let report = sim.run(&short(PolicyKind::Aasr { cycle: 12 })).unwrap();
        assert_eq!(report.final_confidence.update_count(), 0);
    }

    #[test]
    fn report_accounts_every_window() {
        let sim = quick_sim();
        let report = sim.run(&short(PolicyKind::Aas { cycle: 6 })).unwrap();
        assert_eq!(
            report.confusion.total() + report.no_output_windows,
            report.windows
        );
        let missed: u64 = report.missed_by_class.iter().sum();
        assert_eq!(missed, report.no_output_windows);
    }

    #[test]
    fn disabled_nodes_never_complete() {
        let sim = quick_sim();
        let cfg = short(PolicyKind::NaiveAllOn).with_disabled_nodes([origin_types::NodeId::new(1)]);
        let report = sim.run(&cfg).unwrap();
        // Node 1 is scheduled (naive schedules everyone) but never
        // completes; its counters show zero completions.
        assert_eq!(report.node_counters[1].completed, 0);
        // The other two still work.
        let others: u64 = report.node_counters[0].completed + report.node_counters[2].completed;
        assert_eq!(report.completions, others);
    }

    #[test]
    fn ledger_conserves_energy_and_matches_breakdown() {
        let sim = quick_sim();
        let mut auditor = origin_telemetry::LedgerAuditor::default();
        let report = sim
            .run_observed(&short(PolicyKind::Origin { cycle: 12 }), &mut auditor)
            .unwrap();
        let audit = auditor.into_report();
        assert!(audit.slots_audited > 0);
        assert!(
            audit.conserved(),
            "max residual {} over {} slots ({} violations)",
            audit.max_residual_uj,
            audit.slots_audited,
            audit.violations.len()
        );
        // The streamed flows must agree with the report's counters.
        let breakdown = report.energy_breakdown();
        assert!((audit.harvested_uj - breakdown.offered.as_microjoules()).abs() < 1e-6);
        assert!((audit.drawn_uj - breakdown.consumed.as_microjoules()).abs() < 1e-6);
        assert!((audit.leaked_uj - breakdown.leaked.as_microjoules()).abs() < 1e-6);
        assert!((audit.clipped_uj - breakdown.clipped.as_microjoules()).abs() < 1e-6);
    }

    #[test]
    fn energy_breakdown_splits_offered_energy() {
        let sim = quick_sim();
        let report = sim.run(&short(PolicyKind::NaiveAllOn)).unwrap();
        let b = report.energy_breakdown();
        assert!(b.offered > Energy::ZERO);
        let split = b.harvested + b.charge_loss + b.clipped;
        assert!(
            (split.as_microjoules() - b.offered.as_microjoules()).abs() < 1e-6,
            "offered {} != split {}",
            b.offered,
            split
        );
    }

    #[test]
    fn report_display_is_informative() {
        let sim = quick_sim();
        let report = sim.run(&short(PolicyKind::Origin { cycle: 12 })).unwrap();
        let text = report.to_string();
        assert!(text.contains("RR12 Origin"));
        assert!(text.contains("top-1"));
        assert!(text.contains("radio:"));
    }

    #[test]
    fn bad_cycle_errors() {
        let sim = quick_sim();
        let err = sim
            .run(&short(PolicyKind::RoundRobin { cycle: 7 }))
            .unwrap_err();
        assert!(matches!(err, CoreError::BadCycle { .. }));
    }
}
