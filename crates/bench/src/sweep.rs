//! Parallel deterministic sweep engine for (seed × policy × user) grids.
//!
//! The grid's cells fan out over worker threads through
//! [`parallel_map`], the workspace's one worker loop, while the output
//! stays **bitwise deterministic regardless of thread count**:
//!
//! * each cell derives its RNG stream from its grid coordinates (seed
//!   replica × user) through a splitmix64 finalizer ([`cell_stream`]) —
//!   no cell ever reads another cell's RNG, and no RNG state is shared
//!   across workers;
//! * the policy axis deliberately does **not** enter the stream, so every
//!   policy in a cell column sees the same simulated world and
//!   comparisons (win rates) are paired;
//! * workers race only for *which* cell to run next, never for what a
//!   result means — aggregation (mean, std, 95% CI, win rate) happens
//!   after the join, in cell-id order;
//! * the trained models and deployment are shared across workers through
//!   the [`ExperimentContext`]'s `Arc` handles, so training happens once
//!   per dataset rather than once per cell.
//!
//! This is the **enumerated** engine: it retains every cell result
//! ([`SweepReport::cells`]), which is exactly right for paper-scale grids
//! where per-cell traces and child manifests matter. For
//! population-scale studies (10⁵–10⁶ sampled users) the sibling
//! [`fleet`](crate::fleet) engine streams cells through O(1)
//! [`OnlineStats`](crate::stats::OnlineStats) accumulators instead and
//! adds checkpoint/resume. The two engines share the worker loop, one
//! stderr heartbeat ([`SweepOptions::progress`]), one policy dispatch
//! (a cell's [`SweepPolicy`] picks its config and simulator the same way
//! in both), [`cell_stream`], the policy-pairing discipline and the
//! manifest result-key vocabulary.
//!
//! The engine threads the existing [`SimObserver`](origin_telemetry::SimObserver)
//! machinery through: with [`SweepOptions::instrument`] each cell records
//! its own JSONL event trace and metrics, and [`SweepReport::to_manifest`]
//! merges one child [`RunManifest`] per cell (its metrics snapshot and
//! event count, not the JSONL text) into a single run manifest.
//!
//! The `sweep` binary exposes the engine on the command line
//! (`--seeds N --policies origin12,bl2 --users N --threads N --json …`);
//! `cohort`, `ablation` and `reproduce_all` run on top of it. The full
//! CLI surface is documented in `docs/OPERATIONS.md`.

use crate::stats::Aggregate;
use crate::with_heartbeat;
use origin_core::experiments::{cohort_user, ExperimentContext};
use origin_core::{
    fully_powered_simulator, parallel_map, BaselineKind, CoreError, PolicyKind, SimConfig,
    SimReport, Simulator,
};
use origin_nn::{KernelPath, Scalar};
use origin_sensors::UserProfile;
use origin_telemetry::{
    JsonValue, JsonlObserver, LedgerAuditReport, LedgerAuditor, MetricsObserver, MetricsRegistry,
    ProgressMeter, RunManifest, SpanObserver, Tee,
};
use origin_types::UserId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// splitmix64 finalizer: a bijective avalanche mix, the standard way to
/// turn structured coordinates into decorrelated RNG seeds.
#[must_use]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream of the cell at (`seed_idx`, `user_idx`) under
/// `base_seed`.
///
/// The policy axis is intentionally absent: all policies of one
/// (seed, user) column share a world, which keeps policy comparisons
/// paired (the same timeline, link losses and runtime noise). The
/// fleet engine ([`crate::fleet`]) shares this derivation, so a
/// population column sees the same world family as an enumerated cell
/// at the same coordinates.
///
/// Streams are truncated to 53 bits so a cell's seed survives the JSON
/// manifest round-trip exactly (the manifest's number type is an `f64`).
///
/// # Examples
///
/// ```
/// use origin_bench::sweep::cell_stream;
///
/// // Deterministic, decorrelated, and 53-bit JSON-safe.
/// assert_eq!(cell_stream(77, 0, 1), cell_stream(77, 0, 1));
/// assert_ne!(cell_stream(77, 0, 1), cell_stream(77, 1, 0));
/// assert!(cell_stream(77, 0, 1) < (1 << 53));
/// ```
#[must_use]
pub fn cell_stream(base_seed: u64, seed_idx: u32, user_idx: u32) -> u64 {
    mix64(base_seed ^ mix64((u64::from(seed_idx) << 32) | u64::from(user_idx))) & ((1 << 53) - 1)
}

/// One policy arm of a sweep: either a scheduling policy on harvested
/// energy or one of the paper's fully-powered baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPolicy {
    /// A scheduling policy running on the EH deployment.
    Policy(PolicyKind),
    /// A fully-powered baseline (BL-1 / BL-2).
    Baseline(BaselineKind),
}

impl SweepPolicy {
    /// Human-readable label ("RR12 Origin", "BL-2", …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SweepPolicy::Policy(p) => p.label(),
            SweepPolicy::Baseline(b) => b.label().to_owned(),
        }
    }

    /// Whether this arm is a fully-powered baseline.
    #[must_use]
    pub fn is_baseline(&self) -> bool {
        matches!(self, SweepPolicy::Baseline(_))
    }

    /// Parses one `--policies` element.
    ///
    /// Accepted: `naive`, `bl1`, `bl2`, and `rr`/`aas`/`aasr`/`origin`
    /// followed by the ER-r cycle (`origin12`, `aasr6`, `rr3`).
    ///
    /// # Examples
    ///
    /// ```
    /// use origin_bench::sweep::SweepPolicy;
    ///
    /// assert_eq!(SweepPolicy::parse("origin12").unwrap().label(), "RR12 Origin");
    /// assert!(SweepPolicy::parse("bl2").unwrap().is_baseline());
    /// assert!(SweepPolicy::parse("warp9").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Describes the accepted grammar when `spec` does not match it.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let lower = spec.trim().to_lowercase();
        match lower.as_str() {
            "naive" => return Ok(SweepPolicy::Policy(PolicyKind::NaiveAllOn)),
            "bl1" => return Ok(SweepPolicy::Baseline(BaselineKind::Baseline1)),
            "bl2" => return Ok(SweepPolicy::Baseline(BaselineKind::Baseline2)),
            _ => {}
        }
        // Longest prefix first: "aasr" must win over "aas".
        for (prefix, make) in [
            ("origin", PolicyKind::Origin { cycle: 0 }),
            ("aasr", PolicyKind::Aasr { cycle: 0 }),
            ("aas", PolicyKind::Aas { cycle: 0 }),
            ("rr", PolicyKind::RoundRobin { cycle: 0 }),
        ] {
            if let Some(rest) = lower.strip_prefix(prefix) {
                let cycle: u8 = rest.parse().map_err(|_| {
                    format!("policy {spec:?}: expected a cycle after {prefix:?}, e.g. {prefix}12")
                })?;
                return Ok(SweepPolicy::Policy(match make {
                    PolicyKind::Origin { .. } => PolicyKind::Origin { cycle },
                    PolicyKind::Aasr { .. } => PolicyKind::Aasr { cycle },
                    PolicyKind::Aas { .. } => PolicyKind::Aas { cycle },
                    _ => PolicyKind::RoundRobin { cycle },
                }));
            }
        }
        Err(format!(
            "unknown policy {spec:?}: expected naive, bl1, bl2, or rr/aas/aasr/origin followed \
             by a cycle (e.g. origin12)"
        ))
    }

    /// Parses a comma-separated `--policies` list.
    ///
    /// # Errors
    ///
    /// Propagates the first element that fails [`SweepPolicy::parse`].
    pub fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        list.split(',')
            .filter(|s| !s.trim().is_empty())
            .map(Self::parse)
            .collect()
    }

    /// Points `config` at this arm and returns the simulator that runs
    /// it: a policy arm runs on the harvesting deployment, a baseline arm
    /// on the fully-powered one with its model variant. Both engines
    /// dispatch every cell through here.
    pub(crate) fn dispatch<'s, S: Scalar>(
        self,
        config: &mut SimConfig,
        harvest: &'s Simulator<S>,
        baseline: &'s Simulator<S>,
    ) -> &'s Simulator<S> {
        match self {
            SweepPolicy::Policy(kind) => {
                config.policy = kind;
                harvest
            }
            SweepPolicy::Baseline(kind) => {
                config.variant = kind.variant();
                baseline
            }
        }
    }
}

impl core::fmt::Display for SweepPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A full factorial (seed replica × policy × user) grid.
///
/// Grids enumerate every combination and retain every cell — the
/// paper-scale shape. For sampled populations at fleet scale, use a
/// [`FleetPlan`](crate::fleet::FleetPlan) instead.
///
/// # Examples
///
/// ```
/// use origin_bench::sweep::{SweepGrid, SweepPolicy};
///
/// let grid = SweepGrid::new(77, SweepPolicy::parse_list("origin12,bl2").unwrap())
///     .with_seeds(3)
///     .with_sampled_users(2);
/// assert_eq!(grid.len(), 12); // 3 seeds x 2 policies x 2 users
/// // Paired arms share a world; the policy axis never enters the stream.
/// let cells = grid.cells();
/// assert_eq!(cells[0].sim_seed, cells[2].sim_seed);
/// ```
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Base seed every cell stream is derived from.
    pub base_seed: u64,
    /// Number of seed replicas (the statistical axis).
    pub seed_count: u32,
    /// The policy arms.
    pub policies: Vec<SweepPolicy>,
    /// The wearers.
    pub users: Vec<UserProfile>,
}

/// One cell's grid coordinates plus its derived RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Flat cell id (row-major over seed → policy → user).
    pub id: usize,
    /// Seed-replica coordinate.
    pub seed_idx: u32,
    /// Policy coordinate (index into [`SweepGrid::policies`]).
    pub policy_idx: usize,
    /// User coordinate (index into [`SweepGrid::users`]).
    pub user_idx: u32,
    /// The simulation seed derived from the coordinates.
    pub sim_seed: u64,
}

impl SweepGrid {
    /// A grid of `policies` with one seed replica and the nominal wearer.
    ///
    /// # Panics
    ///
    /// Panics on an empty policy list (a grid with no cells).
    #[must_use]
    pub fn new(base_seed: u64, policies: Vec<SweepPolicy>) -> Self {
        assert!(!policies.is_empty(), "sweep grid needs at least one policy");
        Self {
            base_seed,
            seed_count: 1,
            policies,
            users: vec![UserProfile::nominal(UserId::new(0))],
        }
    }

    /// Sets the number of seed replicas. Builder-style.
    #[must_use]
    pub fn with_seeds(mut self, seed_count: u32) -> Self {
        self.seed_count = seed_count.max(1);
        self
    }

    /// Replaces the wearers. Builder-style.
    ///
    /// # Panics
    ///
    /// Panics on an empty user list.
    #[must_use]
    pub fn with_users(mut self, users: Vec<UserProfile>) -> Self {
        assert!(!users.is_empty(), "sweep grid needs at least one user");
        self.users = users;
        self
    }

    /// Replaces the wearers with `n` cohort-sampled profiles (the same
    /// population [`run_cohort`](origin_core::experiments::run_cohort)
    /// draws from). Builder-style.
    #[must_use]
    pub fn with_sampled_users(self, n: u32) -> Self {
        let base = self.base_seed;
        self.with_users((0..n.max(1)).map(|u| cohort_user(base, u)).collect())
    }

    /// Total cell count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seed_count as usize * self.policies.len() * self.users.len()
    }

    /// Whether the grid is empty (never true for a constructed grid).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cell in id order (row-major over seed → policy → user).
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for seed_idx in 0..self.seed_count {
            for policy_idx in 0..self.policies.len() {
                for user_idx in 0..self.users.len() as u32 {
                    cells.push(SweepCell {
                        id: cells.len(),
                        seed_idx,
                        policy_idx,
                        user_idx,
                        sim_seed: cell_stream(self.base_seed, seed_idx, user_idx),
                    });
                }
            }
        }
        cells
    }
}

/// Execution knobs for [`run_sweep`] (none of these may influence the
/// results — that is the engine's determinism contract).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 means
    /// [`available_threads`](origin_core::available_threads).
    pub threads: usize,
    /// Record a per-cell JSONL event trace and metrics snapshot through
    /// the `SimObserver` stack (slower, more memory; results unchanged).
    pub instrument: bool,
    /// Stream the per-slot energy ledger through each cell's trace and
    /// audit conservation as the cell runs (implies a per-cell trace,
    /// like [`SweepOptions::instrument`]; results unchanged).
    pub ledger: bool,
    /// Record a logical-time span trace per cell (implies a per-cell
    /// trace; results unchanged).
    pub spans: bool,
    /// Stream cell-completion progress (counts, cells/s, ETA) to stderr.
    /// Purely cosmetic: the report and manifest stay byte-identical.
    pub progress: bool,
    /// The NN [`KernelPath`] every cell's simulation dispatches to. Both
    /// paths are bitwise identical, so this knob keeps the determinism
    /// contract trivially; it exists for scalar-vs-unrolled A/B runs.
    pub kernel_path: KernelPath,
}

impl SweepOptions {
    /// Whether any per-cell trace capture is requested.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.instrument || self.ledger || self.spans
    }
}

/// A cell's captured telemetry (present when any of
/// [`SweepOptions::instrument`], [`SweepOptions::ledger`] or
/// [`SweepOptions::spans`] was set).
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The JSONL event trace, one event per line (includes the ledger
    /// flow lines when [`SweepOptions::ledger`] was set).
    pub jsonl: String,
    /// Total events emitted.
    pub events: u64,
    /// Aggregated metrics from the event stream.
    pub metrics: MetricsRegistry,
    /// The conservation audit (present when [`SweepOptions::ledger`]).
    pub audit: Option<LedgerAuditReport>,
    /// The span trace as JSONL (present when [`SweepOptions::spans`]),
    /// with ids based at `cell_id << 32` so shards concatenate safely.
    pub spans: Option<String>,
}

/// One evaluated cell.
#[derive(Debug, Clone)]
pub struct SweepCellResult {
    /// The cell's coordinates.
    pub cell: SweepCell,
    /// The simulation outcome.
    pub report: SimReport,
    /// Telemetry, when instrumented.
    pub trace: Option<CellTrace>,
}

/// The joined sweep: every cell in id order plus the grid it came from.
///
/// Aggregation ([`SweepReport::accuracy_aggregate`],
/// [`SweepReport::win_rate`]) is two-pass over the retained cells; the
/// fleet engine's [`FleetReport`](crate::fleet::FleetReport) produces
/// the same statistics from streamed
/// [`OnlineStats`](crate::stats::OnlineStats) without retaining cells.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The grid that was evaluated.
    pub grid: SweepGrid,
    /// Per-cell results, indexed by cell id.
    pub cells: Vec<SweepCellResult>,
}

impl SweepReport {
    /// Accuracies of policy arm `policy_idx`, ordered by (seed, user).
    #[must_use]
    pub fn accuracies(&self, policy_idx: usize) -> Vec<f64> {
        self.metric(policy_idx, SimReport::accuracy)
    }

    /// Completion rates of policy arm `policy_idx`, ordered by
    /// (seed, user).
    #[must_use]
    pub fn completion_rates(&self, policy_idx: usize) -> Vec<f64> {
        self.metric(policy_idx, SimReport::completion_rate)
    }

    fn metric(&self, policy_idx: usize, f: impl Fn(&SimReport) -> f64) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| c.cell.policy_idx == policy_idx)
            .map(|c| f(&c.report))
            .collect()
    }

    /// Accuracy statistics of policy arm `policy_idx`.
    #[must_use]
    pub fn accuracy_aggregate(&self, policy_idx: usize) -> Aggregate {
        Aggregate::from_values(&self.accuracies(policy_idx))
    }

    /// Completion-rate statistics of policy arm `policy_idx`.
    #[must_use]
    pub fn completion_aggregate(&self, policy_idx: usize) -> Aggregate {
        Aggregate::from_values(&self.completion_rates(policy_idx))
    }

    /// Fraction of paired (seed, user) cells where arm `a` is strictly
    /// more accurate than arm `b`. Pairing is exact: both arms of a pair
    /// simulated the same world (see [`cell_stream`]).
    #[must_use]
    pub fn win_rate(&self, a: usize, b: usize) -> f64 {
        let av = self.accuracies(a);
        let bv = self.accuracies(b);
        if av.is_empty() || av.len() != bv.len() {
            return 0.0;
        }
        av.iter().zip(&bv).filter(|(x, y)| x > y).count() as f64 / av.len() as f64
    }

    /// The merged run manifest: grid configuration, per-arm aggregates,
    /// pairwise win rates against every baseline arm, and one child
    /// manifest per cell (with its metrics snapshot when instrumented).
    ///
    /// Byte-identical across thread counts: nothing here depends on
    /// wall-clock or scheduling (the determinism test pins this).
    #[must_use]
    pub fn to_manifest(&self, name: &str) -> RunManifest {
        let grid = &self.grid;
        let policy_list = grid
            .policies
            .iter()
            .map(SweepPolicy::label)
            .collect::<Vec<_>>()
            .join(", ");
        let mut manifest = RunManifest::new(name, grid.base_seed, &policy_list)
            .with_config("seeds", grid.seed_count)
            .with_config("users", grid.users.len())
            .with_config("policies", &policy_list)
            .with_config("cells", self.cells.len())
            .with_config("cells_total", grid.len())
            .with_config("cells_completed", self.cells.len());
        for (i, policy) in grid.policies.iter().enumerate() {
            let key = key_label(&policy.label());
            let acc = self.accuracy_aggregate(i);
            let com = self.completion_aggregate(i);
            manifest = manifest
                .with_result(&format!("{key}_accuracy_mean"), acc.mean.into())
                .with_result(&format!("{key}_accuracy_std"), acc.std.into())
                .with_result(&format!("{key}_accuracy_ci95"), acc.ci95.into())
                .with_result(&format!("{key}_completion_mean"), com.mean.into());
            for (suffix, value) in self.energy_means(i) {
                manifest = manifest.with_result(&format!("{key}_{suffix}"), value.into());
            }
        }
        for (i, policy) in grid.policies.iter().enumerate() {
            if policy.is_baseline() {
                continue;
            }
            for (j, baseline) in grid.policies.iter().enumerate() {
                if !baseline.is_baseline() {
                    continue;
                }
                let key = format!(
                    "{}_win_rate_vs_{}",
                    key_label(&policy.label()),
                    key_label(&baseline.label())
                );
                manifest = manifest.with_result(&key, self.win_rate(i, j).into());
            }
        }
        for cell in &self.cells {
            manifest = manifest.with_child(self.cell_manifest(cell));
        }
        manifest
    }

    fn cell_manifest(&self, result: &SweepCellResult) -> RunManifest {
        let cell = result.cell;
        let policy = &self.grid.policies[cell.policy_idx];
        let mut child = RunManifest::new(
            &format!("cell_{:04}", cell.id),
            cell.sim_seed,
            &policy.label(),
        )
        .with_config("seed_idx", cell.seed_idx)
        .with_config("user_idx", cell.user_idx)
        .with_config("user", self.grid.users[cell.user_idx as usize].user)
        .with_result("accuracy", result.report.accuracy().into())
        .with_result("completion_rate", result.report.completion_rate().into())
        .with_result("windows", JsonValue::from(result.report.windows))
        .with_result("attempts", JsonValue::from(result.report.attempts))
        .with_result("completions", JsonValue::from(result.report.completions));
        if let Some(trace) = &result.trace {
            child = child
                .with_metrics(&trace.metrics)
                .with_result("events", JsonValue::from(trace.events));
            if let Some(audit) = &trace.audit {
                child = child
                    .with_result("ledger_slots_audited", JsonValue::from(audit.slots_audited))
                    .with_result("ledger_max_residual_uj", audit.max_residual_uj.into())
                    .with_result("ledger_conserved", JsonValue::Bool(audit.conserved()));
            }
            if let Some(spans) = &trace.spans {
                child = child.with_result(
                    "span_records",
                    JsonValue::from(spans.lines().count() as u64),
                );
            }
        }
        child
    }

    /// Per-arm mean energy flows in µJ, as `(result-key suffix, mean)`
    /// pairs derived from each cell's [`SimReport::energy_breakdown`].
    fn energy_means(&self, policy_idx: usize) -> Vec<(&'static str, f64)> {
        let mean = |f: &dyn Fn(&SimReport) -> f64| {
            Aggregate::from_values(&self.metric(policy_idx, f)).mean
        };
        vec![
            (
                "offered_uj_mean",
                mean(&|r| r.energy_breakdown().offered.as_microjoules()),
            ),
            (
                "harvested_uj_mean",
                mean(&|r| r.energy_breakdown().harvested.as_microjoules()),
            ),
            (
                "consumed_uj_mean",
                mean(&|r| r.energy_breakdown().consumed.as_microjoules()),
            ),
            (
                "charge_loss_uj_mean",
                mean(&|r| r.energy_breakdown().charge_loss.as_microjoules()),
            ),
            (
                "clipped_uj_mean",
                mean(&|r| r.energy_breakdown().clipped.as_microjoules()),
            ),
            (
                "leaked_uj_mean",
                mean(&|r| r.energy_breakdown().leaked.as_microjoules()),
            ),
        ]
    }
}

/// Sanitizes a policy label into a manifest/metric key fragment
/// (shared with the fleet engine so both manifests speak the same
/// result-key vocabulary).
#[must_use]
pub(crate) fn key_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Evaluates `grid` over `ctx` in parallel.
///
/// The context's trained models and deployment are shared (not cloned)
/// across all workers; fully-powered baseline arms additionally share one
/// steady-supply simulator. Cells run at the context's horizon.
///
/// # Errors
///
/// Returns the failing cell with the lowest id (deterministic even
/// though later cells may have failed too).
pub fn run_sweep<S: Scalar>(
    ctx: &ExperimentContext<S>,
    grid: &SweepGrid,
    opts: &SweepOptions,
) -> Result<SweepReport, CoreError> {
    let harvest_sim = ctx.simulator();
    let baseline_sim = fully_powered_simulator(Arc::clone(&ctx.models));
    let cells = grid.cells();
    let completed = AtomicU64::new(0);
    let meter = opts
        .progress
        .then(|| ProgressMeter::new("sweep", "cells", cells.len() as u64));
    let outcomes = with_heartbeat(meter, &completed, || {
        parallel_map(opts.threads, &cells, |_, cell| {
            let outcome = run_cell(ctx, grid, &harvest_sim, &baseline_sim, *cell, opts);
            completed.fetch_add(1, Ordering::Relaxed);
            outcome
        })
    });
    Ok(SweepReport {
        grid: grid.clone(),
        cells: outcomes.into_iter().collect::<Result<_, _>>()?,
    })
}

fn run_cell<S: Scalar>(
    ctx: &ExperimentContext<S>,
    grid: &SweepGrid,
    harvest_sim: &Simulator<S>,
    baseline_sim: &Simulator<S>,
    cell: SweepCell,
    opts: &SweepOptions,
) -> Result<SweepCellResult, CoreError> {
    let policy = grid.policies[cell.policy_idx];
    let user = grid.users[cell.user_idx as usize];
    let mut config = SimConfig::new(PolicyKind::NaiveAllOn)
        .with_horizon(ctx.horizon)
        .with_seed(cell.sim_seed)
        .with_user(user)
        .with_kernel_path(opts.kernel_path);
    let sim = policy.dispatch(&mut config, harvest_sim, baseline_sim);
    if !opts.traced() {
        return Ok(SweepCellResult {
            cell,
            report: sim.run(&config)?,
            trace: None,
        });
    }
    let spans = opts.spans.then(|| {
        SpanObserver::for_cell(&format!("cell_{:04} {}", cell.id, policy.label()))
            .with_id_base((cell.id as u64) << 32)
    });
    let (report, trace) = run_traced_cell(sim, &config, opts.ledger, spans)?;
    Ok(SweepCellResult {
        cell,
        report,
        trace: Some(trace),
    })
}

/// Runs one traced cell under the engine's observer stack and returns
/// its report and [`CellTrace`].
///
/// One statically-dispatched stack: the JSONL/metrics pair is always
/// present, while the ledger auditor (`ledger`) and the span recorder
/// (`spans`) are `Option` observers that stay inert, and keep
/// `wants_ledger` false, when absent.
///
/// # Errors
///
/// Propagates the simulator's [`CoreError`].
pub fn run_traced_cell<S: Scalar>(
    sim: &Simulator<S>,
    config: &SimConfig,
    ledger: bool,
    spans: Option<SpanObserver>,
) -> Result<(SimReport, CellTrace), CoreError> {
    let mut observer = Tee(
        Tee(JsonlObserver::new(Vec::new()), MetricsObserver::new()),
        Tee(ledger.then(LedgerAuditor::default), spans),
    );
    let report = sim.run_observed(config, &mut observer)?;
    let Tee(Tee(jsonl, metrics), Tee(auditor, spans)) = observer;
    let events = jsonl.events_written();
    let bytes = jsonl.finish().expect("Vec<u8> writes are infallible");
    let trace = CellTrace {
        jsonl: String::from_utf8(bytes).expect("JSON output is UTF-8"),
        events,
        metrics: metrics.into_metrics(),
        audit: auditor.map(LedgerAuditor::into_report),
        spans: spans.map(|mut s| s.to_jsonl()),
    };
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_models;
    use origin_core::experiments::Dataset;
    use origin_core::Deployment;
    use origin_types::SimDuration;

    #[test]
    fn policy_specs_parse() {
        assert_eq!(
            SweepPolicy::parse("origin12").unwrap(),
            SweepPolicy::Policy(PolicyKind::Origin { cycle: 12 })
        );
        assert_eq!(
            SweepPolicy::parse("AASR6").unwrap(),
            SweepPolicy::Policy(PolicyKind::Aasr { cycle: 6 })
        );
        assert_eq!(
            SweepPolicy::parse("aas3").unwrap(),
            SweepPolicy::Policy(PolicyKind::Aas { cycle: 3 })
        );
        assert_eq!(
            SweepPolicy::parse("rr9").unwrap(),
            SweepPolicy::Policy(PolicyKind::RoundRobin { cycle: 9 })
        );
        assert_eq!(
            SweepPolicy::parse("bl2").unwrap(),
            SweepPolicy::Baseline(BaselineKind::Baseline2)
        );
        assert_eq!(
            SweepPolicy::parse("naive").unwrap(),
            SweepPolicy::Policy(PolicyKind::NaiveAllOn)
        );
        assert!(SweepPolicy::parse("origin").is_err());
        assert!(SweepPolicy::parse("warp9").is_err());
        let list = SweepPolicy::parse_list("origin12, bl2").unwrap();
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn cell_streams_are_decorrelated() {
        let a = cell_stream(77, 0, 0);
        let b = cell_stream(77, 1, 0);
        let c = cell_stream(77, 0, 1);
        let d = cell_stream(78, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
        assert_eq!(a, cell_stream(77, 0, 0));
    }

    #[test]
    fn aggregate_statistics_are_textbook() {
        let agg = Aggregate::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(agg.n, 8);
        assert!((agg.mean - 5.0).abs() < 1e-12);
        // Sample std of this classic set is sqrt(32/7).
        assert!((agg.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((agg.ci95 - 1.96 * agg.std / 8.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(Aggregate::from_values(&[0.5]).ci95, 0.0);
        assert_eq!(Aggregate::from_values(&[]).n, 0);
    }

    #[test]
    fn grid_enumerates_row_major() {
        let grid = SweepGrid::new(
            7,
            vec![
                SweepPolicy::Policy(PolicyKind::Origin { cycle: 12 }),
                SweepPolicy::Baseline(BaselineKind::Baseline2),
            ],
        )
        .with_seeds(3)
        .with_sampled_users(2);
        assert_eq!(grid.len(), 12);
        let cells = grid.cells();
        assert_eq!(cells.len(), 12);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.id, i);
        }
        // Policy does not enter the stream: paired arms share a world.
        assert_eq!(cells[0].sim_seed, cells[2].sim_seed);
        assert_ne!(cells[0].sim_seed, cells[1].sim_seed);
    }

    /// A small end-to-end sweep: aggregates, pairing and instrumentation.
    #[test]
    fn small_sweep_aggregates_and_instruments() {
        let ctx = ExperimentContext::from_parts(
            Dataset::Mhealth,
            bench_models(5),
            Deployment::builder().seed(5).build(),
            5,
        )
        .with_horizon(SimDuration::from_secs(120));
        let grid = SweepGrid::new(
            5,
            vec![
                SweepPolicy::Policy(PolicyKind::Origin { cycle: 12 }),
                SweepPolicy::Baseline(BaselineKind::Baseline2),
            ],
        )
        .with_seeds(2);
        let report = run_sweep(
            &ctx,
            &grid,
            &SweepOptions {
                threads: 2,
                instrument: true,
                ledger: true,
                spans: true,
                ..SweepOptions::default()
            },
        )
        .expect("sweep succeeds");
        assert_eq!(report.cells.len(), 4);
        let acc = report.accuracy_aggregate(0);
        assert_eq!(acc.n, 2);
        assert!(acc.mean > 0.0 && acc.mean <= 1.0);
        let win = report.win_rate(0, 1);
        assert!((0.0..=1.0).contains(&win));
        for cell in &report.cells {
            let trace = cell.trace.as_ref().expect("instrumented");
            assert_eq!(trace.jsonl.lines().count() as u64, trace.events);
            let audit = trace.audit.as_ref().expect("ledger audit captured");
            assert!(audit.slots_audited > 0);
            assert!(audit.conserved(), "residual {}", audit.max_residual_uj);
            let spans = trace.spans.as_ref().expect("span trace captured");
            assert!(spans.lines().count() > 0);
        }
        let manifest = report.to_manifest("sweep_test");
        assert_eq!(manifest.children.len(), 4);
        let parsed = RunManifest::parse(&manifest.render_pretty()).expect("manifest parses");
        assert_eq!(parsed, manifest);
        assert!(parsed
            .results
            .iter()
            .any(|(k, _)| k == "rr12_origin_win_rate_vs_bl_2"));
        assert!(parsed
            .results
            .iter()
            .any(|(k, _)| k == "rr12_origin_harvested_uj_mean"));
        assert!(parsed
            .children
            .iter()
            .all(|c| c.results.iter().any(|(k, _)| k == "ledger_conserved")));
    }
}
