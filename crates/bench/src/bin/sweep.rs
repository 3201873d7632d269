//! The sweep engine on the command line: evaluate a (seed × policy ×
//! user) grid in parallel and print per-policy aggregates — or, with
//! `--population N`, stream a sampled-population fleet study through
//! O(1) accumulators with checkpoint/resume.
//!
//! Usage (enumerated grid):
//!
//! ```text
//! cargo run -p origin-bench --bin sweep --release -- \
//!     --seeds 5 --policies origin12,aasr12,bl2 --users 4 \
//!     --threads 4 --json results/sweep.json
//! ```
//!
//! Usage (population study — see `docs/OPERATIONS.md` for the full
//! operator's guide):
//!
//! ```text
//! cargo run -p origin-bench --bin sweep --release -- \
//!     --population 1000000 --policies origin12,rr12 --horizon 60 \
//!     --threads 8 --checkpoint-every 16 --json results/population.json
//! # interrupted? pick up where the last checkpoint left off:
//! cargo run -p origin-bench --bin sweep --release -- \
//!     --population 1000000 --policies origin12,rr12 --horizon 60 \
//!     --threads 8 --checkpoint-every 16 --resume results/population.json \
//!     --json results/population.json
//! ```
//!
//! Flags (all optional): `--seed BASE` (77), `--seeds N` (3 enumerated,
//! 1 population), `--policies LIST` (`origin12,bl2`), `--users N` (1;
//! larger values sample a cohort), `--horizon SECS` (3600), `--threads N`
//! (0 = auto), `--instrument 1` (record each cell's event stream and put
//! its metrics snapshot and event count in the manifest; the JSONL text
//! itself is not written anywhere), `--ledger 1` (stream the per-slot energy ledger, audit
//! conservation per cell, and print a per-policy energy table; exits
//! nonzero if any slot fails the audit), `--spans PATH` (write
//! logical-time span traces for all cells to one JSONL file — feed it to
//! `trace_summary`), `--progress 1` (cells/s + ETA heartbeat on stderr),
//! `--precision {f64,f32}` (kernel dtype; `f64` is the golden default),
//! `--kernel-path {scalar,unrolled}` (NN kernel implementation; the two
//! are bitwise identical, so the default `unrolled` changes nothing but
//! speed — the flag exists for A/B verification, and the manifest
//! records it only when non-default), `--json PATH` (write the merged
//! run manifest).
//!
//! Population-only flags: `--population N` (sample N users instead of
//! enumerating a grid; per-cell flags `--instrument/--ledger/--spans`
//! are rejected at this scale), `--shard-size N` (4096 columns per
//! shard), `--checkpoint-every K` (write the manifest after every K
//! completed shards; requires `--json`), `--resume PATH` (load a
//! checkpoint manifest and skip its completed shards), `--max-shards N`
//! (stop after N shards with a partial, resumable manifest).
//!
//! The report — and the `--json` manifest — is bitwise identical for any
//! `--threads` value, and a resumed run's final manifest is
//! byte-identical to an uninterrupted one (`tests/sweep_determinism.rs`
//! pins both). The ledger, span and progress paths never perturb the
//! default stdout report: committed goldens regenerate byte-identically
//! with or without them.

use origin_bench::fleet::{
    resume_states, run_fleet, FleetOptions, FleetPlan, FleetReport, DEFAULT_SHARD_SIZE,
};
use origin_bench::sweep::{run_sweep, SweepGrid, SweepOptions, SweepPolicy, SweepReport};
use origin_bench::{write_manifest_file, BenchArgs, Precision};
use origin_core::experiments::{Dataset, ExperimentContext};
use origin_core::{available_threads, PopulationSpec};
use origin_nn::{KernelPath, Scalar};
use origin_types::SimDuration;

fn print_report(report: &SweepReport, seeds: u32, users: usize) {
    println!(
        "{:<14} {:>6} {:>18} {:>8} {:>12}",
        "policy", "n", "accuracy", "std", "completion"
    );
    for (i, policy) in report.grid.policies.iter().enumerate() {
        let acc = report.accuracy_aggregate(i);
        let com = report.completion_aggregate(i);
        println!(
            "{:<14} {:>6} {:>18} {:>7.2}% {:>11.2}%",
            policy.label(),
            acc.n,
            acc.fmt_pct(),
            acc.std * 100.0,
            com.mean * 100.0
        );
    }
    for (i, policy) in report.grid.policies.iter().enumerate() {
        if policy.is_baseline() {
            continue;
        }
        for (j, baseline) in report.grid.policies.iter().enumerate() {
            if !baseline.is_baseline() {
                continue;
            }
            println!(
                "win rate {} vs {}: {:.0}% of {} paired runs",
                policy.label(),
                baseline.label(),
                report.win_rate(i, j) * 100.0,
                seeds as usize * users
            );
        }
    }
}

/// Runs a `--population N` fleet study: sampled users, streaming
/// accumulators, optional checkpoint/resume.
fn run_population<S: Scalar>(args: &BenchArgs, population: u32) {
    let base_seed = args.u64_flag("seed", 77);
    let seeds = u32::try_from(args.u64_flag("seeds", 1)).unwrap_or(1);
    let horizon = args.u64_flag("horizon", ExperimentContext::<S>::DEFAULT_HORIZON_SECS);
    let shard_size = u32::try_from(args.u64_flag("shard-size", u64::from(DEFAULT_SHARD_SIZE)))
        .unwrap_or(DEFAULT_SHARD_SIZE);
    let checkpoint_every = args.u64_flag("checkpoint-every", 0);
    let max_shards = args.flag("max-shards").map(|s| {
        s.parse::<u64>()
            .unwrap_or_else(|e| panic!("--max-shards {s:?}: {e}"))
    });
    let precision = args.precision();
    let policies = SweepPolicy::parse_list(args.flag("policies").unwrap_or("origin12,bl2"))
        .unwrap_or_else(|e| panic!("{e}"));
    for flag in ["instrument", "ledger", "spans"] {
        assert!(
            args.flag(flag).is_none(),
            "--{flag} captures per-cell traces and is not available with --population \
             (the fleet engine keeps O(1) state per cell); drop --population to trace cells"
        );
    }
    assert!(
        checkpoint_every == 0 || args.json_path().is_some(),
        "--checkpoint-every needs --json PATH: checkpoints are written to the manifest path"
    );

    let plan = FleetPlan::new(base_seed, policies, population)
        .with_seeds(seeds)
        .with_shard_size(shard_size)
        .with_spec(PopulationSpec::default());
    let resume = args.flag("resume").map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read checkpoint {path}: {e}"));
        let manifest = origin_telemetry::RunManifest::parse(&text)
            .unwrap_or_else(|e| panic!("checkpoint {path} does not parse: {e}"));
        let states = resume_states(&manifest, &plan, horizon, precision.label())
            .unwrap_or_else(|e| panic!("cannot resume from {path}: {e}"));
        let done = states.iter().filter(|s| s.is_some()).count();
        eprintln!(
            "resuming from {path}: {done}/{} shards already complete",
            plan.shard_count()
        );
        states
    });

    eprintln!("training MHEALTH-like models (seed {base_seed}, {precision} kernels)...");
    let ctx = ExperimentContext::<S>::new(Dataset::Mhealth, base_seed)
        .expect("training succeeds")
        .with_horizon(SimDuration::from_secs(horizon));

    let threads = args.threads();
    let resolved = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    eprintln!(
        "running {} cells in {} shards on {resolved} worker thread(s)...",
        plan.cells_total(),
        plan.shard_count()
    );
    println!(
        "# Population study: {} cells ({} seeds x {} policies x {} sampled users, base seed {base_seed})\n",
        plan.cells_total(),
        seeds,
        plan.policies.len(),
        population
    );

    let opts = FleetOptions {
        threads,
        progress: args.u64_flag("progress", 0) != 0,
        checkpoint_every,
        checkpoint_path: args.json_path().map(std::path::Path::to_path_buf),
        resume,
        max_shards,
        manifest_name: "sweep".to_owned(),
        dtype: precision.label().to_owned(),
        kernel_path: args.kernel_path(),
    };
    let report = run_fleet(&ctx, &plan, &opts).expect("simulation succeeds");

    print_population_report(&report);
    if let Some(path) = args.json_path() {
        let mut manifest = report.to_manifest();
        if opts.kernel_path != KernelPath::default() {
            manifest = manifest.with_config("kernel_path", opts.kernel_path.label());
        }
        write_manifest_file(path, &manifest);
    }
}

/// Prints the streamed per-arm statistics and the paired win-rate matrix.
fn print_population_report(report: &FleetReport) {
    if !report.complete() {
        println!(
            "# PARTIAL: {}/{} columns done — resume with --resume <manifest>\n",
            report.columns_done,
            report.plan.columns()
        );
    }
    println!(
        "{:<14} {:>8} {:>18} {:>8} {:>8} {:>8} {:>12}",
        "policy", "n", "accuracy", "min", "max", "std", "completion"
    );
    for (i, policy) in report.plan.policies.iter().enumerate() {
        let arm = &report.arms[i];
        println!(
            "{:<14} {:>8} {:>18} {:>7.2}% {:>7.2}% {:>7.2}% {:>11.2}%",
            policy.label(),
            arm.accuracy.n(),
            arm.accuracy.aggregate().fmt_pct(),
            arm.accuracy.min() * 100.0,
            arm.accuracy.max() * 100.0,
            arm.accuracy.std() * 100.0,
            arm.completion.mean() * 100.0
        );
    }
    println!(
        "\n{:<14} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "policy", "offered_uJ", "harvested_uJ", "consumed_uJ", "loss_uJ", "clipped_uJ", "leaked_uJ"
    );
    for (i, policy) in report.plan.policies.iter().enumerate() {
        let arm = &report.arms[i];
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>14.1} {:>12.1} {:>12.1} {:>12.1}",
            policy.label(),
            arm.offered_uj.mean(),
            arm.harvested_uj.mean(),
            arm.consumed_uj.mean(),
            arm.charge_loss_uj.mean(),
            arm.clipped_uj.mean(),
            arm.leaked_uj.mean(),
        );
    }
    println!();
    for (a, pa) in report.plan.policies.iter().enumerate() {
        for (b, pb) in report.plan.policies.iter().enumerate() {
            if a == b {
                continue;
            }
            println!(
                "win rate {} vs {}: {:.0}% of {} paired columns",
                pa.label(),
                pb.label(),
                report.win_rate(a, b) * 100.0,
                report.columns_done
            );
        }
    }
}

fn run<S: Scalar>(args: &BenchArgs) {
    if let Some(population) = args.flag("population") {
        let population = population
            .parse::<u32>()
            .unwrap_or_else(|e| panic!("--population {population:?}: {e}"));
        run_population::<S>(args, population);
        return;
    }
    let base_seed = args.u64_flag("seed", 77);
    let seeds = u32::try_from(args.u64_flag("seeds", 3)).unwrap_or(3);
    let users = u32::try_from(args.u64_flag("users", 1)).unwrap_or(1);
    let horizon = args.u64_flag("horizon", ExperimentContext::<S>::DEFAULT_HORIZON_SECS);
    let threads = args.threads();
    let instrument = args.u64_flag("instrument", 0) != 0;
    let ledger = args.u64_flag("ledger", 0) != 0;
    let spans_path = args.flag("spans");
    let progress = args.u64_flag("progress", 0) != 0;
    let precision = args.precision();
    let policies = SweepPolicy::parse_list(args.flag("policies").unwrap_or("origin12,bl2"))
        .unwrap_or_else(|e| panic!("{e}"));

    // Progress (and anything host-dependent, like the resolved thread
    // count) goes to stderr; stdout carries only the deterministic
    // report, so redirected output regenerates bit-identically.
    eprintln!("training MHEALTH-like models (seed {base_seed}, {precision} kernels)...");
    let ctx = ExperimentContext::<S>::new(Dataset::Mhealth, base_seed)
        .expect("training succeeds")
        .with_horizon(SimDuration::from_secs(horizon));

    let mut grid = SweepGrid::new(base_seed, policies).with_seeds(seeds);
    if users > 1 {
        grid = grid.with_sampled_users(users);
    }
    let resolved = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    eprintln!(
        "running {} cells on {resolved} worker thread(s)...",
        grid.len()
    );
    println!(
        "# Sweep: {} cells ({} seeds x {} policies x {} users, base seed {base_seed})\n",
        grid.len(),
        seeds,
        grid.policies.len(),
        grid.users.len()
    );

    let kernel_path = args.kernel_path();
    let report = run_sweep(
        &ctx,
        &grid,
        &SweepOptions {
            threads,
            instrument,
            ledger,
            spans: spans_path.is_some(),
            progress,
            kernel_path,
        },
    )
    .expect("simulation succeeds");

    print_report(&report, seeds, grid.users.len());
    if ledger {
        print_energy_table(&report);
    }
    if let Some(path) = spans_path {
        write_spans(&report, path);
    }
    let mut manifest = report
        .to_manifest("sweep")
        .with_config("dtype", precision.label());
    if kernel_path != KernelPath::default() {
        manifest = manifest.with_config("kernel_path", kernel_path.label());
    }
    args.write_manifest(&manifest);
    if ledger {
        enforce_audit(&report);
    }
}

/// Prints the per-policy mean energy breakdown (µJ per run) that the
/// ledger pass makes visible. Only reached under `--ledger`, so the
/// default stdout report stays byte-identical to the committed goldens.
fn print_energy_table(report: &SweepReport) {
    println!(
        "\n{:<14} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "policy", "offered_uJ", "harvested_uJ", "consumed_uJ", "loss_uJ", "clipped_uJ", "leaked_uJ"
    );
    for (i, policy) in report.grid.policies.iter().enumerate() {
        let cells: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.cell.policy_idx == i)
            .collect();
        let n = cells.len().max(1) as f64;
        let mean = |f: &dyn Fn(&origin_core::EnergyBreakdown) -> f64| {
            cells
                .iter()
                .map(|c| f(&c.report.energy_breakdown()))
                .sum::<f64>()
                / n
        };
        println!(
            "{:<14} {:>14.1} {:>14.1} {:>14.1} {:>12.1} {:>12.1} {:>12.1}",
            policy.label(),
            mean(&|e| e.offered.as_microjoules()),
            mean(&|e| e.harvested.as_microjoules()),
            mean(&|e| e.consumed.as_microjoules()),
            mean(&|e| e.charge_loss.as_microjoules()),
            mean(&|e| e.clipped.as_microjoules()),
            mean(&|e| e.leaked.as_microjoules()),
        );
    }
}

/// Concatenates every cell's span trace into one JSONL file. Cell ids
/// pre-partition the span id space (`cell_id << 32`), so the merged file
/// is safe to aggregate as a whole.
fn write_spans(report: &SweepReport, path: &str) {
    let mut out = String::new();
    for cell in &report.cells {
        if let Some(spans) = cell.trace.as_ref().and_then(|t| t.spans.as_deref()) {
            out.push_str(spans);
        }
    }
    std::fs::write(path, &out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote span traces to {path}");
}

/// Fails the process if any cell's ledger audit found an unbalanced
/// slot. The audit tolerance is 1e-9 µJ per slot (see
/// `origin_telemetry::LedgerAuditor`).
fn enforce_audit(report: &SweepReport) {
    let mut slots = 0u64;
    let mut max_residual = 0.0f64;
    let mut violations = 0usize;
    for cell in &report.cells {
        if let Some(audit) = cell.trace.as_ref().and_then(|t| t.audit.as_ref()) {
            slots += audit.slots_audited;
            if audit.max_residual_uj.abs() > max_residual.abs() {
                max_residual = audit.max_residual_uj;
            }
            violations += audit.violations.len();
        }
    }
    eprintln!(
        "ledger audit: {slots} slots, max residual {max_residual:.3e} uJ, {violations} violation(s)"
    );
    assert_eq!(violations, 0, "energy ledger failed conservation audit");
}

fn main() {
    let args = BenchArgs::parse();
    match args.precision() {
        Precision::F64 => run::<f64>(&args),
        Precision::F32 => run::<f32>(&args),
    }
}
