//! Times the NN kernel and sweep hot paths with a self-contained
//! median-of-samples harness and writes the numbers to `BENCH_sweep.json`.
//!
//! It is the workspace's one micro-benchmark harness: `scripts/bench.sh`
//! pins one machine-readable snapshot (median ns, derived throughput, git
//! revision) per revision, and perfbench carries the per-layer cell rows.
//!
//! Usage: `cargo run -p origin-bench --bin bench_report --release --
//! [out.json] [--baseline PATH] [--check] [--threshold PCT] [--quick]`
//!
//! The NN kernel micro-benches run at both precisions: the `f64` rows
//! keep their historical names, the `f32` rows carry a `_f32` suffix, so
//! one snapshot answers "what does the narrow path buy" per revision.
//! Unsuffixed rows measure the default `unrolled` kernel path; `_scalar`
//! twins re-time the same kernels on the scalar reference so the
//! snapshot also answers "what does the unrolling buy". A `machine`
//! object records the CPU model, compile-time target features and
//! default kernel path the numbers were taken under.
//!
//! The regression gate: `--baseline PATH` compares the fresh numbers
//! against a previous snapshot (the baseline is read before the output
//! is written, so baselining against the out path works) and prints a
//! delta table; with `--check`, any row that slowed by more than
//! `--threshold` percent (default 25) exits nonzero. `--check` also
//! holds the telemetry pin: the `telemetry_120s_noop_observer` row may
//! exceed `telemetry_120s_uninstrumented` by at most 2% (snapshots
//! without the pair skip it). The `telemetry_600s_ledger_stack` row
//! times one ledger-enabled cell under the sweep engine's traced-cell
//! observer stack beside `telemetry_600s_uninstrumented`, so the gate
//! also covers the observer layer `sweep --ledger 1` pays. `--quick` runs only
//! the fast `f64` kernel rows and writes nothing — check.sh uses it as a
//! warn-only smoke; scripts/bench.sh runs the full gate. Every full run
//! also appends one compact line to `BENCH_history.jsonl` beside the
//! snapshot, building a per-revision perf history.

use origin_bench::bench_models;
use origin_bench::regression::{
    BenchSnapshot, RegressionReport, NOOP_OVERHEAD_LIMIT_PCT, TELEMETRY_NOOP_OBSERVER,
    TELEMETRY_UNINSTRUMENTED,
};
use origin_bench::sweep::{run_sweep, run_traced_cell, SweepGrid, SweepOptions, SweepPolicy};
use origin_core::experiments::{Dataset, ExperimentContext};
use origin_core::{BaselineKind, Deployment, ModelVariant, PolicyKind, SimConfig, Simulator};
use origin_nn::{KernelPath, Mlp, Scalar, Trainer, Workspace};
use origin_telemetry::{JsonValue, NoopObserver};
use origin_types::{SensorLocation, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const DIMS: &[usize] = &[28, 20, 6];

/// Wall-clock nanoseconds per call of `f`, averaged over `inner` calls.
// Benchmarks measure real elapsed time by definition; the reading never
// feeds back into simulated behaviour.
#[allow(clippy::disallowed_methods)]
fn per_call_ns(inner: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..inner {
        f();
    }
    start.elapsed().as_nanos() as f64 / inner as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// Times `inner` calls of `f` per sample, `samples` times; returns the
/// median per-call nanoseconds.
fn median_ns(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    median((0..samples).map(|_| per_call_ns(inner, &mut f)).collect())
}

/// [`median_ns`] for two closures timed in back-to-back pairs, the
/// first of each pair alternating, so machine drift and run-order
/// effects land on both medians alike.
fn paired_median_ns(
    samples: usize,
    inner: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let (per_a, per_b) = (0..samples)
        .map(|i| {
            if i % 2 == 0 {
                let ns_a = per_call_ns(inner, &mut a);
                (ns_a, per_call_ns(inner, &mut b))
            } else {
                let ns_b = per_call_ns(inner, &mut b);
                (per_call_ns(inner, &mut a), ns_b)
            }
        })
        .unzip();
    (median(per_a), median(per_b))
}

fn random_vec<S: Scalar>(n: usize, rng: &mut StdRng) -> Vec<S> {
    (0..n)
        .map(|_| S::from_f64(rng.gen::<f64>() * 2.0 - 1.0))
        .collect()
}

fn pruned_mlp<S: Scalar>(sparsity: f64, seed: u64) -> Mlp<S> {
    let mut model = Mlp::<S>::new(DIMS, seed).expect("valid dims");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC5);
    for layer in model.layers_mut() {
        let mask: Vec<bool> = (0..layer.total_weights())
            .map(|_| rng.gen::<f64>() >= sparsity)
            .collect();
        layer.set_mask(mask);
    }
    model
}

/// The short revision, suffixed `-dirty` when the numbers come from
/// uncommitted changes on top of it.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The NN kernel micro-benches at precision `S` on `path`; `suffix`
/// distinguishes dtype and kernel path in the row names ("" keeps the
/// historical `f64` keys, which — like every unsuffixed row — measure
/// the default [`KernelPath::Unrolled`]; `_scalar` rows are the A/B
/// reference).
#[allow(clippy::too_many_lines)]
fn kernel_benches<S: Scalar>(
    push: &impl Fn(&mut Vec<(String, JsonValue)>, &str, f64, f64),
    rows: &mut Vec<(String, JsonValue)>,
    suffix: &str,
    path: KernelPath,
) {
    let mut rng = StdRng::seed_from_u64(5);
    let x: Vec<S> = random_vec(DIMS[0], &mut rng);

    // Raw dense kernel.
    {
        let dense = Mlp::<S>::new(DIMS, 9).expect("valid dims");
        let layer0 = &dense.layers()[0];
        let mut out = vec![S::ZERO; layer0.outputs()];
        let ns = median_ns(15, 20_000, || {
            layer0
                .weights()
                .matvec_into_path(black_box(&x), black_box(&mut out), path);
        });
        push(rows, &format!("matvec_20x28{suffix}"), ns, 1.0);
    }

    // Pruned layer: CSR compiled form vs the dense matvec over the same
    // mask-zeroed weights (the pre-optimization cost).
    for sparsity in [0.70, 0.90] {
        let model = pruned_mlp::<S>(sparsity, 9);
        let layer0 = &model.layers()[0];
        let pct = (sparsity * 100.0) as u32;
        let mut out = vec![S::ZERO; layer0.outputs()];
        let ns_csr = median_ns(15, 20_000, || {
            layer0.forward_into_path(black_box(&x), black_box(&mut out), path);
        });
        push(rows, &format!("pruned{pct}_layer_csr{suffix}"), ns_csr, 1.0);
        let mut out2 = vec![S::ZERO; layer0.outputs()];
        let ns_dense = median_ns(15, 20_000, || {
            layer0
                .weights()
                .matvec_into_path(black_box(&x), black_box(&mut out2), path);
            for (o, &bv) in out2.iter_mut().zip(layer0.bias()) {
                *o += bv;
            }
        });
        push(
            rows,
            &format!("pruned{pct}_layer_masked_dense{suffix}"),
            ns_dense,
            1.0,
        );
    }

    // Batch-size sensitivity of the batched CSR layer kernel: n = 1
    // pins the latency floor a single window pays, n = 8/32 show the
    // per-example amortization the batch dimension buys.
    {
        let model = pruned_mlp::<S>(0.90, 9);
        let layer0 = &model.layers()[0];
        for n in [1usize, 8, 32] {
            let mut rng = StdRng::seed_from_u64(21);
            let xs: Vec<S> = random_vec(DIMS[0] * n, &mut rng);
            let mut out = vec![S::ZERO; layer0.outputs() * n];
            let ns = median_ns(15, 10_000, || {
                layer0.forward_batch_into_path(black_box(&xs), n, black_box(&mut out), path);
            });
            push(
                rows,
                &format!("pruned90_forward_batch_n{n}{suffix}"),
                ns,
                n as f64,
            );
        }
    }

    // Whole-MLP logit path, dense vs pruned (workspace, zero-alloc).
    for (name, model) in [
        (
            "mlp_forward_dense",
            Mlp::<S>::new(DIMS, 9).expect("valid dims"),
        ),
        ("mlp_forward_pruned70", pruned_mlp::<S>(0.70, 9)),
    ] {
        let mut ws = Workspace::with_kernel_path(path);
        let ns = median_ns(15, 10_000, || {
            let _ = black_box(model.forward_with(&mut ws, black_box(&x))).expect("width matches");
        });
        push(rows, &format!("{name}{suffix}"), ns, 1.0);
    }

    // One epoch of the zero-allocation trainer.
    {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<(Vec<S>, usize)> = (0..64)
            .map(|i| (random_vec(DIMS[0], &mut rng), i % DIMS[DIMS.len() - 1]))
            .collect();
        let trainer = Trainer::new()
            .with_epochs(1)
            .with_seed(7)
            .with_kernel_path(path);
        let mut model = Mlp::<S>::new(DIMS, 11).expect("valid dims");
        let ns = median_ns(9, 50, || {
            let _ = black_box(trainer.fit(&mut model, black_box(&data))).expect("fits");
        });
        push(
            rows,
            &format!("mlp_train_epoch_28x20x6_n64{suffix}"),
            ns,
            1.0,
        );
    }
}

/// Parsed command line (see the module docs for the flag semantics).
struct Cli {
    out_path: String,
    baseline: Option<String>,
    check: bool,
    threshold_pct: f64,
    quick: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        out_path: "BENCH_sweep.json".to_owned(),
        baseline: None,
        check: false,
        threshold_pct: 25.0,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => cli.check = true,
            "--quick" => cli.quick = true,
            "--baseline" => {
                cli.baseline = Some(args.next().expect("--baseline needs a path"));
            }
            "--threshold" => {
                let value = args.next().expect("--threshold needs a percentage");
                cli.threshold_pct = value
                    .parse()
                    .unwrap_or_else(|_| panic!("invalid --threshold {value:?}"));
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag:?}"),
            positional => cli.out_path = positional.to_owned(),
        }
    }
    cli
}

/// Seconds since the Unix epoch, for history-line stamps only.
// History stamps are wall-clock metadata by definition; nothing
// deterministic reads them back.
#[allow(clippy::disallowed_methods)]
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn main() {
    let cli = parse_cli();
    // Read the baseline before any output is written: baselining against
    // the out path itself (the bench.sh flow) must see the old bytes.
    let baseline = cli.baseline.as_ref().map(|path| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        BenchSnapshot::parse(&text).unwrap_or_else(|e| panic!("baseline {path}: {e}"))
    });

    let mut rows: Vec<(String, JsonValue)> = Vec::new();
    // (name, median ns/op, ops represented by one call)
    let push = |rows: &mut Vec<(String, JsonValue)>, name: &str, ns: f64, ops: f64| {
        println!("{name:<42} {ns:>14.0} ns/op");
        rows.push((
            name.to_owned(),
            JsonValue::Object(vec![
                ("median_ns".to_owned(), JsonValue::from(ns)),
                ("ops_per_sec".to_owned(), JsonValue::from(ops * 1.0e9 / ns)),
            ]),
        ));
    };

    kernel_benches::<f64>(&push, &mut rows, "", KernelPath::default());
    if !cli.quick {
        full_benches(&push, &mut rows);
    }

    let report = JsonValue::Object(vec![
        ("git_rev".to_owned(), JsonValue::from(git_rev())),
        (
            "harness".to_owned(),
            JsonValue::from("bench_report median-of-samples (see scripts/bench.sh)"),
        ),
        ("machine".to_owned(), machine_metadata()),
        ("benches".to_owned(), JsonValue::Object(rows)),
    ]);
    let current = BenchSnapshot::parse(&report.render_pretty()).expect("own schema parses");

    if cli.quick {
        println!("quick mode: snapshot not written");
    } else {
        std::fs::write(&cli.out_path, report.render_pretty() + "\n")
            .expect("report file is writable");
        println!("wrote {}", cli.out_path);
        let history_path =
            std::path::Path::new(&cli.out_path).with_file_name("BENCH_history.jsonl");
        let mut history = std::fs::read_to_string(&history_path).unwrap_or_default();
        history.push_str(&current.history_line(unix_now()));
        history.push('\n');
        std::fs::write(&history_path, history).expect("history file is writable");
        println!("appended {}", history_path.display());
    }

    let mut failed = false;
    if let Some(baseline) = baseline {
        let gate = RegressionReport::compare(&baseline, &current, cli.threshold_pct);
        println!(
            "\nvs baseline {} (threshold +{:.0}%):",
            baseline.git_rev, cli.threshold_pct
        );
        print!("{}", gate.render());
        if cli.check && !gate.passed() {
            eprintln!("bench regression gate FAILED");
            failed = true;
        }
    }
    if let Some(overhead) = current.noop_overhead_pct() {
        println!(
            "telemetry no-op overhead: {overhead:+.2}% (limit +{NOOP_OVERHEAD_LIMIT_PCT:.0}%)"
        );
        if cli.check && overhead > NOOP_OVERHEAD_LIMIT_PCT {
            eprintln!("telemetry no-op overhead pin FAILED");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Where the numbers came from: CPU model, the compile-time target
/// features the kernels were built against, and the default kernel
/// path the unsuffixed rows measure. [`BenchSnapshot::parse`] ignores
/// unknown top-level keys, so older baselines stay comparable.
fn machine_metadata() -> JsonValue {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    // Compile-time (cfg!) features: what the autovectorizer was actually
    // allowed to emit — deliberately not a runtime CPUID probe (lint D1).
    let mut features: Vec<&str> = Vec::new();
    macro_rules! feat {
        ($name:literal) => {
            if cfg!(target_feature = $name) {
                features.push($name);
            }
        };
    }
    feat!("sse2");
    feat!("sse4.2");
    feat!("avx");
    feat!("avx2");
    feat!("fma");
    feat!("avx512f");
    JsonValue::Object(vec![
        ("cpu_model".to_owned(), JsonValue::from(cpu_model)),
        (
            "target_features".to_owned(),
            JsonValue::from(features.join(",")),
        ),
        (
            "default_kernel_path".to_owned(),
            JsonValue::from(KernelPath::default().label()),
        ),
    ])
}

/// The slow rows of the full snapshot: the scalar-reference A/B twins,
/// `f32` kernel twins (both paths), the trained classifier entry
/// points, the 16-cell sweep, the telemetry no-op pin and the ledger
/// observer stack.
fn full_benches(
    push: &impl Fn(&mut Vec<(String, JsonValue)>, &str, f64, f64),
    rows: &mut Vec<(String, JsonValue)>,
) {
    kernel_benches::<f64>(push, rows, "_scalar", KernelPath::Scalar);
    kernel_benches::<f32>(push, rows, "_f32", KernelPath::default());
    kernel_benches::<f32>(push, rows, "_f32_scalar", KernelPath::Scalar);

    // Trained classifier: allocating entry point vs workspace entry
    // point (same kernels, isolates the steady-state allocation cost).
    println!("training bench models...");
    let models = bench_models(11);
    {
        let clf = models.classifier(ModelVariant::Pruned, SensorLocation::LeftAnkle);
        let mut rng = StdRng::seed_from_u64(1);
        let features = random_vec(clf.mlp().input_dim(), &mut rng);
        let ns_alloc = median_ns(15, 10_000, || {
            let _ = black_box(clf.classify(black_box(&features))).expect("width matches");
        });
        push(rows, "classify_pruned_alloc", ns_alloc, 1.0);
        let mut ws = Workspace::new();
        let ns_ws = median_ns(15, 10_000, || {
            let _ =
                black_box(clf.classify_with(&mut ws, black_box(&features))).expect("width matches");
        });
        push(rows, "classify_pruned_workspace", ns_ws, 1.0);
    }

    // The 16-cell sweep grid, single-threaded.
    {
        let ctx = ExperimentContext::from_parts(
            Dataset::Mhealth,
            models,
            Deployment::builder().seed(13).build(),
            13,
        )
        .with_horizon(SimDuration::from_secs(60));
        let grid = SweepGrid::new(
            13,
            vec![
                SweepPolicy::Policy(PolicyKind::Origin { cycle: 12 }),
                SweepPolicy::Baseline(BaselineKind::Baseline2),
            ],
        )
        .with_seeds(4)
        .with_sampled_users(2);
        let opts = SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        };
        let cells = grid.len() as f64;
        let ns = median_ns(5, 1, || {
            let _ = black_box(run_sweep(&ctx, &grid, &opts)).expect("sweep succeeds");
        });
        push(rows, "sweep_16_cells_threads_1", ns, cells);
    }

    // The telemetry no-op pin: `run` delegates to `run_observed` with
    // `NoopObserver`, whose empty `on_event` must let the optimizer
    // delete every emission site, so the two rows stay within noise.
    let sim = Simulator::new(Deployment::builder().seed(13).build(), bench_models(13));
    {
        let config = SimConfig::new(PolicyKind::Origin { cycle: 12 })
            .with_horizon(SimDuration::from_secs(120))
            .with_seed(3);
        let (ns_plain, ns_noop) = paired_median_ns(
            61,
            10,
            || {
                let _ = black_box(sim.run(black_box(&config))).expect("valid cycle");
            },
            || {
                let _ = black_box(sim.run_observed(black_box(&config), &mut NoopObserver))
                    .expect("valid cycle");
            },
        );
        push(rows, TELEMETRY_UNINSTRUMENTED, ns_plain, 1.0);
        push(rows, TELEMETRY_NOOP_OBSERVER, ns_noop, 1.0);
    }

    // The ledger observer stack: one ledger-enabled 600 s cell under the
    // sweep engine's traced-cell stack (JSONL, metrics, ledger audit),
    // paired with the same cell unobserved; the gap is the telemetry
    // layer that `sweep --ledger 1` pays per cell.
    {
        let config = SimConfig::new(PolicyKind::Origin { cycle: 12 })
            .with_horizon(SimDuration::from_secs(600))
            .with_seed(3);
        let (ns_plain, ns_ledger) = paired_median_ns(
            15,
            1,
            || {
                let _ = black_box(sim.run(black_box(&config))).expect("valid cycle");
            },
            || {
                let _ = black_box(run_traced_cell(&sim, black_box(&config), true, None))
                    .expect("valid cycle");
            },
        );
        push(rows, "telemetry_600s_uninstrumented", ns_plain, 1.0);
        push(rows, "telemetry_600s_ledger_stack", ns_ledger, 1.0);
    }
}
