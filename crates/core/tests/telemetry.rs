//! Telemetry integration: the zero-perturbation guarantee and the
//! event-stream invariants against the report's own counters.

use origin_core::{Deployment, ModelBank, PolicyKind, SimConfig, Simulator};
use origin_sensors::DatasetSpec;
use origin_telemetry::{
    DrawOp, EventKind, JsonValue, JsonlObserver, LedgerEntry, MetricsObserver, MetricsRegistry,
    Party, RecordingObserver, SimEvent, SimObserver, Tee, WithLedger,
};
use origin_types::{NodeId, SimDuration};

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

/// Observers are pure consumers: an instrumented run must produce a
/// byte-identical report to an unobserved run of the same config.
#[test]
fn observed_runs_do_not_perturb_the_simulation() {
    let sim = quick_sim();
    for policy in [
        PolicyKind::NaiveAllOn,
        PolicyKind::RoundRobin { cycle: 6 },
        PolicyKind::Origin { cycle: 12 },
    ] {
        let cfg = short(policy);
        let plain = sim.run(&cfg).unwrap();
        let mut observer = Tee(RecordingObserver::new(), MetricsObserver::new());
        let observed = sim.run_observed(&cfg, &mut observer).unwrap();
        assert!(
            !observer.0.events().is_empty(),
            "{policy:?}: the observed run must emit events"
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{observed:?}"),
            "{policy:?}: observer changed the simulation outcome"
        );
    }
}

/// Event counts must agree with the report's own aggregate counters.
#[test]
fn event_counts_match_report_counters() {
    let sim = quick_sim();
    let cfg = short(PolicyKind::Origin { cycle: 12 });
    let mut rec = RecordingObserver::new();
    let report = sim.run_observed(&cfg, &mut rec).unwrap();

    let node_count = report.node_counters.len() as u64;
    let count = |kind| rec.count(kind) as u64;
    assert_eq!(count(EventKind::WindowStart), report.windows);
    assert_eq!(count(EventKind::SlotScheduled), report.windows);
    assert_eq!(count(EventKind::HarvestSlice), report.windows * node_count);
    assert_eq!(count(EventKind::InferenceAttempt), report.attempts);
    assert_eq!(count(EventKind::InferenceCompleted), report.completions);
    assert_eq!(
        count(EventKind::MessageTx) + count(EventKind::MessageDrop),
        report.messages_sent
    );
    assert_eq!(count(EventKind::MessageDrop), report.messages_dropped);
    assert_eq!(count(EventKind::EnsembleVote), report.windows);
    assert_eq!(count(EventKind::RecallServed), report.windows);
    // An attempt either completes or browns out (no node is disabled).
    assert_eq!(
        count(EventKind::InferenceCompleted) + count(EventKind::InferenceBrownout),
        report.attempts
    );
    // Per-node bus counters sum to the totals.
    assert_eq!(report.sent_by_node.len() as u64, node_count);
    assert!(report.sent_by_node.iter().sum::<u64>() <= report.messages_sent);
    assert_eq!(report.dropped_by_node.iter().sum::<u64>(), {
        // Only nodes transmit in this stack, so every drop is attributed.
        report.messages_dropped
    });
}

/// The JSONL sink must write one parseable object per event, and the
/// metrics aggregator must agree with the recorder.
#[test]
fn jsonl_lines_parse_and_metrics_agree() {
    let sim = quick_sim();
    let cfg = short(PolicyKind::Origin { cycle: 12 });
    let mut observer = Tee(
        Tee(RecordingObserver::new(), MetricsObserver::new()),
        JsonlObserver::new(Vec::new()),
    );
    let _ = sim.run_observed(&cfg, &mut observer).unwrap();
    let Tee(Tee(rec, metrics), jsonl) = observer;

    assert_eq!(jsonl.events_written() as usize, rec.events().len());
    assert_eq!(metrics.total() as usize, rec.events().len());

    let bytes = jsonl.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), rec.events().len());
    for (line, event) in lines.iter().zip(rec.events()) {
        let json = JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("unparseable JSONL line {line:?}: {e}"));
        assert_eq!(
            json.get("event").and_then(JsonValue::as_str),
            Some(event.kind().name())
        );
    }
    // Per-kind counters in the registry match the recorder.
    for kind in [
        EventKind::WindowStart,
        EventKind::InferenceAttempt,
        EventKind::MessageTx,
        EventKind::EnsembleVote,
    ] {
        assert_eq!(metrics.count(kind), rec.count(kind) as u64);
    }
}

/// ER-r no-op slots must surface as idle `SlotScheduled` events.
#[test]
fn idle_slots_are_observed() {
    let sim = quick_sim();
    // RR12 over 3 nodes: 9 of every 12 slots are no-ops.
    let cfg = short(PolicyKind::RoundRobin { cycle: 12 });
    let mut rec = RecordingObserver::new();
    let report = sim.run_observed(&cfg, &mut rec).unwrap();
    let idle = rec
        .events()
        .iter()
        .filter(|e| matches!(e, SimEvent::SlotScheduled { idle: true, .. }))
        .count() as u64;
    assert_eq!(idle, report.windows - report.attempt_windows);
    assert!(idle > 0, "an ER-12 run must include no-op slots");
}

/// The metrics fold as one registry call per event — `inc`, `add`,
/// `fadd`, `set_gauge`, `observe` under formatted keys — which is what
/// [`MetricsObserver`]'s slot-indexed fold must reproduce exactly.
fn reference_fold(events: &[SimEvent]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for event in events {
        m.inc(&format!(
            "origin_events_total{{event=\"{}\"}}",
            event.kind().name()
        ));
        match *event {
            SimEvent::HarvestSlice {
                node,
                harvested_uj,
                stored_uj,
                ..
            } => {
                m.add(
                    "origin_node_harvested_microjoules_total",
                    harvested_uj.max(0.0) as u64,
                );
                m.set_gauge(
                    &format!(
                        "origin_node_stored_microjoules{{node=\"{}\"}}",
                        node.as_u32()
                    ),
                    stored_uj,
                );
            }
            SimEvent::SlotScheduled { attempters, .. } => m.observe(
                "origin_slot_attempters",
                &[0.0, 1.0, 2.0, 4.0, 8.0],
                f64::from(attempters),
            ),
            SimEvent::InferenceAttempt { headroom, .. } => m.observe(
                "origin_stored_headroom",
                &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                headroom,
            ),
            SimEvent::InferenceCompleted { confidence, .. } => m.observe(
                "origin_confidence",
                &[0.02, 0.05, 0.1, 0.15, 0.2, 0.25],
                confidence,
            ),
            SimEvent::MessageTx { bytes, .. } => {
                m.add("origin_radio_bytes_total{outcome=\"sent\"}", bytes as u64);
            }
            SimEvent::MessageDrop { bytes, .. } => {
                m.add(
                    "origin_radio_bytes_total{outcome=\"dropped\"}",
                    bytes as u64,
                );
            }
            SimEvent::Ledger { entry, .. } => match entry {
                LedgerEntry::Harvested { uj }
                | LedgerEntry::ChargeLoss { uj }
                | LedgerEntry::Clipped { uj }
                | LedgerEntry::Leaked { uj } => m.fadd(
                    &format!(
                        "origin_ledger_microjoules_total{{flow=\"{}\"}}",
                        entry.flow()
                    ),
                    uj,
                ),
                LedgerEntry::Drawn { op, uj } => m.fadd(
                    &format!(
                        "origin_ledger_drawn_microjoules_total{{op=\"{}\"}}",
                        op.name()
                    ),
                    uj,
                ),
                LedgerEntry::SlotClose { .. } => m.inc("origin_ledger_slots_total"),
                LedgerEntry::Opening { .. } => {}
            },
            _ => {}
        }
    }
    m
}

/// Every key and the exact bits of every value, so `-0.0` and `0.0`
/// (equal under `PartialEq`) still differ.
fn exact(m: &MetricsRegistry) -> Vec<String> {
    let mut rows: Vec<String> = m.counters().map(|(k, v)| format!("c {k} {v}")).collect();
    rows.extend(
        m.fcounters()
            .map(|(k, v)| format!("f {k} {:#x}", v.to_bits())),
    );
    rows.extend(m.gauges().map(|(k, v)| format!("g {k} {:#x}", v.to_bits())));
    rows.extend(m.histograms().map(|(k, h)| {
        format!(
            "h {k} {:?} {:?} {:#x} {}",
            h.bounds(),
            h.bucket_counts(),
            h.sum().to_bits(),
            h.count()
        )
    }));
    rows
}

fn replayed(events: &[SimEvent]) -> MetricsRegistry {
    let mut metrics = MetricsObserver::new();
    for event in events {
        metrics.on_event(event);
    }
    assert_eq!(metrics.total(), events.len() as u64);
    metrics.into_metrics()
}

/// A ledger-enabled cell replayed through the aggregator gives the
/// registry the per-event reference fold gives, bit for bit.
#[test]
fn metrics_fold_matches_the_per_event_reference() {
    let sim = quick_sim();
    for policy in [
        PolicyKind::Origin { cycle: 12 },
        PolicyKind::RoundRobin { cycle: 12 },
    ] {
        let mut recorder = WithLedger(RecordingObserver::new());
        let _ = sim.run_observed(&short(policy), &mut recorder).unwrap();
        let events = recorder.0.into_events();
        assert!(events.iter().any(|e| e.kind() == EventKind::Ledger));
        let (fast, reference) = (replayed(&events), reference_fold(&events));
        assert_eq!(fast, reference, "{policy:?}");
        assert_eq!(exact(&fast), exact(&reference), "{policy:?}");
    }
}

/// The fold's two creation edge cases: a `-0.0` first addend stays
/// `-0.0`, and a zero-byte frame (or a negative harvest clamped to 0)
/// still creates its counter.
#[test]
fn metrics_fold_keeps_signed_zero_and_zero_valued_keys() {
    let node = NodeId::new(4);
    let ledger = |entry| SimEvent::Ledger {
        window: 0,
        node,
        entry,
    };
    let events = [
        ledger(LedgerEntry::Clipped { uj: -0.0 }),
        ledger(LedgerEntry::Drawn {
            op: DrawOp::RadioRx,
            uj: -0.0,
        }),
        ledger(LedgerEntry::Drawn {
            op: DrawOp::RadioRx,
            uj: -0.0,
        }),
        ledger(LedgerEntry::Leaked { uj: -0.0 }),
        ledger(LedgerEntry::Leaked { uj: 0.0 }),
        SimEvent::MessageDrop {
            from: Party::Node(node),
            to: Party::Host,
            bytes: 0,
            at_us: 0,
        },
        SimEvent::HarvestSlice {
            window: 0,
            node,
            harvested_uj: -1.0,
            stored_uj: -0.0,
        },
    ];
    let (fast, reference) = (replayed(&events), reference_fold(&events));
    assert_eq!(exact(&fast), exact(&reference));
    let clipped = fast.fcounter("origin_ledger_microjoules_total{flow=\"clipped\"}");
    assert!(clipped == 0.0 && clipped.is_sign_negative());
    let rx = fast.fcounter("origin_ledger_drawn_microjoules_total{op=\"radio_rx\"}");
    assert!(rx.is_sign_negative());
    let leaked = fast.fcounter("origin_ledger_microjoules_total{flow=\"leaked\"}");
    assert!(leaked.is_sign_positive());
    for key in [
        "origin_radio_bytes_total{outcome=\"dropped\"}",
        "origin_node_harvested_microjoules_total",
    ] {
        assert_eq!(
            fast.counters().find(|&(k, _)| k == key),
            Some((key, 0)),
            "{key}"
        );
    }
    assert!(fast
        .gauge("origin_node_stored_microjoules{node=\"4\"}")
        .is_some_and(f64::is_sign_negative));
}
