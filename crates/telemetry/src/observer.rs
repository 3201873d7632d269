//! The observer trait and the built-in observers.
//!
//! Observation is statically dispatched: instrumented entry points take a
//! generic `O: SimObserver` and the default paths pass [`NoopObserver`],
//! whose `on_event` body is empty — the optimizer deletes every emission
//! site, so the uninstrumented simulator pays nothing
//! (the `telemetry_120s_*` rows of `bench_report` pin this).

use crate::event::{EventKind, LedgerEntry, SimEvent};
use crate::metrics::{Histogram, MetricsRegistry};
use std::ops::Add;

/// A consumer of [`SimEvent`]s.
///
/// Implementations must be pure consumers: they may record, count or
/// serialize events, but must not feed anything back into the simulation.
/// That discipline is what makes instrumented runs byte-identical to
/// unobserved ones.
pub trait SimObserver {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &SimEvent);

    /// Whether the simulator should emit [`SimEvent::Ledger`] flows.
    ///
    /// The energy ledger multiplies the event volume several-fold, so it
    /// is opt-in: the simulator hoists this flag once per run and skips
    /// every ledger emission site when it is `false`. Defaults to `false`;
    /// audit sinks (and [`WithLedger`]) override it. The flag must be
    /// constant for the lifetime of a run.
    #[must_use]
    fn wants_ledger(&self) -> bool {
        false
    }
}

/// Forward through mutable references so call sites can lend an observer
/// to a helper without moving it.
impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    fn on_event(&mut self, event: &SimEvent) {
        (**self).on_event(event);
    }

    fn wants_ledger(&self) -> bool {
        (**self).wants_ledger()
    }
}

/// `None` observes nothing; `Some` forwards. Lets a statically-typed
/// observer stack (e.g. a [`Tee`] tree) include optional sinks — an
/// absent [`crate::LedgerAuditor`] arm keeps `wants_ledger` off.
impl<O: SimObserver> SimObserver for Option<O> {
    fn on_event(&mut self, event: &SimEvent) {
        if let Some(observer) = self {
            observer.on_event(event);
        }
    }

    fn wants_ledger(&self) -> bool {
        self.as_ref().is_some_and(SimObserver::wants_ledger)
    }
}

/// The do-nothing observer behind every uninstrumented entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    #[inline(always)]
    fn on_event(&mut self, _event: &SimEvent) {}
}

/// Buffers every event in order; the workhorse for tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingObserver {
    events: Vec<SimEvent>,
}

impl RecordingObserver {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// How many events of `kind` were recorded.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Consumes the recorder, yielding the event buffer.
    #[must_use]
    pub fn into_events(self) -> Vec<SimEvent> {
        self.events
    }
}

impl SimObserver for RecordingObserver {
    fn on_event(&mut self, event: &SimEvent) {
        self.events.push(*event);
    }
}

/// The in-memory aggregator: folds the event stream into a
/// [`MetricsRegistry`] without retaining the events themselves.
///
/// Derived metrics (all prefixed `origin_`):
///
/// * `origin_events_total{event}` — one counter per [`EventKind`];
/// * `origin_node_harvested_microjoules_total` / counterpart gauges
///   `origin_node_stored_microjoules{node}` — energy intake and the last
///   observed store level per node;
/// * `origin_stored_headroom` histogram — per-attempt stored-energy
///   headroom (stored ÷ full attempt cost) at schedule time;
/// * `origin_slot_attempters` histogram — scheduled attempters per
///   window, no-op slots landing in the ≤0 bucket;
/// * `origin_confidence` histogram — per-completion classifier
///   confidence;
/// * `origin_radio_bytes_total{outcome}` — delivered vs dropped payload
///   bytes;
/// * `origin_ledger_microjoules_total{flow}` /
///   `origin_ledger_drawn_microjoules_total{op}` /
///   `origin_ledger_slots_total` — energy-ledger flow totals (µJ, f64
///   counters) and audited slot count, present only when the run was
///   ledger-enabled (see [`SimObserver::wants_ledger`]).
///
/// Events fold into fixed slots indexed by event kind, ledger flow, draw
/// operation and node, with no key lookup per event; the registry is
/// built once, by [`MetricsObserver::metrics`] or
/// [`MetricsObserver::into_metrics`]. A metric exists there exactly when
/// an event created it (a zero-byte frame still creates its byte
/// counter), and every `f64` total is summed in event order starting
/// from its first addend, so the result equals calling
/// [`MetricsRegistry::inc`], `add`, `fadd`, `set_gauge` and `observe`
/// once per event.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    by_kind: [u64; EVENT_KINDS],
    /// `origin_node_harvested_microjoules_total`.
    harvested_uj: Option<u64>,
    /// The last stored level per node index (`None`: node not seen yet).
    stored_uj: Vec<Option<f64>>,
    attempters: Option<Histogram>,
    headroom: Option<Histogram>,
    confidence: Option<Histogram>,
    sent_bytes: Option<u64>,
    dropped_bytes: Option<u64>,
    /// Indexed like [`FLOW_TOTAL`].
    flow_uj: [Option<f64>; 4],
    /// Indexed by `DrawOp as usize`, like [`DRAWN_TOTAL`].
    drawn_uj: [Option<f64>; 6],
    slots: u64,
}

/// Number of [`EventKind`]s; `kind as usize` indexes the tables below.
const EVENT_KINDS: usize = 14;

/// `origin_events_total{event=…}`, indexed by `EventKind as usize`.
const EVENTS_TOTAL: [&str; EVENT_KINDS] = [
    "origin_events_total{event=\"window_start\"}",
    "origin_events_total{event=\"harvest_slice\"}",
    "origin_events_total{event=\"slot_scheduled\"}",
    "origin_events_total{event=\"activation_signal\"}",
    "origin_events_total{event=\"inference_attempt\"}",
    "origin_events_total{event=\"inference_completed\"}",
    "origin_events_total{event=\"inference_brownout\"}",
    "origin_events_total{event=\"nvp_checkpoint\"}",
    "origin_events_total{event=\"message_tx\"}",
    "origin_events_total{event=\"message_drop\"}",
    "origin_events_total{event=\"recall_served\"}",
    "origin_events_total{event=\"ensemble_vote\"}",
    "origin_events_total{event=\"confidence_update\"}",
    "origin_events_total{event=\"ledger\"}",
];

/// `origin_node_stored_microjoules{node=…}` for the first node indices;
/// later nodes format their key.
const NODE_STORED: [&str; 3] = [
    "origin_node_stored_microjoules{node=\"0\"}",
    "origin_node_stored_microjoules{node=\"1\"}",
    "origin_node_stored_microjoules{node=\"2\"}",
];

/// `origin_ledger_microjoules_total{flow=…}` for the capacitor flows
/// (`Drawn` has its own table and the anchors have none).
const FLOW_TOTAL: [&str; 4] = [
    "origin_ledger_microjoules_total{flow=\"harvested\"}",
    "origin_ledger_microjoules_total{flow=\"charge_loss\"}",
    "origin_ledger_microjoules_total{flow=\"clipped\"}",
    "origin_ledger_microjoules_total{flow=\"leaked\"}",
];

/// `origin_ledger_drawn_microjoules_total{op=…}`, indexed by
/// `DrawOp as usize`.
const DRAWN_TOTAL: [&str; 6] = [
    "origin_ledger_drawn_microjoules_total{op=\"duty\"}",
    "origin_ledger_drawn_microjoules_total{op=\"infer\"}",
    "origin_ledger_drawn_microjoules_total{op=\"checkpoint\"}",
    "origin_ledger_drawn_microjoules_total{op=\"lost\"}",
    "origin_ledger_drawn_microjoules_total{op=\"radio_tx\"}",
    "origin_ledger_drawn_microjoules_total{op=\"radio_rx\"}",
];

/// Bucket bounds for stored-energy headroom (1.0 = exactly affordable).
const HEADROOM_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
/// Bucket bounds for scheduled attempters per window.
const ATTEMPTER_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0];
/// Bucket bounds for softmax-variance confidence.
const CONFIDENCE_BOUNDS: &[f64] = &[0.02, 0.05, 0.1, 0.15, 0.2, 0.25];

/// Adds `by` to a counter slot as [`MetricsRegistry::add`] and
/// [`MetricsRegistry::fadd`] do: an empty slot starts at `by` itself, so
/// a `-0.0` first addend stays `-0.0`.
fn add<T: Copy + Add<Output = T>>(slot: &mut Option<T>, by: T) {
    *slot = Some(slot.map_or(by, |total| total + by));
}

/// Records `value` into a histogram slot, creating it over `bounds`.
fn observe(slot: &mut Option<Histogram>, bounds: &[f64], value: f64) {
    slot.get_or_insert_with(|| Histogram::new(bounds))
        .observe(value);
}

impl MetricsObserver {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the aggregated metrics so far.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (key, &n) in EVENTS_TOTAL.iter().zip(&self.by_kind) {
            if n > 0 {
                m.add(key, n);
            }
        }
        if let Some(uj) = self.harvested_uj {
            m.add("origin_node_harvested_microjoules_total", uj);
        }
        for (node, stored) in self.stored_uj.iter().enumerate() {
            let Some(uj) = *stored else { continue };
            match NODE_STORED.get(node) {
                Some(key) => m.set_gauge(key, uj),
                None => m.set_gauge(
                    &format!("origin_node_stored_microjoules{{node=\"{node}\"}}"),
                    uj,
                ),
            }
        }
        for (name, histogram) in [
            ("origin_slot_attempters", &self.attempters),
            ("origin_stored_headroom", &self.headroom),
            ("origin_confidence", &self.confidence),
        ] {
            if let Some(h) = histogram {
                m.insert_histogram(name, h.clone());
            }
        }
        if let Some(bytes) = self.sent_bytes {
            m.add("origin_radio_bytes_total{outcome=\"sent\"}", bytes);
        }
        if let Some(bytes) = self.dropped_bytes {
            m.add("origin_radio_bytes_total{outcome=\"dropped\"}", bytes);
        }
        let flows = FLOW_TOTAL.iter().zip(&self.flow_uj);
        for (key, total) in flows.chain(DRAWN_TOTAL.iter().zip(&self.drawn_uj)) {
            if let Some(uj) = *total {
                m.fadd(key, uj);
            }
        }
        if self.slots > 0 {
            m.add("origin_ledger_slots_total", self.slots);
        }
        m
    }

    /// How many events of `kind` were seen.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.by_kind[kind as usize]
    }

    /// Total events seen across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Consumes the observer, yielding the registry.
    #[must_use]
    pub fn into_metrics(self) -> MetricsRegistry {
        self.metrics()
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, event: &SimEvent) {
        self.by_kind[event.kind() as usize] += 1;
        match *event {
            SimEvent::HarvestSlice {
                node,
                harvested_uj,
                stored_uj,
                ..
            } => {
                add(&mut self.harvested_uj, harvested_uj.max(0.0) as u64);
                let node = node.as_usize();
                if node >= self.stored_uj.len() {
                    self.stored_uj.resize(node + 1, None);
                }
                self.stored_uj[node] = Some(stored_uj);
            }
            SimEvent::SlotScheduled { attempters, .. } => {
                observe(
                    &mut self.attempters,
                    ATTEMPTER_BOUNDS,
                    f64::from(attempters),
                );
            }
            SimEvent::InferenceAttempt { headroom, .. } => {
                observe(&mut self.headroom, HEADROOM_BOUNDS, headroom);
            }
            SimEvent::InferenceCompleted { confidence, .. } => {
                observe(&mut self.confidence, CONFIDENCE_BOUNDS, confidence);
            }
            SimEvent::MessageTx { bytes, .. } => add(&mut self.sent_bytes, bytes as u64),
            SimEvent::MessageDrop { bytes, .. } => add(&mut self.dropped_bytes, bytes as u64),
            SimEvent::Ledger { entry, .. } => match entry {
                LedgerEntry::Harvested { uj } => add(&mut self.flow_uj[0], uj),
                LedgerEntry::ChargeLoss { uj } => add(&mut self.flow_uj[1], uj),
                LedgerEntry::Clipped { uj } => add(&mut self.flow_uj[2], uj),
                LedgerEntry::Leaked { uj } => add(&mut self.flow_uj[3], uj),
                LedgerEntry::Drawn { op, uj } => add(&mut self.drawn_uj[op as usize], uj),
                LedgerEntry::SlotClose { .. } => self.slots += 1,
                LedgerEntry::Opening { .. } => {}
            },
            _ => {}
        }
    }
}

/// Fans every event out to two observers (nest for more).
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(
    /// First receiver.
    pub A,
    /// Second receiver.
    pub B,
);

impl<A: SimObserver, B: SimObserver> SimObserver for Tee<A, B> {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    fn wants_ledger(&self) -> bool {
        self.0.wants_ledger() || self.1.wants_ledger()
    }
}

/// Turns on ledger emission for any inner observer.
///
/// The wrapper forwards every event unchanged but answers `true` to
/// [`SimObserver::wants_ledger`], so `WithLedger(RecordingObserver::new())`
/// captures the full flow stream and `WithLedger(NoopObserver)` is the
/// ledger-enabled no-op arm of the overhead benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WithLedger<O>(
    /// The observer receiving the (now ledger-bearing) stream.
    pub O,
);

impl<O: SimObserver> SimObserver for WithLedger<O> {
    #[inline(always)]
    fn on_event(&mut self, event: &SimEvent) {
        self.0.on_event(event);
    }

    fn wants_ledger(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DrawOp;
    use origin_types::NodeId;

    fn attempt(window: u64) -> SimEvent {
        SimEvent::InferenceAttempt {
            window,
            node: NodeId::new(0),
            headroom: 1.25,
        }
    }

    #[test]
    fn recorder_keeps_order_and_counts() {
        let mut rec = RecordingObserver::new();
        rec.on_event(&attempt(0));
        rec.on_event(&SimEvent::NvpCheckpoint {
            window: 0,
            node: NodeId::new(1),
        });
        rec.on_event(&attempt(1));
        assert_eq!(rec.events().len(), 3);
        assert_eq!(rec.count(EventKind::InferenceAttempt), 2);
        assert_eq!(rec.count(EventKind::NvpCheckpoint), 1);
        assert_eq!(rec.count(EventKind::MessageDrop), 0);
    }

    #[test]
    fn metrics_observer_aggregates() {
        let mut obs = MetricsObserver::new();
        obs.on_event(&attempt(0));
        obs.on_event(&SimEvent::MessageTx {
            from: crate::Party::Node(NodeId::new(0)),
            to: crate::Party::Host,
            bytes: 6,
            at_us: 10,
        });
        obs.on_event(&SimEvent::MessageDrop {
            from: crate::Party::Node(NodeId::new(1)),
            to: crate::Party::Host,
            bytes: 6,
            at_us: 20,
        });
        assert_eq!(obs.total(), 3);
        assert_eq!(obs.count(EventKind::InferenceAttempt), 1);
        let m = obs.metrics();
        assert_eq!(
            m.counter("origin_events_total{event=\"inference_attempt\"}"),
            1
        );
        assert_eq!(m.counter("origin_radio_bytes_total{outcome=\"sent\"}"), 6);
        assert_eq!(
            m.counter("origin_radio_bytes_total{outcome=\"dropped\"}"),
            6
        );
        let h = m.histogram("origin_stored_headroom").unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn tee_feeds_both() {
        let mut tee = Tee(RecordingObserver::new(), MetricsObserver::new());
        tee.on_event(&attempt(0));
        assert_eq!(tee.0.events().len(), 1);
        assert_eq!(tee.1.total(), 1);
    }

    #[test]
    fn wants_ledger_defaults_off_and_propagates() {
        assert!(!NoopObserver.wants_ledger());
        assert!(!RecordingObserver::new().wants_ledger());
        assert!(WithLedger(NoopObserver).wants_ledger());
        assert!(Tee(NoopObserver, WithLedger(NoopObserver)).wants_ledger());
        assert!(!Tee(NoopObserver, MetricsObserver::new()).wants_ledger());
        let mut wrapped = WithLedger(NoopObserver);
        let lent: &mut WithLedger<NoopObserver> = &mut wrapped;
        assert!(lent.wants_ledger());
    }

    #[test]
    fn optional_observer_forwards_only_when_present() {
        let mut absent: Option<RecordingObserver> = None;
        absent.on_event(&attempt(0));
        assert!(absent.is_none());
        assert!(!absent.wants_ledger());
        assert!(!Some(RecordingObserver::new()).wants_ledger());
        assert!(Some(WithLedger(NoopObserver)).wants_ledger());
        let mut present = Some(RecordingObserver::new());
        present.on_event(&attempt(1));
        assert_eq!(present.unwrap().events().len(), 1);
    }

    #[test]
    fn metrics_observer_folds_ledger_flows() {
        let mut obs = MetricsObserver::new();
        let node = NodeId::new(0);
        for entry in [
            crate::LedgerEntry::Harvested { uj: 1.5 },
            crate::LedgerEntry::Harvested { uj: 0.25 },
            crate::LedgerEntry::Drawn {
                op: crate::DrawOp::Infer,
                uj: 0.5,
            },
            crate::LedgerEntry::SlotClose { stored_uj: 3.0 },
        ] {
            obs.on_event(&SimEvent::Ledger {
                window: 0,
                node,
                entry,
            });
        }
        let m = obs.metrics();
        assert_eq!(
            m.fcounter("origin_ledger_microjoules_total{flow=\"harvested\"}"),
            1.75
        );
        assert_eq!(
            m.fcounter("origin_ledger_drawn_microjoules_total{op=\"infer\"}"),
            0.5
        );
        assert_eq!(m.counter("origin_ledger_slots_total"), 1);
    }

    /// The static counter keys are exactly the keys the metric families
    /// are documented under (`<family>{<label>="<name>"}`).
    #[test]
    fn static_metric_keys_match_their_names() {
        let kinds = [
            EventKind::WindowStart,
            EventKind::HarvestSlice,
            EventKind::SlotScheduled,
            EventKind::ActivationSignal,
            EventKind::InferenceAttempt,
            EventKind::InferenceCompleted,
            EventKind::InferenceBrownout,
            EventKind::NvpCheckpoint,
            EventKind::MessageTx,
            EventKind::MessageDrop,
            EventKind::RecallServed,
            EventKind::EnsembleVote,
            EventKind::ConfidenceUpdate,
            EventKind::Ledger,
        ];
        assert_eq!(kinds.len(), EVENTS_TOTAL.len());
        for kind in kinds {
            assert_eq!(
                EVENTS_TOTAL[kind as usize],
                format!("origin_events_total{{event=\"{}\"}}", kind.name())
            );
        }
        let ops = [
            DrawOp::Duty,
            DrawOp::Infer,
            DrawOp::Checkpoint,
            DrawOp::Lost,
            DrawOp::RadioTx,
            DrawOp::RadioRx,
        ];
        assert_eq!(ops.len(), DRAWN_TOTAL.len());
        for op in ops {
            assert_eq!(
                DRAWN_TOTAL[op as usize],
                format!(
                    "origin_ledger_drawn_microjoules_total{{op=\"{}\"}}",
                    op.name()
                )
            );
        }
        let flows = [
            LedgerEntry::Harvested { uj: 0.0 },
            LedgerEntry::ChargeLoss { uj: 0.0 },
            LedgerEntry::Clipped { uj: 0.0 },
            LedgerEntry::Leaked { uj: 0.0 },
        ];
        for (entry, key) in flows.iter().zip(FLOW_TOTAL) {
            assert_eq!(
                key,
                format!(
                    "origin_ledger_microjoules_total{{flow=\"{}\"}}",
                    entry.flow()
                )
            );
        }
        for (node, key) in NODE_STORED.iter().enumerate() {
            assert_eq!(
                *key,
                format!("origin_node_stored_microjoules{{node=\"{node}\"}}")
            );
        }
    }

    /// Every event, ledger flow, draw operation and node (inside and
    /// beyond the static key table) lands under the formatted key.
    #[test]
    fn metrics_keys_cover_every_flow_op_and_node() {
        let mut obs = MetricsObserver::new();
        let entries = [
            LedgerEntry::Opening { stored_uj: 1.0 },
            LedgerEntry::Harvested { uj: 1.0 },
            LedgerEntry::ChargeLoss { uj: 2.0 },
            LedgerEntry::Clipped { uj: 3.0 },
            LedgerEntry::Leaked { uj: 4.0 },
            LedgerEntry::SlotClose { stored_uj: 5.0 },
        ];
        for entry in entries {
            obs.on_event(&SimEvent::Ledger {
                window: 0,
                node: NodeId::new(0),
                entry,
            });
        }
        for (i, op) in [
            DrawOp::Duty,
            DrawOp::Infer,
            DrawOp::Checkpoint,
            DrawOp::Lost,
            DrawOp::RadioTx,
            DrawOp::RadioRx,
        ]
        .into_iter()
        .enumerate()
        {
            obs.on_event(&SimEvent::Ledger {
                window: 0,
                node: NodeId::new(0),
                entry: LedgerEntry::Drawn {
                    op,
                    uj: i as f64 + 0.5,
                },
            });
        }
        for node in [0, 2, 3, 17] {
            obs.on_event(&SimEvent::HarvestSlice {
                window: 0,
                node: NodeId::new(node),
                harvested_uj: 1.0,
                stored_uj: f64::from(node) + 0.25,
            });
        }
        let m = obs.metrics();
        for entry in entries {
            if let LedgerEntry::Harvested { uj }
            | LedgerEntry::ChargeLoss { uj }
            | LedgerEntry::Clipped { uj }
            | LedgerEntry::Leaked { uj } = entry
            {
                let key = format!(
                    "origin_ledger_microjoules_total{{flow=\"{}\"}}",
                    entry.flow()
                );
                assert_eq!(m.fcounter(&key), uj, "{key}");
            }
        }
        assert_eq!(m.fcounters().count(), 4 + 6);
        assert_eq!(m.counter("origin_ledger_slots_total"), 1);
        assert_eq!(
            m.fcounter("origin_ledger_drawn_microjoules_total{op=\"radio_rx\"}"),
            5.5
        );
        for node in [0u32, 2, 3, 17] {
            let key = format!("origin_node_stored_microjoules{{node=\"{node}\"}}");
            assert_eq!(m.gauge(&key), Some(f64::from(node) + 0.25), "{key}");
        }
        assert_eq!(obs.count(EventKind::Ledger), 12);
        assert_eq!(obs.count(EventKind::HarvestSlice), 4);
        assert_eq!(obs.total(), 16);
        assert_eq!(m.counter("origin_events_total{event=\"ledger\"}"), 12);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut rec = RecordingObserver::new();
        {
            let lent: &mut RecordingObserver = &mut rec;
            lent.on_event(&attempt(7));
        }
        assert_eq!(rec.events().len(), 1);
    }
}
