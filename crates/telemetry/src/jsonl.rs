//! The JSONL event sink: one [`SimEvent`] per line.
//!
//! The schema is one JSON object per line with `"event"` first (see
//! EXPERIMENTS.md §Telemetry); lines parse back with
//! [`crate::JsonValue::parse`]. Each line is streamed straight from the
//! event's fields into one reused buffer, through the same number and
//! string writers [`crate::JsonValue::render`] uses, so a line is
//! byte-identical to rendering the equivalent `JsonValue` object. Keys
//! are pre-escaped literals, integers go through an in-repo digit writer,
//! and only non-integral floats reach `core::fmt` — once per value while
//! it stays in a 64-slot memo of recent renders.

use crate::event::{LedgerEntry, Party, SimEvent};
use crate::json::{write_number, write_string, write_uint};
use crate::observer::SimObserver;
use std::io::{self, Write};

/// Writes every observed event as one JSON line into `W`.
///
/// I/O errors are deferred: the writer keeps a sticky first error and
/// stops writing, and [`JsonlObserver::finish`] surfaces it — `on_event`
/// itself stays infallible so the observer can sit on the hot path.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    writer: W,
    line: String,
    memo: FloatMemo,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlObserver<W> {
    /// Wraps `writer` as an event sink.
    #[must_use]
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            line: String::new(),
            memo: FloatMemo::new(),
            written: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the inner writer, or the first I/O error hit.
    ///
    /// # Errors
    ///
    /// Returns the sticky write error if any line failed, or the flush
    /// error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> SimObserver for JsonlObserver<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        write_event(&mut self.line, &mut self.memo, event);
        self.line.push('\n');
        match self.writer.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Recent renders of the events' float fields, direct-mapped by bit
/// pattern: the ledger repeats a few values (per-window costs and
/// capacities), and a hit skips `core::fmt`.
#[derive(Debug)]
struct FloatMemo {
    /// `(bits, render)`; an empty render marks an unused slot.
    slots: Vec<(u64, String)>,
}

impl FloatMemo {
    const SLOTS: usize = 64;

    fn new() -> Self {
        Self {
            slots: vec![(0, String::new()); Self::SLOTS],
        }
    }

    /// Writes `v` exactly as [`write_number`] does.
    fn write(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        // Fibonacci hashing: the top 6 bits of the product.
        let slot = &mut self.slots[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize];
        if slot.0 == bits && !slot.1.is_empty() {
            out.push_str(&slot.1);
            return;
        }
        let start = out.len();
        write_number(out, v);
        slot.0 = bits;
        slot.1.clear();
        slot.1.push_str(&out[start..]);
    }
}

/// `,"<name>":` — a member key as one pre-escaped literal (every key
/// below is plain snake_case, so it needs no escaping).
macro_rules! key {
    ($name:literal) => {
        concat!(",\"", $name, "\":")
    };
}

/// One JSON object under construction: `{"event":…` then `,"key":value`
/// members, closed by [`Line::close`]. Keys arrive as `key!` literals.
struct Line<'a>(&'a mut String, &'a mut FloatMemo);

impl Line<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push_str(key);
        &mut *self.0
    }

    fn num(&mut self, key: &str, value: f64) {
        self.0.push_str(key);
        self.1.write(self.0, value);
    }

    /// Integers are JSON numbers, so they render exactly as
    /// `JsonValue::from(u64)` does: digit for digit below 2^53, and
    /// through the rounding `f64` above it.
    fn uint(&mut self, key: &str, value: u64) {
        if value < 1 << 53 {
            write_uint(self.key(key), value);
        } else {
            self.num(key, value as f64);
        }
    }

    fn str(&mut self, key: &str, value: &str) {
        write_string(self.key(key), value);
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.key(key).push_str(if value { "true" } else { "false" });
    }

    fn party(&mut self, key: &str, party: Party) {
        match party {
            Party::Host => self.str(key, "host"),
            Party::Node(id) => {
                // `node<digits>` needs no escaping.
                let out = self.key(key);
                out.push_str("\"node");
                write_uint(out, u64::from(id.as_u32()));
                out.push('"');
            }
        }
    }

    fn close(self) {
        self.0.push('}');
    }
}

/// Renders `event` as one JSON object (no trailing newline) into `out`.
/// The `"event"` key always comes first and holds
/// [`crate::EventKind::name`].
fn write_event(out: &mut String, memo: &mut FloatMemo, event: &SimEvent) {
    out.push_str("{\"event\":");
    write_string(out, event.kind().name());
    let mut line = Line(out, memo);
    match *event {
        SimEvent::WindowStart {
            window,
            at_us,
            truth,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("at_us"), at_us);
            line.str(key!("truth"), truth.label());
        }
        SimEvent::HarvestSlice {
            window,
            node,
            harvested_uj,
            stored_uj,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("node"), u64::from(node.as_u32()));
            line.num(key!("harvested_uj"), harvested_uj);
            line.num(key!("stored_uj"), stored_uj);
        }
        SimEvent::SlotScheduled {
            window,
            attempters,
            idle,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("attempters"), u64::from(attempters));
            line.bool(key!("idle"), idle);
        }
        SimEvent::ActivationSignal { window, from, to } => {
            line.uint(key!("window"), window);
            line.uint(key!("from"), u64::from(from.as_u32()));
            line.uint(key!("to"), u64::from(to.as_u32()));
        }
        SimEvent::InferenceAttempt {
            window,
            node,
            headroom,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("node"), u64::from(node.as_u32()));
            line.num(key!("headroom"), headroom);
        }
        SimEvent::InferenceCompleted {
            window,
            node,
            activity,
            confidence,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("node"), u64::from(node.as_u32()));
            line.str(key!("activity"), activity.label());
            line.num(key!("confidence"), confidence);
        }
        SimEvent::InferenceBrownout {
            window,
            node,
            sensed,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("node"), u64::from(node.as_u32()));
            line.bool(key!("sensed"), sensed);
        }
        SimEvent::NvpCheckpoint { window, node } => {
            line.uint(key!("window"), window);
            line.uint(key!("node"), u64::from(node.as_u32()));
        }
        SimEvent::MessageTx {
            from,
            to,
            bytes,
            at_us,
        }
        | SimEvent::MessageDrop {
            from,
            to,
            bytes,
            at_us,
        } => {
            line.party(key!("from"), from);
            line.party(key!("to"), to);
            line.uint(key!("bytes"), bytes as u64);
            line.uint(key!("at_us"), at_us);
        }
        SimEvent::RecallServed { window, votes } => {
            line.uint(key!("window"), window);
            line.uint(key!("votes"), u64::from(votes));
        }
        SimEvent::EnsembleVote { window, prediction } => {
            line.uint(key!("window"), window);
            match prediction {
                Some(activity) => line.str(key!("prediction"), activity.label()),
                None => line.key(key!("prediction")).push_str("null"),
            }
        }
        SimEvent::ConfidenceUpdate {
            node,
            activity,
            weight,
        } => {
            line.uint(key!("node"), u64::from(node.as_u32()));
            line.str(key!("activity"), activity.label());
            line.num(key!("weight"), weight);
        }
        SimEvent::Ledger {
            window,
            node,
            entry,
        } => {
            line.uint(key!("window"), window);
            line.uint(key!("node"), u64::from(node.as_u32()));
            line.str(key!("flow"), entry.flow());
            match entry {
                LedgerEntry::Opening { stored_uj } | LedgerEntry::SlotClose { stored_uj } => {
                    line.num(key!("stored_uj"), stored_uj);
                }
                LedgerEntry::Drawn { op, uj } => {
                    line.str(key!("op"), op.name());
                    line.num(key!("uj"), uj);
                }
                LedgerEntry::Harvested { uj }
                | LedgerEntry::ChargeLoss { uj }
                | LedgerEntry::Clipped { uj }
                | LedgerEntry::Leaked { uj } => {
                    line.num(key!("uj"), uj);
                }
            }
        }
    }
    line.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DrawOp;
    use crate::json::JsonValue;
    use origin_check::{Draw, Rng};
    use origin_types::{ActivityClass, NodeId};

    fn stream(event: &SimEvent) -> String {
        let mut out = String::new();
        write_event(&mut out, &mut FloatMemo::new(), event);
        out
    }

    fn parsed(event: &SimEvent) -> JsonValue {
        JsonValue::parse(&stream(event)).unwrap()
    }

    fn party(p: Party) -> JsonValue {
        match p {
            Party::Host => JsonValue::from("host"),
            Party::Node(id) => JsonValue::from(format!("node{}", id.as_u32())),
        }
    }

    /// The event as a `JsonValue` tree, field by field: the reference the
    /// streamed lines must render byte for byte.
    fn reference(event: &SimEvent) -> JsonValue {
        let node = |id: NodeId| JsonValue::from(u64::from(id.as_u32()));
        let mut fields = vec![("event", JsonValue::from(event.kind().name()))];
        match *event {
            SimEvent::WindowStart {
                window,
                at_us,
                truth,
            } => fields.extend([
                ("window", window.into()),
                ("at_us", at_us.into()),
                ("truth", truth.label().into()),
            ]),
            SimEvent::HarvestSlice {
                window,
                node: id,
                harvested_uj,
                stored_uj,
            } => fields.extend([
                ("window", window.into()),
                ("node", node(id)),
                ("harvested_uj", harvested_uj.into()),
                ("stored_uj", stored_uj.into()),
            ]),
            SimEvent::SlotScheduled {
                window,
                attempters,
                idle,
            } => fields.extend([
                ("window", window.into()),
                ("attempters", u64::from(attempters).into()),
                ("idle", idle.into()),
            ]),
            SimEvent::ActivationSignal { window, from, to } => fields.extend([
                ("window", window.into()),
                ("from", node(from)),
                ("to", node(to)),
            ]),
            SimEvent::InferenceAttempt {
                window,
                node: id,
                headroom,
            } => fields.extend([
                ("window", window.into()),
                ("node", node(id)),
                ("headroom", headroom.into()),
            ]),
            SimEvent::InferenceCompleted {
                window,
                node: id,
                activity,
                confidence,
            } => fields.extend([
                ("window", window.into()),
                ("node", node(id)),
                ("activity", activity.label().into()),
                ("confidence", confidence.into()),
            ]),
            SimEvent::InferenceBrownout {
                window,
                node: id,
                sensed,
            } => fields.extend([
                ("window", window.into()),
                ("node", node(id)),
                ("sensed", sensed.into()),
            ]),
            SimEvent::NvpCheckpoint { window, node: id } => {
                fields.extend([("window", window.into()), ("node", node(id))]);
            }
            SimEvent::MessageTx {
                from,
                to,
                bytes,
                at_us,
            }
            | SimEvent::MessageDrop {
                from,
                to,
                bytes,
                at_us,
            } => fields.extend([
                ("from", party(from)),
                ("to", party(to)),
                ("bytes", (bytes as u64).into()),
                ("at_us", at_us.into()),
            ]),
            SimEvent::RecallServed { window, votes } => fields.extend([
                ("window", window.into()),
                ("votes", u64::from(votes).into()),
            ]),
            SimEvent::EnsembleVote { window, prediction } => fields.extend([
                ("window", window.into()),
                (
                    "prediction",
                    prediction.map_or(JsonValue::Null, |a| a.label().into()),
                ),
            ]),
            SimEvent::ConfidenceUpdate {
                node: id,
                activity,
                weight,
            } => fields.extend([
                ("node", node(id)),
                ("activity", activity.label().into()),
                ("weight", weight.into()),
            ]),
            SimEvent::Ledger {
                window,
                node: id,
                entry,
            } => {
                fields.extend([
                    ("window", window.into()),
                    ("node", node(id)),
                    ("flow", entry.flow().into()),
                ]);
                match entry {
                    LedgerEntry::Opening { stored_uj } | LedgerEntry::SlotClose { stored_uj } => {
                        fields.push(("stored_uj", stored_uj.into()));
                    }
                    LedgerEntry::Drawn { op, uj } => {
                        fields.extend([("op", op.name().into()), ("uj", uj.into())]);
                    }
                    LedgerEntry::Harvested { uj }
                    | LedgerEntry::ChargeLoss { uj }
                    | LedgerEntry::Clipped { uj }
                    | LedgerEntry::Leaked { uj } => fields.push(("uj", uj.into())),
                }
            }
        }
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// What parsing a rendered value gives back: JSON has no NaN or ±∞.
    fn as_parsed(value: JsonValue) -> JsonValue {
        match value {
            JsonValue::Num(v) if !v.is_finite() => JsonValue::Null,
            JsonValue::Object(fields) => {
                JsonValue::Object(fields.into_iter().map(|(k, v)| (k, as_parsed(v))).collect())
            }
            other => other,
        }
    }

    /// Every variant, every ledger flow and draw operation, and both
    /// party forms, carrying window index `w` and float value `v`.
    fn every_event(w: u64, v: f64) -> Vec<SimEvent> {
        let node = NodeId::new(2);
        let mut events = vec![
            SimEvent::WindowStart {
                window: w,
                at_us: w,
                truth: ActivityClass::Cycling,
            },
            SimEvent::HarvestSlice {
                window: w,
                node,
                harvested_uj: v,
                stored_uj: -v,
            },
            SimEvent::SlotScheduled {
                window: w,
                attempters: 3,
                idle: false,
            },
            SimEvent::SlotScheduled {
                window: w,
                attempters: 0,
                idle: true,
            },
            SimEvent::ActivationSignal {
                window: w,
                from: NodeId::new(0),
                to: node,
            },
            SimEvent::InferenceAttempt {
                window: w,
                node,
                headroom: v,
            },
            SimEvent::InferenceBrownout {
                window: w,
                node,
                sensed: true,
            },
            SimEvent::NvpCheckpoint { window: w, node },
            SimEvent::MessageTx {
                from: Party::Node(NodeId::new(u32::MAX)),
                to: Party::Host,
                bytes: 6,
                at_us: w,
            },
            SimEvent::MessageDrop {
                from: Party::Host,
                to: Party::Node(node),
                bytes: usize::MAX,
                at_us: w,
            },
            SimEvent::RecallServed {
                window: w,
                votes: u32::MAX,
            },
            SimEvent::EnsembleVote {
                window: w,
                prediction: None,
            },
        ];
        for activity in ActivityClass::ALL {
            events.extend([
                SimEvent::InferenceCompleted {
                    window: w,
                    node,
                    activity,
                    confidence: v,
                },
                SimEvent::EnsembleVote {
                    window: w,
                    prediction: Some(activity),
                },
                SimEvent::ConfidenceUpdate {
                    node,
                    activity,
                    weight: v,
                },
            ]);
        }
        let mut entries = vec![
            LedgerEntry::Opening { stored_uj: v },
            LedgerEntry::Harvested { uj: v },
            LedgerEntry::ChargeLoss { uj: v },
            LedgerEntry::Clipped { uj: v },
            LedgerEntry::Leaked { uj: v },
            LedgerEntry::SlotClose { stored_uj: v },
        ];
        for op in [
            DrawOp::Duty,
            DrawOp::Infer,
            DrawOp::Checkpoint,
            DrawOp::Lost,
            DrawOp::RadioTx,
            DrawOp::RadioRx,
        ] {
            entries.push(LedgerEntry::Drawn { op, uj: v });
        }
        events.extend(entries.into_iter().map(|entry| SimEvent::Ledger {
            window: w,
            node,
            entry,
        }));
        events
    }

    const EDGE_WINDOWS: [u64; 5] = [0, 41, 1 << 53, (1 << 53) + 1, u64::MAX];

    const EDGE_VALUES: [f64; 12] = [
        0.0,
        -0.0,
        2.0,
        -17.0,
        1.5,
        0.1,
        1e300,
        5e-324,
        9_007_199_254_740_992.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// The streamed line is the reference tree's rendering byte for byte,
    /// it is its own parse-and-render fixed point, and it parses back to
    /// the event's fields.
    #[test]
    fn streamed_lines_match_the_reference_rendering() {
        let mut kinds = std::collections::BTreeSet::new();
        for w in EDGE_WINDOWS {
            for v in EDGE_VALUES {
                for event in every_event(w, v) {
                    kinds.insert(event.kind());
                    let line = stream(&event);
                    let tree = reference(&event);
                    assert_eq!(line, tree.render(), "{event:?}");
                    let back = JsonValue::parse(&line).unwrap();
                    assert_eq!(back.render(), line, "{event:?}");
                    assert_eq!(back, as_parsed(tree), "{event:?}");
                }
            }
        }
        assert_eq!(kinds.len(), 14, "every SimEvent variant is covered");
    }

    #[test]
    fn edge_values_render_as_json_numbers_or_null() {
        let line = |v: f64| {
            stream(&SimEvent::InferenceAttempt {
                window: (1 << 53) + 1,
                node: NodeId::new(0),
                headroom: v,
            })
        };
        let expect = |num: &str| {
            format!(
                r#"{{"event":"inference_attempt","window":9007199254740992,"node":0,"headroom":{num}}}"#
            )
        };
        assert_eq!(line(f64::NAN), expect("null"));
        assert_eq!(line(f64::INFINITY), expect("null"));
        assert_eq!(line(f64::NEG_INFINITY), expect("null"));
        assert_eq!(line(-0.0), expect("0"));
        assert_eq!(line(2.0), expect("2"));
        assert_eq!(line(0.1), expect("0.1"));
    }

    /// The observer's reused line buffer never leaks one event into the
    /// next line.
    #[test]
    fn observer_output_is_the_reference_lines() {
        let events = every_event(7, 0.25);
        let mut sink = JsonlObserver::new(Vec::new());
        let mut expected = String::new();
        for event in &events {
            sink.on_event(event);
            expected.push_str(&reference(event).render());
            expected.push('\n');
        }
        assert_eq!(sink.events_written(), events.len() as u64);
        assert_eq!(String::from_utf8(sink.finish().unwrap()).unwrap(), expected);
    }

    /// The float memo hands back exactly what it stored: a stream that
    /// revisits a pool of values larger than the memo (hits, misses and
    /// slot evictions, among them values a few ulps apart) renders as the
    /// reference lines.
    #[test]
    fn memoized_floats_render_as_the_reference() {
        origin_check::check(32, |rng| {
            let pool: Vec<f64> = (0..150u64)
                .map(|i| match i % 3 {
                    0 => f64::from_bits(rng.u64_in(0..u64::MAX)),
                    1 => f64::from(rng.gen_range(0u32..1000)) * 0.05,
                    _ => f64::from_bits(0.8f64.to_bits() + i),
                })
                .collect();
            let mut sink = JsonlObserver::new(Vec::new());
            let mut expected = String::new();
            for _ in 0..500 {
                let uj = pool[rng.gen_range(0..pool.len())];
                let event = SimEvent::Ledger {
                    window: 0,
                    node: NodeId::new(1),
                    entry: LedgerEntry::Leaked { uj },
                };
                sink.on_event(&event);
                expected.push_str(&reference(&event).render());
                expected.push('\n');
            }
            assert_eq!(String::from_utf8(sink.finish().unwrap()).unwrap(), expected);
        });
    }

    #[test]
    fn events_render_their_kind_and_fields() {
        let json = parsed(&SimEvent::InferenceAttempt {
            window: 41,
            node: NodeId::new(2),
            headroom: 1.5,
        });
        assert_eq!(
            json.get("event").and_then(JsonValue::as_str),
            Some("inference_attempt")
        );
        assert_eq!(json.get("window").and_then(JsonValue::as_u64), Some(41));
        assert_eq!(json.get("node").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(json.get("headroom").and_then(JsonValue::as_f64), Some(1.5));
    }

    #[test]
    fn ensemble_vote_renders_null_prediction() {
        let json = parsed(&SimEvent::EnsembleVote {
            window: 0,
            prediction: None,
        });
        assert!(matches!(json.get("prediction"), Some(JsonValue::Null)));
    }

    #[test]
    fn ledger_events_render_flow_and_op() {
        let json = parsed(&SimEvent::Ledger {
            window: 7,
            node: NodeId::new(1),
            entry: LedgerEntry::Drawn {
                op: DrawOp::Infer,
                uj: 2.25,
            },
        });
        assert_eq!(
            json.get("event").and_then(JsonValue::as_str),
            Some("ledger")
        );
        assert_eq!(json.get("flow").and_then(JsonValue::as_str), Some("drawn"));
        assert_eq!(json.get("op").and_then(JsonValue::as_str), Some("infer"));
        assert_eq!(json.get("uj").and_then(JsonValue::as_f64), Some(2.25));

        let json = parsed(&SimEvent::Ledger {
            window: 7,
            node: NodeId::new(1),
            entry: LedgerEntry::SlotClose { stored_uj: 10.5 },
        });
        assert_eq!(
            json.get("flow").and_then(JsonValue::as_str),
            Some("slot_close")
        );
        assert_eq!(
            json.get("stored_uj").and_then(JsonValue::as_f64),
            Some(10.5)
        );
    }

    #[test]
    fn message_events_render_parties() {
        let json = parsed(&SimEvent::MessageDrop {
            from: Party::Node(NodeId::new(1)),
            to: Party::Host,
            bytes: 6,
            at_us: 500,
        });
        assert_eq!(json.get("from").and_then(JsonValue::as_str), Some("node1"));
        assert_eq!(json.get("to").and_then(JsonValue::as_str), Some("host"));
        assert_eq!(json.get("bytes").and_then(JsonValue::as_u64), Some(6));
    }

    #[test]
    fn writes_one_parseable_line_per_event() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on_event(&SimEvent::NvpCheckpoint {
            window: 3,
            node: NodeId::new(1),
        });
        sink.on_event(&SimEvent::RecallServed {
            window: 4,
            votes: 2,
        });
        assert_eq!(sink.events_written(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("event").and_then(JsonValue::as_str),
            Some("nvp_checkpoint")
        );
        assert_eq!(first.get("window").and_then(JsonValue::as_u64), Some(3));
        let second = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(second.get("votes").and_then(JsonValue::as_u64), Some(2));
    }

    /// A writer that fails after `ok_writes` successful lines.
    struct Flaky {
        ok_writes: u32,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                Err(io::Error::other("disk full"))
            } else {
                self.ok_writes -= 1;
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn io_errors_are_sticky_and_surface_in_finish() {
        let mut sink = JsonlObserver::new(Flaky { ok_writes: 1 });
        let event = SimEvent::RecallServed {
            window: 0,
            votes: 1,
        };
        sink.on_event(&event);
        sink.on_event(&event);
        sink.on_event(&event);
        assert_eq!(sink.events_written(), 1);
        assert!(sink.finish().is_err());
    }
}
