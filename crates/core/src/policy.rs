//! The scheduling policies: naive, plain ER-r, AAS, AASR and Origin.

use crate::ensemble::EnsembleKind;
use crate::error::CoreError;
use crate::rank::RankTable;
use crate::schedule::{SlotKind, Slots};
use origin_telemetry::{NoopObserver, SimEvent, SimObserver};
use origin_types::{ActivityClass, NodeId};

/// Which policy drives the deployment (Section III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Every sensor attempts every window — the Fig. 1a motivation
    /// experiment.
    NaiveAllOn,
    /// Plain (extended) round-robin with a fixed node rotation: RR3,
    /// RR6, RR9, RR12 (Fig. 3). Output is the latest single result.
    RoundRobin {
        /// ER-r cycle length (multiple of the node count).
        cycle: u8,
    },
    /// Activity-aware scheduling: the rank table picks the attempter for
    /// the anticipated activity at the ER-r cadence. Output is the latest
    /// single result.
    Aas {
        /// ER-r cycle length.
        cycle: u8,
    },
    /// AAS + host-side recall with naive majority voting.
    Aasr {
        /// ER-r cycle length.
        cycle: u8,
    },
    /// The full policy: AASR + adaptive confidence-weighted voting.
    Origin {
        /// ER-r cycle length.
        cycle: u8,
    },
}

impl PolicyKind {
    /// The ER-r cycle, `None` for the naive policy.
    #[must_use]
    pub fn cycle(&self) -> Option<u8> {
        match *self {
            PolicyKind::NaiveAllOn => None,
            PolicyKind::RoundRobin { cycle }
            | PolicyKind::Aas { cycle }
            | PolicyKind::Aasr { cycle }
            | PolicyKind::Origin { cycle } => Some(cycle),
        }
    }

    /// Whether the rank table selects the attempter.
    #[must_use]
    pub fn is_activity_aware(&self) -> bool {
        matches!(
            self,
            PolicyKind::Aas { .. } | PolicyKind::Aasr { .. } | PolicyKind::Origin { .. }
        )
    }

    /// The host aggregation this policy runs.
    #[must_use]
    pub fn ensemble(&self) -> EnsembleKind {
        match self {
            PolicyKind::NaiveAllOn => EnsembleKind::Majority,
            PolicyKind::RoundRobin { .. } | PolicyKind::Aas { .. } => EnsembleKind::SingleLatest,
            PolicyKind::Aasr { .. } => EnsembleKind::Majority,
            PolicyKind::Origin { .. } => EnsembleKind::ConfidenceWeighted,
        }
    }

    /// Whether the host's confidence matrix adapts online.
    #[must_use]
    pub fn adapts_confidence(&self) -> bool {
        matches!(self, PolicyKind::Origin { .. })
    }

    /// Display label matching the paper's figure legends ("RR12 Origin").
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::NaiveAllOn => "Naive".to_owned(),
            PolicyKind::RoundRobin { cycle } => format!("RR{cycle}"),
            PolicyKind::Aas { cycle } => format!("RR{cycle} AAS"),
            PolicyKind::Aasr { cycle } => format!("RR{cycle} AASR"),
            PolicyKind::Origin { cycle } => format!("RR{cycle} Origin"),
        }
    }
}

impl core::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

/// One window's scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Nodes that attempt an inference this window.
    pub attempters: Vec<NodeId>,
    /// An AAS activation hand-off to deliver over the radio, if the
    /// attempter differs from the previous one (`from`, `to`).
    pub signal: Option<(NodeId, NodeId)>,
}

impl Plan {
    /// A window where everyone just harvests.
    #[must_use]
    pub fn idle() -> Self {
        Self {
            attempters: Vec::new(),
            signal: None,
        }
    }
}

/// Runtime scheduling state for one policy, borrowing the rank table
/// its models were trained with.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyState<'r> {
    kind: PolicyKind,
    slots: Option<Slots>,
    rank: &'r RankTable,
    nodes: usize,
    cold_start_next: usize,
    prev_attempter: Option<NodeId>,
    // Window index of each node's last attempt; AAS respects the ER-r
    // spacing *per sensor* ("we induce delays between sending the external
    // signal and starting the inference on the same sensor",
    // Section III-B), so a node runs at most once per cycle.
    last_attempt: Vec<Option<u64>>,
}

impl<'r> PolicyState<'r> {
    /// Builds the runtime state for `kind` over `nodes` sensors, using
    /// `rank` for activity-aware selection.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadCycle`] for invalid ER-r cycles.
    pub fn new(kind: PolicyKind, rank: &'r RankTable, nodes: usize) -> Result<Self, CoreError> {
        let slots = match kind.cycle() {
            Some(cycle) => Some(Slots::new(cycle, nodes)?),
            None => None,
        };
        Ok(Self {
            kind,
            slots,
            rank,
            nodes,
            cold_start_next: 0,
            prev_attempter: None,
            last_attempt: vec![None; nodes],
        })
    }

    /// The policy kind.
    #[must_use]
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The slot structure, `None` for the naive policy.
    #[must_use]
    pub fn slots(&self) -> Option<&Slots> {
        self.slots.as_ref()
    }

    /// The rank table in use.
    #[must_use]
    pub fn rank(&self) -> &'r RankTable {
        self.rank
    }

    /// Decides who attempts at window index `window`.
    ///
    /// * `anticipated` — the host's current classification (the activity
    ///   the scheduler expects to continue);
    /// * `headroom[n]` — node `n`'s stored energy divided by its full
    ///   attempt cost (≥ 1.0 means affordable), used for the AAS next-best
    ///   fallback ("the current sensor chooses the next best sensor for
    ///   the job and signals it").
    ///
    /// # Panics
    ///
    /// Panics when `headroom.len() != nodes`.
    pub fn plan(
        &mut self,
        window: u64,
        anticipated: Option<ActivityClass>,
        headroom: &[f64],
    ) -> Plan {
        self.plan_observed(window, anticipated, headroom, &mut NoopObserver)
    }

    /// [`PolicyState::plan`] with telemetry: emits one
    /// [`SimEvent::SlotScheduled`] per window, no-op slots included. The
    /// observer is a pure consumer — the decision is identical to the
    /// unobserved path.
    ///
    /// # Panics
    ///
    /// Panics when `headroom.len() != nodes`.
    pub fn plan_observed<O: SimObserver>(
        &mut self,
        window: u64,
        anticipated: Option<ActivityClass>,
        headroom: &[f64],
        observer: &mut O,
    ) -> Plan {
        assert_eq!(headroom.len(), self.nodes, "one headroom per node");
        let (plan, idle) = self.decide(window, anticipated, headroom);
        observer.on_event(&SimEvent::SlotScheduled {
            window,
            attempters: plan.attempters.len() as u32,
            idle,
        });
        plan
    }

    /// The scheduling decision and whether the slot was an ER-r no-op.
    fn decide(
        &mut self,
        window: u64,
        anticipated: Option<ActivityClass>,
        headroom: &[f64],
    ) -> (Plan, bool) {
        let Some(slots) = self.slots else {
            // Naive: everyone, every window, no signalling.
            let plan = Plan {
                attempters: (0..self.nodes).map(|i| NodeId::new(i as u32)).collect(),
                signal: None,
            };
            return (plan, false);
        };
        let SlotKind::Sensor { ordinal } = slots.slot_at(window) else {
            return (Plan::idle(), true);
        };

        let chosen = if self.kind.is_activity_aware() {
            self.choose_activity_aware(window, ordinal, anticipated, headroom)
        } else {
            NodeId::new((ordinal % self.nodes) as u32)
        };

        let signal = match self.prev_attempter {
            Some(prev) if self.kind.is_activity_aware() && prev != chosen => Some((prev, chosen)),
            _ => None,
        };
        self.prev_attempter = Some(chosen);
        self.last_attempt[chosen.as_usize()] = Some(window);
        let plan = Plan {
            attempters: vec![chosen],
            signal,
        };
        (plan, false)
    }

    fn choose_activity_aware(
        &mut self,
        window: u64,
        ordinal: usize,
        anticipated: Option<ActivityClass>,
        headroom: &[f64],
    ) -> NodeId {
        let slots = self.slots.expect("AAS always has slots");
        // The ER-r spacing applied to the *same sensor* ("we induce delays
        // between sending the external signal and starting the inference
        // on the same sensor", Section III-B). How aggressively the best
        // sensor may repeat depends on what the host consumes:
        //
        // * plain AAS reports the latest single result, so concentrating
        //   inferences on the best sensor maximizes output quality — the
        //   same sensor may take every other sensor slot;
        // * AASR/Origin ensemble over *recalled* votes, which are only
        //   useful while fresh — every node takes exactly one sensor slot
        //   per cycle so no recall ages beyond one rotation.
        let stride = u64::from(slots.cycle() / slots.nodes() as u8);
        let cooldown = match self.kind {
            PolicyKind::Aas { .. } => stride * 2,
            _ => u64::from(slots.cycle()),
        };
        let off_cooldown = |n: &NodeId| {
            self.last_attempt[n.as_usize()]
                .is_none_or(|last| window.saturating_sub(last) >= cooldown)
        };
        let Some(activity) = anticipated else {
            // Cold start: plain rotation until the first classification.
            let node = NodeId::new(((ordinal + self.cold_start_next) % self.nodes) as u32);
            self.cold_start_next = (self.cold_start_next + 1) % self.nodes;
            return node;
        };
        let Some(order) = self.rank.ordered(activity) else {
            return NodeId::new((ordinal % self.nodes) as u32);
        };
        // Best-ranked sensor off ER-r cooldown that can afford the
        // attempt. If none can, the slot goes to the off-cooldown node
        // with the most stored energy — the one closest to completing —
        // instead of wasting the slot on the (possibly empty) best-ranked
        // node. With `nodes` sensor slots per cycle and a once-per-cycle
        // cooldown, some node is always eligible.
        order
            .iter()
            .copied()
            .find(|n| off_cooldown(n) && headroom.get(n.as_usize()).copied().unwrap_or(0.0) >= 1.0)
            .or_else(|| {
                order.iter().copied().filter(off_cooldown).max_by(|a, b| {
                    headroom[a.as_usize()]
                        .partial_cmp(&headroom[b.as_usize()])
                        .expect("headroom is finite")
                })
            })
            .unwrap_or(order[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_nn::ConfusionMatrix;
    use origin_types::ActivitySet;

    fn rank_preferring(node: u32) -> RankTable {
        // Build matrices where `node` is best at everything.
        let set = ActivitySet::mhealth();
        let matrices: Vec<ConfusionMatrix> = (0..3)
            .map(|i| {
                let mut m = ConfusionMatrix::new(6);
                let correct = if i == node as usize { 9 } else { 4 };
                for c in 0..6 {
                    for _ in 0..correct {
                        m.record(c, c);
                    }
                    for _ in 0..(10 - correct) {
                        m.record(c, (c + 1) % 6);
                    }
                }
                m
            })
            .collect();
        RankTable::from_validation(set, &matrices)
    }

    #[test]
    fn naive_schedules_everyone() {
        let rank = rank_preferring(0);
        let mut p = PolicyState::new(PolicyKind::NaiveAllOn, &rank, 3).unwrap();
        let plan = p.plan(0, None, &[2.0, 2.0, 2.0]);
        assert_eq!(plan.attempters.len(), 3);
        assert!(plan.signal.is_none());
        assert!(p.slots().is_none());
    }

    #[test]
    fn round_robin_rotates_fixed_order() {
        let rank = rank_preferring(0);
        let mut p = PolicyState::new(PolicyKind::RoundRobin { cycle: 6 }, &rank, 3).unwrap();
        let afford = [2.0, 2.0, 2.0];
        assert_eq!(p.plan(0, None, &afford).attempters, vec![NodeId::new(0)]);
        assert!(p.plan(1, None, &afford).attempters.is_empty()); // no-op
        assert_eq!(p.plan(2, None, &afford).attempters, vec![NodeId::new(1)]);
        assert_eq!(p.plan(4, None, &afford).attempters, vec![NodeId::new(2)]);
        assert_eq!(p.plan(6, None, &afford).attempters, vec![NodeId::new(0)]);
    }

    #[test]
    fn aas_picks_ranked_best_when_affordable() {
        let rank = rank_preferring(2);
        let mut p = PolicyState::new(PolicyKind::Aas { cycle: 3 }, &rank, 3).unwrap();
        let plan = p.plan(0, Some(ActivityClass::Walking), &[2.0, 2.0, 2.0]);
        assert_eq!(plan.attempters, vec![NodeId::new(2)]);
    }

    #[test]
    fn aas_falls_back_to_next_best() {
        let rank = rank_preferring(2);
        let mut p = PolicyState::new(PolicyKind::Aas { cycle: 3 }, &rank, 3).unwrap();
        // Node 2 (best) cannot afford; ties at 4/10 for 0 and 1 break to 0.
        let plan = p.plan(0, Some(ActivityClass::Walking), &[2.0, 2.0, 0.4]);
        assert_eq!(plan.attempters, vec![NodeId::new(0)]);
    }

    #[test]
    fn aas_attempts_best_even_when_no_one_affords() {
        let rank = rank_preferring(1);
        let mut p = PolicyState::new(PolicyKind::Aas { cycle: 3 }, &rank, 3).unwrap();
        let plan = p.plan(0, Some(ActivityClass::Running), &[0.1, 0.9, 0.2]);
        assert_eq!(plan.attempters, vec![NodeId::new(1)]);
    }

    #[test]
    fn aas_signals_on_handoff() {
        let rank = rank_preferring(2);
        let mut p = PolicyState::new(PolicyKind::Aas { cycle: 3 }, &rank, 3).unwrap();
        let first = p.plan(0, Some(ActivityClass::Walking), &[2.0, 2.0, 2.0]);
        assert!(first.signal.is_none(), "no previous attempter yet");
        // Best node 2 is now on ER-r cooldown: hand-off to node 0,
        // signalled from node 2.
        let second = p.plan(1, Some(ActivityClass::Walking), &[2.0, 2.0, 0.4]);
        assert_eq!(second.signal, Some((NodeId::new(2), NodeId::new(0))));
        // Node 2 is off cooldown again (AAS allows every other slot) but
        // still broke; node 0 is affordable but cooling down; nobody
        // affordable is eligible, so the slot goes to the off-cooldown
        // node with the most stored energy (node 1 at 0.5 vs node 2 at
        // 0.4) — the one closest to completing.
        let third = p.plan(2, Some(ActivityClass::Walking), &[2.0, 0.5, 0.4]);
        assert_eq!(third.attempters, vec![NodeId::new(1)]);
        assert_eq!(third.signal, Some((NodeId::new(0), NodeId::new(1))));
    }

    #[test]
    fn aas_cooldown_rotates_all_sensors_within_a_cycle() {
        // With abundant energy the best sensor must NOT monopolize the
        // slots — each node runs once per cycle, keeping recalls fresh.
        let rank = rank_preferring(2);
        let mut p = PolicyState::new(PolicyKind::Aasr { cycle: 3 }, &rank, 3).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..3 {
            let plan = p.plan(w, Some(ActivityClass::Walking), &[2.0, 2.0, 2.0]);
            seen.insert(plan.attempters[0]);
        }
        assert_eq!(seen.len(), 3, "all three sensors run each cycle");
    }

    #[test]
    fn cold_start_rotates() {
        let rank = rank_preferring(0);
        let mut p = PolicyState::new(PolicyKind::Origin { cycle: 3 }, &rank, 3).unwrap();
        let a = p.plan(0, None, &[2.0; 3]).attempters[0];
        let b = p.plan(1, None, &[2.0; 3]).attempters[0];
        assert_ne!(a, b, "cold start must not hammer one node");
    }

    #[test]
    fn kind_properties() {
        assert_eq!(PolicyKind::NaiveAllOn.cycle(), None);
        assert_eq!(PolicyKind::Origin { cycle: 12 }.cycle(), Some(12));
        assert!(!PolicyKind::RoundRobin { cycle: 3 }.is_activity_aware());
        assert!(PolicyKind::Aasr { cycle: 6 }.is_activity_aware());
        assert_eq!(
            PolicyKind::Aas { cycle: 9 }.ensemble(),
            EnsembleKind::SingleLatest
        );
        assert_eq!(
            PolicyKind::Origin { cycle: 12 }.ensemble(),
            EnsembleKind::ConfidenceWeighted
        );
        assert!(PolicyKind::Origin { cycle: 12 }.adapts_confidence());
        assert!(!PolicyKind::Aasr { cycle: 12 }.adapts_confidence());
        assert_eq!(PolicyKind::Origin { cycle: 12 }.label(), "RR12 Origin");
        assert_eq!(PolicyKind::NaiveAllOn.to_string(), "Naive");
    }

    #[test]
    fn plan_observed_reports_noop_slots() {
        use origin_telemetry::RecordingObserver;
        let rank = rank_preferring(0);
        let mut p = PolicyState::new(PolicyKind::RoundRobin { cycle: 6 }, &rank, 3).unwrap();
        let mut rec = RecordingObserver::new();
        let afford = [2.0, 2.0, 2.0];
        // Window 0 is a sensor slot, window 1 an ER-6 no-op.
        let _ = p.plan_observed(0, None, &afford, &mut rec);
        let _ = p.plan_observed(1, None, &afford, &mut rec);
        assert_eq!(
            rec.events(),
            &[
                SimEvent::SlotScheduled {
                    window: 0,
                    attempters: 1,
                    idle: false,
                },
                SimEvent::SlotScheduled {
                    window: 1,
                    attempters: 0,
                    idle: true,
                },
            ]
        );
    }

    #[test]
    fn bad_cycle_is_rejected() {
        let rank = rank_preferring(0);
        assert!(matches!(
            PolicyState::new(PolicyKind::Aas { cycle: 7 }, &rank, 3),
            Err(CoreError::BadCycle { .. })
        ));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use origin_nn::ConfusionMatrix;
    use origin_types::{ActivitySet, NodeId};

    /// The paper's footnote: "this can also be extended to larger numbers
    /// of sensors and modalities". The policy layer supports any node
    /// count whose ER-r cycle is a multiple of it.
    #[test]
    fn policies_generalize_to_four_nodes() {
        let set = ActivitySet::mhealth();
        let matrices: Vec<ConfusionMatrix> = (0..4)
            .map(|node| {
                let mut m = ConfusionMatrix::new(6);
                for c in 0..6 {
                    let correct = 4 + (node + c) % 6;
                    for _ in 0..correct {
                        m.record(c, c);
                    }
                    for _ in 0..(10 - correct) {
                        m.record(c, (c + 1) % 6);
                    }
                }
                m
            })
            .collect();
        let rank = RankTable::from_validation(set, &matrices);
        assert_eq!(rank.node_count(), 4);

        let mut p = PolicyState::new(PolicyKind::Origin { cycle: 8 }, &rank, 4).unwrap();
        let mut scheduled = std::collections::BTreeSet::new();
        for w in 0..8 {
            let plan = p.plan(w, Some(ActivityClass::Walking), &[2.0; 4]);
            for a in plan.attempters {
                assert!(a.as_usize() < 4);
                scheduled.insert(a);
            }
        }
        // Every one of the four nodes ran within one cycle (freshness).
        assert_eq!(scheduled.len(), 4);
        // And the fifth node id never appears.
        assert!(!scheduled.contains(&NodeId::new(4)));
    }

    #[test]
    fn four_node_cycle_must_divide() {
        let set = ActivitySet::mhealth();
        let matrices: Vec<ConfusionMatrix> = (0..4)
            .map(|_| {
                let mut m = ConfusionMatrix::new(6);
                for c in 0..6 {
                    m.record(c, c);
                }
                m
            })
            .collect();
        let rank = RankTable::from_validation(set, &matrices);
        assert!(matches!(
            PolicyState::new(PolicyKind::Aas { cycle: 9 }, &rank, 4),
            Err(CoreError::BadCycle { cycle: 9, nodes: 4 })
        ));
    }
}
