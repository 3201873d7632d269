//! Property tests for the Origin policy layer.

use origin_check::{check, Draw, Rng, StdRng};
use origin_core::{
    majority_vote, weighted_vote, ConfidenceMatrix, PolicyKind, PolicyState, RankTable,
    RecallEntry, RecallStore, SlotKind, Slots, Vote,
};
use origin_nn::ConfusionMatrix;
use origin_types::{ActivityClass, ActivitySet, NodeId, SimTime};

fn arb_vote(rng: &mut StdRng) -> Vote {
    Vote {
        node: NodeId::new(rng.gen_range(0..3)),
        activity: ActivityClass::from_index(rng.gen_range(0..6)).expect("valid"),
        confidence: rng.f64_in(0.0..0.2),
        reported_at: SimTime::from_millis(rng.u64_in(0..10_000)),
    }
}

fn rank_table(seed: u64) -> RankTable {
    let matrices: Vec<ConfusionMatrix> = (0..3)
        .map(|node| {
            let mut m = ConfusionMatrix::new(6);
            for c in 0..6 {
                let correct = 3 + ((seed as usize + node * 7 + c * 3) % 7);
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
    RankTable::from_validation(ActivitySet::mhealth(), &matrices)
}

#[test]
fn slots_have_exactly_three_sensor_slots_per_cycle() {
    check(256, |rng| {
        let cycle = rng.u8_in(1..20).saturating_mul(3).max(3);
        let slots = Slots::new(cycle, 3).expect("valid cycle");
        let sensor_count = slots
            .layout()
            .iter()
            .filter(|k| matches!(k, SlotKind::Sensor { .. }))
            .count();
        assert_eq!(sensor_count, 3);
        assert_eq!(slots.noops(), usize::from(cycle) - 3);
        // Periodicity.
        for w in 0..u64::from(cycle) {
            assert_eq!(slots.slot_at(w), slots.slot_at(w + u64::from(cycle)));
        }
        // Ordinals appear in order 0,1,2 within a cycle.
        let ordinals: Vec<usize> = slots
            .layout()
            .iter()
            .filter_map(|k| match k {
                SlotKind::Sensor { ordinal } => Some(*ordinal),
                SlotKind::NoOp => None,
            })
            .collect();
        assert_eq!(ordinals, vec![0, 1, 2]);
    });
}

#[test]
fn majority_vote_returns_a_cast_class() {
    check(256, |rng| {
        let votes = rng.vec_of(1..8, arb_vote);
        let verdict = majority_vote(&votes).expect("non-empty");
        assert!(votes.iter().any(|v| v.activity == verdict));
        // The winner's support is maximal.
        let support = |class: ActivityClass| votes.iter().filter(|v| v.activity == class).count();
        let winner_support = support(verdict);
        for v in &votes {
            assert!(support(v.activity) <= winner_support);
        }
    });
}

#[test]
fn weighted_vote_returns_in_set_class() {
    check(256, |rng| {
        let votes = rng.vec_of(1..8, arb_vote);
        let alpha = rng.f64_in(0.01..1.0);
        let matrix = ConfidenceMatrix::uniform(ActivitySet::mhealth(), 3, alpha);
        let verdict = weighted_vote(&votes, &matrix).expect("all votes in set");
        assert!(votes.iter().any(|v| v.activity == verdict));
    });
}

#[test]
fn confidence_updates_stay_within_observed_range() {
    check(256, |rng| {
        let updates = rng.vec_of(0..200, |rng| {
            (
                rng.gen_range(0..3u32),
                rng.gen_range(0..6usize),
                rng.f64_in(0.0..0.14),
            )
        });
        let alpha = rng.f64_in(0.01..1.0);
        let mut matrix = ConfidenceMatrix::uniform(ActivitySet::mhealth(), 3, alpha);
        for (node, class, conf) in &updates {
            matrix.update(
                NodeId::new(*node),
                ActivityClass::from_index(*class).expect("valid"),
                *conf,
            );
        }
        // Every weight stays within [0, max(initial, observed max)].
        let ceiling = 1.0f64 / 6.0;
        for node in 0..3 {
            for class in ActivityClass::ALL {
                let w = matrix.weight(NodeId::new(node), class).expect("in set");
                assert!(w >= 0.0);
                assert!(w <= ceiling.max(0.14) + 1e-12);
            }
        }
        assert_eq!(matrix.update_count(), updates.len() as u64);
    });
}

#[test]
fn recall_store_most_recent_is_maximal() {
    check(256, |rng| {
        let entries = rng.vec_of(1..30, |rng| {
            (
                rng.gen_range(0..3u32),
                rng.gen_range(0..6usize),
                rng.u64_in(0..100_000),
            )
        });
        let mut store = RecallStore::new(3);
        for (node, class, at) in &entries {
            store.record(
                NodeId::new(*node),
                RecallEntry {
                    activity: ActivityClass::from_index(*class).expect("valid"),
                    confidence: 0.1,
                    reported_at: SimTime::from_millis(*at),
                },
            );
        }
        let (_, freshest) = store.most_recent().expect("at least one entry");
        for (node, e) in store.votes() {
            assert!(
                e.reported_at <= freshest.reported_at,
                "{node} newer than freshest"
            );
        }
        assert!(store.votes().count() <= 3);
    });
}

#[test]
fn policy_plans_are_well_formed() {
    check(256, |rng| {
        let seed = rng.u64_in(0..100);
        let cycle = rng.u8_in(1..5) * 3;
        let windows = rng.u64_in(1..100);
        let headroom: Vec<f64> = (0..3).map(|_| rng.f64_in(0.0..3.0)).collect();
        let rank = rank_table(seed);
        for kind in [
            PolicyKind::RoundRobin { cycle },
            PolicyKind::Aas { cycle },
            PolicyKind::Aasr { cycle },
            PolicyKind::Origin { cycle },
        ] {
            let mut policy = PolicyState::new(kind, &rank, 3).expect("valid");
            let mut attempts = 0u64;
            for w in 0..windows {
                let plan = policy.plan(w, Some(ActivityClass::Walking), &headroom);
                assert!(plan.attempters.len() <= 1, "{kind}: at most one attempter");
                attempts += plan.attempters.len() as u64;
                for a in &plan.attempters {
                    assert!(a.as_usize() < 3);
                }
            }
            // ER-r policies attempt on exactly the sensor slots.
            let expected = (0..windows)
                .filter(|w| {
                    matches!(
                        Slots::new(cycle, 3).expect("valid").slot_at(*w),
                        SlotKind::Sensor { .. }
                    )
                })
                .count() as u64;
            assert_eq!(attempts, expected, "{} attempt cadence", kind);
        }
    });
}
