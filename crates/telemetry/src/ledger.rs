//! The energy-ledger audit sink.
//!
//! [`LedgerAuditor`] consumes the [`SimEvent::Ledger`] flow stream and
//! checks, per node and per slot, that the books balance:
//!
//! ```text
//! stored(close) = stored(prev close) + harvested − charge_loss − clipped
//!               − Σ drawn − leaked
//! ```
//!
//! Every flow is a per-slot difference of the simulator's own running
//! totals, so the residual of a balanced slot is a few ulps of those
//! totals — far below the default tolerance of 1e-9 µJ. A residual above
//! tolerance means a flow was double-counted or dropped, which is exactly
//! the bug class this sink exists to catch.

use crate::event::{LedgerEntry, SimEvent};
use crate::observer::SimObserver;

/// Default conservation tolerance, in microjoules.
pub const DEFAULT_EPSILON_UJ: f64 = 1e-9;

/// Per-node audit state: the anchor and the accumulating slot flows.
#[derive(Debug, Clone, Copy, Default)]
struct NodeLedger {
    /// Stored energy at the last anchor (`Opening` or `SlotClose`), µJ.
    anchor_uj: f64,
    /// Whether an anchor has been seen yet.
    anchored: bool,
    harvested_uj: f64,
    charge_loss_uj: f64,
    clipped_uj: f64,
    leaked_uj: f64,
    drawn_uj: f64,
}

/// One conservation violation (a slot whose books did not balance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerViolation {
    /// Window index of the unbalanced slot.
    pub window: u64,
    /// Node whose slot failed the audit.
    pub node: u32,
    /// `stored(close) − expected` in µJ (signed).
    pub residual_uj: f64,
}

/// End-of-run audit summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerAuditReport {
    /// Slots audited (one per node per window with a `SlotClose`).
    pub slots_audited: u64,
    /// Largest absolute residual seen, µJ.
    pub max_residual_uj: f64,
    /// Slots whose absolute residual exceeded the tolerance.
    pub violations: Vec<LedgerViolation>,
    /// Total energy offered by the harvester front-ends, µJ.
    pub harvested_uj: f64,
    /// Total charge-efficiency loss, µJ.
    pub charge_loss_uj: f64,
    /// Total energy rejected at capacity, µJ.
    pub clipped_uj: f64,
    /// Total leakage, µJ.
    pub leaked_uj: f64,
    /// Total drawn across all operations, µJ.
    pub drawn_uj: f64,
}

impl LedgerAuditReport {
    /// Whether every audited slot balanced within tolerance.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A [`SimObserver`] that audits ledger conservation as the run streams.
///
/// The auditor answers `true` to [`SimObserver::wants_ledger`], so passing
/// it (possibly inside a [`crate::Tee`]) to an instrumented entry point is
/// all it takes to turn the ledger on. Non-ledger events are ignored.
#[derive(Debug, Clone)]
pub struct LedgerAuditor {
    epsilon_uj: f64,
    /// Indexed by node id (the deployment's dense node indices).
    nodes: Vec<NodeLedger>,
    report: LedgerAuditReport,
}

impl Default for LedgerAuditor {
    fn default() -> Self {
        Self::new(DEFAULT_EPSILON_UJ)
    }
}

impl LedgerAuditor {
    /// An auditor with conservation tolerance `epsilon_uj` (µJ).
    #[must_use]
    pub fn new(epsilon_uj: f64) -> Self {
        Self {
            epsilon_uj,
            nodes: Vec::new(),
            report: LedgerAuditReport::default(),
        }
    }

    /// The audit so far (usable mid-run or at the end).
    #[must_use]
    pub fn report(&self) -> &LedgerAuditReport {
        &self.report
    }

    /// Consumes the auditor, yielding the final report.
    #[must_use]
    pub fn into_report(self) -> LedgerAuditReport {
        self.report
    }

    /// Node `node`'s audit state, created on first use.
    fn node(&mut self, node: u32) -> &mut NodeLedger {
        let index = node as usize;
        if index >= self.nodes.len() {
            self.nodes.resize(index + 1, NodeLedger::default());
        }
        &mut self.nodes[index]
    }

    fn close_slot(&mut self, window: u64, node: u32, stored_uj: f64) {
        let state = self.node(node);
        let expected = state.anchored.then_some(
            state.anchor_uj + state.harvested_uj
                - state.charge_loss_uj
                - state.clipped_uj
                - state.drawn_uj
                - state.leaked_uj,
        );
        *state = NodeLedger {
            anchor_uj: stored_uj,
            anchored: true,
            ..NodeLedger::default()
        };
        if let Some(expected) = expected {
            let residual = stored_uj - expected;
            self.report.slots_audited += 1;
            if residual.abs() > self.report.max_residual_uj.abs() {
                self.report.max_residual_uj = residual;
            }
            if residual.abs() > self.epsilon_uj {
                self.report.violations.push(LedgerViolation {
                    window,
                    node,
                    residual_uj: residual,
                });
            }
        }
    }
}

impl SimObserver for LedgerAuditor {
    fn on_event(&mut self, event: &SimEvent) {
        let SimEvent::Ledger {
            window,
            node,
            entry,
        } = *event
        else {
            return;
        };
        let node = node.as_u32();
        match entry {
            LedgerEntry::Opening { stored_uj } => {
                *self.node(node) = NodeLedger {
                    anchor_uj: stored_uj,
                    anchored: true,
                    ..NodeLedger::default()
                };
            }
            LedgerEntry::Harvested { uj } => {
                self.node(node).harvested_uj += uj;
                self.report.harvested_uj += uj;
            }
            LedgerEntry::ChargeLoss { uj } => {
                self.node(node).charge_loss_uj += uj;
                self.report.charge_loss_uj += uj;
            }
            LedgerEntry::Clipped { uj } => {
                self.node(node).clipped_uj += uj;
                self.report.clipped_uj += uj;
            }
            LedgerEntry::Leaked { uj } => {
                self.node(node).leaked_uj += uj;
                self.report.leaked_uj += uj;
            }
            LedgerEntry::Drawn { uj, .. } => {
                self.node(node).drawn_uj += uj;
                self.report.drawn_uj += uj;
            }
            LedgerEntry::SlotClose { stored_uj } => {
                self.close_slot(window, node, stored_uj);
            }
        }
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

    fn emit(auditor: &mut LedgerAuditor, window: u64, entry: LedgerEntry) {
        auditor.on_event(&SimEvent::Ledger {
            window,
            node: NodeId::new(0),
            entry,
        });
    }

    #[test]
    fn balanced_slots_pass() {
        let mut a = LedgerAuditor::default();
        emit(&mut a, 0, LedgerEntry::Opening { stored_uj: 10.0 });
        emit(&mut a, 0, LedgerEntry::Harvested { uj: 4.0 });
        emit(&mut a, 0, LedgerEntry::ChargeLoss { uj: 1.0 });
        emit(&mut a, 0, LedgerEntry::Clipped { uj: 0.5 });
        emit(
            &mut a,
            0,
            LedgerEntry::Drawn {
                op: DrawOp::Duty,
                uj: 2.0,
            },
        );
        emit(&mut a, 0, LedgerEntry::Leaked { uj: 0.25 });
        emit(&mut a, 0, LedgerEntry::SlotClose { stored_uj: 10.25 });
        let report = a.report();
        assert_eq!(report.slots_audited, 1);
        assert!(report.conserved(), "residual {}", report.max_residual_uj);
        assert_eq!(report.harvested_uj, 4.0);
        assert_eq!(report.drawn_uj, 2.0);
    }

    #[test]
    fn dropped_flow_is_a_violation() {
        let mut a = LedgerAuditor::default();
        emit(&mut a, 0, LedgerEntry::Opening { stored_uj: 10.0 });
        emit(&mut a, 0, LedgerEntry::Harvested { uj: 4.0 });
        // ... the books claim 4 µJ came in, but the store only moved 1 µJ.
        emit(&mut a, 0, LedgerEntry::SlotClose { stored_uj: 11.0 });
        let report = a.report();
        assert_eq!(report.slots_audited, 1);
        assert!(!report.conserved());
        assert_eq!(report.violations.len(), 1);
        assert!((report.violations[0].residual_uj + 3.0).abs() < 1e-12);
    }

    #[test]
    fn audit_restarts_from_each_close() {
        let mut a = LedgerAuditor::default();
        emit(&mut a, 0, LedgerEntry::Opening { stored_uj: 5.0 });
        emit(&mut a, 0, LedgerEntry::Harvested { uj: 1.0 });
        emit(&mut a, 0, LedgerEntry::SlotClose { stored_uj: 6.0 });
        emit(&mut a, 1, LedgerEntry::Harvested { uj: 2.0 });
        emit(&mut a, 1, LedgerEntry::SlotClose { stored_uj: 8.0 });
        assert_eq!(a.report().slots_audited, 2);
        assert!(a.report().conserved());
    }

    #[test]
    fn slots_before_an_anchor_are_not_audited() {
        let mut a = LedgerAuditor::default();
        emit(&mut a, 3, LedgerEntry::Harvested { uj: 1.0 });
        emit(&mut a, 3, LedgerEntry::SlotClose { stored_uj: 42.0 });
        // No Opening: the first close only anchors.
        assert_eq!(a.report().slots_audited, 0);
        emit(&mut a, 4, LedgerEntry::SlotClose { stored_uj: 42.0 });
        assert_eq!(a.report().slots_audited, 1);
        assert!(a.report().conserved());
    }
}
