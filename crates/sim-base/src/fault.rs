//! Deterministic transient-fault injection.
//!
//! SafetyNet (the checkpoint/recovery substrate this simulator reproduces)
//! was originally built to mask *transient faults*; the speculation paper
//! reuses it for mis-speculation recovery. This module closes the loop: a
//! [`FaultPlan`] is a seed-deterministic schedule of transient faults —
//! dropped, duplicated, delayed or detectably-corrupted messages on a given
//! link, stalled or blacked-out switches, a node's inbox dropped for a
//! window — injected by hooks in the interconnect and *detected, rolled
//! back, and re-executed* by the very machinery the paper describes.
//!
//! Two properties are non-negotiable:
//!
//! 1. **Faults are part of the schedule, not wall-clock randomness.** The
//!    same `(seed, FaultPlan)` replays bit-identically; a random campaign
//!    ([`FaultConfig::Random`]) is lowered to an explicit plan up front so
//!    any run can be replayed from its plan.
//! 2. **Faults are transient.** After a recovery, every fault event that
//!    had already matured is suppressed ([`FaultDirector::suppress_through`])
//!    so re-execution runs fault-free and forward progress holds — exactly
//!    the transient-fault semantics SafetyNet was designed for.

use crate::rng::DetRng;
use crate::time::{Cycle, CycleDelta};

/// The kinds of transient fault the injector can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Silently drop one message at a link transmit (message loss).
    Drop,
    /// Transmit one message twice; the copy is tagged so the receiving
    /// endpoint's checksum/sequence model can detect it at ingest.
    Duplicate,
    /// Delay one message (and the link behind it) by `param` cycles.
    Delay,
    /// Detectably corrupt one message's payload; the receiving endpoint's
    /// checksum model catches it at ingest and discards the message.
    Corrupt,
    /// Stall a switch — no forwarding out of any of its ports — for a
    /// window of `param` cycles.
    SwitchStall,
    /// Black out a switch for a window of `param` cycles: it neither
    /// forwards nor accepts arrivals (arriving messages are lost).
    SwitchBlackout,
    /// Drop every message ejected to a node's inbox for a window of
    /// `param` cycles (a dead network interface).
    InboxDrop,
}

/// Every fault kind, in a stable order (used by sweeps and random plans).
pub const ALL_FAULT_KINDS: [FaultKind; 7] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Delay,
    FaultKind::Corrupt,
    FaultKind::SwitchStall,
    FaultKind::SwitchBlackout,
    FaultKind::InboxDrop,
];

impl FaultKind {
    /// Short label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::SwitchStall => "switch-stall",
            FaultKind::SwitchBlackout => "switch-blackout",
            FaultKind::InboxDrop => "inbox-drop",
        }
    }

    /// True for the one-shot per-message kinds (site = a link); false for
    /// the window kinds (site = a switch or an inbox).
    #[must_use]
    pub fn is_message_fault(self) -> bool {
        matches!(
            self,
            FaultKind::Drop | FaultKind::Duplicate | FaultKind::Delay | FaultKind::Corrupt
        )
    }
}

/// Where a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// An outgoing link of a switch: message faults fire on the first
    /// matching transmit at or after the event's cycle.
    Link {
        /// Source node of the link.
        node: usize,
        /// Direction index of the link (0..4, the torus directions).
        dir: usize,
        /// Restrict to one virtual network (by index), or any when `None`.
        vnet: Option<usize>,
    },
    /// A whole switch (window faults: stall / blackout).
    Switch {
        /// The switch's node index.
        node: usize,
    },
    /// A node's ejection path (window fault: inbox drop).
    Inbox {
        /// The node whose inbox is struck.
        node: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault arms (message faults fire on the first
    /// matching transmit at or after this cycle; window faults are active
    /// in `[at, at + param)`).
    pub at: Cycle,
    /// Where it strikes.
    pub site: FaultSite,
    /// What happens.
    pub kind: FaultKind,
    /// Kind-specific parameter: delay in cycles for [`FaultKind::Delay`],
    /// window length in cycles for the window kinds, unused (0) otherwise.
    pub param: u64,
}

/// A complete, explicit fault schedule. The same `(seed, FaultPlan)` pair
/// replays a run bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events. [`FaultPlan::normalize`] sorts them by arming
    /// cycle (stable, preserving insertion order among ties).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan holding a single event.
    #[must_use]
    pub fn single(event: FaultEvent) -> Self {
        Self {
            events: vec![event],
        }
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sorts events by arming cycle (stable).
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }
}

/// How a run's faults are specified. Lowered to an explicit [`FaultPlan`]
/// before the run starts via [`FaultConfig::lower`], so campaigns are
/// always replayable from their plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FaultConfig {
    /// No faults (the default; bit-identical to a build without the
    /// injector).
    #[default]
    Disabled,
    /// An explicit, hand-written schedule.
    Explicit(FaultPlan),
    /// A random campaign: roughly `rate_per_mcycle × horizon_cycles / 10⁶`
    /// events, uniform over the horizon, sites and the given kinds, drawn
    /// from a generator seeded by the run seed.
    Random {
        /// Expected fault events per million cycles.
        rate_per_mcycle: u64,
        /// The kinds to draw from (must be non-empty when the rate is
        /// nonzero).
        kinds: Vec<FaultKind>,
        /// Cycle horizon over which events are scheduled (normally the
        /// run length).
        horizon_cycles: CycleDelta,
    },
}

/// Domain-separation constant mixed into the run seed for plan lowering, so
/// the fault schedule is independent of every other per-run stream.
const FAULT_SEED_MIX: u64 = 0xFA17_5EED_0CA0_51D5;

impl FaultConfig {
    /// True when no faults will be injected.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        match self {
            FaultConfig::Disabled => true,
            FaultConfig::Explicit(plan) => plan.is_empty(),
            FaultConfig::Random {
                rate_per_mcycle,
                kinds,
                horizon_cycles,
            } => *rate_per_mcycle == 0 || kinds.is_empty() || *horizon_cycles == 0,
        }
    }

    /// Lowers this configuration to an explicit, normalized plan for a run
    /// with the given top-level `seed` on a machine of `num_nodes` nodes.
    /// Deterministic: the same `(config, seed, num_nodes)` always produces
    /// the same plan.
    #[must_use]
    pub fn lower(&self, seed: u64, num_nodes: usize) -> FaultPlan {
        match self {
            FaultConfig::Disabled => FaultPlan::none(),
            FaultConfig::Explicit(plan) => {
                let mut p = plan.clone();
                p.normalize();
                p
            }
            FaultConfig::Random {
                rate_per_mcycle,
                kinds,
                horizon_cycles,
            } => {
                let mut plan = FaultPlan::none();
                if self.is_disabled() {
                    return plan;
                }
                assert!(num_nodes > 0, "fault plan needs at least one node");
                let count = (rate_per_mcycle * horizon_cycles) / 1_000_000;
                let mut rng = DetRng::new(seed ^ FAULT_SEED_MIX);
                for _ in 0..count {
                    let at = 1 + rng.next_below(*horizon_cycles);
                    let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
                    let node = rng.next_below(num_nodes as u64) as usize;
                    let site = match kind {
                        k if k.is_message_fault() => FaultSite::Link {
                            node,
                            dir: rng.next_below(4) as usize,
                            vnet: None,
                        },
                        FaultKind::SwitchStall | FaultKind::SwitchBlackout => {
                            FaultSite::Switch { node }
                        }
                        _ => FaultSite::Inbox { node },
                    };
                    // Window/delay lengths are drawn so that a meaningful
                    // fraction exceeds the sweeps' 15 000-cycle transaction
                    // timeout (3 × 5 000-cycle checkpoint intervals): those
                    // events provably force a detection + recovery.
                    let param = match kind {
                        FaultKind::Delay => 1_000 + rng.next_below(40_000),
                        FaultKind::SwitchStall => 4_000 + rng.next_below(28_000),
                        FaultKind::SwitchBlackout => 1_000 + rng.next_below(9_000),
                        FaultKind::InboxDrop => 500 + rng.next_below(4_500),
                        _ => 0,
                    };
                    plan.events.push(FaultEvent {
                        at,
                        site,
                        kind,
                        param,
                    });
                }
                plan.normalize();
                plan
            }
        }
    }
}

/// Runtime companion of a [`FaultPlan`]: arms events as simulated time
/// passes, fires one-shot message faults at matching link transmits, tracks
/// active windows, and records injection evidence for the recovery engine.
///
/// The director deliberately lives *outside* the checkpointed architectural
/// state: a rollback rewinds the machine but not the fault schedule, so a
/// fired one-shot fault never re-fires — the transient-fault semantics that
/// make re-execution succeed.
#[derive(Debug, Clone)]
pub struct FaultDirector {
    plan: FaultPlan,
    /// Index of the first plan event not yet matured (plan sorted by `at`).
    cursor: usize,
    /// Matured, unconsumed one-shot message events (plan indices).
    armed: Vec<usize>,
    /// Active window events (plan indices).
    windows: Vec<usize>,
    fires: u64,
    last_fire: Option<(Cycle, FaultKind)>,
}

impl FaultDirector {
    /// Builds a director over a plan (normalizing it first).
    #[must_use]
    pub fn new(mut plan: FaultPlan) -> Self {
        plan.normalize();
        Self {
            plan,
            cursor: 0,
            armed: Vec::new(),
            windows: Vec::new(),
            fires: 0,
            last_fire: None,
        }
    }

    /// The (normalized) plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Matures events scheduled at or before `now` and expires finished
    /// windows. Call once per network tick, before any fault query.
    pub fn advance(&mut self, now: Cycle) {
        while self.cursor < self.plan.events.len() && self.plan.events[self.cursor].at <= now {
            let idx = self.cursor;
            self.cursor += 1;
            let ev = self.plan.events[idx];
            if ev.kind.is_message_fault() {
                self.armed.push(idx);
            } else if now < ev.at + ev.param {
                // A window fault fires (once) the moment it opens.
                self.windows.push(idx);
                self.fires += 1;
                self.last_fire = Some((ev.at, ev.kind));
            }
        }
        self.windows
            .retain(|&idx| now < self.plan.events[idx].at + self.plan.events[idx].param);
    }

    /// The earliest cycle after `now` at which [`FaultDirector::advance`]
    /// changes anything: the next plan event maturing, or an open window
    /// closing. `None` when the plan is exhausted and no window is open.
    /// Armed message faults are not due on their own — they fire on a link
    /// transmit, which only happens on a cycle something else made busy.
    #[must_use]
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        let next_event = self.plan.events.get(self.cursor).map(|ev| ev.at);
        let next_close = self
            .windows
            .iter()
            .map(|&idx| self.plan.events[idx].at + self.plan.events[idx].param)
            .min();
        next_event
            .into_iter()
            .chain(next_close)
            .min()
            .map(|due| due.max(now + 1))
    }

    /// Consumes and returns the first armed message fault matching a
    /// transmit on link `(node, dir)` carrying virtual network `vnet`, if
    /// any. At most one fault fires per call; further matured events fire on
    /// subsequent transmits.
    pub fn message_fault(
        &mut self,
        now: Cycle,
        node: usize,
        dir: usize,
        vnet: usize,
    ) -> Option<(FaultKind, u64)> {
        let pos = self.armed.iter().position(|&idx| {
            matches!(
                self.plan.events[idx].site,
                FaultSite::Link { node: n, dir: d, vnet: v }
                    if n == node && d == dir && v.map_or(true, |v| v == vnet)
            )
        })?;
        let idx = self.armed.swap_remove(pos);
        let ev = self.plan.events[idx];
        self.fires += 1;
        self.last_fire = Some((now, ev.kind));
        Some((ev.kind, ev.param))
    }

    /// True while a stall *or* blackout window is open on `node`'s switch
    /// (a blacked-out switch does not forward either).
    #[must_use]
    pub fn switch_stalled(&self, node: usize) -> bool {
        self.windows.iter().any(|&idx| {
            let ev = self.plan.events[idx];
            matches!(ev.kind, FaultKind::SwitchStall | FaultKind::SwitchBlackout)
                && ev.site == FaultSite::Switch { node }
        })
    }

    /// True while a blackout window is open on `node`'s switch (arrivals
    /// destined to it are lost).
    #[must_use]
    pub fn switch_blacked_out(&self, node: usize) -> bool {
        self.windows.iter().any(|&idx| {
            let ev = self.plan.events[idx];
            ev.kind == FaultKind::SwitchBlackout && ev.site == FaultSite::Switch { node }
        })
    }

    /// True while an inbox-drop window is open on `node` (ejected messages
    /// are lost instead of delivered).
    #[must_use]
    pub fn inbox_dropped(&self, node: usize) -> bool {
        self.windows.iter().any(|&idx| {
            let ev = self.plan.events[idx];
            ev.kind == FaultKind::InboxDrop && ev.site == FaultSite::Inbox { node }
        })
    }

    /// Transient-fault semantics at recovery: suppresses every event that
    /// has matured by `now` — armed one-shots are disarmed, open windows
    /// close — so re-execution after the rollback runs fault-free. Events
    /// scheduled strictly after `now` are untouched (they are *new* faults).
    pub fn suppress_through(&mut self, now: Cycle) {
        self.advance(now);
        self.armed.clear();
        self.windows.clear();
    }

    /// Total faults actually injected so far (message fires + opened
    /// windows; armed-but-suppressed events are not counted).
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// The most recent injection: `(cycle, kind)`. The engine uses this as
    /// classification evidence when a transaction timeout follows a fault.
    #[must_use]
    pub fn last_fire(&self) -> Option<(Cycle, FaultKind)> {
        self.last_fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_on_link(at: Cycle, node: usize, dir: usize) -> FaultEvent {
        FaultEvent {
            at,
            site: FaultSite::Link {
                node,
                dir,
                vnet: None,
            },
            kind: FaultKind::Drop,
            param: 0,
        }
    }

    #[test]
    fn fault_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ALL_FAULT_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ALL_FAULT_KINDS.len());
    }

    #[test]
    fn lowering_is_deterministic_and_respects_rate() {
        let cfg = FaultConfig::Random {
            rate_per_mcycle: 500,
            kinds: ALL_FAULT_KINDS.to_vec(),
            horizon_cycles: 100_000,
        };
        let a = cfg.lower(42, 16);
        let b = cfg.lower(42, 16);
        assert_eq!(a, b, "same (config, seed) must lower identically");
        assert_eq!(a.len(), 50, "500/Mcycle over 100k cycles = 50 events");
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let c = cfg.lower(43, 16);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn zero_rate_or_empty_kinds_lower_to_no_faults() {
        let zero = FaultConfig::Random {
            rate_per_mcycle: 0,
            kinds: ALL_FAULT_KINDS.to_vec(),
            horizon_cycles: 1_000_000,
        };
        assert!(zero.is_disabled());
        assert!(zero.lower(1, 16).is_empty());
        let no_kinds = FaultConfig::Random {
            rate_per_mcycle: 10_000,
            kinds: vec![],
            horizon_cycles: 1_000_000,
        };
        assert!(no_kinds.is_disabled());
        assert!(no_kinds.lower(1, 16).is_empty());
        assert!(FaultConfig::Disabled.lower(1, 16).is_empty());
    }

    #[test]
    fn message_fault_fires_exactly_once_on_first_matching_transmit() {
        let mut d = FaultDirector::new(FaultPlan::single(drop_on_link(100, 3, 2)));
        d.advance(50);
        assert!(d.message_fault(50, 3, 2, 0).is_none(), "not armed yet");
        d.advance(100);
        assert!(d.message_fault(100, 1, 2, 0).is_none(), "wrong node");
        assert!(d.message_fault(100, 3, 1, 0).is_none(), "wrong dir");
        let fired = d.message_fault(120, 3, 2, 1);
        assert_eq!(fired, Some((FaultKind::Drop, 0)));
        assert_eq!(d.fires(), 1);
        assert_eq!(d.last_fire(), Some((120, FaultKind::Drop)));
        assert!(d.message_fault(121, 3, 2, 1).is_none(), "one-shot");
    }

    #[test]
    fn vnet_restricted_fault_only_hits_its_network() {
        let ev = FaultEvent {
            at: 10,
            site: FaultSite::Link {
                node: 0,
                dir: 0,
                vnet: Some(2),
            },
            kind: FaultKind::Corrupt,
            param: 0,
        };
        let mut d = FaultDirector::new(FaultPlan::single(ev));
        d.advance(10);
        assert!(d.message_fault(10, 0, 0, 1).is_none());
        assert_eq!(d.message_fault(10, 0, 0, 2), Some((FaultKind::Corrupt, 0)));
    }

    #[test]
    fn windows_open_close_and_count_one_fire() {
        let ev = FaultEvent {
            at: 1_000,
            site: FaultSite::Switch { node: 5 },
            kind: FaultKind::SwitchBlackout,
            param: 500,
        };
        let mut d = FaultDirector::new(FaultPlan::single(ev));
        assert_eq!(d.next_due(0), Some(1_000), "the window opening is due");
        d.advance(999);
        assert!(!d.switch_stalled(5));
        d.advance(1_000);
        assert_eq!(d.next_due(1_000), Some(1_500), "the window closing is due");
        assert!(d.switch_stalled(5), "blackout also stalls");
        assert!(d.switch_blacked_out(5));
        assert!(!d.switch_blacked_out(4));
        assert_eq!(d.fires(), 1);
        d.advance(1_499);
        assert!(d.switch_blacked_out(5));
        d.advance(1_500);
        assert_eq!(d.next_due(1_500), None, "nothing left to do");
        assert!(!d.switch_blacked_out(5), "window closed");
        assert_eq!(d.fires(), 1, "a window fires once, at opening");
    }

    #[test]
    fn suppress_through_disarms_matured_events_only() {
        let mut plan = FaultPlan::none();
        plan.events.push(drop_on_link(100, 0, 0));
        plan.events.push(FaultEvent {
            at: 150,
            site: FaultSite::Inbox { node: 2 },
            kind: FaultKind::InboxDrop,
            param: 10_000,
        });
        plan.events.push(drop_on_link(5_000, 0, 0));
        let mut d = FaultDirector::new(plan);
        d.advance(200);
        assert!(d.inbox_dropped(2));
        d.suppress_through(200);
        assert!(!d.inbox_dropped(2), "open window closed by recovery");
        assert!(
            d.message_fault(201, 0, 0, 0).is_none(),
            "armed one-shot disarmed"
        );
        d.advance(5_000);
        assert_eq!(
            d.message_fault(5_000, 0, 0, 0),
            Some((FaultKind::Drop, 0)),
            "future events survive suppression"
        );
    }

    #[test]
    fn explicit_plans_are_normalized_on_lowering() {
        let mut plan = FaultPlan::none();
        plan.events.push(drop_on_link(500, 0, 0));
        plan.events.push(drop_on_link(100, 1, 1));
        let lowered = FaultConfig::Explicit(plan).lower(0, 16);
        assert_eq!(lowered.events[0].at, 100);
        assert_eq!(lowered.events[1].at, 500);
    }
}
