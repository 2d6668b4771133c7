//! The cache controller of the directory protocol.
//!
//! Stable states (M, O, S) live in the L2 cache array; in-flight demand
//! misses live in an MSHR file whose capacity comes from
//! `MemorySystemConfig::mshr_entries` (default 1: the paper's processor
//! model issues blocking requests, so one demand transaction per node is
//! outstanding at a time); blocks with an in-flight Writeback live in a
//! writeback buffer. The L1 is an inclusive tag-only filter in front of the
//! L2 used for hit latency.
//!
//! With more than one MSHR, demands to distinct blocks proceed in parallel
//! and complete out of order. Two serialization rules keep the transient
//! state sound: a second demand to a block already in the MSHR file stalls
//! (no coalescing), and an *owner upgrade* — which relies on the line
//! staying resident while its GetM is in flight — is mutually exclusive
//! with every other demand, because a completing demand's victim eviction
//! could otherwise evict the very line the upgrade's data lives in.
//!
//! The same state machine serves both protocol variants; the only difference
//! is how an impossible transition is classified: the Full variant treats a
//! forwarded request arriving at a cache without a valid copy as a protocol
//! bug ([`ProtocolError`]), while the Speculative variant reports it as a
//! detected mis-speculation (Section 3.1: "a cache without a valid copy that
//! receives a Forwarded-RequestReadWrite determines this situation to be a
//! mis-speculation and triggers a system recovery").

use std::collections::{HashMap, VecDeque};

use specsim_base::{
    BlockAddr, Counter, Cycle, CycleDelta, MemorySystemConfig, NodeId, ProtocolVariant,
};

use crate::cache_array::{CacheArray, CacheGeometry};
use crate::types::{CpuAccess, CpuRequest, MisSpecKind, MisSpeculation, ProtocolError};

use super::msg::{DirMsg, OutMsg};

/// Stable cache states of the MOSI protocol (Invalid = not resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Modified: this cache owns the only, dirty, copy.
    M,
    /// Owned: this cache owns a dirty copy; other caches may hold S copies.
    O,
    /// Shared: read-only copy; some other agent (cache or memory) owns the
    /// block.
    S,
}

/// Outcome of presenting a processor request to the cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Satisfied by the L1 (tag filter) — fastest path.
    L1Hit {
        /// Access latency in cycles.
        latency: CycleDelta,
        /// Value read (for loads) or written (for stores).
        value: u64,
    },
    /// Satisfied by the L2.
    L2Hit {
        /// Access latency in cycles.
        latency: CycleDelta,
        /// Value read (for loads) or written (for stores).
        value: u64,
    },
    /// A coherence transaction was started; completion will be reported via
    /// [`DirCacheController::take_completed`].
    MissIssued,
    /// The controller cannot accept the request right now (an earlier demand
    /// miss or a conflicting writeback is still outstanding); the processor
    /// must retry on a later cycle.
    Stall,
}

/// A completed demand miss, reported once via
/// [`DirCacheController::take_completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedAccess {
    /// The block whose miss completed.
    pub addr: BlockAddr,
    /// Load or store.
    pub access: CpuAccess,
    /// Cycles from issue to completion.
    pub latency: CycleDelta,
    /// The value observed (loads) or installed (stores).
    pub value: u64,
}

/// State of an in-flight demand miss (the MSHR entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DemandMiss {
    addr: BlockAddr,
    access: CpuAccess,
    store_value: u64,
    issued_at: Cycle,
    /// Block data received (from Data) or already held (owner upgrade).
    data: Option<u64>,
    /// Number of invalidation acks to collect; unknown until Data/AckCount
    /// arrives.
    acks_needed: Option<u32>,
    acks_received: u32,
    /// Owner upgrade (O -> M): the line stays resident while the GetM is in
    /// flight, so no other demand may complete (and possibly evict it)
    /// concurrently.
    resident_upgrade: bool,
}

impl DemandMiss {
    fn is_complete(&self) -> bool {
        self.data.is_some() && self.acks_needed == Some(self.acks_received)
    }
}

/// State of an in-flight writeback (victim buffer entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WbState {
    /// MI_A / OI_A: writeback issued, still the architectural owner, data
    /// retained so forwarded requests can be satisfied.
    Owner,
    /// II_A: ownership was surrendered to a forwarded RequestReadWrite while
    /// the writeback was in flight; only the Writeback-Ack is awaited.
    LostOwnership,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WritebackEntry {
    data: u64,
    state: WbState,
    issued_at: Cycle,
}

/// Per-controller event counters.
#[derive(Debug, Clone, Default)]
pub struct CacheCtrlStats {
    /// Demand accesses that hit in the L1 tag filter.
    pub l1_hits: Counter,
    /// Demand accesses that hit in the L2.
    pub l2_hits: Counter,
    /// Demand accesses that missed and started a coherence transaction.
    pub misses: Counter,
    /// Writebacks (PutM) issued.
    pub writebacks: Counter,
    /// Forwarded requests (FwdGetS/FwdGetM) served with data.
    pub forwards_served: Counter,
    /// Invalidations received.
    pub invalidations: Counter,
    /// Mis-speculations detected by this controller.
    pub misspeculations: Counter,
}

/// The directory-protocol cache controller for one node.
#[derive(Debug, Clone)]
pub struct DirCacheController {
    node: NodeId,
    num_nodes: usize,
    variant: ProtocolVariant,
    l1: CacheArray<()>,
    l2: CacheArray<CacheState>,
    l1_hit_cycles: CycleDelta,
    l2_hit_cycles: CycleDelta,
    /// MSHR file: in-flight demand misses, in issue order.
    demands: Vec<DemandMiss>,
    /// MSHR capacity.
    mshr_entries: usize,
    writebacks: HashMap<BlockAddr, WritebackEntry>,
    outgoing: VecDeque<OutMsg>,
    completed: VecDeque<CompletedAccess>,
    stats: CacheCtrlStats,
}

impl DirCacheController {
    /// Creates a controller for `node` with the cache geometry of `config`.
    #[must_use]
    pub fn new(node: NodeId, variant: ProtocolVariant, config: &MemorySystemConfig) -> Self {
        Self {
            node,
            num_nodes: config.num_nodes,
            variant,
            l1: CacheArray::new(CacheGeometry::from_capacity(
                config.l1_bytes,
                config.l1_ways,
            )),
            l2: CacheArray::new(CacheGeometry::from_capacity(
                config.l2_bytes,
                config.l2_ways,
            )),
            l1_hit_cycles: config.l1_hit_cycles,
            l2_hit_cycles: config.l2_hit_cycles,
            demands: Vec::new(),
            mshr_entries: config.mshr_entries.max(1),
            writebacks: HashMap::new(),
            outgoing: VecDeque::new(),
            completed: VecDeque::new(),
            stats: CacheCtrlStats::default(),
        }
    }

    /// The node this controller belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> &CacheCtrlStats {
        &self.stats
    }

    /// True when at least one demand miss is outstanding.
    #[must_use]
    pub fn has_outstanding_demand(&self) -> bool {
        !self.demands.is_empty()
    }

    /// Number of demand misses outstanding (occupied MSHRs).
    #[must_use]
    pub fn outstanding_demands(&self) -> usize {
        self.demands.len()
    }

    /// Cycle at which the *oldest* outstanding demand miss (if any) was
    /// issued; used by the system layer for the transaction-timeout
    /// detection of Section 4.
    #[must_use]
    pub fn outstanding_since(&self) -> Option<Cycle> {
        self.demands.iter().map(|d| d.issued_at).min()
    }

    /// Block of the oldest outstanding demand miss, if any.
    #[must_use]
    pub fn outstanding_addr(&self) -> Option<BlockAddr> {
        self.demands.first().map(|d| d.addr)
    }

    /// Number of protocol messages waiting to be injected into the network.
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// Removes the next protocol message to inject, if any.
    pub fn pop_outgoing(&mut self) -> Option<OutMsg> {
        self.outgoing.pop_front()
    }

    /// Peeks the next protocol message to inject.
    #[must_use]
    pub fn peek_outgoing(&self) -> Option<&OutMsg> {
        self.outgoing.front()
    }

    /// Pushes a message back after a failed injection attempt (it will be the
    /// next message offered).
    pub fn push_front_outgoing(&mut self, msg: OutMsg) {
        self.outgoing.push_front(msg);
    }

    /// True when a completed-demand notification is waiting for
    /// [`Self::take_completed`].
    #[must_use]
    pub fn has_completed(&self) -> bool {
        !self.completed.is_empty()
    }

    /// Takes the oldest completed-demand notification, if one is pending.
    pub fn take_completed(&mut self) -> Option<CompletedAccess> {
        self.completed.pop_front()
    }

    /// The value currently cached for `addr`, if resident (diagnostics /
    /// invariant checks).
    #[must_use]
    pub fn cached_value(&self, addr: BlockAddr) -> Option<(CacheState, u64)> {
        self.l2.probe(addr).map(|l| (l.state, l.data))
    }

    /// Number of blocks resident in the L2.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.l2.len()
    }

    /// Every block resident in the L2 with its state and data (used by
    /// system-level coherence-invariant checks).
    #[must_use]
    pub fn resident_lines(&self) -> Vec<(BlockAddr, CacheState, u64)> {
        self.l2
            .iter()
            .map(|line| (line.addr, line.state, line.data))
            .collect()
    }

    fn home(&self, addr: BlockAddr) -> NodeId {
        addr.home_node(self.num_nodes)
    }

    fn send(&mut self, dst: NodeId, msg: DirMsg) {
        self.outgoing.push_back(OutMsg { dst, msg });
    }

    /// Presents a processor request. Up to `mshr_entries` demand
    /// transactions may be in flight per node (1 by default: the paper's
    /// blocking processor model).
    pub fn cpu_request(&mut self, now: Cycle, req: CpuRequest) -> AccessOutcome {
        if self.demands.len() >= self.mshr_entries {
            return AccessOutcome::Stall;
        }
        // No coalescing: a second demand to a block already in the MSHR
        // file waits for the first to complete.
        if self.demands.iter().any(|d| d.addr == req.addr) {
            return AccessOutcome::Stall;
        }
        // A resident owner upgrade is in flight: admitting another demand
        // could evict the upgrading line when it completes, so everything
        // that starts a transaction stalls until the upgrade finishes.
        let upgrade_in_flight = self.demands.iter().any(|d| d.resident_upgrade);
        // A request to a block whose writeback is still in flight waits for
        // the writeback to complete (keeps the protocol free of a
        // request-passes-own-writeback race that is orthogonal to the paper).
        if self.writebacks.contains_key(&req.addr) {
            return AccessOutcome::Stall;
        }
        let l1_hit = self.l1.lookup(req.addr).is_some();
        if let Some(line) = self.l2.lookup(req.addr) {
            match (req.access, line.state) {
                (CpuAccess::Load, _) => {
                    let value = line.data;
                    if l1_hit {
                        self.stats.l1_hits.incr();
                        return AccessOutcome::L1Hit {
                            latency: self.l1_hit_cycles,
                            value,
                        };
                    }
                    self.stats.l2_hits.incr();
                    self.l1.insert(req.addr, (), 0);
                    return AccessOutcome::L2Hit {
                        latency: self.l2_hit_cycles,
                        value,
                    };
                }
                (CpuAccess::Store, CacheState::M) => {
                    line.data = req.store_value;
                    if l1_hit {
                        self.stats.l1_hits.incr();
                        return AccessOutcome::L1Hit {
                            latency: self.l1_hit_cycles,
                            value: req.store_value,
                        };
                    }
                    self.stats.l2_hits.incr();
                    self.l1.insert(req.addr, (), 0);
                    return AccessOutcome::L2Hit {
                        latency: self.l2_hit_cycles,
                        value: req.store_value,
                    };
                }
                (CpuAccess::Store, CacheState::O) => {
                    // Owner upgrade: keep the line (and its data); ask the
                    // directory for exclusivity. Data arrives as AckCount.
                    // The line must stay resident until the GetM completes,
                    // so the upgrade runs with the MSHR file to itself.
                    if !self.demands.is_empty() {
                        return AccessOutcome::Stall;
                    }
                    let data = line.data;
                    self.stats.misses.incr();
                    self.demands.push(DemandMiss {
                        addr: req.addr,
                        access: CpuAccess::Store,
                        store_value: req.store_value,
                        issued_at: now,
                        data: Some(data),
                        acks_needed: None,
                        acks_received: 0,
                        resident_upgrade: true,
                    });
                    self.send(self.home(req.addr), DirMsg::GetM { addr: req.addr });
                    return AccessOutcome::MissIssued;
                }
                (CpuAccess::Store, CacheState::S) => {
                    if upgrade_in_flight {
                        return AccessOutcome::Stall;
                    }
                    // Upgrade from S: drop the shared copy and request an
                    // exclusive copy (data will be supplied afresh).
                    self.l2.remove(req.addr);
                    self.l1.remove(req.addr);
                    self.stats.misses.incr();
                    self.demands.push(DemandMiss {
                        addr: req.addr,
                        access: CpuAccess::Store,
                        store_value: req.store_value,
                        issued_at: now,
                        data: None,
                        acks_needed: None,
                        acks_received: 0,
                        resident_upgrade: false,
                    });
                    self.send(self.home(req.addr), DirMsg::GetM { addr: req.addr });
                    return AccessOutcome::MissIssued;
                }
            }
        }
        // Complete miss.
        if upgrade_in_flight {
            return AccessOutcome::Stall;
        }
        self.stats.misses.incr();
        let msg = match req.access {
            CpuAccess::Load => DirMsg::GetS { addr: req.addr },
            CpuAccess::Store => DirMsg::GetM { addr: req.addr },
        };
        self.demands.push(DemandMiss {
            addr: req.addr,
            access: req.access,
            store_value: req.store_value,
            issued_at: now,
            data: None,
            acks_needed: None,
            acks_received: 0,
            resident_upgrade: false,
        });
        self.send(self.home(req.addr), msg);
        AccessOutcome::MissIssued
    }

    /// Handles a protocol message delivered to this node.
    ///
    /// Returns `Ok(Some(_))` when the Speculative variant detects a
    /// mis-speculation, `Ok(None)` for ordinary handling, and `Err(_)` when a
    /// transition occurs that the Full protocol considers impossible (a
    /// simulator bug, not a mis-speculation).
    pub fn handle_message(
        &mut self,
        now: Cycle,
        msg: DirMsg,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        match msg {
            DirMsg::Data { addr, data, acks } => self.on_data(now, addr, Some(data), acks),
            DirMsg::AckCount { addr, acks } => self.on_data(now, addr, None, acks),
            DirMsg::InvAck { addr } => self.on_inv_ack(now, addr),
            DirMsg::FwdGetS { addr, requestor } => self.on_fwd_gets(now, addr, requestor),
            DirMsg::FwdGetM {
                addr,
                requestor,
                acks,
            } => self.on_fwd_getm(now, addr, requestor, acks),
            DirMsg::Inv { addr, requestor } => self.on_inv(addr, requestor),
            DirMsg::WbAck { addr } => self.on_wb_ack(addr),
            other => Err(self.error(
                other.addr(),
                format!("cache controller received directory-bound message {other:?}"),
            )),
        }
    }

    fn error(&self, addr: BlockAddr, description: String) -> ProtocolError {
        ProtocolError {
            node: self.node,
            addr,
            description,
        }
    }

    fn demand_index(&self, addr: BlockAddr) -> Option<usize> {
        self.demands.iter().position(|d| d.addr == addr)
    }

    fn on_data(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        data: Option<u64>,
        acks: u32,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        let Some(idx) = self.demand_index(addr) else {
            return Err(self.error(addr, "Data/AckCount with no matching demand".into()));
        };
        let demand = &mut self.demands[idx];
        if let Some(d) = data {
            demand.data = Some(d);
        } else if demand.data.is_none() {
            return Err(self.error(addr, "AckCount but the requestor holds no data".into()));
        }
        demand.acks_needed = Some(acks);
        if demand.is_complete() {
            self.complete_demand(now, idx);
        }
        Ok(None)
    }

    fn on_inv_ack(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        let Some(idx) = self.demand_index(addr) else {
            return Err(self.error(addr, "InvAck with no matching demand".into()));
        };
        let demand = &mut self.demands[idx];
        demand.acks_received += 1;
        if let Some(needed) = demand.acks_needed {
            if demand.acks_received > needed {
                return Err(self.error(addr, "more InvAcks than expected".into()));
            }
        }
        if demand.is_complete() {
            self.complete_demand(now, idx);
        }
        Ok(None)
    }

    fn on_fwd_gets(
        &mut self,
        _now: Cycle,
        addr: BlockAddr,
        requestor: NodeId,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        // Owner with the line resident: supply data, keep ownership (M -> O).
        if let Some(line) = self.l2.get_mut(addr) {
            match line.state {
                CacheState::M | CacheState::O => {
                    line.state = CacheState::O;
                    let data = line.data;
                    self.stats.forwards_served.incr();
                    self.send(
                        requestor,
                        DirMsg::Data {
                            addr,
                            data,
                            acks: 0,
                        },
                    );
                    return Ok(None);
                }
                CacheState::S => {
                    return Err(self.error(addr, "FwdGetS at a cache in state S".into()));
                }
            }
        }
        // Owner whose writeback is in flight (MI_A / OI_A): still owner.
        if let Some(entry) = self.writebacks.get(&addr) {
            if entry.state == WbState::Owner {
                let data = entry.data;
                self.stats.forwards_served.incr();
                self.send(
                    requestor,
                    DirMsg::Data {
                        addr,
                        data,
                        acks: 0,
                    },
                );
                return Ok(None);
            }
        }
        Err(self.error(
            addr,
            "FwdGetS at a cache without a valid copy (impossible under a blocking directory)"
                .into(),
        ))
    }

    fn on_fwd_getm(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        requestor: NodeId,
        acks: u32,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        // Owner with the line resident: transfer data and ownership.
        if let Some(line) = self.l2.probe(addr) {
            match line.state {
                CacheState::M | CacheState::O => {
                    let data = line.data;
                    self.l2.remove(addr);
                    self.l1.remove(addr);
                    self.stats.forwards_served.incr();
                    self.send(requestor, DirMsg::Data { addr, data, acks });
                    return Ok(None);
                }
                CacheState::S => {
                    return Err(self.error(addr, "FwdGetM at a cache in state S".into()));
                }
            }
        }
        // Owner with the writeback in flight: supply data, surrender
        // ownership, and keep waiting for the Writeback-Ack (II_A).
        if let Some(entry) = self.writebacks.get_mut(&addr) {
            if entry.state == WbState::Owner {
                let data = entry.data;
                entry.state = WbState::LostOwnership;
                self.stats.forwards_served.incr();
                self.send(requestor, DirMsg::Data { addr, data, acks });
                return Ok(None);
            }
        }
        // No valid copy. This is exactly the transition of Section 3.1: the
        // Writeback-Ack overtook this Forwarded-RequestReadWrite, the cache
        // already invalidated, and the data is unrecoverable at this node.
        match self.variant {
            ProtocolVariant::Speculative => {
                self.stats.misspeculations.incr();
                Ok(Some(MisSpeculation {
                    kind: MisSpecKind::ForwardedRequestToInvalidCache,
                    node: self.node,
                    addr,
                    at: now,
                }))
            }
            ProtocolVariant::Full => Err(self.error(
                addr,
                "FwdGetM at a cache without a valid copy (the full protocol prevents this race)"
                    .into(),
            )),
        }
    }

    fn on_inv(
        &mut self,
        addr: BlockAddr,
        requestor: NodeId,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        self.stats.invalidations.incr();
        if let Some(line) = self.l2.probe(addr) {
            match line.state {
                CacheState::S => {
                    self.l2.remove(addr);
                    self.l1.remove(addr);
                }
                CacheState::M | CacheState::O => {
                    return Err(self.error(addr, "Invalidation sent to the owner".into()));
                }
            }
        }
        // Stale sharer (already evicted silently) or a cache whose demand for
        // the block is still pending at the directory: acknowledge and move on.
        self.send(requestor, DirMsg::InvAck { addr });
        Ok(None)
    }

    fn on_wb_ack(&mut self, addr: BlockAddr) -> Result<Option<MisSpeculation>, ProtocolError> {
        match self.writebacks.remove(&addr) {
            Some(_) => Ok(None),
            None => Err(self.error(addr, "Writeback-Ack with no writeback in flight".into())),
        }
    }

    fn complete_demand(&mut self, now: Cycle, idx: usize) {
        let demand = self.demands.remove(idx);
        let value = match demand.access {
            CpuAccess::Load => demand.data.expect("load completed without data"),
            CpuAccess::Store => demand.store_value,
        };
        let new_state = match demand.access {
            CpuAccess::Load => CacheState::S,
            CpuAccess::Store => CacheState::M,
        };
        // Install the block, evicting a victim if the set is full.
        if let Some(victim) = self.l2.insert(demand.addr, new_state, value) {
            self.l1.remove(victim.addr);
            match victim.state {
                CacheState::M | CacheState::O => {
                    self.stats.writebacks.incr();
                    self.writebacks.insert(
                        victim.addr,
                        WritebackEntry {
                            data: victim.data,
                            state: WbState::Owner,
                            issued_at: now,
                        },
                    );
                    self.send(
                        self.home(victim.addr),
                        DirMsg::PutM {
                            addr: victim.addr,
                            data: victim.data,
                        },
                    );
                }
                CacheState::S => {} // silent drop
            }
        }
        self.l1.insert(demand.addr, (), 0);
        // Close the transaction at the directory.
        self.send(
            self.home(demand.addr),
            DirMsg::FinalAck { addr: demand.addr },
        );
        self.completed.push_back(CompletedAccess {
            addr: demand.addr,
            access: demand.access,
            latency: now.saturating_sub(demand.issued_at),
            value,
        });
    }

    /// Forces the eviction of a resident block (used by tests and by the
    /// workload model's capacity-pressure path). Owned blocks start a
    /// writeback; shared blocks are dropped silently, as in the protocol.
    pub fn force_evict(&mut self, now: Cycle, addr: BlockAddr) -> bool {
        let Some(line) = self.l2.remove(addr) else {
            return false;
        };
        self.l1.remove(addr);
        match line.state {
            CacheState::M | CacheState::O => {
                self.stats.writebacks.incr();
                self.writebacks.insert(
                    addr,
                    WritebackEntry {
                        data: line.data,
                        state: WbState::Owner,
                        issued_at: now,
                    },
                );
                self.send(
                    self.home(addr),
                    DirMsg::PutM {
                        addr,
                        data: line.data,
                    },
                );
            }
            CacheState::S => {}
        }
        true
    }

    /// Clears transient state (outstanding demand, writebacks, queued
    /// messages) without touching the stable cache contents. Used by the
    /// system layer during a SafetyNet recovery, after which the stable state
    /// is restored from the checkpoint snapshot.
    pub fn abort_transients(&mut self) {
        self.demands.clear();
        self.writebacks.clear();
        self.outgoing.clear();
        self.completed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemorySystemConfig {
        MemorySystemConfig {
            // Tiny caches so eviction paths are easy to exercise.
            l1_bytes: 4 * 64,
            l1_ways: 2,
            l2_bytes: 8 * 64,
            l2_ways: 2,
            ..MemorySystemConfig::default()
        }
    }

    fn ctrl(variant: ProtocolVariant) -> DirCacheController {
        DirCacheController::new(NodeId(1), variant, &config())
    }

    fn load(addr: u64) -> CpuRequest {
        CpuRequest {
            addr: BlockAddr(addr),
            access: CpuAccess::Load,
            store_value: 0,
        }
    }

    fn store(addr: u64, value: u64) -> CpuRequest {
        CpuRequest {
            addr: BlockAddr(addr),
            access: CpuAccess::Store,
            store_value: value,
        }
    }

    #[test]
    fn load_miss_issues_gets_and_completes_on_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert_eq!(c.cpu_request(10, load(0x40)), AccessOutcome::MissIssued);
        let out = c.pop_outgoing().unwrap();
        assert_eq!(
            out.msg,
            DirMsg::GetS {
                addr: BlockAddr(0x40)
            }
        );
        assert_eq!(out.dst, BlockAddr(0x40).home_node(16));
        assert!(c.has_outstanding_demand());
        // Another request stalls while the miss is outstanding.
        assert_eq!(c.cpu_request(11, load(0x80)), AccessOutcome::Stall);

        c.handle_message(
            100,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 1234,
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 1234);
        assert_eq!(done.latency, 90);
        assert!(!c.has_outstanding_demand());
        // A FinalAck closes the transaction at the home directory.
        let fa = c.pop_outgoing().unwrap();
        assert_eq!(
            fa.msg,
            DirMsg::FinalAck {
                addr: BlockAddr(0x40)
            }
        );
        // The block is now resident in S and hits.
        match c.cpu_request(200, load(0x40)) {
            AccessOutcome::L2Hit { value, .. } | AccessOutcome::L1Hit { value, .. } => {
                assert_eq!(value, 1234);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn store_miss_waits_for_data_and_all_inv_acks() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert_eq!(
            c.cpu_request(0, store(0x100, 77)),
            AccessOutcome::MissIssued
        );
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::GetM {
                addr: BlockAddr(0x100)
            }
        );
        // Data arrives expecting 2 invalidation acks.
        c.handle_message(
            50,
            DirMsg::Data {
                addr: BlockAddr(0x100),
                data: 5,
                acks: 2,
            },
        )
        .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_message(
            60,
            DirMsg::InvAck {
                addr: BlockAddr(0x100),
            },
        )
        .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_message(
            70,
            DirMsg::InvAck {
                addr: BlockAddr(0x100),
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 77);
        assert_eq!(c.cached_value(BlockAddr(0x100)), Some((CacheState::M, 77)));
    }

    #[test]
    fn inv_acks_may_arrive_before_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x100, 9));
        c.pop_outgoing();
        c.handle_message(
            10,
            DirMsg::InvAck {
                addr: BlockAddr(0x100),
            },
        )
        .unwrap();
        c.handle_message(
            20,
            DirMsg::Data {
                addr: BlockAddr(0x100),
                data: 0,
                acks: 1,
            },
        )
        .unwrap();
        assert!(c.take_completed().is_some());
    }

    #[test]
    fn store_hit_in_m_updates_data_in_place() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x40, 1));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        match c.cpu_request(10, store(0x40, 2)) {
            AccessOutcome::L1Hit { value, .. } | AccessOutcome::L2Hit { value, .. } => {
                assert_eq!(value, 2)
            }
            other => panic!("expected store hit, got {other:?}"),
        }
        assert_eq!(c.cached_value(BlockAddr(0x40)), Some((CacheState::M, 2)));
    }

    #[test]
    fn owner_upgrade_uses_ack_count_and_keeps_its_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        // Fabricate an O copy by completing a load and then serving a FwdGetS
        // ... simpler: install via store then downgrade through FwdGetS.
        c.cpu_request(0, store(0x40, 42));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        c.pop_outgoing(); // FinalAck
                          // A FwdGetS downgrades M -> O and serves data.
        c.handle_message(
            5,
            DirMsg::FwdGetS {
                addr: BlockAddr(0x40),
                requestor: NodeId(3),
            },
        )
        .unwrap();
        let fwd = c.pop_outgoing().unwrap();
        assert_eq!(fwd.dst, NodeId(3));
        assert_eq!(
            fwd.msg,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 42,
                acks: 0
            }
        );
        assert_eq!(c.cached_value(BlockAddr(0x40)), Some((CacheState::O, 42)));
        // Now upgrade back to M: the controller issues GetM and can complete
        // from an AckCount alone because it already holds the data.
        assert_eq!(
            c.cpu_request(10, store(0x40, 43)),
            AccessOutcome::MissIssued
        );
        c.pop_outgoing(); // GetM
        c.handle_message(
            20,
            DirMsg::AckCount {
                addr: BlockAddr(0x40),
                acks: 1,
            },
        )
        .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_message(
            25,
            DirMsg::InvAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 43);
        assert_eq!(c.cached_value(BlockAddr(0x40)), Some((CacheState::M, 43)));
    }

    #[test]
    fn eviction_of_a_modified_victim_issues_a_writeback() {
        let mut c = ctrl(ProtocolVariant::Full);
        // L2: 4 sets x 2 ways; blocks 0x0, 0x4, 0x8 share set 0.
        for (i, addr) in [0x0u64, 0x4, 0x8].iter().enumerate() {
            c.cpu_request(i as u64 * 10, store(*addr, 100 + i as u64));
            c.pop_outgoing();
            c.handle_message(
                i as u64 * 10 + 5,
                DirMsg::Data {
                    addr: BlockAddr(*addr),
                    data: 0,
                    acks: 0,
                },
            )
            .unwrap();
            c.take_completed();
            while c.pop_outgoing().is_some() {}
        }
        // Inserting 0x8 must have evicted one of the earlier blocks with a PutM.
        assert_eq!(c.stats().writebacks.get(), 1);
        // A request to the evicted (write-back-in-flight) block stalls.
        let evicted = if c.cached_value(BlockAddr(0x0)).is_none() {
            0x0
        } else {
            0x4
        };
        assert_eq!(c.cpu_request(100, load(evicted)), AccessOutcome::Stall);
        // The writeback completes on WbAck, after which the block can be
        // requested again.
        c.handle_message(
            110,
            DirMsg::WbAck {
                addr: BlockAddr(evicted),
            },
        )
        .unwrap();
        assert_eq!(c.cpu_request(120, load(evicted)), AccessOutcome::MissIssued);
    }

    #[test]
    fn owner_with_writeback_in_flight_still_serves_forwards() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x40, 7));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        assert!(c.force_evict(10, BlockAddr(0x40)));
        let putm = c.pop_outgoing().unwrap();
        assert_eq!(
            putm.msg,
            DirMsg::PutM {
                addr: BlockAddr(0x40),
                data: 7
            }
        );
        // FwdGetS while MI_A: data served, still waiting for WbAck.
        c.handle_message(
            20,
            DirMsg::FwdGetS {
                addr: BlockAddr(0x40),
                requestor: NodeId(5),
            },
        )
        .unwrap();
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 7,
                acks: 0
            }
        );
        // FwdGetM while MI_A: data + ownership handed over (II_A).
        c.handle_message(
            30,
            DirMsg::FwdGetM {
                addr: BlockAddr(0x40),
                requestor: NodeId(6),
                acks: 1,
            },
        )
        .unwrap();
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 7,
                acks: 1
            }
        );
        // The WbAck then retires the writeback entry.
        c.handle_message(
            40,
            DirMsg::WbAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        assert_eq!(c.cpu_request(50, load(0x40)), AccessOutcome::MissIssued);
    }

    #[test]
    fn reordered_wback_then_fwdgetm_is_detected_as_misspeculation_in_speculative_mode() {
        let mut c = ctrl(ProtocolVariant::Speculative);
        // Install M copy, then evict it (PutM in flight).
        c.cpu_request(0, store(0x40, 7));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.force_evict(10, BlockAddr(0x40));
        while c.pop_outgoing().is_some() {}
        // The adaptively routed network delivers the WbAck *before* the
        // FwdGetM (point-to-point order violated).
        c.handle_message(
            20,
            DirMsg::WbAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        let result = c
            .handle_message(
                30,
                DirMsg::FwdGetM {
                    addr: BlockAddr(0x40),
                    requestor: NodeId(9),
                    acks: 0,
                },
            )
            .unwrap();
        let misspec = result.expect("speculative protocol must detect the race");
        assert_eq!(misspec.kind, MisSpecKind::ForwardedRequestToInvalidCache);
        assert_eq!(misspec.node, NodeId(1));
        assert_eq!(misspec.addr, BlockAddr(0x40));
        assert_eq!(c.stats().misspeculations.get(), 1);
    }

    #[test]
    fn the_same_reordering_is_a_protocol_error_in_the_full_variant() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x40, 7));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.force_evict(10, BlockAddr(0x40));
        while c.pop_outgoing().is_some() {}
        c.handle_message(
            20,
            DirMsg::WbAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        let err = c.handle_message(
            30,
            DirMsg::FwdGetM {
                addr: BlockAddr(0x40),
                requestor: NodeId(9),
                acks: 0,
            },
        );
        assert!(
            err.is_err(),
            "full protocol treats this as a bug, not a misspeculation"
        );
    }

    #[test]
    fn invalidation_of_a_shared_copy_acknowledges_the_requestor() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, load(0x40));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 3,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.handle_message(
            10,
            DirMsg::Inv {
                addr: BlockAddr(0x40),
                requestor: NodeId(7),
            },
        )
        .unwrap();
        let ack = c.pop_outgoing().unwrap();
        assert_eq!(ack.dst, NodeId(7));
        assert_eq!(
            ack.msg,
            DirMsg::InvAck {
                addr: BlockAddr(0x40)
            }
        );
        assert_eq!(c.cached_value(BlockAddr(0x40)), None);
        // A stale invalidation (block not resident) is still acknowledged.
        c.handle_message(
            20,
            DirMsg::Inv {
                addr: BlockAddr(0x80),
                requestor: NodeId(2),
            },
        )
        .unwrap();
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::InvAck {
                addr: BlockAddr(0x80)
            }
        );
    }

    #[test]
    fn unexpected_messages_are_protocol_errors() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert!(c
            .handle_message(
                0,
                DirMsg::Data {
                    addr: BlockAddr(1),
                    data: 0,
                    acks: 0
                }
            )
            .is_err());
        assert!(c
            .handle_message(0, DirMsg::WbAck { addr: BlockAddr(1) })
            .is_err());
        assert!(c
            .handle_message(0, DirMsg::GetS { addr: BlockAddr(1) })
            .is_err());
    }

    #[test]
    fn abort_transients_clears_inflight_state() {
        let mut c = ctrl(ProtocolVariant::Speculative);
        c.cpu_request(0, store(0x40, 1));
        assert!(c.has_outstanding_demand());
        assert!(c.outgoing_len() > 0);
        c.abort_transients();
        assert!(!c.has_outstanding_demand());
        assert_eq!(c.outgoing_len(), 0);
        assert!(c.take_completed().is_none());
    }

    fn ctrl_mshr(variant: ProtocolVariant, mshr_entries: usize) -> DirCacheController {
        let cfg = MemorySystemConfig {
            mshr_entries,
            ..config()
        };
        DirCacheController::new(NodeId(1), variant, &cfg)
    }

    #[test]
    fn parallel_misses_complete_out_of_order_by_address() {
        let mut c = ctrl_mshr(ProtocolVariant::Full, 2);
        assert_eq!(c.cpu_request(0, load(0x40)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(1, load(0x80)), AccessOutcome::MissIssued);
        assert_eq!(c.outstanding_demands(), 2);
        // A third miss exceeds the two MSHRs and stalls.
        assert_eq!(c.cpu_request(2, load(0xc0)), AccessOutcome::Stall);
        // The younger miss's data arrives first; only it completes.
        c.handle_message(
            50,
            DirMsg::Data {
                addr: BlockAddr(0x80),
                data: 22,
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.addr, BlockAddr(0x80));
        assert_eq!(done.value, 22);
        assert_eq!(c.outstanding_demands(), 1);
        assert_eq!(c.outstanding_addr(), Some(BlockAddr(0x40)));
        c.handle_message(
            90,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 11,
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.addr, BlockAddr(0x40));
        assert_eq!(done.value, 11);
        assert!(!c.has_outstanding_demand());
    }

    #[test]
    fn duplicate_address_miss_stalls_even_with_free_mshrs() {
        let mut c = ctrl_mshr(ProtocolVariant::Full, 4);
        assert_eq!(c.cpu_request(0, load(0x40)), AccessOutcome::MissIssued);
        // No coalescing: a second demand to the same block waits for the
        // first rather than occupying another MSHR.
        assert_eq!(c.cpu_request(1, store(0x40, 5)), AccessOutcome::Stall);
        assert_eq!(c.outstanding_demands(), 1);
    }

    #[test]
    fn resident_upgrades_are_mutually_exclusive_with_other_misses() {
        let mut c = ctrl_mshr(ProtocolVariant::Full, 4);
        // Install an M copy of 0x40, then downgrade it to O via FwdGetS so a
        // later store needs a resident owner upgrade.
        c.cpu_request(0, store(0x40, 3));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.handle_message(
            5,
            DirMsg::FwdGetS {
                addr: BlockAddr(0x40),
                requestor: NodeId(3),
            },
        )
        .unwrap();
        while c.pop_outgoing().is_some() {}
        assert_eq!(c.cached_value(BlockAddr(0x40)), Some((CacheState::O, 3)));
        // A plain miss is outstanding: the O->M upgrade must wait for the
        // MSHR file to drain before it may issue.
        assert_eq!(c.cpu_request(10, load(0x80)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(11, store(0x40, 9)), AccessOutcome::Stall);
        c.handle_message(
            20,
            DirMsg::Data {
                addr: BlockAddr(0x80),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        // Now the upgrade issues, and while it is outstanding every new
        // demand (even to an unrelated block) stalls: the upgraded line must
        // stay resident, so no install/eviction may race with it.
        assert_eq!(c.cpu_request(30, store(0x40, 9)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(31, load(0xc0)), AccessOutcome::Stall);
        c.handle_message(
            40,
            DirMsg::AckCount {
                addr: BlockAddr(0x40),
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 9);
        assert_eq!(c.cached_value(BlockAddr(0x40)), Some((CacheState::M, 9)));
        assert_eq!(c.cpu_request(50, load(0xc0)), AccessOutcome::MissIssued);
    }
}
