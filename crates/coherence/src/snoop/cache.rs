//! The cache controller of the broadcast snooping protocol.
//!
//! Ownership in a snooping system is defined by the total order of the
//! address network: from the moment a cache's RequestForReadWrite is ordered,
//! that cache is the owner and must supply data to later-ordered requests —
//! even if its own data has not arrived yet (such requests are queued in the
//! MSHR and served when the fill completes). A cache that has issued a
//! Writeback remains the owner until its Writeback is ordered, which is what
//! creates the corner case of Section 3.2.

use std::collections::{HashMap, VecDeque};

use specsim_base::{
    BlockAddr, Counter, Cycle, CycleDelta, MemorySystemConfig, NodeId, ProtocolVariant,
};

use crate::cache_array::{CacheArray, CacheGeometry};
use crate::types::{CpuAccess, CpuRequest, MisSpecKind, MisSpeculation, ProtocolError};

use super::msg::{SnoopDataMsg, SnoopDataOut, SnoopRequest};

/// Stable cache states (Invalid = not resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopCacheState {
    /// Modified (sole dirty copy).
    M,
    /// Owned (dirty copy, other sharers may exist).
    O,
    /// Shared (read-only copy).
    S,
}

/// Outcome of presenting a processor request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopAccessOutcome {
    /// Satisfied by the L1 tag filter.
    L1Hit {
        /// Access latency in cycles.
        latency: CycleDelta,
        /// Value read or written.
        value: u64,
    },
    /// Satisfied by the L2.
    L2Hit {
        /// Access latency in cycles.
        latency: CycleDelta,
        /// Value read or written.
        value: u64,
    },
    /// A bus transaction was started.
    MissIssued,
    /// The controller cannot accept the request this cycle.
    Stall,
}

/// A completed demand miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopCompletedAccess {
    /// The block whose miss completed.
    pub addr: BlockAddr,
    /// Load or store.
    pub access: CpuAccess,
    /// Cycles from issue to completion.
    pub latency: CycleDelta,
    /// The value observed (loads) or installed (stores).
    pub value: u64,
}

/// A foreign request that was ordered after this cache became owner but
/// before its data arrived; it must be served when the fill completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeferredForward {
    requestor: NodeId,
    exclusive: bool,
}

#[derive(Debug, Clone)]
struct SnoopDemand {
    addr: BlockAddr,
    access: CpuAccess,
    store_value: u64,
    issued_at: Cycle,
    /// Own request observed on the address network.
    ordered: bool,
    /// Data received (or already held, for an owner upgrade).
    data: Option<u64>,
    /// Requests ordered after ours that we must serve after filling.
    deferred: Vec<DeferredForward>,
    /// Set once a deferred RequestForReadWrite has promised ownership away;
    /// later requests are the next owner's responsibility.
    ownership_promised: bool,
    /// True for an owner (M/O) upgrade that fills from its own resident
    /// copy when its request is ordered. Such an upgrade runs with the MSHR
    /// file to itself: a concurrent install could evict the upgrading line
    /// out from under it.
    resident_upgrade: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WbState {
    /// Writeback issued, own PutM not yet observed; still the owner.
    Owner,
    /// Ownership surrendered to a foreign RequestForReadWrite observed while
    /// the Writeback was in flight (the first half of the corner case).
    LostOwnership,
}

#[derive(Debug, Clone, Copy)]
struct WritebackEntry {
    data: u64,
    state: WbState,
}

/// Event counters for a snooping cache controller.
#[derive(Debug, Clone, Default)]
pub struct SnoopCacheStats {
    /// Demand accesses that hit in L1.
    pub l1_hits: Counter,
    /// Demand accesses that hit in L2.
    pub l2_hits: Counter,
    /// Demand accesses that missed and issued a bus request.
    pub misses: Counter,
    /// Writebacks issued.
    pub writebacks: Counter,
    /// Foreign requests served with data.
    pub snoop_responses: Counter,
    /// Copies invalidated by foreign RequestForReadWrite observations.
    pub invalidations: Counter,
    /// Mis-speculations detected (Speculative variant only).
    pub misspeculations: Counter,
}

/// The snooping-protocol cache controller for one node.
#[derive(Debug, Clone)]
pub struct SnoopCacheController {
    node: NodeId,
    num_nodes: usize,
    variant: ProtocolVariant,
    l1: CacheArray<()>,
    l2: CacheArray<SnoopCacheState>,
    l1_hit_cycles: CycleDelta,
    l2_hit_cycles: CycleDelta,
    /// Outstanding demand misses (the MSHR file), bounded by `mshr_entries`.
    demands: Vec<SnoopDemand>,
    mshr_entries: usize,
    writebacks: HashMap<BlockAddr, WritebackEntry>,
    outgoing_bus: VecDeque<SnoopRequest>,
    outgoing_data: VecDeque<SnoopDataOut>,
    completed: VecDeque<SnoopCompletedAccess>,
    stats: SnoopCacheStats,
}

impl SnoopCacheController {
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
            outgoing_bus: VecDeque::new(),
            outgoing_data: VecDeque::new(),
            completed: VecDeque::new(),
            stats: SnoopCacheStats::default(),
        }
    }

    /// The node this controller belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> &SnoopCacheStats {
        &self.stats
    }

    /// True when a demand miss is outstanding.
    #[must_use]
    pub fn has_outstanding_demand(&self) -> bool {
        !self.demands.is_empty()
    }

    /// Number of outstanding demand misses (occupied MSHRs).
    #[must_use]
    pub fn outstanding_demands(&self) -> usize {
        self.demands.len()
    }

    /// Cycle at which the oldest outstanding demand was issued (timeout
    /// detection).
    #[must_use]
    pub fn outstanding_since(&self) -> Option<Cycle> {
        self.demands.iter().map(|d| d.issued_at).min()
    }

    /// Removes the next address-network request to post, if any.
    pub fn pop_bus_request(&mut self) -> Option<SnoopRequest> {
        self.outgoing_bus.pop_front()
    }

    /// Removes the next data-network message to send, if any.
    pub fn pop_data_message(&mut self) -> Option<SnoopDataOut> {
        self.outgoing_data.pop_front()
    }

    /// Peeks the message [`Self::pop_data_message`] would return, so the
    /// system layer can check fabric space for exactly this message's
    /// traffic class before committing to the pop.
    #[must_use]
    pub fn peek_data_message(&self) -> Option<&SnoopDataOut> {
        self.outgoing_data.front()
    }

    /// Number of queued outgoing messages (bus + data).
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing_bus.len() + self.outgoing_data.len()
    }

    /// True when a completed-demand notification is waiting for
    /// [`Self::take_completed`].
    #[must_use]
    pub fn has_completed(&self) -> bool {
        !self.completed.is_empty()
    }

    /// Takes the oldest completed-demand notification, if one is pending.
    pub fn take_completed(&mut self) -> Option<SnoopCompletedAccess> {
        self.completed.pop_front()
    }

    /// The value currently cached for `addr`, if resident.
    #[must_use]
    pub fn cached_value(&self, addr: BlockAddr) -> Option<(SnoopCacheState, u64)> {
        self.l2.probe(addr).map(|l| (l.state, l.data))
    }

    /// Every block resident in the L2 with its state and data (used by
    /// system-level coherence-invariant checks).
    #[must_use]
    pub fn resident_lines(&self) -> Vec<(BlockAddr, SnoopCacheState, u64)> {
        self.l2
            .iter()
            .map(|line| (line.addr, line.state, line.data))
            .collect()
    }

    fn home(&self, addr: BlockAddr) -> NodeId {
        addr.home_node(self.num_nodes)
    }

    /// Presents a processor request.
    pub fn cpu_request(&mut self, now: Cycle, req: CpuRequest) -> SnoopAccessOutcome {
        if self.demands.len() >= self.mshr_entries {
            return SnoopAccessOutcome::Stall;
        }
        // No coalescing: a second demand to a block already in the MSHR
        // file waits for the first to complete.
        if self.demands.iter().any(|d| d.addr == req.addr) {
            return SnoopAccessOutcome::Stall;
        }
        // A resident owner upgrade is in flight: admitting another demand
        // could evict the upgrading line when it completes, so everything
        // that starts a transaction stalls until the upgrade finishes.
        let upgrade_in_flight = self.demands.iter().any(|d| d.resident_upgrade);
        if self.writebacks.contains_key(&req.addr) {
            return SnoopAccessOutcome::Stall;
        }
        let l1_hit = self.l1.lookup(req.addr).is_some();
        if let Some(line) = self.l2.lookup(req.addr) {
            match (req.access, line.state) {
                (CpuAccess::Load, _) | (CpuAccess::Store, SnoopCacheState::M) => {
                    if req.access == CpuAccess::Store {
                        line.data = req.store_value;
                    }
                    let value = match req.access {
                        CpuAccess::Load => line.data,
                        CpuAccess::Store => req.store_value,
                    };
                    return if l1_hit {
                        self.stats.l1_hits.incr();
                        SnoopAccessOutcome::L1Hit {
                            latency: self.l1_hit_cycles,
                            value,
                        }
                    } else {
                        self.stats.l2_hits.incr();
                        self.l1.insert(req.addr, (), 0);
                        SnoopAccessOutcome::L2Hit {
                            latency: self.l2_hit_cycles,
                            value,
                        }
                    };
                }
                (CpuAccess::Store, SnoopCacheState::O) => {
                    // Owner upgrade: request exclusivity on the bus and fill
                    // from our own copy when the request is ordered (unless an
                    // earlier-ordered foreign request takes the line first).
                    // The line must stay resident until then, so the upgrade
                    // runs with the MSHR file to itself.
                    if !self.demands.is_empty() {
                        return SnoopAccessOutcome::Stall;
                    }
                    self.stats.misses.incr();
                    self.demands.push(SnoopDemand {
                        addr: req.addr,
                        access: CpuAccess::Store,
                        store_value: req.store_value,
                        issued_at: now,
                        ordered: false,
                        data: None,
                        deferred: Vec::new(),
                        ownership_promised: false,
                        resident_upgrade: true,
                    });
                    self.outgoing_bus
                        .push_back(SnoopRequest::GetM { addr: req.addr });
                    return SnoopAccessOutcome::MissIssued;
                }
                (CpuAccess::Store, SnoopCacheState::S) => {
                    // Upgrade from S: the fill will come from the owner or
                    // memory; our read-only copy can be dropped at any time,
                    // so this behaves like a plain miss.
                    if upgrade_in_flight {
                        return SnoopAccessOutcome::Stall;
                    }
                    self.stats.misses.incr();
                    self.demands.push(SnoopDemand {
                        addr: req.addr,
                        access: CpuAccess::Store,
                        store_value: req.store_value,
                        issued_at: now,
                        ordered: false,
                        data: None,
                        deferred: Vec::new(),
                        ownership_promised: false,
                        resident_upgrade: false,
                    });
                    self.outgoing_bus
                        .push_back(SnoopRequest::GetM { addr: req.addr });
                    return SnoopAccessOutcome::MissIssued;
                }
            }
        }
        // Complete miss.
        if upgrade_in_flight {
            return SnoopAccessOutcome::Stall;
        }
        self.stats.misses.incr();
        let msg = match req.access {
            CpuAccess::Load => SnoopRequest::GetS { addr: req.addr },
            CpuAccess::Store => SnoopRequest::GetM { addr: req.addr },
        };
        self.demands.push(SnoopDemand {
            addr: req.addr,
            access: req.access,
            store_value: req.store_value,
            issued_at: now,
            ordered: false,
            data: None,
            deferred: Vec::new(),
            ownership_promised: false,
            resident_upgrade: false,
        });
        self.outgoing_bus.push_back(msg);
        SnoopAccessOutcome::MissIssued
    }

    /// Observes one request from the totally ordered address network.
    /// `src` is the issuing node (which may be this node).
    pub fn observe_snoop(
        &mut self,
        now: Cycle,
        src: NodeId,
        request: SnoopRequest,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        if src == self.node {
            self.observe_own(now, request)
        } else {
            self.observe_foreign(now, src, request)
        }
    }

    fn observe_own(
        &mut self,
        now: Cycle,
        request: SnoopRequest,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        match request {
            SnoopRequest::GetS { addr } | SnoopRequest::GetM { addr } => {
                let Some(idx) = self
                    .demands
                    .iter()
                    .position(|d| d.addr == addr && !d.ordered)
                else {
                    return Err(self.error(addr, "observed own request with no demand".into()));
                };
                let own_fill = matches!(request, SnoopRequest::GetM { .. })
                    .then(|| self.l2.probe(addr))
                    .flatten()
                    .filter(|line| matches!(line.state, SnoopCacheState::M | SnoopCacheState::O))
                    .map(|line| line.data);
                let demand = &mut self.demands[idx];
                demand.ordered = true;
                // An owner upgrading (line still resident in M or O when the
                // GetM is ordered) fills from its own copy; nobody else will
                // send data because the memory controller sees a cache owner.
                if own_fill.is_some() {
                    demand.data = own_fill;
                }
                if demand.data.is_some() {
                    self.complete_demand(now, idx);
                }
                Ok(None)
            }
            SnoopRequest::PutM { addr } => {
                let Some(entry) = self.writebacks.remove(&addr) else {
                    return Err(self.error(addr, "observed own PutM with no writeback".into()));
                };
                match entry.state {
                    WbState::Owner => {
                        // Normal completion: hand the data to the home memory.
                        self.outgoing_data.push_back(SnoopDataOut {
                            dst: self.home(addr),
                            msg: SnoopDataMsg::WbData {
                                addr,
                                data: entry.data,
                            },
                        });
                    }
                    WbState::LostOwnership => {
                        // Ownership moved while the writeback was in flight;
                        // the new owner's data is the live copy, so the stale
                        // writeback is dropped.
                    }
                }
                Ok(None)
            }
        }
    }

    fn observe_foreign(
        &mut self,
        now: Cycle,
        src: NodeId,
        request: SnoopRequest,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        match request {
            SnoopRequest::GetS { addr } => {
                // Resident owner: supply data, stay owner (M -> O).
                if let Some(line) = self.l2.get_mut(addr) {
                    if matches!(line.state, SnoopCacheState::M | SnoopCacheState::O) {
                        line.state = SnoopCacheState::O;
                        let data = line.data;
                        self.respond_with_data(src, addr, data);
                        return Ok(None);
                    }
                    return Ok(None); // S copy: memory or the owner responds.
                }
                // Owner with the writeback in flight: still the owner.
                if let Some(entry) = self.writebacks.get(&addr) {
                    if entry.state == WbState::Owner {
                        let data = entry.data;
                        self.respond_with_data(src, addr, data);
                    }
                    return Ok(None);
                }
                // Owner-in-order waiting for its fill: serve after filling.
                self.maybe_defer(addr, src, false);
                Ok(None)
            }
            SnoopRequest::GetM { addr } => {
                // Resident copies are invalidated; the owner also supplies data.
                if let Some(line) = self.l2.probe(addr) {
                    let state = line.state;
                    let data = line.data;
                    self.l2.remove(addr);
                    self.l1.remove(addr);
                    self.stats.invalidations.incr();
                    if matches!(state, SnoopCacheState::M | SnoopCacheState::O) {
                        self.respond_with_data(src, addr, data);
                    }
                    return Ok(None);
                }
                // Owner with a writeback in flight.
                if let Some(entry) = self.writebacks.get_mut(&addr) {
                    match entry.state {
                        WbState::Owner => {
                            // First foreign RequestForReadWrite: supply data and
                            // surrender ownership; keep waiting for our PutM to
                            // be ordered (it will then be dropped as stale).
                            let data = entry.data;
                            entry.state = WbState::LostOwnership;
                            self.respond_with_data(src, addr, data);
                            return Ok(None);
                        }
                        WbState::LostOwnership => {
                            // Second foreign RequestForReadWrite while our
                            // Writeback is still unordered: the corner case of
                            // Section 3.2.
                            return match self.variant {
                                ProtocolVariant::Full => {
                                    // The fully designed protocol specifies the
                                    // transition: we are no longer the owner, the
                                    // previous requestor will respond; ignore.
                                    Ok(None)
                                }
                                ProtocolVariant::Speculative => {
                                    self.stats.misspeculations.incr();
                                    Ok(Some(MisSpeculation {
                                        kind: MisSpecKind::WritebackDoubleRace,
                                        node: self.node,
                                        addr,
                                        at: now,
                                    }))
                                }
                            };
                        }
                    }
                }
                // Owner-in-order waiting for its fill: serve after filling.
                self.maybe_defer(addr, src, true);
                Ok(None)
            }
            SnoopRequest::PutM { .. } => Ok(None), // memory handles writebacks
        }
    }

    fn maybe_defer(&mut self, addr: BlockAddr, requestor: NodeId, exclusive: bool) {
        if let Some(demand) = self.demands.iter_mut().find(|d| {
            d.addr == addr && d.ordered && d.access == CpuAccess::Store && !d.ownership_promised
        }) {
            demand.deferred.push(DeferredForward {
                requestor,
                exclusive,
            });
            if exclusive {
                demand.ownership_promised = true;
            }
        }
    }

    fn respond_with_data(&mut self, dst: NodeId, addr: BlockAddr, data: u64) {
        self.stats.snoop_responses.incr();
        self.outgoing_data.push_back(SnoopDataOut {
            dst,
            msg: SnoopDataMsg::Data { addr, data },
        });
    }

    /// Handles a message from the data network.
    pub fn handle_data(&mut self, now: Cycle, msg: SnoopDataMsg) -> Result<(), ProtocolError> {
        match msg {
            SnoopDataMsg::Data { addr, data } => {
                let Some(idx) = self
                    .demands
                    .iter()
                    .position(|d| d.addr == addr && d.data.is_none())
                else {
                    // Late or duplicate data (e.g. memory and an owner both
                    // responded); harmless.
                    return Ok(());
                };
                let demand = &mut self.demands[idx];
                demand.data = Some(data);
                if demand.ordered {
                    self.complete_demand(now, idx);
                }
                Ok(())
            }
            SnoopDataMsg::WbData { addr, .. } => Err(self.error(
                addr,
                "cache controller received writeback data addressed to memory".into(),
            )),
        }
    }

    fn complete_demand(&mut self, now: Cycle, idx: usize) {
        let demand = self.demands.remove(idx);
        let fill_value = demand.data.expect("completing without data");
        let (state, value) = match demand.access {
            CpuAccess::Load => (SnoopCacheState::S, fill_value),
            CpuAccess::Store => (SnoopCacheState::M, demand.store_value),
        };
        // Serve requests that were ordered after ours before installing the
        // final state.
        let mut final_state = Some(state);
        for fwd in &demand.deferred {
            self.respond_with_data(fwd.requestor, demand.addr, value);
            final_state = if fwd.exclusive {
                None // ownership handed over
            } else {
                Some(SnoopCacheState::O)
            };
        }
        if let Some(state) = final_state {
            if let Some(victim) = self.l2.insert(demand.addr, state, value) {
                self.l1.remove(victim.addr);
                match victim.state {
                    SnoopCacheState::M | SnoopCacheState::O => {
                        self.stats.writebacks.incr();
                        self.writebacks.insert(
                            victim.addr,
                            WritebackEntry {
                                data: victim.data,
                                state: WbState::Owner,
                            },
                        );
                        self.outgoing_bus
                            .push_back(SnoopRequest::PutM { addr: victim.addr });
                    }
                    SnoopCacheState::S => {}
                }
            }
            self.l1.insert(demand.addr, (), 0);
        }
        self.completed.push_back(SnoopCompletedAccess {
            addr: demand.addr,
            access: demand.access,
            latency: now.saturating_sub(demand.issued_at),
            value,
        });
    }

    /// Forces the eviction of a resident block (tests / capacity pressure).
    pub fn force_evict(&mut self, _now: Cycle, addr: BlockAddr) -> bool {
        let Some(line) = self.l2.remove(addr) else {
            return false;
        };
        self.l1.remove(addr);
        match line.state {
            SnoopCacheState::M | SnoopCacheState::O => {
                self.stats.writebacks.incr();
                self.writebacks.insert(
                    addr,
                    WritebackEntry {
                        data: line.data,
                        state: WbState::Owner,
                    },
                );
                self.outgoing_bus.push_back(SnoopRequest::PutM { addr });
            }
            SnoopCacheState::S => {}
        }
        true
    }

    /// Clears transient state (recovery support).
    pub fn abort_transients(&mut self) {
        self.demands.clear();
        self.writebacks.clear();
        self.outgoing_bus.clear();
        self.outgoing_data.clear();
        self.completed.clear();
    }

    fn error(&self, addr: BlockAddr, description: String) -> ProtocolError {
        ProtocolError {
            node: self.node,
            addr,
            description,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: BlockAddr = BlockAddr(0x40);

    fn config() -> MemorySystemConfig {
        MemorySystemConfig {
            l1_bytes: 4 * 64,
            l1_ways: 2,
            l2_bytes: 8 * 64,
            l2_ways: 2,
            ..MemorySystemConfig::default()
        }
    }

    fn ctrl(variant: ProtocolVariant) -> SnoopCacheController {
        SnoopCacheController::new(NodeId(1), variant, &config())
    }

    fn store(addr: BlockAddr, value: u64) -> CpuRequest {
        CpuRequest {
            addr,
            access: CpuAccess::Store,
            store_value: value,
        }
    }

    fn load(addr: BlockAddr) -> CpuRequest {
        CpuRequest {
            addr,
            access: CpuAccess::Load,
            store_value: 0,
        }
    }

    /// Drives a controller to own block A in state M with the given value.
    fn make_owner(c: &mut SnoopCacheController, value: u64) {
        assert_eq!(
            c.cpu_request(0, store(A, value)),
            SnoopAccessOutcome::MissIssued
        );
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::GetM { addr: A }));
        // Own GetM observed; memory will supply data.
        c.observe_snoop(5, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        c.handle_data(10, SnoopDataMsg::Data { addr: A, data: 0 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, value);
        assert_eq!(c.cached_value(A), Some((SnoopCacheState::M, value)));
    }

    #[test]
    fn load_miss_completes_after_order_and_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert_eq!(c.cpu_request(0, load(A)), SnoopAccessOutcome::MissIssued);
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::GetS { addr: A }));
        // Data cannot complete the miss before the request is ordered...
        // (in this model data only ever arrives afterwards, but the ordering
        // flag is still tracked explicitly).
        c.observe_snoop(3, NodeId(1), SnoopRequest::GetS { addr: A })
            .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_data(9, SnoopDataMsg::Data { addr: A, data: 77 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 77);
        assert_eq!(done.latency, 9);
        assert_eq!(c.cached_value(A), Some((SnoopCacheState::S, 77)));
    }

    #[test]
    fn owner_serves_foreign_gets_and_downgrades_to_owned() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 42);
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        let out = c.pop_data_message().unwrap();
        assert_eq!(out.dst, NodeId(2));
        assert_eq!(out.msg, SnoopDataMsg::Data { addr: A, data: 42 });
        assert_eq!(c.cached_value(A), Some((SnoopCacheState::O, 42)));
    }

    #[test]
    fn owner_serves_foreign_getm_and_invalidates() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 42);
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetM { addr: A })
            .unwrap();
        let out = c.pop_data_message().unwrap();
        assert_eq!(out.msg, SnoopDataMsg::Data { addr: A, data: 42 });
        assert_eq!(c.cached_value(A), None);
        assert_eq!(c.stats().invalidations.get(), 1);
    }

    #[test]
    fn shared_copy_is_invalidated_silently_by_foreign_getm() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, load(A));
        c.pop_bus_request();
        c.observe_snoop(1, NodeId(1), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.handle_data(2, SnoopDataMsg::Data { addr: A, data: 5 })
            .unwrap();
        c.take_completed();
        c.observe_snoop(10, NodeId(3), SnoopRequest::GetM { addr: A })
            .unwrap();
        assert_eq!(c.cached_value(A), None);
        assert!(
            c.pop_data_message().is_none(),
            "an S copy never supplies data"
        );
    }

    #[test]
    fn writeback_sends_data_to_home_when_own_putm_is_observed() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 7);
        assert!(c.force_evict(20, A));
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::PutM { addr: A }));
        // A request to the block stalls while the writeback is pending.
        assert_eq!(c.cpu_request(25, load(A)), SnoopAccessOutcome::Stall);
        c.observe_snoop(30, NodeId(1), SnoopRequest::PutM { addr: A })
            .unwrap();
        let wb = c.pop_data_message().unwrap();
        assert_eq!(wb.dst, A.home_node(16));
        assert_eq!(wb.msg, SnoopDataMsg::WbData { addr: A, data: 7 });
    }

    /// First half of the Section 3.2 corner case: a foreign GetM observed
    /// while the Writeback is in flight takes the data and the ownership.
    #[test]
    fn inflight_writeback_serves_one_foreign_getm_and_drops_its_putm() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 9);
        c.force_evict(20, A);
        c.pop_bus_request();
        c.observe_snoop(25, NodeId(2), SnoopRequest::GetM { addr: A })
            .unwrap();
        assert_eq!(
            c.pop_data_message().unwrap().msg,
            SnoopDataMsg::Data { addr: A, data: 9 }
        );
        // Our own PutM is then ordered: it is stale, no writeback data goes to
        // memory.
        c.observe_snoop(30, NodeId(1), SnoopRequest::PutM { addr: A })
            .unwrap();
        assert!(c.pop_data_message().is_none());
    }

    /// The full corner case: a SECOND foreign GetM before our PutM is
    /// ordered. The full protocol ignores it; the speculative protocol
    /// reports a mis-speculation.
    #[test]
    fn double_getm_race_is_handled_by_full_and_detected_by_speculative() {
        for variant in [ProtocolVariant::Full, ProtocolVariant::Speculative] {
            let mut c = ctrl(variant);
            make_owner(&mut c, 9);
            c.force_evict(20, A);
            c.pop_bus_request();
            c.observe_snoop(25, NodeId(2), SnoopRequest::GetM { addr: A })
                .unwrap();
            c.pop_data_message();
            let second = c
                .observe_snoop(26, NodeId(3), SnoopRequest::GetM { addr: A })
                .unwrap();
            match variant {
                ProtocolVariant::Full => {
                    assert!(second.is_none(), "full protocol handles the race");
                    assert!(c.pop_data_message().is_none(), "we are no longer the owner");
                }
                ProtocolVariant::Speculative => {
                    let m = second.expect("speculative protocol must detect the race");
                    assert_eq!(m.kind, MisSpecKind::WritebackDoubleRace);
                    assert_eq!(m.node, NodeId(1));
                    assert_eq!(c.stats().misspeculations.get(), 1);
                }
            }
        }
    }

    #[test]
    fn owner_upgrade_completes_from_its_own_copy() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 10);
        // Downgrade to O by serving a foreign GetS.
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.pop_data_message();
        // Upgrade back to M.
        assert_eq!(
            c.cpu_request(30, store(A, 11)),
            SnoopAccessOutcome::MissIssued
        );
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::GetM { addr: A }));
        c.observe_snoop(35, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        let done = c.take_completed().expect("upgrade fills from its own data");
        assert_eq!(done.value, 11);
        assert_eq!(c.cached_value(A), Some((SnoopCacheState::M, 11)));
    }

    #[test]
    fn requests_ordered_after_ours_are_served_when_the_fill_arrives() {
        let mut c = ctrl(ProtocolVariant::Full);
        // Our GetM is ordered but the data has not arrived yet.
        c.cpu_request(0, store(A, 50));
        c.pop_bus_request();
        c.observe_snoop(5, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        // Two requests ordered after ours: a GetS (we stay owner) then a GetM
        // (ownership moves on). A further GetS is the next owner's problem.
        c.observe_snoop(6, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.observe_snoop(7, NodeId(3), SnoopRequest::GetM { addr: A })
            .unwrap();
        c.observe_snoop(8, NodeId(4), SnoopRequest::GetS { addr: A })
            .unwrap();
        assert!(
            c.pop_data_message().is_none(),
            "nothing can be served before the fill"
        );
        // The fill arrives.
        c.handle_data(10, SnoopDataMsg::Data { addr: A, data: 1 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 50);
        let first = c.pop_data_message().unwrap();
        assert_eq!(first.dst, NodeId(2));
        assert_eq!(first.msg, SnoopDataMsg::Data { addr: A, data: 50 });
        let second = c.pop_data_message().unwrap();
        assert_eq!(second.dst, NodeId(3));
        assert_eq!(second.msg, SnoopDataMsg::Data { addr: A, data: 50 });
        // Node 4 is NOT served by us.
        assert!(c.pop_data_message().is_none());
        // Ownership was handed to node 3, so the block is no longer resident.
        assert_eq!(c.cached_value(A), None);
    }

    #[test]
    fn late_or_duplicate_data_is_ignored() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.handle_data(0, SnoopDataMsg::Data { addr: A, data: 3 })
            .unwrap();
        assert!(c.take_completed().is_none());
        // Writeback data addressed to memory is a protocol error at a cache.
        assert!(c
            .handle_data(0, SnoopDataMsg::WbData { addr: A, data: 3 })
            .is_err());
    }

    #[test]
    fn abort_transients_clears_everything_in_flight() {
        let mut c = ctrl(ProtocolVariant::Speculative);
        c.cpu_request(0, store(A, 1));
        assert!(c.has_outstanding_demand());
        c.abort_transients();
        assert!(!c.has_outstanding_demand());
        assert_eq!(c.outgoing_len(), 0);
    }

    fn ctrl_mshr(variant: ProtocolVariant, mshr_entries: usize) -> SnoopCacheController {
        let cfg = MemorySystemConfig {
            mshr_entries,
            ..config()
        };
        SnoopCacheController::new(NodeId(1), variant, &cfg)
    }

    #[test]
    fn parallel_misses_complete_out_of_order_by_address() {
        let b = BlockAddr(0x80);
        let mut c = ctrl_mshr(ProtocolVariant::Full, 2);
        assert_eq!(c.cpu_request(0, load(A)), SnoopAccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(1, load(b)), SnoopAccessOutcome::MissIssued);
        assert_eq!(c.outstanding_demands(), 2);
        // A third miss exceeds the two MSHRs; a duplicate of an in-flight
        // block stalls even though an MSHR is notionally free at that point.
        assert_eq!(
            c.cpu_request(2, load(BlockAddr(0xc0))),
            SnoopAccessOutcome::Stall
        );
        assert_eq!(c.cpu_request(2, store(A, 1)), SnoopAccessOutcome::Stall);
        // Both requests get ordered; the younger one's data arrives first.
        c.observe_snoop(5, NodeId(1), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.observe_snoop(6, NodeId(1), SnoopRequest::GetS { addr: b })
            .unwrap();
        c.handle_data(10, SnoopDataMsg::Data { addr: b, data: 22 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!((done.addr, done.value), (b, 22));
        assert_eq!(c.outstanding_since(), Some(0), "oldest demand still open");
        c.handle_data(20, SnoopDataMsg::Data { addr: A, data: 11 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!((done.addr, done.value), (A, 11));
        assert!(!c.has_outstanding_demand());
        assert_eq!(c.cached_value(A), Some((SnoopCacheState::S, 11)));
        assert_eq!(c.cached_value(b), Some((SnoopCacheState::S, 22)));
    }

    #[test]
    fn owner_upgrade_runs_with_the_mshr_file_to_itself() {
        let b = BlockAddr(0x80);
        let mut c = ctrl_mshr(ProtocolVariant::Full, 4);
        make_owner(&mut c, 10);
        // Downgrade to O by serving a foreign GetS.
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.pop_data_message();
        // With a plain miss outstanding, the O->M upgrade must wait.
        assert_eq!(c.cpu_request(30, load(b)), SnoopAccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(31, store(A, 11)), SnoopAccessOutcome::Stall);
        c.observe_snoop(32, NodeId(1), SnoopRequest::GetS { addr: b })
            .unwrap();
        c.handle_data(33, SnoopDataMsg::Data { addr: b, data: 0 })
            .unwrap();
        c.take_completed();
        // Once the file drains the upgrade issues, and while it is
        // outstanding every new demand stalls.
        assert_eq!(
            c.cpu_request(40, store(A, 11)),
            SnoopAccessOutcome::MissIssued
        );
        assert_eq!(
            c.cpu_request(41, load(BlockAddr(0xc0))),
            SnoopAccessOutcome::Stall
        );
        c.pop_bus_request();
        c.observe_snoop(45, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        let done = c.take_completed().expect("upgrade fills from its own data");
        assert_eq!(done.value, 11);
        assert_eq!(c.cached_value(A), Some((SnoopCacheState::M, 11)));
        assert_eq!(
            c.cpu_request(50, load(BlockAddr(0xc0))),
            SnoopAccessOutcome::MissIssued
        );
    }
}
