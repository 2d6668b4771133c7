//! The full directory-protocol system: one processor with two-level caches
//! and a directory/memory controller per node, the 2D-torus interconnect,
//! and SafetyNet checkpoint/recovery — the target machine of Sections 3.1, 4
//! and 5 of the paper (16 nodes on a 4×4 torus; the node-count scaling sweep
//! grows the same system to rectangular tori up to 16×8).
//!
//! The per-cycle machinery (processor ticking with idle-skip, checkpointing,
//! recovery and forward-progress orchestration, metrics) is the shared
//! [`SystemEngine`]; this module contributes the directory-protocol
//! [`ProtocolNode`] implementation — the torus fabric, the cache/directory
//! controllers and the virtual-network plumbing between them.
//!
//! The system is advanced one cycle at a time by [`DirectorySystem::step`];
//! [`DirectorySystem::run_for`] runs a full experiment window and returns the
//! collected [`RunMetrics`].

use std::sync::Arc;

use specsim_base::{
    BlockAddr, Cycle, CycleDelta, DetRng, FaultKind, FlowControl, NodeId, RoutingPolicy,
};
use specsim_coherence::dir::{
    AccessOutcome, CacheState, DirCacheController, DirMsg, DirectoryController, OutMsg,
};
use specsim_coherence::types::{CpuAccess, CpuRequest, MisSpecKind, MsgClass, ProtocolError};
use specsim_net::{Network, PacketTaint, VirtualNetwork};
use specsim_safetynet::SafetyNet;
use specsim_workloads::{Processor, Trace, WorkloadGenerator, ZipfTable};

use crate::config::{ForwardProgressConfig, SystemConfig};
use crate::engine::{
    EngineAccess, EngineCtx, ForwardProgressMode, ProtocolNode, StagedOutbox, SystemEngine,
};
use crate::metrics::RunMetrics;

/// Messages a node may ingest from the network per cycle.
const INGEST_BUDGET: usize = 4;
/// Messages a controller may hand to the outbox per cycle.
const DRAIN_BUDGET: usize = 4;
/// A controller stops ingesting new work while this many of its outputs are
/// still waiting to enter the network (the endpoint dependency that makes
/// endpoint deadlock possible when buffering is shared, Figure 2).
const CONTROLLER_OUTPUT_LIMIT: usize = 8;
/// Latency charged on cache-controller responses (tag/data array access).
const CACHE_RESPONSE_LATENCY: CycleDelta = 4;
/// Latency charged on directory responses that do not access DRAM.
const DIRECTORY_LATENCY: CycleDelta = 16;

/// The architectural state of the machine — everything SafetyNet must be able
/// to restore: caches, directories/memories, processors (with their workload
/// positions), the interconnect contents and the per-node staging outboxes.
#[derive(Debug, Clone)]
pub(crate) struct ArchState {
    net: Network<DirMsg>,
    caches: Vec<DirCacheController>,
    dirs: Vec<DirectoryController>,
    procs: Vec<Processor>,
    outboxes: Vec<StagedOutbox<OutMsg>>,
}

/// Maps a protocol message class to its virtual network (Section 3.1:
/// one virtual network per message class).
fn vnet_of(class: MsgClass) -> VirtualNetwork {
    match class {
        MsgClass::Request => VirtualNetwork::Request,
        MsgClass::Forwarded => VirtualNetwork::ForwardedRequest,
        MsgClass::Response => VirtualNetwork::Response,
        MsgClass::FinalAck => VirtualNetwork::FinalAck,
    }
}

/// The directory-protocol half of the machine: everything the shared
/// [`SystemEngine`] delegates to a [`ProtocolNode`].
#[derive(Debug)]
pub(crate) struct DirProtocol {
    cfg: SystemConfig,
}

impl DirProtocol {
    fn ingest_messages(
        &mut self,
        arch: &mut ArchState,
        now: Cycle,
        ctx: &mut EngineCtx<'_, ArchState>,
    ) {
        let n = arch.procs.len();
        let vc_mode = matches!(self.cfg.flow_control, FlowControl::VirtualChannels { .. });
        // In virtual-channel mode the endpoint has one ejection queue per
        // class; responses are served first, which is exactly how virtual
        // networks break the request-response endpoint dependency. With
        // shared buffering there is a single FIFO: if its head cannot be
        // ingested the whole queue waits — the endpoint-deadlock dependency
        // of Figure 2.
        const PRIORITY: [VirtualNetwork; 4] = [
            VirtualNetwork::Response,
            VirtualNetwork::FinalAck,
            VirtualNetwork::ForwardedRequest,
            VirtualNetwork::Request,
        ];
        // Worklist walk: visit only endpoints holding deliverable packets, in
        // the same ascending order as a dense scan with an idle-inbox skip.
        // The cursor re-queries after each node because ingest itself drains
        // queues (nodes can only leave the worklist, never join, mid-walk).
        let mut cursor = 0;
        while let Some(node_idx) = arch.net.next_ejectable_at_or_after(cursor) {
            cursor = node_idx + 1;
            if node_idx >= n {
                break;
            }
            let node = NodeId::from(node_idx);
            let mut budget = INGEST_BUDGET;
            while budget > 0 {
                let packet = if vc_mode {
                    let mut found = None;
                    for vn in PRIORITY {
                        if let Some(p) = arch.net.peek_from(node, vn) {
                            if Self::can_ingest(arch, node_idx, p.payload.class()) {
                                found = Some(vn);
                                break;
                            }
                        }
                    }
                    found.and_then(|vn| arch.net.eject_from(node, vn))
                } else {
                    match arch.net.peek_any(node) {
                        Some(p) if Self::can_ingest(arch, node_idx, p.payload.class()) => {
                            arch.net.eject_any(node)
                        }
                        _ => None,
                    }
                };
                let Some(packet) = packet else { break };
                budget -= 1;
                // Checksum model (Section 2, detection): a detectably-damaged
                // message is caught at ingest, reported as transient-fault
                // evidence, and discarded — the protocol never sees it. The
                // dropped message then surfaces through the requestor's
                // transaction timeout, which the evidence classifies.
                if packet.taint.is_detectable() {
                    let kind = match packet.taint {
                        PacketTaint::Duplicate => FaultKind::Duplicate,
                        _ => FaultKind::Corrupt,
                    };
                    ctx.report_fault_evidence(now, node, packet.payload.addr(), kind);
                    continue;
                }
                Self::dispatch(arch, ctx, now, node_idx, packet.src, packet.payload);
            }
        }
    }

    fn can_ingest(arch: &ArchState, node_idx: usize, class: MsgClass) -> bool {
        match class {
            MsgClass::Request | MsgClass::FinalAck => {
                arch.dirs[node_idx].outgoing_len() < CONTROLLER_OUTPUT_LIMIT
            }
            MsgClass::Forwarded | MsgClass::Response => {
                arch.caches[node_idx].outgoing_len() < CONTROLLER_OUTPUT_LIMIT
            }
        }
    }

    fn dispatch(
        arch: &mut ArchState,
        ctx: &mut EngineCtx<'_, ArchState>,
        now: Cycle,
        node_idx: usize,
        src: NodeId,
        msg: DirMsg,
    ) {
        // Either controller may have enqueued protocol output (and a cache
        // ingest may have completed a processor access): put the node on the
        // exchange worklists.
        ctx.note_exchange_activity(node_idx);
        match msg.class() {
            MsgClass::Request | MsgClass::FinalAck => {
                if let Err(e) = arch.dirs[node_idx].handle_message(now, src, msg) {
                    ctx.note_error(e);
                }
            }
            MsgClass::Forwarded | MsgClass::Response => {
                match arch.caches[node_idx].handle_message(now, msg) {
                    Ok(Some(misspec)) => ctx.note_misspeculation(misspec),
                    Ok(None) => {}
                    Err(e) => ctx.note_error(e),
                }
                // The cache controller's state changed: a processor parked on
                // a stalled request at this node may now make progress.
                ctx.note_cache_activity(now, node_idx);
            }
        }
    }

    fn pump_outboxes(
        &mut self,
        arch: &mut ArchState,
        now: Cycle,
        ctx: &mut EngineCtx<'_, ArchState>,
    ) {
        let ArchState {
            net,
            caches,
            dirs,
            outboxes,
            ..
        } = arch;
        // Worklist walk: visit only nodes that may hold controller output or
        // staged messages, in the same ascending order as the dense scan
        // this replaces (the worklist holds a superset of the busy nodes,
        // and idle visits are no-ops, so the schedule is unchanged).
        let mut cursor = 0;
        while let Some(i) = ctx.next_outbox_at_or_after(cursor) {
            cursor = i + 1;
            // Idle-outbox retire: no controller output queued and no staged
            // message waiting out its latency timer — the exact dense-scan
            // skip condition, so the node leaves the worklist until the tick
            // phase or a message ingest re-arms it.
            if caches[i].outgoing_len() == 0
                && dirs[i].outgoing_len() == 0
                && outboxes[i].is_empty()
            {
                ctx.retire_outbox(i);
                continue;
            }
            for _ in 0..DRAIN_BUDGET {
                match caches[i].pop_outgoing() {
                    Some(m) => outboxes[i].stage(now + CACHE_RESPONSE_LATENCY, m),
                    None => break,
                }
            }
            for _ in 0..DRAIN_BUDGET {
                match dirs[i].pop_outgoing() {
                    Some(m) => {
                        let delay = match m.msg {
                            DirMsg::Data { .. } => {
                                self.cfg.memory.dram_access_cycles
                                    + ctx.perturbation(self.cfg.perturbation_cycles)
                            }
                            _ => DIRECTORY_LATENCY,
                        };
                        outboxes[i].stage(now + delay, m);
                    }
                    None => break,
                }
            }
            // Inject ready messages in FIFO order (per-source protocol order
            // is preserved; the network may still reorder in flight under
            // adaptive routing, which is the point of Section 3.1).
            let node = NodeId::from(i);
            outboxes[i].pump(now, |m| {
                let vnet = vnet_of(m.msg.class());
                if !net.can_inject(node, vnet) {
                    return false;
                }
                net.inject(now, node, m.dst, vnet, m.msg.size(), m.msg)
                    .expect("injection checked");
                true
            });
        }
    }
}

impl ProtocolNode for DirProtocol {
    type Arch = ArchState;

    fn procs(arch: &ArchState) -> &[Processor] {
        &arch.procs
    }

    fn procs_mut(arch: &mut ArchState) -> &mut [Processor] {
        &mut arch.procs
    }

    fn outstanding_demand(arch: &ArchState) -> usize {
        arch.caches.iter().map(|c| c.outstanding_demands()).sum()
    }

    fn cpu_request(arch: &mut ArchState, i: usize, now: Cycle, req: CpuRequest) -> EngineAccess {
        match arch.caches[i].cpu_request(now, req) {
            AccessOutcome::L1Hit { latency, .. } | AccessOutcome::L2Hit { latency, .. } => {
                EngineAccess::Hit { latency }
            }
            AccessOutcome::MissIssued => EngineAccess::MissIssued,
            AccessOutcome::Stall => EngineAccess::Stall,
        }
    }

    const SUPPORTS_PARALLEL_TICK: bool = true;

    const SUPPORTS_PARALLEL_EXCHANGE: bool = true;

    fn tick_nodes_parallel(
        arch: &mut ArchState,
        nodes: &[u32],
        now: Cycle,
        pool: &specsim_base::WorkerPool,
    ) -> Option<u64> {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Raw-pointer view of the per-node arrays. A node's tick touches
        // only `procs[i]` (poll, note_*) and `caches[i]` (cpu_request), and
        // `nodes` holds strictly ascending — hence distinct — indices split
        // into disjoint chunks, so no two tasks alias the same element.
        struct Arrays {
            procs: *mut Processor,
            caches: *mut DirCacheController,
        }
        unsafe impl Sync for Arrays {}
        let arrays = Arrays {
            procs: arch.procs.as_mut_ptr(),
            caches: arch.caches.as_mut_ptr(),
        };
        let polls = AtomicU64::new(0);
        // A few chunks per thread so claim-based stealing can rebalance.
        let chunk = nodes.len().div_ceil(pool.threads() * 4).max(1);
        let tasks = nodes.len().div_ceil(chunk);
        // Capture the whole `Arrays` (which is Sync), not its raw-pointer
        // fields — edition-2021 disjoint capture would otherwise pull the
        // bare `*mut` fields into the closure and lose the Sync wrapper.
        let arrays = &arrays;
        pool.run(tasks, |t| {
            let arrays: &Arrays = arrays;
            let mut chunk_polls = 0u64;
            for &node in &nodes[t * chunk..((t + 1) * chunk).min(nodes.len())] {
                let i = node as usize;
                // SAFETY: chunk ranges partition `nodes` (distinct indices),
                // so this task has exclusive access to element `i`; the
                // barrier in `pool.run` ends these borrows before the arrays
                // can be touched again.
                let proc = unsafe { &mut *arrays.procs.add(i) };
                let Some(req) = proc.poll(now) else { continue };
                chunk_polls += 1;
                let cache = unsafe { &mut *arrays.caches.add(i) };
                let outcome = cache.cpu_request(now, req);
                match outcome {
                    AccessOutcome::L1Hit { latency, .. } | AccessOutcome::L2Hit { latency, .. } => {
                        proc.note_hit(now, latency, req.access == CpuAccess::Store);
                    }
                    AccessOutcome::MissIssued => proc.note_miss_issued(now),
                    AccessOutcome::Stall => proc.note_stall(),
                }
            }
            polls.fetch_add(chunk_polls, Ordering::Relaxed);
        });
        Some(polls.load(Ordering::Relaxed))
    }

    fn exchange(&mut self, arch: &mut ArchState, now: Cycle, ctx: &mut EngineCtx<'_, ArchState>) {
        self.ingest_messages(arch, now, ctx);
        {
            let ArchState { procs, caches, .. } = arch;
            ctx.deliver_completions(now, procs, |i| {
                caches[i]
                    .take_completed()
                    .map(|done| (done.addr, done.access))
            });
        }
        self.pump_outboxes(arch, now, ctx);
        let pool = ctx.worker_pool();
        let faults = ctx.faults();
        arch.net.tick_faulted_with_pool(now, faults, pool);
        crate::engine::report_pooled_fabric_evidence(&arch.net, now, ctx);
    }

    fn drain_write_log(arch: &mut ArchState, i: usize) -> usize {
        arch.dirs[i].take_write_log().len()
    }

    fn checkpoint_due(
        &self,
        _arch: &ArchState,
        safetynet: &SafetyNet<ArchState>,
        now: Cycle,
    ) -> bool {
        // The directory system checkpoints on the cycle clock (Table 2:
        // every 100 000 cycles).
        safetynet.should_checkpoint(now)
    }

    fn on_checkpoint_taken(&mut self, _arch: &ArchState) {}

    fn timeout_addr(arch: &ArchState, i: usize) -> BlockAddr {
        arch.caches[i].outstanding_addr().unwrap_or(BlockAddr(0))
    }

    fn transaction_outstanding_since(arch: &ArchState, i: usize) -> Option<Cycle> {
        arch.caches[i].outstanding_since()
    }

    fn after_recovery_restore(&mut self, rolled_back: &ArchState, arch: &mut ArchState) {
        arch.net.carry_forward_probe(&rolled_back.net);
    }

    fn misspec_forward_progress(
        &mut self,
        arch: &mut ArchState,
        kind: MisSpecKind,
        resume_at: Cycle,
        fp: &ForwardProgressConfig,
    ) -> ForwardProgressMode {
        match kind {
            MisSpecKind::ForwardedRequestToInvalidCache => {
                if fp.disable_adaptive_cycles > 0 && self.cfg.routing == RoutingPolicy::Adaptive {
                    arch.net.set_routing(RoutingPolicy::Static);
                    ForwardProgressMode::AdaptiveRoutingDisabled {
                        until: resume_at + fp.disable_adaptive_cycles,
                    }
                } else {
                    ForwardProgressMode::Normal
                }
            }
            MisSpecKind::TransactionTimeout
            | MisSpecKind::WritebackDoubleRace
            | MisSpecKind::TransientFault { .. } => {
                if fp.slow_start_cycles > 0 {
                    ForwardProgressMode::SlowStart {
                        until: resume_at + fp.slow_start_cycles,
                        max_outstanding: fp.slow_start_max_outstanding,
                    }
                } else {
                    ForwardProgressMode::Normal
                }
            }
            MisSpecKind::BufferDeadlock => {
                crate::engine::buffer_deadlock_forward_progress(&mut arch.net, resume_at, fp)
            }
        }
    }

    fn on_adaptive_window_expired(&mut self, arch: &mut ArchState) {
        arch.net.set_routing(self.cfg.routing);
    }

    fn on_reserved_window_expired(&mut self, arch: &mut ArchState) {
        arch.net.set_pool_reservation(0);
    }

    fn normal_outstanding_limit(&self) -> usize {
        self.cfg.max_outstanding
    }

    fn collect_protocol_metrics(&self, arch: &ArchState, now: Cycle, m: &mut RunMetrics) {
        m.messages_delivered = arch.net.stats().delivered.get();
        for vn in specsim_net::ALL_VIRTUAL_NETWORKS {
            m.delivered_per_vnet[vn.index()] = arch.net.ordering().delivered(vn);
            m.reordered_per_vnet[vn.index()] = arch.net.ordering().reordered(vn);
        }
        m.link_utilization = arch.net.mean_link_utilization(now);
        m.vnet_latency = arch.net.stats().latency_hist_per_vnet.clone();
    }

    fn idle_horizon(arch: &ArchState, now: Cycle) -> Cycle {
        let next = now + 1;
        let mut due = arch.net.next_due(now).unwrap_or(Cycle::MAX);
        if due <= next {
            return next;
        }
        for i in 0..arch.procs.len() {
            if arch.caches[i].outgoing_len() > 0
                || arch.dirs[i].outgoing_len() > 0
                || arch.caches[i].has_completed()
            {
                return next;
            }
            if let Some(ready) = arch.outboxes[i].next_ready() {
                due = due.min(ready.max(next));
            }
        }
        due
    }

    fn skip_idle_cycles(arch: &mut ArchState, last: Cycle, cycles: u64) {
        arch.net.skip_idle_ticks(last, cycles);
    }

    fn fabric_counters(arch: &ArchState) -> specsim_base::FabricCounters {
        specsim_base::FabricCounters {
            link_busy_cycles: arch.net.link_busy_cycles(),
            num_links: arch.net.stats().num_links as u64,
            delivered: arch.net.stats().delivered.get(),
        }
    }
}

/// The assembled directory-protocol multiprocessor.
#[derive(Debug)]
pub struct DirectorySystem {
    pub(crate) engine: SystemEngine<DirProtocol>,
}

impl DirectorySystem {
    /// Builds the system described by `cfg`.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let n = cfg.memory.num_nodes;
        let mut seed_rng = DetRng::new(cfg.seed);
        // One Zipf hot-block table shared by every node's generator (the
        // whole point of a hot set is that nodes contend on it).
        let zipf_table = cfg.traffic.zipf.map(|z| Arc::new(ZipfTable::new(z)));
        let procs = (0..n)
            .map(|i| {
                let node = NodeId::from(i);
                let mut proc = match &cfg.replay_trace {
                    Some(trace) => Processor::from_trace(node, Arc::clone(trace), 0),
                    None => {
                        let gen = WorkloadGenerator::shaped(
                            cfg.workload,
                            node,
                            cfg.seed,
                            cfg.traffic,
                            zipf_table.clone(),
                        );
                        Processor::new(node, gen, 0)
                    }
                }
                .with_max_outstanding(cfg.memory.mshr_entries);
                if cfg.record_trace {
                    proc.enable_recording();
                }
                proc
            })
            .collect();
        let caches = (0..n)
            .map(|i| DirCacheController::new(NodeId::from(i), cfg.protocol, &cfg.memory))
            .collect();
        let dirs = (0..n)
            .map(|i| DirectoryController::new(NodeId::from(i), cfg.protocol))
            .collect();
        let net = Network::new(cfg.net_config());
        let arch = ArchState {
            net,
            caches,
            dirs,
            procs,
            outboxes: (0..n).map(|_| StagedOutbox::default()).collect(),
        };
        let perturb_rng = seed_rng.fork();
        let fault_plan = cfg.fault_config.lower(cfg.seed, n);
        let worker_threads = cfg.effective_worker_threads();
        let parallel_exchange = cfg.parallel_exchange;
        let mut engine = SystemEngine::new(
            DirProtocol { cfg: cfg.clone() },
            arch,
            cfg.memory.safetynet.clone(),
            cfg.forward_progress,
            cfg.inject_recovery_every,
            perturb_rng,
            fault_plan,
            worker_threads,
        );
        engine.set_parallel_exchange(parallel_exchange);
        engine.set_telemetry(cfg.telemetry);
        Self { engine }
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.engine.protocol().cfg
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.engine.now()
    }

    /// The forward-progress mode currently in force.
    #[must_use]
    pub fn forward_progress_mode(&self) -> ForwardProgressMode {
        self.engine.forward_progress_mode()
    }

    /// Memory operations committed so far across all processors.
    #[must_use]
    pub fn ops_completed(&self) -> u64 {
        self.engine.ops_completed()
    }

    /// The engine's work counters (idle-skip and exchange-worklist
    /// observability).
    #[must_use]
    pub fn engine_probe(&self) -> crate::engine::EngineProbe {
        self.engine.probe()
    }

    /// The torus's forward-phase work counters (switch visits, parallel
    /// shard accounting) — observability for the parallel-exchange tests;
    /// never part of the schedule.
    #[must_use]
    pub fn net_forward_probe(&self) -> specsim_net::ForwardProbe {
        self.engine.arch().net.forward_probe()
    }

    /// The always-on engine-mode timeline (availability observability).
    #[must_use]
    pub fn mode_timeline(&self) -> &specsim_base::ModeTimeline {
        self.engine.mode_timeline()
    }

    /// The windowed telemetry samples as JSONL, when
    /// [`SystemConfig::telemetry`] enabled the sampler.
    #[must_use]
    pub fn telemetry_jsonl(&self) -> Option<String> {
        self.engine.telemetry_jsonl()
    }

    /// The speculation-lifecycle trace as a Chrome trace-event JSON
    /// document (Perfetto-loadable), when telemetry is enabled.
    #[must_use]
    pub fn telemetry_trace(&self) -> Option<String> {
        self.engine.telemetry_trace()
    }

    /// Maps a protocol message class to its virtual network (Section 3.1:
    /// one virtual network per message class).
    #[must_use]
    pub fn vnet_of(class: MsgClass) -> VirtualNetwork {
        vnet_of(class)
    }

    /// Runs the system for `cycles` cycles and returns the metrics collected
    /// so far. Returns an error if a transition occurred that the fully
    /// designed protocol considers impossible (a simulator bug).
    pub fn run_for(&mut self, cycles: CycleDelta) -> Result<RunMetrics, ProtocolError> {
        self.engine.run_for(cycles)
    }

    /// Advances the system by one cycle.
    pub fn step(&mut self) -> Result<(), ProtocolError> {
        self.engine.step()
    }

    /// Gathers the run metrics from every component.
    pub fn collect_metrics(&mut self) -> RunMetrics {
        self.engine.collect_metrics()
    }

    /// The trace recorded so far when the system was built with
    /// [`SystemConfig::record_trace`]; `None` otherwise. Replaying the
    /// returned trace (via [`SystemConfig::replay_trace`]) reproduces each
    /// node's accepted-operation schedule exactly.
    #[must_use]
    pub fn recorded_trace(&self) -> Option<Trace> {
        let nodes: Option<Vec<_>> = self
            .engine
            .arch()
            .procs
            .iter()
            .map(|p| p.recorded_events().map(<[_]>::to_vec))
            .collect();
        nodes.map(|nodes| Trace { nodes })
    }

    /// Checks the fundamental coherence invariants over the current stable
    /// state: at most one owner (M or O) per block, and every cached copy of
    /// a block holds the same value as the owner. Returns a description of
    /// the first violation found.
    pub fn verify_coherence(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let arch = self.engine.arch();
        let mut owners: HashMap<BlockAddr, (NodeId, u64)> = HashMap::new();
        let mut copies: HashMap<BlockAddr, Vec<(NodeId, u64)>> = HashMap::new();
        for cache in &arch.caches {
            for (addr, state, data) in cache.resident_lines() {
                copies.entry(addr).or_default().push((cache.node(), data));
                if matches!(state, CacheState::M | CacheState::O) {
                    if let Some((other, _)) = owners.insert(addr, (cache.node(), data)) {
                        return Err(format!(
                            "block {addr} has two owners: {other} and {}",
                            cache.node()
                        ));
                    }
                }
            }
        }
        for (addr, holders) in &copies {
            if let Some((_, owner_value)) = owners.get(addr) {
                for (node, value) in holders {
                    if value != owner_value {
                        return Err(format!(
                            "block {addr} at {node} has value {value:#x} but the owner holds {owner_value:#x}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsim_base::{LinkBandwidth, ProtocolVariant};
    use specsim_workloads::WorkloadKind;

    fn small_config(protocol: ProtocolVariant, routing: RoutingPolicy) -> SystemConfig {
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 7);
        cfg.protocol = protocol;
        cfg.routing = routing;
        // Small caches keep the checkpoint snapshots cheap in unit tests.
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        cfg
    }

    #[test]
    fn full_protocol_static_routing_makes_progress_and_stays_coherent() {
        let mut sys =
            DirectorySystem::new(small_config(ProtocolVariant::Full, RoutingPolicy::Static));
        let metrics = sys.run_for(30_000).expect("no protocol errors");
        assert!(
            metrics.ops_completed > 1_000,
            "only {} ops",
            metrics.ops_completed
        );
        assert!(metrics.misses > 10);
        assert_eq!(metrics.recoveries, 0);
        assert_eq!(metrics.total_reorder_fraction(), 0.0);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn speculative_protocol_with_adaptive_routing_makes_progress() {
        let mut sys = DirectorySystem::new(small_config(
            ProtocolVariant::Speculative,
            RoutingPolicy::Adaptive,
        ));
        let metrics = sys.run_for(30_000).expect("no protocol errors");
        assert!(metrics.ops_completed > 1_000);
        sys.verify_coherence().unwrap();
        // Checkpoints were taken on schedule.
        assert!(metrics.checkpoints >= 4);
    }

    #[test]
    fn injected_recoveries_occur_at_the_configured_rate() {
        let mut cfg = small_config(ProtocolVariant::Full, RoutingPolicy::Static);
        cfg.inject_recovery_every = Some(10_000);
        let mut sys = DirectorySystem::new(cfg);
        let metrics = sys.run_for(45_000).expect("no protocol errors");
        assert!(
            (3..=5).contains(&metrics.injected_recoveries),
            "expected about 4 injected recoveries, got {}",
            metrics.injected_recoveries
        );
        assert!(metrics.lost_work_cycles > 0);
        // The system keeps working after recoveries.
        assert!(metrics.ops_completed > 500);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn recovery_rolls_back_to_a_checkpoint_and_resumes() {
        let mut cfg = small_config(ProtocolVariant::Speculative, RoutingPolicy::Adaptive);
        cfg.inject_recovery_every = Some(20_000);
        let mut sys = DirectorySystem::new(cfg);
        sys.run_for(25_000).expect("no protocol errors");
        let ops_after_recovery = sys.ops_completed();
        let m = sys.collect_metrics();
        assert_eq!(m.injected_recoveries, 1);
        // Execution continued after the rollback.
        sys.run_for(10_000).expect("no protocol errors");
        assert!(sys.ops_completed() > ops_after_recovery);
    }

    #[test]
    fn buffer_deadlock_measure_reserves_pool_slots_and_expiry_lifts_them() {
        // Drives the Section 4 forward-progress lifecycle deterministically:
        // entering the measure partitions every node's pool into per-network
        // reservations; once the window expires the engine calls back into
        // the protocol and the pool returns to fully shared slots.
        let mut cfg =
            SystemConfig::shared_pool_interconnect(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 64, 7);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.forward_progress.reserved_slot_cycles = 2_000;
        cfg.forward_progress.reserved_slots_per_network = 2;
        let mut sys = DirectorySystem::new(cfg);
        sys.run_for(1_000).expect("no protocol errors");
        assert_eq!(sys.engine.arch().net.pool_reservation(), Some(0));
        let mode = sys
            .engine
            .test_force_misspec_forward_progress(MisSpecKind::BufferDeadlock);
        assert!(matches!(mode, ForwardProgressMode::ReservedSlots { .. }));
        assert_eq!(sys.engine.arch().net.pool_reservation(), Some(2));
        // The window expires mid-run; the engine lifts the reservation.
        sys.run_for(3_000).expect("no protocol errors");
        assert_eq!(sys.forward_progress_mode(), ForwardProgressMode::Normal);
        assert_eq!(sys.engine.arch().net.pool_reservation(), Some(0));
    }

    #[test]
    fn buffer_deadlock_measure_falls_back_to_slow_start_on_unpooled_nets() {
        // A worst-case-buffered machine has no pool to reserve: the measure
        // degrades to slow-start, never to a no-op.
        let mut sys =
            DirectorySystem::new(small_config(ProtocolVariant::Full, RoutingPolicy::Static));
        sys.run_for(100).expect("no protocol errors");
        let mode = sys
            .engine
            .test_force_misspec_forward_progress(MisSpecKind::BufferDeadlock);
        assert!(matches!(mode, ForwardProgressMode::SlowStart { .. }));
    }

    #[test]
    fn ops_throughput_scales_with_run_length() {
        let mut sys =
            DirectorySystem::new(small_config(ProtocolVariant::Full, RoutingPolicy::Static));
        let m1 = sys.run_for(10_000).unwrap();
        let m2 = sys.run_for(10_000).unwrap();
        assert!(m2.ops_completed > m1.ops_completed);
        assert!(m2.cycles == 20_000);
    }
}
