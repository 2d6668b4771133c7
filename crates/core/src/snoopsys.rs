//! The full broadcast-snooping system of Section 3.2: 16 processors with
//! caches snooping a totally ordered address network, per-node home memory
//! controllers, a point-to-point data network and SafetyNet.
//!
//! The machine has **two fabrics** (Table 2): the totally ordered broadcast
//! **address network** ([`specsim_net::OrderedBus`]), which orders coherence
//! requests and is the protocol's logical time base, and a separate
//! point-to-point **data network** — a full [`specsim_net::Network`] torus
//! instance carrying owner→requestor and memory→requestor block transfers as
//! routed, size-accounted packets. The data torus is configured through
//! [`SnoopSystemConfig::data_net`] (link bandwidth, torus dims, routing
//! policy), which opens the snooping side of the paper's bandwidth axis
//! (Fig. 5 evaluates 400 MB/s and 3.2 GB/s links); the bus keeps total order
//! for addresses only — the data network is unordered and may be adaptive.
//!
//! The per-cycle machinery is the shared [`SystemEngine`]; this module
//! contributes the snooping [`ProtocolNode`] implementation.

use specsim_base::{
    BlockAddr, Cycle, CycleDelta, DetRng, FaultConfig, FaultKind, LinkBandwidth,
    MemorySystemConfig, NodeId, ProtocolVariant, RoutingPolicy,
};
use specsim_coherence::snoop::msg::SnoopDataOut;
use specsim_coherence::snoop::{
    SnoopAccessOutcome, SnoopCacheController, SnoopDataMsg, SnoopMemoryController, SnoopRequest,
};
use specsim_coherence::types::{CpuRequest, MisSpecKind, ProtocolError};
use std::sync::Arc;

use specsim_net::{NetConfig, Network, OrderedBus, VirtualNetwork};
use specsim_safetynet::SafetyNet;
use specsim_workloads::{Processor, TrafficConfig, WorkloadGenerator, WorkloadKind, ZipfTable};

use crate::config::ForwardProgressConfig;
use crate::engine::{
    EngineAccess, EngineCtx, ForwardProgressMode, ProtocolNode, StagedOutbox, SystemEngine,
};
use crate::metrics::{DataClass, RunMetrics, ALL_DATA_CLASSES};

/// The traffic class of a data-network message (owner transfer vs.
/// writeback), for per-class fabric statistics.
fn data_class_of(msg: &SnoopDataMsg) -> DataClass {
    match msg {
        SnoopDataMsg::Data { .. } => DataClass::OwnerTransfer,
        SnoopDataMsg::WbData { .. } => DataClass::Writeback,
    }
}

/// The virtual-network tag a data class travels under. The data torus is
/// unordered and (by default) unbuffered per class, so the tag never changes
/// scheduling — it exists so the fabric's per-virtual-network statistics
/// separate owner transfers from writebacks (and so a bounded/pooled data
/// torus accounts the classes separately).
fn data_vnet_of(class: DataClass) -> VirtualNetwork {
    match class {
        DataClass::OwnerTransfer => VirtualNetwork::Response,
        DataClass::Writeback => VirtualNetwork::Request,
    }
}

/// Snoops each node consumes from the address network per cycle.
const SNOOP_BUDGET: usize = 2;
/// Data-network messages each node ingests per cycle.
const DATA_INGEST_BUDGET: usize = 4;
/// Messages a controller may inject per cycle.
const DRAIN_BUDGET: usize = 4;

/// Configuration of a snooping-system run.
#[derive(Debug, Clone)]
pub struct SnoopSystemConfig {
    /// Memory-system parameters (Table 2 defaults).
    pub memory: MemorySystemConfig,
    /// Full (handles the corner case) or Speculative (detects it and
    /// recovers).
    pub protocol: ProtocolVariant,
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Top-level seed.
    pub seed: u64,
    /// Cycles between consecutive address-network grants (bus bandwidth).
    pub bus_arbitration_interval: CycleDelta,
    /// Cycles from a grant to every node observing the request.
    pub bus_broadcast_latency: CycleDelta,
    /// The point-to-point data-network fabric: a torus instance whose link
    /// bandwidth, routing policy and buffering are the snooping system's
    /// bandwidth-experiment knobs. `num_nodes` and `torus_dims` are always
    /// taken from [`Self::memory`] (see [`Self::data_net_config`]); the
    /// default is a worst-case-buffered static torus at the memory system's
    /// link bandwidth.
    pub data_net: NetConfig,
    /// Forward-progress measures (slow-start) after recoveries.
    pub forward_progress: ForwardProgressConfig,
    /// If set, inject a recovery every this many cycles (Figure 4 stress
    /// test on the snooping system).
    pub inject_recovery_every: Option<CycleDelta>,
    /// Perturbation magnitude for data-response latencies (Section 5.2
    /// methodology).
    pub perturbation_cycles: u64,
    /// Production-traffic shaping applied to every node's generator
    /// (Zipfian hot blocks and/or bursty injection). The unshaped default
    /// is bit-identical to the historical generators.
    pub traffic: TrafficConfig,
    /// Optional windowed telemetry sampling and speculation-lifecycle event
    /// tracing. Disabled by default; purely observational — the simulated
    /// schedule is byte-identical with it on or off.
    pub telemetry: specsim_base::TelemetryConfig,
    /// Transient-fault injection schedule for chaos campaigns, applied to
    /// the point-to-point **data torus** only (the ordered address bus stays
    /// ideal — it is the protocol's logical time base). Disabled by default;
    /// a [`FaultConfig::Random`] is lowered from [`Self::seed`] so the same
    /// configuration always replays bit-identically.
    pub fault_config: FaultConfig,
    /// Threads applied to the run's parallel exchange phase. The snooping
    /// machine's address bus is totally ordered and stays serial by design
    /// (no parallel *tick*), but its point-to-point data torus forwards in
    /// parallel shards exactly like the directory torus when this is above
    /// `1`. The schedule digest stays byte-identical at any thread count;
    /// the `SPECSIM_WORKERS` environment variable overrides this field at
    /// engine construction unless [`Self::worker_threads_pinned`] is set.
    pub worker_threads: usize,
    /// When set, [`Self::worker_threads`] is authoritative and the
    /// `SPECSIM_WORKERS` environment override is ignored (timing rows and
    /// serial-vs-parallel digest comparisons pin their kernel).
    pub worker_threads_pinned: bool,
}

impl SnoopSystemConfig {
    /// A default snooping system running `workload` with the given protocol
    /// variant.
    #[must_use]
    pub fn new(workload: WorkloadKind, protocol: ProtocolVariant, seed: u64) -> Self {
        let memory = MemorySystemConfig::default();
        let data_net = NetConfig::full_buffering(
            memory.num_nodes,
            memory.link_bandwidth,
            RoutingPolicy::Static,
        );
        Self {
            memory,
            protocol,
            workload,
            seed,
            bus_arbitration_interval: 8,
            bus_broadcast_latency: 64,
            data_net,
            forward_progress: ForwardProgressConfig::default(),
            inject_recovery_every: None,
            perturbation_cycles: 4,
            traffic: TrafficConfig::default(),
            telemetry: specsim_base::TelemetryConfig::default(),
            fault_config: FaultConfig::Disabled,
            worker_threads: 1,
            worker_threads_pinned: false,
        }
    }

    /// Returns a copy with a different worker-thread count for the parallel
    /// exchange phase (`1` = the serial reference kernel).
    #[must_use]
    pub fn with_workers(&self, worker_threads: usize) -> Self {
        let mut c = self.clone();
        c.worker_threads = worker_threads.max(1);
        c
    }

    /// Returns a copy with the worker count both set and **pinned**: the
    /// `SPECSIM_WORKERS` environment override no longer applies. Use for
    /// runs whose identity depends on which kernel executed them — timing
    /// rows, serial-vs-parallel digest comparisons.
    #[must_use]
    pub fn with_workers_pinned(&self, worker_threads: usize) -> Self {
        let mut c = self.with_workers(worker_threads);
        c.worker_threads_pinned = true;
        c
    }

    /// The worker-thread count a run should actually use: the
    /// `SPECSIM_WORKERS` environment variable when set to a positive
    /// integer, [`Self::worker_threads`] otherwise (a pinned config is
    /// exempt from the override) — the same resolution rule as
    /// [`crate::config::SystemConfig::effective_worker_threads`].
    #[must_use]
    pub fn effective_worker_threads(&self) -> usize {
        if self.worker_threads_pinned {
            return self.worker_threads.max(1);
        }
        std::env::var("SPECSIM_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(self.worker_threads)
            .max(1)
    }

    /// Returns a copy whose data network runs at `bandwidth` (the snooping
    /// half of the paper's 400 MB/s → 3.2 GB/s link-bandwidth axis).
    #[must_use]
    pub fn with_data_bandwidth(&self, bandwidth: LinkBandwidth) -> Self {
        let mut c = self.clone();
        c.data_net.link_bandwidth = bandwidth;
        c
    }

    /// The data-network configuration actually instantiated: a copy of
    /// [`Self::data_net`] with the machine geometry (`num_nodes`,
    /// `torus_dims`) forced to match [`Self::memory`], so the two can never
    /// disagree about the machine size.
    #[must_use]
    pub fn data_net_config(&self) -> NetConfig {
        let mut net = self.data_net.clone();
        net.num_nodes = self.memory.num_nodes;
        net.torus_dims = self.memory.torus_dims;
        net
    }

    /// Returns a copy whose data torus runs the Section 4 shared-pool
    /// speculation: adaptive routing, individual buffers unbounded, each
    /// node bounded by one pool of `total_slots` slots shared by owner
    /// transfers and writebacks. Buffer-dependency deadlock becomes
    /// possible; detection (progress watchdog + transaction timeout) and
    /// reserved-slot recovery are already wired into the snooping
    /// [`ProtocolNode`], so this knob is all a sweep needs to turn.
    #[must_use]
    pub fn with_pooled_data_torus(&self, total_slots: usize) -> Self {
        let mut c = self.clone();
        c.data_net.routing = RoutingPolicy::Adaptive;
        c.data_net.buffer_policy = specsim_base::BufferPolicy::SharedPool { total_slots };
        // As in the directory machine's pooled fabric: the watchdog must be
        // able to confirm a wedged network before the transaction timeout
        // fires, so it gets at most one checkpoint interval of silence.
        c.data_net.stall_threshold = c
            .data_net
            .stall_threshold
            .min(c.memory.safetynet.checkpoint_interval_cycles.max(1));
        c
    }

    /// Sanity-checks the configuration: memory-system geometry, traffic
    /// shaping, and the data torus's buffer policy. Returns human-readable
    /// problems (empty when consistent), mirroring
    /// [`crate::config::SystemConfig::validate`].
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.memory.validate();
        if let Err(e) = self.traffic.validate() {
            problems.push(e);
        }
        if let specsim_base::BufferPolicy::SharedPool { total_slots } = self.data_net.buffer_policy
        {
            if total_slots == 0 {
                problems.push("shared-pool data torus needs at least one slot".to_string());
            }
            let r = self.forward_progress.reserved_slots_per_network;
            if self.forward_progress.reserved_slot_cycles > 0 && r > 0 && total_slots < 4 {
                problems.push(format!(
                    "a {total_slots}-slot data-torus pool cannot hold one reserved slot \
                     per virtual network; the post-deadlock reservation would be inert"
                ));
            }
        }
        problems
    }
}

/// Architectural state restored by SafetyNet recovery.
#[derive(Debug, Clone)]
pub(crate) struct ArchState {
    bus: OrderedBus<SnoopRequest>,
    data_net: Network<SnoopDataMsg>,
    caches: Vec<SnoopCacheController>,
    memories: Vec<SnoopMemoryController>,
    procs: Vec<Processor>,
    /// Memory-controller data responses waiting out their DRAM access
    /// latency before entering the data network.
    mem_outboxes: Vec<StagedOutbox<SnoopDataOut>>,
}

/// The snooping-protocol half of the machine: the ordered address network,
/// the data torus, and the cache/home-memory controllers.
#[derive(Debug)]
pub(crate) struct SnoopProtocol {
    cfg: SnoopSystemConfig,
    requests_at_last_checkpoint: u64,
}

impl SnoopProtocol {
    fn pump_controllers(
        &mut self,
        arch: &mut ArchState,
        now: Cycle,
        ctx: &mut EngineCtx<'_, ArchState>,
    ) {
        let ArchState {
            bus,
            data_net,
            caches,
            memories,
            mem_outboxes,
            ..
        } = arch;
        // Worklist walk: visit only nodes that may hold controller output or
        // staged DRAM responses, in the same ascending order as the dense
        // scan this replaces (idle visits are no-ops, so the schedule is
        // unchanged).
        let mut cursor = 0;
        while let Some(i) = ctx.next_outbox_at_or_after(cursor) {
            cursor = i + 1;
            let node = NodeId::from(i);
            // Idle-outbox retire: no cache or memory output queued and no
            // data response waiting out its DRAM latency — the exact
            // dense-scan skip condition, so the node leaves the worklist
            // until the tick phase or a delivery re-arms it.
            if caches[i].outgoing_len() == 0
                && memories[i].outgoing_len() == 0
                && mem_outboxes[i].is_empty()
            {
                ctx.retire_outbox(i);
                continue;
            }
            // Address-network requests.
            for _ in 0..DRAIN_BUDGET {
                match caches[i].pop_bus_request() {
                    Some(req) => {
                        bus.request(node, req);
                        ctx.metrics().bus_requests += 1;
                    }
                    None => break,
                }
            }
            // Data-network messages from caches (responses, writeback data).
            // Back-pressure is checked *before* popping — against the head
            // message's own traffic class, so e.g. writeback back-pressure
            // on a bounded/pooled fabric never blocks an injectable owner
            // transfer (the message stays queued in the controller, never
            // dropped; the default worst-case buffering never rejects).
            for _ in 0..DRAIN_BUDGET {
                let Some(vnet) = caches[i]
                    .peek_data_message()
                    .map(|out| data_vnet_of(data_class_of(&out.msg)))
                else {
                    break;
                };
                if !data_net.can_inject(node, vnet) {
                    break;
                }
                let out = caches[i].pop_data_message().expect("peeked message");
                data_net
                    .inject(now, node, out.dst, vnet, out.msg.size(), out.msg)
                    .expect("injection checked");
            }
            // Data-network messages from memory controllers wait out the DRAM
            // access latency (plus the small pseudo-random perturbation of the
            // Section 5.2 methodology) in a staging outbox before injection.
            for _ in 0..DRAIN_BUDGET {
                let Some(out) = memories[i].pop_data_message() else {
                    break;
                };
                let delay = self.cfg.memory.dram_access_cycles
                    + ctx.perturbation(self.cfg.perturbation_cycles);
                mem_outboxes[i].stage(now + delay, out);
            }
            mem_outboxes[i].pump(now, |out| {
                let vnet = data_vnet_of(data_class_of(&out.msg));
                if !data_net.can_inject(node, vnet) {
                    return false;
                }
                data_net
                    .inject(now, node, out.dst, vnet, out.msg.size(), out.msg)
                    .expect("injection checked");
                true
            });
        }
    }

    fn deliver_snoops(
        &mut self,
        arch: &mut ArchState,
        now: Cycle,
        ctx: &mut EngineCtx<'_, ArchState>,
    ) {
        for i in 0..arch.procs.len() {
            let node = NodeId::from(i);
            // Idle-inbox skip: no snoop broadcast is waiting at this node.
            if arch.bus.snoop_len(node) == 0 {
                continue;
            }
            // Observing a snoop can enqueue controller output (an owner or
            // home-memory data response) and can complete the node's own
            // ordered request: arm the exchange worklists.
            ctx.note_exchange_activity(i);
            for _ in 0..SNOOP_BUDGET {
                let Some(delivery) = arch.bus.pop_snoop(node) else {
                    break;
                };
                // Both the cache and the home memory controller observe the
                // same, totally ordered, request stream.
                arch.memories[i].observe_snoop(now, delivery.src, delivery.payload);
                match arch.caches[i].observe_snoop(now, delivery.src, delivery.payload) {
                    Ok(Some(misspec)) => ctx.note_misspeculation(misspec),
                    Ok(None) => {}
                    Err(e) => ctx.note_error(e),
                }
            }
        }
    }

    fn deliver_data(
        &mut self,
        arch: &mut ArchState,
        now: Cycle,
        ctx: &mut EngineCtx<'_, ArchState>,
    ) {
        // Worklist walk: same ascending visit order as a dense scan with an
        // idle-inbox skip, but proportional to nodes with pending data.
        let mut cursor = 0;
        while let Some(i) = arch.data_net.next_ejectable_at_or_after(cursor) {
            cursor = i + 1;
            let node = NodeId::from(i);
            for _ in 0..DATA_INGEST_BUDGET {
                let Some(packet) = arch.data_net.eject_any(node) else {
                    break;
                };
                // Checksum model (Section 2): a detectably-damaged data
                // message is caught here, reported as fault evidence, and
                // discarded; the starved transaction then times out and the
                // evidence classifies the recovery.
                if packet.taint.is_detectable() {
                    let kind = match packet.taint {
                        specsim_net::PacketTaint::Duplicate => FaultKind::Duplicate,
                        _ => FaultKind::Corrupt,
                    };
                    ctx.report_fault_evidence(now, node, packet.payload.addr(), kind);
                    continue;
                }
                let result = match packet.payload {
                    SnoopDataMsg::WbData { .. } => {
                        arch.memories[i].handle_data(now, packet.payload)
                    }
                    SnoopDataMsg::Data { .. } => arch.caches[i].handle_data(now, packet.payload),
                };
                if let Err(e) = result {
                    ctx.note_error(e);
                }
                // A data arrival can complete the node's outstanding miss
                // and can enqueue controller output: arm the worklists.
                ctx.note_exchange_activity(i);
            }
        }
    }
}

impl ProtocolNode for SnoopProtocol {
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
            SnoopAccessOutcome::L1Hit { latency, .. }
            | SnoopAccessOutcome::L2Hit { latency, .. } => EngineAccess::Hit { latency },
            SnoopAccessOutcome::MissIssued => EngineAccess::MissIssued,
            SnoopAccessOutcome::Stall => EngineAccess::Stall,
        }
    }

    const SUPPORTS_PARALLEL_EXCHANGE: bool = true;

    fn exchange(&mut self, arch: &mut ArchState, now: Cycle, ctx: &mut EngineCtx<'_, ArchState>) {
        self.pump_controllers(arch, now, ctx);
        arch.bus.tick(now);
        self.deliver_snoops(arch, now, ctx);
        let pool = ctx.worker_pool();
        let faults = ctx.faults();
        arch.data_net.tick_faulted_with_pool(now, faults, pool);
        // A shared-pool data torus can wedge like any Section 4 fabric.
        crate::engine::report_pooled_fabric_evidence(&arch.data_net, now, ctx);
        self.deliver_data(arch, now, ctx);
        let ArchState { procs, caches, .. } = arch;
        ctx.deliver_completions(now, procs, |i| {
            caches[i]
                .take_completed()
                .map(|done| (done.addr, done.access))
        });
    }

    fn drain_write_log(arch: &mut ArchState, i: usize) -> usize {
        arch.memories[i].take_write_log().len()
    }

    fn checkpoint_due(
        &self,
        arch: &ArchState,
        _safetynet: &SafetyNet<ArchState>,
        _now: Cycle,
    ) -> bool {
        // The snooping system's checkpoints use the totally ordered address
        // network as their logical time base: one checkpoint every
        // `checkpoint_interval_requests` ordered requests (Table 2).
        arch.bus
            .granted()
            .saturating_sub(self.requests_at_last_checkpoint)
            >= self.cfg.memory.safetynet.checkpoint_interval_requests
    }

    fn on_checkpoint_taken(&mut self, arch: &ArchState) {
        self.requests_at_last_checkpoint = arch.bus.granted();
    }

    fn timeout_addr(_arch: &ArchState, _i: usize) -> BlockAddr {
        BlockAddr(0)
    }

    fn transaction_outstanding_since(arch: &ArchState, i: usize) -> Option<Cycle> {
        arch.caches[i].outstanding_since()
    }

    fn after_recovery_restore(&mut self, rolled_back: &ArchState, arch: &mut ArchState) {
        arch.data_net.carry_forward_probe(&rolled_back.data_net);
        self.requests_at_last_checkpoint = arch.bus.granted();
    }

    fn misspec_forward_progress(
        &mut self,
        arch: &mut ArchState,
        kind: MisSpecKind,
        resume_at: Cycle,
        fp: &ForwardProgressConfig,
    ) -> ForwardProgressMode {
        // A buffer deadlock on a shared-pool data torus re-executes with
        // per-network reserved slots (Section 4's conservative recipe,
        // falling back to slow-start on unpooled fabrics).
        if kind == MisSpecKind::BufferDeadlock {
            return crate::engine::buffer_deadlock_forward_progress(
                &mut arch.data_net,
                resume_at,
                fp,
            );
        }
        // Section 3.2 / Section 4: restrict outstanding transactions after
        // recovery; the corner case (and deadlock) need at least two
        // concurrent transactions to recur.
        if fp.slow_start_cycles > 0 {
            ForwardProgressMode::SlowStart {
                until: resume_at + fp.slow_start_cycles,
                max_outstanding: fp.slow_start_max_outstanding,
            }
        } else {
            ForwardProgressMode::Normal
        }
    }

    fn on_adaptive_window_expired(&mut self, _arch: &mut ArchState) {
        // The snooping design never disables adaptive routing (its address
        // order comes from the bus, not the torus).
    }

    fn on_reserved_window_expired(&mut self, arch: &mut ArchState) {
        arch.data_net.set_pool_reservation(0);
    }

    fn normal_outstanding_limit(&self) -> usize {
        usize::MAX
    }

    fn collect_protocol_metrics(&self, arch: &ArchState, now: Cycle, m: &mut RunMetrics) {
        m.messages_delivered = arch.data_net.stats().delivered.get();
        m.bus_requests = arch.bus.granted();
        // Per-fabric stats of the second interconnect: the data torus.
        m.data_messages_delivered = arch.data_net.stats().delivered.get();
        m.data_mean_latency_cycles = arch.data_net.stats().mean_latency();
        m.data_link_utilization = arch.data_net.mean_link_utilization(now);
        for class in ALL_DATA_CLASSES {
            let vnet = data_vnet_of(class);
            m.data_delivered_per_class[class.index()] =
                arch.data_net.stats().delivered_per_vnet[vnet.index()].get();
            m.data_latency_per_class[class.index()] = arch.data_net.stats().mean_latency_of(vnet);
        }
        m.vnet_latency = arch.data_net.stats().latency_hist_per_vnet.clone();
    }

    fn idle_horizon(arch: &ArchState, now: Cycle) -> Cycle {
        let next = now + 1;
        let mut due = arch.data_net.next_due(now).unwrap_or(Cycle::MAX);
        if due <= next {
            return next;
        }
        due = due.min(arch.bus.next_due(now).unwrap_or(Cycle::MAX));
        if due <= next {
            return next;
        }
        for i in 0..arch.procs.len() {
            if arch.caches[i].outgoing_len() > 0
                || arch.memories[i].outgoing_len() > 0
                || arch.caches[i].has_completed()
            {
                return next;
            }
            if let Some(ready) = arch.mem_outboxes[i].next_ready() {
                due = due.min(ready.max(next));
            }
        }
        due
    }

    fn skip_idle_cycles(arch: &mut ArchState, last: Cycle, cycles: u64) {
        arch.data_net.skip_idle_ticks(last, cycles);
    }

    fn fabric_counters(arch: &ArchState) -> specsim_base::FabricCounters {
        specsim_base::FabricCounters {
            link_busy_cycles: arch.data_net.link_busy_cycles(),
            num_links: arch.data_net.stats().num_links as u64,
            delivered: arch.data_net.stats().delivered.get(),
        }
    }
}

/// The assembled broadcast-snooping multiprocessor.
#[derive(Debug)]
pub struct SnoopingSystem {
    pub(crate) engine: SystemEngine<SnoopProtocol>,
}

impl SnoopingSystem {
    /// Builds the system described by `cfg`.
    #[must_use]
    pub fn new(cfg: SnoopSystemConfig) -> Self {
        let n = cfg.memory.num_nodes;
        let mut seed_rng = DetRng::new(cfg.seed ^ 0x534e_4f4f_5053); // "SNOOPS"
        let zipf_table = cfg.traffic.zipf.map(|z| Arc::new(ZipfTable::new(z)));
        let procs = (0..n)
            .map(|i| {
                let node = NodeId::from(i);
                let gen = WorkloadGenerator::shaped(
                    cfg.workload,
                    node,
                    cfg.seed,
                    cfg.traffic,
                    zipf_table.clone(),
                );
                Processor::new(node, gen, 0).with_max_outstanding(cfg.memory.mshr_entries)
            })
            .collect();
        let caches = (0..n)
            .map(|i| SnoopCacheController::new(NodeId::from(i), cfg.protocol, &cfg.memory))
            .collect();
        let memories = (0..n)
            .map(|i| SnoopMemoryController::new(NodeId::from(i), n))
            .collect();
        let bus = OrderedBus::new(n, cfg.bus_arbitration_interval, cfg.bus_broadcast_latency);
        let data_net = Network::new(cfg.data_net_config());
        let arch = ArchState {
            bus,
            data_net,
            caches,
            memories,
            procs,
            mem_outboxes: (0..n).map(|_| StagedOutbox::default()).collect(),
        };
        let perturb_rng = seed_rng.fork();
        let fault_plan = cfg.fault_config.lower(cfg.seed, n);
        let mut engine = SystemEngine::new(
            SnoopProtocol {
                cfg: cfg.clone(),
                requests_at_last_checkpoint: 0,
            },
            arch,
            cfg.memory.safetynet.clone(),
            cfg.forward_progress,
            cfg.inject_recovery_every,
            perturb_rng,
            fault_plan,
            // The address bus is totally ordered and never ticks in
            // parallel; above 1 the worker pool drives the data torus's
            // parallel forward phase (byte-identical schedule).
            cfg.effective_worker_threads(),
        );
        engine.set_telemetry(cfg.telemetry);
        Self { engine }
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &SnoopSystemConfig {
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

    /// The data torus's forward-phase work counters (switch visits, parallel
    /// shard accounting) — observability for the parallel-exchange tests;
    /// never part of the schedule.
    #[must_use]
    pub fn data_forward_probe(&self) -> specsim_net::ForwardProbe {
        self.engine.arch().data_net.forward_probe()
    }

    /// The always-on engine-mode timeline (availability observability).
    #[must_use]
    pub fn mode_timeline(&self) -> &specsim_base::ModeTimeline {
        self.engine.mode_timeline()
    }

    /// The windowed telemetry samples as JSONL, when
    /// [`SnoopSystemConfig::telemetry`] enabled the sampler.
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

    /// Runs the system for `cycles` cycles and returns the metrics so far.
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

    /// Checks the single-owner invariant over the stable cache state.
    pub fn verify_coherence(&self) -> Result<(), String> {
        use specsim_coherence::snoop::cache::SnoopCacheState;
        use std::collections::HashMap;
        let mut owners: HashMap<u64, NodeId> = HashMap::new();
        for cache in &self.engine.arch().caches {
            for (addr, state, _) in cache.resident_lines() {
                if matches!(state, SnoopCacheState::M | SnoopCacheState::O) {
                    if let Some(other) = owners.insert(addr.0, cache.node()) {
                        return Err(format!(
                            "block {addr} has two owners: {other} and {}",
                            cache.node()
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

    fn small_config(protocol: ProtocolVariant) -> SnoopSystemConfig {
        let mut cfg = SnoopSystemConfig::new(WorkloadKind::Apache, protocol, 11);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_requests = 200;
        cfg
    }

    #[test]
    fn full_snooping_system_makes_progress_and_stays_coherent() {
        let mut sys = SnoopingSystem::new(small_config(ProtocolVariant::Full));
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000, "only {} ops", m.ops_completed);
        assert!(m.bus_requests > 50);
        assert_eq!(m.recoveries, 0);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn speculative_snooping_system_runs_the_commercial_workloads_without_recovery() {
        // Section 5.3: "all of them ran to completion without needing to
        // recover even once from reaching the edge case".
        let mut sys = SnoopingSystem::new(small_config(ProtocolVariant::Speculative));
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000);
        assert_eq!(m.misspeculations_of(MisSpecKind::WritebackDoubleRace), 0);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn injected_recoveries_trigger_rollback_and_execution_continues() {
        let mut cfg = small_config(ProtocolVariant::Speculative);
        cfg.inject_recovery_every = Some(10_000);
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(35_000).expect("no protocol errors");
        assert!(m.injected_recoveries >= 2);
        assert!(m.ops_completed > 500);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn checkpoints_follow_the_request_count_time_base() {
        let mut sys = SnoopingSystem::new(small_config(ProtocolVariant::Full));
        let m = sys.run_for(30_000).expect("no protocol errors");
        // With a 200-request interval and >50 requests we expect at least a
        // handful of checkpoints.
        assert!(m.checkpoints >= 1, "checkpoints: {}", m.checkpoints);
        assert!(m.bus_requests >= 200 * m.checkpoints);
    }

    #[test]
    fn data_net_geometry_always_follows_the_memory_config() {
        let mut cfg = small_config(ProtocolVariant::Full);
        cfg.memory.num_nodes = 32;
        cfg.memory.torus_dims = Some((16, 2));
        // Even though `data_net` was built for the 16-node default, the
        // instantiated fabric follows the memory geometry.
        let net = cfg.data_net_config();
        assert_eq!(net.num_nodes, 32);
        assert_eq!(net.torus_dims, Some((16, 2)));
        let sys = SnoopingSystem::new(cfg);
        assert_eq!(sys.engine.arch().data_net.torus().dims(), (16, 2));
    }

    #[test]
    fn with_data_bandwidth_changes_only_the_data_fabric() {
        let cfg = small_config(ProtocolVariant::Full);
        let slow = cfg.with_data_bandwidth(LinkBandwidth::MB_400);
        assert_eq!(slow.data_net.link_bandwidth, LinkBandwidth::MB_400);
        assert_eq!(slow.memory.link_bandwidth, cfg.memory.link_bandwidth);
        assert_eq!(slow.bus_arbitration_interval, cfg.bus_arbitration_interval);
    }

    #[test]
    fn data_network_contention_raises_miss_latency_at_low_bandwidth() {
        // The heart of the bandwidth axis: a 72-byte data packet occupies a
        // 400 MB/s link for 720 cycles but a 3.2 GB/s link for only 90, so
        // misses served across the data torus must take visibly longer on
        // the slow machine, and throughput must not improve.
        let run = |bw: LinkBandwidth| {
            let mut sys =
                SnoopingSystem::new(small_config(ProtocolVariant::Full).with_data_bandwidth(bw));
            sys.run_for(30_000).expect("no protocol errors")
        };
        let slow = run(LinkBandwidth::MB_400);
        let fast = run(LinkBandwidth::GB_3_2);
        assert!(
            slow.mean_miss_latency() > fast.mean_miss_latency() * 1.2,
            "400 MB/s miss latency {:.0} should clearly exceed 3.2 GB/s {:.0}",
            slow.mean_miss_latency(),
            fast.mean_miss_latency()
        );
        assert!(slow.throughput() <= fast.throughput());
        assert!(slow.data_mean_latency_cycles > fast.data_mean_latency_cycles);
    }

    #[test]
    fn adaptive_data_torus_runs_coherently() {
        // The data network is unordered, so adaptive routing is legal on it
        // (only the address bus carries the total order).
        let mut cfg = small_config(ProtocolVariant::Speculative);
        cfg.data_net.routing = RoutingPolicy::Adaptive;
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000);
        assert!(m.data_messages_delivered > 0);
        sys.verify_coherence().unwrap();
    }
}
