//! The shared per-cycle machinery of the two target machines.
//!
//! [`DirectorySystem`](crate::DirectorySystem) and
//! [`SnoopingSystem`](crate::SnoopingSystem) used to be two near-copies of
//! the same step loop. The common parts now live here, in a generic
//! [`SystemEngine`]:
//!
//! * **node stepping with idle-skip/wake-up cycles** — processors that are
//!   mid-think or blocked on a miss carry a wake-up cycle
//!   ([`Processor::ready_at`]) and are skipped in O(1), with the slow-start
//!   demand census computed lazily on the first cycle a processor actually
//!   presents a request;
//! * **message outbox plumbing over one-or-more fabrics** — the
//!   [`StagedOutbox`] staging queue holds controller outputs while they wait
//!   out their access latency, then injects them into whichever fabric the
//!   protocol chooses (the directory torus, or the snooping data torus);
//! * **checkpoint-interval bookkeeping** — the engine asks the protocol
//!   whether a checkpoint is due (the directory system uses the cycle count,
//!   the snooping system the totally ordered request count) and snapshots
//!   the architectural state into SafetyNet;
//! * **mis-speculation → SafetyNet recovery → forward-progress-mode
//!   orchestration** — detection capture, the transaction-timeout scan, the
//!   rollback itself, the post-recovery stall window, and the
//!   [`ForwardProgressMode`] lifecycle (entry chosen by the protocol, expiry
//!   handled here);
//! * **metrics accumulation** — the protocol-independent half of
//!   [`RunMetrics`] (processor stats, SafetyNet stats, recovery costs);
//! * **quiescence fast-forward** — before each cycle the engine computes
//!   the *idle horizon*, the earliest cycle at which anything can happen
//!   (a processor's think time ending, a link arrival, a staged message
//!   ripening, a checkpoint, a timeout scan, a fault, a mode expiry, a
//!   telemetry window). Every cycle before it only accounts itself to the
//!   current mode and turns the fabrics' round-robin pointers, so the
//!   engine settles those cycles in bulk instead of stepping them.
//!   [`SystemEngine::run_for`] jumps straight to the horizon;
//!   [`SystemEngine::step`] settles a one-cycle skip through the same code
//!   path. The horizon is recomputed from simulated state on every decision
//!   (never cached), so a `step()` loop, one `run_for` and any chunking of
//!   it, at any worker count, take identical decisions and produce identical
//!   state — `tests/fast_forward.rs` pins this.
//!
//! Each protocol reduces to a [`ProtocolNode`] implementation: the
//! architectural state it checkpoints, the per-node controller hooks the
//! engine drives, and one `exchange` method that moves messages across its
//! fabrics in protocol order. The extraction is a pure refactor on the
//! directory path: `tests/kernel_equivalence.rs` pins its schedule
//! byte-for-byte.

use std::collections::VecDeque;

use specsim_base::{
    ActiveSet, BlockAddr, Cycle, CycleDelta, DetRng, EngineMode, FabricCounters, FaultDirector,
    FaultKind, FaultPlan, ModeTimeline, NodeId, SafetyNetConfig, SpecEvent, TelemetryConfig,
    TelemetryRecorder, WindowCounters, WorkerPool,
};
use specsim_coherence::types::{CpuAccess, CpuRequest, MisSpecKind, MisSpeculation, ProtocolError};
use specsim_net::Network;
use specsim_safetynet::{LogOutcome, SafetyNet};
use specsim_workloads::Processor;

use crate::config::ForwardProgressConfig;
use crate::metrics::RunMetrics;
use crate::wake::WakeCalendar;

/// The forward-progress mode a system is currently operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardProgressMode {
    /// Normal, fully speculative operation.
    Normal,
    /// Adaptive routing disabled until the given cycle (directory design).
    AdaptiveRoutingDisabled {
        /// Cycle at which adaptive routing is re-enabled.
        until: CycleDelta,
    },
    /// Slow-start: outstanding transactions restricted until the given cycle
    /// (snooping and interconnect designs).
    SlowStart {
        /// Cycle at which normal concurrency resumes.
        until: CycleDelta,
        /// Maximum transactions outstanding while in slow-start.
        max_outstanding: usize,
    },
    /// Conservative re-execution after a buffer-deadlock recovery
    /// (Section 4, shared-pool interconnect): part of each node's shared
    /// slot pool is partitioned back into per-virtual-network reservations
    /// until the given cycle, so the buffer-dependency cycle that deadlocked
    /// cannot immediately re-form.
    ReservedSlots {
        /// Cycle at which the pool returns to fully shared slots.
        until: CycleDelta,
    },
}

/// Measured characterization of one design, filled in by short simulations
/// and printed by the Table 1 bench alongside the qualitative rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasuredCharacterization {
    /// Events that could have mis-speculated (e.g. messages on the ordered
    /// virtual network, writebacks, transactions).
    pub exposure_events: u64,
    /// Mis-speculations actually detected.
    pub misspeculations: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Mean cost of a recovery in cycles (lost work + recovery latency).
    pub mean_recovery_cost_cycles: f64,
}

impl MeasuredCharacterization {
    /// Mis-speculations per exposure event (0 when there was no exposure).
    #[must_use]
    pub fn misspeculation_rate(&self) -> f64 {
        if self.exposure_events == 0 {
            0.0
        } else {
            self.misspeculations as f64 / self.exposure_events as f64
        }
    }
}

/// Why a recovery was performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryCause {
    MisSpeculation(MisSpecKind),
    Injected,
}

/// The outcome of presenting a CPU request to a node's cache hierarchy,
/// reduced to what the engine needs to advance the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineAccess {
    /// The access hit in a cache and completes after `latency` cycles.
    Hit {
        /// Hit latency charged to the processor.
        latency: CycleDelta,
    },
    /// The access missed; a coherence transaction was started.
    MissIssued,
    /// The controller could not accept the request this cycle.
    Stall,
}

/// A staging queue for controller outputs waiting out an access latency
/// (cache tag/data array, DRAM) before entering a fabric. Messages are
/// released in FIFO order once ripe, which preserves per-source protocol
/// order; the fabric may still reorder in flight, which is the point of
/// Section 3.1.
#[derive(Debug, Clone)]
pub struct StagedOutbox<M> {
    queue: VecDeque<(Cycle, M)>,
}

impl<M> Default for StagedOutbox<M> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
        }
    }
}

impl<M: Copy> StagedOutbox<M> {
    /// Stages `msg` to become injectable at cycle `ready`.
    pub fn stage(&mut self, ready: Cycle, msg: M) {
        self.queue.push_back((ready, msg));
    }

    /// True when nothing is staged (idle-outbox skip condition).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of staged messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The cycle at which the front message ripens (the next cycle a pump
    /// can release anything), or `None` when nothing is staged.
    #[must_use]
    pub fn next_ready(&self) -> Option<Cycle> {
        self.queue.front().map(|&(ready, _)| ready)
    }

    /// Hands every ripe message at the queue's front to `send` in FIFO
    /// order. `send` returns `false` when the fabric has no space (the
    /// message stays staged and pumping stops, preserving order).
    pub fn pump(&mut self, now: Cycle, mut send: impl FnMut(M) -> bool) {
        while let Some(&(ready, msg)) = self.queue.front() {
            if ready > now || !send(msg) {
                break;
            }
            self.queue.pop_front();
        }
    }
}

/// Counters describing how much per-cycle work the engine actually did —
/// the observable face of the idle-skip/wake-up machinery, used by the
/// invariant tests shared by both protocols.
///
/// Cycles the engine fast-forwards over ([`EngineProbe::fast_forward_cycles`])
/// add no polls, skips or visits to any counter: the engine visited nothing
/// on them. The counters therefore measure work actually performed, not the
/// work a cycle-by-cycle scan would have performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProbe {
    /// Processor polls performed (the processor was awake and was asked for
    /// a request).
    pub processor_polls: u64,
    /// Processor visits skipped because the node's wake-up cycle had not
    /// arrived (thinking or blocked on an outstanding miss).
    pub processor_skips: u64,
    /// Exchange phase: nodes visited by the completion-delivery worklist
    /// (each visit drains that node's completed accesses). The dense
    /// equivalent is one visit per node per cycle; a sparse run stays
    /// proportional to nodes that actually ingested messages.
    pub exchange_completion_visits: u64,
    /// Exchange phase: nodes visited by the outbox-pump worklist (each visit
    /// either pumps controller output toward a fabric or retires the node as
    /// idle). The dense equivalent is one visit per node per cycle.
    pub exchange_outbox_visits: u64,
    /// Cycles settled in bulk by the quiescence fast-forward instead of
    /// being stepped (see the module docs).
    pub fast_forward_cycles: u64,
}

/// Active-node worklists for the exchange phase: the engine-side twin of the
/// tick phase's wake calendar. A node enters a list when something happened
/// that could give it exchange work — its processor issued a request, a
/// fabric delivered a message to one of its controllers, or a recovery
/// restored it — and leaves when a visit finds it drained. Idle nodes cost
/// zero in the per-cycle exchange scans, exactly as they do in the tick
/// phase; visiting a node with nothing to do is a no-op, so the worklists
/// only ever hold a superset of the busy nodes and the schedule stays
/// byte-identical to the dense scans they replace.
#[derive(Debug)]
pub(crate) struct ExchangeIndex {
    /// Nodes whose controllers ingested a message (or were restored by a
    /// recovery) and may therefore hold completed processor accesses.
    completions: ActiveSet,
    /// Nodes that may have controller output queued or messages staged in an
    /// outbox waiting out a latency timer.
    outbox: ActiveSet,
}

impl ExchangeIndex {
    /// All `n` nodes start on both lists; the first visits retire the idle
    /// ones.
    fn new_full(n: usize) -> Self {
        let mut completions = ActiveSet::new(n);
        let mut outbox = ActiveSet::new(n);
        for i in 0..n {
            completions.insert(i);
            outbox.insert(i);
        }
        Self {
            completions,
            outbox,
        }
    }

    /// Re-arms both lists for every node (recovery restored the whole
    /// machine: any node may hold completions or pending output again).
    fn insert_all(&mut self) {
        for i in 0..self.completions.capacity() {
            self.completions.insert(i);
            self.outbox.insert(i);
        }
    }
}

/// The phase-split engine's wake-up surface handed to protocols through
/// [`EngineCtx`]: the wake calendar plus the parked-stalled set. `None` on
/// the serial reference kernel.
#[derive(Debug)]
pub(crate) struct WakeHooks<'a> {
    calendar: &'a mut WakeCalendar,
    /// Per-node cycle at which the node was parked with a stalled request
    /// (`Cycle::MAX` = not parked). See
    /// [`SystemEngine::tick_processors_indexed`].
    parked: &'a mut [Cycle],
}

/// The engine-side context handed to [`ProtocolNode::exchange`]: the shared
/// state a protocol's per-cycle message movement may touch.
#[derive(Debug)]
pub struct EngineCtx<'a, A> {
    safetynet: &'a mut SafetyNet<A>,
    pending_misspec: &'a mut Option<MisSpeculation>,
    protocol_error: &'a mut Option<ProtocolError>,
    perturb_rng: &'a mut DetRng,
    metrics: &'a mut RunMetrics,
    fabric_deadlocked: &'a mut bool,
    faults: Option<&'a mut FaultDirector>,
    /// The phase-split engine's wake calendar and parked set; completion
    /// delivery and cache ingest schedule processors here so the indexed
    /// tick phase visits them. `None` on the serial reference kernel.
    wake: Option<WakeHooks<'a>>,
    /// The exchange-phase worklists (always present — the serial kernel uses
    /// them too; they are a pure scan-cost optimization).
    exchange: &'a mut ExchangeIndex,
    /// The engine's work counters (exchange-visit accounting).
    probe: &'a mut EngineProbe,
    /// The phase split's worker pool, handed to protocols so their fabric
    /// tick can fan the forward phase out ([`Network::tick_faulted_with_pool`]
    /// — byte-identical schedule). `None` on the serial reference kernel.
    pool: Option<&'a WorkerPool>,
}

impl<'a, A: Clone> EngineCtx<'a, A> {
    /// Records a detected mis-speculation (the first one per cycle wins;
    /// recovery handles it at the end of the cycle).
    pub fn note_misspeculation(&mut self, ms: MisSpeculation) {
        self.pending_misspec.get_or_insert(ms);
    }

    /// Records a protocol error (a transition the fully designed protocol
    /// considers impossible); the step loop surfaces the first one.
    pub fn note_error(&mut self, e: ProtocolError) {
        self.protocol_error.get_or_insert(e);
    }

    /// Reports evidence, valid for the current cycle, that a fabric of this
    /// protocol is buffer-constrained or wedged (a shared-pool network with
    /// an exhausted slot pool, or whose progress watchdog tripped). The
    /// engine's transaction-timeout detector uses this to classify a
    /// coincident timeout as a [`MisSpecKind::BufferDeadlock`] — triggering
    /// the buffer-reservation forward-progress measure — instead of a plain
    /// congestion timeout. The report covers the current cycle only;
    /// protocols re-report each cycle the condition persists.
    pub fn report_fabric_deadlock(&mut self) {
        *self.fabric_deadlocked = true;
    }

    /// The run's fault director, when a fault plan is active. Protocols pass
    /// this into their fabric's
    /// [`tick_faulted`](specsim_net::Network::tick_faulted) so scheduled
    /// faults strike the network; `None` (no plan) keeps every fabric on the
    /// bit-identical fault-free path.
    pub fn faults(&mut self) -> Option<&mut FaultDirector> {
        self.faults.as_deref_mut()
    }

    /// Reports an injected transient fault caught red-handed at message
    /// ingest — the endpoint checksum model rejecting a
    /// [`FaultKind::Corrupt`] payload, or the sequence-number model rejecting
    /// a [`FaultKind::Duplicate`] copy. Classified as a
    /// [`MisSpecKind::TransientFault`] mis-speculation and recovered through
    /// the normal SafetyNet rollback (the tainted message itself must be
    /// discarded by the caller).
    pub fn report_fault_evidence(
        &mut self,
        at: Cycle,
        node: NodeId,
        addr: BlockAddr,
        kind: FaultKind,
    ) {
        self.note_misspeculation(MisSpeculation {
            kind: MisSpecKind::TransientFault { kind },
            node,
            addr,
            at,
        });
    }

    /// One pseudo-random perturbation draw below `magnitude` (Section 5.2
    /// methodology); `magnitude` is clamped to at least 1.
    pub fn perturbation(&mut self, magnitude: u64) -> u64 {
        self.perturb_rng.next_below(magnitude.max(1))
    }

    /// The run metrics, for protocol-specific counters incremented during
    /// the exchange (e.g. address-network requests).
    pub fn metrics(&mut self) -> &mut RunMetrics {
        self.metrics
    }

    /// The shared completion-delivery pass: wakes processors whose misses
    /// completed and accounts the SafetyNet log entry a completed store
    /// costs. `take_completed(i)` drains one of node `i`'s completed
    /// accesses at a time (a non-blocking node may complete several misses
    /// in one cycle), identified by block address so the processor retires
    /// the matching MSHR even when fills return out of order. After a
    /// recovery the restored cache controller may complete a transaction
    /// whose requesting instruction was rolled back (the processor
    /// re-executes from the register checkpoint); such completions update
    /// the cache but wake nobody.
    /// Visits only the nodes on the completions worklist, in the same
    /// ascending order as the dense scan it replaces: a node enters the list
    /// when a controller ingests a message ([`EngineCtx::note_exchange_activity`])
    /// and every visit drains it completely, so skipped nodes are exactly
    /// those for which `take_completed` would have returned `None`
    /// immediately.
    pub fn deliver_completions(
        &mut self,
        now: Cycle,
        procs: &mut [Processor],
        mut take_completed: impl FnMut(usize) -> Option<(BlockAddr, CpuAccess)>,
    ) {
        let mut cursor = 0;
        while let Some(i) = self.exchange.completions.next_at_or_after(cursor) {
            cursor = i + 1;
            self.probe.exchange_completion_visits += 1;
            let proc = &mut procs[i];
            let mut woken = false;
            while let Some((addr, access)) = take_completed(i) {
                woken = true;
                if let Some(wait) = proc.note_miss_completed(now, addr, access == CpuAccess::Store)
                {
                    // Per-miss wait into the latency histogram. Recorded at
                    // delivery time, so completions later undone by a
                    // rollback stay counted — the histogram observes the
                    // speculative execution, the committed-stats mean does
                    // not.
                    self.metrics.miss_latency.record(wait);
                }
                // A completed store modifies cached state that SafetyNet must
                // be able to undo: account one log entry at this node.
                if access == CpuAccess::Store
                    && self.safetynet.log_writes(NodeId::from(i), 1) == LogOutcome::Full
                {
                    self.safetynet.note_log_stall();
                }
            }
            if woken {
                // Phase-split engines index processor wake-ups: a node whose
                // miss completed at cycle `now` is visible to the dense scan
                // at `now + 1` at the earliest, so that is when the calendar
                // visits it.
                if let Some(w) = self.wake.as_mut() {
                    if let Some(r) = proc.ready_at() {
                        w.calendar.schedule(now, r.max(now + 1), i as u32);
                    }
                }
            }
            // Fully drained: all message ingest for this cycle happened
            // earlier in the exchange, so nothing can complete at this node
            // until a future ingest re-inserts it.
            self.exchange.completions.remove(i);
        }
    }

    /// Reports that something happened at node `i` that may have produced
    /// exchange work: a controller ingested a message (which can both
    /// complete a processor access and enqueue protocol output) or the
    /// processor issued a request. The node joins both exchange worklists;
    /// the next visit retires it if it turns out to be idle.
    pub fn note_exchange_activity(&mut self, i: usize) {
        self.exchange.completions.insert(i);
        self.exchange.outbox.insert(i);
    }

    /// The next node at or after `from` on the outbox worklist — the
    /// worklist twin of a dense `for i in from..n` outbox scan. Each call
    /// counts as one exchange visit; the caller either pumps the node or
    /// retires it with [`EngineCtx::retire_outbox`].
    pub fn next_outbox_at_or_after(&mut self, from: usize) -> Option<usize> {
        let i = self.exchange.outbox.next_at_or_after(from)?;
        self.probe.exchange_outbox_visits += 1;
        Some(i)
    }

    /// Removes node `i` from the outbox worklist: the caller observed the
    /// exact dense-scan idle condition (no controller output queued, nothing
    /// staged), so the node cannot have outbox work until something
    /// re-inserts it via [`EngineCtx::note_exchange_activity`].
    pub fn retire_outbox(&mut self, i: usize) {
        self.exchange.outbox.remove(i);
    }

    /// The phase split's worker pool, when this run opted into
    /// `worker_threads > 1` (for a supporting protocol). Protocols pass this
    /// into their fabric's tick so the forward phase fans out across threads
    /// with a byte-identical schedule; `None` keeps every fabric serial.
    #[must_use]
    pub fn worker_pool(&self) -> Option<&'a WorkerPool> {
        self.pool
    }

    /// Reports that node `i`'s cache controller ingested a message at cycle
    /// `now`. A parked stalled processor (see the phase-split engine's
    /// indexed processor tick) can only unstall when its
    /// own controller's state changes, and that state changes only here — so
    /// this is the exact wake condition: the node is re-visited at `now + 1`,
    /// the first cycle the dense scan could observe the ingest's effect.
    /// No-op on the serial kernel and for unparked nodes.
    pub fn note_cache_activity(&mut self, now: Cycle, i: usize) {
        if let Some(w) = self.wake.as_mut() {
            if w.parked[i] != Cycle::MAX {
                w.calendar.schedule(now, now + 1, i as u32);
            }
        }
    }
}

/// Shared per-cycle deadlock-evidence check for a protocol's pooled fabric:
/// when `net` provisions buffers from shared slot pools and a pool is
/// exhausted (or the progress watchdog confirms a fully wedged network),
/// reports the evidence through [`EngineCtx::report_fabric_deadlock`] so a
/// coincident transaction timeout is classified as a buffer deadlock. Both
/// protocols call this from `exchange` right after ticking their torus.
pub(crate) fn report_pooled_fabric_evidence<P, A: Clone>(
    net: &Network<P>,
    now: Cycle,
    ctx: &mut EngineCtx<'_, A>,
) {
    if net.is_pooled() && (net.has_exhausted_pool() || net.is_stalled(now)) {
        ctx.report_fabric_deadlock();
    }
}

/// The shared buffer-deadlock forward-progress measure (Section 4's "revert
/// to conservative" recipe): partitions part of every node's pool in `net`
/// into per-virtual-network reservations and enters
/// [`ForwardProgressMode::ReservedSlots`]. Falls back to slow-start when the
/// measure is disabled or inert (unpooled fabric, or a pool too small to
/// hold any reservation), and to [`ForwardProgressMode::Normal`] when
/// slow-start is disabled too.
pub(crate) fn buffer_deadlock_forward_progress<P>(
    net: &mut Network<P>,
    resume_at: Cycle,
    fp: &ForwardProgressConfig,
) -> ForwardProgressMode {
    if fp.reserved_slot_cycles > 0
        && fp.reserved_slots_per_network > 0
        && net.set_pool_reservation(fp.reserved_slots_per_network)
        && net.pool_reservation() > Some(0)
    {
        ForwardProgressMode::ReservedSlots {
            until: resume_at + fp.reserved_slot_cycles,
        }
    } else if fp.slow_start_cycles > 0 {
        ForwardProgressMode::SlowStart {
            until: resume_at + fp.slow_start_cycles,
            max_outstanding: fp.slow_start_max_outstanding,
        }
    } else {
        ForwardProgressMode::Normal
    }
}

/// What a coherence protocol must provide for [`SystemEngine`] to drive it.
///
/// The two implementations are the directory protocol
/// (`crates/core/src/dirsys.rs`) and the broadcast-snooping protocol
/// (`crates/core/src/snoopsys.rs`); everything else about the per-cycle
/// loop is shared engine code.
pub trait ProtocolNode {
    /// The architectural state of the machine — everything SafetyNet must be
    /// able to checkpoint and restore: caches, directories/memories,
    /// processors (with their workload positions), fabric contents and the
    /// staging outboxes.
    type Arch: Clone + std::fmt::Debug;

    /// The processors, in node order.
    fn procs(arch: &Self::Arch) -> &[Processor];

    /// Mutable access to the processors, in node order.
    fn procs_mut(arch: &mut Self::Arch) -> &mut [Processor];

    /// Number of coherence transactions currently outstanding system-wide
    /// (the slow-start governor's demand census).
    fn outstanding_demand(arch: &Self::Arch) -> usize;

    /// Presents a CPU request to node `i`'s cache hierarchy.
    fn cpu_request(arch: &mut Self::Arch, i: usize, now: Cycle, req: CpuRequest) -> EngineAccess;

    /// One cycle of protocol-specific message movement, in protocol order:
    /// controller-to-fabric pumping, fabric ticks, fabric-to-controller
    /// ingest and completion delivery (via
    /// [`EngineCtx::deliver_completions`]).
    fn exchange(&mut self, arch: &mut Self::Arch, now: Cycle, ctx: &mut EngineCtx<'_, Self::Arch>);

    /// Drains node `i`'s memory-side write/undo log and returns the number
    /// of entries, which the engine accounts into SafetyNet.
    fn drain_write_log(arch: &mut Self::Arch, i: usize) -> usize;

    /// Whether a checkpoint is due at `now` on this protocol's logical time
    /// base (cycles for the directory system, ordered requests for the
    /// snooping system). Must be side-effect free; the engine calls
    /// [`ProtocolNode::on_checkpoint_taken`] when one is actually taken.
    fn checkpoint_due(
        &self,
        arch: &Self::Arch,
        safetynet: &SafetyNet<Self::Arch>,
        now: Cycle,
    ) -> bool;

    /// Called when the engine takes a checkpoint (for protocol-side interval
    /// bookkeeping).
    fn on_checkpoint_taken(&mut self, arch: &Self::Arch);

    /// The block to blame when node `i`'s transaction times out.
    fn timeout_addr(arch: &Self::Arch, i: usize) -> BlockAddr;

    /// Cycle at which node `i`'s outstanding coherence transaction (if any)
    /// was issued — the *requestor-side* timer of the Section 4 transaction
    /// timeout ("the requestor of the transaction will timeout"). This
    /// covers transactions orphaned by a rollback: the restored cache
    /// controller still owns the transaction, but the processor that issued
    /// it re-executes from its register checkpoint and is no longer waiting,
    /// so the processor-side timer alone would let a wedged fabric stall the
    /// machine forever.
    fn transaction_outstanding_since(arch: &Self::Arch, i: usize) -> Option<Cycle>;

    /// Called after a SafetyNet rollback restored `arch` (re-anchor any
    /// protocol-side bookkeeping derived from the architectural state).
    /// `rolled_back` is the live state the rollback replaced: execution
    /// counters that are not simulation state (the fabric's forward probe)
    /// carry over from it, so they never rewind.
    fn after_recovery_restore(&mut self, rolled_back: &Self::Arch, arch: &mut Self::Arch);

    /// The forward-progress measure for a recovery caused by `kind`
    /// (Section 2, feature 4). Returns [`ForwardProgressMode::Normal`] when
    /// no measure applies (the engine then leaves the current mode alone).
    /// The protocol applies any immediate side effect itself (e.g. switching
    /// the torus to static routing).
    fn misspec_forward_progress(
        &mut self,
        arch: &mut Self::Arch,
        kind: MisSpecKind,
        resume_at: Cycle,
        fp: &ForwardProgressConfig,
    ) -> ForwardProgressMode;

    /// Called when an [`ForwardProgressMode::AdaptiveRoutingDisabled`]
    /// window expires (the directory protocol re-enables adaptive routing).
    fn on_adaptive_window_expired(&mut self, arch: &mut Self::Arch);

    /// Called when a [`ForwardProgressMode::ReservedSlots`] window expires
    /// (the protocol lifts the per-network slot reservations its pooled
    /// fabric re-executed under).
    fn on_reserved_window_expired(&mut self, arch: &mut Self::Arch);

    /// The outstanding-transaction limit in normal (non-slow-start)
    /// operation.
    fn normal_outstanding_limit(&self) -> usize;

    /// Whether [`ProtocolNode::tick_nodes_parallel`] is implemented. The
    /// engine's deterministic phase split (`worker_threads > 1`) activates
    /// its *wake-calendar indexed tick* only for protocols whose per-node
    /// tick state is disjoint across nodes; the snooping system's totally
    /// ordered bus is inherently serial and keeps the default.
    const SUPPORTS_PARALLEL_TICK: bool = false;

    /// Whether this protocol's `exchange` passes the phase split's worker
    /// pool into a fabric tick ([`EngineCtx::worker_pool`]). A protocol may
    /// support the parallel *exchange* without the parallel tick — the
    /// snooping machine's address bus is serial by design, but its
    /// point-to-point data torus forwards in parallel shards just like the
    /// directory torus. `worker_threads > 1` builds the pool when either
    /// capability is present.
    const SUPPORTS_PARALLEL_EXCHANGE: bool = false;

    /// Phase-split processor tick: polls and dispatches every node in
    /// `nodes` (ascending node indices, each with `ready_at() <= now`)
    /// across `pool`'s threads, touching only per-node state so the result
    /// is independent of the claim schedule. Returns the number of nodes
    /// whose poll produced a request, or `None` when the protocol cannot
    /// run this cycle in parallel (the engine then falls back to the exact
    /// serial order). Called only when the outstanding-transaction gate
    /// provably cannot bind, so implementations skip it.
    fn tick_nodes_parallel(
        _arch: &mut Self::Arch,
        _nodes: &[u32],
        _now: Cycle,
        _pool: &WorkerPool,
    ) -> Option<u64> {
        None
    }

    /// Fills the protocol-specific half of the run metrics (fabric stats,
    /// ordering stats, address-network counts).
    fn collect_protocol_metrics(&self, arch: &Self::Arch, now: Cycle, m: &mut RunMetrics);

    /// The protocol's own idle horizon: the earliest cycle after `now` at
    /// which [`ProtocolNode::exchange`] can do anything beyond turning its
    /// fabrics' round-robin pointers. `now + 1` whenever a fabric holds a
    /// queued packet or a packet to eject, a controller holds output, a
    /// completion waits for delivery or a staged message is ripe; otherwise
    /// the earliest link arrival, staged-message ripening or (on pooled
    /// fabrics) watchdog stall onset; `Cycle::MAX` when nothing is
    /// scheduled. Must depend on simulated state only, and must leave in
    /// O(1) when a fabric's active set is non-empty.
    fn idle_horizon(arch: &Self::Arch, now: Cycle) -> Cycle;

    /// Settles `cycles` consecutive idle exchanges ending at cycle `last`,
    /// all strictly before [`ProtocolNode::idle_horizon`]: advances each
    /// fabric exactly as that many idle ticks would have
    /// ([`Network::skip_idle_ticks`]).
    fn skip_idle_cycles(arch: &mut Self::Arch, last: Cycle, cycles: u64);

    /// Cumulative counters of the protocol's primary data-carrying fabric,
    /// differenced per window by the telemetry sampler (the directory torus
    /// or the snooping data torus). The default reports zeros for protocols
    /// without a fabric.
    fn fabric_counters(_arch: &Self::Arch) -> FabricCounters {
        FabricCounters::default()
    }
}

/// The wake-calendar index of the phase split's tick phase, present only
/// for protocols with [`ProtocolNode::SUPPORTS_PARALLEL_TICK`]. The
/// calendar replaces the dense every-cycle processor scan with an exact
/// due-cycle index; protocols without it (the snooping bus) keep the dense
/// tick even when a pool exists for their exchange phase — handing them a
/// calendar would be a correctness hazard, since their exchange never
/// schedules wake-ups into it.
#[derive(Debug)]
struct TickIndex {
    wake: WakeCalendar,
    /// Scratch: nodes due this cycle (calendar pop).
    due: Vec<u32>,
    /// Scratch: due nodes whose recheck confirmed `ready_at() <= now`.
    ready: Vec<u32>,
    /// Per-node cycle at which the node was parked with a stalled request
    /// (`Cycle::MAX` = not parked). A stall is a pure no-op retry — it
    /// mutates nothing and its outcome depends only on the node's own cache
    /// controller state — so instead of re-presenting it every cycle the
    /// engine parks the node until its controller next ingests a message
    /// ([`EngineCtx::note_cache_activity`]) and settles the skipped retries
    /// in bulk ([`Processor::note_skipped_stalls`]) when it is re-visited.
    parked: Vec<Cycle>,
}

/// State of the deterministic phase split, present only when a run opted
/// into `worker_threads > 1` and the protocol supports a parallel phase
/// (tick, exchange, or both). The pool fans the supported phases out across
/// threads with a barrier between them. Everything here is
/// schedule-neutral: the serial kernel's goldens pin the digest either way.
#[derive(Debug)]
struct PhaseSplit {
    pool: WorkerPool,
    /// The indexed tick phase, only for protocols that support it.
    tick_index: Option<TickIndex>,
}

/// The generic full-system simulation engine: drives a [`ProtocolNode`]
/// cycle-by-cycle with the shared stepping, checkpointing, recovery and
/// metrics machinery described in the module docs.
#[derive(Debug)]
pub struct SystemEngine<P: ProtocolNode> {
    protocol: P,
    now: Cycle,
    arch: P::Arch,
    safetynet: SafetyNet<P::Arch>,
    fp_cfg: ForwardProgressConfig,
    fp_mode: ForwardProgressMode,
    resume_at: Cycle,
    inject_recovery_every: Option<CycleDelta>,
    next_injected_recovery: Option<Cycle>,
    pending_misspec: Option<MisSpeculation>,
    protocol_error: Option<ProtocolError>,
    perturb_rng: DetRng,
    metrics: RunMetrics,
    probe: EngineProbe,
    /// Set (for the current cycle) by [`EngineCtx::report_fabric_deadlock`]
    /// when a pooled fabric reports buffer exhaustion or a confirmed wedge.
    fabric_deadlocked: bool,
    /// Most recent cycle at which the fabric reported deadlock evidence. A
    /// transaction timeout is classified as a buffer deadlock when evidence
    /// appeared anywhere within the stuck transaction's timeout window (the
    /// exhaustion that starves a message can ebb and flow while the
    /// transaction stays stuck).
    fabric_deadlock_at: Option<Cycle>,
    /// Transaction timers restart after a recovery (Section 4: the
    /// requestor's timer is re-armed when it re-executes): ages in the
    /// timeout scan are measured from this cycle at the earliest, so a
    /// transaction restored from a checkpoint gets a full fresh window
    /// instead of timing out instantly on its pre-rollback issue cycle.
    timeout_anchor: Cycle,
    /// The transient-fault injector, when a fault plan is active. Lives
    /// *outside* the checkpointed architectural state on purpose: a rollback
    /// rewinds the machine but never the fault schedule, so a fired one-shot
    /// fault cannot re-fire — the transient semantics that make re-execution
    /// succeed.
    fault_director: Option<FaultDirector>,
    /// Most recent fault injection `(cycle, kind)` observed from the
    /// director. A transaction timeout with fault evidence inside the stuck
    /// transaction's timeout window is classified as
    /// [`MisSpecKind::TransientFault`] (taking precedence over
    /// [`MisSpecKind::BufferDeadlock`]); the distance from injection to
    /// detection is the recovery's detection latency.
    fault_evidence_at: Option<(Cycle, FaultKind)>,
    /// Director fire count already folded into
    /// [`SystemEngine::fault_evidence_at`] — evidence cleared by a recovery
    /// must not be resurrected from the director's (persistent) last-fire
    /// record.
    fault_fires_seen: u64,
    /// Cycle before which the transaction-timeout scan provably cannot fire,
    /// so [`SystemEngine::check_recovery`] skips its O(n) processor walk.
    /// Derived on every scan that finds no timeout: an active wait's age is
    /// frozen while it persists (its `since` never decreases), a wait that
    /// completes and restarts only gets *younger*, and a wait starting after
    /// the scan cycle `c` cannot fire before `c + 1 + timeout` — so the
    /// minimum of `max(since, anchor) + timeout` over active waits (or
    /// `c + 1 + timeout` when none) is a sound earliest-fire bound. Reset to
    /// the resume cycle on every recovery (the anchor moves).
    next_timeout_scan: Cycle,
    /// The deterministic phase split (`None` = the serial reference kernel).
    par: Option<PhaseSplit>,
    /// Whether the exchange phase may see the worker pool (and hence shard
    /// the network forward phase). Schedule-neutral either way — the
    /// parallel forward is byte-identical to the serial scan — so this is a
    /// pure timing knob: the scaling sweep pins it off to isolate how much
    /// of the phase-split speedup comes from the tick phase alone.
    parallel_exchange: bool,
    /// The exchange-phase worklists (present on every kernel, serial
    /// included: visiting a superset of the busy nodes is a no-op, so the
    /// lists are a pure scan-cost optimization).
    exchange: ExchangeIndex,
    /// Always-on availability record: which [`EngineMode`] each cycle
    /// executed in (one array increment per cycle; transitions are as rare
    /// as recoveries). Feeds the mode-cycle totals in [`RunMetrics`].
    timeline: ModeTimeline,
    /// The gated telemetry recorder (windowed sampler + lifecycle event
    /// trace), present only when a [`TelemetryConfig`] enabled it.
    telemetry: Option<TelemetryRecorder>,
}

impl<P: ProtocolNode> SystemEngine<P> {
    /// Assembles an engine around `protocol` and its initial architectural
    /// state. `perturb_rng` is the protocol's perturbation stream (each
    /// system derives it from its own seed domain); `safetynet_cfg` opens
    /// the checkpoint/recovery substrate with `arch` as the initial
    /// checkpoint. `worker_threads > 1` requests the deterministic phase
    /// split (honoured only when the protocol supports the parallel tick
    /// phase; the schedule stays byte-identical either way).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        protocol: P,
        arch: P::Arch,
        safetynet_cfg: SafetyNetConfig,
        fp_cfg: ForwardProgressConfig,
        inject_recovery_every: Option<CycleDelta>,
        perturb_rng: DetRng,
        fault_plan: FaultPlan,
        worker_threads: usize,
    ) -> Self {
        let n = P::procs(&arch).len();
        let safetynet = SafetyNet::new(safetynet_cfg, n, arch.clone(), 0);
        let next_injected_recovery = inject_recovery_every.map(|i| i.max(1));
        let fault_director = (!fault_plan.is_empty()).then(|| FaultDirector::new(fault_plan));
        let supports_split = P::SUPPORTS_PARALLEL_TICK || P::SUPPORTS_PARALLEL_EXCHANGE;
        let par = (worker_threads > 1 && supports_split).then(|| {
            let tick_index = P::SUPPORTS_PARALLEL_TICK.then(|| {
                let mut wake = WakeCalendar::new();
                // Every node starts live: visit all of them on the first
                // cycle.
                for i in 0..n {
                    wake.schedule(0, 1, i as u32);
                }
                TickIndex {
                    wake,
                    due: Vec::new(),
                    ready: Vec::new(),
                    parked: vec![Cycle::MAX; n],
                }
            });
            PhaseSplit {
                pool: WorkerPool::new(worker_threads),
                tick_index,
            }
        });
        Self {
            protocol,
            now: 0,
            arch,
            safetynet,
            fp_cfg,
            fp_mode: ForwardProgressMode::Normal,
            resume_at: 0,
            inject_recovery_every,
            next_injected_recovery,
            pending_misspec: None,
            protocol_error: None,
            perturb_rng,
            metrics: RunMetrics::default(),
            probe: EngineProbe::default(),
            fabric_deadlocked: false,
            fabric_deadlock_at: None,
            timeout_anchor: 0,
            fault_director,
            fault_evidence_at: None,
            fault_fires_seen: 0,
            next_timeout_scan: 0,
            par,
            parallel_exchange: true,
            exchange: ExchangeIndex::new_full(n),
            timeline: ModeTimeline::new(),
            telemetry: None,
        }
    }

    /// Enables or disables handing the worker pool to the exchange phase
    /// (see the field doc: schedule-neutral, timing only).
    pub fn set_parallel_exchange(&mut self, enabled: bool) {
        self.parallel_exchange = enabled;
    }

    /// Installs (or, with a disabled config, removes) the telemetry
    /// recorder. Intended to be called before the first step; installing
    /// mid-run starts a fresh recording. Telemetry is purely observational:
    /// the simulated schedule is byte-identical with it on or off.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = TelemetryRecorder::new(cfg);
    }

    /// The telemetry recorder, when one was enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TelemetryRecorder> {
        self.telemetry.as_ref()
    }

    /// The always-on engine-mode timeline (availability observability).
    #[must_use]
    pub fn mode_timeline(&self) -> &ModeTimeline {
        &self.timeline
    }

    /// The windowed time-series samples as JSONL, when the sampler is on.
    #[must_use]
    pub fn telemetry_jsonl(&self) -> Option<String> {
        self.telemetry.as_ref().map(TelemetryRecorder::jsonl)
    }

    /// The lifecycle event trace plus mode timeline as a Chrome trace-event
    /// JSON document (Perfetto-loadable), when telemetry is on.
    #[must_use]
    pub fn telemetry_trace(&self) -> Option<String> {
        self.telemetry
            .as_ref()
            .map(|t| t.chrome_trace(&self.timeline, self.now))
    }

    /// The fault injector, when a fault plan is active (observability for
    /// chaos-campaign experiments and tests).
    #[must_use]
    pub fn fault_director(&self) -> Option<&FaultDirector> {
        self.fault_director.as_ref()
    }

    /// The protocol implementation (for its configuration accessors).
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The architectural state (read-only; used by invariant checkers).
    #[must_use]
    pub fn arch(&self) -> &P::Arch {
        &self.arch
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The forward-progress mode currently in force.
    #[must_use]
    pub fn forward_progress_mode(&self) -> ForwardProgressMode {
        self.fp_mode
    }

    /// The engine's work counters (idle-skip/wake-up observability).
    #[must_use]
    pub fn probe(&self) -> EngineProbe {
        self.probe
    }

    /// Memory operations committed so far across all processors.
    #[must_use]
    pub fn ops_completed(&self) -> u64 {
        P::procs(&self.arch)
            .iter()
            .map(Processor::ops_completed)
            .sum()
    }

    /// Runs the system for `cycles` cycles and returns the metrics collected
    /// so far. Returns an error if a transition occurred that the fully
    /// designed protocol considers impossible (a simulator bug).
    ///
    /// Idle spans are settled in bulk up to the idle horizon (see the
    /// module docs); the result is identical to `cycles` calls of
    /// [`SystemEngine::step`].
    pub fn run_for(&mut self, cycles: CycleDelta) -> Result<RunMetrics, ProtocolError> {
        let end = self.now + cycles;
        while self.now < end {
            let horizon = self.idle_horizon();
            if horizon > self.now + 1 {
                self.settle_idle((horizon - 1).min(end));
            } else {
                self.step_cycle()?;
            }
        }
        Ok(self.collect_metrics())
    }

    /// Advances the system by one cycle: settles it as idle when it lies
    /// before the idle horizon, steps it in full otherwise.
    pub fn step(&mut self) -> Result<(), ProtocolError> {
        if self.idle_horizon() > self.now + 1 {
            self.settle_idle(self.now + 1);
            return Ok(());
        }
        self.step_cycle()
    }

    /// The idle horizon: the earliest cycle after `now` at which a step can
    /// do anything besides accounting the cycle to the current mode (and,
    /// outside a recovery stall, turning the fabrics' round-robin
    /// pointers). It is the minimum over every due source — the recovery
    /// resume, the telemetry window, the protocol's own horizon, the
    /// timeout scan, the SafetyNet schedule, the forward-progress expiry,
    /// the next injected recovery, the fault director, and each
    /// processor's think time — where an overdue source means `now + 1`.
    /// A processor presenting a request is due every cycle unless the
    /// slow-start gate provably holds it back (a finite limit the demand
    /// census already meets: nothing changes the census while the machine
    /// is idle). Busy machines leave through the protocol's O(1) check.
    fn idle_horizon(&self) -> Cycle {
        let next = self.now + 1;
        let window = self
            .telemetry
            .as_ref()
            .and_then(TelemetryRecorder::next_window)
            .unwrap_or(Cycle::MAX);
        if next < self.resume_at {
            // Recovery stall: the timeline and the sampler are all a cycle
            // touches until the resume.
            return self.resume_at.min(window).max(next);
        }
        let mut due = P::idle_horizon(&self.arch, self.now)
            .min(window)
            .min(self.next_timeout_scan)
            .min(self.safetynet.next_due(self.now));
        if let Some(until) = self.forward_progress_until() {
            due = due.min(until);
        }
        if let Some(at) = self.next_injected_recovery {
            due = due.min(at);
        }
        if let Some(at) = self
            .fault_director
            .as_ref()
            .and_then(|d| d.next_due(self.now))
        {
            due = due.min(at);
        }
        if due <= next {
            return next;
        }
        let mut gate_closed = None;
        for proc in P::procs(&self.arch) {
            match proc.ready_at() {
                Some(until) if until > self.now => due = due.min(until),
                Some(_) if proc.is_presenting() => {
                    let closed = *gate_closed.get_or_insert_with(|| {
                        let limit = self.outstanding_limit();
                        limit != usize::MAX && P::outstanding_demand(&self.arch) >= limit
                    });
                    if !closed {
                        return next;
                    }
                }
                Some(_) => return next,
                None => {}
            }
        }
        due
    }

    /// Settles the idle cycles `now + 1 ..= last` (all before the idle
    /// horizon) in bulk: each is accounted to the mode it would have run
    /// in, and — outside a recovery stall, whose cycles never reach the
    /// exchange — the protocol's fabrics advance as that many idle ticks
    /// would have.
    fn settle_idle(&mut self, last: Cycle) {
        let first = self.now + 1;
        let cycles = last + 1 - first;
        let mode = self.engine_mode(first);
        self.timeline.observe_span(first, cycles, mode);
        if mode != EngineMode::Rollback {
            P::skip_idle_cycles(&mut self.arch, last, cycles);
        }
        self.probe.fast_forward_cycles += cycles;
        self.now = last;
    }

    /// The cycle at which the current forward-progress measure expires.
    fn forward_progress_until(&self) -> Option<Cycle> {
        match self.fp_mode {
            ForwardProgressMode::Normal => None,
            ForwardProgressMode::AdaptiveRoutingDisabled { until }
            | ForwardProgressMode::SlowStart { until, .. }
            | ForwardProgressMode::ReservedSlots { until } => Some(until),
        }
    }

    /// Steps one cycle in full.
    fn step_cycle(&mut self) -> Result<(), ProtocolError> {
        if let Some(e) = self.protocol_error.take() {
            return Err(e);
        }
        self.now += 1;
        let now = self.now;
        if now < self.resume_at {
            // The recovery procedure is still restoring state; no forward
            // progress during these cycles.
            self.timeline.observe(now, EngineMode::Rollback);
            self.sample_telemetry_window(now);
            return Ok(());
        }
        self.update_forward_progress(now);
        self.timeline.observe(now, self.engine_mode(now));
        if self.par.as_ref().is_some_and(|p| p.tick_index.is_some()) {
            self.tick_processors_indexed(now);
        } else {
            self.tick_processors(now);
        }
        self.fabric_deadlocked = false;
        {
            let (pool, wake) = match self.par.as_mut() {
                Some(p) => (
                    self.parallel_exchange.then_some(&p.pool),
                    p.tick_index.as_mut().map(|t| WakeHooks {
                        calendar: &mut t.wake,
                        parked: &mut t.parked,
                    }),
                ),
                None => (None, None),
            };
            let mut ctx = EngineCtx {
                safetynet: &mut self.safetynet,
                pending_misspec: &mut self.pending_misspec,
                protocol_error: &mut self.protocol_error,
                perturb_rng: &mut self.perturb_rng,
                metrics: &mut self.metrics,
                fabric_deadlocked: &mut self.fabric_deadlocked,
                faults: self.fault_director.as_mut(),
                wake,
                exchange: &mut self.exchange,
                probe: &mut self.probe,
                pool,
            };
            self.protocol.exchange(&mut self.arch, now, &mut ctx);
        }
        if self.fabric_deadlocked {
            self.fabric_deadlock_at = Some(now);
        }
        let mut fault_fired: Option<(Cycle, FaultKind)> = None;
        if let Some(d) = &self.fault_director {
            // Fold newly-fired injections into the evidence record. Guarded by
            // the fire counter: an old fire whose evidence was cleared by a
            // recovery must not reappear (back-to-back injected faults would
            // otherwise be mis-classified as one long episode).
            if d.fires() > self.fault_fires_seen {
                self.fault_fires_seen = d.fires();
                if let Some((at, kind)) = d.last_fire() {
                    if self.fault_evidence_at.map_or(true, |(a, _)| a <= at) {
                        self.fault_evidence_at = Some((at, kind));
                    }
                    fault_fired = Some((at, kind));
                }
            }
        }
        if let (Some(t), Some((at, kind))) = (self.telemetry.as_mut(), fault_fired) {
            t.record(SpecEvent::FaultFired {
                at,
                kind: kind.label(),
            });
        }
        self.safetynet_tick(now);
        self.check_recovery(now);
        if let Some(e) = self.protocol_error.take() {
            return Err(e);
        }
        self.sample_telemetry_window(now);
        Ok(())
    }

    /// The availability mode cycle `now` executes in: the rollback stall
    /// window when `now` precedes the resume cycle, the forward-progress
    /// mode otherwise.
    fn engine_mode(&self, now: Cycle) -> EngineMode {
        if now < self.resume_at {
            return EngineMode::Rollback;
        }
        match self.fp_mode {
            ForwardProgressMode::Normal => EngineMode::Normal,
            ForwardProgressMode::AdaptiveRoutingDisabled { .. } => EngineMode::AdaptiveDegraded,
            ForwardProgressMode::SlowStart { .. } => EngineMode::SlowStart,
            ForwardProgressMode::ReservedSlots { .. } => EngineMode::ReservedSlots,
        }
    }

    /// Closes the telemetry sampler's window ending at `now`, if one is due:
    /// snapshots the cumulative counters (processor ops, fabric busy-cycles,
    /// SafetyNet log state, recoveries) and lets the recorder difference
    /// them into a [`specsim_base::WindowSample`]. All inputs are simulated
    /// state, so samples are bit-identical across kernels.
    fn sample_telemetry_window(&mut self, now: Cycle) {
        if !self.telemetry.as_ref().is_some_and(|t| t.window_due(now)) {
            return;
        }
        let procs = P::procs(&self.arch);
        let n = procs.len();
        let ops_completed = procs.iter().map(Processor::ops_completed).sum();
        let outstanding = P::outstanding_demand(&self.arch) as u64;
        let fabric = P::fabric_counters(&self.arch);
        let log_occupancy = (0..n)
            .map(|i| self.safetynet.log_occupancy(NodeId::from(i)) as u64)
            .sum();
        let counters = WindowCounters {
            ops_completed,
            recoveries: self.metrics.recoveries + self.metrics.injected_recoveries,
            link_busy_cycles: fabric.link_busy_cycles,
            num_links: fabric.num_links,
            messages_delivered: fabric.delivered,
            log_entries: self.safetynet.stats().entries_logged,
            outstanding,
            log_occupancy,
        };
        let mode = self.engine_mode(now);
        if let Some(t) = self.telemetry.as_mut() {
            t.sample_window(now, mode, counters);
        }
    }

    fn update_forward_progress(&mut self, now: Cycle) {
        match self.fp_mode {
            ForwardProgressMode::AdaptiveRoutingDisabled { until } if now >= until => {
                self.protocol.on_adaptive_window_expired(&mut self.arch);
                self.fp_mode = ForwardProgressMode::Normal;
            }
            ForwardProgressMode::SlowStart { until, .. } if now >= until => {
                self.fp_mode = ForwardProgressMode::Normal;
            }
            ForwardProgressMode::ReservedSlots { until } if now >= until => {
                self.protocol.on_reserved_window_expired(&mut self.arch);
                self.fp_mode = ForwardProgressMode::Normal;
            }
            _ => {}
        }
    }

    fn outstanding_limit(&self) -> usize {
        match self.fp_mode {
            ForwardProgressMode::SlowStart {
                max_outstanding, ..
            } => max_outstanding.max(1),
            _ => self.protocol.normal_outstanding_limit(),
        }
    }

    fn tick_processors(&mut self, now: Cycle) {
        let limit = self.outstanding_limit();
        // Demand census for the slow-start governor, computed lazily on the
        // first cycle a processor actually presents a request: on quiescent
        // cycles (every processor mid-think or blocked on a miss) the whole
        // per-cache scan is skipped.
        let mut outstanding: Option<usize> = None;
        let n = P::procs(&self.arch).len();
        for i in 0..n {
            // Per-node wake-up cycle: a thinking processor sleeps until its
            // think time elapses, a blocked one until its miss completes.
            match P::procs(&self.arch)[i].ready_at() {
                Some(ready) if ready <= now => {}
                _ => {
                    self.probe.processor_skips += 1;
                    continue;
                }
            }
            let Some(req) = P::procs_mut(&mut self.arch)[i].poll(now) else {
                continue;
            };
            self.probe.processor_polls += 1;
            let outstanding = outstanding.get_or_insert_with(|| P::outstanding_demand(&self.arch));
            if *outstanding >= limit {
                // Slow-start governor: hold back new transactions.
                continue;
            }
            let outcome = P::cpu_request(&mut self.arch, i, now, req);
            // An accepted request may have enqueued protocol output at this
            // node's controllers (a miss's coherence request): the exchange
            // phase must pump it. Idle insertions retire on their first
            // visit. A stall enqueues nothing.
            if outcome != EngineAccess::Stall {
                self.exchange.outbox.insert(i);
            }
            let proc = &mut P::procs_mut(&mut self.arch)[i];
            match outcome {
                EngineAccess::Hit { latency } => {
                    proc.note_hit(now, latency, req.access == CpuAccess::Store);
                }
                EngineAccess::MissIssued => {
                    proc.note_miss_issued(now);
                    *outstanding += 1;
                }
                EngineAccess::Stall => proc.note_stall(),
            }
        }
    }

    /// The phase-split twin of [`SystemEngine::tick_processors`]: visits the
    /// wake calendar's due nodes instead of scanning all of them, producing
    /// byte-identical per-node state transitions in the same ascending node
    /// order. Calendar entries are hints — each is re-validated against the
    /// processor's live `ready_at()` and rescheduled (or dropped) if it
    /// moved. When the outstanding-transaction gate provably cannot bind
    /// (the unlimited default), the per-node work fans out across the
    /// worker pool; otherwise — and for protocols without a parallel tick —
    /// the ready nodes run serially with the exact dense-loop semantics
    /// (lazy demand census, in-order gate).
    fn tick_processors_indexed(&mut self, now: Cycle) {
        let limit = self.outstanding_limit();
        let mut par = self.par.take().expect("indexed tick requires phase split");
        let mut ti = par
            .tick_index
            .take()
            .expect("indexed tick requires wake index");
        ti.wake.pop_due(now, &mut ti.due);
        ti.ready.clear();
        for &node in &ti.due {
            let i = node as usize;
            // A parked node is being re-visited (its cache controller
            // ingested a message, or a completion woke it): settle the stall
            // retries the serial kernel performed on every skipped cycle in
            // `(parked, now)` — the retry at `now` itself happens below.
            if ti.parked[i] != Cycle::MAX {
                let skipped = now.saturating_sub(ti.parked[i] + 1);
                P::procs_mut(&mut self.arch)[i].note_skipped_stalls(skipped);
                // The dense scan would have counted each skipped retry as a
                // poll; this loop counted the parked cycles as skips.
                self.probe.processor_polls += skipped;
                self.probe.processor_skips = self.probe.processor_skips.saturating_sub(skipped);
                ti.parked[i] = Cycle::MAX;
            }
            match P::procs(&self.arch)[i].ready_at() {
                Some(r) if r <= now => ti.ready.push(node),
                Some(r) => ti.wake.schedule(now, r, node),
                // Blocked on a miss: completion delivery reschedules it.
                None => {}
            }
        }
        let n = P::procs(&self.arch).len();
        // Dense-scan equivalence: every node that is not ready this cycle
        // counts as one skip there; here they are simply never visited.
        self.probe.processor_skips += (n - ti.ready.len()) as u64;
        // With an unlimited outstanding budget the slow-start gate cannot
        // bind, so node order cannot influence admission and the tick may
        // fan out. Any finite limit (slow-start windows, capped configs)
        // takes the exact serial order below.
        let polls = if limit == usize::MAX {
            P::tick_nodes_parallel(&mut self.arch, &ti.ready, now, &par.pool)
        } else {
            None
        };
        match polls {
            Some(polls) => {
                self.probe.processor_polls += polls;
                // The parallel tick reports only its poll count: arm the
                // outbox worklist for every ready node whose request was
                // accepted — the same set the serial tick arms. A node
                // still presenting its request stalled.
                for &node in &ti.ready {
                    if !P::procs(&self.arch)[node as usize].is_presenting() {
                        self.exchange.outbox.insert(node as usize);
                    }
                }
            }
            None => {
                let mut outstanding: Option<usize> = None;
                for &node in &ti.ready {
                    let i = node as usize;
                    let Some(req) = P::procs_mut(&mut self.arch)[i].poll(now) else {
                        continue;
                    };
                    self.probe.processor_polls += 1;
                    let outstanding =
                        outstanding.get_or_insert_with(|| P::outstanding_demand(&self.arch));
                    if *outstanding >= limit {
                        continue;
                    }
                    let outcome = P::cpu_request(&mut self.arch, i, now, req);
                    // See `tick_processors`: an accepted request may have
                    // enqueued controller output.
                    if outcome != EngineAccess::Stall {
                        self.exchange.outbox.insert(i);
                    }
                    let proc = &mut P::procs_mut(&mut self.arch)[i];
                    match outcome {
                        EngineAccess::Hit { latency } => {
                            proc.note_hit(now, latency, req.access == CpuAccess::Store);
                        }
                        EngineAccess::MissIssued => {
                            proc.note_miss_issued(now);
                            *outstanding += 1;
                        }
                        EngineAccess::Stall => proc.note_stall(),
                    }
                }
            }
        }
        // Re-index every visited node from its post-tick wake cycle. A node
        // that went thinking comes back when its think time elapses; a node
        // that went blocking waits for completion delivery. A node still in
        // `Ready` (`ready_at() == Some(0)`, the unique post-tick signature of
        // a stalled request) is *parked* instead of rescheduled at `now + 1`:
        // a stall retry is pure and its outcome cannot change until the
        // node's cache controller ingests a message, at which point
        // [`EngineCtx::note_cache_activity`] re-schedules it. Parking only
        // applies on the parallel-hook path — under a finite outstanding
        // limit a held-back node's admission depends on the system-wide
        // demand census, not its own controller, so it keeps the dense
        // scan's every-cycle retry.
        let may_park = polls.is_some();
        for &node in &ti.ready {
            match P::procs(&self.arch)[node as usize].ready_at() {
                Some(0) if may_park => ti.parked[node as usize] = now,
                Some(r) => ti.wake.schedule(now, r.max(now + 1), node),
                None => {}
            }
        }
        par.tick_index = Some(ti);
        self.par = Some(par);
    }

    fn safetynet_tick(&mut self, now: Cycle) {
        let n = P::procs(&self.arch).len();
        for i in 0..n {
            let entries = P::drain_write_log(&mut self.arch, i);
            if entries > 0
                && self.safetynet.log_writes(NodeId::from(i), entries) == LogOutcome::Full
            {
                self.safetynet.note_log_stall();
            }
        }
        self.safetynet.advance(now);
        if self
            .protocol
            .checkpoint_due(&self.arch, &self.safetynet, now)
            && self.safetynet.can_checkpoint()
        {
            self.protocol.on_checkpoint_taken(&self.arch);
            // Parked nodes' skipped stall retries must be settled before the
            // snapshot (processor stats are checkpointed state): the serial
            // kernel's tick at `now` precedes this snapshot, so the settle
            // covers `(parked, now]` and re-bases the park cycle to `now`.
            self.settle_parked_stalls(now);
            let snapshot = self.arch.clone();
            self.safetynet.take_checkpoint(now, snapshot);
            if let Some(t) = self.telemetry.as_mut() {
                t.record(SpecEvent::Checkpoint { at: now });
            }
        }
    }

    /// Brings parked nodes' stall-retry accounting up to date with the
    /// serial kernel as of the end of cycle `now`'s tick phase (the serial
    /// scan at `now` has already retried), re-basing each park cycle to
    /// `now` so later settles do not double-count. Called before state
    /// observations that include processor stats: a SafetyNet snapshot and
    /// metrics collection.
    fn settle_parked_stalls(&mut self, now: Cycle) {
        let Some(par) = self.par.as_mut().and_then(|p| p.tick_index.as_mut()) else {
            return;
        };
        for (i, p) in par.parked.iter_mut().enumerate() {
            if *p != Cycle::MAX {
                let skipped = now.saturating_sub(*p);
                P::procs_mut(&mut self.arch)[i].note_skipped_stalls(skipped);
                self.probe.processor_polls += skipped;
                self.probe.processor_skips = self.probe.processor_skips.saturating_sub(skipped);
                *p = now;
            }
        }
    }

    fn check_recovery(&mut self, now: Cycle) {
        // Transaction timeout (Section 4): the requestor of a transaction
        // that does not complete within three checkpoint intervals declares a
        // deadlock mis-speculation. The processor-side timer restarts after a
        // recovery (the processor re-executes from its register checkpoint).
        // When the protocol's pooled fabric reported a confirmed wedge this
        // cycle ([`EngineCtx::report_fabric_deadlock`]), the timeout is a
        // *detected buffer deadlock* rather than congestion, and the
        // buffer-reservation forward-progress measure applies.
        if self.pending_misspec.is_none() && now >= self.next_timeout_scan {
            let timeout = self.safetynet.config().transaction_timeout_cycles();
            // A fault wedges not only the transaction whose message it ate
            // but also transactions that queue up behind the damage (e.g. at
            // a directory entry stuck busy); those start their timers *after*
            // the fire, so the attribution window is one full timeout of
            // waiting on top of one timeout of queueing behind the fault.
            let fault_evidence = self
                .fault_evidence_at
                .filter(|(at, _)| now.saturating_sub(*at) <= 2 * timeout);
            let evidence_in_window = self
                .fabric_deadlock_at
                .is_some_and(|at| now.saturating_sub(at) <= timeout);
            // Classification precedence: a transient fault injected inside the
            // stuck transaction's window explains the timeout better than a
            // buffer wedge (the fault likely *caused* the wedge), and either
            // beats the generic timeout.
            let kind = if let Some((_, fk)) = fault_evidence {
                MisSpecKind::TransientFault { kind: fk }
            } else if evidence_in_window {
                MisSpecKind::BufferDeadlock
            } else {
                MisSpecKind::TransactionTimeout
            };
            // Earliest cycle any wait *starting after this scan* could fire.
            let mut next_fire = now + 1 + timeout;
            for (i, proc) in P::procs(&self.arch).iter().enumerate() {
                // Requestor-side timer: the processor's wait, or the cache
                // controller's outstanding transaction (which survives a
                // rollback even though the restored processor re-executes
                // and no longer waits).
                let since = match (
                    proc.waiting_since(),
                    P::transaction_outstanding_since(&self.arch, i),
                ) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some(since) = since.map(|s| s.max(self.timeout_anchor)) {
                    if now.saturating_sub(since) >= timeout {
                        self.pending_misspec = Some(MisSpeculation {
                            kind,
                            node: NodeId::from(i),
                            addr: P::timeout_addr(&self.arch, i),
                            at: now,
                        });
                        break;
                    }
                    next_fire = next_fire.min(since + timeout);
                }
            }
            if self.pending_misspec.is_none() {
                // No wait fired: none can before `next_fire`, so the scan
                // sleeps until then. Fault/deadlock evidence only influences
                // *classification*, which is read on the firing cycle itself.
                self.next_timeout_scan = next_fire;
            }
        }
        if let Some(ms) = self.pending_misspec.take() {
            self.metrics.count_misspeculation(ms.kind);
            self.metrics.recoveries += 1;
            if ms.kind == MisSpecKind::BufferDeadlock {
                self.metrics.deadlock_recoveries += 1;
            }
            if let Some(t) = self.telemetry.as_mut() {
                t.record(SpecEvent::MisSpec {
                    at: ms.at,
                    kind: ms.kind.label(),
                    node: ms.node.index() as u64,
                });
            }
            if ms.kind.is_transient_fault() {
                self.metrics.fault_recoveries += 1;
                if let Some((at, _)) = self.fault_evidence_at {
                    let latency = ms.at.saturating_sub(at);
                    self.metrics.fault_detection_latency_cycles += latency;
                    self.metrics.fault_detection_latency.record(latency);
                    if let Some(t) = self.telemetry.as_mut() {
                        t.record(SpecEvent::FaultDetected {
                            at: ms.at,
                            injected_at: at,
                            kind: ms.kind.label(),
                        });
                    }
                }
            }
            self.perform_recovery(now, RecoveryCause::MisSpeculation(ms.kind));
            return;
        }
        if let Some(next) = self.next_injected_recovery {
            if now >= next {
                let interval = self
                    .inject_recovery_every
                    .expect("injection interval configured");
                self.metrics.injected_recoveries += 1;
                self.next_injected_recovery = Some(now + interval);
                self.perform_recovery(now, RecoveryCause::Injected);
            }
        }
    }

    fn perform_recovery(&mut self, now: Cycle, cause: RecoveryCause) {
        let (state, outcome) = self.safetynet.recover(now);
        let rolled_back = std::mem::replace(&mut self.arch, state);
        // Processors resume from their register checkpoints at the restored
        // workload position.
        for proc in P::procs_mut(&mut self.arch) {
            let snap = proc.snapshot();
            proc.restore(now + outcome.recovery_latency_cycles, snap);
        }
        self.protocol
            .after_recovery_restore(&rolled_back, &mut self.arch);
        self.metrics.lost_work_cycles += outcome.lost_work_cycles;
        self.metrics.recovery_latency_cycles += outcome.recovery_latency_cycles;
        self.resume_at = now + outcome.recovery_latency_cycles;
        self.timeout_anchor = self.resume_at;
        // The anchor moved: force a fresh timeout scan once stepping resumes.
        self.next_timeout_scan = self.resume_at;
        if let Some(t) = self.telemetry.as_mut() {
            t.record(SpecEvent::Rollback {
                at: now,
                resume_at: self.resume_at,
                cause: match cause {
                    RecoveryCause::MisSpeculation(kind) => kind.label(),
                    RecoveryCause::Injected => "injected",
                },
            });
        }
        if let Some(ti) = self.par.as_mut().and_then(|p| p.tick_index.as_mut()) {
            // The rollback invalidated every scheduled wake-up (the restored
            // processors carry restored wake cycles): rebuild the calendar by
            // visiting every node on the first post-stall cycle, which
            // re-indexes each from its live `ready_at()`. Parked entries are
            // discarded unsettled — their accumulated retries belonged to the
            // rolled-back state, and the checkpoint being restored was
            // settled when it was taken. The work counters are not rolled
            // back, so they do count the retries the serial kernel polled.
            for p in &mut ti.parked {
                if *p != Cycle::MAX {
                    let skipped = now - *p;
                    self.probe.processor_polls += skipped;
                    self.probe.processor_skips = self.probe.processor_skips.saturating_sub(skipped);
                    *p = Cycle::MAX;
                }
            }
            ti.wake.clear();
            let visit = self.resume_at.max(now + 1);
            for i in 0..P::procs(&self.arch).len() {
                ti.wake.schedule(now, visit, i as u32);
            }
        }
        // The restored controllers and outboxes may hold completions and
        // pending output at any node: re-arm both exchange worklists.
        self.exchange.insert_all();
        self.pending_misspec = None;
        // Transient semantics: the re-execution must not hit the same fault
        // again, so matured one-shot events are disarmed and open windows
        // closed. Evidence is cleared too — a *new* timeout after this
        // recovery needs fresh evidence to be classified as a fault (or as a
        // buffer deadlock), otherwise back-to-back episodes would be folded
        // into one.
        if let Some(d) = &mut self.fault_director {
            d.suppress_through(now);
            self.fault_fires_seen = d.fires();
        }
        self.fabric_deadlock_at = None;
        self.fault_evidence_at = None;
        // Forward progress (Section 2, feature 4): alter the timing of the
        // re-execution so the same rare event cannot immediately recur.
        if let RecoveryCause::MisSpeculation(kind) = cause {
            let mode = self.protocol.misspec_forward_progress(
                &mut self.arch,
                kind,
                self.resume_at,
                &self.fp_cfg,
            );
            if mode != ForwardProgressMode::Normal {
                self.fp_mode = mode;
            }
        }
    }

    /// Test support: applies the protocol's forward-progress measure for
    /// `kind` exactly as a mis-speculation recovery would (entry side
    /// effects included), without performing the rollback itself. Lets unit
    /// tests drive the mode lifecycle (entry → expiry hook) deterministically.
    #[cfg(test)]
    pub(crate) fn test_force_misspec_forward_progress(
        &mut self,
        kind: MisSpecKind,
    ) -> ForwardProgressMode {
        let resume = self.now;
        let mode =
            self.protocol
                .misspec_forward_progress(&mut self.arch, kind, resume, &self.fp_cfg);
        if mode != ForwardProgressMode::Normal {
            self.fp_mode = mode;
        }
        mode
    }

    /// Gathers the run metrics: the protocol-independent half here, the
    /// fabric/ordering half from the protocol.
    pub fn collect_metrics(&mut self) -> RunMetrics {
        self.settle_parked_stalls(self.now);
        let mut m = self.metrics.clone();
        m.cycles = self.now;
        m.ops_completed = self.ops_completed();
        let procs = P::procs(&self.arch);
        m.loads = procs.iter().map(|p| p.stats().loads).sum();
        m.stores = procs.iter().map(|p| p.stats().stores).sum();
        m.misses = procs.iter().map(|p| p.stats().misses).sum();
        m.miss_wait_cycles = procs.iter().map(|p| p.stats().miss_wait_cycles).sum();
        self.protocol
            .collect_protocol_metrics(&self.arch, self.now, &mut m);
        m.checkpoints = self.safetynet.stats().checkpoints_taken;
        m.log_entries = self.safetynet.stats().entries_logged;
        m.log_stall_cycles = self.safetynet.stats().log_stall_cycles;
        m.faults_injected = self.fault_director.as_ref().map_or(0, FaultDirector::fires);
        m.mode_cycles = self.timeline.cycle_totals();
        self.metrics = m.clone();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::dirsys::DirectorySystem;
    use crate::snoopsys::{SnoopSystemConfig, SnoopingSystem};
    use specsim_base::{
        FaultConfig, FaultEvent, FaultSite, LinkBandwidth, ProtocolVariant, RoutingPolicy,
    };
    use specsim_workloads::WorkloadKind;

    fn dir_cfg() -> SystemConfig {
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 7);
        cfg.protocol = ProtocolVariant::Full;
        cfg.routing = RoutingPolicy::Static;
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        cfg
    }

    fn snoop_cfg() -> SnoopSystemConfig {
        let mut cfg = SnoopSystemConfig::new(WorkloadKind::Apache, ProtocolVariant::Full, 11);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_requests = 200;
        cfg
    }

    #[test]
    fn directory_engine_skips_idle_processors_without_losing_wakeups() {
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        let probe = sys.engine.probe();
        let dense_visits = 30_000 * 16;
        // The idle-skip machinery must actually skip: most cycles every
        // processor is mid-think or blocked on a miss.
        assert!(
            probe.processor_polls + probe.processor_skips <= dense_visits,
            "more visits than a dense scan"
        );
        assert!(
            probe.processor_polls < dense_visits / 2,
            "idle-skip is not skipping: {} polls",
            probe.processor_polls
        );
        assert!(probe.processor_skips > 0);
        // ... and wake-ups must never be lost: a missed wake-up leaves a
        // processor blocked forever, which surfaces as a transaction-timeout
        // recovery (and a throughput collapse).
        assert_eq!(m.recoveries, 0, "a lost wake-up would time out");
        assert!(m.ops_completed > 1_000);
    }

    #[test]
    fn snooping_engine_skips_idle_processors_without_losing_wakeups() {
        let mut sys = SnoopingSystem::new(snoop_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        let probe = sys.engine.probe();
        let dense_visits = 30_000 * 16;
        assert!(probe.processor_polls + probe.processor_skips <= dense_visits);
        assert!(
            probe.processor_polls < dense_visits / 2,
            "idle-skip is not skipping: {} polls",
            probe.processor_polls
        );
        assert!(probe.processor_skips > 0);
        assert_eq!(m.recoveries, 0, "a lost wake-up would time out");
        assert!(m.ops_completed > 1_000);
    }

    #[test]
    fn exchange_worklists_scan_active_nodes_not_all_nodes() {
        // The exchange-phase twin of the idle-skip test above: the
        // completion-delivery and outbox-pump sweeps are worklist-driven, so
        // a sparse run's visit counts stay proportional to nodes with actual
        // exchange work, not to cycles × nodes (the dense equivalent is
        // exactly one visit per node per cycle per sweep).
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        let probe = sys.engine.probe();
        let dense_visits = 30_000 * 16;
        assert!(
            probe.exchange_completion_visits < dense_visits / 2,
            "completion worklist is not sparse: {} visits vs {dense_visits} dense",
            probe.exchange_completion_visits
        );
        assert!(
            probe.exchange_outbox_visits < dense_visits / 2,
            "outbox worklist is not sparse: {} visits vs {dense_visits} dense",
            probe.exchange_outbox_visits
        );
        // ... but the worklists must not starve either: the run makes real
        // progress, which requires both sweeps to keep visiting busy nodes.
        assert!(probe.exchange_completion_visits > 0);
        assert!(probe.exchange_outbox_visits > 0);
        assert_eq!(m.recoveries, 0, "a dropped worklist entry would time out");
        assert!(m.ops_completed > 1_000);
    }

    #[test]
    fn recovery_stall_window_blocks_progress_until_resume() {
        // Shared engine invariant: between a recovery and its resume cycle
        // the machine makes no forward progress, then execution resumes.
        let mut cfg = dir_cfg();
        cfg.inject_recovery_every = Some(20_000);
        let mut sys = DirectorySystem::new(cfg);
        sys.run_for(20_001).expect("no protocol errors");
        assert_eq!(sys.collect_metrics().injected_recoveries, 1);
        let ops_at_recovery = sys.ops_completed();
        // The recovery latency is >1000 cycles (register restore + state
        // restore); during the first 500 of them nothing commits.
        sys.run_for(500).expect("no protocol errors");
        assert_eq!(
            sys.ops_completed(),
            ops_at_recovery,
            "work committed during the recovery stall window"
        );
        // The next injected recovery is at 40 000; up to there execution
        // resumes normally once the stall window ends.
        sys.run_for(10_000).expect("no protocol errors");
        assert!(
            sys.ops_completed() > ops_at_recovery,
            "execution did not resume after the stall window"
        );
    }

    #[test]
    fn staged_outbox_releases_ripe_messages_in_fifo_order() {
        let mut ob: StagedOutbox<u32> = StagedOutbox::default();
        assert!(ob.is_empty());
        ob.stage(10, 1);
        ob.stage(10, 2);
        ob.stage(20, 3);
        assert_eq!(ob.len(), 3);
        // Nothing ripe yet.
        let mut sent = Vec::new();
        ob.pump(5, |m| {
            sent.push(m);
            true
        });
        assert!(sent.is_empty());
        // The first two are ripe at 10; the third stays staged.
        ob.pump(10, |m| {
            sent.push(m);
            true
        });
        assert_eq!(sent, vec![1, 2]);
        assert_eq!(ob.len(), 1);
        // Back-pressure holds the message in place...
        ob.pump(25, |_| false);
        assert_eq!(ob.len(), 1);
        // ...until the fabric accepts it.
        ob.pump(25, |m| {
            sent.push(m);
            true
        });
        assert_eq!(sent, vec![1, 2, 3]);
        assert!(ob.is_empty());
    }

    #[test]
    fn staged_outbox_stops_at_the_first_unripe_message() {
        // FIFO release: a ripe message behind an unripe one must wait
        // (per-source protocol order is preserved).
        let mut ob: StagedOutbox<u32> = StagedOutbox::default();
        ob.stage(100, 1);
        ob.stage(50, 2);
        let mut sent = Vec::new();
        ob.pump(60, |m| {
            sent.push(m);
            true
        });
        assert!(sent.is_empty(), "message 2 must wait behind message 1");
        ob.pump(100, |m| {
            sent.push(m);
            true
        });
        assert_eq!(sent, vec![1, 2]);
    }

    /// One `kind` fault armed on each of `node`'s four outgoing links at
    /// cycle `at` (any virtual network), so the test does not depend on the
    /// routing function's direction choice.
    fn link_plan(at: Cycle, node: usize, kind: FaultKind, param: u64) -> FaultPlan {
        FaultPlan {
            events: (0..4)
                .map(|dir| FaultEvent {
                    at,
                    site: FaultSite::Link {
                        node,
                        dir,
                        vnet: None,
                    },
                    kind,
                    param,
                })
                .collect(),
        }
    }

    #[test]
    fn injected_drop_fault_is_classified_and_recovered() {
        let mut cfg = dir_cfg();
        cfg.fault_config = FaultConfig::Explicit(link_plan(1_000, 0, FaultKind::Drop, 0));
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(80_000).expect("no protocol errors");
        assert!(m.faults_injected >= 1, "the drop never fired");
        assert!(
            m.fault_recoveries >= 1,
            "a lost message must surface as a classified fault recovery"
        );
        assert_eq!(
            m.faults_detected(),
            m.fault_recoveries,
            "every detected fault recovers exactly once"
        );
        // Detection is the transaction timeout: latency is bounded by the
        // attribution window.
        let timeout = 3.0 * 5_000.0;
        assert!(m.mean_fault_detection_latency() <= 2.0 * timeout);
        // Re-execution with the fault suppressed makes forward progress and
        // ends coherent.
        assert!(m.ops_completed > 1_000);
        sys.verify_coherence()
            .expect("coherent after fault recovery");
    }

    #[test]
    fn corrupt_fault_is_caught_at_ingest_not_by_the_timeout() {
        let mut cfg = dir_cfg();
        cfg.fault_config = FaultConfig::Explicit(link_plan(1_000, 0, FaultKind::Corrupt, 0));
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(60_000).expect("no protocol errors");
        assert!(m.fault_recoveries >= 1, "checksum detection must recover");
        // The checksum model catches the damaged message when it is ingested,
        // so detection latency is transit time — far below the 15 000-cycle
        // transaction timeout.
        assert!(
            m.mean_fault_detection_latency() < 5_000.0,
            "corrupt messages must be caught at ingest, got {} cycles",
            m.mean_fault_detection_latency()
        );
        sys.verify_coherence()
            .expect("coherent after fault recovery");
    }

    #[test]
    fn back_to_back_faults_are_two_recoveries_not_one_episode() {
        // Satellite of the fault subsystem: recovery clears the fault
        // evidence and the timeout anchor, so a second injected fault after
        // the first recovery is a fresh detect→rollback episode (and the
        // director, living outside the checkpointed state, never re-fires the
        // first fault during re-execution).
        let mut cfg = dir_cfg();
        let mut plan = link_plan(1_000, 0, FaultKind::Drop, 0);
        plan.events
            .extend(link_plan(45_000, 0, FaultKind::Drop, 0).events);
        cfg.fault_config = FaultConfig::Explicit(plan);
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(100_000).expect("no protocol errors");
        assert!(
            m.fault_recoveries >= 2,
            "each fault episode must be detected and recovered separately, got {}",
            m.fault_recoveries
        );
        assert_eq!(m.faults_detected(), m.fault_recoveries);
        sys.verify_coherence()
            .expect("coherent after fault recoveries");
    }

    #[test]
    fn snooping_data_torus_fault_recovers_through_the_timeout() {
        let mut cfg = snoop_cfg();
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        // Shorten the post-recovery slow-start so the re-execution reaches
        // full speed inside the test horizon.
        cfg.forward_progress.slow_start_cycles = 20_000;
        cfg.fault_config = FaultConfig::Explicit(link_plan(1_000, 0, FaultKind::Drop, 0));
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(80_000).expect("no protocol errors");
        assert!(m.faults_injected >= 1, "the drop never fired");
        assert!(
            m.fault_recoveries >= 1,
            "a lost data message must surface as a classified fault recovery"
        );
        assert!(m.ops_completed > 1_000);
        sys.verify_coherence()
            .expect("coherent after fault recovery");
    }

    #[test]
    fn fault_free_runs_ignore_the_fault_machinery() {
        // A disabled fault config must leave the engine without a director
        // and the metrics at zero (the goldens rely on this being inert).
        let sys = DirectorySystem::new(dir_cfg());
        assert!(sys.engine.fault_director().is_none());
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert_eq!(m.faults_injected, 0);
        assert_eq!(m.fault_recoveries, 0);
        assert_eq!(m.faults_detected(), 0);
    }

    #[test]
    fn measured_characterization_rate_is_guarded_against_zero_exposure() {
        let m = MeasuredCharacterization::default();
        assert_eq!(m.misspeculation_rate(), 0.0);
        let m = MeasuredCharacterization {
            exposure_events: 1000,
            misspeculations: 2,
            ..Default::default()
        };
        assert!((m.misspeculation_rate() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn mode_timeline_accounts_for_every_cycle_and_transitions_chain() {
        // Drive the machine through real mode churn (injected recoveries →
        // rollback windows → slow-start) and check the always-on timeline's
        // invariants: every simulated cycle lands in exactly one mode, the
        // fractions sum to one, and the transition list chains.
        let mut cfg = dir_cfg();
        cfg.inject_recovery_every = Some(20_000);
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(90_000).expect("no protocol errors");
        assert!(m.recoveries + m.injected_recoveries > 0, "no mode churn");

        let tl = sys.mode_timeline();
        assert_eq!(
            tl.total_cycles(),
            m.cycles,
            "cycles leaked from the timeline"
        );
        assert_eq!(tl.cycle_totals().iter().sum::<u64>(), m.cycles);
        let frac_sum: f64 = specsim_base::ALL_ENGINE_MODES
            .iter()
            .map(|&mode| tl.fraction(mode))
            .sum();
        assert!(
            (frac_sum - 1.0).abs() < 1e-12,
            "fractions sum to {frac_sum}"
        );
        // RunMetrics carries the same accounting.
        assert_eq!(m.mode_cycles, tl.cycle_totals());
        let m_frac_sum = m.normal_frac()
            + m.slow_start_frac()
            + m.rollback_frac()
            + m.mode_fraction(specsim_base::EngineMode::AdaptiveDegraded)
            + m.mode_fraction(specsim_base::EngineMode::ReservedSlots);
        assert!((m_frac_sum - 1.0).abs() < 1e-12);
        // Rollback windows actually show up as unavailable cycles.
        assert!(tl.cycles_in(specsim_base::EngineMode::Rollback) > 0);
        assert!(m.rollback_frac() > 0.0 && m.normal_frac() < 1.0);
        // Transitions chain: each one starts where the previous ended, and
        // none is a self-transition.
        let transitions = tl.transitions();
        assert!(!transitions.is_empty());
        let mut prev = specsim_base::EngineMode::Normal;
        let mut prev_at = 0;
        for t in transitions {
            assert_eq!(t.from, prev, "broken chain at cycle {}", t.at);
            assert_ne!(t.from, t.to, "self-transition at cycle {}", t.at);
            assert!(t.at >= prev_at, "transitions out of order");
            prev = t.to;
            prev_at = t.at;
        }
        // Spans tile the run: inclusive, contiguous, covering cycles 1..=now.
        let spans = tl.spans(sys.now());
        let covered: u64 = spans.iter().map(|(start, end, _)| end - start + 1).sum();
        assert_eq!(spans[0].0, 1);
        assert_eq!(covered, sys.now());
        for w in spans.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "spans must be contiguous");
        }
    }

    #[test]
    fn fault_free_timeline_is_all_normal() {
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert_eq!(m.recoveries, 0);
        assert_eq!(m.normal_frac(), 1.0);
        assert_eq!(m.rollback_frac(), 0.0);
        assert!(sys.mode_timeline().transitions().is_empty());
    }

    #[test]
    fn window_link_utilizations_average_to_the_run_utilization() {
        // The sampler differences the fabric's link-busy counter per window;
        // over whole windows the mean of the window utilizations is the
        // run's utilization. The slow 400 MB/s machine fast-forwards part of
        // its cycles, so the windows straddle bulk-settled spans. (A
        // recovery would roll the counter back with the fabric, so the run
        // stays recovery-free.)
        let window = 5_000;
        let mut cfg = dir_cfg()
            .with_telemetry(TelemetryConfig::windowed(window))
            .with_workers_pinned(1);
        cfg.memory.link_bandwidth = LinkBandwidth::MB_400;
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(12 * window).expect("no protocol errors");
        assert_eq!(m.recoveries, 0);
        let skipped = sys.engine.probe().fast_forward_cycles;
        assert!(skipped > 1_000, "only {skipped} cycles fast-forwarded");
        let samples = sys.engine.telemetry().expect("sampler on").samples();
        assert_eq!(samples.len(), 12);
        assert!(samples.iter().any(|s| s.link_utilization > 0.0));
        assert!(samples.iter().all(|s| s.link_utilization < 1.0));
        let mean = samples.iter().map(|s| s.link_utilization).sum::<f64>() / 12.0;
        assert!(m.link_utilization > 0.0);
        assert!(
            (mean - m.link_utilization).abs() < 1e-12,
            "windows average to {mean}, the run to {}",
            m.link_utilization
        );
    }

    #[test]
    fn telemetry_recorder_is_purely_observational() {
        // The same configuration with the recorder on and off must produce
        // byte-identical metrics: telemetry never perturbs the schedule.
        let mut cfg = dir_cfg();
        cfg.inject_recovery_every = Some(10_000);
        let mut plain = DirectorySystem::new(cfg.clone());
        let m_plain = plain.run_for(40_000).expect("no protocol errors");
        let instrumented_cfg = cfg.with_telemetry(specsim_base::TelemetryConfig::windowed(1_000));
        let mut instrumented = DirectorySystem::new(instrumented_cfg);
        let m_inst = instrumented.run_for(40_000).expect("no protocol errors");
        assert_eq!(format!("{m_plain:?}"), format!("{m_inst:?}"));
        // ... and the instrumented run actually recorded.
        let jsonl = instrumented.telemetry_jsonl().expect("recorder installed");
        assert_eq!(jsonl.lines().count(), 40);
        let trace = instrumented.telemetry_trace().expect("recorder installed");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("rollback"));
        assert!(plain.telemetry_jsonl().is_none());
    }
}
