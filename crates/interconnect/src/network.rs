//! The assembled torus network: injection, cycle-by-cycle switching,
//! delivery, ordering accounting and recovery draining.
//!
//! # Active-set kernel
//!
//! The per-cycle work is driven by worklists instead of exhaustive scans:
//!
//! * **Forwarding** visits only switches on an [`ActiveSet`] worklist. A
//!   switch is on the worklist iff it holds at least one queued packet
//!   (injection, link delivery and forwarding maintain per-port and
//!   per-switch queue counters incrementally). Fairness is unchanged: the
//!   per-cycle rotation and the per-switch/per-port round-robin pointers
//!   advance exactly as in the exhaustive scan, so the packet schedule — and
//!   therefore every metric — is bit-identical.
//! * **Link delivery** pops ripe arrivals from a due-cycle calendar
//!   (`ArrivalCalendar`, a ring-buffer timing wheel whose buckets and batch
//!   scratch space are reused, so steady-state delivery allocates nothing)
//!   instead of polling every link every cycle. Within one link arrivals are
//!   FIFO with non-decreasing due cycles, and arrivals on different links
//!   land in different buffers, so delivery state is independent of the
//!   order the calendar drains a cycle's batch in.
//! * **Switch sleep.** A switch whose visit moves nothing, and whose every
//!   queued head waited only on a busy output link, leaves the worklist and
//!   sleeps until the earliest of those links frees. Only the switch's own
//!   moves set its links' `busy_until`, and a visit that moves nothing
//!   mutates nothing, so no visit before that cycle could move a packet
//!   unless a new one reaches the switch: a link arrival or an injection
//!   wakes it at once, and otherwise a wake entry in the arrival calendar
//!   puts it back on the worklist before the forward phase of its wake
//!   cycle. The calendar is thus the single due-cycle index of the fabric,
//!   and [`Network::next_due`] reads a network whose only queued packets sit
//!   behind serializing links as idle until the first link frees.
//!
//! # Struct-of-arrays layout
//!
//! All per-switch state lives in one flat `SwitchSlab` (contiguous
//! per-port queue/credit/occupancy rows, see [`crate::switch`]) and packet
//! payloads live in a [`PacketArena`]; queues and link pipelines move dense
//! `u32` packet ids.
//! The forward kernel therefore walks cache-friendly rows instead of
//! chasing per-switch allocations, and a packet is copied zero times
//! between injection and ejection.
//!
//! # Parallel forwarding
//!
//! When [`Network::tick_with_pool`] (or the faulted variant) is handed a
//! [`WorkerPool`] with more than one thread, the forward phase of a
//! sufficiently busy, fault-free, unpooled cycle fans the active switches
//! out over the pool. Correctness rests on a dependency DAG: two *active*
//! neighbouring switches read and write overlapping slab rows, so they are
//! ordered by their serial visit positions; non-adjacent switches touch
//! disjoint rows (a hop writes only the sending switch, plus the credit
//! column of the one downstream port that faces it). Workers execute the
//! DAG as a wavefront; schedule-order effects (ordering tracker, stats,
//! arrival calendar, worklist removals, switch sleep) are staged per switch
//! and merged in exact serial visit order afterwards, so the schedule, the
//! sleeping switches and every golden digest are byte-identical to the
//! serial path.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering as AtomicOrdering};

use specsim_base::{
    ActiveSet, Cycle, CycleDelta, FaultDirector, FaultKind, MessageSize, MsgQueue, NodeId,
    RoutingPolicy, UtilizationTracker, WorkerPool,
};

use crate::config::{BufferLayout, NetConfig};
use crate::deadlock::ProgressWatchdog;
use crate::ordering::OrderingTracker;
use crate::packet::{Packet, PacketArena, PacketTaint, VirtualNetwork};
use crate::pool::SlotPool;
use crate::routing::route_candidates;
use crate::stats::NetStats;
use crate::switch::{InTransit, SwitchSlab, UNBOUNDED};
use crate::topology::{Direction, Torus, LINK_DIRECTIONS};

/// Ports of a switch in index order (the four link directions plus Local).
const ALL_PORTS: [Direction; 5] = [
    Direction::East,
    Direction::West,
    Direction::North,
    Direction::South,
    Direction::Local,
];

/// Fewest active switches for which the parallel forward path is engaged;
/// below this the DAG build costs more than it saves and the serial cursor
/// walk (byte-identical by construction) runs instead.
const PARALLEL_FORWARD_MIN_ACTIVE: usize = 8;

/// Error returned by [`Network::inject`] when the source injection queue is
/// full; carries the payload back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectError<P>(pub P);

/// A planned packet movement inside one switch, produced by the read-only
/// planning pass and executed by the mutating pass.
#[derive(Debug, Clone, Copy)]
struct MoveDecision {
    buffer: usize,
    action: MoveAction,
}

#[derive(Debug, Clone, Copy)]
enum MoveAction {
    Eject {
        queue: usize,
    },
    Forward {
        dir: Direction,
        /// Global slab buffer-slot index at the downstream switch.
        target_slot: usize,
        serialization: CycleDelta,
    },
}

/// Why the heads of a switch visit stayed put. The planning pass records,
/// for every head it fails to move, whether it waited only on busy output
/// links (and when the earliest of them frees) or on anything else:
/// downstream buffer space, pool slots or ejection space.
#[derive(Debug, Clone, Copy)]
struct Blockage {
    /// Earliest `busy_until` over the busy output links tried
    /// (`Cycle::MAX` when none was tried).
    link_free_at: Cycle,
    /// Whether some head failed on something other than a busy link.
    other: bool,
}

impl Blockage {
    const NONE: Self = Self {
        link_free_at: Cycle::MAX,
        other: false,
    };

    fn busy_link(&mut self, busy_until: Cycle) {
        self.link_free_at = self.link_free_at.min(busy_until);
    }

    /// The cycle a switch whose visit moved nothing may sleep until: `Some`
    /// only when every head it tried waited on a busy output link.
    fn wake_cycle(self) -> Option<Cycle> {
        (!self.other && self.link_free_at != Cycle::MAX).then_some(self.link_free_at)
    }
}

/// Direction byte of an [`ArrivalCalendar`] entry that wakes a sleeping
/// switch instead of delivering a link arrival.
const WAKE: u8 = u8::MAX;

/// Minimum number of buckets in an [`ArrivalCalendar`]'s timing wheel
/// (always a power of two). Each calendar is sized at construction from the network's
/// own scheduling horizon (data-message serialization plus switch pipeline
/// latency — see [`ArrivalCalendar::with_horizon`]) so slow links never park
/// every steady-state arrival in the overflow map; this constant is the
/// floor. Rarer horizons (fault-injected delays) still spill into overflow.
const MIN_WHEEL_BUCKETS: usize = 1024;

/// Due-cycle index over every in-transit link arrival and every sleeping
/// switch's wake-up: the entries for cycle `c` list the `(switch, link
/// direction)` pairs whose front in-transit entry arrives at `c`, and the
/// `(switch, WAKE)` pairs of switches due to wake at `c`. `deliver_phase`
/// pops only ripe batches instead of polling all `4 × num_nodes` links every
/// cycle. A wake entry is a hint: the switch may have been woken (and put to
/// sleep again) since, so `deliver_phase` re-validates it against the
/// switch's current wake cycle.
///
/// The index is a **ring-buffer timing wheel**: cycle `c` lives in bucket
/// `c % buckets`, and buckets are drained in place
/// ([`Vec::drain`] keeps their allocation), so steady-state scheduling
/// allocates nothing — unlike the `BTreeMap<Cycle, Vec>` predecessor, which
/// allocated one fresh `Vec` per distinct due cycle. Arrivals beyond the
/// wheel horizon (possible only with links slower than the Table 2 range)
/// spill into a `BTreeMap` overflow. `next` is the lowest cycle not yet
/// drained; because `next` is monotone and an entry overflows only when its
/// cycle is at least one full wheel lap past `next`, all overflow entries for a
/// cycle were scheduled before all wheel entries for it — draining
/// overflow-first preserves exact schedule order.
///
/// The calendar also keeps its earliest due cycle exact (`earliest`), so an
/// idle tick and the engine's quiescence check both read it in O(1). Every
/// wheel entry lies in `[next, next + lap)`, so each bucket holds at most one
/// cycle's entries and the rescan after a drained batch walks forward to the
/// first non-empty bucket; consecutive rescans cover disjoint cycle ranges,
/// so their total cost is bounded by the simulated span.
#[derive(Debug, Clone)]
struct ArrivalCalendar {
    wheel: Vec<Vec<(u32, u8)>>,
    overflow: BTreeMap<Cycle, Vec<(u32, u8)>>,
    /// Lowest cycle not yet drained. Arrivals are always scheduled at or
    /// after it (`pop_ripe_into` runs first in every tick and leaves it at
    /// `now + 1` once nothing more is ripe).
    next: Cycle,
    /// Entries currently in the wheel (the rest are in `overflow`).
    in_wheel: usize,
    /// Due cycle of the earliest indexed entry (`Cycle::MAX` when empty).
    earliest: Cycle,
}

impl Default for ArrivalCalendar {
    fn default() -> Self {
        Self::with_horizon(0)
    }
}

impl ArrivalCalendar {
    /// Builds a calendar whose wheel covers at least `horizon` cycles of
    /// look-ahead: the bucket count is `horizon + 1` rounded up to a power
    /// of two, floored at [`MIN_WHEEL_BUCKETS`]. Callers pass the longest
    /// *common* scheduling distance (serialization of the largest message
    /// plus switch latency); anything rarer overflows into the map.
    fn with_horizon(horizon: Cycle) -> Self {
        let buckets = (horizon as usize + 1)
            .next_power_of_two()
            .max(MIN_WHEEL_BUCKETS);
        Self {
            wheel: vec![Vec::new(); buckets],
            overflow: BTreeMap::new(),
            next: 0,
            in_wheel: 0,
            earliest: Cycle::MAX,
        }
    }

    fn bucket_of(&self, cycle: Cycle) -> usize {
        (cycle as usize) & (self.wheel.len() - 1)
    }

    fn schedule(&mut self, arrival: Cycle, switch: usize, dir: usize) {
        debug_assert!(
            arrival >= self.next,
            "arrival {arrival} scheduled behind the drain cursor {}",
            self.next
        );
        let entry = (switch as u32, dir as u8);
        if arrival - self.next < self.wheel.len() as Cycle {
            let b = self.bucket_of(arrival);
            self.wheel[b].push(entry);
            self.in_wheel += 1;
        } else {
            self.overflow.entry(arrival).or_default().push(entry);
        }
        self.earliest = self.earliest.min(arrival);
    }

    /// Due cycle of the earliest pending arrival (`Cycle::MAX` when none).
    fn next_due(&self) -> Cycle {
        self.earliest
    }

    /// Fills `out` with the earliest batch due at or before `now` (replacing
    /// its contents, keeping its allocation) and returns `true`, or returns
    /// `false` when nothing is ripe. Within a batch, entries come out in
    /// schedule order.
    fn pop_ripe_into(&mut self, now: Cycle, out: &mut Vec<(u32, u8)>) -> bool {
        out.clear();
        if self.earliest > now {
            // Nothing ripe: the cursor catches up with the present, so the
            // wheel horizon always starts there when traffic resumes.
            self.next = now + 1;
            return false;
        }
        let cycle = self.earliest;
        if let Some(far) = self.overflow.remove(&cycle) {
            out.extend_from_slice(&far);
        }
        // `append` empties the bucket while keeping its allocation.
        let b = self.bucket_of(cycle);
        self.in_wheel -= self.wheel[b].len();
        out.append(&mut self.wheel[b]);
        self.next = cycle + 1;
        self.rescan_earliest();
        true
    }

    /// Recomputes `earliest` after a batch was drained (see the type docs
    /// for why the forward walk is bounded).
    fn rescan_earliest(&mut self) {
        let far = self
            .overflow
            .first_key_value()
            .map_or(Cycle::MAX, |(&c, _)| c);
        self.earliest = far;
        if self.in_wheel == 0 {
            return;
        }
        let end = far.min(self.next + self.wheel.len() as Cycle);
        for cycle in self.next..end {
            if !self.wheel[self.bucket_of(cycle)].is_empty() {
                self.earliest = cycle;
                return;
            }
        }
    }

    /// Settles idle drains through cycle `last` (nothing is due by then):
    /// the cursor ends where `last`'s drain would have left it.
    fn skip_through(&mut self, last: Cycle) {
        debug_assert!(self.earliest > last, "skipped a ripe arrival");
        self.next = last + 1;
    }

    fn clear(&mut self) {
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        self.overflow.clear();
        self.in_wheel = 0;
        self.earliest = Cycle::MAX;
    }
}

/// Forward-phase instrumentation counters, cumulative over the network's
/// lifetime. These never feed back into the schedule (they are not part of
/// [`NetStats`]), so serial and parallel runs of the same workload report
/// identical simulation digests while this probe records how the work was
/// executed. Sleeping switches are not visited, so `switch_visits` counts
/// only visits to switches that could move a packet or had not yet shown
/// that they could not. The counters are execution state, not simulation
/// state: a system that restores a checkpointed network carries the live
/// probe across ([`Network::carry_forward_probe`]), so it never decreases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardProbe {
    /// Switches visited by the forward phase (serial or parallel).
    pub switch_visits: u64,
    /// Cycles whose forward phase ran on the worker pool.
    pub parallel_phases: u64,
    /// Switch tasks executed inside parallel phases.
    pub parallel_tasks: u64,
    /// Sum over parallel phases of the dependency-DAG critical-path length
    /// (the longest chain of adjacent active switches). A deterministic
    /// imbalance measure: phases whose critical path approaches their task
    /// count parallelize poorly regardless of worker count.
    pub critical_path_sum: u64,
}

/// Per-task staging area for schedule-order side effects of the parallel
/// forward phase. Workers append here during the wavefront; the merge pass
/// drains every task in serial visit order, so the globally ordered
/// structures (ordering tracker, stats, arrival calendar, worklists)
/// observe exactly the serial sequence.
#[derive(Debug, Default)]
struct TaskEffects {
    /// Ejected packets: `(src, dst, vnet, seq, latency)` in ejection order.
    deliveries: Vec<(NodeId, NodeId, VirtualNetwork, u64, Cycle)>,
    /// Link arrivals to schedule: `(arrival, switch, direction)` in order.
    arrivals: Vec<(Cycle, u32, u8)>,
    /// Packets moved into this node's ejection queues.
    ejected: u32,
    /// Link hops performed.
    hops: u32,
    /// Whether any packet moved (watchdog progress).
    progress: bool,
    /// Whether the switch drained to zero queued packets.
    deactivate: bool,
    /// Cycle the switch sleeps until, when its visit moved nothing and
    /// every head waited on a busy output link.
    sleep: Option<Cycle>,
}

/// Reusable buffers for the parallel forward phase (visit-order snapshot,
/// dependency DAG, wavefront queue, per-task staging). Holds no simulation
/// state between phases.
#[derive(Debug, Default)]
struct ParForwardScratch {
    /// Active switches in serial visit order.
    order: Vec<u32>,
    /// Inverse of `order` (`u32::MAX` = not active this phase); length
    /// `num_nodes`, reset after each phase.
    visit_pos: Vec<u32>,
    /// Successor task positions (padding `u32::MAX`).
    succ: Vec<[u32; 4]>,
    /// Longest predecessor chain ending at each task (critical-path probe).
    depth: Vec<u32>,
    /// Unfinished-predecessor counts, decremented by workers.
    indeg: Vec<AtomicU32>,
    /// Wavefront slots: slot `k` holds the `k`-th task to become runnable
    /// (`u32::MAX` until published).
    ready: Vec<AtomicU32>,
    /// Per-task staged side effects.
    stage: Vec<TaskEffects>,
}

impl Clone for ParForwardScratch {
    fn clone(&self) -> Self {
        // Scratch carries no state between phases; checkpoint clones of the
        // network start with an empty scratch.
        Self::default()
    }
}

/// Raw-pointer view of the slab rows, arena and staging area that the
/// parallel forward workers touch. Safety rests on the dependency DAG: a
/// task writes only its own switch's rows (queues, round-robin and queue
/// counters, link state, ejection queues) plus the `reserved` credit column
/// of the downstream buffer slots that face it — slots no other
/// concurrently-running task can reach, because tasks of adjacent active
/// switches are ordered by the DAG and every port of a switch faces exactly
/// one neighbour. The arena is read-only during the phase (faults, the only
/// writers of in-fabric packets, disable the parallel path).
struct ParShared<P> {
    queues: *mut VecDeque<u32>,
    reserved: *mut u32,
    cap: *const u32,
    rr_next: *mut u32,
    queued: *mut u32,
    queued_total: *mut u32,
    busy_until: *mut Cycle,
    in_transit: *mut VecDeque<InTransit>,
    util: *mut UtilizationTracker,
    arena: *const PacketArena<P>,
    eject: *mut Vec<MsgQueue<u32>>,
    eject_pending: *mut usize,
    stage: *mut TaskEffects,
    bpp: usize,
}

unsafe impl<P: Sync> Sync for ParShared<P> {}

/// A 2D-torus interconnection network carrying packets with payload type `P`.
///
/// The network is advanced by calling [`Network::tick`] once per cycle.
/// Endpoints interact with it only through [`Network::inject`] and the
/// ejection-queue accessors; everything in between (switch arbitration, link
/// serialization, virtual-channel flow control, routing) is internal.
#[derive(Debug, Clone)]
pub struct Network<P> {
    torus: Torus,
    cfg: NetConfig,
    layout: BufferLayout,
    routing: RoutingPolicy,
    /// All per-switch state, flattened into contiguous arrays.
    slab: SwitchSlab,
    /// Packet payloads, indexed by the dense ids the slab queues hold.
    arena: PacketArena<P>,
    eject: Vec<Vec<MsgQueue<u32>>>,
    eject_rr: Vec<usize>,
    /// Messages currently waiting in each node's ejection queues (incremental
    /// mirror of the queue lengths; lets endpoints skip idle nodes in O(1)).
    eject_pending: Vec<usize>,
    /// Worklist of nodes with `eject_pending > 0`, so endpoint ingest can
    /// walk only the nodes holding deliverable packets instead of scanning
    /// all `num_nodes` every cycle.
    eject_active: ActiveSet,
    ordering: OrderingTracker,
    stats: NetStats,
    watchdog: ProgressWatchdog,
    /// Per-node shared slot pools ([`specsim_base::BufferPolicy::SharedPool`]
    /// only; `None` in virtual-network provisioning, whose behavior this
    /// leaves bit-identical). A node's pool covers its switch input-port
    /// buffers (including the injection port) and its ejection queues: a slot
    /// is taken at injection or when a hop reserves downstream space, moves
    /// with the packet from node to node, and is freed when the endpoint
    /// drains the packet from an ejection queue. When the budget is split
    /// ([`NetConfig::pool_split`]), these pools cover only the switch side
    /// (input-port buffers and in-transit link reservations) and
    /// [`Network::endpoint_pools`] covers the ejection queues.
    pools: Option<Vec<SlotPool>>,
    /// Per-node endpoint slot pools, present only under a split budget: an
    /// ejecting packet trades its switch slot for an endpoint slot, so
    /// ejection back-pressure and switch congestion stop sharing one budget.
    endpoint_pools: Option<Vec<SlotPool>>,
    /// Number of pools currently at full occupancy (incremental mirror;
    /// feeds the O(1) deadlock-evidence check [`Network::has_exhausted_pool`]).
    full_pools: usize,
    /// Number of endpoint pools at full occupancy (split budgets only).
    full_endpoint_pools: usize,
    in_flight: usize,
    /// Worklist of awake switches holding at least one queued packet.
    active: ActiveSet,
    /// Per switch, the cycle it sleeps until (`Cycle::MAX` = awake). A
    /// switch holding queued packets is either on `active` or sleeping,
    /// never both (see the module docs).
    wake_at: Vec<Cycle>,
    /// Due-cycle index over in-transit link arrivals and sleeper wake-ups.
    arrivals: ArrivalCalendar,
    /// Reusable batch buffer for draining the calendar (the wheel's buckets
    /// and this scratch space together make steady-state delivery
    /// allocation-free).
    arrival_scratch: Vec<(u32, u8)>,
    /// Forwarding rounds executed so far. Every switch's port round-robin
    /// pointer advances by exactly one per round whether or not the switch
    /// moved anything, so the per-switch pointer of the old exhaustive scan
    /// is equivalent to this single shared counter (mod the port count).
    forward_rounds: u64,
    /// Forward-phase execution counters (not part of [`NetStats`]).
    forward_probe: ForwardProbe,
    /// Parallel-phase scratch (allocations reused across cycles).
    par_scratch: ParForwardScratch,
}

impl<P> Network<P> {
    /// Builds a network from a configuration.
    #[must_use]
    pub fn new(cfg: NetConfig) -> Self {
        let torus = match cfg.torus_dims {
            Some((w, h)) => {
                assert_eq!(
                    w * h,
                    cfg.num_nodes,
                    "torus_dims {w}x{h} does not cover num_nodes = {}",
                    cfg.num_nodes
                );
                Torus::rectangular(w, h)
            }
            None => Torus::new(cfg.num_nodes),
        };
        let layout = cfg.layout();
        let (pools, endpoint_pools) = match cfg.pool_split() {
            Some((switch_slots, endpoint_slots)) => (
                Some(vec![SlotPool::new(switch_slots); cfg.num_nodes]),
                Some(vec![SlotPool::new(endpoint_slots); cfg.num_nodes]),
            ),
            None => (
                cfg.pool_slots()
                    .map(|slots| vec![SlotPool::new(slots); cfg.num_nodes]),
                None,
            ),
        };
        let pooled = pools.is_some();
        let slab = SwitchSlab::new(cfg.num_nodes, &layout, pooled);
        let eject = (0..cfg.num_nodes)
            .map(|_| {
                (0..layout.ejection_queues())
                    .map(|_| match layout.ejection_capacity().filter(|_| !pooled) {
                        Some(c) => MsgQueue::bounded(c),
                        None => MsgQueue::unbounded(),
                    })
                    .collect()
            })
            .collect();
        let num_links = 4 * cfg.num_nodes;
        let routing = cfg.routing;
        Self {
            torus,
            layout,
            routing,
            slab,
            arena: PacketArena::new(),
            eject,
            eject_rr: vec![0; cfg.num_nodes],
            eject_pending: vec![0; cfg.num_nodes],
            eject_active: ActiveSet::new(cfg.num_nodes),
            ordering: OrderingTracker::new(),
            stats: NetStats::new(num_links),
            watchdog: ProgressWatchdog::new(cfg.stall_threshold),
            pools,
            endpoint_pools,
            full_pools: 0,
            full_endpoint_pools: 0,
            in_flight: 0,
            active: ActiveSet::new(cfg.num_nodes),
            wake_at: vec![Cycle::MAX; cfg.num_nodes],
            // The longest common scheduling distance is a data message's
            // serialization plus the switch pipeline; sizing the wheel to
            // cover it keeps steady-state traffic out of the overflow map
            // even on slow (or custom slower-than-Table-2) links.
            arrivals: ArrivalCalendar::with_horizon(
                cfg.link_bandwidth
                    .serialization_cycles(specsim_base::DATA_MSG_BYTES)
                    + cfg.switch_latency,
            ),
            arrival_scratch: Vec::new(),
            forward_rounds: 0,
            forward_probe: ForwardProbe::default(),
            par_scratch: ParForwardScratch::default(),
            cfg,
        }
    }

    /// Number of nodes (and switches).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.cfg.num_nodes
    }

    /// The topology object (for distance queries in tests and experiments).
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The routing policy currently in force.
    #[must_use]
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// Changes the routing policy at runtime. This is the forward-progress
    /// knob of Section 3.1: after a recovery the system "selectively
    /// disable\[s\] adaptive routing during re-execution". A change wakes
    /// every sleeping switch: the new policy may route its heads over links
    /// it did not try.
    pub fn set_routing(&mut self, routing: RoutingPolicy) {
        if routing != self.routing {
            for i in 0..self.wake_at.len() {
                if self.wake_at[i] != Cycle::MAX {
                    self.wake(i);
                }
            }
        }
        self.routing = routing;
    }

    /// True when this network provisions buffers from shared per-node slot
    /// pools (the speculative Section 4 design, in which deadlock is
    /// possible).
    #[must_use]
    pub fn is_pooled(&self) -> bool {
        self.pools.is_some()
    }

    /// True when this network splits its slot budget between switch-side
    /// and endpoint-side pools ([`NetConfig::pool_split`]).
    #[must_use]
    pub fn is_pool_split(&self) -> bool {
        self.endpoint_pools.is_some()
    }

    /// Installs a per-virtual-network reservation of `r` slots in every
    /// node's pool (the conservative forward-progress mode applied during
    /// post-deadlock re-execution); `r = 0` returns to fully shared slots.
    /// Under a split budget the reservation applies to both sides.
    /// Returns `false` (and does nothing) when the network is not pooled.
    pub fn set_pool_reservation(&mut self, r: usize) -> bool {
        match &mut self.pools {
            Some(pools) => {
                for p in pools {
                    p.set_reservation(r);
                }
                if let Some(pools) = &mut self.endpoint_pools {
                    for p in pools {
                        p.set_reservation(r);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// The per-virtual-network reservation currently in force (`None` when
    /// the network is not pooled).
    #[must_use]
    pub fn pool_reservation(&self) -> Option<usize> {
        self.pools.as_ref().map(|p| p[0].reservation())
    }

    /// Per-node pool occupancy (held slots) of the switch-side pools, for
    /// diagnostics and tests. Empty when the network is not pooled.
    #[must_use]
    pub fn pool_occupancy_snapshot(&self) -> Vec<usize> {
        self.pools
            .as_ref()
            .map(|pools| pools.iter().map(SlotPool::occupancy).collect())
            .unwrap_or_default()
    }

    /// Per-node endpoint pool occupancy under a split budget. Empty when
    /// the budget is unified (or the network is unpooled).
    #[must_use]
    pub fn endpoint_pool_occupancy_snapshot(&self) -> Vec<usize> {
        self.endpoint_pools
            .as_ref()
            .map(|pools| pools.iter().map(SlotPool::occupancy).collect())
            .unwrap_or_default()
    }

    fn pool_can(&self, node: usize, vnet: VirtualNetwork) -> bool {
        self.pools
            .as_ref()
            .map_or(true, |p| p[node].can_acquire(vnet.index()))
    }

    fn pool_acquire(&mut self, node: usize, vnet: VirtualNetwork) {
        if let Some(pools) = &mut self.pools {
            pools[node].acquire(vnet.index());
            if pools[node].occupancy() == pools[node].total() {
                self.full_pools += 1;
            }
        }
    }

    fn pool_release(&mut self, node: usize, vnet: VirtualNetwork) {
        if let Some(pools) = &mut self.pools {
            if pools[node].occupancy() == pools[node].total() {
                self.full_pools -= 1;
            }
            pools[node].release(vnet.index());
        }
    }

    /// True when an ejection at `node` can take the slot it needs: under a
    /// split budget an ejecting packet trades its switch slot for an
    /// endpoint slot, so the endpoint pool must have room; under a unified
    /// budget the packet keeps the slot it already holds.
    fn endpoint_can(&self, node: usize, vnet: VirtualNetwork) -> bool {
        self.endpoint_pools
            .as_ref()
            .map_or(true, |p| p[node].can_acquire(vnet.index()))
    }

    fn endpoint_acquire(&mut self, node: usize, vnet: VirtualNetwork) {
        if let Some(pools) = &mut self.endpoint_pools {
            pools[node].acquire(vnet.index());
            if pools[node].occupancy() == pools[node].total() {
                self.full_endpoint_pools += 1;
            }
        }
    }

    fn endpoint_release(&mut self, node: usize, vnet: VirtualNetwork) {
        if let Some(pools) = &mut self.endpoint_pools {
            if pools[node].occupancy() == pools[node].total() {
                self.full_endpoint_pools -= 1;
            }
            pools[node].release(vnet.index());
        }
    }

    /// Frees the slot held by a packet leaving an ejection queue: the
    /// endpoint pool under a split budget, the unified pool otherwise.
    fn release_ejected_slot(&mut self, node: usize, vnet: VirtualNetwork) {
        if self.endpoint_pools.is_some() {
            self.endpoint_release(node, vnet);
        } else {
            self.pool_release(node, vnet);
        }
    }

    /// True when at least one node's shared pool (switch- or endpoint-side)
    /// is at full occupancy — the evidence that ties a coherence-transaction
    /// timeout to buffer exhaustion (a detected buffer-dependency deadlock)
    /// rather than plain latency. Always `false` for unpooled networks.
    #[must_use]
    pub fn has_exhausted_pool(&self) -> bool {
        self.full_pools > 0 || self.full_endpoint_pools > 0
    }

    /// True when a packet of class `vnet` can be injected at `src` this
    /// cycle.
    #[must_use]
    pub fn can_inject(&self, src: NodeId, vnet: VirtualNetwork) -> bool {
        let b = self.layout.injection_buffer_index(vnet);
        let s = self.slab.slot(src.index(), Direction::Local.index(), b);
        self.slab.has_space(s) && self.pool_can(src.index(), vnet)
    }

    /// Injects a packet. On success the packet is stamped with a sequence
    /// number and queued at the source switch's local port; on failure the
    /// payload is returned so the caller can retry later.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        vnet: VirtualNetwork,
        size: MessageSize,
        payload: P,
    ) -> Result<(), InjectError<P>> {
        if !self.can_inject(src, vnet) {
            self.stats.injection_rejects.incr();
            return Err(InjectError(payload));
        }
        let seq = self.ordering.stamp(src, dst, vnet);
        let packet = Packet {
            src,
            dst,
            vnet,
            size,
            seq,
            injected_at: now,
            taint: PacketTaint::Clean,
            payload,
        };
        let i = src.index();
        let b = self.layout.injection_buffer_index(vnet);
        let s = self.slab.slot(i, Direction::Local.index(), b);
        let id = self.arena.alloc(packet);
        self.slab
            .push(s, id)
            .unwrap_or_else(|()| panic!("injection space was checked"));
        self.slab.queued[SwitchSlab::port(i, Direction::Local.index())] += 1;
        self.slab.queued_total[i] += 1;
        self.pool_acquire(i, vnet);
        self.wake(i);
        self.stats.injected.incr();
        self.in_flight += 1;
        Ok(())
    }

    /// Advances the network by one cycle: first delivers link arrivals into
    /// downstream buffers, then lets every switch forward up to one packet
    /// per input port.
    pub fn tick(&mut self, now: Cycle)
    where
        P: Clone + Send + Sync,
    {
        self.tick_faulted_with_pool(now, None, None);
    }

    /// [`Network::tick`] with an optional worker pool: a sufficiently busy,
    /// fault-free, unpooled forward phase fans out over the pool's threads
    /// (byte-identical schedule — see the module docs). `None`, a
    /// single-threaded pool, or an idle cycle all take the serial path.
    pub fn tick_with_pool(&mut self, now: Cycle, pool: Option<&WorkerPool>)
    where
        P: Clone + Send + Sync,
    {
        self.tick_faulted_with_pool(now, None, pool);
    }

    /// [`Network::tick`] with an optional fault director. When present, the
    /// director's schedule is consulted at every link transmit (drop /
    /// duplicate / delay / corrupt), switch visit (stall / blackout window)
    /// and ejection (inbox-drop window). `None` is a strict no-op relative
    /// to [`Network::tick`] — the schedule stays bit-identical.
    pub fn tick_faulted(&mut self, now: Cycle, faults: Option<&mut FaultDirector>)
    where
        P: Clone + Send + Sync,
    {
        self.tick_faulted_with_pool(now, faults, None);
    }

    /// [`Network::tick_faulted`] with an optional worker pool (see
    /// [`Network::tick_with_pool`]). Cycles with an armed fault director
    /// always forward serially: faults mutate in-fabric packets and
    /// cross-switch state in ways the parallel dependency analysis does not
    /// cover, and faulted campaigns are never the performance path.
    pub fn tick_faulted_with_pool(
        &mut self,
        now: Cycle,
        mut faults: Option<&mut FaultDirector>,
        pool: Option<&WorkerPool>,
    ) where
        P: Clone + Send + Sync,
    {
        if let Some(f) = faults.as_deref_mut() {
            f.advance(now);
        }
        self.deliver_phase(now, faults.as_deref());
        self.forward_phase(now, faults, pool);
    }

    /// Forward-phase execution counters (how the work was run, not what it
    /// computed — identical workloads report identical [`NetStats`] however
    /// these counters split).
    #[must_use]
    pub fn forward_probe(&self) -> ForwardProbe {
        self.forward_probe
    }

    /// Takes over `live`'s forward-phase counters. A system that restores
    /// this network from a checkpoint calls it with the network being
    /// rolled back, so the probe keeps counting the work actually done
    /// instead of rewinding with the simulated state.
    pub fn carry_forward_probe(&mut self, live: &Self) {
        self.forward_probe = live.forward_probe;
    }

    /// Messages currently inside the network fabric (injected but not yet
    /// placed in an ejection queue).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total messages waiting in `node`'s ejection queues.
    #[must_use]
    pub fn ejection_len(&self, node: NodeId) -> usize {
        self.eject_pending[node.index()]
    }

    /// True when at least one delivered packet is waiting in `node`'s
    /// ejection queues. O(1); system layers use this to skip ingest polling
    /// for idle endpoints.
    #[must_use]
    pub fn has_ejectable(&self, node: NodeId) -> bool {
        self.eject_pending[node.index()] > 0
    }

    /// The lowest node index `>= from` whose ejection queues hold at least
    /// one deliverable packet, or `None` when no node at or past `from` does.
    /// Walking this cursor visits exactly the nodes a dense ascending scan
    /// with a [`Network::has_ejectable`] filter would, in the same order, but
    /// in time proportional to the nodes with work rather than `num_nodes`.
    #[must_use]
    pub fn next_ejectable_at_or_after(&self, from: usize) -> Option<usize> {
        self.eject_active.next_at_or_after(from)
    }

    /// Removes the next packet from `node`'s ejection queue for a specific
    /// virtual network (meaningful in virtual-channel mode; in shared-buffer
    /// mode all classes share one queue and this behaves like
    /// [`Network::eject_any`]).
    pub fn eject_from(&mut self, node: NodeId, vnet: VirtualNetwork) -> Option<Packet<P>> {
        let q = self.layout.ejection_index(vnet);
        let id = self.eject[node.index()][q].pop()?;
        self.eject_pending[node.index()] -= 1;
        if self.eject_pending[node.index()] == 0 {
            self.eject_active.remove(node.index());
        }
        let p = self.arena.take(id);
        self.release_ejected_slot(node.index(), p.vnet);
        Some(p)
    }

    /// Peeks the next packet that [`Network::eject_from`] would return.
    #[must_use]
    pub fn peek_from(&self, node: NodeId, vnet: VirtualNetwork) -> Option<&Packet<P>> {
        let q = self.layout.ejection_index(vnet);
        self.eject[node.index()][q]
            .peek()
            .map(|&id| self.arena.get(id))
    }

    /// Removes the next packet from any of `node`'s ejection queues,
    /// rotating across queues for fairness.
    pub fn eject_any(&mut self, node: NodeId) -> Option<Packet<P>> {
        let i = node.index();
        if self.eject_pending[i] == 0 {
            return None;
        }
        let n = self.eject[i].len();
        for k in 0..n {
            let q = (self.eject_rr[i] + k) % n;
            if let Some(id) = self.eject[i][q].pop() {
                self.eject_rr[i] = (q + 1) % n;
                self.eject_pending[i] -= 1;
                if self.eject_pending[i] == 0 {
                    self.eject_active.remove(i);
                }
                let p = self.arena.take(id);
                self.release_ejected_slot(i, p.vnet);
                return Some(p);
            }
        }
        unreachable!("eject_pending said a packet was waiting")
    }

    /// Peeks the packet at the head of `node`'s single shared ejection queue
    /// (shared-buffer / worst-case modes). In virtual-channel mode this peeks
    /// the queue that the fairness rotation would serve next.
    #[must_use]
    pub fn peek_any(&self, node: NodeId) -> Option<&Packet<P>> {
        let i = node.index();
        let n = self.eject[i].len();
        (0..n)
            .map(|k| (self.eject_rr[i] + k) % n)
            .find_map(|q| self.eject[i][q].peek().copied())
            .map(|id| self.arena.get(id))
    }

    /// Network statistics.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Point-to-point ordering statistics.
    #[must_use]
    pub fn ordering(&self) -> &OrderingTracker {
        &self.ordering
    }

    /// Busy cycles summed over every unidirectional link so far (the
    /// numerator of [`Network::mean_link_utilization`]; the telemetry
    /// sampler differences it per window).
    #[must_use]
    pub fn link_busy_cycles(&self) -> u64 {
        self.slab.util.iter().map(|u| u.busy_cycles()).sum()
    }

    /// Mean utilization across every unidirectional link over `[0, now]`.
    #[must_use]
    pub fn mean_link_utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let links = self.stats.num_links as f64;
        (self.link_busy_cycles() as f64 / (links * now as f64)).clamp(0.0, 1.0)
    }

    /// The earliest cycle after `now` at which a tick of this network can
    /// move a packet or change what it reports, or `None` when nothing is
    /// scheduled at all. `now + 1` while an awake switch holds queued packets
    /// or an endpoint has packets to eject; otherwise the next link arrival
    /// or sleeping-switch wake-up, whichever comes first. On a
    /// pooled fabric the per-cycle deadlock evidence
    /// ([`Network::has_exhausted_pool`], [`Network::is_stalled`]) is part of
    /// what a tick reports, so an exhausted pool is due every cycle and the
    /// watchdog's stall onset is due too. O(1).
    #[must_use]
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        let next = now + 1;
        if !self.active.is_empty() || !self.eject_active.is_empty() {
            return Some(next);
        }
        let mut due = self.arrivals.next_due();
        if self.pools.is_some() {
            if self.has_exhausted_pool() {
                return Some(next);
            }
            if self.in_flight > 0 {
                due = due.min(self.watchdog.stall_onset());
            }
        }
        (due != Cycle::MAX).then(|| due.max(next))
    }

    /// Settles `ticks` consecutive ticks ending at cycle `last` in O(1). The
    /// caller guarantees, via [`Network::next_due`], that none of them is
    /// due: each would only have advanced the port round-robin and the
    /// arrival calendar's cursor, which is all this does.
    pub fn skip_idle_ticks(&mut self, last: Cycle, ticks: u64) {
        debug_assert!(self.active.is_empty(), "skipped a busy forward phase");
        self.forward_rounds += ticks;
        self.arrivals.skip_through(last);
    }

    /// True when the fabric holds messages but none has moved for the
    /// watchdog threshold (a deadlock or a complete endpoint stall).
    #[must_use]
    pub fn is_stalled(&self, now: Cycle) -> bool {
        self.watchdog.is_stalled(now, self.in_flight)
    }

    /// Sets how many quiet cycles the progress watchdog tolerates before
    /// reporting a stall, overriding [`NetConfig::stall_threshold`] on a live
    /// network.
    pub fn set_stall_threshold(&mut self, threshold: u64) {
        self.watchdog = ProgressWatchdog::new(threshold);
    }

    /// Total messages queued at each switch (diagnostic snapshot).
    #[must_use]
    pub fn occupancy_snapshot(&self) -> Vec<usize> {
        (0..self.slab.num_nodes())
            .map(|i| self.slab.node_occupancy(i))
            .collect()
    }

    /// Drops every message in the fabric and the ejection queues (recovery
    /// drain; SafetyNet rollback discards all in-flight coherence messages).
    /// Returns the number of messages dropped.
    pub fn drain(&mut self, now: Cycle) -> usize {
        let mut dropped_ids = Vec::new();
        self.slab.clear_all(&mut dropped_ids);
        let mut dropped = dropped_ids.len();
        for queues in &mut self.eject {
            for q in queues {
                dropped += q.len();
                q.clear();
            }
        }
        self.arena.clear();
        self.eject_pending.fill(0);
        self.eject_active.clear();
        if let Some(pools) = &mut self.pools {
            for p in pools {
                p.clear();
            }
        }
        if let Some(pools) = &mut self.endpoint_pools {
            for p in pools {
                p.clear();
            }
        }
        self.full_pools = 0;
        self.full_endpoint_pools = 0;
        self.in_flight = 0;
        self.active.clear();
        self.wake_at.fill(Cycle::MAX);
        self.arrivals.clear();
        self.watchdog.reset(now);
        dropped
    }

    fn deliver_phase(&mut self, now: Cycle, faults: Option<&FaultDirector>) {
        let mut batch = std::mem::take(&mut self.arrival_scratch);
        while self.arrivals.pop_ripe_into(now, &mut batch) {
            for &(si, di) in &batch {
                let i = si as usize;
                if di == WAKE {
                    if self.wake_at[i] <= now {
                        self.wake(i);
                    }
                    continue;
                }
                let d = LINK_DIRECTIONS[di as usize];
                let InTransit {
                    arrival,
                    target_slot,
                    id,
                } = self.slab.in_transit[SwitchSlab::link(i, d.index())]
                    .pop_front()
                    .expect("calendar entry without an in-transit message");
                debug_assert!(arrival <= now, "calendar delivered an unripe arrival");
                let j = self.torus.neighbor(NodeId::from(i), d).index();
                let ts = target_slot as usize;
                if faults.is_some_and(|f| f.switch_blacked_out(j)) {
                    // A blacked-out switch loses its arrivals: give back the
                    // buffer reservation and the slot the hop took, and the
                    // message simply ceases to exist.
                    self.slab.release_reservation(ts);
                    let vnet = self.arena.take(id).vnet;
                    self.pool_release(j, vnet);
                    self.in_flight = self.in_flight.saturating_sub(1);
                    self.watchdog.record_progress(now);
                    continue;
                }
                self.slab.accept_reserved(ts, id);
                self.slab.queued[SwitchSlab::port(j, d.opposite().index())] += 1;
                self.slab.queued_total[j] += 1;
                self.wake(j);
                self.watchdog.record_progress(now);
            }
        }
        self.arrival_scratch = batch;
    }

    /// Puts switch `i` (holding queued packets) on the worklist, ending any
    /// sleep. Its pending wake entry, if any, goes stale.
    fn wake(&mut self, i: usize) {
        self.wake_at[i] = Cycle::MAX;
        self.active.insert(i);
    }

    /// Takes switch `i` off the worklist until cycle `until`, when a wake
    /// entry in the arrival calendar returns it.
    fn sleep(&mut self, i: usize, until: Cycle) {
        self.active.remove(i);
        self.wake_at[i] = until;
        self.arrivals.schedule(until, i, WAKE as usize);
    }

    /// Exactness oracle for switch sleep (debug builds): re-plans every
    /// sleeping switch read-only and panics if one could move a packet at
    /// `now` or should already have woken.
    #[cfg(debug_assertions)]
    fn assert_sleepers_blocked(&self, now: Cycle) {
        for (i, &until) in self.wake_at.iter().enumerate() {
            if until == Cycle::MAX {
                continue;
            }
            assert!(
                until > now,
                "switch {i} still asleep at {now}, due at {until}"
            );
            let c = if self.routing == RoutingPolicy::Adaptive {
                Self::congestion_of(&self.slab, &self.torus, i, now)
            } else {
                [0usize; 4]
            };
            for p in 0..ALL_PORTS.len() {
                if self.slab.queued[SwitchSlab::port(i, p)] > 0 {
                    let mut blocked = Blockage::NONE;
                    assert!(
                        self.plan_port_move(i, p, now, &c, &mut blocked).is_none(),
                        "sleeping switch {i} could move a packet from port {p} at {now}"
                    );
                }
            }
        }
    }

    fn forward_phase(
        &mut self,
        now: Cycle,
        mut faults: Option<&mut FaultDirector>,
        pool: Option<&WorkerPool>,
    ) where
        P: Clone + Send + Sync,
    {
        // The port round-robin pointer advances once per round on every
        // switch (active or not), exactly as the exhaustive scan did.
        let start_port = (self.forward_rounds % ALL_PORTS.len() as u64) as usize;
        self.forward_rounds += 1;
        #[cfg(debug_assertions)]
        self.assert_sleepers_blocked(now);
        if self.active.is_empty() {
            return;
        }
        // The parallel path's conflict analysis covers the fault-free,
        // unpooled fabric only: faults mutate packets and drop reservations
        // across switches, and shared slot pools couple switches two hops
        // apart (a hop reads and writes both endpoints' pools). Everything
        // else — including pooled or faulted cycles — forwards serially,
        // which is byte-identical anyway.
        // Gated on the pool's *physical* thread count: the sharded schedule
        // is byte-identical to the serial scan either way (so this choice is
        // digest-neutral), but planning shards for a pool that degraded to
        // one thread — a single-core host — is pure overhead. Determinism
        // tests that need the sharded path regardless of host cores hand in
        // a `WorkerPool::with_exact_threads` pool.
        let parallel = faults.is_none()
            && self.pools.is_none()
            && self.active.len() >= PARALLEL_FORWARD_MIN_ACTIVE
            && pool.is_some_and(|p| p.threads() > 1);
        if parallel {
            self.forward_phase_parallel(now, start_port, pool.expect("gate checked the pool"));
            return;
        }
        let n = self.slab.num_nodes();
        let rotation = (now as usize) % n.max(1);
        // Visit the active switches in the per-cycle rotation order
        // `rotation, rotation+1, …, n-1, 0, …, rotation-1` via the sparse
        // bitmap cursor: O(n/64 + |active|) instead of the O(n) dense
        // membership scan, which matters once machines grow past 16 nodes.
        // Forwarding only ever deactivates (or puts to sleep) the switch
        // being processed (never a later one, and it activates none), so an
        // explicit cursor over `next_at_or_after` visits exactly the switches
        // the dense rotation scan would have, in the same order — the
        // schedule stays bit-identical.
        let mut pos = rotation;
        while let Some(i) = self.active.next_at_or_after(pos) {
            self.forward_switch(i, now, start_port, faults.as_deref_mut());
            pos = i + 1;
        }
        let mut pos = 0;
        while pos < rotation {
            match self.active.next_at_or_after(pos) {
                Some(i) if i < rotation => {
                    self.forward_switch(i, now, start_port, faults.as_deref_mut());
                    pos = i + 1;
                }
                _ => break,
            }
        }
    }

    fn forward_switch(
        &mut self,
        i: usize,
        now: Cycle,
        start_port: usize,
        mut faults: Option<&mut FaultDirector>,
    ) where
        P: Clone,
    {
        self.forward_probe.switch_visits += 1;
        // A stalled (or blacked-out) switch forwards nothing while its fault
        // window is open; it stays on the worklist and resumes afterwards.
        if faults.as_deref().is_some_and(|f| f.switch_stalled(i)) {
            return;
        }
        // Congestion inputs (link state, downstream occupancy) are immutable
        // during the read-only planning pass, so the four-direction metric is
        // computed at most once per applied move instead of once per queued
        // packet; it must be refreshed after a move, which the subsequent
        // ports of this switch observe exactly as the exhaustive scan did.
        // Static routing never consults the metric, so it skips the
        // neighbour-gathering entirely.
        let adaptive = self.routing == RoutingPolicy::Adaptive;
        let mut congestion: Option<[usize; 4]> = None;
        let mut blocked = Blockage::NONE;
        let mut moved = false;
        for pk in 0..ALL_PORTS.len() {
            let p = (start_port + pk) % ALL_PORTS.len();
            if self.slab.queued[SwitchSlab::port(i, p)] == 0 {
                continue;
            }
            let c = if adaptive {
                *congestion
                    .get_or_insert_with(|| Self::congestion_of(&self.slab, &self.torus, i, now))
            } else {
                [0usize; 4]
            };
            if let Some(decision) = self.plan_port_move(i, p, now, &c, &mut blocked) {
                self.apply_move(i, p, decision, now, faults.as_deref_mut());
                congestion = None;
                moved = true;
            }
        }
        if !moved {
            if let Some(until) = blocked.wake_cycle() {
                self.sleep(i, until);
            }
        }
    }

    /// The adaptive-routing congestion metric for each outgoing direction of
    /// switch `i`: messages on the link, the link-busy flag, and the
    /// occupancy of the downstream input port.
    fn congestion_of(slab: &SwitchSlab, torus: &Torus, i: usize, now: Cycle) -> [usize; 4] {
        let node = NodeId::from(i);
        let mut congestion = [0usize; 4];
        for d in LINK_DIRECTIONS {
            let di = d.index();
            let l = SwitchSlab::link(i, di);
            let j = torus.neighbor(node, d).index();
            let opp = d.opposite().index();
            congestion[di] = slab.in_transit[l].len()
                + usize::from(!slab.link_is_free(l, now))
                + slab.port_occupancy(j, opp);
        }
        congestion
    }

    /// Read-only pass: decide which (if any) packet of input port `p` of
    /// switch `i` can move this cycle, and where to. `congestion` is the
    /// per-direction congestion metric, computed once per switch visit (its
    /// inputs cannot change during planning). Every head that cannot move
    /// records what held it in `blocked`.
    fn plan_port_move(
        &self,
        i: usize,
        p: usize,
        now: Cycle,
        congestion: &[usize; 4],
        blocked: &mut Blockage,
    ) -> Option<MoveDecision> {
        let node = NodeId::from(i);
        let nb = self.slab.buffers_per_port;
        let incoming = ALL_PORTS[p];
        let rr = self.slab.rr_next[SwitchSlab::port(i, p)] as usize;
        for bk in 0..nb {
            let b = (rr + bk) % nb;
            let Some(&id) = self.slab.queues[self.slab.slot(i, p, b)].front() else {
                continue;
            };
            let pkt = self.arena.get(id);
            // Local delivery. Under a split pool budget the ejecting packet
            // must additionally win an endpoint slot (it trades its switch
            // slot away); under a unified budget it keeps the slot it holds.
            if pkt.dst == node {
                let q = self.layout.ejection_index(pkt.vnet);
                if !self.eject[i][q].is_full() && self.endpoint_can(i, pkt.vnet) {
                    return Some(MoveDecision {
                        buffer: b,
                        action: MoveAction::Eject { queue: q },
                    });
                }
                blocked.other = true;
                continue; // head blocked on ejection space; try other buffers
            }
            let cands = route_candidates(&self.torus, self.routing, node, pkt.dst, congestion);
            let current_vc = self.layout.vc_of_buffer(b);
            let serialization = self.cfg.link_bandwidth.serialization_cycles(pkt.bytes());

            let mut try_hop = |dir: Direction, use_adaptive: bool| -> Option<MoveDecision> {
                let l = SwitchSlab::link(i, dir.index());
                if !self.slab.link_is_free(l, now) {
                    blocked.busy_link(self.slab.busy_until[l]);
                    return None;
                }
                let crosses = self.torus.crosses_dateline(node, dir);
                let j = self.torus.neighbor(node, dir).index();
                let opp = dir.opposite().index();
                let tb = self.layout.next_buffer_index(
                    pkt.vnet,
                    current_vc,
                    incoming,
                    dir,
                    crosses,
                    use_adaptive,
                );
                let target_slot = self.slab.slot(j, opp, tb);
                if self.slab.has_space(target_slot) && self.pool_can(j, pkt.vnet) {
                    Some(MoveDecision {
                        buffer: b,
                        action: MoveAction::Forward {
                            dir,
                            target_slot,
                            serialization,
                        },
                    })
                } else {
                    blocked.other = true;
                    None
                }
            };

            if cands.adaptive {
                // Duato's scheme: prefer the fully adaptive channel on any
                // productive direction (least congested first) and fall back
                // to the escape (dimension-order, dateline) channel.
                for &dir in &cands.directions {
                    if let Some(m) = try_hop(dir, true) {
                        return Some(m);
                    }
                }
                let dor = self.torus.dimension_order_direction(node, pkt.dst);
                if let Some(m) = try_hop(dor, false) {
                    return Some(m);
                }
            } else {
                for &dir in &cands.directions {
                    if dir == Direction::Local {
                        break;
                    }
                    if let Some(m) = try_hop(dir, false) {
                        return Some(m);
                    }
                }
            }
        }
        None
    }

    /// Mutating pass: execute a planned move, consulting the fault director
    /// (if any) at the link-transmit and ejection hooks.
    fn apply_move(
        &mut self,
        i: usize,
        p: usize,
        decision: MoveDecision,
        now: Cycle,
        faults: Option<&mut FaultDirector>,
    ) where
        P: Clone,
    {
        let s = self.slab.slot(i, p, decision.buffer);
        match decision.action {
            MoveAction::Eject { queue } => {
                let id = self.slab.queues[s]
                    .pop_front()
                    .expect("planned packet vanished");
                if faults.as_deref().is_some_and(|f| f.inbox_dropped(i)) {
                    // Dead network interface: the ejected message is lost
                    // before it reaches the endpoint. Its slot is freed from
                    // the switch pool (it never takes an endpoint slot).
                    let vnet = self.arena.take(id).vnet;
                    self.pool_release(i, vnet);
                    self.in_flight = self.in_flight.saturating_sub(1);
                    self.watchdog.record_progress(now);
                } else {
                    let (src, dst, vnet, seq, injected_at) = {
                        let pkt = self.arena.get(id);
                        (pkt.src, pkt.dst, pkt.vnet, pkt.seq, pkt.injected_at)
                    };
                    if self.endpoint_pools.is_some() {
                        // Split budget: trade the switch slot for the
                        // endpoint slot the planning pass checked.
                        self.pool_release(i, vnet);
                        self.endpoint_acquire(i, vnet);
                    }
                    let latency = now.saturating_sub(injected_at);
                    self.ordering.observe_delivery(src, dst, vnet, seq);
                    self.stats.record_delivery(vnet, latency);
                    self.eject[i][queue]
                        .push(id)
                        .unwrap_or_else(|_| panic!("ejection space was checked during planning"));
                    self.eject_pending[i] += 1;
                    self.eject_active.insert(i);
                    self.in_flight = self.in_flight.saturating_sub(1);
                    self.watchdog.record_progress(now);
                }
            }
            MoveAction::Forward {
                dir,
                target_slot,
                serialization,
            } => {
                let id = self.slab.queues[s]
                    .pop_front()
                    .expect("planned packet vanished");
                let j = self.torus.neighbor(NodeId::from(i), dir).index();
                let vnet = self.arena.get(id).vnet;
                // Fault injection at link transmit: at most one armed
                // message fault fires per transmit.
                let fired = faults.and_then(|f| f.message_fault(now, i, dir.index(), vnet.index()));
                if matches!(fired, Some((FaultKind::Drop, _))) {
                    // The message vanishes on the link: free this node's
                    // slot and never touch the downstream side.
                    self.arena.take(id);
                    self.pool_release(i, vnet);
                    self.in_flight = self.in_flight.saturating_sub(1);
                    self.watchdog.record_progress(now);
                } else {
                    let delay = match fired {
                        Some((FaultKind::Delay, param)) => param,
                        _ => 0,
                    };
                    if matches!(fired, Some((FaultKind::Corrupt, _))) {
                        self.arena.get_mut(id).taint = PacketTaint::Corrupt;
                    }
                    let duplicate = matches!(fired, Some((FaultKind::Duplicate, _)));
                    // The slot credit travels with the packet: the hop frees
                    // a slot at this node and takes the downstream one that
                    // the planning pass checked. A delay fault holds the link
                    // (and everything serialized behind it) for the extra
                    // cycles, so per-link arrivals stay in FIFO order.
                    self.pool_release(i, vnet);
                    self.pool_acquire(j, vnet);
                    let arrival = now + serialization + self.cfg.switch_latency + delay;
                    let l = SwitchSlab::link(i, dir.index());
                    self.slab.busy_until[l] = now + serialization + delay;
                    self.slab.util[l].add_busy(serialization);
                    self.slab.in_transit[l].push_back(InTransit {
                        arrival,
                        target_slot: target_slot as u32,
                        id,
                    });
                    self.arrivals.schedule(arrival, i, dir.index());
                    self.slab.reserved[target_slot] += 1;
                    self.stats.hops.incr();
                    self.watchdog.record_progress(now);
                    if duplicate {
                        // The spurious copy follows back-to-back on the same
                        // link and consumes real downstream resources — if
                        // the buffer and pool can cover a second packet; an
                        // exhausted target quietly absorbs the fault.
                        if self.slab.has_space(target_slot) && self.pool_can(j, vnet) {
                            let mut d = self.arena.get(id).clone();
                            d.taint = PacketTaint::Duplicate;
                            let dup_id = self.arena.alloc(d);
                            self.pool_acquire(j, vnet);
                            let dup_arrival = arrival + serialization;
                            self.slab.busy_until[l] = now + 2 * serialization;
                            self.slab.util[l].add_busy(serialization);
                            self.slab.in_transit[l].push_back(InTransit {
                                arrival: dup_arrival,
                                target_slot: target_slot as u32,
                                id: dup_id,
                            });
                            self.arrivals.schedule(dup_arrival, i, dir.index());
                            self.slab.reserved[target_slot] += 1;
                            self.in_flight += 1;
                        }
                    }
                }
            }
        }
        let pi = SwitchSlab::port(i, p);
        self.slab.queued[pi] -= 1;
        self.slab.queued_total[i] -= 1;
        if self.slab.queued_total[i] == 0 {
            self.active.remove(i);
        }
        self.slab.rr_next[pi] = ((decision.buffer + 1) % self.slab.buffers_per_port) as u32;
    }

    /// Parallel forward phase: snapshot the serial visit order, build the
    /// adjacency DAG over the active switches, execute it as a wavefront on
    /// the pool, then merge the per-task staged effects in visit order.
    /// Byte-identical to the serial path (see the module docs).
    fn forward_phase_parallel(&mut self, now: Cycle, start_port: usize, pool: &WorkerPool)
    where
        P: Clone + Send + Sync,
    {
        let n = self.slab.num_nodes();
        let rotation = (now as usize) % n.max(1);
        let mut scratch = std::mem::take(&mut self.par_scratch);
        // Snapshot the visit order the serial cursor walk would take.
        scratch.order.clear();
        let mut pos = rotation;
        while let Some(i) = self.active.next_at_or_after(pos) {
            scratch.order.push(i as u32);
            pos = i + 1;
        }
        let mut pos = 0;
        while pos < rotation {
            match self.active.next_at_or_after(pos) {
                Some(i) if i < rotation => {
                    scratch.order.push(i as u32);
                    pos = i + 1;
                }
                _ => break,
            }
        }
        let m = scratch.order.len();
        self.forward_probe.switch_visits += m as u64;
        self.forward_probe.parallel_phases += 1;
        self.forward_probe.parallel_tasks += m as u64;

        // Dependency DAG: an edge between every pair of *active* torus
        // neighbours, directed from the earlier to the later visit
        // position. Duplicate neighbours (2-wide rings fold opposite
        // directions onto one switch) and self-loops (1-wide rings) carry
        // no edge.
        scratch.visit_pos.resize(n, u32::MAX);
        for (t, &i) in scratch.order.iter().enumerate() {
            scratch.visit_pos[i as usize] = t as u32;
        }
        scratch.succ.clear();
        scratch.succ.resize(m, [u32::MAX; 4]);
        scratch.depth.clear();
        scratch.depth.resize(m, 1);
        scratch.indeg.clear();
        scratch.indeg.resize_with(m, || AtomicU32::new(0));
        scratch.ready.clear();
        scratch.ready.resize_with(m, || AtomicU32::new(u32::MAX));
        if scratch.stage.len() < m {
            scratch.stage.resize_with(m, TaskEffects::default);
        }
        let mut max_depth = 1u32;
        for t in 0..m {
            let i = scratch.order[t] as usize;
            let node = NodeId::from(i);
            let mut nbrs = [usize::MAX; 4];
            let mut nn = 0;
            let mut ns = 0;
            for d in LINK_DIRECTIONS {
                let j = self.torus.neighbor(node, d).index();
                if j == i || nbrs[..nn].contains(&j) {
                    continue;
                }
                nbrs[nn] = j;
                nn += 1;
                let pj = scratch.visit_pos[j];
                if pj == u32::MAX {
                    continue;
                }
                if (pj as usize) > t {
                    scratch.succ[t][ns] = pj;
                    ns += 1;
                    *scratch.indeg[pj as usize].get_mut() += 1;
                } else {
                    // Predecessor: its depth is final (pj < t).
                    let dp = scratch.depth[pj as usize] + 1;
                    if dp > scratch.depth[t] {
                        scratch.depth[t] = dp;
                    }
                }
            }
            if scratch.depth[t] > max_depth {
                max_depth = scratch.depth[t];
            }
        }
        self.forward_probe.critical_path_sum += u64::from(max_depth);

        // Seed the wavefront with the dependency-free tasks, in visit order.
        let mut seeded = 0usize;
        for t in 0..m {
            if *scratch.indeg[t].get_mut() == 0 {
                *scratch.ready[seeded].get_mut() = t as u32;
                seeded += 1;
            }
        }
        let head = AtomicUsize::new(seeded);

        let sh = ParShared::<P> {
            queues: self.slab.queues.as_mut_ptr(),
            reserved: self.slab.reserved.as_mut_ptr(),
            cap: self.slab.cap.as_ptr(),
            rr_next: self.slab.rr_next.as_mut_ptr(),
            queued: self.slab.queued.as_mut_ptr(),
            queued_total: self.slab.queued_total.as_mut_ptr(),
            busy_until: self.slab.busy_until.as_mut_ptr(),
            in_transit: self.slab.in_transit.as_mut_ptr(),
            util: self.slab.util.as_mut_ptr(),
            arena: &self.arena,
            eject: self.eject.as_mut_ptr(),
            eject_pending: self.eject_pending.as_mut_ptr(),
            stage: scratch.stage.as_mut_ptr(),
            bpp: self.slab.buffers_per_port,
        };
        let torus = &self.torus;
        let layout = &self.layout;
        let cfg = &self.cfg;
        let routing = self.routing;
        let order = &scratch.order;
        let succ = &scratch.succ;
        let indeg = &scratch.indeg;
        let ready = &scratch.ready;
        let head_ref = &head;
        // Wavefront execution. Worker `slot` runs the `slot`-th task to
        // become runnable: it spins until that slot is published, executes
        // the switch, then retires its DAG successors (the `AcqRel`
        // decrement chains every predecessor's slab writes before the
        // `Release` publish / `Acquire` claim of the successor). Progress is
        // guaranteed: while any task is unexecuted, the one with the lowest
        // visit position among those whose predecessors have all finished
        // has been published, so the number of published tasks always
        // exceeds the number of executed ones — the lowest spinning slot
        // always fills.
        pool.run(m, |slot| {
            let t = loop {
                let t = ready[slot].load(AtomicOrdering::Acquire);
                if t != u32::MAX {
                    break t as usize;
                }
                std::hint::spin_loop();
            };
            let i = order[t] as usize;
            // Disjointness of `stage[t]` across workers follows from slot
            // uniqueness: each task index is published exactly once.
            let fx = unsafe { &mut *sh.stage.add(t) };
            forward_switch_parallel(&sh, torus, layout, cfg, routing, i, now, start_port, fx);
            for &sp in &succ[t] {
                if sp == u32::MAX {
                    continue;
                }
                if indeg[sp as usize].fetch_sub(1, AtomicOrdering::AcqRel) == 1 {
                    let k = head_ref.fetch_add(1, AtomicOrdering::Relaxed);
                    ready[k].store(sp, AtomicOrdering::Release);
                }
            }
        });

        // Merge staged effects in serial visit order: each globally ordered
        // structure observes exactly the sequence the serial path would have
        // produced (the serial path finishes switch t entirely before t+1).
        for t in 0..m {
            let i = scratch.order[t] as usize;
            let fx = &mut scratch.stage[t];
            for &(src, dst, vnet, seq, latency) in &fx.deliveries {
                self.ordering.observe_delivery(src, dst, vnet, seq);
                self.stats.record_delivery(vnet, latency);
            }
            fx.deliveries.clear();
            for &(arrival, si, di) in &fx.arrivals {
                self.arrivals.schedule(arrival, si as usize, di as usize);
            }
            fx.arrivals.clear();
            if fx.ejected > 0 {
                self.eject_active.insert(i);
                self.in_flight = self.in_flight.saturating_sub(fx.ejected as usize);
                fx.ejected = 0;
            }
            for _ in 0..fx.hops {
                self.stats.hops.incr();
            }
            fx.hops = 0;
            if fx.progress {
                self.watchdog.record_progress(now);
                fx.progress = false;
            }
            if fx.deactivate {
                self.active.remove(i);
                fx.deactivate = false;
            }
            if let Some(until) = fx.sleep.take() {
                self.sleep(i, until);
            }
        }
        // Reset the inverse index for the next phase.
        for &i in &scratch.order {
            scratch.visit_pos[i as usize] = u32::MAX;
        }
        self.par_scratch = scratch;
    }
}

/// One switch's forward work inside a parallel phase: the fault-free,
/// unpooled specialization of `forward_switch` + `plan_port_move` +
/// `apply_move`, operating through the raw-pointer slab view. Slab writes
/// land in place (own rows plus the facing downstream `reserved` columns);
/// schedule-order effects are staged into `fx` for the in-order merge.
///
/// Safety: see [`ParShared`] — the caller's dependency DAG guarantees no
/// two concurrently-running tasks touch overlapping rows.
#[allow(clippy::too_many_arguments)]
fn forward_switch_parallel<P>(
    sh: &ParShared<P>,
    torus: &Torus,
    layout: &BufferLayout,
    cfg: &NetConfig,
    routing: RoutingPolicy,
    i: usize,
    now: Cycle,
    start_port: usize,
    fx: &mut TaskEffects,
) {
    unsafe {
        let node = NodeId::from(i);
        let bpp = sh.bpp;
        let adaptive = routing == RoutingPolicy::Adaptive;
        let occupancy = |s: usize| (*sh.queues.add(s)).len() + *sh.reserved.add(s) as usize;
        let has_space = |s: usize| {
            let c = *sh.cap.add(s);
            c == UNBOUNDED || ((*sh.queues.add(s)).len() as u32) + *sh.reserved.add(s) < c
        };
        let mut congestion: Option<[usize; 4]> = None;
        let mut blocked = Blockage::NONE;
        let mut moved = false;
        for pk in 0..ALL_PORTS.len() {
            let p = (start_port + pk) % ALL_PORTS.len();
            let pi = SwitchSlab::port(i, p);
            if *sh.queued.add(pi) == 0 {
                continue;
            }
            let c = if adaptive {
                *congestion.get_or_insert_with(|| {
                    let mut cg = [0usize; 4];
                    for d in LINK_DIRECTIONS {
                        let di = d.index();
                        let l = SwitchSlab::link(i, di);
                        let j = torus.neighbor(node, d).index();
                        let opp = d.opposite().index();
                        let base = SwitchSlab::port(j, opp) * bpp;
                        let port_occ: usize = (base..base + bpp).map(occupancy).sum();
                        cg[di] = (*sh.in_transit.add(l)).len()
                            + usize::from(*sh.busy_until.add(l) > now)
                            + port_occ;
                    }
                    cg
                })
            } else {
                [0usize; 4]
            };
            // Planning pass (read-only), mirroring `plan_port_move` with the
            // pool and fault branches dissolved.
            let incoming = ALL_PORTS[p];
            let rr = *sh.rr_next.add(pi) as usize;
            let mut decision: Option<MoveDecision> = None;
            'plan: for bk in 0..bpp {
                let b = (rr + bk) % bpp;
                let Some(&id) = (*sh.queues.add(pi * bpp + b)).front() else {
                    continue;
                };
                let pkt = (*sh.arena).get(id);
                if pkt.dst == node {
                    let q = layout.ejection_index(pkt.vnet);
                    if !(&(*sh.eject.add(i)))[q].is_full() {
                        decision = Some(MoveDecision {
                            buffer: b,
                            action: MoveAction::Eject { queue: q },
                        });
                        break 'plan;
                    }
                    blocked.other = true;
                    continue;
                }
                let cands = route_candidates(torus, routing, node, pkt.dst, &c);
                let current_vc = layout.vc_of_buffer(b);
                let serialization = cfg.link_bandwidth.serialization_cycles(pkt.bytes());
                let mut try_hop = |dir: Direction, use_adaptive: bool| -> Option<MoveDecision> {
                    let busy_until = *sh.busy_until.add(SwitchSlab::link(i, dir.index()));
                    if busy_until > now {
                        blocked.busy_link(busy_until);
                        return None;
                    }
                    let crosses = torus.crosses_dateline(node, dir);
                    let j = torus.neighbor(node, dir).index();
                    let opp = dir.opposite().index();
                    let tb = layout.next_buffer_index(
                        pkt.vnet,
                        current_vc,
                        incoming,
                        dir,
                        crosses,
                        use_adaptive,
                    );
                    let target_slot = SwitchSlab::port(j, opp) * bpp + tb;
                    if has_space(target_slot) {
                        Some(MoveDecision {
                            buffer: b,
                            action: MoveAction::Forward {
                                dir,
                                target_slot,
                                serialization,
                            },
                        })
                    } else {
                        blocked.other = true;
                        None
                    }
                };
                if cands.adaptive {
                    for &dir in &cands.directions {
                        if let Some(mv) = try_hop(dir, true) {
                            decision = Some(mv);
                            break 'plan;
                        }
                    }
                    let dor = torus.dimension_order_direction(node, pkt.dst);
                    if let Some(mv) = try_hop(dor, false) {
                        decision = Some(mv);
                        break 'plan;
                    }
                } else {
                    for &dir in &cands.directions {
                        if dir == Direction::Local {
                            break;
                        }
                        if let Some(mv) = try_hop(dir, false) {
                            decision = Some(mv);
                            break 'plan;
                        }
                    }
                }
            }
            let Some(decision) = decision else {
                continue;
            };
            // Apply pass, mirroring `apply_move`.
            let s = pi * bpp + decision.buffer;
            match decision.action {
                MoveAction::Eject { queue } => {
                    let id = (*sh.queues.add(s))
                        .pop_front()
                        .expect("planned packet vanished");
                    let pkt = (*sh.arena).get(id);
                    fx.deliveries.push((
                        pkt.src,
                        pkt.dst,
                        pkt.vnet,
                        pkt.seq,
                        now.saturating_sub(pkt.injected_at),
                    ));
                    (&mut (*sh.eject.add(i)))[queue]
                        .push(id)
                        .unwrap_or_else(|_| panic!("ejection space was checked during planning"));
                    *sh.eject_pending.add(i) += 1;
                    fx.ejected += 1;
                    fx.progress = true;
                }
                MoveAction::Forward {
                    dir,
                    target_slot,
                    serialization,
                } => {
                    let id = (*sh.queues.add(s))
                        .pop_front()
                        .expect("planned packet vanished");
                    let arrival = now + serialization + cfg.switch_latency;
                    let l = SwitchSlab::link(i, dir.index());
                    *sh.busy_until.add(l) = now + serialization;
                    (*sh.util.add(l)).add_busy(serialization);
                    (*sh.in_transit.add(l)).push_back(InTransit {
                        arrival,
                        target_slot: target_slot as u32,
                        id,
                    });
                    fx.arrivals.push((arrival, i as u32, dir.index() as u8));
                    *sh.reserved.add(target_slot) += 1;
                    fx.hops += 1;
                    fx.progress = true;
                }
            }
            *sh.queued.add(pi) -= 1;
            *sh.queued_total.add(i) -= 1;
            if *sh.queued_total.add(i) == 0 {
                fx.deactivate = true;
            }
            *sh.rr_next.add(pi) = ((decision.buffer + 1) % bpp) as u32;
            congestion = None;
            moved = true;
        }
        if !moved {
            fx.sleep = blocked.wake_cycle();
        }
    }
}

impl<P> Network<P> {
    /// Checks the incremental worklist bookkeeping (per-port and per-switch
    /// queued counters, active/sleeping membership, per-node ejection counts,
    /// arena liveness) against a full scan of the underlying queues. Test
    /// support; O(network).
    #[cfg(test)]
    fn assert_worklist_invariants(&self) {
        use crate::switch::PORTS_PER_SWITCH;
        let n = self.slab.num_nodes();
        for i in 0..n {
            let mut total = 0;
            for p in 0..PORTS_PER_SWITCH {
                let scan = self.slab.port_queued_scan(i, p);
                assert_eq!(
                    self.slab.queued[SwitchSlab::port(i, p)] as usize,
                    scan,
                    "port counter at {i}"
                );
                total += scan;
            }
            assert_eq!(
                self.slab.queued_total[i] as usize, total,
                "switch counter at {i}"
            );
            let sleeping = self.wake_at[i] != Cycle::MAX;
            assert!(
                !(sleeping && self.active.contains(i)),
                "switch {i} both active and sleeping"
            );
            assert_eq!(
                self.active.contains(i) || sleeping,
                total > 0,
                "active-or-sleeping membership at {i}"
            );
        }
        for (i, queues) in self.eject.iter().enumerate() {
            let scan: usize = queues.iter().map(MsgQueue::len).sum();
            assert_eq!(self.eject_pending[i], scan, "ejection count at node {i}");
            assert_eq!(
                self.eject_active.contains(i),
                scan > 0,
                "eject-active membership at node {i}"
            );
        }
        // Every live arena packet is either queued in the fabric, in transit
        // on a link, or waiting in an ejection queue — and vice versa.
        let fabric: usize = (0..n).map(|i| self.slab.node_occupancy(i)).sum();
        let ejected: usize = self
            .eject
            .iter()
            .flat_map(|qs| qs.iter())
            .map(MsgQueue::len)
            .sum();
        assert_eq!(self.arena.live(), fabric + ejected, "arena live count");
        self.assert_pool_invariants();
    }

    /// Checks the shared-pool slot accounting against a full scan: a node's
    /// held slots per class must equal the packets of that class queued in
    /// its input ports and ejection queues plus the in-flight link packets
    /// that reserved a slot at this node. Under a split budget the switch
    /// pool covers ports + in-transit reservations and the endpoint pool
    /// covers the ejection queues. No-op for unpooled networks.
    #[cfg(test)]
    fn assert_pool_invariants(&self) {
        use crate::switch::PORTS_PER_SWITCH;
        let Some(pools) = &self.pools else { return };
        let n = self.slab.num_nodes();
        let mut switch_side = vec![[0usize; 4]; n];
        let mut eject_side = vec![[0usize; 4]; n];
        for i in 0..n {
            for p in 0..PORTS_PER_SWITCH {
                for b in 0..self.slab.buffers_per_port {
                    for &id in &self.slab.queues[self.slab.slot(i, p, b)] {
                        switch_side[i][self.arena.get(id).vnet.index()] += 1;
                    }
                }
            }
            // In-flight packets hold their downstream slot from forwarding
            // time until delivery.
            for d in LINK_DIRECTIONS {
                let j = self.torus.neighbor(NodeId::from(i), d).index();
                for t in &self.slab.in_transit[SwitchSlab::link(i, d.index())] {
                    switch_side[j][self.arena.get(t.id).vnet.index()] += 1;
                }
            }
        }
        for (i, queues) in self.eject.iter().enumerate() {
            for q in queues {
                for &id in q.iter() {
                    eject_side[i][self.arena.get(id).vnet.index()] += 1;
                }
            }
        }
        let expected_switch: Vec<[usize; 4]> = if self.endpoint_pools.is_some() {
            switch_side
        } else {
            // Unified budget: one pool covers both sides.
            switch_side
                .iter()
                .zip(&eject_side)
                .map(|(s, e)| std::array::from_fn(|v| s[v] + e[v]))
                .collect()
        };
        for (i, pool) in pools.iter().enumerate() {
            for (v, &count) in expected_switch[i].iter().enumerate() {
                assert_eq!(
                    pool.in_use(v),
                    count,
                    "pool slot count at node {i}, class {v}"
                );
            }
        }
        let full_scan = pools.iter().filter(|p| p.occupancy() == p.total()).count();
        assert_eq!(self.full_pools, full_scan, "full-pool counter");
        if let Some(endpoint) = &self.endpoint_pools {
            for (i, pool) in endpoint.iter().enumerate() {
                for (v, &count) in eject_side[i].iter().enumerate() {
                    assert_eq!(
                        pool.in_use(v),
                        count,
                        "endpoint pool slot count at node {i}, class {v}"
                    );
                }
            }
            let full_scan = endpoint
                .iter()
                .filter(|p| p.occupancy() == p.total())
                .count();
            assert_eq!(
                self.full_endpoint_pools, full_scan,
                "full-endpoint-pool counter"
            );
        }
    }
}

#[cfg(test)]
#[path = "network_tests.rs"]
mod tests;
