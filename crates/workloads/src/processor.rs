//! The processor model: blocking by default, MSHR-style non-blocking when
//! configured.
//!
//! Section 5.1: "We model a processor core that, given a perfect memory
//! system, would execute four billion instructions per second and generate
//! blocking requests to the cache hierarchy and beyond." The default model
//! here is exactly that: a processor alternates between *thinking*
//! (executing non-memory instructions for the generator's think time),
//! issuing one memory reference to its cache controller, and — on a miss —
//! waiting for the coherence transaction to complete before continuing,
//! with at most one demand request outstanding.
//!
//! With `max_outstanding > 1` the processor becomes non-blocking in the
//! MSHR style: a miss is parked in the in-flight set and the processor
//! keeps thinking and issuing further references until the in-flight set is
//! full, at which point it blocks until *any* outstanding miss completes.
//! Completions are matched to in-flight entries by block address, so they
//! may return in any order. At `max_outstanding = 1` every externally
//! visible behaviour (RNG draw order, issue schedule, statistics) is
//! bit-identical to the blocking model.
//!
//! The processor front-end is either a synthetic [`WorkloadGenerator`] or a
//! deterministic [`TraceReplayer`] over a previously recorded schedule; a
//! recorder can capture the accepted-request schedule of a synthetic run
//! for later replay (see [`crate::trace`]).

use std::collections::VecDeque;
use std::sync::Arc;

use specsim_base::{BlockAddr, Cycle, CycleDelta, NodeId};
use specsim_coherence::types::CpuRequest;

use crate::generator::{GeneratorSnapshot, WorkloadGenerator};
use crate::trace::{ReplayerSnapshot, Trace, TraceEvent, TraceReplayer};

/// What the processor is doing this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Executing non-memory work until the given cycle, after which `next`
    /// is issued.
    Thinking { until: Cycle, next: CpuRequest },
    /// Ready to (re-)present `next` to the cache controller.
    Ready { next: CpuRequest },
    /// The in-flight set is full; waiting for a completion to free a slot.
    Blocked,
    /// The op source is exhausted (end of a replayed trace).
    Done,
}

/// One outstanding miss (an MSHR entry). The request is kept so a
/// checkpoint restore can re-issue it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    issued_at: Cycle,
    req: CpuRequest,
}

/// Where the processor's reference stream comes from.
// Boxing the generator arm would cost an indirection on the per-cycle issue
// path to save bytes in a per-node struct that is never moved in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum OpSource {
    /// A synthetic workload generator.
    Synthetic(WorkloadGenerator),
    /// Deterministic replay of a recorded schedule.
    Replay(TraceReplayer),
}

/// Saved op-source state (part of [`ProcessorSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum OpSourceSnapshot {
    /// Generator state.
    Synthetic(GeneratorSnapshot),
    /// Replay position.
    Replay(ReplayerSnapshot),
}

/// Per-processor performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Memory operations completed (hits and misses).
    pub ops_completed: u64,
    /// Completed operations that were loads.
    pub loads: u64,
    /// Completed operations that were stores.
    pub stores: u64,
    /// Operations that required a coherence transaction.
    pub misses: u64,
    /// Cycles spent waiting for misses (sum over in-flight entries).
    pub miss_wait_cycles: u64,
    /// Cycles the cache controller refused the request (structural stalls).
    pub stall_retries: u64,
}

/// Saved processor state for checkpoint/recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorSnapshot {
    phase: Phase,
    stats: ProcessorStats,
    source: OpSourceSnapshot,
    in_flight: Vec<InFlight>,
    replay: VecDeque<CpuRequest>,
    recorder: Option<Vec<TraceEvent>>,
}

/// A processor driving one node's cache controller from a synthetic
/// workload or a recorded trace, blocking or MSHR-style non-blocking.
#[derive(Debug, Clone)]
pub struct Processor {
    node: NodeId,
    source: OpSource,
    /// MSHR capacity: how many misses may be outstanding at once.
    max_outstanding: usize,
    phase: Phase,
    /// Outstanding misses, in issue order.
    in_flight: Vec<InFlight>,
    /// Requests rescued from a checkpoint restore that have not been
    /// re-issued yet; drained before fresh ops are drawn from the source.
    replay: VecDeque<CpuRequest>,
    /// When recording, the accepted-request schedule so far. Part of the
    /// snapshot, so recovery rolls the recording back with the execution.
    recorder: Option<Vec<TraceEvent>>,
    stats: ProcessorStats,
}

impl Processor {
    /// Creates a blocking processor that starts thinking at cycle `now`.
    #[must_use]
    pub fn new(node: NodeId, generator: WorkloadGenerator, now: Cycle) -> Self {
        Self::with_source(node, OpSource::Synthetic(generator), now)
    }

    /// Creates a processor that replays `node`'s schedule from a recorded
    /// trace instead of drawing from a synthetic generator.
    #[must_use]
    pub fn from_trace(node: NodeId, trace: Arc<Trace>, now: Cycle) -> Self {
        Self::with_source(node, OpSource::Replay(TraceReplayer::new(trace, node)), now)
    }

    fn with_source(node: NodeId, source: OpSource, now: Cycle) -> Self {
        let mut p = Self {
            node,
            source,
            max_outstanding: 1,
            phase: Phase::Done,
            in_flight: Vec::new(),
            replay: VecDeque::new(),
            recorder: None,
            stats: ProcessorStats::default(),
        };
        p.advance_to_next_op(now, 0);
        p
    }

    /// Sets the MSHR capacity (clamped to at least 1). With the default of
    /// 1 the processor is the paper's blocking model.
    #[must_use]
    pub fn with_max_outstanding(mut self, max_outstanding: usize) -> Self {
        self.max_outstanding = max_outstanding.max(1);
        self
    }

    /// Starts recording the accepted-request schedule (for later replay).
    pub fn enable_recording(&mut self) {
        self.recorder.get_or_insert_with(Vec::new);
    }

    /// The recorded schedule so far, if recording is enabled.
    #[must_use]
    pub fn recorded_events(&self) -> Option<&[TraceEvent]> {
        self.recorder.as_deref()
    }

    /// The node this processor belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The MSHR capacity.
    #[must_use]
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Performance counters.
    #[must_use]
    pub fn stats(&self) -> &ProcessorStats {
        &self.stats
    }

    /// Memory operations completed so far (the throughput measure used for
    /// normalized performance).
    #[must_use]
    pub fn ops_completed(&self) -> u64 {
        self.stats.ops_completed
    }

    /// True when at least one miss is outstanding.
    #[must_use]
    pub fn is_waiting(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Number of outstanding misses.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Cycle at which the oldest outstanding miss was issued, if any.
    #[must_use]
    pub fn waiting_since(&self) -> Option<Cycle> {
        self.in_flight.iter().map(|f| f.issued_at).min()
    }

    /// The earliest cycle at which [`Processor::poll`] can return a request:
    /// the end of the current think time, or `None` while the processor is
    /// blocked on a full in-flight set (a completion wakes it) or its trace
    /// is exhausted. System layers use this as the per-node wake-up cycle,
    /// skipping the poll entirely during quiescent stretches.
    #[must_use]
    pub fn ready_at(&self) -> Option<Cycle> {
        match self.phase {
            Phase::Thinking { until, .. } => Some(until),
            Phase::Ready { .. } => Some(0),
            Phase::Blocked | Phase::Done => None,
        }
    }

    /// True while the processor re-presents a request its cache controller
    /// has not accepted yet (a structural stall, or a slow-start hold).
    /// Polling such a processor changes nothing; only the controller's
    /// answer can move it on.
    #[must_use]
    pub fn is_presenting(&self) -> bool {
        matches!(self.phase, Phase::Ready { .. })
    }

    /// Returns the request the processor wants to present to its cache
    /// controller this cycle, if any.
    #[must_use]
    pub fn poll(&mut self, now: Cycle) -> Option<CpuRequest> {
        match self.phase {
            Phase::Thinking { until, next } => {
                if now >= until {
                    self.phase = Phase::Ready { next };
                    Some(next)
                } else {
                    None
                }
            }
            Phase::Ready { next } => Some(next),
            Phase::Blocked | Phase::Done => None,
        }
    }

    fn advance_to_next_op(&mut self, now: Cycle, extra_latency: CycleDelta) {
        // Requests rescued by a checkpoint restore re-issue first, with a
        // minimal think time (their original think time was already spent).
        if let Some(req) = self.replay.pop_front() {
            self.phase = Phase::Thinking {
                until: now + extra_latency + 1,
                next: req,
            };
            return;
        }
        let op = match &mut self.source {
            OpSource::Synthetic(gen) => Some(gen.next_op_at(now)),
            OpSource::Replay(r) => r.next_op_at(now + extra_latency),
        };
        self.phase = match op {
            Some(op) => Phase::Thinking {
                until: now + extra_latency + op.think_cycles,
                next: op.req,
            },
            None => Phase::Done,
        };
    }

    fn record(&mut self, now: Cycle, req: CpuRequest) {
        if let Some(rec) = &mut self.recorder {
            rec.push(TraceEvent {
                cycle: now,
                addr: req.addr,
                access: req.access,
                store_value: req.store_value,
            });
        }
    }

    /// The presented request hit in the cache with the given latency.
    pub fn note_hit(&mut self, now: Cycle, latency: CycleDelta, was_store: bool) {
        debug_assert!(matches!(self.phase, Phase::Ready { .. }));
        if let Phase::Ready { next } = self.phase {
            self.record(now, next);
        }
        self.stats.ops_completed += 1;
        if was_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        self.advance_to_next_op(now, latency);
    }

    /// The presented request missed; a coherence transaction was started.
    /// The miss is parked in the in-flight set; the processor keeps
    /// thinking unless the set is now full.
    pub fn note_miss_issued(&mut self, now: Cycle) {
        let Phase::Ready { next } = self.phase else {
            debug_assert!(false, "miss issued while not presenting a request");
            return;
        };
        self.record(now, next);
        self.stats.misses += 1;
        self.in_flight.push(InFlight {
            issued_at: now,
            req: next,
        });
        if self.in_flight.len() >= self.max_outstanding {
            self.phase = Phase::Blocked;
        } else {
            self.advance_to_next_op(now, 0);
        }
    }

    /// The cache controller could not accept the request this cycle.
    pub fn note_stall(&mut self) {
        self.stats.stall_retries += 1;
        // Stay in Ready; the request is re-presented next cycle.
    }

    /// Accounts `cycles` stall retries in one step. The phase-split engine
    /// parks a stalled processor instead of re-presenting its request every
    /// cycle (a stall's outcome cannot change until the node's cache
    /// controller ingests a message), then settles the skipped retries here
    /// so the statistics match the cycle-by-cycle reference kernel exactly.
    pub fn note_skipped_stalls(&mut self, cycles: u64) {
        self.stats.stall_retries += cycles;
    }

    /// An outstanding miss on `addr` completed. Completions may arrive in
    /// any order; they are matched by block address. A completion with no
    /// matching in-flight entry (possible transiently around a recovery) is
    /// ignored and reported as `None`; otherwise the retired miss's wait in
    /// cycles is returned (the engine feeds it to the miss-latency
    /// histogram).
    pub fn note_miss_completed(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        was_store: bool,
    ) -> Option<CycleDelta> {
        let pos = self.in_flight.iter().position(|f| f.req.addr == addr)?;
        let entry = self.in_flight.remove(pos);
        self.stats.ops_completed += 1;
        if was_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let wait = now.saturating_sub(entry.issued_at);
        self.stats.miss_wait_cycles += wait;
        if self.phase == Phase::Blocked {
            self.advance_to_next_op(now, 0);
        }
        Some(wait)
    }

    /// Captures processor state (including the op source and any recording)
    /// for a checkpoint.
    #[must_use]
    pub fn snapshot(&self) -> ProcessorSnapshot {
        ProcessorSnapshot {
            phase: self.phase,
            stats: self.stats,
            source: match &self.source {
                OpSource::Synthetic(gen) => OpSourceSnapshot::Synthetic(gen.snapshot()),
                OpSource::Replay(r) => OpSourceSnapshot::Replay(r.snapshot()),
            },
            in_flight: self.in_flight.clone(),
            replay: self.replay.clone(),
            recorder: self.recorder.clone(),
        }
    }

    /// Restores processor state from a checkpoint. Misses that were in
    /// flight at checkpoint time (and any request that was about to issue)
    /// are re-issued after recovery, oldest first; completed-but-rolled-back
    /// work is replayed because the op source rewinds with the processor.
    pub fn restore(&mut self, now: Cycle, snap: ProcessorSnapshot) {
        match (&mut self.source, &snap.source) {
            (OpSource::Synthetic(gen), OpSourceSnapshot::Synthetic(s)) => gen.restore(s.clone()),
            (OpSource::Replay(r), OpSourceSnapshot::Replay(s)) => r.restore(*s),
            _ => debug_assert!(false, "snapshot op-source kind mismatch"),
        }
        self.stats = snap.stats;
        self.recorder = snap.recorder;
        // Every request the checkpoint had already drawn but not completed
        // must re-issue, in generation order: in-flight misses first, then
        // the restored replay queue, then the op held by the phase.
        let mut pending: VecDeque<CpuRequest> = snap.in_flight.iter().map(|f| f.req).collect();
        pending.extend(snap.replay.iter().copied());
        match snap.phase {
            Phase::Thinking { next, .. } | Phase::Ready { next } => pending.push_back(next),
            Phase::Blocked | Phase::Done => {}
        }
        self.in_flight.clear();
        // Execution resumes from the register checkpoint: re-anchor the
        // think time at the recovery cycle (the precise residual think time
        // is not architecturally visible).
        self.phase = match pending.pop_front() {
            Some(next) => Phase::Thinking {
                until: now + 1,
                next,
            },
            None => Phase::Done,
        };
        self.replay = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::WorkloadKind;
    use specsim_coherence::types::CpuAccess;

    fn proc() -> Processor {
        let g = WorkloadGenerator::new(WorkloadKind::Jbb, NodeId(0), 42);
        Processor::new(NodeId(0), g, 0)
    }

    fn nonblocking(max: usize) -> Processor {
        let g = WorkloadGenerator::new(WorkloadKind::Jbb, NodeId(0), 42);
        Processor::new(NodeId(0), g, 0).with_max_outstanding(max)
    }

    fn next_req(p: &mut Processor, now: &mut Cycle) -> CpuRequest {
        loop {
            *now += 1;
            if let Some(r) = p.poll(*now) {
                return r;
            }
        }
    }

    #[test]
    fn processor_thinks_before_issuing() {
        let mut p = proc();
        // At cycle 0 the processor is still thinking (think times are >= 1).
        assert!(p.poll(0).is_none());
        // Eventually it becomes ready and presents a request.
        let mut presented = None;
        for now in 1..100 {
            if let Some(req) = p.poll(now) {
                presented = Some((now, req));
                break;
            }
        }
        assert!(presented.is_some());
    }

    #[test]
    fn hit_completes_the_op_and_moves_on() {
        let mut p = proc();
        let mut now = 0;
        let req = next_req(&mut p, &mut now);
        p.note_hit(now, 2, req.access == CpuAccess::Store);
        assert_eq!(p.ops_completed(), 1);
        assert!(p.poll(now).is_none(), "must think again after a hit");
        // It issues another request later.
        let mut issued_again = false;
        for t in now + 1..now + 100 {
            if p.poll(t).is_some() {
                issued_again = true;
                break;
            }
        }
        assert!(issued_again);
    }

    #[test]
    fn miss_blocks_until_completion() {
        let mut p = proc();
        let mut now = 0;
        let req = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        assert!(p.is_waiting());
        assert_eq!(p.waiting_since(), Some(now));
        assert!(
            p.poll(now + 500).is_none(),
            "blocking processor issues nothing while waiting"
        );
        p.note_miss_completed(now + 700, req.addr, false);
        assert_eq!(p.ops_completed(), 1);
        assert_eq!(p.stats().miss_wait_cycles, 700);
        assert!(!p.is_waiting());
    }

    #[test]
    fn stall_keeps_the_request_pending() {
        let mut p = proc();
        let mut now = 0;
        assert!(!p.is_presenting(), "thinking before the first request");
        let first = next_req(&mut p, &mut now);
        assert!(p.is_presenting());
        p.note_stall();
        assert!(p.is_presenting(), "a stalled request stays presented");
        let again = p
            .poll(now + 1)
            .expect("request must be re-presented after a stall");
        assert_eq!(first, again);
        assert_eq!(p.stats().stall_retries, 1);
    }

    #[test]
    fn nonblocking_processor_keeps_issuing_until_mshrs_fill() {
        let mut p = nonblocking(2);
        let mut now = 0;
        let first = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        assert_eq!(p.outstanding(), 1);
        assert!(
            p.ready_at().is_some(),
            "one free MSHR left: the processor keeps thinking"
        );
        // It presents a second reference while the first is outstanding.
        let second = next_req(&mut p, &mut now);
        assert_ne!((first.addr, now), (second.addr, 0));
        p.note_miss_issued(now);
        assert_eq!(p.outstanding(), 2);
        assert!(p.ready_at().is_none(), "MSHRs full: blocked");
        assert!(p.poll(now + 100).is_none());
        // Completions may arrive out of order; matching is by address.
        p.note_miss_completed(now + 10, second.addr, second.access == CpuAccess::Store);
        assert_eq!(p.outstanding(), 1);
        assert!(p.ready_at().is_some(), "a free slot unblocks the processor");
        p.note_miss_completed(now + 20, first.addr, first.access == CpuAccess::Store);
        assert_eq!(p.ops_completed(), 2);
        assert!(!p.is_waiting());
        // waiting_since always tracked the oldest in-flight miss.
    }

    #[test]
    fn waiting_since_tracks_oldest_in_flight_miss() {
        let mut p = nonblocking(3);
        let mut now = 0;
        let a = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        let first_issue = now;
        let _b = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        assert_eq!(p.waiting_since(), Some(first_issue));
        p.note_miss_completed(now + 1, a.addr, a.access == CpuAccess::Store);
        assert!(p.waiting_since().unwrap() > first_issue);
    }

    #[test]
    fn unmatched_completion_is_ignored() {
        let mut p = proc();
        let mut now = 0;
        let req = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        p.note_miss_completed(now + 5, BlockAddr(req.addr.0 ^ 1), false);
        assert_eq!(p.ops_completed(), 0, "wrong-address completion ignored");
        assert!(p.is_waiting());
    }

    #[test]
    fn snapshot_restore_rewinds_completed_work() {
        let mut p = proc();
        let mut now = 0;
        // Complete a few ops as hits.
        for _ in 0..5 {
            let req = next_req(&mut p, &mut now);
            p.note_hit(now, 2, req.access == CpuAccess::Store);
        }
        let snap = p.snapshot();
        let ops_at_snap = p.ops_completed();
        for _ in 0..5 {
            let req = next_req(&mut p, &mut now);
            p.note_hit(now, 2, req.access == CpuAccess::Store);
        }
        assert_eq!(p.ops_completed(), ops_at_snap + 5);
        p.restore(now, snap);
        assert_eq!(
            p.ops_completed(),
            ops_at_snap,
            "speculative work must be discarded"
        );
        assert!(!p.is_waiting());
    }

    #[test]
    fn restore_while_a_miss_is_outstanding_resumes_cleanly() {
        let mut p = proc();
        let mut now = 0;
        while p.poll(now).is_none() {
            now += 1;
        }
        p.note_miss_issued(now);
        let snap = p.snapshot();
        p.restore(now + 1000, snap);
        assert!(!p.is_waiting());
        // The processor eventually issues again.
        let mut issued = false;
        for t in now + 1000..now + 1200 {
            if p.poll(t).is_some() {
                issued = true;
                break;
            }
        }
        assert!(issued);
    }

    #[test]
    fn restore_reissues_every_in_flight_miss_in_order() {
        let mut p = nonblocking(3);
        let mut now = 0;
        let a = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        let b = next_req(&mut p, &mut now);
        p.note_miss_issued(now);
        assert_eq!(p.outstanding(), 2);
        let snap = p.snapshot();
        p.restore(now + 100, snap);
        assert_eq!(p.outstanding(), 0);
        // Both rolled-back misses re-present, oldest first, then the stream
        // continues from the rewound generator.
        now += 100;
        let ra = next_req(&mut p, &mut now);
        assert_eq!(ra, a);
        p.note_miss_issued(now);
        let rb = next_req(&mut p, &mut now);
        assert_eq!(rb, b);
    }

    #[test]
    fn recording_captures_the_accepted_schedule_and_replay_reproduces_it() {
        let mut p = proc();
        p.enable_recording();
        let mut now = 0;
        for i in 0..6 {
            let req = next_req(&mut p, &mut now);
            if i % 2 == 0 {
                p.note_hit(now, 2, req.access == CpuAccess::Store);
            } else {
                p.note_miss_issued(now);
                p.note_miss_completed(now + 40, req.addr, req.access == CpuAccess::Store);
                now += 40;
            }
        }
        let events = p.recorded_events().unwrap().to_vec();
        assert_eq!(events.len(), 6);
        // Replay presents the same requests at the same cycles.
        let trace = Arc::new(Trace {
            nodes: vec![events.clone()],
        });
        let mut r = Processor::from_trace(NodeId(0), trace, 0);
        for e in &events {
            let mut t = 0;
            let req = next_req(&mut r, &mut t);
            assert_eq!(t, e.cycle, "replayed op ready exactly at recorded cycle");
            assert_eq!(req, e.req());
            r.note_hit(t, 0, req.access == CpuAccess::Store);
        }
        assert!(r.ready_at().is_none(), "trace exhausted: processor is done");
        assert!(r.poll(1_000_000).is_none());
    }

    #[test]
    fn recording_rolls_back_with_a_restore() {
        let mut p = proc();
        p.enable_recording();
        let mut now = 0;
        for _ in 0..3 {
            let req = next_req(&mut p, &mut now);
            p.note_hit(now, 2, req.access == CpuAccess::Store);
        }
        let snap = p.snapshot();
        for _ in 0..3 {
            let req = next_req(&mut p, &mut now);
            p.note_hit(now, 2, req.access == CpuAccess::Store);
        }
        assert_eq!(p.recorded_events().unwrap().len(), 6);
        p.restore(now, snap);
        assert_eq!(
            p.recorded_events().unwrap().len(),
            3,
            "squashed work must vanish from the recording"
        );
    }
}
