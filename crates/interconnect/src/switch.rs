//! Switch state as one flat struct-of-arrays slab.
//!
//! Earlier revisions kept a `Vec<Switch>` of nested structs (ports holding
//! `Vec`s of buffers holding packet queues). The per-cycle forward kernel
//! walks per-port occupancy counters, credits and queue heads for *many*
//! switches; with nested structs every hop is a pointer chase into a
//! different allocation. This module flattens all of that into contiguous
//! arrays indexed by dense `(switch, port, buffer)` / `(switch, link)`
//! coordinates — the packet payloads themselves live in a
//! [`crate::packet::PacketArena`] and the queues hold dense `u32` ids — so
//! the hot loop reads cache-friendly rows, and the parallel forward phase
//! can hand disjoint index ranges to worker threads.
//!
//! The forwarding logic that moves packets *between* switches still lives in
//! [`crate::network`]; this module owns the layout and the local
//! bookkeeping (credit-exact reservations, round-robin pointers, incremental
//! occupancy counters).

use std::collections::VecDeque;

use specsim_base::{Cycle, UtilizationTracker};

use crate::config::BufferLayout;
use crate::topology::Direction;

/// Ports per switch: the four link directions plus the local injection port.
pub(crate) const PORTS_PER_SWITCH: usize = 5;

/// Outgoing unidirectional links per switch (no local link).
pub(crate) const LINKS_PER_SWITCH: usize = 4;

/// Capacity sentinel marking an unbounded buffer slot.
pub(crate) const UNBOUNDED: u32 = u32::MAX;

/// A message in flight on a link, due to arrive at `arrival`. The payload
/// stays in the packet arena; only its dense id travels.
#[derive(Debug, Clone)]
pub(crate) struct InTransit {
    pub arrival: Cycle,
    /// Global buffer-slot index (see [`SwitchSlab::slot`]) the packet's
    /// flow-control reservation points at.
    pub target_slot: u32,
    /// Packet id in the network's arena.
    pub id: u32,
}

/// All per-switch state of the torus, flattened into parallel arrays.
///
/// Index spaces:
/// * **buffer slots** — `(switch * 5 + port) * buffers_per_port + buffer`
///   for `queues`, `reserved` and `cap`;
/// * **ports** — `switch * 5 + port` for `rr_next` and `queued`;
/// * **links** — `switch * 4 + direction` for `busy_until`, `in_transit`
///   and `util`;
/// * **switches** — plain node index for `queued_total`.
///
/// `reserved` counts messages currently in flight on the upstream link that
/// will land in a slot; reserving at forwarding time is what makes the flow
/// control credit-exact. `queued` / `queued_total` mirror the queue lengths
/// incrementally and feed the active-switch worklist, so the per-cycle
/// kernel never scans buffers of idle ports.
#[derive(Debug, Clone)]
pub(crate) struct SwitchSlab {
    pub buffers_per_port: usize,
    pub queues: Vec<VecDeque<u32>>,
    pub reserved: Vec<u32>,
    pub cap: Vec<u32>,
    pub rr_next: Vec<u32>,
    pub queued: Vec<u32>,
    pub queued_total: Vec<u32>,
    pub busy_until: Vec<Cycle>,
    pub in_transit: Vec<VecDeque<InTransit>>,
    pub util: Vec<UtilizationTracker>,
}

impl SwitchSlab {
    /// Builds the slab with the layout's per-buffer capacities. With
    /// `pooled` set (shared-pool buffer policy) the buffer *structure* is
    /// kept but every individual capacity is unbounded — the node's shared
    /// slot pool, enforced by [`crate::network::Network`], is the only
    /// bound. The local (injection) port honours the injection-queue depth
    /// rather than the per-VC depth.
    pub fn new(num_nodes: usize, layout: &BufferLayout, pooled: bool) -> Self {
        let bpp = layout.buffers_per_port();
        let to_cap = |c: Option<usize>| c.map_or(UNBOUNDED, |c| c as u32);
        let link_cap = if pooled {
            UNBOUNDED
        } else {
            to_cap(layout.buffer_capacity())
        };
        let injection_cap = if pooled {
            UNBOUNDED
        } else {
            to_cap(layout.injection_capacity())
        };
        let slots = num_nodes * PORTS_PER_SWITCH * bpp;
        let mut cap = vec![link_cap; slots];
        for node in 0..num_nodes {
            for b in 0..bpp {
                cap[(node * PORTS_PER_SWITCH + Direction::Local.index()) * bpp + b] = injection_cap;
            }
        }
        Self {
            buffers_per_port: bpp,
            queues: vec![VecDeque::new(); slots],
            reserved: vec![0; slots],
            cap,
            rr_next: vec![0; num_nodes * PORTS_PER_SWITCH],
            queued: vec![0; num_nodes * PORTS_PER_SWITCH],
            queued_total: vec![0; num_nodes],
            busy_until: vec![0; num_nodes * LINKS_PER_SWITCH],
            in_transit: vec![VecDeque::new(); num_nodes * LINKS_PER_SWITCH],
            util: vec![UtilizationTracker::new(); num_nodes * LINKS_PER_SWITCH],
        }
    }

    /// Number of switches in the slab.
    pub fn num_nodes(&self) -> usize {
        self.queued_total.len()
    }

    /// Global buffer-slot index of `(node, port, buffer)`.
    #[inline]
    pub fn slot(&self, node: usize, port: usize, buffer: usize) -> usize {
        (node * PORTS_PER_SWITCH + port) * self.buffers_per_port + buffer
    }

    /// Dense port index of `(node, port)`.
    #[inline]
    pub fn port(node: usize, port: usize) -> usize {
        node * PORTS_PER_SWITCH + port
    }

    /// Dense link index of `(node, direction)`.
    #[inline]
    pub fn link(node: usize, dir: usize) -> usize {
        node * LINKS_PER_SWITCH + dir
    }

    /// True when a new message may be reserved into buffer slot `s`
    /// (queued + in-flight reservations stay under the capacity).
    #[inline]
    pub fn has_space(&self, s: usize) -> bool {
        self.cap[s] == UNBOUNDED || (self.queues[s].len() as u32) + self.reserved[s] < self.cap[s]
    }

    /// Messages either queued or in flight towards buffer slot `s`.
    #[inline]
    pub fn slot_occupancy(&self, s: usize) -> usize {
        self.queues[s].len() + self.reserved[s] as usize
    }

    /// Appends `id` to buffer slot `s`, refusing when the queue itself is at
    /// capacity (reservations do not block an already-reserved push).
    #[inline]
    pub fn push(&mut self, s: usize, id: u32) -> Result<(), ()> {
        if self.cap[s] != UNBOUNDED && self.queues[s].len() as u32 >= self.cap[s] {
            return Err(());
        }
        self.queues[s].push_back(id);
        Ok(())
    }

    /// Accepts a message whose slot was previously reserved.
    pub fn accept_reserved(&mut self, s: usize, id: u32) {
        assert!(self.reserved[s] > 0, "delivery without reservation");
        self.reserved[s] -= 1;
        // A reserved slot is guaranteed to exist; an unbounded queue always
        // accepts. Losing a packet here would be a flow-control bug.
        self.push(s, id)
            .unwrap_or_else(|()| panic!("reserved buffer slot was not available"));
    }

    /// Gives back the reservation of a message that was lost on its link
    /// (fault paths only).
    pub fn release_reservation(&mut self, s: usize) {
        debug_assert!(self.reserved[s] > 0, "blackout drop without a reservation");
        self.reserved[s] = self.reserved[s].saturating_sub(1);
    }

    /// True when link `l` can start serializing a new message at `now`.
    #[inline]
    pub fn link_is_free(&self, l: usize, now: Cycle) -> bool {
        self.busy_until[l] <= now
    }

    /// Total messages queued or in flight towards `(node, port)` across all
    /// its buffers.
    pub fn port_occupancy(&self, node: usize, port: usize) -> usize {
        let base = self.slot(node, port, 0);
        (base..base + self.buffers_per_port)
            .map(|s| self.slot_occupancy(s))
            .sum()
    }

    /// Messages actually queued at `(node, port)` (excluding reservations),
    /// recomputed from the queues (diagnostic ground truth for `queued`).
    pub fn port_queued_scan(&self, node: usize, port: usize) -> usize {
        let base = self.slot(node, port, 0);
        (base..base + self.buffers_per_port)
            .map(|s| self.queues[s].len())
            .sum()
    }

    /// Total messages queued or in flight at switch `node` (all ports and
    /// links), recomputed from the underlying queues.
    pub fn node_occupancy(&self, node: usize) -> usize {
        let queued: usize = (0..PORTS_PER_SWITCH)
            .map(|p| self.port_queued_scan(node, p))
            .sum();
        let transit: usize = (0..LINKS_PER_SWITCH)
            .map(|d| self.in_transit[Self::link(node, d)].len())
            .sum();
        queued + transit
    }

    /// Drops every queued and in-flight message of every switch, pushing the
    /// freed packet ids into `dropped` (recovery drain).
    pub fn clear_all(&mut self, dropped: &mut Vec<u32>) {
        for q in &mut self.queues {
            dropped.extend(q.drain(..));
        }
        self.reserved.fill(0);
        self.queued.fill(0);
        self.queued_total.fill(0);
        for t in &mut self.in_transit {
            dropped.extend(t.drain(..).map(|e| e.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn shared_layout(depth: usize) -> BufferLayout {
        BufferLayout::Shared {
            depth,
            ejection_depth: depth,
            injection_depth: depth,
        }
    }

    #[test]
    fn reservation_consumes_space_before_arrival() {
        let mut slab = SwitchSlab::new(1, &shared_layout(2), false);
        let s = slab.slot(0, 0, 0);
        assert!(slab.has_space(s));
        slab.reserved[s] += 1;
        slab.reserved[s] += 1;
        assert!(!slab.has_space(s));
        assert_eq!(slab.slot_occupancy(s), 2);
        slab.accept_reserved(s, 7);
        assert_eq!(slab.queues[s].len(), 1);
        assert_eq!(slab.reserved[s], 1);
        assert!(!slab.has_space(s));
    }

    #[test]
    fn unbounded_buffer_always_has_space() {
        let mut slab = SwitchSlab::new(1, &shared_layout(1), true);
        let s = slab.slot(0, 0, 0);
        for i in 0..1000 {
            slab.reserved[s] += 1;
            slab.accept_reserved(s, i);
        }
        assert!(slab.has_space(s));
        assert_eq!(slab.slot_occupancy(s), 1000);
    }

    #[test]
    fn pooled_slab_buffers_are_individually_unbounded() {
        let slab = SwitchSlab::new(4, &shared_layout(1), true);
        assert!(
            slab.cap.iter().all(|&c| c == UNBOUNDED),
            "pooled buffers must be unbounded"
        );
    }

    #[test]
    fn injection_port_gets_the_injection_depth() {
        let layout = BufferLayout::Shared {
            depth: 2,
            ejection_depth: 2,
            injection_depth: 9,
        };
        let slab = SwitchSlab::new(3, &layout, false);
        for node in 0..3 {
            for p in 0..PORTS_PER_SWITCH {
                let expect = if p == Direction::Local.index() { 9 } else { 2 };
                assert_eq!(slab.cap[slab.slot(node, p, 0)], expect);
            }
        }
    }

    #[test]
    fn slab_occupancy_and_clear() {
        let mut slab = SwitchSlab::new(4, &shared_layout(4), false);
        let s1 = slab.slot(3, 0, 0);
        let s2 = slab.slot(3, 4, 0);
        slab.push(s1, 1).unwrap();
        slab.push(s2, 2).unwrap();
        slab.in_transit[SwitchSlab::link(3, 0)].push_back(InTransit {
            arrival: 10,
            target_slot: 0,
            id: 3,
        });
        assert_eq!(slab.node_occupancy(3), 3);
        assert_eq!(slab.node_occupancy(0), 0);
        let mut dropped = Vec::new();
        slab.clear_all(&mut dropped);
        dropped.sort_unstable();
        assert_eq!(dropped, vec![1, 2, 3]);
        assert_eq!(slab.node_occupancy(3), 0);
    }

    #[test]
    fn link_busy_accounting() {
        let mut slab = SwitchSlab::new(1, &shared_layout(2), false);
        let l = SwitchSlab::link(0, 0);
        assert!(slab.link_is_free(l, 0));
        slab.busy_until[l] = 100;
        assert!(!slab.link_is_free(l, 50));
        assert!(slab.link_is_free(l, 100));
    }

    #[test]
    #[should_panic(expected = "delivery without reservation")]
    fn accepting_without_reservation_panics() {
        let mut slab = SwitchSlab::new(1, &shared_layout(2), false);
        slab.accept_reserved(0, 0);
    }

    // ------------------------------------------------------------------
    // Model equivalence: the SoA slab against the old Vec-of-structs
    // layout. The model below *is* the previous implementation's
    // `InputBuffer` (a queue of whole packets plus a reservation count);
    // random operation sequences must leave both layouts with identical
    // observable state and identical pop order.
    // ------------------------------------------------------------------

    /// The old per-buffer struct: packets stored inline in the queue.
    struct ModelBuffer {
        queue: VecDeque<u32>,
        reserved: usize,
        capacity: Option<usize>,
    }

    impl ModelBuffer {
        fn has_space(&self) -> bool {
            match self.capacity {
                Some(cap) => self.queue.len() + self.reserved < cap,
                None => true,
            }
        }
        fn occupancy(&self) -> usize {
            self.queue.len() + self.reserved
        }
    }

    proptest! {
        #[test]
        fn slab_matches_vec_of_structs_model(
            depth in 1usize..5,
            ops in proptest::collection::vec((0usize..4, 0usize..20), 0..400),
        ) {
            // One switch, all five ports, shared layout (one buffer/port).
            let layout = shared_layout(depth);
            let mut slab = SwitchSlab::new(1, &layout, false);
            let mut model: Vec<ModelBuffer> = (0..PORTS_PER_SWITCH)
                .map(|_| ModelBuffer {
                    queue: VecDeque::new(),
                    reserved: 0,
                    capacity: Some(depth),
                })
                .collect();
            let mut next_id = 0u32;
            for (op, which) in ops {
                let p = which % PORTS_PER_SWITCH;
                let s = slab.slot(0, p, 0);
                match op {
                    // Reserve a slot iff there is space (forwarding).
                    0 => {
                        prop_assert_eq!(slab.has_space(s), model[p].has_space());
                        if model[p].has_space() {
                            slab.reserved[s] += 1;
                            model[p].reserved += 1;
                        }
                    }
                    // Deliver a previously reserved message.
                    1 => {
                        if model[p].reserved > 0 {
                            slab.accept_reserved(s, next_id);
                            model[p].reserved -= 1;
                            model[p].queue.push_back(next_id);
                            next_id += 1;
                        }
                    }
                    // Inject. The network gates every direct push on
                    // `has_space` (reservations included), exactly like
                    // `can_inject`; a push into reserved-away space never
                    // happens, so the sequence only models legal ones.
                    2 => {
                        let fits = model[p].has_space();
                        prop_assert_eq!(slab.has_space(s), fits);
                        if fits {
                            prop_assert!(slab.push(s, next_id).is_ok());
                            model[p].queue.push_back(next_id);
                            next_id += 1;
                        }
                    }
                    // Forward/eject: pop the head.
                    _ => {
                        prop_assert_eq!(
                            slab.queues[s].pop_front(),
                            model[p].queue.pop_front()
                        );
                    }
                }
                prop_assert_eq!(slab.slot_occupancy(s), model[p].occupancy());
                prop_assert_eq!(slab.has_space(s), model[p].has_space());
            }
            // Final state: identical queue contents on every port.
            for (p, port) in model.iter().enumerate() {
                let s = slab.slot(0, p, 0);
                let got: Vec<u32> = slab.queues[s].iter().copied().collect();
                let want: Vec<u32> = port.queue.iter().copied().collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(slab.reserved[s] as usize, port.reserved);
            }
        }
    }
}
