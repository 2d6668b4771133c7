//! Totally ordered broadcast network (the snooping address network).
//!
//! The broadcast snooping protocol of Section 3.2 relies on an address
//! network that delivers every coherence request to every node (including the
//! requester) in a single global order. This module models such a network:
//! nodes post requests, an arbiter grants one request per arbitration slot in
//! round-robin order, and the granted request is broadcast to all nodes with
//! a fixed latency. The data responses of the snooping system travel on an
//! ordinary point-to-point network ([`crate::Network`]); only the address
//! traffic needs total order.

use std::collections::VecDeque;

use specsim_base::{Counter, Cycle, CycleDelta, MsgQueue, NodeId};

/// A snoop delivered to a node: the request payload plus its position in the
/// global order and its issuer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusDelivery<P> {
    /// The node that issued the request.
    pub src: NodeId,
    /// Position of this request in the bus's total order (0-based).
    pub order: u64,
    /// Cycle at which the request was granted the bus.
    pub granted_at: Cycle,
    /// The protocol payload.
    pub payload: P,
}

/// Statistics for an [`OrderedBus`].
#[derive(Debug, Clone, Default)]
pub struct BusStats {
    /// Requests posted by nodes.
    pub requested: Counter,
    /// Requests granted and broadcast.
    pub granted: Counter,
    /// Snoop deliveries consumed by nodes.
    pub consumed: Counter,
}

/// A totally ordered broadcast bus carrying payloads of type `P`.
#[derive(Debug, Clone)]
pub struct OrderedBus<P> {
    num_nodes: usize,
    arbitration_interval: CycleDelta,
    broadcast_latency: CycleDelta,
    pending: Vec<MsgQueue<P>>,
    in_flight: VecDeque<(Cycle, NodeId, u64, Cycle, P)>,
    delivery: Vec<VecDeque<BusDelivery<P>>>,
    next_grant_at: Cycle,
    next_order: u64,
    rr: usize,
    stats: BusStats,
}

impl<P: Clone> OrderedBus<P> {
    /// Creates a bus for `num_nodes` nodes. One request is granted every
    /// `arbitration_interval` cycles (the bus bandwidth limit) and a granted
    /// request is observed by every node `broadcast_latency` cycles later.
    #[must_use]
    pub fn new(
        num_nodes: usize,
        arbitration_interval: CycleDelta,
        broadcast_latency: CycleDelta,
    ) -> Self {
        assert!(num_nodes > 0, "bus needs at least one node");
        assert!(
            arbitration_interval > 0,
            "arbitration interval must be positive"
        );
        Self {
            num_nodes,
            arbitration_interval,
            broadcast_latency,
            pending: (0..num_nodes).map(|_| MsgQueue::unbounded()).collect(),
            in_flight: VecDeque::new(),
            delivery: (0..num_nodes).map(|_| VecDeque::new()).collect(),
            next_grant_at: 0,
            next_order: 0,
            rr: 0,
            stats: BusStats::default(),
        }
    }

    /// Number of nodes attached to the bus.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Posts a request from `src`; it will be granted in some later
    /// arbitration slot.
    pub fn request(&mut self, src: NodeId, payload: P) {
        self.stats.requested.incr();
        self.pending[src.index()]
            .push(payload)
            .unwrap_or_else(|_| panic!("bus pending queues are unbounded"));
    }

    /// Requests waiting for the bus at `src`.
    #[must_use]
    pub fn pending_len(&self, src: NodeId) -> usize {
        self.pending[src.index()].len()
    }

    /// Total requests granted so far (length of the global order).
    #[must_use]
    pub fn granted(&self) -> u64 {
        self.stats.granted.get()
    }

    /// Snoops waiting to be consumed by `node`.
    #[must_use]
    pub fn snoop_len(&self, node: NodeId) -> usize {
        self.delivery[node.index()].len()
    }

    /// The earliest cycle after `now` at which the bus has work, or `None`
    /// when it is empty: `now + 1` while an undelivered snoop waits at some
    /// node, the next grant slot while a request is pending, and the
    /// delivery cycle of the oldest in-flight broadcast.
    #[must_use]
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        let next = now + 1;
        if self.delivery.iter().any(|q| !q.is_empty()) {
            return Some(next);
        }
        let grant = self
            .pending
            .iter()
            .any(|q| !q.is_empty())
            .then_some(self.next_grant_at);
        let broadcast = self.in_flight.front().map(|&(at, ..)| at);
        grant
            .into_iter()
            .chain(broadcast)
            .min()
            .map(|due| due.max(next))
    }

    /// Advances the bus by one cycle: grants at most one pending request when
    /// the arbitration slot is free, and delivers broadcasts whose latency
    /// has elapsed.
    pub fn tick(&mut self, now: Cycle) {
        // Arbitration.
        if now >= self.next_grant_at {
            let mut granted = None;
            for k in 0..self.num_nodes {
                let i = (self.rr + k) % self.num_nodes;
                if let Some(payload) = self.pending[i].pop() {
                    granted = Some((NodeId::from(i), payload));
                    self.rr = (i + 1) % self.num_nodes;
                    break;
                }
            }
            if let Some((src, payload)) = granted {
                let order = self.next_order;
                self.next_order += 1;
                self.stats.granted.incr();
                self.in_flight
                    .push_back((now + self.broadcast_latency, src, order, now, payload));
                self.next_grant_at = now + self.arbitration_interval;
            }
        }
        // Delivery: broadcasts whose latency has elapsed reach every node in
        // grant order.
        while matches!(self.in_flight.front(), Some(&(at, ..)) if at <= now) {
            let (_, src, order, granted_at, payload) = self.in_flight.pop_front().unwrap();
            for node in 0..self.num_nodes {
                self.delivery[node].push_back(BusDelivery {
                    src,
                    order,
                    granted_at,
                    payload: payload.clone(),
                });
            }
        }
    }

    /// Removes the next snoop for `node` (in global order).
    pub fn pop_snoop(&mut self, node: NodeId) -> Option<BusDelivery<P>> {
        let d = self.delivery[node.index()].pop_front();
        if d.is_some() {
            self.stats.consumed.incr();
        }
        d
    }

    /// Peeks the next snoop for `node` without consuming it.
    #[must_use]
    pub fn peek_snoop(&self, node: NodeId) -> Option<&BusDelivery<P>> {
        self.delivery[node.index()].front()
    }

    /// Bus statistics.
    #[must_use]
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Drops every pending request, in-flight broadcast and undelivered
    /// snoop (recovery drain). Returns the number of messages dropped.
    pub fn drain(&mut self) -> usize {
        let mut dropped = 0;
        for q in &mut self.pending {
            dropped += q.len();
            q.clear();
        }
        dropped += self.in_flight.len();
        self.in_flight.clear();
        for q in &mut self.delivery {
            dropped += q.len();
            q.clear();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_observe_the_same_total_order() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(4, 5, 20);
        // Several nodes race to post requests.
        bus.request(NodeId(2), 200);
        bus.request(NodeId(0), 100);
        bus.request(NodeId(3), 300);
        bus.request(NodeId(0), 101);
        let mut now = 0;
        while bus.granted() < 4 || bus.snoop_len(NodeId(0)) < 4 {
            now += 1;
            bus.tick(now);
            assert!(now < 1000, "bus made no progress");
        }
        let orders: Vec<Vec<(u64, u32)>> = (0..4)
            .map(|n| {
                let mut v = Vec::new();
                while let Some(d) = bus.pop_snoop(NodeId::from(n)) {
                    v.push((d.order, d.payload));
                }
                v
            })
            .collect();
        for n in 1..4 {
            assert_eq!(orders[n], orders[0], "node {n} saw a different order");
        }
        assert_eq!(orders[0].len(), 4);
        // Orders are consecutive from zero.
        for (i, (order, _)) in orders[0].iter().enumerate() {
            assert_eq!(*order, i as u64);
        }
    }

    #[test]
    fn requester_also_observes_its_own_request() {
        let mut bus: OrderedBus<&'static str> = OrderedBus::new(2, 1, 3);
        bus.request(NodeId(1), "writeback");
        for now in 1..10 {
            bus.tick(now);
        }
        let seen = bus.pop_snoop(NodeId(1)).unwrap();
        assert_eq!(seen.payload, "writeback");
        assert_eq!(seen.src, NodeId(1));
    }

    #[test]
    fn arbitration_interval_limits_throughput() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 10, 1);
        for i in 0..5 {
            bus.request(NodeId(0), i);
        }
        for now in 1..=25 {
            bus.tick(now);
        }
        // With a 10-cycle arbitration interval only ~3 grants fit in 25 cycles.
        assert!(bus.granted() <= 3, "granted {}", bus.granted());
        assert!(bus.granted() >= 2);
    }

    #[test]
    fn round_robin_is_fair_across_nodes() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(4, 1, 1);
        // Node 0 floods; node 3 posts one request. Node 3 must be granted
        // within the first few slots.
        for i in 0..100 {
            bus.request(NodeId(0), i);
        }
        bus.request(NodeId(3), 999);
        let mut now = 0;
        let mut first_999 = None;
        while first_999.is_none() && now < 100 {
            now += 1;
            bus.tick(now);
            while let Some(d) = bus.pop_snoop(NodeId(1)) {
                if d.payload == 999 {
                    first_999 = Some(d.order);
                }
            }
        }
        let order = first_999.expect("node 3's request was starved");
        assert!(
            order < 4,
            "round robin should grant node 3 quickly, order {order}"
        );
    }

    #[test]
    fn next_due_covers_grants_broadcasts_and_undelivered_snoops() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 10, 5);
        assert_eq!(bus.next_due(0), None);
        bus.request(NodeId(1), 7);
        assert_eq!(bus.next_due(0), Some(1), "grant slot is open");
        bus.tick(1);
        // Granted at 1: broadcast lands at 6; no request pending.
        assert_eq!(bus.next_due(1), Some(6));
        bus.request(NodeId(0), 8);
        assert_eq!(bus.next_due(1), Some(6));
        for now in 2..=6 {
            bus.tick(now);
        }
        assert_eq!(bus.next_due(6), Some(7), "snoops wait to be consumed");
        while bus.pop_snoop(NodeId(0)).is_some() {}
        while bus.pop_snoop(NodeId(1)).is_some() {}
        assert_eq!(bus.next_due(6), Some(11), "next arbitration slot");
    }

    #[test]
    fn drain_discards_everything() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 2, 10);
        bus.request(NodeId(0), 1);
        bus.request(NodeId(1), 2);
        bus.tick(1);
        let dropped = bus.drain();
        assert!(dropped >= 2);
        assert_eq!(bus.pending_len(NodeId(0)), 0);
        assert_eq!(bus.snoop_len(NodeId(0)), 0);
        for now in 2..20 {
            bus.tick(now);
        }
        assert_eq!(bus.snoop_len(NodeId(1)), 0);
    }

    #[test]
    fn broadcast_latency_is_respected() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 1, 50);
        bus.request(NodeId(0), 7);
        bus.tick(1); // granted at cycle 1
        for now in 2..51 {
            bus.tick(now);
            assert_eq!(bus.snoop_len(NodeId(1)), 0, "delivered too early at {now}");
        }
        bus.tick(51);
        assert_eq!(bus.snoop_len(NodeId(1)), 1);
        let d = bus.pop_snoop(NodeId(1)).unwrap();
        assert_eq!(d.granted_at, 1);
    }
}
