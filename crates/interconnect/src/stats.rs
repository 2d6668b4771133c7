//! Network statistics.

use specsim_base::{Counter, Histogram, Log2Histogram};

use crate::packet::VirtualNetwork;

/// Statistics gathered by a [`crate::Network`] instance.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Messages accepted into injection queues.
    pub injected: Counter,
    /// Messages handed to their destination's ejection queue.
    pub delivered: Counter,
    /// Messages delivered, by virtual network.
    pub delivered_per_vnet: [Counter; 4],
    /// Total in-fabric latency cycles, by virtual network (for per-class
    /// mean latencies, e.g. the snooping data torus's owner-transfer vs.
    /// writeback classes).
    pub latency_sum_per_vnet: [u64; 4],
    /// In-fabric latency distribution by virtual network, log2-bucketed for
    /// p50/p95/p99 reporting (the fixed-width [`NetStats::latency`]
    /// histogram tops out too early for congested tails).
    pub latency_hist_per_vnet: [Log2Histogram; 4],
    /// Link-to-link hops taken (excluding injection/ejection).
    pub hops: Counter,
    /// End-to-end latency (injection to ejection-queue arrival) in cycles.
    pub latency: Histogram,
    /// Injection attempts rejected because the injection queue was full.
    pub injection_rejects: Counter,
    /// Number of unidirectional links in the network.
    pub num_links: usize,
}

impl NetStats {
    /// Creates an empty statistics block for a network with `num_links`
    /// unidirectional links.
    #[must_use]
    pub fn new(num_links: usize) -> Self {
        Self {
            injected: Counter::new(),
            delivered: Counter::new(),
            delivered_per_vnet: [Counter::new(); 4],
            latency_sum_per_vnet: [0; 4],
            latency_hist_per_vnet: Default::default(),
            hops: Counter::new(),
            latency: Histogram::new(50, 200),
            injection_rejects: Counter::new(),
            num_links,
        }
    }

    /// Records a delivery of a packet of class `vnet` that spent `latency`
    /// cycles in the network.
    pub(crate) fn record_delivery(&mut self, vnet: VirtualNetwork, latency: u64) {
        self.delivered.incr();
        self.delivered_per_vnet[vnet.index()].incr();
        self.latency_sum_per_vnet[vnet.index()] += latency;
        self.latency_hist_per_vnet[vnet.index()].record(latency);
        self.latency.record(latency);
    }

    /// Mean in-fabric latency of messages on one virtual network, in cycles
    /// (0 when none were delivered).
    #[must_use]
    pub fn mean_latency_of(&self, vnet: VirtualNetwork) -> f64 {
        let n = self.delivered_per_vnet[vnet.index()].get();
        if n == 0 {
            0.0
        } else {
            self.latency_sum_per_vnet[vnet.index()] as f64 / n as f64
        }
    }

    /// Mean end-to-end message latency in cycles.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Messages still unaccounted for (injected but not delivered).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.injected.get().saturating_sub(self.delivered.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_records_latency_and_class() {
        let mut s = NetStats::new(1);
        s.record_delivery(VirtualNetwork::Response, 120);
        s.record_delivery(VirtualNetwork::Response, 80);
        assert_eq!(s.delivered.get(), 2);
        assert_eq!(
            s.delivered_per_vnet[VirtualNetwork::Response.index()].get(),
            2
        );
        assert!((s.mean_latency() - 100.0).abs() < 1e-12);
        let hist = &s.latency_hist_per_vnet[VirtualNetwork::Response.index()];
        assert_eq!(hist.count(), 2);
        assert!((hist.mean() - 100.0).abs() < 1e-12);
        assert_eq!(
            s.latency_hist_per_vnet[VirtualNetwork::Request.index()].count(),
            0
        );
    }

    #[test]
    fn per_vnet_mean_latency_separates_classes() {
        let mut s = NetStats::new(1);
        s.record_delivery(VirtualNetwork::Response, 90);
        s.record_delivery(VirtualNetwork::Response, 110);
        s.record_delivery(VirtualNetwork::Request, 720);
        assert!((s.mean_latency_of(VirtualNetwork::Response) - 100.0).abs() < 1e-12);
        assert!((s.mean_latency_of(VirtualNetwork::Request) - 720.0).abs() < 1e-12);
        assert_eq!(s.mean_latency_of(VirtualNetwork::FinalAck), 0.0);
    }

    #[test]
    fn outstanding_counts_in_flight() {
        let mut s = NetStats::new(1);
        s.injected.add(5);
        s.record_delivery(VirtualNetwork::Request, 10);
        assert_eq!(s.outstanding(), 4);
    }
}
