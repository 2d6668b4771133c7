use super::*;
use specsim_base::{DetRng, LinkBandwidth};

type Net = Network<u64>;

/// Drains one batch from the calendar the way `deliver_phase` does.
fn pop_batch(cal: &mut ArrivalCalendar, now: Cycle) -> Option<Vec<(u32, u8)>> {
    let mut out = Vec::new();
    cal.pop_ripe_into(now, &mut out).then_some(out)
}

#[test]
fn calendar_drains_cycles_in_order_and_batches_in_schedule_order() {
    let mut cal = ArrivalCalendar::default();
    assert!(pop_batch(&mut cal, 0).is_none());
    cal.schedule(5, 1, 0);
    cal.schedule(3, 2, 1);
    cal.schedule(5, 3, 2);
    // Nothing ripe before cycle 3.
    assert!(pop_batch(&mut cal, 2).is_none());
    // Earliest cycle first; within a cycle, schedule order.
    assert_eq!(pop_batch(&mut cal, 10), Some(vec![(2, 1)]));
    assert_eq!(pop_batch(&mut cal, 10), Some(vec![(1, 0), (3, 2)]));
    assert!(pop_batch(&mut cal, 10).is_none());
    // Empty again: the cursor re-anchors and far-future cycles work.
    cal.schedule(11, 4, 3);
    assert!(pop_batch(&mut cal, 10).is_none());
    assert_eq!(pop_batch(&mut cal, 11), Some(vec![(4, 3)]));
}

#[test]
fn calendar_overflow_beyond_the_wheel_horizon_is_preserved_in_order() {
    let mut cal = ArrivalCalendar::default();
    let far = MIN_WHEEL_BUCKETS as Cycle + 500;
    // Scheduled while `next` is 0, so `far` lands in the overflow map...
    cal.schedule(far, 9, 1);
    cal.schedule(2, 1, 0);
    // ...and an in-wheel entry for the same far cycle, scheduled later
    // (after the cursor advanced), must drain *after* the overflow one.
    assert_eq!(pop_batch(&mut cal, 2), Some(vec![(1, 0)]));
    cal.schedule(far, 7, 2);
    assert!(pop_batch(&mut cal, far - 1).is_none());
    assert_eq!(pop_batch(&mut cal, far), Some(vec![(9, 1), (7, 2)]));
    assert!(pop_batch(&mut cal, far + MIN_WHEEL_BUCKETS as Cycle).is_none());
}

#[test]
fn calendar_clear_discards_everything_but_keeps_working() {
    let mut cal = ArrivalCalendar::default();
    cal.schedule(4, 1, 0);
    cal.schedule(MIN_WHEEL_BUCKETS as Cycle + 9, 2, 1);
    cal.clear();
    assert!(pop_batch(&mut cal, MIN_WHEEL_BUCKETS as Cycle * 2).is_none());
    cal.schedule(MIN_WHEEL_BUCKETS as Cycle * 2 + 3, 5, 3);
    assert_eq!(
        pop_batch(&mut cal, MIN_WHEEL_BUCKETS as Cycle * 2 + 3),
        Some(vec![(5, 3)])
    );
}

#[test]
fn calendar_wheel_is_sized_from_the_horizon() {
    // The floor applies when the horizon fits the minimum wheel...
    assert_eq!(
        ArrivalCalendar::with_horizon(0).wheel.len(),
        MIN_WHEEL_BUCKETS
    );
    assert_eq!(
        ArrivalCalendar::with_horizon(1023).wheel.len(),
        MIN_WHEEL_BUCKETS
    );
    // ...and a longer horizon rounds up to the next power of two, so the
    // full common scheduling distance stays on the wheel.
    assert_eq!(ArrivalCalendar::with_horizon(1024).wheel.len(), 2048);
    assert_eq!(ArrivalCalendar::with_horizon(3000).wheel.len(), 4096);
    let cal = ArrivalCalendar::with_horizon(3000);
    assert!(cal.wheel.len().is_power_of_two());
}

#[test]
fn calendar_overflow_heavy_schedule_drains_in_exact_order() {
    // Park far more entries in the overflow map than on the wheel —
    // every distinct due cycle beyond the horizon, interleaved with
    // near-term wheel entries — and require the global drain order to be
    // exactly (due cycle asc, schedule order within a cycle), overflow
    // entries strictly before wheel entries for the same cycle.
    let mut cal = ArrivalCalendar::default();
    let lap = MIN_WHEEL_BUCKETS as Cycle;
    let mut expected: BTreeMap<Cycle, Vec<(u32, u8)>> = BTreeMap::new();
    // 64 overflow cycles, several laps deep, three entries each.
    for k in 0..64u32 {
        let due = lap + 17 + 3 * k as Cycle * 37 % (5 * lap);
        for j in 0..3u8 {
            cal.schedule(due, k as usize, j as usize);
            expected.entry(due).or_default().push((k, j));
        }
    }
    // A handful of near entries that must drain first.
    for k in 0..8u32 {
        let due = 2 + k as Cycle * 5;
        cal.schedule(due, 100 + k as usize, 0);
        expected.entry(due).or_default().push((100 + k, 0));
    }
    // Same-cycle mix: an overflow entry scheduled first must come out
    // before a wheel entry scheduled for the same cycle later.
    let mixed = lap + 17; // already in overflow from the loop above
    let mut now = 0;
    let mut got: Vec<(Cycle, Vec<(u32, u8)>)> = Vec::new();
    while now < 8 * lap {
        now += 1;
        if now == mixed {
            // Close enough now to land on the wheel.
            cal.schedule(mixed, 999, 3);
            expected.entry(mixed).or_default().push((999, 3));
        }
        while let Some(batch) = pop_batch(&mut cal, now) {
            got.push((now, batch));
        }
    }
    let want: Vec<(Cycle, Vec<(u32, u8)>)> = expected.into_iter().collect();
    assert_eq!(got, want);
}

#[test]
fn calendar_matches_a_btreemap_model_under_random_traffic() {
    // Drive the wheel and the old BTreeMap<Cycle, Vec> representation
    // with the same schedule/pop stream and require identical batches.
    let mut cal = ArrivalCalendar::default();
    let mut model: BTreeMap<Cycle, Vec<(u32, u8)>> = BTreeMap::new();
    let mut rng = DetRng::new(71);
    let mut now: Cycle = 0;
    for _ in 0..3_000 {
        now += 1 + rng.next_below(3);
        // Drain everything ripe, comparing batch-for-batch (the model
        // pops its earliest entry exactly like the old implementation).
        loop {
            let expected = match model.first_key_value() {
                Some((&c, _)) if c <= now => model.remove(&c),
                _ => None,
            };
            let got = pop_batch(&mut cal, now);
            assert_eq!(got, expected, "divergence at cycle {now}");
            if got.is_none() {
                break;
            }
        }
        // Schedule a burst of arrivals, occasionally far enough out to
        // exercise the overflow map.
        for _ in 0..rng.next_below(4) {
            let horizon = if rng.next_below(10) == 0 {
                MIN_WHEEL_BUCKETS as Cycle + rng.next_below(400)
            } else {
                1 + rng.next_below(800)
            };
            let arrival = now + horizon;
            let sw = rng.next_below(16) as u32;
            let dir = rng.next_below(4) as u8;
            cal.schedule(arrival, sw as usize, dir as usize);
            model.entry(arrival).or_default().push((sw, dir));
        }
    }
}

fn drain_all_ejections(net: &mut Net) -> Vec<Packet<u64>> {
    let mut out = Vec::new();
    for i in 0..net.num_nodes() {
        while let Some(p) = net.eject_any(NodeId::from(i)) {
            out.push(p);
        }
    }
    out
}

/// Ticks the network (draining every ejection queue each cycle, as live
/// endpoints would) until the fabric is empty or `max_cycles` elapse.
/// Returns the final cycle and every packet delivered while draining.
fn run_until_drained(net: &mut Net, start: Cycle, max_cycles: u64) -> (Cycle, Vec<Packet<u64>>) {
    let mut now = start;
    let mut delivered = drain_all_ejections(net);
    while net.in_flight() > 0 && now < start + max_cycles {
        now += 1;
        net.tick(now);
        delivered.extend(drain_all_ejections(net));
    }
    (now, delivered)
}

#[test]
fn single_message_is_delivered_across_the_torus() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    net.inject(
        0,
        NodeId(0),
        NodeId(10),
        VirtualNetwork::Request,
        MessageSize::Control,
        7,
    )
    .unwrap();
    let (end, delivered) = run_until_drained(&mut net, 0, 100_000);
    assert!(net.in_flight() == 0, "message still in flight at {end}");
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 7);
    assert_eq!(delivered[0].dst, NodeId(10));
    // Latency must cover at least distance hops of serialization.
    let min = net.torus().distance(NodeId(0), NodeId(10)) as u64
        * LinkBandwidth::GB_3_2.serialization_cycles(8);
    assert!(net.stats().mean_latency() >= min as f64);
}

#[test]
fn self_send_is_delivered_locally() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    net.inject(
        0,
        NodeId(5),
        NodeId(5),
        VirtualNetwork::Response,
        MessageSize::Data,
        1,
    )
    .unwrap();
    let (_, delivered) = run_until_drained(&mut net, 0, 1000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 1);
    assert_eq!(delivered[0].src, NodeId(5));
    assert_eq!(delivered[0].dst, NodeId(5));
}

#[test]
fn static_routing_preserves_point_to_point_order() {
    let mut net: Net = Network::new(NetConfig::full_buffering(
        16,
        LinkBandwidth::MB_400,
        RoutingPolicy::Static,
    ));
    let mut now = 0;
    let mut sent = 0u64;
    // Keep a stream of messages flowing from node 0 to node 10 while
    // other nodes add background traffic.
    let mut rng = DetRng::new(1);
    for _ in 0..400 {
        now += 1;
        if net.can_inject(NodeId(0), VirtualNetwork::ForwardedRequest) && sent < 200 {
            net.inject(
                now,
                NodeId(0),
                NodeId(10),
                VirtualNetwork::ForwardedRequest,
                MessageSize::Control,
                sent,
            )
            .unwrap();
            sent += 1;
        }
        let src = NodeId::from((rng.next_below(16)) as usize);
        let dst = NodeId::from((rng.next_below(16)) as usize);
        if src != dst && net.can_inject(src, VirtualNetwork::Response) {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Response,
                MessageSize::Data,
                0,
            );
        }
        net.tick(now);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "not drained by {now}");
    assert_eq!(net.ordering().total_reordered(), 0);
    assert!(net.ordering().total_delivered() > 200);
}

#[test]
fn all_messages_are_delivered_under_heavy_random_traffic_with_vcs() {
    let mut cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(99);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..2000 {
        now += 1;
        for _ in 0..4 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now);
        // Endpoints drain their ejection queues every cycle.
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "VC network wedged at {now}");
    assert!(!net.is_stalled(now));
    assert_eq!(net.stats().delivered.get(), injected);
    assert!(injected > 1000);
}

/// Runs the shared heavy-random-traffic scenario on a 16×16 torus and
/// returns `(delivered payloads in ejection order, injected, stats
/// snapshot)`. `pool` selects the forward-phase executor; the schedule
/// must not depend on it.
fn run_sharding_scenario(
    pool: Option<&specsim_base::WorkerPool>,
) -> (Vec<u64>, u64, crate::stats::NetStats) {
    let mut cfg = NetConfig::conventional(256, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(41);
    let mut now = 0;
    let mut injected = 0u64;
    let mut delivered = Vec::new();
    for _ in 0..600 {
        now += 1;
        for _ in 0..32 {
            let src = NodeId::from(rng.next_below(256) as usize);
            let dst = NodeId::from(rng.next_below(256) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick_with_pool(now, pool);
        delivered.extend(drain_all_ejections(&mut net).into_iter().map(|p| p.payload));
    }
    while net.in_flight() > 0 && now < 100_000 {
        now += 1;
        net.tick_with_pool(now, pool);
        delivered.extend(drain_all_ejections(&mut net).into_iter().map(|p| p.payload));
    }
    assert_eq!(net.in_flight(), 0, "scenario wedged");
    if pool.is_some_and(|p| p.threads() > 1) {
        let probe = net.forward_probe();
        assert!(
            probe.parallel_phases > 0,
            "the sharded forward phase never engaged under heavy traffic"
        );
        assert!(probe.parallel_tasks >= probe.parallel_phases);
    }
    (delivered, injected, net.stats().clone())
}

#[test]
fn sharded_forward_phase_is_byte_identical_to_the_serial_scan() {
    // The engagement pin for the parallel exchange: an explicitly
    // oversubscribed pool drives the sharded wavefront executor with
    // real concurrent threads even on a single-core host (where the
    // engine's own clamped pools fall back to the serial scan), and the
    // delivery sequence must match the serial reference exactly —
    // packet for packet, stat for stat.
    let (serial, injected, serial_stats) = run_sharding_scenario(None);
    assert!(injected > 5_000, "scenario must generate real load");
    let pool = specsim_base::WorkerPool::with_exact_threads(4);
    assert_eq!(pool.threads(), 4, "explicit pool ignores the core clamp");
    let (sharded, injected_sharded, sharded_stats) = run_sharding_scenario(Some(&pool));
    assert_eq!(injected, injected_sharded);
    assert_eq!(serial, sharded, "sharded forwarding reordered deliveries");
    assert_eq!(serial_stats.delivered.get(), sharded_stats.delivered.get());
    assert_eq!(serial_stats.hops.get(), sharded_stats.hops.get());
    assert_eq!(
        serial_stats.latency_sum_per_vnet,
        sharded_stats.latency_sum_per_vnet
    );
}

#[test]
fn rectangular_torus_delivers_all_traffic_and_keeps_counters() {
    // An 8×4 rectangular machine under adaptive VC traffic: everything
    // must be delivered and the worklist bookkeeping must stay exact.
    let mut cfg = NetConfig::conventional(32, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    assert_eq!(net.torus().dims(), (8, 4));
    let mut rng = DetRng::new(41);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..1500 {
        now += 1;
        for _ in 0..4 {
            let src = NodeId::from(rng.next_below(32) as usize);
            let dst = NodeId::from(rng.next_below(32) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now);
        for i in 0..32 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
        net.assert_worklist_invariants();
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "8x4 network wedged at {now}");
    assert_eq!(net.stats().delivered.get(), injected);
    assert!(injected > 1000);
}

#[test]
fn explicit_torus_dims_override_the_squarest_derivation() {
    let mut cfg = NetConfig::conventional(32, LinkBandwidth::GB_3_2);
    cfg.torus_dims = Some((16, 2));
    let net: Net = Network::new(cfg);
    assert_eq!(net.torus().dims(), (16, 2));
}

#[test]
#[should_panic(expected = "does not cover")]
fn mismatched_torus_dims_panic() {
    let mut cfg = NetConfig::conventional(32, LinkBandwidth::GB_3_2);
    cfg.torus_dims = Some((4, 4));
    let _ = Network::<u64>::new(cfg);
}

#[test]
fn worst_case_buffering_never_rejects_injection() {
    let mut net: Net = Network::new(NetConfig::full_buffering(
        16,
        LinkBandwidth::MB_400,
        RoutingPolicy::Adaptive,
    ));
    let mut rng = DetRng::new(5);
    for now in 1..200u64 {
        for _ in 0..16 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            net.inject(now, src, dst, VirtualNetwork::Request, MessageSize::Data, 0)
                .unwrap();
        }
        net.tick(now);
    }
    assert_eq!(net.stats().injection_rejects.get(), 0);
}

#[test]
fn undrained_endpoints_back_pressure_and_stall_the_fabric() {
    // Tiny shared buffers and nobody draining ejection queues: the fabric
    // must eventually wedge (endpoint-induced stall), which the watchdog
    // reports. This is the failure mode that, in the full system, the
    // coherence-transaction timeout converts into a recovery.
    let mut net: Net = Network::new(NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2));
    net.set_stall_threshold(2_000);
    let mut rng = DetRng::new(17);
    let mut now = 0;
    for _ in 0..20_000 {
        now += 1;
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Request,
                MessageSize::Control,
                0,
            );
        }
        net.tick(now);
        if net.is_stalled(now) {
            break;
        }
    }
    assert!(
        net.is_stalled(now),
        "expected a stall with undrained endpoints"
    );
    assert!(net.in_flight() > 0);
    // Recovery drains everything and clears the stall.
    let dropped = net.drain(now);
    assert!(dropped > 0);
    assert_eq!(net.in_flight(), 0);
    assert!(!net.is_stalled(now + 1));
}

#[test]
fn worklist_counters_stay_consistent_under_traffic() {
    let mut cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(23);
    let mut now = 0;
    for step in 0..600u64 {
        now += 1;
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst && net.can_inject(src, VirtualNetwork::Request) {
            net.inject(now, src, dst, VirtualNetwork::Request, MessageSize::Data, 0)
                .unwrap();
        }
        net.tick(now);
        // Drain endpoints only intermittently so ejection queues back up.
        if step % 7 == 0 {
            for i in 0..16 {
                while net.eject_any(NodeId::from(i)).is_some() {}
            }
        }
        net.assert_worklist_invariants();
    }
    // Recovery drain must reset every counter and the calendar.
    net.drain(now);
    net.assert_worklist_invariants();
    assert_eq!(net.in_flight(), 0);
    for i in 0..16 {
        assert!(!net.has_ejectable(NodeId::from(i)));
    }
    // The network still works after a drain.
    net.inject(
        now,
        NodeId(0),
        NodeId(9),
        VirtualNetwork::Response,
        MessageSize::Control,
        5,
    )
    .unwrap();
    let (_, delivered) = run_until_drained(&mut net, now, 10_000);
    assert_eq!(delivered.len(), 1);
    net.assert_worklist_invariants();
}

#[test]
fn stall_threshold_comes_from_the_config() {
    let mut cfg = NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2);
    cfg.stall_threshold = 500;
    let mut net: Net = Network::new(cfg);
    net.inject(
        0,
        NodeId(0),
        NodeId(3),
        VirtualNetwork::Request,
        MessageSize::Control,
        0,
    )
    .unwrap();
    // Nothing moves (no ticks): the watchdog trips after the configured
    // threshold rather than the 10_000-cycle default.
    assert!(!net.is_stalled(499));
    assert!(net.is_stalled(500));
}

#[test]
fn routing_policy_can_be_changed_at_runtime() {
    let mut net: Net = Network::new(NetConfig::speculative(16, LinkBandwidth::MB_400, 16));
    assert_eq!(net.routing(), RoutingPolicy::Adaptive);
    net.set_routing(RoutingPolicy::Static);
    assert_eq!(net.routing(), RoutingPolicy::Static);
}

#[test]
fn shared_buffer_injection_back_pressure_reports_rejects() {
    let mut net: Net = Network::new(NetConfig::speculative(4, LinkBandwidth::MB_400, 1));
    // Saturate node 0's injection queue (capacity 1) without ticking.
    assert!(net
        .inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Request,
            MessageSize::Data,
            0
        )
        .is_ok());
    assert!(!net.can_inject(NodeId(0), VirtualNetwork::Request));
    let err = net.inject(
        0,
        NodeId(0),
        NodeId(3),
        VirtualNetwork::Request,
        MessageSize::Data,
        42,
    );
    assert_eq!(err, Err(InjectError(42)));
    assert_eq!(net.stats().injection_rejects.get(), 1);
}

#[test]
fn hop_count_matches_distance_for_a_single_message() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    net.inject(
        0,
        NodeId(0),
        NodeId(15),
        VirtualNetwork::FinalAck,
        MessageSize::Control,
        0,
    )
    .unwrap();
    run_until_drained(&mut net, 0, 100_000);
    assert_eq!(net.in_flight(), 0);
    assert_eq!(
        net.stats().hops.get(),
        net.torus().distance(NodeId(0), NodeId(15)) as u64
    );
}

#[test]
fn shared_pool_network_delivers_traffic_with_exact_slot_accounting() {
    // Random all-class traffic on a pooled network: everything is
    // delivered and the per-node slot accounting (checked against a full
    // scan every cycle, in-flight link reservations included) stays
    // exact.
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    assert!(net.is_pooled());
    let mut rng = DetRng::new(61);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..1500 {
        now += 1;
        for _ in 0..3 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
        net.assert_worklist_invariants();
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "pooled network wedged at {now}");
    assert_eq!(net.stats().delivered.get(), injected);
    assert!(injected > 500);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    net.assert_worklist_invariants();
}

#[test]
fn pool_back_pressure_rejects_injection_when_slots_run_out() {
    // A 4-slot pool: the node's injection path is cut off by pool
    // exhaustion even though the (unbounded) injection buffer has room.
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::MB_400, 4));
    for k in 0..4 {
        assert!(net
            .inject(
                0,
                NodeId(0),
                NodeId(9),
                VirtualNetwork::Request,
                MessageSize::Data,
                k,
            )
            .is_ok());
    }
    assert!(!net.can_inject(NodeId(0), VirtualNetwork::Request));
    assert!(
        !net.can_inject(NodeId(0), VirtualNetwork::Response),
        "every class shares the exhausted pool"
    );
    let err = net.inject(
        0,
        NodeId(0),
        NodeId(9),
        VirtualNetwork::Response,
        MessageSize::Data,
        99,
    );
    assert_eq!(err, Err(InjectError(99)));
    assert_eq!(net.stats().injection_rejects.get(), 1);
    // Other nodes' pools are unaffected.
    assert!(net.can_inject(NodeId(1), VirtualNetwork::Request));
    net.assert_worklist_invariants();
}

#[test]
fn undrained_endpoints_deadlock_an_undersized_pool_and_drain_recovers() {
    // The tentpole failure mode: nobody drains ejection queues, delivered
    // packets pin pool slots, upstream hops back up across nodes and the
    // fabric wedges — the buffer-dependency deadlock of Figures 2–3.
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 4));
    net.set_stall_threshold(2_000);
    let mut rng = DetRng::new(29);
    let mut now = 0;
    for _ in 0..30_000 {
        now += 1;
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Request,
                MessageSize::Control,
                0,
            );
        }
        net.tick(now);
        if net.is_stalled(now) {
            break;
        }
    }
    assert!(net.is_stalled(now), "undersized pool should wedge");
    assert!(net.in_flight() > 0);
    // Recovery drain frees every slot; conservative re-execution reserves
    // one slot per class and the network works again.
    let dropped = net.drain(now);
    assert!(dropped > 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    assert!(net.set_pool_reservation(1));
    assert_eq!(net.pool_reservation(), Some(1));
    net.inject(
        now,
        NodeId(0),
        NodeId(5),
        VirtualNetwork::Response,
        MessageSize::Control,
        7,
    )
    .unwrap();
    let (_, delivered) = run_until_drained(&mut net, now, 100_000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 7);
    assert!(net.set_pool_reservation(0), "reservation can be lifted");
    net.assert_worklist_invariants();
}

#[test]
fn unpooled_networks_refuse_pool_reservations() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    assert!(!net.is_pooled());
    assert!(!net.set_pool_reservation(2));
    assert_eq!(net.pool_reservation(), None);
    assert!(net.pool_occupancy_snapshot().is_empty());
}

use specsim_base::{FaultEvent, FaultPlan, FaultSite};

/// A director with one `kind` event armed on every outgoing link of
/// `node` (so the test does not depend on the routing decision).
fn link_faults(at: Cycle, node: usize, kind: FaultKind, param: u64) -> FaultDirector {
    let events = (0..4)
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
        .collect();
    FaultDirector::new(FaultPlan { events })
}

fn window_fault(at: Cycle, site: FaultSite, kind: FaultKind, param: u64) -> FaultDirector {
    FaultDirector::new(FaultPlan::single(FaultEvent {
        at,
        site,
        kind,
        param,
    }))
}

/// Like [`run_until_drained`] but ticking through the fault director.
fn run_faulted_until_drained(
    net: &mut Net,
    faults: &mut FaultDirector,
    start: Cycle,
    max_cycles: u64,
) -> (Cycle, Vec<Packet<u64>>) {
    let mut now = start;
    let mut delivered = drain_all_ejections(net);
    while net.in_flight() > 0 && now < start + max_cycles {
        now += 1;
        net.tick_faulted(now, Some(faults));
        net.assert_worklist_invariants();
        delivered.extend(drain_all_ejections(net));
    }
    (now, delivered)
}

fn inject_one(net: &mut Net, now: Cycle, src: usize, dst: usize, payload: u64) {
    net.inject(
        now,
        NodeId::from(src),
        NodeId::from(dst),
        VirtualNetwork::Request,
        MessageSize::Control,
        payload,
    )
    .unwrap();
}

#[test]
fn tick_faulted_without_a_director_matches_tick() {
    // `tick_faulted(now, None)` must be a strict no-op relative to
    // `tick(now)`: same schedule, same deliveries, same stats.
    let cfg = NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24);
    let mut a: Net = Network::new(cfg.clone());
    let mut b: Net = Network::new(cfg);
    let mut rng_a = DetRng::new(77);
    let mut rng_b = DetRng::new(77);
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    for now in 1..800u64 {
        for (net, rng) in [(&mut a, &mut rng_a), (&mut b, &mut rng_b)] {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            if net.can_inject(src, VirtualNetwork::Response) {
                let _ = net.inject(
                    now,
                    src,
                    dst,
                    VirtualNetwork::Response,
                    MessageSize::Data,
                    now,
                );
            }
        }
        a.tick(now);
        b.tick_faulted(now, None);
        got_a.extend(
            drain_all_ejections(&mut a)
                .into_iter()
                .map(|p| (p.src, p.seq)),
        );
        got_b.extend(
            drain_all_ejections(&mut b)
                .into_iter()
                .map(|p| (p.src, p.seq)),
        );
    }
    assert_eq!(got_a, got_b);
    assert_eq!(a.in_flight(), b.in_flight());
    assert_eq!(a.stats().delivered.get(), b.stats().delivered.get());
}

#[test]
fn drop_fault_loses_exactly_one_message() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = link_faults(0, 0, FaultKind::Drop, 0);
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 10_000);
    assert!(delivered.is_empty(), "dropped message must not arrive");
    assert_eq!(net.in_flight(), 0, "drop releases the slot and the count");
    assert_eq!(faults.fires(), 1);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    // A later message on the same link sails through (one-shot fault).
    inject_one(&mut net, 100, 0, 1, 8);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 100, 10_000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 8);
    assert_eq!(delivered[0].taint, PacketTaint::Clean);
}

#[test]
fn corrupt_fault_taints_the_delivered_packet() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    let mut faults = link_faults(0, 0, FaultKind::Corrupt, 0);
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 10_000);
    assert_eq!(delivered.len(), 1, "corruption does not lose the message");
    assert_eq!(delivered[0].taint, PacketTaint::Corrupt);
    assert!(delivered[0].taint.is_detectable());
    assert_eq!(faults.fires(), 1);
}

#[test]
fn duplicate_fault_delivers_one_clean_and_one_tainted_copy() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = link_faults(0, 0, FaultKind::Duplicate, 0);
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 10_000);
    assert_eq!(delivered.len(), 2);
    let clean: Vec<_> = delivered
        .iter()
        .filter(|p| p.taint == PacketTaint::Clean)
        .collect();
    let dup: Vec<_> = delivered
        .iter()
        .filter(|p| p.taint == PacketTaint::Duplicate)
        .collect();
    assert_eq!((clean.len(), dup.len()), (1, 1));
    assert_eq!(
        clean[0].seq, dup[0].seq,
        "the copy keeps the sequence number"
    );
    assert_eq!(dup[0].payload, 7);
    // An equal (duplicated) sequence number is not an ordering inversion.
    assert_eq!(net.ordering().total_reordered(), 0);
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
}

#[test]
fn delay_fault_postpones_delivery_by_its_parameter() {
    let mk = || -> Net { Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2)) };
    let mut clean_net = mk();
    inject_one(&mut clean_net, 0, 0, 1, 7);
    let (clean_end, d) = run_until_drained(&mut clean_net, 0, 10_000);
    assert_eq!(d.len(), 1);
    let mut net = mk();
    let mut faults = link_faults(0, 0, FaultKind::Delay, 700);
    inject_one(&mut net, 0, 0, 1, 7);
    let (end, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 20_000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].taint, PacketTaint::Clean);
    assert!(
        end >= clean_end + 700,
        "delayed delivery at {end}, clean at {clean_end}"
    );
}

#[test]
fn switch_stall_window_pauses_forwarding_then_releases() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    let mut faults = window_fault(
        1,
        FaultSite::Switch { node: 0 },
        FaultKind::SwitchStall,
        600,
    );
    inject_one(&mut net, 0, 0, 1, 7);
    let (end, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 20_000);
    assert_eq!(delivered.len(), 1, "stall is temporary — no loss");
    assert!(end >= 601, "nothing forwarded before the window closed");
    assert_eq!(faults.fires(), 1);
}

#[test]
fn switch_blackout_discards_arrivals_at_the_dead_switch() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = window_fault(
        1,
        FaultSite::Switch { node: 1 },
        FaultKind::SwitchBlackout,
        50_000,
    );
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 60_000);
    assert!(
        delivered.is_empty(),
        "arrival at a blacked-out switch is lost"
    );
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
}

#[test]
fn inbox_drop_window_discards_ejections() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = window_fault(
        1,
        FaultSite::Inbox { node: 1 },
        FaultKind::InboxDrop,
        50_000,
    );
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 60_000);
    assert!(delivered.is_empty(), "inbox-dropped message is lost");
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    // After the window a fresh message is delivered normally.
    let mut faults2 = FaultDirector::new(FaultPlan::none());
    inject_one(&mut net, 60_001, 0, 1, 9);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults2, 60_001, 10_000);
    assert_eq!(delivered.len(), 1);
}

#[test]
fn split_pool_network_delivers_with_exact_accounting() {
    // The endpoint/switch split budget under random all-class traffic:
    // everything is delivered and both sides' slot accounting (checked
    // against full scans every cycle) stays exact.
    let mut net: Net = Network::new(NetConfig::shared_pool_split(
        16,
        LinkBandwidth::GB_3_2,
        18,
        6,
    ));
    assert!(net.is_pooled());
    assert!(net.is_pool_split());
    let mut rng = DetRng::new(61);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..1500 {
        now += 1;
        for _ in 0..3 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
        net.assert_worklist_invariants();
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "split-pool network wedged at {now}");
    assert_eq!(net.stats().delivered.get(), injected);
    assert!(injected > 500);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    assert!(net
        .endpoint_pool_occupancy_snapshot()
        .iter()
        .all(|&o| o == 0));
    net.assert_worklist_invariants();
}

#[test]
fn split_pool_endpoint_budget_gates_ejection_but_not_the_fabric() {
    // One endpoint slot at every node: with nobody draining, at most one
    // delivered message can hold node 1's endpoint budget; the others
    // wait *in the fabric* (their switch-side slots intact) instead of
    // overrunning the ejection queue. Draining releases the endpoint
    // slot and the next message comes through.
    let mut net: Net = Network::new(NetConfig::shared_pool_split(
        16,
        LinkBandwidth::MB_400,
        12,
        1,
    ));
    inject_one(&mut net, 0, 0, 1, 10);
    inject_one(&mut net, 0, 2, 1, 11);
    inject_one(&mut net, 0, 5, 1, 12);
    let mut now = 0;
    for _ in 0..5_000 {
        now += 1;
        net.tick(now);
        net.assert_worklist_invariants();
    }
    assert!(net.has_ejectable(NodeId(1)));
    assert!(net.has_exhausted_pool(), "endpoint budget is pinned");
    let mut got = Vec::new();
    for _ in 0..3 {
        let p = net.eject_any(NodeId(1));
        assert!(p.is_some(), "one message per endpoint slot");
        got.push(p.unwrap().payload);
        assert!(net.eject_any(NodeId(1)).is_none(), "budget gates the rest");
        for _ in 0..5_000 {
            now += 1;
            net.tick(now);
            net.assert_worklist_invariants();
        }
    }
    got.sort_unstable();
    assert_eq!(got, vec![10, 11, 12]);
    assert_eq!(net.in_flight(), 0);
    assert!(net
        .endpoint_pool_occupancy_snapshot()
        .iter()
        .all(|&o| o == 0));
}

#[test]
fn mean_link_utilization_is_nonzero_under_traffic_and_bounded() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::MB_400));
    let mut rng = DetRng::new(2);
    let mut now = 0;
    for _ in 0..500 {
        now += 1;
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst && net.can_inject(src, VirtualNetwork::Response) {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Response,
                MessageSize::Data,
                0,
            );
        }
        net.tick(now);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
    }
    let u = net.mean_link_utilization(now);
    assert!(u > 0.0 && u <= 1.0, "utilization {u}");
}

#[test]
fn link_busy_cycles_normalise_to_mean_link_utilization() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::MB_400));
    assert_eq!(net.link_busy_cycles(), 0);
    assert_eq!(net.mean_link_utilization(0), 0.0);
    let mut now = 0;
    for src in 0..16 {
        now += 1;
        let _ = net.inject(
            now,
            NodeId::from(src),
            NodeId::from((src + 5) % 16),
            VirtualNetwork::Response,
            MessageSize::Data,
            0,
        );
        net.tick(now);
    }
    let busy = net.link_busy_cycles();
    assert!(busy > 0);
    // 16 switches × 4 unidirectional links.
    let expected = busy as f64 / (64.0 * now as f64);
    assert!((net.mean_link_utilization(now) - expected.min(1.0)).abs() < 1e-12);
}

/// Drives `net` through `cycles` cycles of sparse bursts (a few packets
/// every ~300 cycles), either ticking every cycle or jumping over every span
/// [`Network::next_due`] declares idle. Returns the delivery log and the
/// number of ticks skipped.
fn sparse_bursts(mut net: Net, cycles: Cycle, skip: bool) -> (Vec<String>, u64, Net) {
    let mut rng = DetRng::new(41);
    let bursts: Vec<Cycle> = (1..cycles / 300)
        .map(|k| k * 300 + rng.next_below(50))
        .collect();
    let mut log = Vec::new();
    let mut skipped = 0;
    let mut now: Cycle = 0;
    let mut burst = bursts.iter().copied().peekable();
    let mut seq = 0u64;
    while now < cycles {
        let next_burst = burst.peek().copied().unwrap_or(cycles + 1);
        if skip {
            let due = net.next_due(now).unwrap_or(Cycle::MAX).min(next_burst);
            if due > now + 1 {
                let last = (due - 1).min(cycles);
                net.skip_idle_ticks(last, last - now);
                skipped += last - now;
                now = last;
                continue;
            }
        }
        now += 1;
        if burst.next_if_eq(&now).is_some() {
            for _ in 0..4 {
                let src = NodeId::from(rng.next_below(16) as usize);
                let dst = NodeId::from(rng.next_below(16) as usize);
                if net.can_inject(src, VirtualNetwork::Request) {
                    net.inject(
                        now,
                        src,
                        dst,
                        VirtualNetwork::Request,
                        MessageSize::Control,
                        seq,
                    )
                    .expect("space checked");
                    seq += 1;
                }
            }
        }
        net.tick(now);
        for i in 0..16 {
            while let Some(p) = net.eject_any(NodeId::from(i)) {
                log.push(format!("{now}:{}->{}#{}", p.src, p.dst, p.payload));
            }
        }
    }
    (log, skipped, net)
}

#[test]
fn skipping_idle_ticks_matches_ticking_them() {
    let cfg = NetConfig::conventional(16, LinkBandwidth::MB_400);
    let (dense_log, none, dense) = sparse_bursts(Network::new(cfg.clone()), 6_000, false);
    let (sparse_log, skipped, sparse) = sparse_bursts(Network::new(cfg), 6_000, true);
    assert_eq!(none, 0);
    assert!(skipped > 2_000, "only {skipped} idle ticks skipped");
    assert!(dense_log.len() > 50);
    assert_eq!(dense_log, sparse_log, "delivery schedule diverged");
    assert_eq!(
        format!("{:?}", dense.stats()),
        format!("{:?}", sparse.stats())
    );
    assert_eq!(dense.forward_probe(), sparse.forward_probe());
    assert_eq!(dense.link_busy_cycles(), sparse.link_busy_cycles());
    assert_eq!(dense.forward_rounds, sparse.forward_rounds);
    assert_eq!(dense.arrivals.next, sparse.arrivals.next);
}

#[test]
fn next_due_reports_the_next_arrival_and_nothing_when_empty() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::MB_400));
    assert_eq!(net.next_due(0), None);
    net.inject(
        1,
        NodeId(0),
        NodeId(1),
        VirtualNetwork::Response,
        MessageSize::Data,
        0,
    )
    .expect("empty network");
    assert_eq!(net.next_due(0), Some(1), "a queued packet is due now");
    net.tick(1);
    // The packet is on the link: the next due cycle is its arrival.
    let due = net.next_due(1).expect("a packet is in transit");
    assert!(due > 2, "arrival {due} should be a serialization away");
    for now in 2..due {
        assert_eq!(net.next_due(now), Some(due));
        net.tick(now);
        assert!(net.eject_any(NodeId(1)).is_none());
    }
}

/// A 16-node 400 MB/s network whose switch 0 holds two data messages for
/// its East neighbour: the first leaves at cycle 1 and holds the link for a
/// full data serialization, the second waits behind it. Returns the network
/// after `tick(2)` and the cycle the East link frees.
fn switch_behind_a_serializing_link() -> (Net, Cycle) {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::MB_400));
    for payload in 0..2 {
        net.inject(
            1,
            NodeId(0),
            NodeId(1),
            VirtualNetwork::Response,
            MessageSize::Data,
            payload,
        )
        .expect("empty network");
    }
    net.tick(1);
    let free_at = net.slab.busy_until[SwitchSlab::link(0, Direction::East.index())];
    let serialization = LinkBandwidth::MB_400.serialization_cycles(specsim_base::DATA_MSG_BYTES);
    assert_eq!(free_at, 1 + serialization);
    net.tick(2);
    (net, free_at)
}

#[test]
fn a_switch_behind_a_serializing_link_sleeps_until_the_link_frees() {
    let (mut net, free_at) = switch_behind_a_serializing_link();
    assert_eq!(
        net.wake_at[0], free_at,
        "switch 0 should sleep until its link frees"
    );
    assert!(!net.active.contains(0));
    let visits = net.forward_probe().switch_visits;
    for now in 3..free_at {
        net.tick(now);
        assert_eq!(net.wake_at[0], free_at, "woke early at {now}");
        net.assert_worklist_invariants();
    }
    // Nothing else holds queued packets, so no switch was visited.
    assert_eq!(net.forward_probe().switch_visits, visits);
    assert_eq!(net.stats().hops.get(), 1);
    net.tick(free_at);
    // Woken before the forward phase of its wake cycle: the second message
    // leaves on exactly the cycle the link frees.
    assert_eq!(net.wake_at[0], Cycle::MAX);
    assert_eq!(net.stats().hops.get(), 2);
    let serialization = LinkBandwidth::MB_400.serialization_cycles(specsim_base::DATA_MSG_BYTES);
    assert_eq!(
        net.slab.busy_until[SwitchSlab::link(0, Direction::East.index())],
        free_at + serialization
    );
    let (_, delivered) = run_until_drained(&mut net, free_at, 10_000);
    assert_eq!(delivered.len(), 2);
    net.assert_worklist_invariants();
}

#[test]
fn an_injection_wakes_a_sleeping_switch_the_same_cycle() {
    let (mut net, free_at) = switch_behind_a_serializing_link();
    let now = 100;
    for tick in 3..now {
        net.tick(tick);
    }
    assert_eq!(net.wake_at[0], free_at);
    // A control message for the southern neighbour: its link is free.
    net.inject(
        now,
        NodeId(0),
        NodeId(4),
        VirtualNetwork::Request,
        MessageSize::Control,
        9,
    )
    .expect("injection space");
    assert_eq!(
        net.wake_at[0],
        Cycle::MAX,
        "injection left the switch asleep"
    );
    assert!(net.active.contains(0));
    net.assert_worklist_invariants();
    net.tick(now);
    assert_eq!(
        net.stats().hops.get(),
        2,
        "the injected message did not leave"
    );
    // Its only remaining head still waits on the East link.
    net.tick(now + 1);
    assert_eq!(net.wake_at[0], free_at);
    net.assert_worklist_invariants();
}

#[test]
fn a_link_arrival_wakes_a_sleeping_switch_the_same_cycle() {
    let (mut net, free_at) = switch_behind_a_serializing_link();
    // A control message from the southern neighbour to switch 0 itself.
    net.inject(
        3,
        NodeId(4),
        NodeId(0),
        VirtualNetwork::Request,
        MessageSize::Control,
        9,
    )
    .expect("injection space");
    net.tick(3);
    let arrival = net.slab.in_transit[SwitchSlab::link(4, Direction::North.index())]
        .front()
        .or_else(|| net.slab.in_transit[SwitchSlab::link(4, Direction::South.index())].front())
        .expect("the message is on a link")
        .arrival;
    assert!(arrival < free_at);
    for now in 4..arrival {
        net.tick(now);
        assert!(net.eject_any(NodeId(0)).is_none());
    }
    assert_eq!(net.wake_at[0], free_at);
    net.tick(arrival);
    // Delivered, woken and ejected within the arrival cycle.
    let p = net
        .eject_any(NodeId(0))
        .expect("ejected on its arrival cycle");
    assert_eq!(p.payload, 9);
    // It sleeps again only after a visit that moves nothing.
    assert_eq!(net.wake_at[0], Cycle::MAX);
    net.tick(arrival + 1);
    assert_eq!(net.wake_at[0], free_at);
    net.assert_worklist_invariants();
}

#[test]
fn next_due_is_the_wake_cycle_when_only_sleepers_hold_packets() {
    let (net, free_at) = switch_behind_a_serializing_link();
    // The first message arrives a switch latency after the link frees, so
    // the wake-up is the earliest due cycle.
    assert_eq!(net.next_due(2), Some(free_at));
    let mut ticked = net.clone();
    for now in 3..free_at {
        assert_eq!(ticked.next_due(now - 1), Some(free_at));
        ticked.tick(now);
    }
    let mut skipped = net;
    skipped.skip_idle_ticks(free_at - 1, free_at - 3);
    let (end_ticked, log_ticked) = run_until_drained(&mut ticked, free_at - 1, 10_000);
    let (end_skipped, log_skipped) = run_until_drained(&mut skipped, free_at - 1, 10_000);
    assert_eq!(end_ticked, end_skipped);
    let payloads = |log: &[Packet<u64>]| log.iter().map(|p| p.payload).collect::<Vec<_>>();
    assert_eq!(payloads(&log_ticked), payloads(&log_skipped));
    assert_eq!(log_ticked.len(), 2);
    assert_eq!(
        format!("{:?}", ticked.stats()),
        format!("{:?}", skipped.stats())
    );
    assert_eq!(ticked.forward_probe(), skipped.forward_probe());
    assert_eq!(ticked.forward_rounds, skipped.forward_rounds);
    assert_eq!(ticked.arrivals.next, skipped.arrivals.next);
}

#[test]
fn a_routing_change_wakes_every_sleeping_switch() {
    let (mut net, free_at) = switch_behind_a_serializing_link();
    assert_eq!(net.wake_at[0], free_at);
    net.set_routing(RoutingPolicy::Static);
    assert_eq!(
        net.wake_at[0], free_at,
        "an unchanged policy woke the switch"
    );
    net.set_routing(RoutingPolicy::Adaptive);
    assert_eq!(net.wake_at[0], Cycle::MAX);
    assert!(net.active.contains(0));
    net.assert_worklist_invariants();
}

/// Heavy mixed control/data traffic on a 256-node 400 MB/s adaptive torus,
/// recording every switch's wake cycle after every tick. `pool` selects the
/// forward-phase executor; the sleep schedule must not depend on it.
fn sleep_schedule(pool: Option<&specsim_base::WorkerPool>) -> (Vec<Vec<Cycle>>, ForwardProbe) {
    let mut cfg = NetConfig::conventional(256, LinkBandwidth::MB_400);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(43);
    let mut schedule = Vec::new();
    let mut now = 0;
    let mut payload = 0u64;
    while now < 200 || (net.in_flight() > 0 && now < 100_000) {
        now += 1;
        if now < 200 {
            for _ in 0..4 {
                let src = NodeId::from(rng.next_below(256) as usize);
                let dst = NodeId::from(rng.next_below(256) as usize);
                let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
                let size = if rng.next_below(2) == 0 {
                    MessageSize::Data
                } else {
                    MessageSize::Control
                };
                if net.can_inject(src, vnet) {
                    net.inject(now, src, dst, vnet, size, payload)
                        .expect("space checked");
                    payload += 1;
                }
            }
        }
        net.tick_with_pool(now, pool);
        drain_all_ejections(&mut net);
        schedule.push(net.wake_at.clone());
    }
    assert_eq!(net.in_flight(), 0, "scenario wedged");
    net.assert_worklist_invariants();
    (schedule, net.forward_probe())
}

#[test]
fn sharded_forwarding_puts_the_same_switches_to_sleep() {
    let (serial, serial_probe) = sleep_schedule(None);
    let pool = specsim_base::WorkerPool::with_exact_threads(4);
    let (sharded, sharded_probe) = sleep_schedule(Some(&pool));
    let sleeps: usize = serial
        .iter()
        .map(|w| w.iter().filter(|&&c| c != Cycle::MAX).count())
        .sum();
    assert!(sleeps > 10_000, "only {sleeps} switch-cycles asleep");
    assert!(
        sharded_probe.parallel_phases > 0,
        "the sharded path never ran"
    );
    assert_eq!(serial.len(), sharded.len());
    for (cycle, (s, p)) in serial.iter().zip(&sharded).enumerate() {
        assert_eq!(s, p, "sleep sets diverged after tick {}", cycle + 1);
    }
    assert_eq!(serial_probe.switch_visits, sharded_probe.switch_visits);
}
