//! The traced run: per-layer metrics.
//!
//! Spans are taken from outside the simulator, around the public calls the
//! benchmark makes into each layer: construction, every `step()` (one clock
//! read per step, chained, so each read costs one span), and stand-alone
//! `Network` and `WorkloadGenerator` drivers. Counts come from the public
//! work counters: `engine_probe()`, the fabric's forward probe,
//! `mode_timeline()` and `RunMetrics`. Counts are exact and normalised by
//! the cycles of the whole run; times are host nanoseconds. Nothing here
//! feeds an end-to-end metric.

use std::sync::Arc;
use std::time::Instant;

use specsim::EngineMode;
use specsim_base::{DetRng, MessageSize, NodeId};
use specsim_net::{Network, VirtualNetwork, ALL_VIRTUAL_NETWORKS};
use specsim_workloads::{WorkloadGenerator, ZipfTable};

use crate::machines::{Machine, Sim, Workload};
use crate::measure::{self, Fingerprint, Snapshot};
use crate::report::{median, percentile_sorted, Metric};

/// Mis-speculation kinds reported per Mcycle, by label.
const MISSPEC_LABELS: [&str; 4] = [
    "transaction-timeout",
    "fwd-to-invalid-cache",
    "writeback-double-race",
    "buffer-deadlock",
];

/// Short vnet names used in metric names, in `ALL_VIRTUAL_NETWORKS` order.
const VNET_NAMES: [&str; 4] = ["Request", "FwdRequest", "Response", "FinalAck"];

/// Cycles of the saturated stand-alone network pattern.
const SATURATED_CYCLES: u64 = 20_000;
/// Cycles of the sparse stand-alone network pattern.
const SPARSE_CYCLES: u64 = 200_000;
/// Operations drawn from the stand-alone workload generator.
const GENERATOR_OPS: u64 = 1_000_000;
/// Timed repeats of each stand-alone driver (the median is reported).
const DRIVER_REPEATS: usize = 3;

/// A running mean of step times.
#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, ns: u32) {
        self.sum += f64::from(ns);
        self.n += 1;
    }

    /// The mean; 0 when nothing was added.
    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Host nanoseconds of the `step()` calls of one traced run, grouped the
/// ways the per-layer metrics need.
#[derive(Default)]
struct StepTimes {
    /// Every step, sorted once the run ends.
    all: Vec<u32>,
    normal: Mean,
    degraded: Mean,
    rollback: Mean,
    checkpoint: Mean,
    restore: Mean,
    window_ns: f64,
}

/// Runs `w` at `seed` untraced once, then traced, and derives every
/// per-layer metric.
pub fn traced(w: &Workload, seed: u64) -> Result<Vec<Metric>, String> {
    let machine = w.machines(seed).remove(0);
    let untraced = measure::run_once(w, std::slice::from_ref(&machine))?;
    let traced_cycles = w.run_cycles() + w.trace_extra_cycles;
    let checkpoint_cycles = locate_checkpoints(&machine, traced_cycles)?;

    let t0 = Instant::now();
    let mut sim = machine.build();
    let construct_s = t0.elapsed().as_secs_f64();
    let (times, fingerprint) = time_steps(&mut sim, w, traced_cycles, &checkpoint_cycles)?;
    sim.verify_coherence()?;
    if untraced.fingerprints != [fingerprint.clone()] {
        return Err(format!(
            "determinism break under tracing: {fingerprint:?} != {:?}",
            untraced.fingerprints
        ));
    }

    let cycles = sim.now() as f64;
    let per_k = |n: u64| n as f64 * 1000.0 / cycles;
    let per_m = |n: u64| n as f64 * 1e6 / cycles;
    let m = sim.metrics();
    let probe = sim.engine_probe();
    let fwd = sim.forward_probe();
    let snooping = matches!(machine, Machine::Snoop(_));

    let mut out = vec![
        Metric::new("setup.construct_ms", construct_s * 1e3, "ms"),
        Metric::new(
            "engine.step_ns_p50",
            percentile_sorted(&times.all, 0.50),
            "ns",
        ),
        Metric::new(
            "engine.step_ns_p99",
            percentile_sorted(&times.all, 0.99),
            "ns",
        ),
        Metric::new("engine.normal_step_ns", times.normal.get(), "ns"),
        Metric::new("engine.degraded_step_ns", times.degraded.get(), "ns"),
        Metric::new("engine.rollback_step_ns", times.rollback.get(), "ns"),
        Metric::new(
            "engine.polls_per_kcycle",
            per_k(probe.processor_polls),
            "1/kcycle",
        ),
        Metric::new(
            "engine.skips_per_kcycle",
            per_k(probe.processor_skips),
            "1/kcycle",
        ),
        Metric::new(
            "engine.useful_poll_frac",
            m.ops_completed as f64 / probe.processor_polls as f64,
            "fraction",
        ),
        Metric::new(
            "engine.outbox_visits_per_kcycle",
            per_k(probe.exchange_outbox_visits),
            "1/kcycle",
        ),
        Metric::new(
            "engine.completion_visits_per_kcycle",
            per_k(probe.exchange_completion_visits),
            "1/kcycle",
        ),
        Metric::new(
            "net.switch_visits_per_kcycle",
            per_k(fwd.switch_visits),
            "1/kcycle",
        ),
        Metric::new(
            "net.messages_per_kcycle",
            per_k(m.messages_delivered + m.data_messages_delivered),
            "1/kcycle",
        ),
        Metric::new(
            "net.link_utilization",
            if snooping {
                m.data_link_utilization
            } else {
                m.link_utilization
            },
            "fraction",
        ),
    ];
    let (saturated, sparse) = network_drivers(&machine);
    out.push(Metric::new("net.tick_ns_saturated", saturated, "ns"));
    out.push(Metric::new("net.tick_ns_sparse", sparse, "ns"));
    for (vnet, name) in ALL_VIRTUAL_NETWORKS.iter().zip(VNET_NAMES) {
        let hist = &m.vnet_latency[vnet.index()];
        out.push(Metric::new(
            format!("net.latency_p99.{name}"),
            hist.p99() as f64,
            "cycles",
        ));
    }
    out.extend([
        Metric::new("coherence.misses_per_kcycle", per_k(m.misses), "1/kcycle"),
        Metric::new(
            "coherence.miss_latency_p50",
            m.miss_latency.p50() as f64,
            "cycles",
        ),
        Metric::new(
            "coherence.miss_latency_p99",
            m.miss_latency.p99() as f64,
            "cycles",
        ),
    ]);
    for label in MISSPEC_LABELS {
        let n = m
            .misspeculations
            .iter()
            .filter(|(k, _)| k.label() == label)
            .map(|&(_, n)| n)
            .sum();
        out.push(Metric::new(
            format!("coherence.misspec.{label}"),
            per_m(n),
            "1/Mcycle",
        ));
    }
    let phases = fwd.parallel_phases as f64;
    let tasks = fwd.parallel_tasks as f64;
    out.extend([
        Metric::new("bus.requests_per_kcycle", per_k(m.bus_requests), "1/kcycle"),
        Metric::new(
            "safetynet.checkpoints_per_mcycle",
            per_m(m.checkpoints),
            "1/Mcycle",
        ),
        Metric::new("safetynet.checkpoint_step_ns", times.checkpoint.get(), "ns"),
        Metric::new(
            "safetynet.log_entries_per_kcycle",
            per_k(m.log_entries),
            "1/kcycle",
        ),
        Metric::new(
            "safetynet.log_stall_cycles",
            m.log_stall_cycles as f64,
            "cycles",
        ),
        Metric::new("recovery.count", m.total_recoveries() as f64, "count"),
        Metric::new(
            "recovery.lost_work_frac",
            m.lost_work_cycles as f64 / cycles,
            "fraction",
        ),
        Metric::new("recovery.restore_step_ns", times.restore.get(), "ns"),
        Metric::new(
            "workers.parallel_phases_per_kcycle",
            per_k(fwd.parallel_phases),
            "1/kcycle",
        ),
        Metric::new("workers.tasks_per_phase", tasks / phases, "tasks"),
        Metric::new(
            "workers.critical_path_ratio",
            fwd.critical_path_sum as f64 / tasks,
            "fraction",
        ),
        Metric::new(
            "workloads.gen_ns_per_op",
            generator_driver(&machine),
            "ns/op",
        ),
        Metric::new(
            "trace.overhead_frac",
            times.window_ns / untraced.window_ns.iter().sum::<f64>() - 1.0,
            "fraction",
        ),
    ]);
    Ok(out)
}

/// Steps `sim` through `cycles` cycles (the warm-up and the window of `w`,
/// then any extra cycles), timing every `step()`; returns the step times
/// and the window's fingerprint.
fn time_steps(
    sim: &mut Sim,
    w: &Workload,
    cycles: u64,
    checkpoint_cycles: &[u64],
) -> Result<(StepTimes, Fingerprint), String> {
    let mut t = StepTimes {
        all: Vec::with_capacity(cycles as usize),
        ..StepTimes::default()
    };
    let mut next_checkpoint = checkpoint_cycles.iter().copied().peekable();
    let mut start = None;
    let mut fingerprint = None;
    let mut prev_mode = EngineMode::Normal;
    let mut prev_ns = 0;
    let mut last = Instant::now();
    for i in 0..cycles {
        if i == w.warmup_cycles {
            start = Some(Snapshot::take(sim));
            last = Instant::now();
        }
        if i == w.run_cycles() {
            fingerprint = Some(window_fingerprint(&start, sim)?);
            last = Instant::now();
        }
        sim.step()?;
        let now = Instant::now();
        let ns = u32::try_from((now - last).as_nanos()).unwrap_or(u32::MAX);
        last = now;
        t.all.push(ns);
        if (w.warmup_cycles..w.run_cycles()).contains(&i) {
            t.window_ns += f64::from(ns);
        }
        let mode = sim.timeline().current();
        match mode {
            EngineMode::Normal => t.normal.add(ns),
            EngineMode::Rollback => t.rollback.add(ns),
            _ => t.degraded.add(ns),
        }
        // Recovery restores state at the end of a step; the next cycle is
        // the first one the timeline attributes to rollback.
        if mode == EngineMode::Rollback && prev_mode != EngineMode::Rollback {
            t.restore.add(prev_ns);
        }
        if next_checkpoint.next_if_eq(&sim.now()).is_some() {
            t.checkpoint.add(ns);
        }
        prev_mode = mode;
        prev_ns = ns;
    }
    let fingerprint = match fingerprint {
        Some(f) => f,
        None => window_fingerprint(&start, sim)?,
    };
    t.all.sort_unstable();
    Ok((t, fingerprint))
}

/// The fingerprint of the window from `start` to `sim`'s current cycle.
fn window_fingerprint(start: &Option<Snapshot>, sim: &mut Sim) -> Result<Fingerprint, String> {
    let start = start.as_ref().ok_or("empty warm-up window")?;
    Fingerprint::of_window(start, &Snapshot::take(sim))
}

/// Cycles at which `machine` takes a SafetyNet checkpoint over `cycles`
/// cycles, read from an untimed run that records the event trace.
fn locate_checkpoints(machine: &Machine, cycles: u64) -> Result<Vec<u64>, String> {
    let mut sim = machine.with_event_trace().build();
    sim.run_for(cycles)?;
    let trace = sim.event_trace().ok_or("event trace not recorded")?;
    let mut at: Vec<u64> = trace
        .split("\"name\":\"checkpoint\"")
        .skip(1)
        .filter_map(|ev| {
            let ts = ev.split("\"ts\":").nth(1)?;
            ts.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
        })
        .collect();
    at.sort_unstable();
    Ok(at)
}

/// Median host ns per cycle of a stand-alone `Network` on the machine's
/// point-to-point fabric, under the kernel microbenchmark's saturated
/// pattern (one random injection per cycle) and sparse pattern (one per
/// 100 cycles), with every endpoint drained each cycle.
fn network_drivers(machine: &Machine) -> (f64, f64) {
    let cfg = machine.net_config();
    let drive = |cycles: u64, every: u64, size: MessageSize, seed: u64| {
        let samples: Vec<f64> = (0..DRIVER_REPEATS)
            .map(|_| {
                let mut net: Network<u64> = Network::new(cfg.clone());
                let n = net.num_nodes();
                let mut rng = DetRng::new(seed);
                let t = Instant::now();
                for now in 1..=cycles {
                    if now % every == 1 % every {
                        let src = NodeId::from(rng.next_below(n as u64) as usize);
                        let dst = NodeId::from(rng.next_below(n as u64) as usize);
                        if src != dst {
                            let _ = net.inject(now, src, dst, VirtualNetwork::Request, size, now);
                        }
                    }
                    net.tick(now);
                    for node in 0..n {
                        while net.eject_any(NodeId::from(node)).is_some() {}
                    }
                }
                std::hint::black_box(net.in_flight());
                t.elapsed().as_nanos() as f64 / cycles as f64
            })
            .collect();
        median(&samples)
    };
    (
        drive(SATURATED_CYCLES, 1, MessageSize::Control, 7),
        drive(SPARSE_CYCLES, 100, MessageSize::Data, 11),
    )
}

/// Median host ns per operation of node 0's stand-alone
/// `WorkloadGenerator::next_op_at`, with the machine's workload, traffic
/// shaping and seed.
fn generator_driver(machine: &Machine) -> f64 {
    let (kind, traffic, seed) = machine.generator();
    let table = traffic.zipf.map(|z| Arc::new(ZipfTable::new(z)));
    let samples: Vec<f64> = (0..DRIVER_REPEATS)
        .map(|_| {
            let mut gen =
                WorkloadGenerator::shaped(kind, NodeId::from(0), seed, traffic, table.clone());
            let mut now = 0;
            let t = Instant::now();
            for _ in 0..GENERATOR_OPS {
                let op = gen.next_op_at(now);
                now += op.think_cycles + 1;
                std::hint::black_box(op);
            }
            t.elapsed().as_nanos() as f64 / GENERATOR_OPS as f64
        })
        .collect();
    median(&samples)
}
