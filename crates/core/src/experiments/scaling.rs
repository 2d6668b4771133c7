//! Node-count scaling sweep.
//!
//! The paper's Table 2 machines are fixed 16-node 4×4 tori; this experiment
//! opens the scaling axis. It runs the speculative directory system under
//! OLTP-class traffic on machines from 8 to 128 nodes (squarest rectangular
//! tori: 4×2 up to 16×8), under both routing policies, and records for each
//! design point:
//!
//! * **throughput** — committed memory operations per kilo-cycle
//!   (mean ± std over perturbed seeds, Section 5.2 methodology),
//! * **mis-speculation rate** — detected mis-speculations per million
//!   simulated cycles,
//! * **ns per simulated cycle** — wall-clock nanoseconds the simulator
//!   spends per simulated cycle at this machine size (an engineering metric:
//!   it tracks how the active-set kernel scales with node count), measured
//!   three times: on the serial reference kernel, on the phase-split engine
//!   with the pool restricted to the tick phase, and on the full phase-split
//!   engine with the sharded exchange forwarding as well
//!   ([`PARALLEL_TIMING_WORKERS`] workers for both parallel columns). All
//!   three kernels produce byte-identical schedules, so the columns are
//!   timing the same simulation. The throughput/mis-speculation statistics
//!   come from the perturbed-seed sharded runner; the timings come from
//!   dedicated *unsharded* runs per design point with **pinned** worker
//!   counts (see [`crate::experiments::runner::assert_timing_workers`]), so
//!   the numbers reflect kernel speed rather than how many seeds happened to
//!   overlap on idle host cores or what `SPECSIM_WORKERS` happened to be.
//!
//! The `scaling_sweep` bench binary renders the table and writes the rows as
//! machine-readable `BENCH_scaling.json`, giving the perf trajectory a
//! node-count axis alongside `BENCH_kernel.json`.
//!
//! By default the sweep runs OLTP only; set the `SPECSIM_ALL_WORKLOADS`
//! environment variable (to anything but `0`) to sweep every Table 3
//! workload generator at every design point.

use std::time::Instant;

use specsim_base::{squarest_torus_dims, LinkBandwidth, RoutingPolicy};
use specsim_coherence::types::ProtocolError;
use specsim_workloads::{TrafficConfig, WorkloadKind, ZipfConfig, ALL_WORKLOADS};

use crate::config::SystemConfig;
use crate::dirsys::DirectorySystem;
use crate::experiments::heavy_traffic::heavy_traffic;
use crate::experiments::runner::{
    assert_timing_workers, measure_directory, misspec_per_mcycle, throughput_measurement,
    ExperimentScale, Measurement,
};

/// The node counts the full sweep visits (8 → 1024, doubling). The top
/// three sizes are where the phase-split engine's indexed wake calendar
/// separates from the serial dense scan.
pub const FULL_NODE_COUNTS: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];

/// Worker count pinned for the parallel `ns_per_cycle` timing run. The
/// engine clamps the pool to the host's cores, but any value above 1
/// activates the phase split, which is what the column measures.
pub const PARALLEL_TIMING_WORKERS: usize = 4;

/// Node count at which the sweep's heavy-traffic knobs start scaling with
/// machine size. Below this the historical fixed knobs apply verbatim
/// (rows stay comparable with every earlier capture, and the 256-node
/// golden configuration in the equivalence suite is built from the fixed
/// knobs directly).
pub const KNOB_SCALING_FLOOR: usize = 256;

/// The heavy Zipf overlay retuned for machine size: with a fixed 16-node
/// table (128 hot blocks — 8 per node), per-block contention grows
/// linearly with node count. From [`KNOB_SCALING_FLOOR`] up, the table
/// grows with the machine so the per-node hot-set density — 8 contended
/// blocks per node — matches the canonical machine; skew and the hot
/// fraction are unchanged.
#[must_use]
pub fn scaled_heavy_traffic(num_nodes: usize, base: TrafficConfig) -> TrafficConfig {
    if num_nodes < KNOB_SCALING_FLOOR {
        return base;
    }
    TrafficConfig {
        zipf: base.zipf.map(|z| ZipfConfig {
            hot_blocks: (z.hot_blocks * num_nodes as u64 / 16).max(z.hot_blocks),
            ..z
        }),
        ..base
    }
}

/// MSHR depth retuned for machine size: a miss's round trip grows with the
/// torus diameter, so the 16-node depth leaves large-machine processors
/// idle waiting on a full MSHR file long before the fabric saturates. From
/// [`KNOB_SCALING_FLOOR`] up, the depth scales with the diameter ratio to
/// the canonical 4×4 machine (16×16 → 4×, 32×32 → 8×), keeping the
/// latency-coverage proportion constant.
#[must_use]
pub fn scaled_mshr_entries(num_nodes: usize, base: usize) -> usize {
    if num_nodes < KNOB_SCALING_FLOOR {
        return base;
    }
    base * (torus_diameter(num_nodes) / 4).max(1)
}

/// The SafetyNet checkpoint interval retuned for machine size. The
/// transaction timeout is three checkpoint intervals (Section 4), and a
/// contended shared block's worst-case transaction latency grows with both
/// the torus diameter and the sharer count it must invalidate — at 256
/// nodes the heaviest hot-block transactions legitimately outlive the
/// canonical 15k-cycle window, and one false timeout triggers a recovery
/// whose slow-start restart flatlines the rest of the run (ops/kcycle ≈ 0,
/// exactly one recorded miss: the measured collapse of the pre-retune
/// sweep). From [`KNOB_SCALING_FLOOR`] up the interval scales with the
/// diameter ratio to the canonical 16-node machine (16×16 → 2×, 32×32 →
/// 4×) so the timeout window tracks the fabric's latency envelope instead
/// of mistaking a slow-but-live transaction for deadlock.
#[must_use]
pub fn scaled_checkpoint_interval(num_nodes: usize, base: u64) -> u64 {
    if num_nodes < KNOB_SCALING_FLOOR {
        return base;
    }
    base * (torus_diameter(num_nodes) as u64 / 8).max(1)
}

/// Torus diameter (`w/2 + h/2`) of the squarest factorisation of
/// `num_nodes` — 4 for the canonical 4×4 machine, 16 for 16×16, 32 for
/// 32×32.
fn torus_diameter(num_nodes: usize) -> usize {
    let (w, h) = squarest_torus_dims(num_nodes)
        .unwrap_or_else(|| panic!("{num_nodes} nodes has no W x H torus factorisation"));
    w / 2 + h / 2
}

/// The workloads the sweep visits, controlled by the
/// `SPECSIM_ALL_WORKLOADS` environment variable: unset (or `0`) sweeps OLTP
/// only, anything else sweeps every Table 3 workload generator.
#[must_use]
pub fn workloads_from_env() -> Vec<WorkloadKind> {
    workloads_from_flag(std::env::var("SPECSIM_ALL_WORKLOADS").ok().as_deref())
}

/// The pure half of [`workloads_from_env`]: maps the flag's value (`None`
/// when unset) to the workload list.
#[must_use]
pub fn workloads_from_flag(flag: Option<&str>) -> Vec<WorkloadKind> {
    match flag {
        Some(v) if !v.is_empty() && v != "0" => ALL_WORKLOADS.to_vec(),
        _ => vec![WorkloadKind::Oltp],
    }
}

/// What to sweep: which machine sizes and workloads, and how long/often to
/// run each.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingConfig {
    /// Machine sizes to visit (each must have a `W × H` torus
    /// factorisation with both dimensions ≥ 2).
    pub node_counts: Vec<usize>,
    /// Workloads to run at every design point (default: OLTP, or all of
    /// Table 3 under `SPECSIM_ALL_WORKLOADS` — see [`workloads_from_env`]).
    pub workloads: Vec<WorkloadKind>,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
    /// Link bandwidth of every machine in the sweep. The default is the
    /// 800 MB/s operating point: under production-shaped traffic the small
    /// machines still scale while the large ones hit the saturation wall,
    /// where transactions starve past the timeout and the mis-speculation
    /// column goes nonzero (at 3.2 GB/s nothing interesting happens; at
    /// 400 MB/s even 8 nodes starve).
    pub bandwidth: LinkBandwidth,
    /// MSHR entries per node. The default (4) runs the sweep with
    /// non-blocking processors so the contention — and hence the
    /// mis-speculation column — is real; set 1 for the historical blocking
    /// miss stream.
    pub mshr_entries: usize,
    /// Generator traffic shaping. The default is the canonical heavy shape
    /// ([`heavy_traffic`]: Zipfian hot blocks + bursty injection), under
    /// which the speculation machinery actually fires in vivo at the
    /// saturated machine sizes.
    pub traffic: TrafficConfig,
}

impl Default for ScalingConfig {
    /// The full sweep: 8 → 128 nodes at the environment-controlled scale
    /// (`SPECSIM_CYCLES` / `SPECSIM_SEEDS` / `SPECSIM_ALL_WORKLOADS`).
    fn default() -> Self {
        Self {
            node_counts: FULL_NODE_COUNTS.to_vec(),
            workloads: workloads_from_env(),
            scale: ExperimentScale::from_env(),
            bandwidth: LinkBandwidth::MB_800,
            mshr_entries: 4,
            traffic: heavy_traffic(),
        }
    }
}

impl ScalingConfig {
    /// A CI-sized sweep: two small machines plus one at-scale point (256
    /// nodes, where the phase-split engine must already beat the serial
    /// kernel), few seeds, short runs (still honouring
    /// `SPECSIM_ALL_WORKLOADS`).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            node_counts: vec![8, 32, 256],
            workloads: workloads_from_env(),
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 2,
            },
            bandwidth: LinkBandwidth::MB_800,
            mshr_entries: 4,
            traffic: heavy_traffic(),
        }
    }
}

/// One design point of the sweep: a machine size × workload × routing
/// policy.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Torus width (X-ring length).
    pub width: usize,
    /// Torus height (Y-ring length).
    pub height: usize,
    /// Workload of this design point.
    pub workload: WorkloadKind,
    /// Routing policy of this design point.
    pub routing: RoutingPolicy,
    /// Committed operations per kilo-cycle, over the perturbed seeds.
    pub throughput: Measurement,
    /// Detected mis-speculations per million simulated cycles.
    pub misspec_per_mcycle: Measurement,
    /// Wall-clock nanoseconds per simulated cycle of one dedicated
    /// unsharded run on the **serial reference kernel** (worker count
    /// pinned to 1; lower is better; comparable across machines and seed
    /// counts).
    pub ns_per_cycle: f64,
    /// Wall-clock nanoseconds per simulated cycle of the same dedicated run
    /// on the phase-split engine with the pool restricted to the **tick
    /// phase** (worker count pinned to [`PARALLEL_TIMING_WORKERS`],
    /// [`SystemConfig::with_parallel_exchange`] off). Isolates how much of
    /// the phase-split speedup the tick phase alone buys.
    pub ns_per_cycle_parallel_tick: f64,
    /// Wall-clock nanoseconds per simulated cycle of the same dedicated run
    /// on the **full deterministic phase-split engine** (worker count pinned
    /// to [`PARALLEL_TIMING_WORKERS`], parallel tick *and* sharded exchange
    /// forwarding). The schedule is byte-identical to the serial run; only
    /// the kernel differs.
    pub ns_per_cycle_parallel: f64,
    /// Engine work counters ([`crate::engine::EngineProbe`]) of the pinned
    /// parallel timing run: processor polls performed, wake-calendar skips,
    /// exchange-worklist node visits and fast-forwarded cycles. Deterministic observability for
    /// how much per-cycle work the active-set kernel actually did at this
    /// machine size — the denominator behind the `ns_per_cycle` columns.
    pub probe: crate::engine::EngineProbe,
}

/// The completed sweep.
#[derive(Debug, Clone)]
pub struct ScalingData {
    /// One row per (node count, workload, routing policy), node counts in
    /// sweep order, workloads nested inside, static before adaptive.
    pub rows: Vec<ScalingRow>,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// Perturbed seeds per design point.
    pub seeds: u64,
}

/// Runs the sweep: every node count under every configured workload and
/// both routing policies, each design point through the perturbed-seed
/// sharded runner.
pub fn run(cfg: &ScalingConfig) -> Result<ScalingData, ProtocolError> {
    let mut rows = Vec::with_capacity(cfg.node_counts.len() * cfg.workloads.len() * 2);
    for &n in &cfg.node_counts {
        let (width, height) = squarest_torus_dims(n).unwrap_or_else(|| {
            panic!("scaling sweep node count {n} has no W x H torus factorisation")
        });
        for &workload in &cfg.workloads {
            for routing in [RoutingPolicy::Static, RoutingPolicy::Adaptive] {
                let mut sys_cfg =
                    SystemConfig::directory_speculative(workload, cfg.bandwidth, 1).with_nodes(n);
                sys_cfg.routing = routing;
                // At and above the scaling floor the heavy knobs grow with
                // the machine (see `scaled_heavy_traffic`,
                // `scaled_mshr_entries` and `scaled_checkpoint_interval`).
                // The interval scaling is the load-bearing one: with the
                // canonical 15k-cycle transaction timeout, large machines'
                // slow-but-live hot-block transactions get misdeclared
                // deadlocked, and the resulting recovery's slow-start
                // flatlined every ≥256-node row to ops/kcycle ≈ 0.
                sys_cfg.memory.mshr_entries = scaled_mshr_entries(n, cfg.mshr_entries);
                sys_cfg.memory.safetynet.checkpoint_interval_cycles =
                    scaled_checkpoint_interval(n, 5_000);
                if n >= KNOB_SCALING_FLOOR {
                    // Horizon guard: above the floor the timeout window
                    // (three intervals) must also cover the measured run.
                    // Hot-block queueing deepens for as long as the run
                    // lasts, so on long horizons a slow-but-live contended
                    // transaction eventually outlives any fixed window; the
                    // false timeout's recovery rolls the machine back to the
                    // last checkpoint that validated *before* the straggler
                    // started — near cycle zero — and the row measures the
                    // rollback path instead of steady-state throughput. The
                    // sub-floor rows keep the canonical window, so the
                    // timeout/recovery path stays exercised by the sweep.
                    sys_cfg.memory.safetynet.checkpoint_interval_cycles = sys_cfg
                        .memory
                        .safetynet
                        .checkpoint_interval_cycles
                        .max(cfg.scale.cycles / 3 + 1);
                }
                sys_cfg.traffic = scaled_heavy_traffic(n, cfg.traffic);
                let runs = measure_directory(&sys_cfg, cfg.scale)?;
                let rates: Vec<f64> = runs.iter().map(misspec_per_mcycle).collect();
                // The simulator-speed metrics time dedicated runs outside
                // the sharded runner: dividing the sharded wall time by total
                // cycles would measure host parallelism (seeds overlap on
                // idle cores), making rows incomparable across machines and
                // seed counts. Worker counts are pinned so the serial and
                // parallel columns measure exactly the kernel they claim,
                // regardless of any SPECSIM_WORKERS override in the
                // environment.
                let timing_seed = cfg.scale.seed_list(sys_cfg.seed)[0];
                let serial_cfg = sys_cfg.with_seed(timing_seed).with_workers_pinned(1);
                assert_timing_workers(&serial_cfg, 1);
                let mut timed = DirectorySystem::new(serial_cfg);
                let started = Instant::now();
                timed.run_for(cfg.scale.cycles)?;
                let wall_ns = started.elapsed().as_nanos() as f64;
                let tick_cfg = sys_cfg
                    .with_seed(timing_seed)
                    .with_workers_pinned(PARALLEL_TIMING_WORKERS)
                    .with_parallel_exchange(false);
                assert_timing_workers(&tick_cfg, PARALLEL_TIMING_WORKERS);
                let mut timed_tick = DirectorySystem::new(tick_cfg);
                let started_tick = Instant::now();
                timed_tick.run_for(cfg.scale.cycles)?;
                let wall_ns_tick = started_tick.elapsed().as_nanos() as f64;
                let parallel_cfg = sys_cfg
                    .with_seed(timing_seed)
                    .with_workers_pinned(PARALLEL_TIMING_WORKERS);
                assert_timing_workers(&parallel_cfg, PARALLEL_TIMING_WORKERS);
                let mut timed_par = DirectorySystem::new(parallel_cfg);
                let started_par = Instant::now();
                timed_par.run_for(cfg.scale.cycles)?;
                let wall_ns_par = started_par.elapsed().as_nanos() as f64;
                // Work counters of the pinned parallel run: deterministic
                // regardless of SPECSIM_WORKERS (the probe counts scheduled
                // work, not wall time), so the JSON stays byte-stable across
                // hosts and reruns.
                let probe = timed_par.engine_probe();
                rows.push(ScalingRow {
                    num_nodes: n,
                    width,
                    height,
                    workload,
                    routing,
                    throughput: throughput_measurement(&runs),
                    misspec_per_mcycle: Measurement::from_samples(&rates),
                    ns_per_cycle: wall_ns / cfg.scale.cycles.max(1) as f64,
                    ns_per_cycle_parallel_tick: wall_ns_tick / cfg.scale.cycles.max(1) as f64,
                    ns_per_cycle_parallel: wall_ns_par / cfg.scale.cycles.max(1) as f64,
                    probe,
                });
            }
        }
    }
    Ok(ScalingData {
        rows,
        cycles: cfg.scale.cycles,
        seeds: cfg.scale.seeds,
    })
}

impl ScalingData {
    /// Renders the sweep as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Node-count scaling sweep (speculative directory; \
             {} cycles x {} seeds per point)\n",
            self.cycles, self.seeds
        ));
        out.push_str(
            "nodes  torus  workload   routing   ops/kcycle        misspec/Mcycle    \
             ns/cyc-serial  ns/cyc-par-tick  ns/cyc-parallel  \
             polls/kcyc  skips/kcyc  exch-visits/kcyc  fast-fwd\n",
        );
        let kcycles = (self.cycles as f64 / 1_000.0).max(f64::MIN_POSITIVE);
        for r in &self.rows {
            out.push_str(&format!(
                "{:>5}  {:>2}x{:<2}  {:<9}  {:<8}  {:<16}  {:<16}  {:>13.1}  {:>15.1}  {:>15.1}  \
                 {:>10.1}  {:>10.1}  {:>16.1}  {:>7.1}%\n",
                r.num_nodes,
                r.width,
                r.height,
                r.workload.label(),
                r.routing.label(),
                r.throughput.display(),
                r.misspec_per_mcycle.display(),
                r.ns_per_cycle,
                r.ns_per_cycle_parallel_tick,
                r.ns_per_cycle_parallel,
                r.probe.processor_polls as f64 / kcycles,
                r.probe.processor_skips as f64 / kcycles,
                (r.probe.exchange_completion_visits + r.probe.exchange_outbox_visits) as f64
                    / kcycles,
                r.probe.fast_forward_cycles as f64 / (10.0 * kcycles),
            ));
        }
        out
    }

    /// Serialises the sweep as machine-readable JSON (the
    /// `BENCH_scaling.json` payload): run parameters plus one object per
    /// design point.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        json.push_str(&format!("  \"seeds\": {},\n", self.seeds));
        json.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{\"nodes\": {}, \"width\": {}, \"height\": {}, \
                 \"workload\": \"{}\", \"routing\": \"{}\", \
                 \"throughput_mean\": {:.6}, \"throughput_std\": {:.6}, \
                 \"misspec_per_mcycle_mean\": {:.6}, \
                 \"misspec_per_mcycle_std\": {:.6}, \
                 \"ns_per_cycle\": {:.2}, \
                 \"ns_per_cycle_parallel_tick\": {:.2}, \
                 \"ns_per_cycle_parallel\": {:.2}, \
                 \"processor_polls\": {}, \"processor_skips\": {}, \
                 \"exchange_completion_visits\": {}, \
                 \"exchange_outbox_visits\": {}, \
                 \"fast_forward_cycles\": {}}}{comma}\n",
                r.num_nodes,
                r.width,
                r.height,
                r.workload.label(),
                r.routing.label(),
                r.throughput.mean,
                r.throughput.std_dev,
                r.misspec_per_mcycle.mean,
                r.misspec_per_mcycle.std_dev,
                r.ns_per_cycle,
                r.ns_per_cycle_parallel_tick,
                r.ns_per_cycle_parallel,
                r.probe.processor_polls,
                r.probe.processor_skips,
                r.probe.exchange_completion_visits,
                r.probe.exchange_outbox_visits,
                r.probe.fast_forward_cycles,
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_covers_8_to_1024_under_both_policies() {
        let cfg = ScalingConfig::default();
        assert_eq!(cfg.node_counts, vec![8, 16, 32, 64, 128, 256, 512, 1024]);
        // Every size factors into a valid rectangular torus.
        for &n in &cfg.node_counts {
            assert!(squarest_torus_dims(n).is_some(), "{n} nodes");
        }
    }

    #[test]
    fn workload_list_follows_the_flag_value() {
        // The pure flag parser is tested directly: mutating the
        // process-global environment would race sibling tests that read it
        // (ScalingConfig::default() calls workloads_from_env()).
        assert_eq!(workloads_from_flag(None), vec![WorkloadKind::Oltp]);
        assert_eq!(workloads_from_flag(Some("")), vec![WorkloadKind::Oltp]);
        assert_eq!(workloads_from_flag(Some("0")), vec![WorkloadKind::Oltp]);
        assert_eq!(workloads_from_flag(Some("1")), ALL_WORKLOADS.to_vec());
        assert_eq!(workloads_from_flag(Some("yes")), ALL_WORKLOADS.to_vec());
    }

    #[test]
    fn multi_workload_sweep_produces_a_row_per_size_workload_and_policy() {
        let cfg = ScalingConfig {
            node_counts: vec![8],
            workloads: vec![WorkloadKind::Oltp, WorkloadKind::Barnes],
            scale: ExperimentScale {
                cycles: 3_000,
                seeds: 1,
            },
            ..ScalingConfig::default()
        };
        let data = run(&cfg).expect("no protocol errors");
        assert_eq!(data.rows.len(), 4); // 1 size x 2 workloads x 2 policies
        assert_eq!(data.rows[0].workload, WorkloadKind::Oltp);
        assert_eq!(data.rows[2].workload, WorkloadKind::Barnes);
        let json = data.to_json();
        assert!(json.contains("\"workload\": \"oltp\""));
        assert!(json.contains("\"workload\": \"barnes\""));
        assert!(data.render().contains("barnes"));
    }

    #[test]
    fn tiny_sweep_produces_a_row_per_size_and_policy() {
        let cfg = ScalingConfig {
            node_counts: vec![8, 16],
            workloads: vec![WorkloadKind::Oltp],
            scale: ExperimentScale {
                cycles: 4_000,
                seeds: 2,
            },
            ..ScalingConfig::default()
        };
        let data = run(&cfg).expect("no protocol errors");
        assert_eq!(data.rows.len(), 4);
        assert_eq!(
            (
                data.rows[0].num_nodes,
                data.rows[0].width,
                data.rows[0].height
            ),
            (8, 4, 2)
        );
        assert_eq!(data.rows[0].routing, RoutingPolicy::Static);
        assert_eq!(data.rows[1].routing, RoutingPolicy::Adaptive);
        assert_eq!(
            (
                data.rows[2].num_nodes,
                data.rows[2].width,
                data.rows[2].height
            ),
            (16, 4, 4)
        );
        for r in &data.rows {
            assert_eq!(r.throughput.runs, 2);
            assert!(
                r.throughput.mean > 0.0,
                "work must complete at {} nodes",
                r.num_nodes
            );
            assert!(r.ns_per_cycle > 0.0);
            assert!(r.ns_per_cycle_parallel_tick > 0.0);
            assert!(r.ns_per_cycle_parallel > 0.0);
            assert!(r.misspec_per_mcycle.mean >= 0.0);
            // The pinned timing run did real work, and the wake calendar
            // skipped at least some idle processor visits.
            assert!(r.probe.processor_polls > 0);
            assert!(r.probe.exchange_completion_visits + r.probe.exchange_outbox_visits > 0);
        }
        let txt = data.render();
        assert!(txt.contains("4x2") && txt.contains("adaptive"));
        assert!(txt.contains("ns/cyc-par-tick") && txt.contains("ns/cyc-parallel"));
        assert!(txt.contains("polls/kcyc") && txt.contains("fast-fwd"));
        let json = data.to_json();
        assert!(json.contains("\"nodes\": 8") && json.contains("\"routing\": \"static\""));
        assert!(json.contains("\"ns_per_cycle\""));
        assert!(json.contains("\"ns_per_cycle_parallel_tick\""));
        assert!(json.contains("\"ns_per_cycle_parallel\""));
        assert!(json.contains("\"processor_polls\""));
        assert!(json.contains("\"exchange_outbox_visits\""));
        assert!(json.contains("\"fast_forward_cycles\""));
    }

    #[test]
    fn heavy_knobs_scale_with_the_machine_above_the_floor() {
        use crate::experiments::heavy_traffic::heavy_traffic;
        // Below the floor everything is the historical fixed shape (the
        // equivalence goldens at ≤256 nodes build on the unscaled knobs).
        for n in [8, 16, 64, 128] {
            assert_eq!(scaled_heavy_traffic(n, heavy_traffic()), heavy_traffic());
            assert_eq!(scaled_mshr_entries(n, 4), 4);
            assert_eq!(scaled_checkpoint_interval(n, 5_000), 5_000);
        }
        // From the floor up: 8 hot blocks per node, diameter-proportional
        // MSHR depth and timeout window.
        let z256 = scaled_heavy_traffic(256, heavy_traffic()).zipf.unwrap();
        assert_eq!(z256.hot_blocks, 2048);
        assert_eq!(z256.skew, 1.0);
        let z1024 = scaled_heavy_traffic(1024, heavy_traffic()).zipf.unwrap();
        assert_eq!(z1024.hot_blocks, 8192);
        assert_eq!(scaled_mshr_entries(256, 4), 16); // 16x16: diameter 16
        assert_eq!(scaled_mshr_entries(512, 4), 24); // 32x16: diameter 24
        assert_eq!(scaled_mshr_entries(1024, 4), 32); // 32x32: diameter 32
        assert_eq!(scaled_checkpoint_interval(256, 5_000), 10_000);
        assert_eq!(scaled_checkpoint_interval(512, 5_000), 15_000);
        assert_eq!(scaled_checkpoint_interval(1024, 5_000), 20_000);
        // An unshaped base stays unshaped at any size.
        assert!(scaled_heavy_traffic(1024, TrafficConfig::default())
            .zipf
            .is_none());
    }

    #[test]
    fn misspec_rate_is_per_million_cycles() {
        use crate::metrics::RunMetrics;
        let mut m = RunMetrics {
            cycles: 500_000,
            ..RunMetrics::default()
        };
        assert_eq!(misspec_per_mcycle(&m), 0.0);
        m.count_misspeculation(specsim_coherence::MisSpecKind::TransactionTimeout);
        m.count_misspeculation(specsim_coherence::MisSpecKind::TransactionTimeout);
        assert!((misspec_per_mcycle(&m) - 4.0).abs() < 1e-12);
        m.cycles = 0;
        assert_eq!(misspec_per_mcycle(&m), 0.0);
    }
}
