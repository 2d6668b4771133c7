//! The four named machines the benchmark runs, and a thin wrapper that
//! drives either simulator through its public API.
//!
//! Every knob is written here as a literal rather than taken from the
//! `specsim::experiments` helpers, so that a later change to those helpers
//! cannot silently change what a workload measures.
//!
//! The modelled caches start cold and never fill within a run: each node has
//! 65,536 L2 lines and touches roughly 190 new lines per 100k cycles, so
//! filling would take about 35M cycles. Every figure the benchmark reports
//! is therefore a cold-cache figure; the warm-up window absorbs the
//! simulator's lazy set-up, not cache warming.

use specsim::{
    DirectorySystem, EngineProbe, ModeTimeline, RunMetrics, SnoopSystemConfig, SnoopingSystem,
    SystemConfig, TelemetryConfig,
};
use specsim_base::{LinkBandwidth, ProtocolVariant};
use specsim_net::{ForwardProbe, NetConfig};
use specsim_workloads::{BurstConfig, TrafficConfig, WorkloadKind, ZipfConfig};

/// One benchmark workload: a named machine plus the simulated window it is
/// measured over.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it loads and the ones it bypasses.
    pub why: &'static str,
    /// Cycles simulated before the timed window. They absorb lazy set-up:
    /// the first checkpoint snapshots, arena and calendar growth, and the
    /// worker-pool start.
    pub warmup_cycles: u64,
    /// Cycles of the timed window. Much longer than three checkpoint
    /// intervals, so a rollback cannot rewind the window's op count below
    /// zero, and long enough that the simulated metrics vary little from
    /// seed to seed.
    pub window_cycles: u64,
    /// Cycles the traced run simulates after the window, so that the layer
    /// profile also covers behaviour the window stops short of.
    pub trace_extra_cycles: u64,
    /// Machines simulated per run, each with its own machine seed; their
    /// windows are pooled. Pooling narrows the seed-to-seed spread of a
    /// workload whose throughput varies strongly with the seed.
    pub machines_per_run: u64,
    /// Builds the machine for a workload seed.
    pub build: fn(&Workload, u64) -> Machine,
}

impl Workload {
    /// Cycles of one whole run: warm-up plus timed window.
    pub fn run_cycles(&self) -> u64 {
        self.warmup_cycles + self.window_cycles
    }

    /// The machine for machine seed `seed`.
    pub fn machine(&self, seed: u64) -> Machine {
        (self.build)(self, seed)
    }

    /// The machines of one run at workload seed `seed`: machine seeds
    /// `seed * machines_per_run` onwards, so that distinct workload seeds
    /// never share a machine.
    pub fn machines(&self, seed: u64) -> Vec<Machine> {
        let k = self.machines_per_run;
        (0..k)
            .map(|j| self.machine(seed.wrapping_mul(k).wrapping_add(j)))
            .collect()
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dir16-oltp",
        why: "The paper's canonical machine (Table 2): time goes to messages, that is network \
              forward and controller ingest. It bypasses polling, SafetyNet and recovery: 99% \
              of processor visits are skips and no recovery occurs.",
        warmup_cycles: 100_000,
        window_cycles: 1_000_000,
        trace_extra_cycles: 0,
        machines_per_run: 1,
        build: dir16_oltp,
    },
    Workload {
        name: "dir16-zipf",
        why: "The false-timeout configuration: the same engine and network used the opposite \
              way. All 16 processors are polled every cycle, a checkpoint is taken every 5k \
              cycles and recoveries occur, while the fabric is nearly idle.",
        warmup_cycles: 100_000,
        window_cycles: 8_000_000,
        trace_extra_cycles: 0,
        machines_per_run: 1,
        build: dir16_zipf,
    },
    Workload {
        name: "snoop16-jbb",
        why: "The only workload on the ordered bus, the snooping controllers, request-count \
              checkpointing and the dense-scan engine path. Timed before the first possible \
              transaction timeout; the traced run continues into the timeouts.",
        warmup_cycles: 30_000,
        window_cycles: 270_000,
        trace_extra_cycles: 2_800_000,
        machines_per_run: 12,
        build: snoop16_jbb,
    },
    Workload {
        name: "dir256-heavy",
        why: "The only workload on the phase-split engine: wake calendar, exchange worklists, \
              stall parking and sharded forwarding on a 2-thread worker pool. It also clones \
              256-node checkpoints.",
        warmup_cycles: 10_000,
        window_cycles: 50_000,
        trace_extra_cycles: 0,
        machines_per_run: 5,
        build: dir256_heavy,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Table 2 defaults: 16 nodes, 3.2 GB/s links, adaptive routing, 1 MSHR,
/// 100k-cycle checkpoints, OLTP, on 1 pinned worker.
fn dir16_oltp(_: &Workload, seed: u64) -> Machine {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::GB_3_2, seed)
            .with_workers_pinned(1);
    cfg.memory.num_nodes = 16;
    cfg.memory.mshr_entries = 1;
    cfg.memory.safetynet.checkpoint_interval_cycles = 100_000;
    Machine::Dir(cfg)
}

/// The 16-node machine at 400 MB/s with 4 MSHRs, 5k-cycle checkpoints and
/// a Zipf hot set (128 blocks, skew 1.0, a quarter of accesses), no bursts.
fn dir16_zipf(_: &Workload, seed: u64) -> Machine {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, seed)
            .with_workers_pinned(1);
    cfg.memory.num_nodes = 16;
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.traffic = TrafficConfig {
        zipf: Some(ZipfConfig {
            hot_blocks: 128,
            skew: 1.0,
            fraction: 0.25,
        }),
        burst: None,
    };
    Machine::Dir(cfg)
}

/// The default speculative snooping machine running SPECjbb. Its
/// transaction timeout is three 100k-cycle checkpoint intervals, so no
/// timeout can fire within the 300k cycles of an untraced run; `README.md`
/// gives the measurements behind stopping there.
fn snoop16_jbb(_: &Workload, seed: u64) -> Machine {
    let cfg = SnoopSystemConfig::new(WorkloadKind::Jbb, ProtocolVariant::Speculative, seed)
        .with_workers_pinned(1);
    Machine::Snoop(cfg)
}

/// 256 nodes at 800 MB/s on 2 pinned workers with the 256-node scaling
/// sweep's knobs: 2048 Zipf hot blocks, 4k-cycle 1/8-duty 4x bursts, 16
/// MSHRs, and a checkpoint interval long enough that three intervals (the
/// transaction timeout) cover the whole run.
fn dir256_heavy(w: &Workload, seed: u64) -> Machine {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_800, seed)
            .with_nodes(256)
            .with_workers_pinned(2);
    cfg.memory.mshr_entries = 16;
    cfg.memory.safetynet.checkpoint_interval_cycles = (w.run_cycles() / 3 + 1).max(10_000);
    cfg.traffic = TrafficConfig {
        zipf: Some(ZipfConfig {
            hot_blocks: 2048,
            skew: 1.0,
            fraction: 0.25,
        }),
        burst: Some(BurstConfig {
            period_cycles: 4_000,
            duty: 0.125,
            boost: 4.0,
        }),
    };
    Machine::Dir(cfg)
}

/// A machine configuration of either protocol family.
#[derive(Clone)]
pub enum Machine {
    /// A directory-protocol machine.
    Dir(SystemConfig),
    /// A broadcast-snooping machine.
    Snoop(SnoopSystemConfig),
}

impl Machine {
    /// The same machine with a different pinned worker count.
    #[cfg(test)]
    pub fn with_workers_pinned(&self, workers: usize) -> Self {
        match self {
            Machine::Dir(c) => Machine::Dir(c.with_workers_pinned(workers)),
            Machine::Snoop(c) => Machine::Snoop(c.with_workers_pinned(workers)),
        }
    }

    /// The same machine recording the speculation-lifecycle event trace
    /// (observational only: the schedule is unchanged).
    pub fn with_event_trace(&self) -> Self {
        let telemetry = TelemetryConfig {
            window_cycles: 0,
            trace_events: true,
        };
        match self {
            Machine::Dir(c) => Machine::Dir(c.with_telemetry(telemetry)),
            Machine::Snoop(c) => {
                let mut c = c.clone();
                c.telemetry = telemetry;
                Machine::Snoop(c)
            }
        }
    }

    /// Worker threads a run of this machine uses.
    pub fn workers(&self) -> usize {
        match self {
            Machine::Dir(c) => c.effective_worker_threads(),
            Machine::Snoop(c) => c.effective_worker_threads(),
        }
    }

    /// The point-to-point fabric: the directory torus, or the snooping data
    /// torus.
    pub fn net_config(&self) -> NetConfig {
        match self {
            Machine::Dir(c) => c.net_config(),
            Machine::Snoop(c) => c.data_net_config(),
        }
    }

    /// Workload generator, traffic shaping and seed of every node.
    pub fn generator(&self) -> (WorkloadKind, TrafficConfig, u64) {
        match self {
            Machine::Dir(c) => (c.workload, c.traffic, c.seed),
            Machine::Snoop(c) => (c.workload, c.traffic, c.seed),
        }
    }

    /// Constructs the simulator.
    pub fn build(&self) -> Sim {
        match self {
            Machine::Dir(c) => Sim::Dir(DirectorySystem::new(c.clone())),
            Machine::Snoop(c) => Sim::Snoop(SnoopingSystem::new(c.clone())),
        }
    }
}

/// A running simulator of either family, seen through the public calls the
/// benchmark makes. Only one exists at a time, so the variants stay unboxed.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    /// Directory machine.
    Dir(DirectorySystem),
    /// Snooping machine.
    Snoop(SnoopingSystem),
}

impl Sim {
    /// Advances one cycle.
    pub fn step(&mut self) -> Result<(), String> {
        match self {
            Sim::Dir(s) => s.step(),
            Sim::Snoop(s) => s.step(),
        }
        .map_err(|e| format!("protocol error: {e:?}"))
    }

    /// Advances `cycles` cycles.
    pub fn run_for(&mut self, cycles: u64) -> Result<(), String> {
        match self {
            Sim::Dir(s) => s.run_for(cycles).map(drop),
            Sim::Snoop(s) => s.run_for(cycles).map(drop),
        }
        .map_err(|e| format!("protocol error: {e:?}"))
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        match self {
            Sim::Dir(s) => s.now(),
            Sim::Snoop(s) => s.now(),
        }
    }

    /// Committed memory operations, machine-wide.
    pub fn ops_completed(&self) -> u64 {
        match self {
            Sim::Dir(s) => s.ops_completed(),
            Sim::Snoop(s) => s.ops_completed(),
        }
    }

    /// The run's metrics so far.
    pub fn metrics(&mut self) -> RunMetrics {
        match self {
            Sim::Dir(s) => s.collect_metrics(),
            Sim::Snoop(s) => s.collect_metrics(),
        }
    }

    /// Checks the coherence invariants of the architectural state.
    pub fn verify_coherence(&self) -> Result<(), String> {
        match self {
            Sim::Dir(s) => s.verify_coherence(),
            Sim::Snoop(s) => s.verify_coherence(),
        }
        .map_err(|e| format!("coherence violation: {e}"))
    }

    /// Engine work counters.
    pub fn engine_probe(&self) -> EngineProbe {
        match self {
            Sim::Dir(s) => s.engine_probe(),
            Sim::Snoop(s) => s.engine_probe(),
        }
    }

    /// Forward-phase counters of the point-to-point fabric.
    pub fn forward_probe(&self) -> ForwardProbe {
        match self {
            Sim::Dir(s) => s.net_forward_probe(),
            Sim::Snoop(s) => s.data_forward_probe(),
        }
    }

    /// The engine-mode timeline.
    pub fn timeline(&self) -> &ModeTimeline {
        match self {
            Sim::Dir(s) => s.mode_timeline(),
            Sim::Snoop(s) => s.mode_timeline(),
        }
    }

    /// The Chrome trace-event export, when the event trace is recorded.
    pub fn event_trace(&self) -> Option<String> {
        match self {
            Sim::Dir(s) => s.telemetry_trace(),
            Sim::Snoop(s) => s.telemetry_trace(),
        }
    }
}
