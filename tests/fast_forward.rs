//! Quiescence fast-forward equivalence.
//!
//! The engine settles cycles before its idle horizon in bulk instead of
//! stepping them. Nothing observable may depend on how the cycles were
//! driven: a `step()` loop (which settles one idle cycle at a time), one
//! `run_for`, ragged `run_for` chunks and the phase-split engine at 2 and 4
//! workers must all produce the same run metrics, mode transitions,
//! windowed JSONL, event trace and engine work counters — and a coherent
//! machine. Each scenario below stresses a different due source: slow-start
//! holds (the Zipf machine), fault events and windows, the pooled fabric's
//! deadlock evidence and reserved-slot window, the 256-node phase-split
//! engine, and the snooping bus.

use specsim::experiments::heavy_traffic::heavy_traffic;
use specsim::{
    DirectorySystem, EngineProbe, RunMetrics, SnoopSystemConfig, SnoopingSystem, SystemConfig,
    TelemetryConfig,
};
use specsim_base::{
    EngineMode, FaultConfig, LinkBandwidth, ModeTransition, ProtocolVariant, ALL_FAULT_KINDS,
};
use specsim_coherence::types::ProtocolError;
use specsim_workloads::{TrafficConfig, WorkloadKind, ZipfConfig};

/// Windowed samples plus the lifecycle trace, so both telemetry surfaces
/// are compared.
fn telemetry(window_cycles: u64) -> TelemetryConfig {
    TelemetryConfig {
        window_cycles,
        trace_events: true,
    }
}

#[derive(Clone)]
enum Machine {
    Dir(SystemConfig),
    Snoop(SnoopSystemConfig),
}

impl Machine {
    fn pinned(&self, workers: usize) -> Sim {
        match self {
            Machine::Dir(c) => Sim::Dir(DirectorySystem::new(c.with_workers_pinned(workers))),
            Machine::Snoop(c) => Sim::Snoop(SnoopingSystem::new(c.with_workers_pinned(workers))),
        }
    }
}

// Both systems are large and of similar size; boxing would only add an
// indirection to every call.
#[allow(clippy::large_enum_variant)]
enum Sim {
    Dir(DirectorySystem),
    Snoop(SnoopingSystem),
}

impl Sim {
    fn step(&mut self) -> Result<(), ProtocolError> {
        match self {
            Sim::Dir(s) => s.step(),
            Sim::Snoop(s) => s.step(),
        }
    }

    fn run_for(&mut self, cycles: u64) -> Result<RunMetrics, ProtocolError> {
        match self {
            Sim::Dir(s) => s.run_for(cycles),
            Sim::Snoop(s) => s.run_for(cycles),
        }
    }

    fn outcome(&mut self) -> Outcome {
        let (metrics, transitions, jsonl, trace, probe, coherence) = match self {
            Sim::Dir(s) => (
                s.collect_metrics(),
                s.mode_timeline().transitions().to_vec(),
                s.telemetry_jsonl(),
                s.telemetry_trace(),
                s.engine_probe(),
                s.verify_coherence(),
            ),
            Sim::Snoop(s) => (
                s.collect_metrics(),
                s.mode_timeline().transitions().to_vec(),
                s.telemetry_jsonl(),
                s.telemetry_trace(),
                s.engine_probe(),
                s.verify_coherence(),
            ),
        };
        if let Err(violation) = coherence {
            panic!("incoherent after the run: {violation}");
        }
        Outcome {
            metrics: format!("{metrics:?}"),
            transitions,
            jsonl,
            trace,
            probe,
        }
    }
}

/// Everything observable about one run.
#[derive(Debug)]
struct Outcome {
    metrics: String,
    transitions: Vec<ModeTransition>,
    jsonl: Option<String>,
    trace: Option<String>,
    probe: EngineProbe,
}

impl Outcome {
    /// Field-by-field comparison, so a failure names what diverged.
    fn assert_matches(&self, reference: &Outcome, how: &str) {
        assert_eq!(self.metrics, reference.metrics, "{how}: run metrics");
        assert_eq!(
            self.transitions, reference.transitions,
            "{how}: mode transitions"
        );
        assert_eq!(self.jsonl, reference.jsonl, "{how}: windowed JSONL");
        assert_eq!(self.trace, reference.trace, "{how}: event trace");
        assert_eq!(self.probe, reference.probe, "{how}: engine probe");
    }
}

/// The ragged chunk sizes `run_for` is driven with.
const CHUNKS: [u64; 3] = [7, 1_000, 4_999];

/// Runs `machine` for `cycles` cycles every way and asserts that the
/// outcomes agree; returns the reference (one serial `run_for`).
fn assert_drive_independent(machine: &Machine, cycles: u64) -> Outcome {
    let mut reference = machine.pinned(1);
    reference.run_for(cycles).expect("no protocol errors");
    let reference = reference.outcome();

    let mut stepped = machine.pinned(1);
    for _ in 0..cycles {
        stepped.step().expect("no protocol errors");
    }
    stepped.outcome().assert_matches(&reference, "step() loop");

    let mut chunked = machine.pinned(1);
    let mut left = cycles;
    for &chunk in CHUNKS.iter().cycle() {
        if left == 0 {
            break;
        }
        let n = chunk.min(left);
        chunked.run_for(n).expect("no protocol errors");
        left -= n;
    }
    chunked
        .outcome()
        .assert_matches(&reference, "ragged run_for");

    for workers in [2, 4] {
        let mut parallel = machine.pinned(workers);
        parallel.run_for(cycles).expect("no protocol errors");
        parallel
            .outcome()
            .assert_matches(&reference, &format!("{workers}-worker run_for"));
    }
    reference
}

fn entered(outcome: &Outcome, mode: EngineMode) -> bool {
    outcome.transitions.iter().any(|t| t.to == mode)
}

/// The false-timeout machine: 400 MB/s links, 4 MSHRs, a Zipf hot set and
/// 5k-cycle checkpoints, which spends most of its time in slow-start with
/// every processor held at the gate.
fn zipf_machine() -> SystemConfig {
    let mut cfg = SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
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
    cfg
}

#[test]
fn slow_start_zipf_machine_fast_forwards_most_cycles_identically() {
    let cfg = zipf_machine().with_telemetry(telemetry(10_000));
    let cycles = 120_000;
    let out = assert_drive_independent(&Machine::Dir(cfg), cycles);
    assert!(
        entered(&out, EngineMode::SlowStart),
        "never entered slow-start"
    );
    assert!(
        out.probe.fast_forward_cycles * 2 >= cycles,
        "only {} of {cycles} cycles fast-forwarded",
        out.probe.fast_forward_cycles
    );
}

#[test]
fn stall_windows_and_slow_start_end_on_their_exact_cycles() {
    // Drive independence cannot show a due source the horizon forgot: every
    // drive would skip the same cycle. The mode timeline can — a recovery
    // stall lasts exactly the recovery latency and slow-start exactly its
    // window, however idle the machine is when they end. (Checkpoints
    // fall every 5k cycles from the resume, so the window is deliberately
    // not a multiple of that.)
    let slow_start = 17_321;
    let mut cfg = zipf_machine().with_workers_pinned(1);
    cfg.forward_progress.slow_start_cycles = slow_start;
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(300_000).expect("no protocol errors");
    assert!(m.recoveries > 0, "no recovery to time");
    assert!(sys.engine_probe().fast_forward_cycles > 0);
    let latency = m.recovery_latency_cycles / m.recoveries;
    let transitions = sys.mode_timeline().transitions();
    let mut stalls = 0;
    let mut slow_starts = 0;
    for pair in transitions.windows(2) {
        let (enter, leave) = (pair[0], pair[1]);
        let span = leave.at - enter.at;
        match (enter.to, leave.to) {
            (EngineMode::Rollback, _) => {
                // Entered on the cycle after the recovery, left on resume.
                assert_eq!(span, latency - 1, "stall from {}", enter.at);
                stalls += 1;
            }
            (EngineMode::SlowStart, EngineMode::Normal) => {
                assert_eq!(span, slow_start, "slow-start from {}", enter.at);
                slow_starts += 1;
            }
            _ => {}
        }
    }
    assert!(stalls > 0 && slow_starts > 0, "{transitions:?}");
}

#[test]
fn fault_campaign_with_telemetry_is_drive_independent() {
    // The telemetry-golden machine: heavy traffic under a random chaos
    // campaign of every fault kind, with windowed JSONL and the event trace.
    let cycles = 40_000;
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 77)
            .with_nodes(16)
            .with_telemetry(telemetry(2_000));
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.traffic = heavy_traffic();
    cfg.fault_config = FaultConfig::Random {
        rate_per_mcycle: 2_000,
        kinds: ALL_FAULT_KINDS.to_vec(),
        horizon_cycles: cycles,
    };
    let out = assert_drive_independent(&Machine::Dir(cfg), cycles);
    assert!(out
        .trace
        .as_deref()
        .is_some_and(|t| t.contains("fault-fired:")));
    assert!(
        entered(&out, EngineMode::Rollback),
        "no fault was recovered"
    );
}

#[test]
fn shared_pool_machine_enters_reserved_slots_identically() {
    // The 8-slot shared-pool design point: heavy traffic wedges the pool,
    // the watchdog-confirmed timeout recovers, and re-execution runs under
    // reserved slots — the pooled fabric's evidence is a due source.
    let mut cfg =
        SystemConfig::shared_pool_interconnect(WorkloadKind::Oltp, LinkBandwidth::MB_400, 8, 6001)
            .with_telemetry(telemetry(5_000));
    cfg.memory.num_nodes = 16;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.memory.mshr_entries = 4;
    cfg.traffic = heavy_traffic();
    let out = assert_drive_independent(&Machine::Dir(cfg), 30_000);
    assert!(
        entered(&out, EngineMode::ReservedSlots),
        "the pool never deadlocked into reserved-slot re-execution"
    );
}

#[test]
fn heavy_256_node_machine_is_drive_independent() {
    // The phase-split engine's machine: wake calendar, stall parking and
    // sharded forwarding, under bursty Zipf traffic.
    let cfg = SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_800, 1)
        .with_nodes(256)
        .with_telemetry(telemetry(1_000));
    let mut cfg = cfg;
    cfg.memory.mshr_entries = 16;
    cfg.traffic = heavy_traffic();
    assert_drive_independent(&Machine::Dir(cfg), 3_000);
}

#[test]
fn default_snooping_machine_is_drive_independent() {
    let mut cfg = SnoopSystemConfig::new(WorkloadKind::Jbb, ProtocolVariant::Speculative, 3);
    cfg.telemetry = telemetry(5_000);
    let out = assert_drive_independent(&Machine::Snoop(cfg), 40_000);
    assert!(out.probe.fast_forward_cycles > 0, "the bus never went idle");
}

#[test]
fn forward_probe_never_rewinds_across_recoveries() {
    // The fabric's forward probe lives inside the checkpointed network; a
    // rollback restores the network but must carry the live counters over,
    // so the probe counts the work actually done and never decreases.
    let mut sys = DirectorySystem::new(zipf_machine().with_workers_pinned(1));
    let rollbacks = |sys: &DirectorySystem| {
        sys.mode_timeline()
            .transitions()
            .iter()
            .filter(|t| t.to == EngineMode::Rollback)
            .count()
    };
    let mut last = sys.net_forward_probe().switch_visits;
    while rollbacks(&sys) < 2 {
        assert!(sys.now() < 400_000, "fewer than two recoveries");
        sys.step().expect("no protocol errors");
        let visits = sys.net_forward_probe().switch_visits;
        assert!(visits >= last, "switch visits fell from {last} to {visits}");
        last = visits;
    }
}

#[test]
fn sleeping_switches_are_worker_independent() {
    // Switch sleep takes the same decisions on the serial and the sharded
    // forward path, so the forward phase visits the same switches at every
    // worker count (only how the visits were executed may differ).
    let mut cfg = SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 5)
        .with_nodes(256);
    cfg.memory.mshr_entries = 16;
    cfg.traffic = heavy_traffic();
    let visits = |workers: usize| {
        let mut sys = DirectorySystem::new(cfg.with_workers_pinned(workers));
        sys.run_for(2_000).expect("no protocol errors");
        sys.verify_coherence().expect("coherent");
        sys.net_forward_probe()
    };
    let serial = visits(1);
    assert!(serial.switch_visits > 0);
    for workers in [2, 4] {
        let parallel = visits(workers);
        assert_eq!(
            parallel.switch_visits, serial.switch_visits,
            "{workers} workers visited different switches"
        );
        assert!(
            parallel.parallel_phases > 0,
            "{workers} workers never sharded"
        );
    }
}
