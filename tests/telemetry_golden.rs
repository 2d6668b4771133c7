//! Pinned telemetry goldens: the windowed JSONL stream and the Chrome
//! trace-event document of a 16-node heavy-traffic fault campaign must be
//! **byte-identical** between the serial reference kernel and the
//! phase-split engine at 4 workers, and stable across revisions.
//!
//! Telemetry is timestamped exclusively in simulated cycles and recorded at
//! deterministic points of the engine's step loop, so the outputs are a
//! pure function of the configuration — any wall-clock leakage, any
//! worker-count-dependent ordering, or any silent change to the sampled
//! schedule moves a digest. Set `SPECSIM_PRINT_GOLDENS=1` to reprint the
//! pinned constants after an intentional change.

use specsim::experiments::heavy_traffic::heavy_traffic;
use specsim::{DirectorySystem, SnoopSystemConfig, SnoopingSystem, SystemConfig, TelemetryConfig};
use specsim_base::{FaultConfig, LinkBandwidth, ProtocolVariant, ALL_FAULT_KINDS};
use specsim_workloads::WorkloadKind;

/// FNV-1a over a string, the same fold the kernel-equivalence goldens use.
fn digest(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const CYCLES: u64 = 40_000;

fn campaign() -> FaultConfig {
    FaultConfig::Random {
        rate_per_mcycle: 2_000,
        kinds: ALL_FAULT_KINDS.to_vec(),
        horizon_cycles: CYCLES,
    }
}

/// The 16-node heavy-traffic directory machine with everything-on telemetry,
/// pinned to `workers` so the kernel under test is explicit.
fn dir_cfg(workers: usize) -> SystemConfig {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 77)
            .with_nodes(16)
            .with_telemetry(TelemetryConfig::windowed(2_000))
            .with_workers_pinned(workers);
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.traffic = heavy_traffic();
    cfg.fault_config = campaign();
    cfg
}

fn snoop_cfg(workers: usize) -> SnoopSystemConfig {
    // The same chaos campaign the fault-recovery suite runs on the snooping
    // machine: plain OLTP shape (the heavy overlay at 400 MB/s starves this
    // machine into a saturation scenario rather than a lifecycle-rich one).
    let mut cfg = SnoopSystemConfig::new(WorkloadKind::Oltp, ProtocolVariant::Speculative, 77);
    cfg.memory.num_nodes = 16;
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.fault_config = campaign();
    cfg.telemetry = TelemetryConfig::windowed(2_000);
    cfg = cfg.with_workers_pinned(workers);
    cfg
}

/// Runs the directory machine and returns its (JSONL, trace) outputs.
fn dir_outputs(workers: usize) -> (String, String) {
    let mut sys = DirectorySystem::new(dir_cfg(workers));
    sys.run_for(CYCLES).expect("no protocol errors");
    (
        sys.telemetry_jsonl().expect("telemetry enabled"),
        sys.telemetry_trace().expect("telemetry enabled"),
    )
}

fn snoop_outputs(workers: usize) -> (String, String) {
    let mut sys = SnoopingSystem::new(snoop_cfg(workers));
    sys.run_for(CYCLES).expect("no protocol errors");
    (
        sys.telemetry_jsonl().expect("telemetry enabled"),
        sys.telemetry_trace().expect("telemetry enabled"),
    )
}

/// Captured from the serial reference kernel; see the module doc. The
/// JSONL digest was re-pinned when the windowed `link_utilization` column
/// started reading the fabric's link-busy counters (it had read a counter
/// with no writer, so every window said 0); no other column moved.
const GOLDEN_DIR_JSONL_DIGEST: u64 = 761_327_462_988_274_008;
const GOLDEN_DIR_TRACE_DIGEST: u64 = 1_953_312_100_789_147_611;

#[test]
fn directory_telemetry_is_identical_serial_vs_parallel_and_pinned() {
    let (jsonl_1, trace_1) = dir_outputs(1);
    let (jsonl_4, trace_4) = dir_outputs(4);
    assert_eq!(
        jsonl_1, jsonl_4,
        "windowed JSONL must not depend on the worker count"
    );
    assert_eq!(
        trace_1, trace_4,
        "the event trace must not depend on the worker count"
    );

    // Shape checks: one sample per full window, every line a JSON object.
    assert_eq!(jsonl_1.lines().count() as u64, CYCLES / 2_000);
    for line in jsonl_1.lines() {
        assert!(line.starts_with("{\"window_start\":") && line.ends_with('}'));
        assert!(line.contains("\"ops\":") && line.contains("\"link_utilization\":"));
    }
    assert!(trace_1.starts_with("{\"traceEvents\":["));
    assert!(trace_1.trim_end().ends_with("}"));
    assert!(trace_1.contains("\"displayTimeUnit\""));
    // The campaign produces real lifecycle content: checkpoints, fault
    // fires, detections and rollback spans.
    for needle in [
        "\"checkpoint\"",
        "\"fault-fired:",
        "\"fault-detected:",
        "\"rollback:",
        "\"mode\"",
    ] {
        assert!(trace_1.contains(needle), "trace is missing {needle}");
    }

    if std::env::var("SPECSIM_PRINT_GOLDENS").is_ok() {
        println!("GOLDEN_DIR_JSONL_DIGEST: {}", digest(&jsonl_1));
        println!("GOLDEN_DIR_TRACE_DIGEST: {}", digest(&trace_1));
    }
    assert_eq!(
        digest(&jsonl_1),
        GOLDEN_DIR_JSONL_DIGEST,
        "telemetry JSONL drifted; if intentional, re-pin (SPECSIM_PRINT_GOLDENS=1)"
    );
    assert_eq!(
        digest(&trace_1),
        GOLDEN_DIR_TRACE_DIGEST,
        "telemetry trace drifted; if intentional, re-pin (SPECSIM_PRINT_GOLDENS=1)"
    );
}

#[test]
fn snooping_telemetry_is_identical_serial_vs_parallel() {
    let (jsonl_1, trace_1) = snoop_outputs(1);
    let (jsonl_4, trace_4) = snoop_outputs(4);
    assert_eq!(jsonl_1, jsonl_4);
    assert_eq!(trace_1, trace_4);
    assert_eq!(jsonl_1.lines().count() as u64, CYCLES / 2_000);
    assert!(trace_1.contains("\"fault-fired:"));
    assert!(trace_1.contains("\"rollback:"));
}

#[test]
fn repeated_runs_are_byte_identical() {
    // Same config twice on the same kernel: wall clock must never leak into
    // any telemetry surface.
    let (a_jsonl, a_trace) = dir_outputs(1);
    let (b_jsonl, b_trace) = dir_outputs(1);
    assert_eq!(a_jsonl, b_jsonl);
    assert_eq!(a_trace, b_trace);
}
