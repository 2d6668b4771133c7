//! Untraced runs: the end-to-end metrics.
//!
//! A run builds the machine, simulates the warm-up, then the timed window.
//! Both are split into fixed chunks of simulated cycles, each timed with one
//! clock read at its end. The process repeats runs of the same workload and
//! seed until its time budget is spent. Every repeat simulates exactly the
//! same cycles, so chunk `k` is the same work in every repeat. A host time
//! is the sum over chunks of each chunk's minimum across repeats: its
//! fastest pass. Interference from other tenants only ever adds time, and
//! on a shared host it arrives in phases longer than a run, which move a
//! median by far more than they move the fastest pass over each chunk.
//! Every repeat must also reproduce the first one's simulated fingerprint.

use std::time::{Duration, Instant};

use specsim::{EngineMode, RunMetrics};

use crate::machines::{Machine, Sim, Workload};

/// Repeats made even when one alone exhausts the time budget, so that
/// every host time is taken over several repeats.
const MIN_REPEATS: usize = 3;
/// Timed chunks the warm-up is split into.
const WARMUP_CHUNKS: u64 = 10;
/// Timed chunks the window is split into. Short chunks give the minimum
/// more chances to find a quiet stretch of each part of the window.
const WINDOW_CHUNKS: u64 = 200;

/// Counters read at one end of the timed window.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated cycle.
    pub cycle: u64,
    /// Committed operations (rewound by a rollback).
    pub ops: u64,
    /// Cycles spent in normal mode so far.
    pub normal_cycles: u64,
    /// Metrics of the run so far.
    pub metrics: RunMetrics,
}

impl Snapshot {
    /// Reads the counters of `sim`.
    pub fn take(sim: &mut Sim) -> Self {
        Self {
            cycle: sim.now(),
            ops: sim.ops_completed(),
            normal_cycles: sim.timeline().cycles_in(EngineMode::Normal),
            metrics: sim.metrics(),
        }
    }
}

/// Everything simulated about one run that must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operations committed in the timed window.
    pub window_ops: u64,
    /// Normal-mode cycles in the timed window.
    pub window_normal_cycles: u64,
    /// Cycles of the timed window.
    pub window_cycles: u64,
    /// Committed operations at the end of the window.
    pub ops: u64,
    /// Simulated cycles at the end of the window.
    pub cycles: u64,
    /// Mis-speculations by kind label.
    pub misspeculations: Vec<(&'static str, u64)>,
    /// SafetyNet checkpoints taken.
    pub checkpoints: u64,
    /// Cycles per engine mode.
    pub mode_cycles: Vec<u64>,
}

impl Fingerprint {
    /// The fingerprint of the window between two snapshots; `Err` when the
    /// window's committed op count is not positive (a rollback past the
    /// window start can rewind it).
    pub fn of_window(start: &Snapshot, end: &Snapshot) -> Result<Self, String> {
        let window_ops = i128::from(end.ops) - i128::from(start.ops);
        if window_ops <= 0 {
            return Err(format!(
                "non-positive window op count {window_ops} over cycles {}..{}",
                start.cycle, end.cycle
            ));
        }
        let m = &end.metrics;
        Ok(Self {
            window_ops: window_ops as u64,
            window_normal_cycles: end.normal_cycles - start.normal_cycles,
            window_cycles: end.cycle - start.cycle,
            ops: m.ops_completed,
            cycles: m.cycles,
            misspeculations: m
                .misspeculations
                .iter()
                .map(|&(k, n)| (k.label(), n))
                .collect(),
            checkpoints: m.checkpoints,
            mode_cycles: m.mode_cycles.to_vec(),
        })
    }
}

/// One untraced run of a workload's machines.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Host nanoseconds of each machine's construction, then of each of its
    /// warm-up chunks.
    pub setup_ns: Vec<f64>,
    /// Host nanoseconds of each chunk of each machine's timed window.
    pub window_ns: Vec<f64>,
    /// What each machine simulated.
    pub fingerprints: Vec<Fingerprint>,
}

impl Repeat {
    /// Operations committed in the pooled windows.
    pub fn window_ops(&self) -> u64 {
        self.fingerprints.iter().map(|f| f.window_ops).sum()
    }

    /// Committed operations per 1000 simulated cycles of the pooled windows.
    pub fn ops_per_kcycle(&self) -> f64 {
        let cycles: u64 = self.fingerprints.iter().map(|f| f.window_cycles).sum();
        self.window_ops() as f64 * 1000.0 / cycles as f64
    }

    /// Share of the pooled windows' cycles in normal mode.
    pub fn normal_availability(&self) -> f64 {
        let normal: u64 = self
            .fingerprints
            .iter()
            .map(|f| f.window_normal_cycles)
            .sum();
        let cycles: u64 = self.fingerprints.iter().map(|f| f.window_cycles).sum();
        normal as f64 / cycles as f64
    }
}

/// Splits `cycles` into `chunks` near-equal parts.
fn chunked(cycles: u64, chunks: u64) -> impl Iterator<Item = u64> {
    (0..chunks).map(move |i| cycles * (i + 1) / chunks - cycles * i / chunks)
}

/// Builds each of `machines` in turn, simulates the warm-up and the window
/// of `w` timing every chunk, then checks coherence.
pub fn run_once(w: &Workload, machines: &[Machine]) -> Result<Repeat, String> {
    let mut out = Repeat {
        setup_ns: Vec::new(),
        window_ns: Vec::new(),
        fingerprints: Vec::new(),
    };
    for machine in machines {
        let mut clock = Instant::now();
        let mut lap = move || {
            let now = Instant::now();
            let ns = (now - clock).as_nanos() as f64;
            clock = now;
            ns
        };
        let mut sim = machine.build();
        out.setup_ns.push(lap());
        for cycles in chunked(w.warmup_cycles, WARMUP_CHUNKS) {
            sim.run_for(cycles)?;
            out.setup_ns.push(lap());
        }
        let start = Snapshot::take(&mut sim);
        lap();
        for cycles in chunked(w.window_cycles, WINDOW_CHUNKS) {
            sim.run_for(cycles)?;
            out.window_ns.push(lap());
        }
        let end = Snapshot::take(&mut sim);
        sim.verify_coherence()?;
        out.fingerprints.push(Fingerprint::of_window(&start, &end)?);
    }
    Ok(out)
}

/// The repeats of one process, with the failures among them.
pub struct Repeats {
    /// Runs that passed every check.
    pub ok: Vec<Repeat>,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

impl Repeats {
    /// Runs attempted.
    pub fn attempted(&self) -> usize {
        self.ok.len() + self.failures.len()
    }

    /// Host seconds from the start of a machine's construction to its first
    /// timed cycle (the mean over the run's machines), fastest pass.
    pub fn setup_s(&self) -> f64 {
        let machines = self.ok.first().map_or(1, |r| r.fingerprints.len());
        chunk_minima(self.ok.iter().map(|r| &r.setup_ns)) / 1e9 / machines as f64
    }

    /// Host nanoseconds of the timed window, fastest pass.
    pub fn window_ns(&self) -> f64 {
        chunk_minima(self.ok.iter().map(|r| &r.window_ns))
    }
}

/// Sum over chunk positions of the minimum, across repeats, of that chunk's
/// time.
fn chunk_minima<'a>(repeats: impl Iterator<Item = &'a Vec<f64>> + Clone) -> f64 {
    let chunks = repeats.clone().map(Vec::len).min().unwrap_or(0);
    (0..chunks)
        .map(|k| repeats.clone().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Repeats [`run_once`] on `w` at `seed` until one more run would overrun
/// `budget` (and at least [`MIN_REPEATS`] times). A run whose fingerprint
/// differs from the first successful run's fails: a determinism break.
pub fn repeat(w: &Workload, seed: u64, budget: Duration) -> Repeats {
    let machines = w.machines(seed);
    let started = Instant::now();
    let mut out = Repeats {
        ok: Vec::new(),
        failures: Vec::new(),
    };
    let mut longest = Duration::ZERO;
    while out.attempted() < MIN_REPEATS || started.elapsed() + longest <= budget {
        let t = Instant::now();
        match run_once(w, &machines) {
            Ok(r) => match out.ok.first() {
                Some(first) if first.fingerprints != r.fingerprints => {
                    out.failures.push(format!(
                        "determinism break: {:?} != {:?}",
                        r.fingerprints, first.fingerprints
                    ));
                }
                _ => out.ok.push(r),
            },
            Err(e) => out.failures.push(e),
        }
        longest = longest.max(t.elapsed());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::workload;

    #[test]
    fn chunks_cover_the_span_exactly() {
        assert_eq!(chunked(10, 3).collect::<Vec<_>>(), vec![3, 3, 4]);
        assert_eq!(chunked(1_000_003, 50).sum::<u64>(), 1_000_003);
    }

    #[test]
    fn chunk_minima_take_each_position_separately() {
        let reps = [vec![1.0, 10.0], vec![2.0, 30.0], vec![9.0, 5.0]];
        assert_eq!(chunk_minima(reps.iter()), 1.0 + 5.0);
    }

    /// The phase-split engine must simulate the same machine on 1 and 2
    /// workers: every simulated metric of `dir256-heavy` is identical.
    #[test]
    fn dir256_heavy_is_identical_on_one_and_two_workers() {
        let w = Workload {
            warmup_cycles: 1_000,
            window_cycles: 4_000,
            ..*workload("dir256-heavy").expect("workload exists")
        };
        let machine = w.machine(5);
        let one = run_once(&w, &[machine.with_workers_pinned(1)]).expect("serial run");
        let two = run_once(&w, &[machine.with_workers_pinned(2)]).expect("parallel run");
        assert_eq!(machine.workers(), 2);
        assert_eq!(one.fingerprints, two.fingerprints);
    }

    /// Repeats of one seed reproduce each other; different seeds differ.
    #[test]
    fn fingerprints_repeat_per_seed() {
        let w = Workload {
            warmup_cycles: 2_000,
            window_cycles: 20_000,
            ..*workload("dir16-oltp").expect("workload exists")
        };
        let a = run_once(&w, &w.machines(3)).expect("run");
        let b = run_once(&w, &w.machines(3)).expect("run");
        let c = run_once(&w, &w.machines(4)).expect("run");
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_ne!(a.fingerprints, c.fingerprints);
    }
}
