//! Benchmark of the specsim simulator on four named machines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the process repeats untraced runs of one workload for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it makes
//! one traced run and reports the per-layer metrics. Every run's output is
//! checked: coherence is verified, protocol errors and non-positive window
//! op counts fail the run, and every repeat must reproduce the first one's
//! simulated fingerprint. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it records the host. See `README.md` for the workloads and the
//! metric definitions.

mod layers;
mod machines;
mod measure;
mod report;

use std::process::ExitCode;
use std::time::Duration;

use machines::{workload, Workload, WORKLOADS};
use report::Metric;

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload_name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload_name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload_name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; expected one of {names:?}")
    })?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The untraced measurement: end-to-end metrics over repeated runs.
fn end_to_end(args: &Args) -> (usize, Vec<String>, Vec<Metric>) {
    let reps = measure::repeat(args.workload, args.seed, Duration::from_secs(args.seconds));
    let mut metrics = Vec::new();
    if let Some(first) = reps.ok.first() {
        metrics = vec![
            Metric::new("setup_s", reps.setup_s(), "s"),
            Metric::new(
                "host_ns_per_op",
                reps.window_ns() / first.window_ops() as f64,
                "ns/op",
            ),
            Metric::new("peak_rss_mib", report::peak_rss_mib(), "MiB"),
            Metric::new("sim_ops_per_kcycle", first.ops_per_kcycle(), "ops/kcycle"),
            Metric::new(
                "normal_availability",
                first.normal_availability(),
                "fraction",
            ),
        ];
    }
    (reps.attempted(), reps.failures, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (attempted, failures, metrics) = if args.trace {
        match layers::traced(args.workload, args.seed) {
            Ok(m) => (1, Vec::new(), m),
            Err(e) => (1, vec![e], Vec::new()),
        }
    } else {
        end_to_end(&args)
    };
    for f in &failures {
        eprintln!("perfbench: failed run: {f}");
    }
    println!("workload {}: {}", args.workload.name, args.workload.why);
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "host: {{\"workload\": \"{}\", \"seed\": {}, \"workers\": {}, \"host\": {}}}",
        args.workload.name,
        args.seed,
        args.workload.machines(args.seed)[0].workers(),
        report::host_json()
    );
    let correct = failures.is_empty() && !metrics.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failures.len(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
