//! End-to-end and per-layer benchmark of the QUEST pipeline and the
//! `questd` daemon. See README.md for the workloads and metrics.
//!
//! ```text
//! e2ebench --workload <suite_cold|suite_warm|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. A run
//! whose outputs fail the correctness gate prints `"correct": false` and
//! exits with code 1.

mod check;
mod kernels;
mod service;
mod stats;
mod suite;
mod trace;

use qobs::json::Json;
use stats::Metrics;
use std::path::{Path, PathBuf};

/// One run's arguments.
pub struct Opts {
    /// Drives every random choice of the workload.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics instead of the end-to-end
    /// ones.
    pub trace: bool,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    /// The metrics to print.
    pub metrics: Metrics,
    /// Jobs attempted in the timed phases.
    pub attempted: u64,
    /// Jobs that failed, were refused, degraded or were wrong.
    pub failed: u64,
    /// Correctness-gate violations; any makes the run fail.
    pub violations: Vec<String>,
    /// The traced phase's spans.
    pub trace: Option<trace::Trace>,
}

/// Reports a condition that makes the run's outputs unusable and exits
/// with code 1.
pub fn fatal(message: &str) -> ! {
    eprintln!("e2ebench: {message}");
    std::process::exit(1);
}

/// The `questd` layer's per-layer metrics, with their units. The suite
/// workloads do not go through `questd`, so these read 0 there.
pub const SERVICE_LAYERS: [(&str, &str); 8] = [
    ("questd.queue_wait_s.p50", "s"),
    ("questd.queue_wait_s.p90", "s"),
    ("questd.run_s.p50", "s"),
    ("questd.overhead_s.p50", "s"),
    ("questd.dedup_hits", "count"),
    ("questd.rejected", "count"),
    ("questd.report_metrics_mismatch", "count"),
    ("loadgen.lag_s.p90", "s"),
];

/// The disk-cache per-layer metrics, with their units. `service_mix` runs
/// with a memory-only cache, so these read 0 there.
pub const DISK_CACHE_LAYERS: [(&str, &str); 6] = [
    ("cache.load_s", "s"),
    ("cache.load_per_block_ms", "ms"),
    ("cache.disk_hits", "count"),
    ("cache.disk_misses", "count"),
    ("cache.validation_failures", "count"),
    ("cache.disk_bytes", "bytes"),
];

/// Records `job_p90_s`, the 90th percentile of the untraced phase's job
/// latencies, and reports on standard error how many samples lie beyond
/// it. On the shared calibration host its run-to-run spread (0.29 to 0.5)
/// exceeded the largest bound an end-to-end metric may carry, so it is
/// printed with the per-layer metrics, which carry no bound.
pub fn put_job_p90(m: &mut Metrics, latencies: &[f64]) {
    m.put("job_p90_s", stats::quantile(latencies, 0.9), "s");
    eprintln!(
        "job_p90_s: {} samples, {} beyond it",
        latencies.len(),
        stats::count_beyond(latencies, 0.9)
    );
}

/// Records 0 for each of `layers`, metrics the workload does not exercise.
pub fn put_absent(m: &mut Metrics, layers: &[(&'static str, &'static str)]) {
    for &(name, unit) in layers {
        m.put(name, 0.0, unit);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <suite_cold|suite_warm|service_mix> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    let work = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()));
    (
        workload,
        Opts {
            seed,
            seconds,
            trace,
            work,
        },
    )
}

fn main() {
    let (workload, opts) = parse_args();
    std::fs::create_dir_all(&opts.work)
        .unwrap_or_else(|e| fatal(&format!("cannot create {}: {e}", opts.work.display())));
    let outcome = match workload.as_str() {
        "suite_cold" => suite::cold(&opts),
        "suite_warm" => suite::warm(&opts),
        "service_mix" => service::mix(&opts),
        _ => usage(),
    };
    std::fs::remove_dir_all(&opts.work).ok();
    if let Some(trace) = &outcome.trace {
        let path = opts
            .work
            .with_file_name(format!("trace-{workload}-seed{}.jsonl", opts.seed));
        match trace.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }
    for v in &outcome.violations {
        eprintln!("VIOLATION {v}");
    }
    let correct = outcome.violations.is_empty();
    let line = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Number(outcome.attempted as f64)),
        ("failed".into(), Json::Number(outcome.failed as f64)),
        ("metrics".into(), outcome.metrics.to_json()),
    ]);
    println!("{}", line.compact());
    if !correct {
        std::process::exit(1);
    }
}
