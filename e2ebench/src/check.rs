//! The correctness gate and the output-quality metrics.

use qcircuit::Circuit;
use qsim::NoiseModel;
use quest::{QuestConfig, QuestResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Slack on the Sec. 3.8 bound: actual distance ≤ Σε + this.
const BOUND_TOL: f64 = 1e-6;

/// Shots and trajectories of the noisy estimate (the paper's 8192 shots).
const NOISY_SHOTS: usize = 8192;
const NOISY_TRAJECTORIES: usize = 64;

/// One fixed noise model and RNG seed, so `output_tvd_noisy` is a
/// deterministic function of the compiled samples.
const NOISE_P2: f64 = 0.01;
const NOISE_SEED: u64 = 0x7D5E;

/// One compiled circuit to gate and score.
pub struct Compiled<'a> {
    /// Label used in violation messages.
    pub name: &'a str,
    /// The circuit that was compiled.
    pub circuit: &'a Circuit,
    /// The configuration it was compiled with.
    pub config: &'a QuestConfig,
    /// The result.
    pub result: &'a QuestResult,
}

/// Output quality of one compiled circuit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    /// (original CNOTs − mean sample CNOTs) ÷ original CNOTs, in percent.
    pub cnot_reduction_pct: f64,
    /// TVD between the original's ideal distribution and the samples'
    /// averaged ideal distribution.
    pub tvd_ideal: f64,
    /// TVD between the original's ideal distribution and the samples'
    /// averaged noisy distribution.
    pub tvd_noisy: f64,
}

impl Quality {
    /// The mean of each field over `items`.
    pub fn mean(items: &[Quality]) -> Quality {
        let n = items.len().max(1) as f64;
        let sum = |f: fn(&Quality) -> f64| items.iter().map(f).sum::<f64>() / n;
        Quality {
            cnot_reduction_pct: sum(|q| q.cnot_reduction_pct),
            tvd_ideal: sum(|q| q.tvd_ideal),
            tvd_noisy: sum(|q| q.tvd_noisy),
        }
    }
}

/// Every violation of the gate for one compiled circuit: an error-severity
/// `check_result` finding, a sample whose actual distance exceeds its Σε
/// bound, a bound above the full threshold, a degraded run, or no samples.
pub fn violations(c: &Compiled<'_>) -> Vec<String> {
    let mut out = Vec::new();
    let r = c.result;
    if r.samples.is_empty() {
        out.push(format!("{}: no samples", c.name));
    }
    if r.degradation.any() {
        out.push(format!("{}: degraded run {:?}", c.name, r.degradation));
    }
    for f in quest::verify::check_result(c.circuit, r, c.config) {
        if f.severity == qlint::Severity::Error {
            out.push(format!("{}: {} — {}", c.name, f.lint, f.message));
        }
    }
    let threshold = c.config.full_threshold(r.blocks.len());
    for (i, (actual, bound)) in quest::bound::verify_bounds(c.circuit, &r.samples)
        .into_iter()
        .enumerate()
    {
        if actual > bound + BOUND_TOL {
            out.push(format!(
                "{}: sample {i} distance {actual} > bound {bound}",
                c.name
            ));
        }
        if bound > threshold {
            out.push(format!(
                "{}: sample {i} bound {bound} > threshold {threshold}",
                c.name
            ));
        }
    }
    out
}

/// Output quality of one compiled circuit.
pub fn quality(c: &Compiled<'_>) -> Quality {
    let ideal = quest::evaluate::ideal_distribution(c.circuit);
    let averaged = quest::evaluate::averaged_ideal_distribution(c.result);
    let mut rng = StdRng::seed_from_u64(NOISE_SEED);
    let noisy = quest::evaluate::averaged_noisy_distribution(
        c.result,
        &NoiseModel::pauli(NOISE_P2),
        NOISY_SHOTS,
        NOISY_TRAJECTORIES,
        &mut rng,
    );
    Quality {
        cnot_reduction_pct: c.result.cnot_reduction_percent(),
        tvd_ideal: qsim::tvd(&ideal, &averaged),
        tvd_noisy: qsim::tvd(&ideal, &noisy),
    }
}

/// Gates and scores every item, on two threads (the core count the
/// benchmark is calibrated for). Returns all violations, and each item's
/// quality in order.
pub fn gate(items: &[Compiled<'_>]) -> (Vec<String>, Vec<Quality>) {
    let per_item: Vec<(Vec<String>, Quality)> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|c| (violations(c), quality(c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread panicked"))
            .collect()
    });
    per_item.into_iter().fold(
        (Vec::new(), Vec::new()),
        |(mut violations, mut qualities), (v, q)| {
            violations.extend(v);
            qualities.push(q);
            (violations, qualities)
        },
    )
}

/// True when two results selected bit-identical samples.
pub fn same_samples(a: &QuestResult, b: &QuestResult) -> bool {
    a.samples.len() == b.samples.len()
        && a.samples.iter().zip(&b.samples).all(|(x, y)| {
            x.indices == y.indices
                && x.cnot_count == y.cnot_count
                && x.bound.to_bits() == y.bound.to_bits()
                && x.circuit == y.circuit
        })
}
