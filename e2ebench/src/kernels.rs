//! Kernel-shape rows: the per-evaluation cost of `HsCost::cost_and_grad`
//! and the per-lane cost of `HsCost::cost_and_grad_batch` on fixed 3- and
//! 4-qubit templates, at the lane widths the SoA batching decision turns
//! on. Only the traced run measures these, so they never overlap an
//! end-to-end timing.

use crate::stats::{median, Metrics};
use qcircuit::Circuit;
use qsynth::cost::HsCost;
use qsynth::Template;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 7;
/// Gradient evaluations per timed repetition.
const EVALS: usize = 4000;

fn shape(qubits: usize) -> (Template, qmath::Matrix) {
    // 3 qubits × 3 CNOT layers and 4 qubits × 4 CNOT layers: the shapes of
    // the LEAP frontier at those widths.
    let pairs: &[(usize, usize)] = if qubits == 3 {
        &[(0, 1), (1, 2), (0, 2)]
    } else {
        &[(0, 1), (1, 2), (2, 3), (0, 2)]
    };
    let template = pairs
        .iter()
        .fold(Template::initial(qubits), |t, &(a, b)| t.with_layer(a, b));
    let mut c = Circuit::new(qubits);
    c.h(0);
    for q in 1..qubits {
        c.cnot(q - 1, q);
    }
    c.rz(qubits - 1, 0.4);
    (template, c.unitary())
}

/// Median nanoseconds per gradient evaluation of `run`, which performs
/// `evals_per_call` of them, after one untimed warm-up repetition.
fn ns_per_eval(evals_per_call: usize, mut run: impl FnMut()) -> f64 {
    let calls = EVALS / evals_per_call;
    let mut reps = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t0 = Instant::now();
        for _ in 0..calls {
            run();
        }
        let ns = t0.elapsed().as_nanos() as f64 / (calls * evals_per_call) as f64;
        if rep > 0 {
            reps.push(ns);
        }
    }
    median(&reps)
}

/// Records `qsynth.cost.grad_eval_ns.q{3,4}` and
/// `qsynth.cost.batched_grad_eval_ns.q{3,4}.w{2,8}`.
pub fn measure(out: &mut Metrics) {
    for qubits in [3usize, 4] {
        let (template, target) = shape(qubits);
        let cost = HsCost::new(&template, &target);
        let p = cost.num_params();
        let params: Vec<f64> = (0..p).map(|i| 0.1 * i as f64).collect();
        let mut ws = cost.workspace();
        let mut grad = vec![0.0; p];
        let serial = ns_per_eval(1, || {
            black_box(cost.cost_and_grad(&mut ws, black_box(&params), &mut grad));
        });
        out.put(format!("qsynth.cost.grad_eval_ns.q{qubits}"), serial, "ns");
        for lanes in [2usize, 8] {
            let mut bws = cost.batch_workspace(lanes);
            let xs: Vec<f64> = (0..p * lanes).map(|k| params[k / lanes]).collect();
            let mut costs = vec![0.0; lanes];
            let mut grads = vec![0.0; p * lanes];
            let per_lane = ns_per_eval(lanes, || {
                cost.cost_and_grad_batch(&mut bws, lanes, black_box(&xs), &mut costs, &mut grads);
                black_box(&grads);
            });
            out.put(
                format!("qsynth.cost.batched_grad_eval_ns.q{qubits}.w{lanes}"),
                per_lane,
                "ns",
            );
        }
    }
}
