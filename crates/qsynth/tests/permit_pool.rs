//! The per-compile thread budget: a [`PermitPool`] never hands out more
//! permits than its size, permits come back when their holder unwinds, and
//! LEAP synthesis drawing helper threads from a shared pool returns the
//! same result as the serial search and leaves the pool full.

use qcircuit::Circuit;
use qsynth::permits::PermitPool;
use qsynth::{synthesize, synthesize_with, SynthesisConfig, SynthesisResult};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn concurrent_take_and_give_never_exceed_the_budget() {
    const BUDGET: usize = 3;
    let pool = PermitPool::new(BUDGET);
    // Permits held right now, counted by the holders themselves: raised
    // after a take and lowered before the guard drops, so it can only read
    // high if the pool handed out more than it has.
    let held = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..8 {
            let (pool, held, peak) = (&pool, &held, &peak);
            s.spawn(move || {
                for i in 0..4000 {
                    let mut permits = pool.take(1 + (t + i) % 4);
                    let n = permits.count();
                    let now = held.fetch_add(n, Ordering::SeqCst) + n;
                    peak.fetch_max(now, Ordering::SeqCst);
                    assert!(now <= BUDGET, "{now} permits held at once");
                    assert!(pool.in_use() <= BUDGET);
                    // Half the time, return one permit early through a split
                    // guard, as a thread handing its permit on would.
                    if i % 2 == 0 && n > 0 {
                        let one = permits.split(1);
                        held.fetch_sub(1, Ordering::SeqCst);
                        drop(one);
                        held.fetch_sub(n - 1, Ordering::SeqCst);
                    } else {
                        held.fetch_sub(n, Ordering::SeqCst);
                    }
                    drop(permits);
                }
            });
        }
    });
    assert_eq!(pool.in_use(), 0, "every permit came back");
    assert!(peak.load(Ordering::SeqCst) >= 2, "holders never overlapped");
}

#[test]
fn a_panicking_holder_returns_its_permits() {
    let pool = PermitPool::new(4);
    let outcome = std::thread::scope(|s| {
        s.spawn(|| {
            let mut permits = pool.take(3);
            let _helper = permits.split(1);
            assert_eq!(pool.in_use(), 3);
            panic!("holder dies with its permits");
        })
        .join()
    });
    assert!(outcome.is_err());
    assert_eq!(pool.in_use(), 0);
    assert_eq!(pool.take(4).count(), 4);
}

fn trotter_target() -> qmath::Matrix {
    let mut c = Circuit::new(3);
    c.cnot(0, 1)
        .rz(1, 0.2)
        .cnot(0, 1)
        .cnot(1, 2)
        .rz(2, 0.3)
        .cnot(1, 2);
    c.unitary()
}

fn vqe_target() -> qmath::Matrix {
    let mut c = Circuit::new(2);
    c.h(0)
        .cnot(0, 1)
        .rz(1, 0.35)
        .cnot(0, 1)
        .ry(0, 0.15)
        .ry(1, 0.25);
    c.unitary()
}

fn config(width: usize) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::approximate(0.1, 6);
    cfg.parallel_width = Some(width);
    cfg
}

fn assert_identical(a: &SynthesisResult, b: &SynthesisResult, label: &str) {
    assert_eq!(a.gradient_evals, b.gradient_evals, "{label}: evals");
    assert_eq!(a.layers_explored, b.layers_explored, "{label}: layers");
    assert_eq!(a.candidates.len(), b.candidates.len(), "{label}: count");
    for (x, y) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(x.circuit, y.circuit, "{label}: circuit");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{label}: distance"
        );
    }
}

#[test]
fn searches_sharing_a_pool_match_the_serial_search_and_return_every_permit() {
    let targets = [trotter_target(), vqe_target()];
    let serial: Vec<SynthesisResult> = targets.iter().map(|t| synthesize(t, &config(1))).collect();
    // Two searches run side by side, each on a thread holding one permit of
    // a 3-permit pool, so at most one extra helper exists at any moment
    // and which search gets it is a race.
    let pool = PermitPool::new(3);
    let shared: Vec<SynthesisResult> = std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter()
            .map(|t| {
                let own = pool.take(1);
                let pool = &pool;
                s.spawn(move || {
                    let result = synthesize_with(t, &config(4), pool);
                    drop(own);
                    result
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (a, b)) in serial.iter().zip(&shared).enumerate() {
        assert_identical(a, b, &format!("target {i}"));
    }
    assert_eq!(pool.in_use(), 0);

    // A pool with no free permit runs every layer on the calling thread.
    let full = PermitPool::new(1);
    let own = full.take(1);
    let starved = synthesize_with(&targets[0], &config(4), &full);
    drop(own);
    assert_identical(&serial[0], &starved, "no free permits");
    assert_eq!(full.in_use(), 0);
}
