//! Graceful-degradation integration tests: every fault the pipeline can
//! absorb — worker panics, NaN-poisoned optimizer starts, corrupt or flaky
//! cache entries, synthesis deadlines and budgets, annealing watchdog
//! timeouts — must still yield a *valid* [`QuestResult`] (qlint-clean,
//! bound-respecting, exact entries reachable), tally the event in
//! `QuestResult::degradation`, and turn into a hard error under
//! `QuestConfig::strict`. Clean runs must stay bit-deterministic and report
//! all-zero degradation.
//!
//! The injected-fault tests are gated on the `fault-injection` feature (run
//! them with `cargo test -p quest --features fault-injection`); the
//! deadline/budget/watchdog tests need no injection and always run.

// Exact float equality is deliberate: these tests assert bit-identical
// results from deterministic code paths.
#![allow(clippy::float_cmp)]

use qcircuit::Circuit;
use quest::{PipelineError, Quest, QuestConfig, QuestResult};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// A CNOT-heavy circuit with enough redundancy that approximations exist
/// and the partition yields multiple blocks.
fn fixture_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0);
    for _ in 0..2 {
        c.cnot(0, 1).rz(1, 0.2).cnot(0, 1);
        c.cnot(1, 2).rz(2, 0.2).cnot(1, 2);
    }
    c
}

fn quest() -> Quest {
    Quest::new(QuestConfig::fast().with_seed(41))
}

/// Serializes tests around the process-global fault registry: the guard
/// disarms everything on acquisition *and* on drop, so armed faults can
/// never leak between tests (or in from a stray `QFAULT` environment).
/// Without the `fault-injection` feature `disarm_all` is a no-op stub and
/// this is just a mutex.
fn serial() -> impl Drop {
    static LOCK: Mutex<()> = Mutex::new(());
    struct Guard {
        _lock: std::sync::MutexGuard<'static, ()>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            qfault::disarm_all();
        }
    }
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    qfault::disarm_all();
    Guard { _lock: guard }
}

/// Every structural validity property a degraded result must still satisfy:
/// at least one sample, every sample within the Σε threshold, every block
/// menu containing the exact (distance-0) original, and — via qlint — the
/// `cnot-accounting` and `hs-bound-budget` lints on the pipeline's own
/// claims.
fn assert_valid_and_lint_clean(circuit: &Circuit, result: &QuestResult, cfg: &QuestConfig) {
    assert!(!result.samples.is_empty(), "no samples selected");
    for s in &result.samples {
        assert!(s.bound <= result.threshold + 1e-12, "bound breached");
    }
    for b in &result.blocks {
        assert!(
            b.approximations
                .iter()
                .any(|a| a.distance == 0.0 && a.cnot_count == b.original_cnots),
            "exact original missing from block menu"
        );
    }
    let mut ctx = qlint::LintContext::for_circuit(circuit).with_budget(qlint::BudgetReport {
        epsilon_per_block: cfg.epsilon_per_block,
        threshold: result.threshold,
        num_blocks: result.blocks.len(),
        samples: result
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| qlint::SampleBudget {
                label: format!("sample {i}"),
                block_distances: s
                    .indices
                    .iter()
                    .zip(&result.blocks)
                    .map(|(&idx, b)| b.approximations[idx].distance)
                    .collect(),
                claimed_bound: s.bound,
            })
            .collect(),
    });
    for (i, s) in result.samples.iter().enumerate() {
        ctx = ctx.with_cnot_claim(qlint::CnotClaim {
            label: format!("sample {i}"),
            claimed: s.cnot_count,
            instructions: s.circuit.instructions().to_vec(),
        });
    }
    let findings = qlint::lint(&ctx);
    assert!(
        !qlint::has_errors(&findings),
        "qlint rejects degraded output: {findings:?}"
    );
}

fn assert_same_samples(a: &QuestResult, b: &QuestResult) {
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.indices, y.indices);
        assert_eq!(x.circuit, y.circuit);
    }
}

// ---------------------------------------------------------------------------
// Always-on tests: deadlines, budgets, watchdog, strict mode, clean-run
// determinism. These exercise the degradation machinery without any
// injected fault.
// ---------------------------------------------------------------------------

#[test]
fn clean_runs_are_deterministic_with_zero_degradation() {
    let _guard = serial();
    let circuit = fixture_circuit();
    let a = quest().compile(&circuit);
    let b = quest().compile(&circuit);
    assert_same_samples(&a, &b);
    assert!(
        !a.degradation.any(),
        "clean run reported degradation: {}",
        a.degradation
    );
    assert!(a.blocks.iter().all(|blk| !blk.degraded));
}

#[test]
fn zero_block_deadline_degrades_every_block_to_exact() {
    let _guard = serial();
    let circuit = fixture_circuit();
    let mut cfg = QuestConfig::fast().with_seed(41);
    cfg.block_deadline = Some(Duration::from_nanos(1));
    let result = Quest::new(cfg.clone()).compile(&circuit);
    assert_eq!(result.degradation.degraded_blocks, result.blocks.len());
    for b in &result.blocks {
        assert!(b.degraded);
        assert_eq!(b.approximations.len(), 1, "menu must collapse to exact");
        assert_eq!(b.approximations[0].distance, 0.0);
        assert_eq!(b.approximations[0].cnot_count, b.original_cnots);
    }
    // Exact-only menus admit exactly the baseline circuit.
    assert_valid_and_lint_clean(&circuit, &result, &cfg);
    assert_eq!(result.samples[0].circuit.cnot_count(), circuit.cnot_count());
}

#[test]
fn gradient_eval_budget_degrades_deterministically() {
    let _guard = serial();
    let circuit = fixture_circuit();
    let mut cfg = QuestConfig::fast().with_seed(41);
    cfg.max_gradient_evals = Some(1);
    let q = Quest::new(cfg.clone());
    let a = q.compile(&circuit);
    assert_eq!(a.degradation.degraded_blocks, a.blocks.len());
    assert_valid_and_lint_clean(&circuit, &a, &cfg);
    // Budget checks happen only at (deterministic) layer boundaries, so the
    // degraded result itself is reproducible.
    let b = q.compile(&circuit);
    assert_same_samples(&a, &b);
    assert_eq!(a.degradation, b.degradation);
}

#[test]
fn anneal_watchdog_returns_best_so_far() {
    let _guard = serial();
    let circuit = fixture_circuit();
    let mut cfg = QuestConfig::fast().with_seed(41);
    cfg.anneal.deadline = Some(Duration::from_nanos(1));
    let result = Quest::new(cfg.clone()).compile(&circuit);
    assert!(
        result.degradation.anneal_timeouts > 0,
        "watchdog never fired"
    );
    assert_eq!(
        result.selection_stats.timeouts,
        result.degradation.anneal_timeouts
    );
    assert_valid_and_lint_clean(&circuit, &result, &cfg);
}

#[test]
fn strict_mode_turns_degradation_into_an_error() {
    let _guard = serial();
    let circuit = fixture_circuit();
    let mut cfg = QuestConfig::fast().with_seed(41);
    cfg.block_deadline = Some(Duration::from_nanos(1));
    cfg.strict = true;
    match Quest::new(cfg).try_compile(&circuit) {
        Err(PipelineError::StrictDegradation(stats)) => {
            assert!(stats.degraded_blocks > 0);
        }
        other => panic!("expected StrictDegradation, got {other:?}"),
    }
    // A clean strict run still succeeds.
    let mut clean = QuestConfig::fast().with_seed(41);
    clean.strict = true;
    let result = Quest::new(clean)
        .try_compile(&circuit)
        .expect("clean strict run must succeed");
    assert!(!result.degradation.any());
}

#[test]
fn empty_circuit_is_a_structured_error() {
    let _guard = serial();
    match quest().try_compile(&Circuit::new(2)) {
        Err(PipelineError::EmptyCircuit) => {}
        other => panic!("expected EmptyCircuit, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Injected-fault tests (feature-gated): worker panics, NaN costs, cache
// corruption, flaky reads.
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use quest::{BlockCache, DiskCacheConfig};
    use std::path::PathBuf;

    fn temp_cache_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("quest_degradation_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn single_worker_panic_recovers_bit_identically() {
        let _guard = serial();
        let circuit = fixture_circuit();
        let clean = quest().compile(&circuit);

        qfault::arm_spec("quest.block_worker=panic").expect("spec parses");
        let faulted = quest().compile(&circuit);
        assert!(
            qfault::fired_at("quest.block_worker") > 0,
            "fault armed but never fired"
        );
        qfault::disarm_all();

        // One panic, one serial retry, bit-identical output: the fault is
        // recorded but nothing is degraded.
        assert_eq!(faulted.degradation.recovered_panics, 1);
        assert_eq!(faulted.degradation.degraded_blocks, 0);
        assert_same_samples(&clean, &faulted);
    }

    #[test]
    fn persistent_worker_panic_degrades_to_exact() {
        let _guard = serial();
        let circuit = fixture_circuit();
        let cfg = QuestConfig::fast().with_seed(41);

        qfault::arm_spec("quest.block_worker=panic@*").expect("spec parses");
        let result = Quest::new(cfg.clone()).compile(&circuit);
        qfault::disarm_all();

        // Every block's worker (and its retry) panicked: all blocks fall
        // back to the exact entry and the result is still valid.
        assert_eq!(result.degradation.degraded_blocks, result.blocks.len());
        for b in &result.blocks {
            assert!(b.degraded);
            assert_eq!(b.approximations.len(), 1);
            assert_eq!(b.approximations[0].distance, 0.0);
        }
        assert_valid_and_lint_clean(&circuit, &result, &cfg);
    }

    #[test]
    fn nan_cost_burns_a_fresh_seed_and_recovers() {
        let _guard = serial();
        let circuit = fixture_circuit();

        qfault::arm_spec("qsynth.cost=nan").expect("spec parses");
        let result = quest().compile(&circuit);
        qfault::disarm_all();

        assert!(
            result.degradation.poisoned_starts > 0,
            "poisoned start not recorded"
        );
        assert_valid_and_lint_clean(&circuit, &result, quest().config());
    }

    #[test]
    fn nan_cost_in_strict_mode_is_an_error() {
        let _guard = serial();
        let circuit = fixture_circuit();
        let mut cfg = QuestConfig::fast().with_seed(41);
        cfg.strict = true;

        qfault::arm_spec("qsynth.cost=nan").expect("spec parses");
        let outcome = Quest::new(cfg).try_compile(&circuit);
        qfault::disarm_all();

        match outcome {
            Err(PipelineError::StrictDegradation(stats)) => {
                assert!(stats.poisoned_starts > 0);
            }
            other => panic!("expected StrictDegradation, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_disk_entry_degrades_to_fresh_synthesis() {
        let _guard = serial();
        let circuit = fixture_circuit();
        let dir = temp_cache_dir("corrupt");

        // Populate the disk tier, then force the next run to re-read it.
        let cold = BlockCache::with_disk(DiskCacheConfig::new(&dir)).unwrap();
        let clean = quest().compile_with_cache(&circuit, &cold);
        drop(cold);

        qfault::arm_spec("quest.cache.entry=corrupt@*").expect("spec parses");
        let warm = BlockCache::with_disk(DiskCacheConfig::new(&dir)).unwrap();
        let result = quest().compile_with_cache(&circuit, &warm);
        qfault::disarm_all();

        // Every disk read came back corrupted → validation rejected it →
        // fresh synthesis reproduced the menus bit-identically.
        assert!(warm.validation_failures() > 0, "corruption went unnoticed");
        assert_same_samples(&clean, &result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_disk_read_retries_and_recovers() {
        let _guard = serial();
        let circuit = fixture_circuit();
        let dir = temp_cache_dir("flaky");

        let cold = BlockCache::with_disk(DiskCacheConfig::new(&dir)).unwrap();
        let clean = quest().compile_with_cache(&circuit, &cold);
        drop(cold);

        // First read attempt fails; the bounded-backoff retry succeeds.
        qfault::arm_spec("quest.cache.read=io").expect("spec parses");
        let warm = BlockCache::with_disk(DiskCacheConfig::new(&dir)).unwrap();
        let result = quest().compile_with_cache(&circuit, &warm);
        qfault::disarm_all();

        assert!(result.degradation.cache_retries > 0, "retry not recorded");
        assert_eq!(result.cache.io_retries, result.degradation.cache_retries);
        // The retried read served the real entry: warm == cold, and the
        // cache skipped all synthesis.
        assert!(warm.disk_hits() > 0);
        assert_same_samples(&clean, &result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_panic_under_a_shared_budget_recovers_and_returns_permits() {
        let _guard = serial();
        let circuit = fixture_circuit();
        for width in [2, 3] {
            let mut cfg = QuestConfig::fast().with_seed(41);
            cfg.parallel_width = Some(width);
            let quest = Quest::new(cfg);
            let clean = quest.compile(&circuit);
            for cached in [false, true] {
                let cache = BlockCache::new();
                qfault::arm_spec("quest.block_worker=panic").expect("spec parses");
                // Test builds keep debug assertions, under which the pipeline
                // checks after synthesis that every permit of the compile's
                // pool came back: a permit lost on the panic path fails the
                // compile itself.
                let faulted = if cached {
                    quest.compile_with_cache(&circuit, &cache)
                } else {
                    quest.compile(&circuit)
                };
                assert!(qfault::fired_at("quest.block_worker") > 0);
                qfault::disarm_all();
                assert_eq!(faulted.degradation.recovered_panics, 1, "width {width}");
                assert_eq!(faulted.degradation.degraded_blocks, 0);
                assert_eq!(faulted.parallel_width, width);
                assert_same_samples(&clean, &faulted);
            }
        }
    }

    #[test]
    fn feature_on_but_disarmed_is_bit_identical_to_clean() {
        let _guard = serial();
        // The whole harness must be invisible while nothing is armed — the
        // compiled-in sites may not perturb results.
        let circuit = fixture_circuit();
        let a = quest().compile(&circuit);
        let b = quest().compile(&circuit);
        assert_same_samples(&a, &b);
        assert!(!a.degradation.any());
        assert_eq!(qfault::fired(), 0);
    }
}
