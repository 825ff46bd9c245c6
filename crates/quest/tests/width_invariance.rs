//! One thread budget per compile: whatever the budget, and whether blocks
//! go through no cache, a memory cache or a cold disk cache, a compile
//! returns the same samples, menus, per-block synthesis evals, total
//! `qsynth.gradient_evals` and cache counters. Width only changes which
//! thread runs each block and each LEAP frontier job.

use qcircuit::Circuit;
use quest::{BlockCache, DiskCacheConfig, Quest, QuestConfig, QuestResult};
use std::path::PathBuf;

const WIDTHS: [usize; 4] = [1, 2, 3, 4];

/// Three identical Trotter steps, one block each: the cache turns the
/// second and third into memory hits.
fn repeated_steps() -> (Circuit, QuestConfig) {
    let mut c = Circuit::new(3);
    for _ in 0..3 {
        c.cnot(0, 1).rz(1, 0.3).cnot(0, 1);
        c.cnot(1, 2).rz(2, 0.3).cnot(1, 2);
        c.rx(0, 0.2).rx(1, 0.2).rx(2, 0.2);
    }
    let mut cfg = QuestConfig::fast().with_seed(5);
    cfg.max_block_gates = Some(9);
    (c, cfg)
}

/// A 3-qubit block with four CNOTs next to a 2-qubit block with one: the
/// cheap block's worker runs out of work long before the other search ends.
fn uneven_blocks() -> (Circuit, QuestConfig) {
    let mut c = Circuit::new(5);
    c.h(0).cnot(0, 1).rz(1, 0.4).cnot(1, 2).ry(2, 0.3);
    c.cnot(0, 1).rx(0, 0.5).cnot(1, 2).rz(2, 0.2);
    c.cnot(3, 4).rz(4, 0.1);
    (c, QuestConfig::fast().with_seed(9))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheMode {
    None,
    Memory,
    ColdDisk,
}

/// Everything a compile outputs that must not depend on its width.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Per sample: chosen indices, CNOTs, bound bits and the circuit.
    samples: Vec<(Vec<usize>, usize, u64, String)>,
    /// Per block: (CNOTs, distance bits, circuit) of every menu entry.
    menus: Vec<Vec<(usize, u64, String)>>,
    block_evals: Vec<usize>,
    gradient_evals: u64,
    /// hits, misses, disk hits, disk misses.
    cache: [usize; 4],
}

fn fingerprint(result: &QuestResult, gradient_evals: u64) -> Fingerprint {
    Fingerprint {
        samples: result
            .samples
            .iter()
            .map(|s| {
                (
                    s.indices.clone(),
                    s.cnot_count,
                    s.bound.to_bits(),
                    format!("{:?}", s.circuit),
                )
            })
            .collect(),
        menus: result
            .blocks
            .iter()
            .map(|b| {
                b.approximations
                    .iter()
                    .map(|a| {
                        (
                            a.cnot_count,
                            a.distance.to_bits(),
                            format!("{:?}", a.circuit),
                        )
                    })
                    .collect()
            })
            .collect(),
        block_evals: result.blocks.iter().map(|b| b.synthesis_evals).collect(),
        gradient_evals,
        cache: [
            result.cache.hits,
            result.cache.misses,
            result.cache.disk_hits,
            result.cache.disk_misses,
        ],
    }
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "quest_width_invariance_{}_{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compiles under an exclusive metrics session, so `qsynth.gradient_evals`
/// counts this compile alone (every compile in this file goes through
/// here, which also serializes them).
fn compile(circuit: &Circuit, cfg: &QuestConfig, mode: CacheMode, label: &str) -> Fingerprint {
    let dir = temp_dir(label);
    let cache = match mode {
        CacheMode::None => None,
        CacheMode::Memory => Some(BlockCache::new()),
        CacheMode::ColdDisk => {
            Some(BlockCache::with_disk(DiskCacheConfig::new(&dir)).expect("cache dir"))
        }
    };
    let session = qobs::metrics::session();
    let quest = Quest::new(cfg.clone());
    let result = match &cache {
        Some(cache) => quest.compile_with_cache(circuit, cache),
        None => quest.compile(circuit),
    };
    let evals = session
        .snapshot()
        .iter()
        .find(|s| s.name == "qsynth.gradient_evals")
        .map_or(0.0, |s| s.sum);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(result.parallel_width, cfg.parallel_width.unwrap_or(1));
    assert_eq!(result.degradation.degraded_blocks, 0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fingerprint(&result, evals as u64)
}

/// Compiles `circuit` at every width in every cache mode and checks that
/// nothing but the width changes. Returns the width-1 fingerprints.
fn assert_width_invariant(name: &str, circuit: &Circuit, base: &QuestConfig) -> Vec<Fingerprint> {
    let mut reference = Vec::new();
    for mode in [CacheMode::None, CacheMode::Memory, CacheMode::ColdDisk] {
        let mut first: Option<Fingerprint> = None;
        for width in WIDTHS {
            let mut cfg = base.clone();
            cfg.parallel = true;
            cfg.parallel_width = Some(width);
            let got = compile(circuit, &cfg, mode, &format!("{name}_{mode:?}_{width}"));
            match &first {
                None => first = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{name}: width {width} with {mode:?} cache differs from width 1"
                ),
            }
        }
        reference.extend(first);
    }
    // The cache never changes what is selected.
    for f in &reference[1..] {
        assert_eq!(f.samples, reference[0].samples, "{name}: cached samples");
        assert_eq!(f.menus, reference[0].menus, "{name}: cached menus");
    }
    reference
}

#[test]
fn repeated_trotter_steps_are_width_invariant() {
    let (circuit, cfg) = repeated_steps();
    let [uncached, memory, disk] =
        <[Fingerprint; 3]>::try_from(assert_width_invariant("repeated_steps", &circuit, &cfg))
            .expect("three cache modes");
    let blocks = uncached.menus.len();
    assert!(blocks >= 3, "expected one block per step, got {blocks}");
    // Uncached, every repeat is synthesized again; cached, only the first.
    assert!(memory.gradient_evals < uncached.gradient_evals);
    assert_eq!(memory.gradient_evals, disk.gradient_evals);
    let [hits, misses, _, _] = memory.cache;
    assert_eq!(hits + misses, blocks);
    assert!(hits >= 2, "repeats must be memory hits: {:?}", memory.cache);
    let [_, _, disk_hits, disk_misses] = disk.cache;
    assert_eq!((disk_hits, disk_misses), (0, misses));
}

#[test]
fn uneven_blocks_are_width_invariant() {
    let (circuit, cfg) = uneven_blocks();
    let [uncached, memory, disk] =
        <[Fingerprint; 3]>::try_from(assert_width_invariant("uneven_blocks", &circuit, &cfg))
            .expect("three cache modes");
    assert!(uncached.menus.len() >= 2);
    assert_eq!(uncached.gradient_evals, memory.gradient_evals);
    assert_eq!(memory.cache[0], 0, "no block repeats");
    assert_eq!(
        disk.cache[3],
        disk.menus.len(),
        "cold disk misses every block"
    );
    let evals = &uncached.block_evals;
    assert!(
        evals.iter().max() > evals.iter().min(),
        "blocks should differ in cost: {evals:?}"
    );
}
