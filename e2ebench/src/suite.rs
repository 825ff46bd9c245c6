//! `suite_cold` and `suite_warm`: the Table-1 suite compiled by one
//! closed-loop caller through `Quest::try_compile_observed`, into a
//! disk-backed `BlockCache`.

use crate::check::{self, Compiled, Quality};
use crate::stats::{self, Metrics};
use crate::trace::{StageClock, Trace};
use crate::{Opts, Outcome};
use qcircuit::Circuit;
use quest::{BlockCache, DiskCacheConfig, NoopObserver, Quest, QuestResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions on `suite_cold`, whose median is its `setup_s`.
/// The first carries the process's one-time costs.
const SETUP_REPS: usize = 15;

/// Concurrent closed-loop callers on `suite_warm`, one per core of the
/// calibration machine. With one caller, one core idles, and on a shared
/// host the run-to-run spread of the warm timings was nearly twice as wide
/// (0.14 against 0.08 in interleaved 4 s segments).
const WARM_CALLERS: usize = 2;

/// One suite circuit as a `quest-cli` run or a `questd` client reads it:
/// OpenQASM text, and the circuit parsed from that text.
pub struct Input {
    /// Table-1 name, e.g. `tfim_4`.
    pub name: String,
    /// The OpenQASM 2.0 source.
    pub qasm: String,
    /// The circuit parsed from `qasm`.
    pub circuit: Circuit,
}

/// The Table-1 suite without `mult_8`. One cold pass of `mult_8` alone
/// takes about 20 s on the 2-core machine the benchmark is calibrated on,
/// which does not fit the time the benchmark's runs are allowed.
pub fn inputs() -> Vec<Input> {
    qbench::suite()
        .into_iter()
        .filter(|b| b.name != "mult_8")
        .map(|b| {
            let qasm = qcircuit::qasm::emit(&b.circuit);
            let circuit = qcircuit::qasm::parse(&qasm).expect("emitted OpenQASM parses");
            Input {
                name: b.name,
                qasm,
                circuit,
            }
        })
        .collect()
}

/// A seeded permutation of `0..n`: the order one pass compiles the suite
/// in. The order changes no compile's work.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// Where the cache lives for one pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A fresh, empty cache directory per pass.
    Cold,
    /// A fresh `BlockCache` per compile over the directory set-up filled.
    Warm,
}

/// Per-pass layer counts read from public results (traced phase only).
#[derive(Clone, Copy, Default)]
struct PassCounts {
    gradient_evals: u64,
    blocks: usize,
    block_width_sum: usize,
    disk_hits: usize,
    disk_misses: usize,
    validation_failures: usize,
    anneal_evals: usize,
    anneal_accepted: usize,
    parallel_width: usize,
    disk_bytes: u64,
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    pass_walls: Vec<f64>,
    /// Compile seconds per circuit index, one entry per pass.
    times: Vec<Vec<f64>>,
    job_times: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Layer counts of one pass (traced phase only).
    counts: PassCounts,
    cpu_util: f64,
}

impl Phase {
    fn new(circuits: usize) -> Phase {
        Phase {
            times: vec![Vec::new(); circuits],
            ..Phase::default()
        }
    }
}

/// What one closed-loop caller's passes produced.
struct Caller {
    phase: Phase,
    violations: Vec<String>,
    trace: Option<Trace>,
    /// The results of the workload's first pass, which become the reference.
    first_pass: Option<Vec<QuestResult>>,
}

struct Suite {
    circuits: Vec<Input>,
    quest: Quest,
    dir: PathBuf,
    rng: StdRng,
    /// The verified results every later compile must reproduce.
    reference: Vec<QuestResult>,
    violations: Vec<String>,
}

impl Suite {
    fn new(opts: &Opts, name: &str) -> Suite {
        Suite {
            circuits: inputs(),
            quest: Quest::new(bench::harness_config()),
            dir: opts.work.join(format!("{name}-cache")),
            rng: StdRng::seed_from_u64(opts.seed),
            reference: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn open_cache(&self) -> BlockCache {
        BlockCache::with_disk(DiskCacheConfig::new(&self.dir)).expect("cache directory is writable")
    }

    fn compile(
        &self,
        circuit: &Circuit,
        cache: &BlockCache,
        clock: Option<&StageClock>,
    ) -> Result<QuestResult, quest::PipelineError> {
        match clock {
            Some(c) => self.quest.try_compile_observed(circuit, Some(cache), c),
            None => self
                .quest
                .try_compile_observed(circuit, Some(cache), &NoopObserver),
        }
    }

    /// Runs `callers` concurrent closed-loop callers for `seconds` and
    /// merges what they measured. The workload's first pass, made by a
    /// single caller, becomes the reference; every later compile must
    /// reproduce its samples.
    fn phase(
        &mut self,
        mode: Mode,
        callers: usize,
        seconds: f64,
        mut trace: Option<&mut Trace>,
    ) -> Phase {
        assert!(
            callers == 1 || (mode == Mode::Warm && !self.reference.is_empty()),
            "cold passes and the reference pass have one caller"
        );
        let seeds: Vec<u64> = (0..callers).map(|_| self.rng.random()).collect();
        let origin = trace.as_ref().map(|t| t.origin());
        let session = trace.is_some().then(qobs::metrics::session);
        let start = Instant::now();
        let cpu0 = stats::cpu_seconds();
        let this = &*self;
        let callers: Vec<Caller> = std::thread::scope(|s| {
            let handles: Vec<_> = (0u64..)
                .zip(seeds)
                .map(|(k, seed)| {
                    s.spawn(move || this.caller(mode, seconds, start, seed, origin, k))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut phase = Phase::new(self.circuits.len());
        phase.counts = callers[0].phase.counts;
        for c in callers {
            phase.pass_walls.extend(c.phase.pass_walls);
            for (all, mine) in phase.times.iter_mut().zip(c.phase.times) {
                all.extend(mine);
            }
            phase.job_times.extend(c.phase.job_times);
            phase.attempted += c.phase.attempted;
            phase.failed += c.phase.failed;
            self.violations.extend(c.violations);
            if let (Some(t), Some(mine)) = (trace.as_deref_mut(), c.trace) {
                t.append(mine);
            }
            if let Some(results) = c.first_pass {
                self.reference = results;
            }
        }
        if let Some(s) = session {
            // Every pass does the same synthesis work.
            let passes = phase.pass_walls.len() as u64;
            phase.counts.gradient_evals = counter(&s.snapshot(), "qsynth.gradient_evals") / passes;
        }
        phase.cpu_util = (stats::cpu_seconds() - cpu0) / (wall * stats::nproc() as f64);
        phase
    }

    /// One closed-loop caller: passes over the suite in seeded orders, at
    /// least one, and another while `start + seconds` has not passed.
    fn caller(
        &self,
        mode: Mode,
        seconds: f64,
        start: Instant,
        seed: u64,
        origin: Option<Instant>,
        index: u64,
    ) -> Caller {
        let n = self.circuits.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Caller {
            phase: Phase::new(n),
            violations: Vec::new(),
            trace: origin.map(Trace::new),
            first_pass: None,
        };
        let mut job_id = index << 32;
        while out.phase.pass_walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let order = shuffled(n, &mut rng);
            let first = self.reference.is_empty() && out.first_pass.is_none();
            let reference = out.first_pass.as_deref().unwrap_or(&self.reference);
            let mut results: Vec<Option<QuestResult>> = (0..n).map(|_| None).collect();
            if mode == Mode::Cold {
                reset_dir(&self.dir);
            }
            let mut counts = PassCounts::default();
            let pass_start = Instant::now();
            let pass_cache = (mode == Mode::Cold).then(|| self.open_cache());
            for &i in &order {
                let clock = out.trace.is_some().then(StageClock::start);
                let t0 = clock.as_ref().map_or_else(Instant::now, StageClock::origin);
                let warm_cache;
                let cache = match &pass_cache {
                    Some(c) => c,
                    None => {
                        warm_cache = self.open_cache();
                        &warm_cache
                    }
                };
                let outcome = self.compile(&self.circuits[i].circuit, cache, clock.as_ref());
                let end = Instant::now();
                let secs = end.duration_since(t0).as_secs_f64();
                out.phase.attempted += 1;
                out.phase.times[i].push(secs);
                out.phase.job_times.push(secs);
                job_id += 1;
                if let (Some(t), Some(c)) = (out.trace.as_mut(), clock.as_ref()) {
                    c.record(t, job_id, end);
                }
                let name = &self.circuits[i].name;
                let result = match outcome {
                    Ok(r) => r,
                    Err(e) if first => crate::fatal(&format!("{name}: compile failed: {e}")),
                    Err(e) => {
                        out.phase.failed += 1;
                        out.violations.push(format!("{name}: compile failed: {e}"));
                        continue;
                    }
                };
                let mut bad = Vec::new();
                if !first && !check::same_samples(&result, &reference[i]) {
                    bad.push(format!("{name}: samples differ from the reference pass"));
                }
                if mode == Mode::Warm
                    && (result.cache.disk_misses > 0 || result.cache.validation_failures > 0)
                {
                    bad.push(format!(
                        "{name}: warm compile missed the disk cache ({} misses, {} rejected)",
                        result.cache.disk_misses, result.cache.validation_failures
                    ));
                }
                if !bad.is_empty() {
                    out.phase.failed += 1;
                    out.violations.extend(bad);
                }
                counts.blocks += result.blocks.len();
                counts.block_width_sum +=
                    result.blocks.iter().map(|b| b.qubits.len()).sum::<usize>();
                counts.disk_hits += result.cache.disk_hits;
                counts.disk_misses += result.cache.disk_misses;
                counts.validation_failures += result.cache.validation_failures;
                counts.anneal_evals += result.selection_stats.evals;
                counts.anneal_accepted += result.selection_stats.accepted;
                counts.parallel_width = counts.parallel_width.max(result.parallel_width);
                results[i] = Some(result);
            }
            out.phase
                .pass_walls
                .push(pass_start.elapsed().as_secs_f64());
            if out.phase.pass_walls.len() == 1 {
                counts.disk_bytes = stats::dir_bytes(&self.dir);
                out.phase.counts = counts;
            }
            if first {
                out.first_pass = Some(results.into_iter().flatten().collect());
            }
        }
        out
    }

    /// One cold compile of the smallest circuit into a fresh, empty cache,
    /// so that the timed phase's first compile does not pay the process's
    /// one-time costs (first thread starts, heap growth).
    fn warm_up(&self) {
        reset_dir(&self.dir);
        let cache = self.open_cache();
        let smallest = self.circuits.iter().min_by_key(|i| i.circuit.len());
        if let Some(input) = smallest {
            if let Err(e) = self.compile(&input.circuit, &cache, None) {
                crate::fatal(&format!("{}: compile failed: {e}", input.name));
            }
        }
    }

    /// Gates the reference results; returns their mean quality.
    fn verify_reference(&mut self) -> Quality {
        let cfg = self.quest.config().clone();
        let items: Vec<Compiled<'_>> = self
            .circuits
            .iter()
            .zip(&self.reference)
            .map(|(b, r)| Compiled {
                name: &b.name,
                circuit: &b.circuit,
                config: &cfg,
                result: r,
            })
            .collect();
        let (violations, qualities) = check::gate(&items);
        self.violations.extend(violations);
        Quality::mean(&qualities)
    }

    /// The timed phase, then in a traced run the traced phase, then the
    /// gate and the metrics.
    fn run(mut self, mode: Mode, setup_s: f64, opts: &Opts) -> Outcome {
        let callers = if mode == Mode::Warm { WARM_CALLERS } else { 1 };
        let untraced = self.phase(mode, callers, opts.seconds, None);
        if !opts.trace {
            return self.finish(setup_s, &untraced, None);
        }
        let mut trace = Trace::new(Instant::now());
        let traced = self.phase(mode, callers, opts.seconds, Some(&mut trace));
        self.finish(setup_s, &untraced, Some((&traced, trace)))
    }

    fn finish(
        mut self,
        setup_s: f64,
        untraced: &Phase,
        traced: Option<(&Phase, Trace)>,
    ) -> Outcome {
        let quality = self.verify_reference();
        let mut metrics = Metrics::default();
        let mut trace_out = None;
        let mut attempted = untraced.attempted;
        let mut failed = untraced.failed;
        match traced {
            None => {
                metrics.put("setup_s", setup_s, "s");
                self.end_to_end(&mut metrics, untraced, quality);
            }
            Some((phase, trace)) => {
                attempted += phase.attempted;
                failed += phase.failed;
                self.per_layer(&mut metrics, untraced, phase, &trace);
                trace_out = Some(trace);
            }
        }
        std::fs::remove_dir_all(&self.dir).ok();
        Outcome {
            metrics,
            attempted,
            failed,
            violations: self.violations,
            trace: trace_out,
        }
    }

    fn end_to_end(&self, m: &mut Metrics, p: &Phase, q: Quality) {
        let per_circuit: Vec<f64> = p.times.iter().map(|t| stats::median(t)).collect();
        m.put("suite_s", stats::median(&p.pass_walls), "s");
        m.put("compile_geomean_s", stats::geomean(&per_circuit), "s");
        m.put("job_p50_s", stats::median(&p.job_times), "s");
        put_common(m, p.attempted, p.failed, q);
    }

    fn per_layer(&self, m: &mut Metrics, untraced: &Phase, p: &Phase, trace: &Trace) {
        let passes = p.pass_walls.len() as f64;
        let per_pass = |name: &str| trace.total(name) / passes;
        let c = p.counts;
        let partition = per_pass("quest.partition");
        let synthesis = per_pass("quest.synthesis");
        let selection = per_pass("quest.selection");
        let reassembly = per_pass("quest.reassembly");
        let walls = p.pass_walls.iter().sum::<f64>() / passes;
        m.put("qpartition.partition_s", partition, "s");
        m.put("qpartition.blocks", c.blocks as f64, "count");
        m.put(
            "qpartition.block_width_mean",
            c.block_width_sum as f64 / c.blocks.max(1) as f64,
            "qubits",
        );
        m.put("qsynth.synthesis_s", synthesis, "s");
        m.put("qsynth.gradient_evals", c.gradient_evals as f64, "count");
        m.put(
            "qsynth.grad_evals_per_s",
            c.gradient_evals as f64 / synthesis,
            "1/s",
        );
        m.put("proc.cpu_util", p.cpu_util, "ratio");
        for (b, t) in self.circuits.iter().zip(&p.times) {
            m.put(format!("suite.{}_s", b.name), stats::median(t), "s");
        }
        let warm = c.gradient_evals == 0;
        let load = if warm { synthesis } else { 0.0 };
        m.put("cache.load_s", load, "s");
        m.put(
            "cache.load_per_block_ms",
            1e3 * load / c.blocks.max(1) as f64,
            "ms",
        );
        m.put("cache.disk_hits", c.disk_hits as f64, "count");
        m.put("cache.disk_misses", c.disk_misses as f64, "count");
        m.put(
            "cache.validation_failures",
            c.validation_failures as f64,
            "count",
        );
        m.put("cache.disk_bytes", c.disk_bytes as f64, "bytes");
        m.put("qanneal.selection_s", selection, "s");
        m.put("qanneal.evals", c.anneal_evals as f64, "count");
        m.put(
            "qanneal.evals_per_s",
            c.anneal_evals as f64 / selection,
            "1/s",
        );
        m.put(
            "qanneal.acceptance_rate",
            c.anneal_accepted as f64 / c.anneal_evals.max(1) as f64,
            "ratio",
        );
        m.put("quest.reassembly_s", reassembly, "s");
        m.put("quest.parallel_width", c.parallel_width as f64, "threads");
        crate::put_job_p90(m, &untraced.job_times);
        crate::put_absent(m, &crate::SERVICE_LAYERS);
        crate::kernels::measure(m);
        m.put(
            "trace.overhead_ratio",
            stats::median(&p.pass_walls) / stats::median(&untraced.pass_walls),
            "ratio",
        );
        m.put(
            "trace.stage_coverage",
            (partition + synthesis + selection + reassembly) / walls,
            "ratio",
        );
    }
}

/// The `end_to_end` metrics every workload shares.
pub fn put_common(m: &mut Metrics, attempted: u64, failed: u64, q: Quality) {
    m.put(
        "job_ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    m.put("cnot_reduction_pct", q.cnot_reduction_pct, "%");
    m.put("output_tvd_ideal", q.tvd_ideal, "tvd");
    m.put("output_tvd_noisy", q.tvd_noisy, "tvd");
}

/// The summed value of counter `name` in a metrics snapshot.
pub fn counter(snapshot: &[qobs::metrics::Sample], name: &str) -> u64 {
    snapshot.iter().find(|s| s.name == name).map_or(0, |s| {
        #[allow(clippy::cast_possible_truncation)]
        let n = s.sum as u64;
        n
    })
}

fn reset_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("stale cache directory is removable");
    }
}

/// `suite_cold`: every pass compiles the suite into a fresh, empty
/// disk-backed cache, as a first `quest-cli` run does.
pub fn cold(opts: &Opts) -> Outcome {
    let mut suite = Suite::new(opts, "suite_cold");
    // Set-up reads the inputs, opens an empty cache and warms the process
    // with one small compile. It is short, so it is repeated and its median
    // reported.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            suite.circuits = inputs();
            suite.warm_up();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let setup_s = stats::median(&setups);
    suite.run(Mode::Cold, setup_s, opts)
}

/// `suite_warm`: set-up fills a cache directory with one cold pass; every
/// timed compile opens a fresh `BlockCache` over it, as a second process
/// would.
pub fn warm(opts: &Opts) -> Outcome {
    let mut suite = Suite::new(opts, "suite_warm");
    let t0 = Instant::now();
    suite.phase(Mode::Cold, 1, 0.0, None);
    let setup_s = t0.elapsed().as_secs_f64();
    suite.run(Mode::Warm, setup_s, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts later changes may cite as exact: gradient evaluations,
    /// annealing evaluations, blocks, disk hits and disk misses of one cold
    /// and one warm pass.
    fn exact_counts(tag: &str) -> [u64; 10] {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-{tag}-{}", std::process::id()));
        let mut suite = Suite {
            circuits: inputs()
                .into_iter()
                .filter(|i| i.name == "hlf_5" || i.name == "vqe_4")
                .collect(),
            quest: Quest::new(quest::QuestConfig::fast()),
            dir: dir.clone(),
            rng: StdRng::seed_from_u64(7),
            reference: Vec::new(),
            violations: Vec::new(),
        };
        suite.phase(Mode::Cold, 1, 0.0, None);
        let mut trace = Trace::new(Instant::now());
        let cold = suite.phase(Mode::Cold, 1, 0.0, Some(&mut trace)).counts;
        let warm = suite
            .phase(Mode::Warm, WARM_CALLERS, 0.0, Some(&mut trace))
            .counts;
        std::fs::remove_dir_all(&dir).ok();
        assert!(suite.violations.is_empty(), "{:?}", suite.violations);
        assert_eq!(warm.gradient_evals, 0, "warm pass synthesized");
        assert_eq!(warm.disk_misses, 0, "warm pass missed the disk cache");
        let row = |c: PassCounts| {
            [
                c.gradient_evals,
                c.anneal_evals as u64,
                c.blocks as u64,
                c.disk_hits as u64,
                c.disk_misses as u64,
            ]
        };
        let (a, b) = (row(cold), row(warm));
        [a[0], a[1], a[2], a[3], a[4], b[0], b[1], b[2], b[3], b[4]]
    }

    #[test]
    fn exact_counts_repeat_run_to_run() {
        let first = exact_counts("a");
        assert!(first[0] > 0, "cold pass did no synthesis");
        assert_eq!(first, exact_counts("b"));
    }
}
