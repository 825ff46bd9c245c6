//! Compilation reports: human-readable text and the machine-readable
//! [`RunReport`].
//!
//! [`render`] produces the terminal summary the CLI prints. [`RunReport`] is
//! the structured counterpart — the JSON contract `quest-cli --report`
//! writes and every perf/robustness experiment reads back (the schema is
//! documented field-by-field on the struct and in DESIGN.md §Observability).
//! The successor paper ("Application Scale Quantum Circuit Compilation with
//! Controlled Error") and QGo both report per-block synthesis statistics as
//! first-class outputs; `RunReport.blocks` is that table for this pipeline.

use crate::pipeline::QuestResult;
use crate::Quest;
use qcircuit::Circuit;
use qobs::json::Json;
use qobs::metrics::Sample;
use std::fmt::Write as _;

/// Renders a multi-line text report of a [`QuestResult`]: per-sample CNOT
/// counts and bounds, stage timings, and block statistics. Used by the CLI
/// and handy in examples.
///
/// ```no_run
/// # use quest::{Quest, QuestConfig};
/// # let circuit = qcircuit::Circuit::new(2);
/// let result = Quest::new(QuestConfig::fast()).compile(&circuit);
/// println!("{}", quest::report::render(&result));
/// ```
pub fn render(result: &QuestResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "QUEST result: {} sample(s), original {} CNOTs, threshold {:.3}",
        result.samples.len(),
        result.original_cnots,
        result.threshold
    );
    let _ = writeln!(
        out,
        "blocks: {} (approximations per block: {})",
        result.blocks.len(),
        result
            .blocks
            .iter()
            .map(|b| b.approximations.len().to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    for (i, s) in result.samples.iter().enumerate() {
        let _ = writeln!(
            out,
            "  sample {i}: {} CNOTs ({:+.1}% vs baseline), Σε bound {:.4}",
            s.cnot_count,
            100.0 * (s.cnot_count as f64 / result.original_cnots.max(1) as f64 - 1.0),
            s.bound
        );
    }
    let t = result.timings;
    let _ = writeln!(
        out,
        "timings: partition {:.3?}, synthesis {:.3?}, annealing {:.3?} (total {:.3?})",
        t.partition,
        t.synthesis,
        t.annealing,
        t.total()
    );
    let c = &result.cache;
    if c.hits + c.misses > 0 {
        let _ = writeln!(
            out,
            "cache: {} memory hit(s), {} disk hit(s), {} miss(es) ({:.0}% hit rate); \
             {} eviction(s), {} validation failure(s)",
            c.hits,
            c.disk_hits,
            c.misses.saturating_sub(c.disk_hits),
            100.0 * c.hit_rate(),
            c.evictions,
            c.validation_failures
        );
    }
    let d = &result.degradation;
    if d.any() {
        let _ = writeln!(out, "degradation: {d}");
    }
    out
}

/// Current [`RunReport`] JSON schema version.
///
/// This table is the authoritative schema history (DESIGN.md §4d defers to
/// it). [`RunReport::from_json`] accepts every listed version: fields a
/// document predates default to zero / empty, so older reports parse
/// loss-lessly into the current struct.
///
/// | Version | Added over the previous version |
/// |---|---|
/// | 1 | baseline: `input`, `config`, `parallel_width`, `blocks` (per-block menus, best-within-ε, synthesis evals), `samples` (indices, cnots, Σε bound), `timings`, `cache` {`hits`, `misses`, `hit_rate`}, `anneal` {`runs`, `evals`, `accepted`, `acceptance_rate`, `restarts`}, optional `metrics` snapshot |
/// | 2 | disk cache tier: `cache.disk_hits`, `cache.disk_misses`, `cache.evictions`, `cache.validation_failures` |
/// | 3 | graceful degradation: the `degradation` section (`degraded_blocks`, `poisoned_starts`, `recovered_panics`, `cache_retries`, `anneal_timeouts`), `cache.io_retries`, `anneal.timeouts` |
///
/// Emitted documents always carry the current version; acceptance of old
/// versions is pinned by `schema_v2_documents_still_parse` below and the
/// round-trip tests in `crates/quest/tests/run_report.rs`.
pub const RUN_REPORT_SCHEMA_VERSION: u64 = 3;

/// Shape of the input circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct InputReport {
    /// Qubit count.
    pub qubits: usize,
    /// Total gate count.
    pub gates: usize,
    /// CNOT count (CZ = 1, SWAP = 3, as everywhere in the workspace).
    pub cnots: usize,
}

/// The configuration knobs that shaped this run (enough to interpret the
/// numbers; not a full config echo).
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigReport {
    /// Per-block HS-distance threshold ε.
    pub epsilon_per_block: f64,
    /// Partition width budget.
    pub block_size: usize,
    /// Max samples M.
    pub max_samples: usize,
    /// Objective weight on normalized CNOT count.
    pub cnot_weight: f64,
    /// Selection strategy name (`dissimilar` / `random` / `min-cnot-only`).
    pub selection: String,
    /// Master seed.
    pub seed: u64,
}

/// One approximation in a block's menu.
#[derive(Clone, Debug, PartialEq)]
pub struct MenuEntryReport {
    /// CNOT count of the approximation.
    pub cnots: usize,
    /// HS process distance to the block's original unitary.
    pub distance: f64,
}

/// Per-block synthesis telemetry (the QGo-style per-block table).
#[derive(Clone, Debug, PartialEq)]
pub struct BlockReport {
    /// Block index in program order.
    pub index: usize,
    /// Global qubits the block acts on.
    pub qubits: Vec<usize>,
    /// CNOT count of the original block body.
    pub original_cnots: usize,
    /// The approximation menu as (CNOTs, distance) pairs, including the
    /// exact original at distance 0.
    pub menu: Vec<MenuEntryReport>,
    /// Fewest CNOTs among menu entries within ε (the per-block win).
    pub best_cnots_within_epsilon: usize,
    /// Gradient evaluations spent synthesizing this block.
    pub synthesis_evals: usize,
}

/// One selected full-circuit approximation.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleReport {
    /// Chosen approximation index per block.
    pub indices: Vec<usize>,
    /// Total CNOT count of the reassembled circuit.
    pub cnots: usize,
    /// Σε upper bound on the process distance to the original (Sec. 3.8).
    pub bound: f64,
}

/// Stage wall-times in seconds (the paper's Fig. 12 breakdown).
#[derive(Clone, Debug, PartialEq)]
pub struct TimingsReport {
    /// Partitioning.
    pub partition_seconds: f64,
    /// Approximate synthesis (all blocks).
    pub synthesis_seconds: f64,
    /// Dual-annealing selection.
    pub annealing_seconds: f64,
    /// Sum of the stages.
    pub total_seconds: f64,
}

/// Block-cache activity for this run (memory + disk tiers).
#[derive(Clone, Debug, PartialEq)]
pub struct CacheReport {
    /// Lookups served from the in-memory tier.
    pub hits: usize,
    /// Lookups that missed the in-memory tier.
    pub misses: usize,
    /// Memory misses served from the on-disk tier (schema v2+).
    pub disk_hits: usize,
    /// Memory misses that also missed disk and ran fresh synthesis
    /// (schema v2+).
    pub disk_misses: usize,
    /// Disk entries evicted by the LRU size cap during this run
    /// (schema v2+).
    pub evictions: usize,
    /// Disk entries rejected by validation-on-load — corruption, schema
    /// skew, or a stale fingerprint (schema v2+).
    pub validation_failures: usize,
    /// Transient disk-read failures retried with bounded backoff
    /// (schema v3+).
    pub io_retries: usize,
    /// `(hits + disk_hits) / lookups`, 0 when uncached.
    pub hit_rate: f64,
}

/// Aggregate dual-annealing statistics for the selection stage.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnealReport {
    /// Annealing runs launched (including per-round retries).
    pub runs: usize,
    /// Objective evaluations across all runs.
    pub evals: usize,
    /// Accepted moves across all runs.
    pub accepted: usize,
    /// `accepted / evals`, 0 when nothing ran.
    pub acceptance_rate: f64,
    /// Temperature-collapse restarts across all runs.
    pub restarts: usize,
    /// Runs cut short by the watchdog deadline (schema v3+).
    pub timeouts: usize,
}

/// Graceful-degradation tally for the run (schema v3+; all-zero for clean
/// runs and for v1/v2 documents). Mirrors [`crate::DegradationStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Blocks degraded to their exact (distance-0) menu entry.
    pub degraded_blocks: usize,
    /// Optimizer starts redrawn after non-finite costs or panics.
    pub poisoned_starts: usize,
    /// Block workers that panicked and were recovered by the serial retry.
    pub recovered_panics: usize,
    /// Disk-cache reads retried with bounded backoff.
    pub cache_retries: usize,
    /// Annealing runs cut short by the watchdog deadline.
    pub anneal_timeouts: usize,
}

/// One metric from the [`qobs::metrics`] registry, as captured at report
/// time.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricReport {
    /// Dot-separated metric name.
    pub name: String,
    /// `counter` / `gauge` / `histogram`.
    pub kind: String,
    /// Number of recordings.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Most recent recorded value.
    pub last: f64,
}

/// The machine-readable run report — the JSON contract of
/// `quest-cli --report` and the figure harnesses.
///
/// Serialization is via [`RunReport::to_json`] / [`RunReport::from_json`];
/// both preserve every field exactly (floats use shortest-roundtrip
/// formatting), so `from_json(parse(to_json()))` is the identity.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Schema version ([`RUN_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Shape of the input circuit.
    pub input: InputReport,
    /// Run-shaping configuration echo.
    pub config: ConfigReport,
    /// The synthesis stage's thread budget: the most synthesis threads that
    /// could run at once.
    pub parallel_width: usize,
    /// Per-block synthesis telemetry, in program order.
    pub blocks: Vec<BlockReport>,
    /// Selected approximations, in selection order.
    pub samples: Vec<SampleReport>,
    /// Stage wall-times.
    pub timings: TimingsReport,
    /// Block-cache activity.
    pub cache: CacheReport,
    /// Selection-stage annealing statistics.
    pub anneal: AnnealReport,
    /// Graceful-degradation tally (schema v3+; zeros for older documents).
    pub degradation: DegradationReport,
    /// Optional [`qobs::metrics`] snapshot taken with the run (empty when
    /// metrics collection was off).
    pub metrics: Vec<MetricReport>,
}

impl RunReport {
    /// Builds a report from a finished compilation.
    ///
    /// `circuit` must be the circuit `result` was compiled from. Attach a
    /// metrics snapshot with [`RunReport::with_metrics`] afterwards if one
    /// was collected.
    pub fn new(quest: &Quest, circuit: &Circuit, result: &QuestResult) -> RunReport {
        let cfg = quest.config();
        let strategy = match cfg.selection {
            crate::config::SelectionStrategy::Dissimilar => "dissimilar",
            crate::config::SelectionStrategy::Random => "random",
            crate::config::SelectionStrategy::MinCnotOnly => "min-cnot-only",
        };
        let blocks = result
            .blocks
            .iter()
            .enumerate()
            .map(|(index, b)| BlockReport {
                index,
                qubits: b.qubits.clone(),
                original_cnots: b.original_cnots,
                menu: b
                    .approximations
                    .iter()
                    .map(|a| MenuEntryReport {
                        cnots: a.cnot_count,
                        distance: a.distance,
                    })
                    .collect(),
                best_cnots_within_epsilon: b
                    .approximations
                    .iter()
                    .filter(|a| a.distance <= cfg.epsilon_per_block)
                    .map(|a| a.cnot_count)
                    .min()
                    .unwrap_or(b.original_cnots),
                synthesis_evals: b.synthesis_evals,
            })
            .collect();
        let samples = result
            .samples
            .iter()
            .map(|s| SampleReport {
                indices: s.indices.clone(),
                cnots: s.cnot_count,
                bound: s.bound,
            })
            .collect();
        let t = result.timings;
        RunReport {
            schema_version: RUN_REPORT_SCHEMA_VERSION,
            input: InputReport {
                qubits: circuit.num_qubits(),
                gates: circuit.len(),
                cnots: circuit.cnot_count(),
            },
            config: ConfigReport {
                epsilon_per_block: cfg.epsilon_per_block,
                block_size: cfg.block_size,
                max_samples: cfg.max_samples,
                cnot_weight: cfg.cnot_weight,
                selection: strategy.to_string(),
                seed: cfg.seed,
            },
            parallel_width: result.parallel_width,
            blocks,
            samples,
            timings: TimingsReport {
                partition_seconds: t.partition.as_secs_f64(),
                synthesis_seconds: t.synthesis.as_secs_f64(),
                annealing_seconds: t.annealing.as_secs_f64(),
                total_seconds: t.total().as_secs_f64(),
            },
            cache: CacheReport {
                hits: result.cache.hits,
                misses: result.cache.misses,
                disk_hits: result.cache.disk_hits,
                disk_misses: result.cache.disk_misses,
                evictions: result.cache.evictions,
                validation_failures: result.cache.validation_failures,
                io_retries: result.cache.io_retries,
                hit_rate: result.cache.hit_rate(),
            },
            anneal: AnnealReport {
                runs: result.selection_stats.anneal_runs,
                evals: result.selection_stats.evals,
                accepted: result.selection_stats.accepted,
                acceptance_rate: result.selection_stats.acceptance_rate(),
                restarts: result.selection_stats.restarts,
                timeouts: result.selection_stats.timeouts,
            },
            degradation: DegradationReport {
                degraded_blocks: result.degradation.degraded_blocks,
                poisoned_starts: result.degradation.poisoned_starts,
                recovered_panics: result.degradation.recovered_panics,
                cache_retries: result.degradation.cache_retries,
                anneal_timeouts: result.degradation.anneal_timeouts,
            },
            metrics: Vec::new(),
        }
    }

    /// Attaches a [`qobs::metrics`] snapshot (builder style).
    #[must_use]
    pub fn with_metrics(mut self, samples: &[Sample]) -> RunReport {
        self.metrics = samples
            .iter()
            .map(|s| MetricReport {
                name: s.name.clone(),
                kind: s.kind.as_str().to_string(),
                count: s.count,
                sum: s.sum,
                min: s.min,
                max: s.max,
                last: s.last,
            })
            .collect();
        self
    }

    /// Mean CNOT count over the selected samples.
    pub fn mean_sample_cnots(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.samples.iter().map(|s| s.cnots as f64).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The report as a JSON document (ordered, deterministic).
    pub fn to_json(&self) -> Json {
        let obj = |members: Vec<(&str, Json)>| {
            Json::Object(
                members
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let usize_arr = |v: &[usize]| Json::Array(v.iter().map(|&x| Json::from(x)).collect());
        obj(vec![
            ("schema_version", Json::from(self.schema_version)),
            (
                "input",
                obj(vec![
                    ("qubits", Json::from(self.input.qubits)),
                    ("gates", Json::from(self.input.gates)),
                    ("cnots", Json::from(self.input.cnots)),
                ]),
            ),
            (
                "config",
                obj(vec![
                    (
                        "epsilon_per_block",
                        Json::from(self.config.epsilon_per_block),
                    ),
                    ("block_size", Json::from(self.config.block_size)),
                    ("max_samples", Json::from(self.config.max_samples)),
                    ("cnot_weight", Json::from(self.config.cnot_weight)),
                    ("selection", Json::from(self.config.selection.clone())),
                    ("seed", Json::from(self.config.seed)),
                ]),
            ),
            ("parallel_width", Json::from(self.parallel_width)),
            (
                "blocks",
                Json::Array(
                    self.blocks
                        .iter()
                        .map(|b| {
                            obj(vec![
                                ("index", Json::from(b.index)),
                                ("qubits", usize_arr(&b.qubits)),
                                ("original_cnots", Json::from(b.original_cnots)),
                                (
                                    "menu",
                                    Json::Array(
                                        b.menu
                                            .iter()
                                            .map(|m| {
                                                obj(vec![
                                                    ("cnots", Json::from(m.cnots)),
                                                    ("distance", Json::from(m.distance)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "best_cnots_within_epsilon",
                                    Json::from(b.best_cnots_within_epsilon),
                                ),
                                ("synthesis_evals", Json::from(b.synthesis_evals)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::Array(
                    self.samples
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("indices", usize_arr(&s.indices)),
                                ("cnots", Json::from(s.cnots)),
                                ("bound", Json::from(s.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "timings",
                obj(vec![
                    (
                        "partition_seconds",
                        Json::from(self.timings.partition_seconds),
                    ),
                    (
                        "synthesis_seconds",
                        Json::from(self.timings.synthesis_seconds),
                    ),
                    (
                        "annealing_seconds",
                        Json::from(self.timings.annealing_seconds),
                    ),
                    ("total_seconds", Json::from(self.timings.total_seconds)),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", Json::from(self.cache.hits)),
                    ("misses", Json::from(self.cache.misses)),
                    ("disk_hits", Json::from(self.cache.disk_hits)),
                    ("disk_misses", Json::from(self.cache.disk_misses)),
                    ("evictions", Json::from(self.cache.evictions)),
                    (
                        "validation_failures",
                        Json::from(self.cache.validation_failures),
                    ),
                    ("io_retries", Json::from(self.cache.io_retries)),
                    ("hit_rate", Json::from(self.cache.hit_rate)),
                ]),
            ),
            (
                "anneal",
                obj(vec![
                    ("runs", Json::from(self.anneal.runs)),
                    ("evals", Json::from(self.anneal.evals)),
                    ("accepted", Json::from(self.anneal.accepted)),
                    ("acceptance_rate", Json::from(self.anneal.acceptance_rate)),
                    ("restarts", Json::from(self.anneal.restarts)),
                    ("timeouts", Json::from(self.anneal.timeouts)),
                ]),
            ),
            (
                "degradation",
                obj(vec![
                    (
                        "degraded_blocks",
                        Json::from(self.degradation.degraded_blocks),
                    ),
                    (
                        "poisoned_starts",
                        Json::from(self.degradation.poisoned_starts),
                    ),
                    (
                        "recovered_panics",
                        Json::from(self.degradation.recovered_panics),
                    ),
                    ("cache_retries", Json::from(self.degradation.cache_retries)),
                    (
                        "anneal_timeouts",
                        Json::from(self.degradation.anneal_timeouts),
                    ),
                ]),
            ),
            (
                "metrics",
                Json::Array(
                    self.metrics
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", Json::from(m.name.clone())),
                                ("kind", Json::from(m.kind.clone())),
                                ("count", Json::from(m.count)),
                                ("sum", Json::from(m.sum)),
                                ("min", Json::from(m.min)),
                                ("max", Json::from(m.max)),
                                ("last", Json::from(m.last)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let need = |j: &Json, key: &str| -> Result<Json, String> {
            j.get(key)
                .cloned()
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let get_u = |j: &Json, key: &str| -> Result<usize, String> {
            need(j, key)?
                .as_u64()
                .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
                .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
        };
        let get_f = |j: &Json, key: &str| -> Result<f64, String> {
            need(j, key)?
                .as_f64()
                .ok_or_else(|| format!("field `{key}` is not a number"))
        };
        let get_s = |j: &Json, key: &str| -> Result<String, String> {
            need(j, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{key}` is not a string"))
        };
        // For fields introduced after schema v1: absent means 0, present
        // must still be well-typed.
        let get_u_or_zero = |j: &Json, key: &str| -> Result<usize, String> {
            match j.get(key) {
                None => Ok(0),
                Some(v) => v
                    .as_u64()
                    .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
                    .ok_or_else(|| format!("field `{key}` is not an unsigned integer")),
            }
        };
        let get_usize_arr = |j: &Json, key: &str| -> Result<Vec<usize>, String> {
            need(j, key)?
                .as_array()
                .ok_or_else(|| format!("field `{key}` is not an array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
                        .ok_or_else(|| format!("element of `{key}` is not an unsigned integer"))
                })
                .collect()
        };

        let input = need(json, "input")?;
        let config = need(json, "config")?;
        let timings = need(json, "timings")?;
        let cache = need(json, "cache")?;
        let anneal = need(json, "anneal")?;

        let blocks = need(json, "blocks")?
            .as_array()
            .ok_or("`blocks` is not an array")?
            .iter()
            .map(|b| {
                Ok(BlockReport {
                    index: get_u(b, "index")?,
                    qubits: get_usize_arr(b, "qubits")?,
                    original_cnots: get_u(b, "original_cnots")?,
                    menu: need(b, "menu")?
                        .as_array()
                        .ok_or("`menu` is not an array")?
                        .iter()
                        .map(|m| {
                            Ok(MenuEntryReport {
                                cnots: get_u(m, "cnots")?,
                                distance: get_f(m, "distance")?,
                            })
                        })
                        .collect::<Result<_, String>>()?,
                    best_cnots_within_epsilon: get_u(b, "best_cnots_within_epsilon")?,
                    synthesis_evals: get_u(b, "synthesis_evals")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let samples = need(json, "samples")?
            .as_array()
            .ok_or("`samples` is not an array")?
            .iter()
            .map(|s| {
                Ok(SampleReport {
                    indices: get_usize_arr(s, "indices")?,
                    cnots: get_u(s, "cnots")?,
                    bound: get_f(s, "bound")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let metrics = need(json, "metrics")?
            .as_array()
            .ok_or("`metrics` is not an array")?
            .iter()
            .map(|m| {
                Ok(MetricReport {
                    name: get_s(m, "name")?,
                    kind: get_s(m, "kind")?,
                    count: need(m, "count")?
                        .as_u64()
                        .ok_or("`count` is not an unsigned integer")?,
                    sum: get_f(m, "sum")?,
                    min: get_f(m, "min")?,
                    max: get_f(m, "max")?,
                    last: get_f(m, "last")?,
                })
            })
            .collect::<Result<_, String>>()?;

        Ok(RunReport {
            schema_version: need(json, "schema_version")?
                .as_u64()
                .ok_or("`schema_version` is not an unsigned integer")?,
            input: InputReport {
                qubits: get_u(&input, "qubits")?,
                gates: get_u(&input, "gates")?,
                cnots: get_u(&input, "cnots")?,
            },
            config: ConfigReport {
                epsilon_per_block: get_f(&config, "epsilon_per_block")?,
                block_size: get_u(&config, "block_size")?,
                max_samples: get_u(&config, "max_samples")?,
                cnot_weight: get_f(&config, "cnot_weight")?,
                selection: get_s(&config, "selection")?,
                seed: need(&config, "seed")?
                    .as_u64()
                    .ok_or("`seed` is not an unsigned integer")?,
            },
            parallel_width: get_u(json, "parallel_width")?,
            blocks,
            samples,
            timings: TimingsReport {
                partition_seconds: get_f(&timings, "partition_seconds")?,
                synthesis_seconds: get_f(&timings, "synthesis_seconds")?,
                annealing_seconds: get_f(&timings, "annealing_seconds")?,
                total_seconds: get_f(&timings, "total_seconds")?,
            },
            cache: CacheReport {
                hits: get_u(&cache, "hits")?,
                misses: get_u(&cache, "misses")?,
                disk_hits: get_u_or_zero(&cache, "disk_hits")?,
                disk_misses: get_u_or_zero(&cache, "disk_misses")?,
                evictions: get_u_or_zero(&cache, "evictions")?,
                validation_failures: get_u_or_zero(&cache, "validation_failures")?,
                io_retries: get_u_or_zero(&cache, "io_retries")?,
                hit_rate: get_f(&cache, "hit_rate")?,
            },
            anneal: AnnealReport {
                runs: get_u(&anneal, "runs")?,
                evals: get_u(&anneal, "evals")?,
                accepted: get_u(&anneal, "accepted")?,
                acceptance_rate: get_f(&anneal, "acceptance_rate")?,
                restarts: get_u(&anneal, "restarts")?,
                timeouts: get_u_or_zero(&anneal, "timeouts")?,
            },
            // The whole section is new in v3; absent (v1/v2) means a clean
            // run.
            degradation: match json.get("degradation") {
                None => DegradationReport::default(),
                Some(d) => DegradationReport {
                    degraded_blocks: get_u_or_zero(d, "degraded_blocks")?,
                    poisoned_starts: get_u_or_zero(d, "poisoned_starts")?,
                    recovered_panics: get_u_or_zero(d, "recovered_panics")?,
                    cache_retries: get_u_or_zero(d, "cache_retries")?,
                    anneal_timeouts: get_u_or_zero(d, "anneal_timeouts")?,
                },
            },
            metrics,
        })
    }

    /// A [`qobs::snapshot::BenchSnapshot`] carrying this run's headline perf
    /// numbers — stage wall-times, CNOT totals, cache hit rate, annealing
    /// effort — for the repo's `BENCH_*.json` trajectory.
    #[allow(clippy::cast_precision_loss)]
    pub fn bench_snapshot(&self, name: impl Into<String>) -> qobs::snapshot::BenchSnapshot {
        qobs::snapshot::BenchSnapshot::new(name)
            .with(
                "quest.stage.partition_seconds",
                self.timings.partition_seconds,
            )
            .with(
                "quest.stage.synthesis_seconds",
                self.timings.synthesis_seconds,
            )
            .with(
                "quest.stage.annealing_seconds",
                self.timings.annealing_seconds,
            )
            .with("quest.stage.total_seconds", self.timings.total_seconds)
            .with("quest.original_cnots", self.input.cnots as f64)
            .with("quest.mean_sample_cnots", self.mean_sample_cnots())
            .with("quest.samples", self.samples.len() as f64)
            .with("quest.blocks", self.blocks.len() as f64)
            .with("quest.parallel_width", self.parallel_width as f64)
            .with("quest.cache.hit_rate", self.cache.hit_rate)
            .with("quest.cache.disk_hits", self.cache.disk_hits as f64)
            .with("quest.cache.disk_misses", self.cache.disk_misses as f64)
            .with("quest.cache.evictions", self.cache.evictions as f64)
            .with(
                "quest.cache.validation_failures",
                self.cache.validation_failures as f64,
            )
            .with("quest.anneal.evals", self.anneal.evals as f64)
            .with("quest.anneal.acceptance_rate", self.anneal.acceptance_rate)
            .with(
                "quest.degraded.blocks",
                self.degradation.degraded_blocks as f64,
            )
            .with(
                "quest.degraded.starts",
                self.degradation.poisoned_starts as f64,
            )
            .with(
                "quest.degraded.cache_retries",
                self.degradation.cache_retries as f64,
            )
            .with(
                "quest.degraded.anneal_timeouts",
                self.degradation.anneal_timeouts as f64,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::{DegradationReport, RunReport, RUN_REPORT_SCHEMA_VERSION};
    use crate::{Quest, QuestConfig};
    use qcircuit::Circuit;
    use qobs::json::Json;

    #[test]
    fn v2_documents_parse_with_zero_degradation() {
        // A v3 writer round-trips; stripping the v3 additions produces a
        // faithful v2 document, which must still parse with the new fields
        // defaulted to zero.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).rz(1, 0.4).cnot(0, 1);
        let quest = Quest::new(QuestConfig::fast().with_seed(5));
        let result = quest.compile(&c);
        let report = RunReport::new(&quest, &c, &result);
        let mut json = report.to_json();
        if let Json::Object(members) = &mut json {
            members.retain(|(k, _)| k != "degradation");
            for (k, v) in members.iter_mut() {
                if let (true, Json::Object(sub)) = (k == "cache", &mut *v) {
                    sub.retain(|(k, _)| k != "io_retries");
                }
                if let (true, Json::Object(sub)) = (k == "anneal", &mut *v) {
                    sub.retain(|(k, _)| k != "timeouts");
                }
                if k == "schema_version" {
                    *v = Json::from(2u64);
                }
            }
        }
        let parsed = RunReport::from_json(&json).expect("v2 document must parse");
        assert_eq!(parsed.schema_version, 2);
        assert_eq!(parsed.degradation, DegradationReport::default());
        assert_eq!(parsed.cache.io_retries, 0);
        assert_eq!(parsed.anneal.timeouts, 0);
        // And the untouched v3 form round-trips exactly.
        assert_eq!(RUN_REPORT_SCHEMA_VERSION, 3);
        let roundtrip = RunReport::from_json(&report.to_json()).expect("v3 roundtrip");
        assert_eq!(roundtrip, report);
    }

    #[test]
    fn report_mentions_all_samples_and_timings() {
        let mut c = Circuit::new(2);
        for _ in 0..2 {
            c.cnot(0, 1).rz(1, 0.4).cnot(0, 1);
        }
        let result = Quest::new(QuestConfig::fast().with_seed(11)).compile(&c);
        let text = super::render(&result);
        assert!(text.contains("QUEST result"));
        assert!(text.contains("sample 0:"));
        assert!(text.contains("timings:"));
        assert_eq!(
            text.matches("sample ").count(),
            result.samples.len(),
            "one line per sample"
        );
    }
}
