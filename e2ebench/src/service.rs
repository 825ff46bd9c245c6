//! `service_mix`: an open loop of seeded Poisson arrivals against an
//! in-process `questd` daemon with the default `ServerConfig`.
//!
//! Most jobs repeat a (circuit, config) pair set-up primed, so the daemon
//! serves them from its memory cache; a small share carry a fresh seed and
//! compile cold, and some of those are sent twice a few ms apart, as a
//! client retry would, so single-flight dedup coalesces them. The offered
//! load stays well under the daemon's capacity: the workload measures
//! latency, not the scheduler.

use crate::check::{self, Compiled, Quality};
use crate::stats::{self, Metrics};
use crate::suite::{inputs, put_common, shuffled, Input};
use crate::trace::Trace;
use crate::{Opts, Outcome};
use qcircuit::Circuit;
use qobs::json::Json;
use quest::{BlockCache, NoopObserver, Quest, QuestResult, RunReport};
use questd::{Event, JobConfig, Progress, Request, Server, ServerConfig, SubmitRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered load in jobs per second.
const RATE_PER_S: f64 = 48.0;
/// One fresh job (a new seed, so a cold compile) per this many seconds.
/// A primed job that runs next to a cold compile shares the two cores with
/// its synthesis threads, and how much that slows it varies widely from
/// run to run. Fresh jobs are therefore few, spaced rather than Poisson,
/// and cheap: their compiles fill about 4 % of the run, so the 90th
/// percentile falls in the primed jobs' own tail.
const FRESH_PERIOD_S: f64 = 6.5;
/// The circuits fresh jobs cycle through: the three with the cheapest cold
/// compile, each made of many small blocks, so its cost varies little with
/// the seed.
const FRESH_CIRCUITS: [&str; 3] = ["hlf_5", "tfim_4", "vqe_4"];
/// Gap between a job and its retry.
const RETRY_GAP: Duration = Duration::from_millis(5);
/// How long the receiver waits for any event before giving up.
const EVENT_TIMEOUT: Duration = Duration::from_secs(120);

/// One job of the schedule.
#[derive(Clone)]
struct Planned {
    id: String,
    /// Offset of the scheduled send time from the phase start.
    due: Duration,
    circuit: usize,
    /// `None`: the primed configuration. `Some`: a fresh seed.
    seed: Option<u64>,
}

impl Planned {
    fn config(&self) -> JobConfig {
        JobConfig {
            fast: true,
            seed: self.seed,
            ..JobConfig::default()
        }
    }
}

/// Everything the client saw of one job.
struct Record {
    job: Planned,
    due: Instant,
    sent: Instant,
    accepted: Option<Instant>,
    started: Option<Instant>,
    partitioned: Option<Instant>,
    last_block: Option<Instant>,
    selection: Option<Instant>,
    done: Instant,
    /// What the audit needs from the `RunReport`, or the error the job
    /// failed with.
    outcome: Result<Summary, String>,
}

/// Reports of one (circuit, seed) in one cache state must be identical, so
/// only the first is kept whole; the others are checked against it on
/// arrival and reduced to this summary.
struct Summary {
    /// The job ran with every menu in the memory cache.
    warm: bool,
    /// Blocks and samples equal those of the first report of its kind.
    same_as_first: bool,
    degraded: bool,
    /// `qsynth.gradient_evals` and `quest.compilations` from the report's
    /// metrics section, when it has one.
    metrics: Option<(u64, u64)>,
    blocks: usize,
    block_width_sum: usize,
    anneal_evals: usize,
    anneal_accepted: usize,
    parallel_width: usize,
}

/// The first report of each (circuit, seed, warm).
type FirstReports = BTreeMap<(usize, Option<u64>, bool), RunReport>;

/// Reduces a report to its summary, keeping it whole if it is the first of
/// its kind.
fn summarize(job: &Planned, json: &Json, first: &mut FirstReports) -> Summary {
    let report = RunReport::from_json(json)
        .unwrap_or_else(|e| crate::fatal(&format!("{}: unreadable report: {e}", job.id)));
    let warm = report.cache.misses == 0;
    let summary = Summary {
        warm,
        same_as_first: true,
        degraded: report.degradation != quest::report::DegradationReport::default(),
        metrics: (!report.metrics.is_empty()).then(|| {
            (
                metric(&report, "qsynth.gradient_evals"),
                metric(&report, "quest.compilations"),
            )
        }),
        blocks: report.blocks.len(),
        block_width_sum: report.blocks.iter().map(|b| b.qubits.len()).sum(),
        anneal_evals: report.anneal.evals,
        anneal_accepted: report.anneal.accepted,
        parallel_width: report.parallel_width,
    };
    match first.entry((job.circuit, job.seed, warm)) {
        std::collections::btree_map::Entry::Occupied(e) => Summary {
            same_as_first: e.get().blocks == report.blocks && e.get().samples == report.samples,
            ..summary
        },
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(report);
            summary
        }
    }
}

impl Record {
    fn latency(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64()
    }
}

/// One standalone compile of a (circuit, config) pair, in both the cold
/// and the memory-warm cache state a daemon job can run in.
struct Reference {
    result: QuestResult,
    config: quest::QuestConfig,
    cold: RunReport,
    warm: RunReport,
}

struct Service {
    inputs: Vec<Input>,
    rng: StdRng,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    first: FirstReports,
}

impl Service {
    /// Sends `jobs` on their schedule from one thread and receives every
    /// event on this one, until each job has a terminal event.
    fn run(&mut self, jobs: &[Planned]) -> Vec<Record> {
        let start = Instant::now();
        let mut writer = self.stream.try_clone().expect("socket clones");
        let inputs = &self.inputs;
        let reader = &mut self.reader;
        let first = &mut self.first;
        let (sent, mut records) = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let mut sent = Vec::with_capacity(jobs.len());
                for job in jobs {
                    let due = start + job.due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let request = Request::Submit(SubmitRequest {
                        id: job.id.clone(),
                        qasm: inputs[job.circuit].qasm.clone(),
                        config: job.config(),
                        priority: questd::protocol::DEFAULT_PRIORITY,
                        queue_deadline_ms: None,
                    });
                    let mut line = request.to_json().compact();
                    line.push('\n');
                    writer
                        .write_all(line.as_bytes())
                        .expect("submit is written");
                    sent.push(Instant::now());
                }
                sent
            });
            let records = receive(reader, jobs, start, first);
            (sender.join().expect("sender thread panicked"), records)
        });
        for (r, t) in records.iter_mut().zip(sent) {
            r.sent = t;
        }
        records
    }

    fn stats(&mut self) -> questd::StatsSnapshot {
        let mut line = Request::Stats.to_json().compact();
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .expect("stats request is written");
        match recv(&mut self.reader).1 {
            Event::Stats(s) => s,
            other => crate::fatal(&format!("expected stats, got {other:?}")),
        }
    }

    fn id(&mut self) -> String {
        self.next_id += 1;
        format!("j{}", self.next_id)
    }

    /// A seeded open-loop schedule for `seconds`: Poisson arrivals of
    /// primed jobs, plus one fresh job per [`FRESH_PERIOD_S`] at a seeded
    /// point of its period, every other one followed by a retry.
    fn schedule(&mut self, seconds: f64) -> Vec<Planned> {
        let n = self.inputs.len();
        let mut jobs: Vec<Planned> = Vec::new();
        let mut t = 0.0;
        // Primed jobs walk seeded permutations of the suite, so every run
        // asks for each circuit equally often.
        let mut primed = Vec::new();
        loop {
            let u: f64 = self.rng.random();
            t += -(1.0 - u).ln() / RATE_PER_S;
            if t >= seconds {
                break;
            }
            if primed.is_empty() {
                primed = shuffled(n, &mut self.rng);
            }
            let circuit = primed.pop().expect("cycle refilled");
            let id = self.id();
            jobs.push(Planned {
                id,
                due: Duration::from_secs_f64(t),
                circuit,
                seed: None,
            });
        }
        let fresh: Vec<usize> = FRESH_CIRCUITS
            .iter()
            .map(|name| {
                self.inputs
                    .iter()
                    .position(|i| i.name == *name)
                    .expect("fresh circuit is in the suite")
            })
            .collect();
        let mut cycle = Vec::new();
        #[allow(clippy::cast_possible_truncation)]
        let periods = (seconds / FRESH_PERIOD_S).floor() as usize;
        for k in 0..periods {
            if cycle.is_empty() {
                cycle = shuffled(fresh.len(), &mut self.rng);
            }
            let circuit = fresh[cycle.pop().expect("cycle refilled")];
            let offset: f64 = self.rng.random_range(0.1..0.4);
            let due = Duration::from_secs_f64((k as f64 + offset) * FRESH_PERIOD_S);
            // Seeds travel as JSON numbers: keep them exact in an f64.
            let seed = Some(self.rng.random_range(1u64..1 << 48));
            let id = self.id();
            jobs.push(Planned {
                id,
                due,
                circuit,
                seed,
            });
            if k % 2 == 0 {
                let id = self.id();
                jobs.push(Planned {
                    id,
                    due: due + RETRY_GAP,
                    circuit,
                    seed,
                });
            }
        }
        jobs.sort_by_key(|j| j.due);
        jobs
    }
}

/// Reads events until every job in `jobs` has a terminal one.
fn receive(
    reader: &mut BufReader<TcpStream>,
    jobs: &[Planned],
    start: Instant,
    first: &mut FirstReports,
) -> Vec<Record> {
    let index: BTreeMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i))
        .collect();
    let mut records: Vec<Record> = jobs
        .iter()
        .map(|j| Record {
            job: j.clone(),
            due: start + j.due,
            sent: start,
            accepted: None,
            started: None,
            partitioned: None,
            last_block: None,
            selection: None,
            done: start,
            outcome: Err("no terminal event".into()),
        })
        .collect();
    let mut open = jobs.len();
    while open > 0 {
        let (now, event) = recv(reader);
        let (id, terminal) = match &event {
            Event::Accepted { id, .. } | Event::Started { id } | Event::Progress { id, .. } => {
                (id.as_str(), false)
            }
            Event::Report { id, .. } => (id.as_str(), true),
            Event::Error { id: Some(id), .. } => (id.as_str(), true),
            other => crate::fatal(&format!("unexpected event {other:?}")),
        };
        let Some(&i) = index.get(id) else {
            crate::fatal(&format!("event for unknown job {id}"));
        };
        let r = &mut records[i];
        match event {
            Event::Accepted { .. } => r.accepted = Some(now),
            Event::Started { .. } => r.started = Some(now),
            Event::Progress { progress, .. } => match progress {
                Progress::Partitioned { .. } => r.partitioned = Some(now),
                Progress::BlockSynthesized { .. } => r.last_block = Some(now),
                Progress::SelectionDone { .. } => r.selection = Some(now),
            },
            Event::Report { report, .. } => r.outcome = Ok(summarize(&r.job, &report, first)),
            Event::Error { code, message, .. } => r.outcome = Err(format!("{code}: {message}")),
            _ => {}
        }
        if terminal {
            r.done = now;
            open -= 1;
        }
    }
    records
}

/// Reads one event, timestamped when its line arrived.
fn recv(reader: &mut BufReader<TcpStream>) -> (Instant, Event) {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => crate::fatal("daemon closed the connection"),
        Ok(_) => {}
        Err(e) => crate::fatal(&format!("no event from the daemon: {e}")),
    }
    let arrived = Instant::now();
    let json = Json::parse(&line).unwrap_or_else(|e| crate::fatal(&format!("bad event: {e}")));
    let event = Event::from_json(&json)
        .unwrap_or_else(|e| crate::fatal(&format!("bad event: {}", e.message)));
    (arrived, event)
}

/// Compiles one (circuit, config) pair standalone, cold and then warm from
/// the same memory cache, each under its own metrics session.
fn reference(circuit: &Circuit, job: &JobConfig) -> Reference {
    let config = job.to_quest_config();
    let quest = Quest::new(config.clone());
    let cache = BlockCache::new();
    let compile = || {
        let session = qobs::metrics::session();
        let result = quest
            .try_compile_observed(circuit, Some(&cache), &NoopObserver)
            .unwrap_or_else(|e| crate::fatal(&format!("standalone compile failed: {e}")));
        let report = RunReport::new(&quest, circuit, &result).with_metrics(&session.snapshot());
        (result, report)
    };
    let (result, cold) = compile();
    let (_, warm) = compile();
    Reference {
        result,
        config,
        cold,
        warm,
    }
}

/// The summed value of counter `name` in a report's metrics section.
fn metric(report: &RunReport, name: &str) -> u64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| {
            #[allow(clippy::cast_possible_truncation)]
            let n = m.sum as u64;
            n
        })
}

/// What the reports of one phase showed against their references.
#[derive(Default)]
struct Audit {
    failed: u64,
    metrics_mismatch: u64,
    blocks: usize,
    block_width_sum: usize,
    anneal_evals: usize,
    anneal_accepted: usize,
    parallel_width: usize,
    /// Gradient evaluations of the phase's distinct fresh pairs.
    gradient_evals: u64,
}

/// Checks every kept first report against its standalone reference.
fn check_first_reports(
    first: &FirstReports,
    refs: &BTreeMap<(usize, Option<u64>), Reference>,
    inputs: &[Input],
    violations: &mut Vec<String>,
) {
    for (&(circuit, seed, warm), report) in first {
        let reference = &refs[&(circuit, seed)];
        let expected = if warm {
            &reference.warm
        } else {
            &reference.cold
        };
        if report.blocks != expected.blocks || report.samples != expected.samples {
            violations.push(format!(
                "{} (seed {seed:?}, warm {warm}): report differs from the standalone compile",
                inputs[circuit].name
            ));
        }
    }
}

fn audit(
    records: &[Record],
    refs: &BTreeMap<(usize, Option<u64>), Reference>,
    inputs: &[Input],
    violations: &mut Vec<String>,
) -> Audit {
    let mut a = Audit::default();
    let mut fresh_seen = std::collections::BTreeSet::new();
    for r in records {
        let key = (r.job.circuit, r.job.seed);
        let name = &inputs[r.job.circuit].name;
        let reference = &refs[&key];
        let report = match &r.outcome {
            Ok(summary) => summary,
            Err(e) => {
                // Refused or failed: counts against the ratio, not the gate.
                eprintln!("{} ({name}) failed: {e}", r.job.id);
                a.failed += 1;
                continue;
            }
        };
        let expected = if report.warm {
            &reference.warm
        } else {
            &reference.cold
        };
        if !report.same_as_first {
            violations.push(format!(
                "{} ({name}, seed {:?}): report differs from an earlier identical request",
                r.job.id, r.job.seed
            ));
            a.failed += 1;
        } else if report.degraded {
            a.failed += 1;
        }
        let expected_metrics = (
            metric(expected, "qsynth.gradient_evals"),
            metric(expected, "quest.compilations"),
        );
        if report.metrics != Some(expected_metrics) {
            a.metrics_mismatch += 1;
        }
        a.blocks += report.blocks;
        a.block_width_sum += report.block_width_sum;
        a.anneal_evals += report.anneal_evals;
        a.anneal_accepted += report.anneal_accepted;
        a.parallel_width = a.parallel_width.max(report.parallel_width);
        if r.job.seed.is_some() && fresh_seen.insert(key) {
            a.gradient_evals += metric(&reference.cold, "qsynth.gradient_evals");
        }
    }
    a
}

fn spans(records: &[Record], origin: Instant) -> Trace {
    let mut trace = Trace::new(origin);
    for (job, r) in (1u64..).zip(records) {
        let root = trace.push("job", r.due, r.done, None, job);
        trace.push("questd.send", r.due, r.sent, Some(root), job);
        if let (Some(a), Some(s)) = (r.accepted, r.started) {
            trace.push("questd.queue_wait", a, s, Some(root), job);
        }
        let Some(started) = r.started else { continue };
        let run = trace.push("questd.run", started, r.done, Some(root), job);
        if let (Some(p), Some(b), Some(s)) = (r.partitioned, r.last_block, r.selection) {
            trace.push("quest.partition", started, p, Some(run), job);
            trace.push("quest.synthesis", p, b, Some(run), job);
            trace.push("quest.selection", b, s, Some(run), job);
            trace.push("quest.reassembly", s, r.done, Some(run), job);
        }
    }
    trace
}

/// Every (circuit, seed) pair in `records` without a reference yet gets
/// one.
fn add_references(
    svc: &Service,
    records: &[Record],
    refs: &mut BTreeMap<(usize, Option<u64>), Reference>,
) {
    for r in records {
        let key = (r.job.circuit, r.job.seed);
        refs.entry(key)
            .or_insert_with(|| reference(&svc.inputs[r.job.circuit].circuit, &r.job.config()));
    }
}

/// The `service_mix` workload.
pub fn mix(opts: &Opts) -> Outcome {
    let t_setup = Instant::now();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap_or_else(|e| crate::fatal(&format!("daemon did not start: {e}")));
    let stream = TcpStream::connect(server.local_addr())
        .unwrap_or_else(|e| crate::fatal(&format!("cannot connect to the daemon: {e}")));
    stream
        .set_read_timeout(Some(EVENT_TIMEOUT))
        .expect("read timeout is settable");
    stream.set_nodelay(true).expect("nodelay is settable");
    let mut svc = Service {
        inputs: inputs(),
        rng: StdRng::seed_from_u64(opts.seed),
        reader: BufReader::new(stream.try_clone().expect("socket clones")),
        stream,
        next_id: 0,
        first: BTreeMap::new(),
    };
    // Prime every circuit's default fast configuration.
    let primes: Vec<Planned> = (0..svc.inputs.len())
        .map(|circuit| Planned {
            id: svc.id(),
            due: Duration::ZERO,
            circuit,
            seed: None,
        })
        .collect();
    let primed = svc.run(&primes);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let schedule = svc.schedule(opts.seconds);
    let untraced = svc.run(&schedule);
    let mut traced = None;
    if opts.trace {
        let before = svc.stats();
        let schedule = svc.schedule(opts.seconds);
        let origin = Instant::now();
        let cpu0 = stats::cpu_seconds();
        let records = svc.run(&schedule);
        let wall = origin.elapsed().as_secs_f64();
        let cpu = stats::cpu_seconds() - cpu0;
        let after = svc.stats();
        traced = Some((records, origin, before, after, wall, cpu));
    }
    svc.reader.get_ref().shutdown(std::net::Shutdown::Both).ok();
    server.shutdown();

    // References are compiled after the timed phases.
    let t_refs = Instant::now();
    let mut refs = BTreeMap::new();
    add_references(&svc, &primed, &mut refs);
    add_references(&svc, &untraced, &mut refs);
    if let Some((records, ..)) = &traced {
        add_references(&svc, records, &mut refs);
    }
    eprintln!(
        "{} standalone compiles in {:.3} s",
        refs.len(),
        t_refs.elapsed().as_secs_f64()
    );
    let mut violations = Vec::new();
    check_first_reports(&svc.first, &refs, &svc.inputs, &mut violations);
    audit(&primed, &refs, &svc.inputs, &mut violations);
    let u = audit(&untraced, &refs, &svc.inputs, &mut violations);

    // Gate every reference. The quality metrics come from the primed
    // pairs, whose configuration every run shares.
    let items: Vec<Compiled<'_>> = refs
        .iter()
        .map(|(&(c, _), r)| Compiled {
            name: &svc.inputs[c].name,
            circuit: &svc.inputs[c].circuit,
            config: &r.config,
            result: &r.result,
        })
        .collect();
    let (gate, qualities) = check::gate(&items);
    violations.extend(gate);
    let primed_qualities: Vec<Quality> = refs
        .keys()
        .zip(qualities)
        .filter(|((_, seed), _)| seed.is_none())
        .map(|(_, q)| q)
        .collect();

    let mut metrics = Metrics::default();
    let mut attempted = untraced.len() as u64;
    let mut failed = u.failed;
    let mut trace_out = None;
    match traced {
        None => {
            metrics.put("setup_s", setup_s, "s");
            let quality = Quality::mean(&primed_qualities);
            end_to_end(
                &mut metrics,
                &untraced,
                svc.inputs.len(),
                attempted,
                failed,
                quality,
            );
        }
        Some((records, origin, before, after, wall, cpu)) => {
            let t = audit(&records, &refs, &svc.inputs, &mut violations);
            attempted += records.len() as u64;
            failed += t.failed;
            let trace = spans(&records, origin);
            per_layer(&mut metrics, &svc, &untraced, &records, &trace, &t);
            metrics.put(
                "proc.cpu_util",
                cpu / (wall * stats::nproc() as f64),
                "ratio",
            );
            metrics.put(
                "questd.dedup_hits",
                (after.dedup_hits - before.dedup_hits) as f64,
                "count",
            );
            let rejected =
                |s: &questd::StatsSnapshot| s.queue_rejected_full + s.submits_rate_limited;
            metrics.put(
                "questd.rejected",
                (rejected(&after) - rejected(&before)) as f64,
                "count",
            );
            crate::kernels::measure(&mut metrics);
            trace_out = Some(trace);
        }
    }
    Outcome {
        metrics,
        attempted,
        failed,
        violations,
        trace: trace_out,
    }
}

/// Median latency per circuit index.
fn per_circuit(records: &[Record], n: usize) -> Vec<f64> {
    (0..n)
        .map(|c| {
            let l: Vec<f64> = records
                .iter()
                .filter(|r| r.job.circuit == c)
                .map(Record::latency)
                .collect();
            stats::median(&l)
        })
        .collect()
}

fn end_to_end(
    m: &mut Metrics,
    records: &[Record],
    n: usize,
    attempted: u64,
    failed: u64,
    q: Quality,
) {
    let latencies: Vec<f64> = records.iter().map(Record::latency).collect();
    let per_circuit = per_circuit(records, n);
    m.put("suite_s", per_circuit.iter().sum(), "s");
    m.put("compile_geomean_s", stats::geomean(&per_circuit), "s");
    m.put("job_p50_s", stats::median(&latencies), "s");
    put_common(m, attempted, failed, q);
}

fn per_layer(
    m: &mut Metrics,
    svc: &Service,
    untraced: &[Record],
    records: &[Record],
    trace: &Trace,
    a: &Audit,
) {
    let jobs = records.len().max(1) as f64;
    let per_job = |name: &str| trace.total(name) / jobs;
    let synthesis_total = trace.total("quest.synthesis");
    let selection_total = trace.total("quest.selection");
    m.put("qpartition.partition_s", per_job("quest.partition"), "s");
    m.put("qpartition.blocks", a.blocks as f64, "count");
    m.put(
        "qpartition.block_width_mean",
        a.block_width_sum as f64 / a.blocks.max(1) as f64,
        "qubits",
    );
    m.put("qsynth.synthesis_s", per_job("quest.synthesis"), "s");
    m.put("qsynth.gradient_evals", a.gradient_evals as f64, "count");
    m.put(
        "qsynth.grad_evals_per_s",
        a.gradient_evals as f64 / synthesis_total.max(f64::MIN_POSITIVE),
        "1/s",
    );
    for (input, t) in svc
        .inputs
        .iter()
        .zip(per_circuit(records, svc.inputs.len()))
    {
        m.put(format!("suite.{}_s", input.name), t, "s");
    }
    crate::put_absent(m, &crate::DISK_CACHE_LAYERS);
    m.put("qanneal.selection_s", per_job("quest.selection"), "s");
    m.put("qanneal.evals", a.anneal_evals as f64, "count");
    m.put(
        "qanneal.evals_per_s",
        a.anneal_evals as f64 / selection_total.max(f64::MIN_POSITIVE),
        "1/s",
    );
    m.put(
        "qanneal.acceptance_rate",
        a.anneal_accepted as f64 / a.anneal_evals.max(1) as f64,
        "ratio",
    );
    m.put("quest.reassembly_s", per_job("quest.reassembly"), "s");
    m.put("quest.parallel_width", a.parallel_width as f64, "threads");
    let waits = trace.durations("questd.queue_wait");
    let lags: Vec<f64> = trace.durations("questd.send");
    m.put("questd.queue_wait_s.p50", stats::median(&waits), "s");
    m.put("questd.queue_wait_s.p90", stats::quantile(&waits, 0.9), "s");
    m.put(
        "questd.run_s.p50",
        stats::median(&trace.durations("questd.run")),
        "s",
    );
    m.put(
        "questd.overhead_s.p50",
        stats::median(&trace.self_times("job")),
        "s",
    );
    m.put(
        "questd.report_metrics_mismatch",
        a.metrics_mismatch as f64,
        "count",
    );
    m.put("loadgen.lag_s.p90", stats::quantile(&lags, 0.9), "s");
    let untraced_latencies: Vec<f64> = untraced.iter().map(Record::latency).collect();
    crate::put_job_p90(m, &untraced_latencies);
    let untraced_p50 = stats::median(&untraced_latencies);
    let traced_p50 = stats::median(&records.iter().map(Record::latency).collect::<Vec<_>>());
    m.put("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
    let job_total = trace.total("job");
    let self_total: f64 = trace.self_times("job").iter().sum();
    m.put(
        "trace.stage_coverage",
        1.0 - self_total / job_total,
        "ratio",
    );
}
