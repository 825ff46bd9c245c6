//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public entry
//! point: around `Quest::try_compile_observed` (stage boundaries come from
//! the `CompileObserver` events) and around `questd` jobs (boundaries come
//! from the events the client receives). Nothing inside the program is
//! instrumented. The spans are written out once, when the run ends.

use quest::{CompileEvent, CompileObserver};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. A span whose `start` equals its `end` is a mark
/// (one per synthesized block).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `quest.synthesis`.
    pub name: &'static str,
    /// Seconds since the trace origin.
    pub start: f64,
    /// Seconds since the trace origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

/// Every span of one traced phase.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// When the trace's clock starts.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Moves every span of `other`, which shares this trace's origin, to
    /// the end of this trace.
    pub fn append(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Records a span between two instants and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let secs = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: secs(start),
            end: secs(end).max(secs(start)),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span called `name`: its duration minus the part
    /// of it that its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let mut children: Vec<(f64, f64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .filter(|(a, b)| b > a)
                    .collect();
                children.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in children {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start, s.end, s.job
            )?;
        }
        out.flush()
    }
}

/// Timestamps the stage events of one compilation.
pub struct StageClock {
    origin: Instant,
    partitioned: AtomicU64,
    last_block: AtomicU64,
    selection_done: AtomicU64,
    block_marks: Mutex<Vec<u64>>,
}

impl StageClock {
    /// A clock for a compilation that starts now.
    pub fn start() -> StageClock {
        StageClock {
            origin: Instant::now(),
            partitioned: AtomicU64::new(0),
            last_block: AtomicU64::new(0),
            selection_done: AtomicU64::new(0),
            block_marks: Mutex::new(Vec::new()),
        }
    }

    /// When the compilation started.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn at(&self, ns: u64) -> Instant {
        self.origin + std::time::Duration::from_nanos(ns)
    }

    /// Records the compilation's spans under a new `job` span that ends at
    /// `end`.
    pub fn record(&self, trace: &mut Trace, job: u64, end: Instant) {
        let partitioned = self.at(self.partitioned.load(Ordering::SeqCst));
        let last_block = self.at(self
            .last_block
            .load(Ordering::SeqCst)
            .max(self.partitioned.load(Ordering::SeqCst)));
        let selection = self.at(self.selection_done.load(Ordering::SeqCst));
        let root = trace.push("job", self.origin, end, None, job);
        trace.push("quest.partition", self.origin, partitioned, Some(root), job);
        let synth = trace.push("quest.synthesis", partitioned, last_block, Some(root), job);
        let marks = self.block_marks.lock().expect("block marks lock poisoned");
        for &ns in marks.iter() {
            trace.push("quest.block", self.at(ns), self.at(ns), Some(synth), job);
        }
        trace.push("quest.selection", last_block, selection, Some(root), job);
        trace.push("quest.reassembly", selection, end, Some(root), job);
    }
}

impl CompileObserver for StageClock {
    fn event(&self, event: CompileEvent) {
        let now = self.now_ns();
        match event {
            CompileEvent::Partitioned { .. } => self.partitioned.store(now, Ordering::SeqCst),
            CompileEvent::BlockSynthesized { .. } => {
                self.last_block.fetch_max(now, Ordering::SeqCst);
                self.block_marks
                    .lock()
                    .expect("block marks lock poisoned")
                    .push(now);
            }
            CompileEvent::SelectionDone { .. } => {
                self.selection_done.store(now, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut trace = Trace::new(t0);
        let root = trace.push("job", at(0), at(100), None, 1);
        trace.push("a", at(10), at(40), Some(root), 1);
        trace.push("b", at(30), at(60), Some(root), 1);
        let self_time = trace.self_times("job")[0];
        assert!((self_time - 0.050).abs() < 1e-9, "{self_time}");
    }
}
