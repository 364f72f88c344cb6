//! End-to-end benchmark of the iva-file engine.
//!
//! Two workloads, each a fixed count of operations generated from one
//! seed before any clock starts, run on one client thread (the engine's
//! filter scan may use up to `available_parallelism` workers), and every
//! answer checked against an exact oracle:
//!
//! * `table1-warm` — the paper's Table I setting, in memory, everything
//!   cached: refinement dominates and storage is idle.
//! * `post-and-search` — an `LsmDb` behind `serve::Writer`/`Reader`, one
//!   query then four writes, with maintenance after every write.
//!
//! Timing runs record no spans. A traced run alternates untraced and
//! traced passes over the queries, keeps spans in memory, writes them out
//! at exit and reports per-layer figures; see [`trace`] and [`layers`].

pub mod inputs;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod post;
pub mod read;
pub mod trace;

use std::path::PathBuf;

/// The workloads this benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory `IvaDb`, Table I setting, fully cached.
    Table1Warm,
    /// `LsmDb` behind the serving layer, queries interleaved with writes.
    PostAndSearch,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "table1-warm" => Some(Self::Table1Warm),
            "post-and-search" => Some(Self::PostAndSearch),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Table1Warm => "table1-warm",
            Self::PostAndSearch => "post-and-search",
        }
    }
}

/// Everything one run needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Record spans and report per-layer metrics instead of timings.
    pub trace: bool,
    /// Operation counts.
    pub size: Size,
    /// Directory the span dump of a traced run is written to.
    pub work_dir: PathBuf,
}

/// Operation counts of one run. Fixed per workload and `--seconds`, so
/// plan-only counts repeat exactly for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Tuples loaded during set-up.
    pub tuples: usize,
    /// Distinct queries the client cycles through.
    pub distinct: usize,
    /// Queries in the measured phase.
    pub queries: usize,
    /// Writes after each query (post-and-search only).
    pub writes_per_query: usize,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm-up queries at the end of set-up.
    pub warm: usize,
    /// Memtable seal threshold (post-and-search only).
    pub memtable_limit: u64,
}

/// Queries per second of `--seconds` each workload is sized for. A fixed
/// constant, never a measurement, so the work done depends only on the
/// arguments.
fn nominal_rate(workload: Workload) -> f64 {
    match workload {
        Workload::Table1Warm => 30.0,
        Workload::PostAndSearch => 20.0,
    }
}

impl Size {
    /// The full-size run for `workload` measuring about `seconds`: whole
    /// passes over the distinct queries, so every run weighs each query
    /// equally.
    pub fn full(workload: Workload, seconds: u64) -> Self {
        let mut size = match workload {
            Workload::Table1Warm => Self {
                tuples: 20_000,
                distinct: 600,
                queries: 0,
                writes_per_query: 0,
                setup_reps: 4,
                warm: 10,
                memtable_limit: 0,
            },
            Workload::PostAndSearch => Self {
                tuples: 20_000,
                distinct: 400,
                queries: 0,
                writes_per_query: 4,
                setup_reps: 3,
                warm: 10,
                memtable_limit: 64,
            },
        };
        let wanted = (seconds as f64 * nominal_rate(workload)).ceil() as usize;
        size.queries = wanted.max(1).div_ceil(size.distinct) * size.distinct;
        size
    }

    /// This size with an even number of passes (at least two), so a traced
    /// run can alternate untraced and traced passes over the same queries.
    pub fn for_trace(self) -> Self {
        let passes = self.queries.div_ceil(self.distinct).max(2);
        Self {
            queries: passes.next_multiple_of(2) * self.distinct,
            ..self
        }
    }

    /// A reduced run with the same shape, for tests.
    pub fn reduced(workload: Workload) -> Self {
        let full = Self::full(workload, 1);
        Self {
            tuples: 2_000,
            distinct: 12,
            queries: 24,
            setup_reps: 1,
            warm: 2,
            memtable_limit: full.memtable_limit.min(16),
            ..full
        }
    }
}

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (queries and writes).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// End-to-end metrics in a timing run, per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Context: sample counts, sizes, host cores.
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a context entry.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> iva_file::Result<Report> {
    let mut report = match cfg.workload {
        Workload::Table1Warm => read::run(cfg)?,
        Workload::PostAndSearch => post::run(cfg)?,
    };
    report.info("workload", cfg.workload.name());
    report.info("seed", cfg.seed);
    report.info(
        "host_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    Ok(report)
}
