//! Per-layer figures of a traced run, accumulated per operation and
//! reported under the names `BENCHMARK.json` lists, and the span helpers
//! both workloads measure them with. Every workload reports every name; a
//! layer the workload does not exercise reads 0.

use std::hint::black_box;
use std::time::Duration;

use iva_file::{IoSnapshot, Query, QueryStats, QueryValue, Result, Tid, Tuple, Value};

use crate::measure::{mean, write_file};
use crate::trace::Tracer;
use crate::{Report, RunConfig};

/// Records sampled for `swt.get_us` and `text.edit_distance_ns`.
pub const MICRO_SAMPLE: usize = 2_000;

/// Pager traffic of one file group during one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that went to the file.
    pub misses: u64,
    /// Bytes read from the file.
    pub bytes_read: u64,
}

impl Io {
    /// The traffic between two snapshots.
    pub fn between(before: &IoSnapshot, after: &IoSnapshot) -> Self {
        let d = after.since(before);
        Self {
            hits: d.cache_hits,
            misses: d.cache_misses,
            bytes_read: d.seq_bytes_read + d.random_bytes_read,
        }
    }

    fn add(&mut self, o: Io) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.bytes_read += o.bytes_read;
    }

    fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sums over the traced operations of a run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    queries: u64,
    filter_ns: u64,
    refine_ns: u64,
    materialize_ns: u64,
    table_accesses: u64,
    tuples_scanned: u64,
    speculative: u64,
    hits: u64,
    list_bytes_physical: u64,
    tiers: u64,
    table_io: Io,
    index_io: Io,
    traced_query_s: f64,
    untraced_queries: u64,
    untraced_query_s: f64,
    /// `SwtTable::get` call times, µs.
    pub swt_get_us: Vec<f64>,
    /// Mean `text::edit_distance` time per call, ns.
    pub edit_distance_ns: f64,
    /// Bytes written by every engine file / user bytes written.
    pub write_amp: f64,
    /// `Writer::apply` wall times of foreground writes, ms.
    pub apply_ms: Vec<f64>,
    /// Time inside the `apply` closure of inserts, µs.
    pub insert_us: Vec<f64>,
    /// `plan_maintenance` times of calls that staged work, ms.
    pub prepare_ms: Vec<f64>,
    /// `publish_maintenance` times, ms.
    pub publish_ms: Vec<f64>,
    /// Seals published in the measured phase.
    pub seals: u64,
    /// Merges published in the measured phase.
    pub merges: u64,
    /// Maintenance bytes written / user bytes written.
    pub rewritten_per_user_byte: f64,
}

impl Layers {
    /// Account one traced query: its stats, hit count, tiers scanned,
    /// pager traffic, and the engine span (`exec`) whose self time is the
    /// materialization.
    #[allow(clippy::too_many_arguments)]
    pub fn query(
        &mut self,
        stats: &QueryStats,
        hits: usize,
        tiers: usize,
        table_io: Io,
        index_io: Io,
        exec_ns: u64,
        wall_s: f64,
    ) {
        self.queries += 1;
        self.filter_ns += stats.filter_nanos;
        self.refine_ns += stats.refine_nanos;
        self.materialize_ns += exec_ns.saturating_sub(stats.filter_nanos + stats.refine_nanos);
        self.table_accesses += stats.table_accesses;
        self.tuples_scanned += stats.tuples_scanned;
        self.speculative += stats.speculative_accesses;
        self.hits += hits as u64;
        self.list_bytes_physical += stats.list_bytes_physical;
        self.tiers += tiers as u64;
        self.table_io.add(table_io);
        self.index_io.add(index_io);
        self.traced_query_s += wall_s;
    }

    /// Account one untraced query of the traced run (for the overhead).
    pub fn untraced_query(&mut self, wall_s: f64) {
        self.untraced_queries += 1;
        self.untraced_query_s += wall_s;
    }

    /// Emit every per-layer metric, plus self time per layer from `tracer`
    /// per traced query (with the writes that follow it, if any).
    pub fn report(&self, tracer: &Tracer, r: &mut Report) {
        let q = self.queries.max(1) as f64;
        let per_q = |x: u64| x as f64 / q;
        r.metric("core.filter_ms", per_q(self.filter_ns) / 1e6, "ms");
        r.metric("core.refine_ms", per_q(self.refine_ns) / 1e6, "ms");
        r.metric("db.materialize_ms", per_q(self.materialize_ns) / 1e6, "ms");
        r.metric("core.table_accesses", per_q(self.table_accesses), "count");
        r.metric("core.tuples_scanned", per_q(self.tuples_scanned), "count");
        r.metric(
            "core.speculative_accesses",
            per_q(self.speculative),
            "count",
        );
        let useful = if self.table_accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.table_accesses as f64
        };
        r.metric("core.refine_useful_ratio", useful, "ratio");
        r.metric(
            "core.list_bytes_physical",
            per_q(self.list_bytes_physical),
            "B",
        );
        r.metric("swt.get_us", mean(&self.swt_get_us), "us");
        r.metric("text.edit_distance_ns", self.edit_distance_ns, "ns");
        r.metric("storage.table_misses", per_q(self.table_io.misses), "count");
        r.metric("storage.index_misses", per_q(self.index_io.misses), "count");
        r.metric(
            "storage.table_hit_ratio",
            self.table_io.hit_ratio(),
            "ratio",
        );
        r.metric(
            "storage.index_hit_ratio",
            self.index_io.hit_ratio(),
            "ratio",
        );
        r.metric(
            "storage.bytes_read",
            per_q(self.table_io.bytes_read + self.index_io.bytes_read),
            "B",
        );
        r.metric("storage.write_amp", self.write_amp, "ratio");
        r.metric("serve.apply_ms", mean(&self.apply_ms), "ms");
        r.metric("lsm.insert_us", mean(&self.insert_us), "us");
        r.metric("lsm.prepare_ms", mean(&self.prepare_ms), "ms");
        r.metric("lsm.publish_ms", mean(&self.publish_ms), "ms");
        r.metric("lsm.seals", self.seals as f64, "count");
        r.metric("lsm.merges", self.merges as f64, "count");
        r.metric(
            "lsm.rewritten_bytes_per_user_byte",
            self.rewritten_per_user_byte,
            "ratio",
        );
        r.metric("lsm.tiers_per_query", per_q(self.tiers), "count");
        let traced_qps = self.queries as f64 / self.traced_query_s.max(f64::MIN_POSITIVE);
        let untraced_qps =
            self.untraced_queries as f64 / self.untraced_query_s.max(f64::MIN_POSITIVE);
        r.metric("trace.overhead", traced_qps / untraced_qps, "ratio");
        let self_time = tracer.self_time();
        for layer in ["serve", "lsm", "db", "core"] {
            let ns = self_time.get(layer).copied().unwrap_or(0);
            r.metric(&format!("self.{layer}_ms"), per_q(ns) / 1e6, "ms");
        }
        r.info("traced_queries", self.queries);
        r.info("untraced_queries", self.untraced_queries);
        r.info("spans", tracer.spans().len());
    }
}

/// Lay the engine's own phase timings out as child spans of `parent`.
pub fn core_spans(t: &mut Tracer, parent: usize, op: u64, stats: &QueryStats) {
    let start = t.get(parent).start;
    let mid = start + stats.filter_nanos;
    t.record("core.filter", start, mid, Some(parent), op);
    t.record(
        "core.refine",
        mid,
        mid + stats.refine_nanos,
        Some(parent),
        op,
    );
}

/// Time `get` (a timed `SwtTable::get` of a record located by tid) over
/// `tids`, one span each. Returns the call times in µs.
pub fn swt_get(
    tracer: &mut Tracer,
    tids: &[Tid],
    mut get: impl FnMut(Tid) -> Result<Option<Duration>>,
) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(tids.len());
    for &tid in tids {
        if let Some(d) = get(tid)? {
            let end = tracer.now();
            let start = end.saturating_sub(d.as_nanos() as u64);
            tracer.record("swt.get", start, end, None, tid);
            out.push(d.as_secs_f64() * 1e6);
        }
    }
    Ok(out)
}

/// Time `text::edit_distance` between every query string and every string
/// of the sampled records, as one span. Returns ns per call.
pub fn edit_distance(tracer: &mut Tracer, queries: &[Query], sample: &[&Tuple]) -> f64 {
    let query_strings: Vec<&str> = queries
        .iter()
        .flat_map(|q| q.iter())
        .filter_map(|(_, v)| match v {
            QueryValue::Text(s) => Some(s.as_str()),
            QueryValue::Num(_) => None,
        })
        .take(64)
        .collect();
    let stored: Vec<&str> = sample
        .iter()
        .flat_map(|t| t.iter())
        .flat_map(|(_, v)| match v {
            Value::Text(strings) => strings.iter().map(String::as_str).collect(),
            Value::Num(_) => Vec::new(),
        })
        .collect();
    let start = tracer.now();
    let mut sum = 0usize;
    for q in &query_strings {
        for s in &stored {
            sum += iva_file::text::edit_distance(black_box(q), black_box(s));
        }
    }
    black_box(sum);
    let end = tracer.now();
    tracer.record("text.edit_distance", start, end, None, 0);
    let calls = (query_strings.len() * stored.len()).max(1);
    (end - start) as f64 / calls as f64
}

/// Write the spans next to the other run outputs; a failure to write is
/// reported but does not fail the run.
pub fn dump(cfg: &RunConfig, tracer: &Tracer) {
    let path = cfg
        .work_dir
        .join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    match write_file(&path, tracer.to_jsonl().as_bytes()) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
