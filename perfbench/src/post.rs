//! The `post-and-search` workload: an `LsmDb` behind the serving layer,
//! one client thread running each query followed by its writes, with
//! maintenance after every write so a seal or merge lands on the write
//! that triggered it, as in a single-writer deployment.
//!
//! Single-threaded on purpose: a reader and a writer on two threads
//! contend for the serving lock in ways that do not repeat run to run.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use iva_file::serve::Writer;
use iva_file::vfs::{MemVfs, Vfs};
use iva_file::{
    IvaError, LsmDb, LsmOptions, MaintenancePlan, Query, Result, SearchRequest, Tid, Tuple, Value,
};

use crate::inputs::{self, Inputs, SplitMix, WriteOp, K, VALUES_PER_QUERY};
use crate::layers::{core_spans, dump, edit_distance, swt_get, Io, Layers, MICRO_SAMPLE};
use crate::measure::{bytes_written, median, ms, percentile, vigintiles, RssMark};
use crate::oracle::{self, Answer};
use crate::trace::Tracer;
use crate::{Report, RunConfig};

/// Sealed-segment count that triggers a full merge.
const COMPACT_FANOUT: usize = 4;

/// Recently written tuples the end-state check queries for.
const RECENT_CHECKS: usize = 16;

/// A query for the first values of `tuple`: what a user searching for a
/// posting they just made would send.
fn query_from(tuple: &Tuple) -> Query {
    let mut q = Query::new();
    for (attr, value) in tuple.iter().take(VALUES_PER_QUERY) {
        match value {
            Value::Text(strings) => q = q.text(attr, strings[0].clone()),
            Value::Num(x) => q = q.num(attr, *x),
        }
    }
    q
}

/// The store, its file system, and the benchmark's own record of which
/// tuples are live.
struct Store<'a> {
    writer: Writer<LsmDb>,
    vfs: Arc<MemVfs>,
    /// Live tids in a seeded-deterministic order (victims are picked by
    /// index).
    live: Vec<Tid>,
    /// Tuple of every live tid.
    contents: BTreeMap<Tid, &'a Tuple>,
    /// User bytes of every tuple ever written.
    user_bytes_written: u64,
    /// Last `bytes_written` seen per tier file group; retired tiers keep
    /// their final count here.
    tier_bytes: BTreeMap<(bool, u64), u64>,
}

impl<'a> Store<'a> {
    /// Record the write counters of every current tier.
    fn note_tier_bytes(&mut self) {
        let snap = self.writer.snapshot();
        let mem = snap.memtable();
        let mut seen = vec![(
            (false, mem.base_tid()),
            bytes_written(mem.table().file().io_stats()) + bytes_written(mem.index().io_stats()),
        )];
        for seg in snap.segments() {
            seen.push((
                (true, seg.id()),
                bytes_written(seg.table_io()) + bytes_written(seg.index_io()),
            ));
        }
        drop(snap);
        self.tier_bytes.extend(seen);
    }

    /// Bytes written through every engine `IoStats` so far.
    fn total_bytes_written(&mut self) -> u64 {
        self.note_tier_bytes();
        let snap = self.writer.snapshot();
        self.tier_bytes.values().sum::<u64>()
            + bytes_written(snap.manifest_io())
            + bytes_written(snap.maintenance_io())
    }

    /// Bytes of every engine file: the segment files and manifest on the
    /// store's file system plus the in-memory memtable.
    fn stored_bytes(&self) -> u64 {
        let on_vfs: u64 = self
            .vfs
            .paths()
            .iter()
            .filter_map(|p| self.vfs.open(p).ok()?.len().ok())
            .sum();
        let snap = self.writer.snapshot();
        let mem = snap.memtable();
        on_vfs + mem.table().file().size_bytes() + mem.index().size_bytes()
    }

    /// Apply one write through `Writer::apply`; returns the time spent
    /// inside the closure.
    fn write(&mut self, op: WriteOp, fresh: &'a [Tuple]) -> Result<f64> {
        let victim = |live: &mut Vec<Tid>, pick: u64| {
            let i = (pick % live.len() as u64) as usize;
            live.swap_remove(i)
        };
        let mut inner = 0.0;
        match op {
            WriteOp::Insert(n) => {
                let t = &fresh[n];
                let tid = self.writer.apply(|db| {
                    let start = Instant::now();
                    let r = db.insert(t);
                    inner = ms(start.elapsed());
                    r
                })?;
                self.user_bytes_written += inputs::user_bytes(t);
                self.live.push(tid);
                self.contents.insert(tid, t);
            }
            WriteOp::Delete(pick) => {
                let tid = victim(&mut self.live, pick);
                let deleted = self.writer.apply(|db| {
                    let start = Instant::now();
                    let r = db.delete(tid);
                    inner = ms(start.elapsed());
                    r
                })?;
                if !deleted {
                    return Err(IvaError::InvalidArgument(format!(
                        "live tid {tid} not found"
                    )));
                }
                self.contents.remove(&tid);
            }
            WriteOp::Update(pick, n) => {
                let tid = victim(&mut self.live, pick);
                let t = &fresh[n];
                let new = self.writer.apply(|db| {
                    let start = Instant::now();
                    let r = db.update(tid, t);
                    inner = ms(start.elapsed());
                    r
                })?;
                self.user_bytes_written += inputs::user_bytes(t);
                self.contents.remove(&tid);
                self.live.push(new);
                self.contents.insert(new, t);
            }
        }
        Ok(inner)
    }
}

/// Create, define, load, maintain to quiescence and warm up: the timed
/// set-up of one repetition.
fn set_up<'a>(cfg: &RunConfig, inputs: &'a Inputs) -> Result<Store<'a>> {
    let vfs = Arc::new(MemVfs::new());
    let opts = LsmOptions {
        memtable_limit: cfg.size.memtable_limit,
        compact_fanout: COMPACT_FANOUT,
        ..LsmOptions::default()
    };
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut writer = Writer::new(LsmDb::create_with_vfs(dyn_vfs, Path::new("/lsm"), opts)?);
    oracle::define_catalog(&inputs.dataset.attr_types, |name, text| {
        if text {
            writer.define_text(name)?;
        } else {
            writer.define_numeric(name)?;
        }
        Ok(())
    })?;
    let mut live = Vec::with_capacity(inputs.dataset.tuples.len());
    let mut contents = BTreeMap::new();
    for t in &inputs.dataset.tuples {
        let tid = writer.insert(t)?;
        live.push(tid);
        contents.insert(tid, t);
    }
    while writer.maintain()? {}
    let reader = writer.reader();
    let req = SearchRequest::new(K);
    for q in inputs.queries.iter().cycle().take(cfg.size.warm) {
        reader.execute(q, &req)?;
    }
    Ok(Store {
        writer,
        vfs,
        live,
        contents,
        user_bytes_written: inputs.dataset.tuples.iter().map(inputs::user_bytes).sum(),
        tier_bytes: BTreeMap::new(),
    })
}

/// Run `post-and-search`.
///
/// As in `table1-warm`, a timing run splits the measured phase into
/// `setup_reps` slices on one store, with a measurement-only set-up
/// between each two.
pub fn run(cfg: &RunConfig) -> Result<Report> {
    let inputs = inputs::generate(&cfg.size, cfg.seed);
    let rss = RssMark::reset();
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut timed_set_up = || -> Result<Store<'_>> {
        let start = Instant::now();
        let s = set_up(cfg, &inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(s)
    };
    let mut store = timed_set_up()?;
    let failed = if cfg.trace {
        traced_phase(cfg, &inputs, &mut store, &mut report)?
    } else {
        let reps = cfg.size.setup_reps.max(1);
        let mut timing = MixedTiming::default();
        for rep in 0..reps {
            if rep > 0 {
                drop(timed_set_up()?);
            }
            let queries = rep * cfg.size.queries / reps..(rep + 1) * cfg.size.queries / reps;
            timing.run(cfg, &inputs, &mut store, queries);
        }
        timing.report(&mut report);
        timing.failed
    };
    let peak_rss = rss.peak_mb();

    // End state against the oracle, over the tuples the benchmark tracked:
    // the workload's queries, plus one query copied from each of the most
    // recently written tuples, whose answers lie in the memtable and the
    // newest segments.
    let reader = store.writer.reader();
    let req = SearchRequest::new(K);
    let mut checks = inputs.queries.clone();
    checks.extend(
        store
            .contents
            .values()
            .rev()
            .take(RECENT_CHECKS)
            .map(|t| query_from(t)),
    );
    let expected = oracle::exact_answers(store.contents.values().copied(), &checks);
    let mut mismatched = 0;
    for (q, want) in checks.iter().zip(&expected) {
        let got: Option<Answer> = reader
            .execute(q, &req)
            .ok()
            .map(|o| oracle::answer(o.hits.iter().map(|h| h.dist)));
        if got.as_ref() != Some(want) {
            mismatched += 1;
        }
    }
    let live_user_bytes: u64 = store.contents.values().map(|t| inputs::user_bytes(t)).sum();
    let stored = store.stored_bytes();
    let n_writes = cfg.size.queries * cfg.size.writes_per_query;
    report.attempted = (cfg.size.queries + n_writes + checks.len()) as u64;
    report.failed = failed + mismatched;
    if !cfg.trace {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric(
            "stored_bytes_per_user_byte",
            stored as f64 / live_user_bytes as f64,
            "ratio",
        );
        report.metric("peak_rss_mb", peak_rss, "MiB");
    }
    let snap = store.writer.snapshot();
    report.info("setup_s_each", format!("{setup_s:.3?}"));
    report.info("tuples", inputs.dataset.tuples.len());
    report.info("distinct_queries", inputs.queries.len());
    report.info("live_tuples", store.contents.len());
    report.info("segments_at_end", snap.segments().len());
    report.info(
        "table_bytes",
        snap.segments()
            .iter()
            .map(|s| s.table().file().size_bytes())
            .sum::<u64>()
            + snap.memtable().table().file().size_bytes(),
    );
    report.info(
        "index_bytes",
        snap.segments()
            .iter()
            .map(|s| s.index().size_bytes())
            .sum::<u64>()
            + snap.memtable().index().size_bytes(),
    );
    report.info(
        "pool_bytes_per_file",
        LsmOptions::default().pager.cache_bytes,
    );
    report.info("stored_bytes", stored);
    report.info("live_user_bytes", live_user_bytes);
    report.info("end_state_mismatches", mismatched);
    Ok(report)
}

/// Timings of the measured phase of a timing run, gathered over one or
/// more slices.
#[derive(Debug, Default)]
struct MixedTiming {
    query_ms: Vec<f64>,
    write_ms: Vec<f64>,
    failed: u64,
    maintenance: u64,
}

impl MixedTiming {
    /// Run the queries numbered `range`, each followed by its writes.
    /// Each write is timed together with the `Writer::maintain` after it.
    fn run<'a>(
        &mut self,
        cfg: &RunConfig,
        inputs: &'a Inputs,
        store: &mut Store<'a>,
        range: std::ops::Range<usize>,
    ) {
        let req = SearchRequest::new(K);
        let reader = store.writer.reader();
        let per_query = cfg.size.writes_per_query;
        for i in range {
            let q = &inputs.queries[i % inputs.queries.len()];
            let start = Instant::now();
            let out = reader.execute(q, &req);
            self.query_ms.push(ms(start.elapsed()));
            self.failed += u64::from(out.is_err());
            for &op in &inputs.writes[i * per_query..(i + 1) * per_query] {
                let start = Instant::now();
                let ok = store.write(op, &inputs.fresh).is_ok();
                let maintained = store.writer.maintain();
                self.write_ms.push(ms(start.elapsed()));
                self.failed += u64::from(!ok) + u64::from(maintained.is_err());
                self.maintenance += u64::from(matches!(maintained, Ok(true)));
            }
        }
    }

    fn report(&self, report: &mut Report) {
        let query_s = self.query_ms.iter().sum::<f64>() / 1e3;
        let write_s = self.write_ms.iter().sum::<f64>() / 1e3;
        report.metric("query_p50_ms", percentile(&self.query_ms, 0.5), "ms");
        report.metric("query_p95_ms", percentile(&self.query_ms, 0.95), "ms");
        report.metric("query_qps", self.query_ms.len() as f64 / query_s, "1/s");
        report.metric("write_p50_ms", percentile(&self.write_ms, 0.5), "ms");
        report.metric("write_p99_ms", percentile(&self.write_ms, 0.99), "ms");
        report.metric("ingest_per_s", self.write_ms.len() as f64 / write_s, "1/s");
        report.info("query_samples", self.query_ms.len());
        report.info("query_ms_vigintiles", vigintiles(&self.query_ms));
        report.info("write_samples", self.write_ms.len());
        report.info("maintenance_events", self.maintenance);
    }
}

/// The measured phase of a traced run: odd passes over the queries, with
/// the writes that follow them, traced; even ones bare for the overhead
/// figure.
///
/// Maintenance always runs as `plan_maintenance` under a read snapshot
/// then `publish_maintenance` under `Writer::apply` (the two halves of
/// `Writer::maintain`), so each half can be timed and each publish can
/// account the write counters of the tiers it retires.
fn traced_phase<'a>(
    cfg: &RunConfig,
    inputs: &'a Inputs,
    store: &mut Store<'a>,
    report: &mut Report,
) -> Result<u64> {
    let req = SearchRequest::new(K);
    let reader = store.writer.reader();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut failed = 0;
    let mut writes = inputs.writes.iter().enumerate();
    for (i, q) in inputs
        .queries
        .iter()
        .cycle()
        .take(cfg.size.queries)
        .enumerate()
    {
        let traced = !(i / inputs.queries.len()).is_multiple_of(2);
        let op = i as u64;
        let start = Instant::now();
        if !traced {
            let out = reader.execute(q, &req);
            layers.untraced_query(start.elapsed().as_secs_f64());
            failed += u64::from(out.is_err());
        } else {
            let (out, exec, tiers, io) = tracer.span("serve.read", None, op, |t, root| {
                let snap = reader.snapshot();
                let tiers = snap.segments().len() + 1;
                let before = tier_io(&snap);
                let (out, exec) = t.span("lsm.execute", Some(root), op, |t, id| {
                    let out = snap.execute(q, &req);
                    if let Ok(o) = &out {
                        core_spans(t, id, op, &o.stats);
                    }
                    (out, id)
                });
                let after = tier_io(&snap);
                let io = (
                    Io::between(&before.0, &after.0),
                    Io::between(&before.1, &after.1),
                );
                (out, exec, tiers, io)
            });
            let exec = tracer.get(exec);
            match out {
                Ok(o) => layers.query(
                    &o.stats,
                    o.hits.len(),
                    tiers,
                    io.0,
                    io.1,
                    exec.end - exec.start,
                    start.elapsed().as_secs_f64(),
                ),
                Err(_) => failed += 1,
            }
        }
        for (w, &wop) in writes.by_ref().take(cfg.size.writes_per_query) {
            let w = w as u64;
            if !traced {
                failed += u64::from(store.write(wop, &inputs.fresh).is_err());
                failed += u64::from(maintain(store, &mut layers, None).is_err());
                continue;
            }
            let name = match wop {
                WriteOp::Insert(_) => "lsm.insert",
                WriteOp::Delete(_) => "lsm.delete",
                WriteOp::Update(..) => "lsm.update",
            };
            let start = Instant::now();
            let res = tracer.span("serve.apply", None, w, |t, id| {
                let r = store.write(wop, &inputs.fresh);
                if let Ok(inner) = r {
                    let end = t.now();
                    t.record(
                        name,
                        end.saturating_sub((inner * 1e6) as u64),
                        end,
                        Some(id),
                        w,
                    );
                }
                r
            });
            layers.apply_ms.push(ms(start.elapsed()));
            match res {
                Ok(inner) if name == "lsm.insert" => layers.insert_us.push(inner * 1e3),
                Ok(_) => {}
                Err(_) => failed += 1,
            }
            failed += u64::from(maintain(store, &mut layers, Some((&mut tracer, w))).is_err());
        }
    }
    layers.write_amp = store.total_bytes_written() as f64 / store.user_bytes_written as f64;
    let snap = store.writer.snapshot();
    layers.rewritten_per_user_byte =
        bytes_written(snap.maintenance_io()) as f64 / store.user_bytes_written as f64;

    let mut rng = SplitMix(cfg.seed ^ 0x5EED_5A3F);
    let live: Vec<Tid> = (0..MICRO_SAMPLE)
        .map(|_| store.live[rng.below(store.live.len() as u64) as usize])
        .collect();
    layers.swt_get_us = swt_get(&mut tracer, &live, |tid| {
        let Some(seg) = snap.segments().iter().find(|s| s.covers(tid)) else {
            return Ok(None);
        };
        let Some(ptr) = seg.lookup_ptr(tid)? else {
            return Ok(None);
        };
        let start = Instant::now();
        std::hint::black_box(seg.table().get(ptr)?);
        Ok(Some(start.elapsed()))
    })?;
    drop(snap);
    let sample: Vec<&Tuple> = live.iter().map(|t| store.contents[t]).collect();
    layers.edit_distance_ns = edit_distance(&mut tracer, &inputs.queries, &sample);
    layers.report(&tracer, report);
    dump(cfg, &tracer);
    Ok(failed)
}

/// Pager counters of every tier's table files and index files.
fn tier_io(db: &LsmDb) -> (iva_file::IoSnapshot, iva_file::IoSnapshot) {
    let mut table = db.memtable().table().file().io_stats().snapshot();
    let mut index = db.memtable().index().io_stats().snapshot();
    for seg in db.segments() {
        add(&mut table, &seg.table_io().snapshot());
        add(&mut index, &seg.index_io().snapshot());
    }
    (table, index)
}

fn add(a: &mut iva_file::IoSnapshot, b: &iva_file::IoSnapshot) {
    a.cache_hits += b.cache_hits;
    a.cache_misses += b.cache_misses;
    a.seq_bytes_read += b.seq_bytes_read;
    a.random_bytes_read += b.random_bytes_read;
}

/// One round of maintenance as `plan_maintenance` under a read snapshot
/// then `publish_maintenance` under `Writer::apply`, spanned when
/// `trace` is given. Counts seals and merges.
fn maintain(
    store: &mut Store<'_>,
    layers: &mut Layers,
    mut trace: Option<(&mut Tracer, u64)>,
) -> Result<()> {
    let start = Instant::now();
    let plan = {
        let snap = store.writer.snapshot();
        snap.plan_maintenance()?
    };
    let prepared = start.elapsed();
    let Some(plan) = plan else {
        return Ok(());
    };
    match plan {
        MaintenancePlan::Seal(_) => layers.seals += 1,
        MaintenancePlan::Merge(_) => layers.merges += 1,
    }
    store.note_tier_bytes();
    let apply_start = Instant::now();
    let mut published = Duration::ZERO;
    store.writer.apply(|db| {
        let start = Instant::now();
        let r = db.publish_maintenance(plan);
        published = start.elapsed();
        r
    })?;
    let applied = apply_start.elapsed();
    if let Some((t, op)) = trace.as_mut() {
        let end = t.now();
        let apply_start = end.saturating_sub(applied.as_nanos() as u64);
        let root_start = apply_start.saturating_sub(prepared.as_nanos() as u64);
        let root = t.record("serve.maintain", root_start, end, None, *op);
        t.record("lsm.prepare", root_start, apply_start, Some(root), *op);
        let apply = t.record("serve.apply", apply_start, end, Some(root), *op);
        let publish_start = end.saturating_sub(published.as_nanos() as u64);
        t.record("lsm.publish", publish_start, end, Some(apply), *op);
        layers.prepare_ms.push(ms(prepared));
        layers.publish_ms.push(ms(published));
    }
    Ok(())
}
