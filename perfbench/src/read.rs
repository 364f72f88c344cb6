//! The read-only workload, `table1-warm`: one closed-loop client cycling
//! through the distinct queries of an in-memory `IvaDb` whose table and
//! index fit their pools.

use std::hint::black_box;
use std::time::Instant;

use iva_file::{IvaDb, IvaDbOptions, Query, Result, SearchRequest, Tid, Tuple};

use crate::inputs::{self, Inputs, SplitMix, K};
use crate::layers::{core_spans, dump, edit_distance, swt_get, Io, Layers, MICRO_SAMPLE};
use crate::measure::{bytes_written, median, ms, percentile, vigintiles, RssMark};
use crate::oracle::{self, Answer};
use crate::trace::Tracer;
use crate::{Report, RunConfig};

/// Create, define the catalog, load and warm up: the timed set-up of one
/// repetition. Also returns the wall time of each insert, in ms.
fn set_up(cfg: &RunConfig, inputs: &Inputs) -> Result<(IvaDb, Vec<f64>)> {
    let mut db = IvaDb::create_mem(IvaDbOptions::default())?;
    oracle::define_catalog(&inputs.dataset.attr_types, |name, text| {
        if text {
            db.define_text(name)?;
        } else {
            db.define_numeric(name)?;
        }
        Ok(())
    })?;
    let mut insert_ms = Vec::with_capacity(inputs.dataset.tuples.len());
    for t in &inputs.dataset.tuples {
        let start = Instant::now();
        db.insert(t)?;
        insert_ms.push(ms(start.elapsed()));
    }
    let req = SearchRequest::new(K);
    for q in inputs.queries.iter().cycle().take(cfg.size.warm) {
        db.execute(q, &req)?;
    }
    Ok((db, insert_ms))
}

/// Run `table1-warm`.
///
/// A timing run sets up once for the engine it queries, then splits the
/// queries into `setup_reps` slices with one more, measurement-only set-up
/// between each two, so set-up and query timings both sample several
/// stretches of the run.
pub fn run(cfg: &RunConfig) -> Result<Report> {
    let inputs = inputs::generate(&cfg.size, cfg.seed);
    let expected = oracle::exact_answers(inputs.dataset.tuples.iter(), &inputs.queries);
    let user_bytes: u64 = inputs.dataset.tuples.iter().map(inputs::user_bytes).sum();
    let rss = RssMark::reset();

    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut insert_ms = Vec::with_capacity(cfg.size.setup_reps * inputs.dataset.tuples.len());
    let mut timed_set_up = || -> Result<IvaDb> {
        let start = Instant::now();
        let (db, times) = set_up(cfg, &inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        insert_ms.extend_from_slice(&times);
        Ok(db)
    };
    let db = timed_set_up()?;
    let ops: Vec<&Query> = inputs
        .queries
        .iter()
        .cycle()
        .take(cfg.size.queries)
        .collect();
    let answers = if cfg.trace {
        traced_phase(cfg, &inputs, &db, &ops, user_bytes, &mut report)?
    } else {
        let reps = cfg.size.setup_reps.max(1);
        let mut timing = QueryTiming::default();
        let mut answers = Vec::with_capacity(ops.len());
        for rep in 0..reps {
            if rep > 0 {
                drop(timed_set_up()?);
            }
            let slice = &ops[rep * ops.len() / reps..(rep + 1) * ops.len() / reps];
            answers.extend(timing.run(&db, slice));
        }
        timing.report(&mut report);
        answers
    };
    report.attempted = answers.len() as u64;
    report.failed = answers
        .iter()
        .enumerate()
        .filter(|(i, a)| a.as_ref() != Some(&expected[i % expected.len()]))
        .count() as u64;

    let (table_bytes, index_bytes) = (db.table().file().size_bytes(), db.index().size_bytes());
    if !cfg.trace {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("write_p50_ms", percentile(&insert_ms, 0.5), "ms");
        report.metric("write_p99_ms", percentile(&insert_ms, 0.99), "ms");
        report.metric(
            "ingest_per_s",
            insert_ms.len() as f64 / (insert_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        report.metric(
            "stored_bytes_per_user_byte",
            (table_bytes + index_bytes) as f64 / user_bytes as f64,
            "ratio",
        );
        report.metric("peak_rss_mb", rss.peak_mb(), "MiB");
    }
    report.info("setup_s_each", format!("{setup_s:.3?}"));
    report.info("write_samples", insert_ms.len());
    report.info("tuples", inputs.dataset.tuples.len());
    report.info("distinct_queries", inputs.queries.len());
    report.info("table_bytes", table_bytes);
    report.info("index_bytes", index_bytes);
    report.info("user_bytes", user_bytes);
    report.info(
        "pool_bytes_per_file",
        IvaDbOptions::default().pager.cache_bytes,
    );
    Ok(report)
}

/// Query latencies of a timing run, gathered over one or more slices.
#[derive(Debug, Default)]
struct QueryTiming {
    latency_ms: Vec<f64>,
    phase_s: f64,
}

impl QueryTiming {
    /// Run `ops`, each timed around the engine call and nothing else
    /// recorded. Returns each query's answer.
    fn run(&mut self, db: &IvaDb, ops: &[&Query]) -> Vec<Option<Answer>> {
        let req = SearchRequest::new(K);
        let mut answers = Vec::with_capacity(ops.len());
        let phase = Instant::now();
        for q in ops {
            let start = Instant::now();
            let out = db.execute(q, &req);
            self.latency_ms.push(ms(start.elapsed()));
            answers.push(
                out.ok()
                    .map(|o| oracle::answer(o.hits.iter().map(|h| h.dist))),
            );
        }
        self.phase_s += phase.elapsed().as_secs_f64();
        answers
    }

    fn report(&self, report: &mut Report) {
        report.metric("query_p50_ms", percentile(&self.latency_ms, 0.5), "ms");
        report.metric("query_p95_ms", percentile(&self.latency_ms, 0.95), "ms");
        report.metric(
            "query_qps",
            self.latency_ms.len() as f64 / self.phase_s,
            "1/s",
        );
        report.info("query_samples", self.latency_ms.len());
        report.info("query_ms_vigintiles", vigintiles(&self.latency_ms));
    }
}

/// The measured phase of a traced run: odd passes over the queries
/// traced, even ones timed bare for the overhead figure; then the `swt` and `text`
/// micro-measurements. Writes the spans out at the end.
fn traced_phase(
    cfg: &RunConfig,
    inputs: &Inputs,
    db: &IvaDb,
    ops: &[&Query],
    user_bytes: u64,
    report: &mut Report,
) -> Result<Vec<Option<Answer>>> {
    let req = SearchRequest::new(K);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut answers = Vec::with_capacity(ops.len());
    for (i, &q) in ops.iter().enumerate() {
        let start = Instant::now();
        if (i / inputs.queries.len()).is_multiple_of(2) {
            let out = db.execute(q, &req);
            layers.untraced_query(start.elapsed().as_secs_f64());
            answers.push(
                out.ok()
                    .map(|o| oracle::answer(o.hits.iter().map(|h| h.dist))),
            );
            continue;
        }
        let (t0, i0) = (db.table_io().snapshot(), db.index_io().snapshot());
        let (out, exec) = tracer.span("db.execute", None, i as u64, |t, id| {
            let out = db.execute(q, &req);
            if let Ok(o) = &out {
                core_spans(t, id, i as u64, &o.stats);
            }
            (out, id)
        });
        let (t1, i1) = (db.table_io().snapshot(), db.index_io().snapshot());
        let exec = tracer.get(exec);
        match out {
            Ok(o) => {
                layers.query(
                    &o.stats,
                    o.hits.len(),
                    1,
                    Io::between(&t0, &t1),
                    Io::between(&i0, &i1),
                    exec.end - exec.start,
                    start.elapsed().as_secs_f64(),
                );
                answers.push(Some(oracle::answer(o.hits.iter().map(|h| h.dist))));
            }
            Err(_) => answers.push(None),
        }
    }
    let written = bytes_written(db.table_io()) + bytes_written(db.index_io());
    layers.write_amp = written as f64 / user_bytes as f64;
    let mut rng = SplitMix(cfg.seed ^ 0x5EED_5A3F);
    let n = inputs.dataset.tuples.len() as u64;
    let tids: Vec<Tid> = (0..MICRO_SAMPLE).map(|_| rng.below(n)).collect();
    layers.swt_get_us = swt_get(&mut tracer, &tids, |tid| {
        let Some(ptr) = db.index().lookup_ptr(tid)? else {
            return Ok(None);
        };
        let start = Instant::now();
        black_box(db.table().get(ptr)?);
        Ok(Some(start.elapsed()))
    })?;
    let sample: Vec<&Tuple> = tids
        .iter()
        .map(|&t| &inputs.dataset.tuples[t as usize])
        .collect();
    layers.edit_distance_ns = edit_distance(&mut tracer, &inputs.queries, &sample);
    layers.report(&tracer, report);
    dump(cfg, &tracer);
    Ok(answers)
}
