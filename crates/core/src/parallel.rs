//! lint:scope(no-panic-decode)
//! Intra-query parallel filtering: Algorithm 1 over tuple-list segments.
//!
//! The tuple list is split into `t` contiguous segments, each scanned by a
//! worker thread with its own cursors and a *private* top-k pool. A worker
//! records every candidate it fetches — `(tid, ptr, estimate, exact
//! distance)` in scan order — and the merge step replays the recorded
//! candidates through one fresh pool in segment order. The replay
//! reproduces the serial pool's evolution exactly, so the final top-k (and
//! `table_accesses`) is bit-identical to [`IvaIndex::query`]:
//!
//! * A worker's pool only ever holds entries from its own segment prefix,
//!   so its admission threshold is never tighter than the serial scan's at
//!   the same position — every candidate the serial scan fetches is also
//!   fetched by the worker owning its segment (superset property).
//! * The replay applies the serial admission rule to that superset in
//!   serial order: by induction its pool equals the serial pool at every
//!   step, so it admits exactly the serially-admitted candidates.
//!
//! Workers refine with early abandon against their *private* pool's
//! threshold (see [`crate::Refiner`]), so a recorded `actual` is either
//! the exact distance or, for an abandoned candidate, some value at or
//! above the worker's threshold at that point. The replay stays exact
//! because the merged pool's threshold at a position is never above the
//! worker's: each of the worker's `k` best candidates either sits in the
//! merged pool's universe too, or was not fetched serially, so its
//! distance is at or above the serial threshold there. An abandoned value
//! is therefore rejected by the replay's `insert_at`, just as the true
//! distance would have been (DESIGN.md §9).
//!
//! Surplus worker fetches the replay rejects are reported as
//! [`QueryStats::speculative_accesses`]; the exact distances they computed
//! are simply discarded. Refinement work rides inside the workers (a fetch
//! happens once, where the candidate is found), so the table file's
//! [`iva_storage::IoStats`] counts each physical access exactly once.

use iva_swt::{RecordPtr, SwtTable};

use crate::error::{IvaError, Result};
use crate::index::{IvaIndex, QueryOutcome, ScanCarry, SharedAttr};
use crate::layout::TOMBSTONE_PTR;
use crate::metric::{Metric, WeightScheme};
use crate::pool::ResultPool;
use crate::query::Query;
use crate::refine::Refiner;
use crate::timing::thread_cpu_time;

/// Smallest tuple-list segment worth a worker thread; requests for more
/// parallelism than `⌈n/64⌉` are clamped.
const MIN_SEGMENT: u64 = 64;

/// Execution knobs for [`IvaIndex::query_opts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Worker threads for the filter scan. `None` defers to
    /// [`crate::IvaConfig::search_threads`]. An effective count of 1 runs
    /// the single-threaded code path; any count returns bit-identical
    /// results.
    pub threads: Option<usize>,
    /// Collect wall-clock phase timings. When false no clock is read on
    /// the hot path and the phase nanos stay 0.
    pub measured: bool,
    /// Refinement batch size `B`. `None` defers to
    /// [`crate::IvaConfig::refine_batch`]; an effective `B ≤ 1` fetches
    /// each admitted candidate immediately (the unbatched plan). Larger
    /// batches defer admitted candidates and fetch them page-ordered and
    /// coalesced; results stay bit-identical for every `B`.
    pub refine_batch: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            threads: None,
            measured: true,
            refine_batch: None,
        }
    }
}

/// One fetched candidate, recorded in scan order for the merge replay.
struct Candidate {
    tid: u64,
    ptr: u64,
    est: f64,
    /// The exact distance, or a value at or above the worker pool's
    /// threshold when refinement abandoned the candidate.
    actual: f64,
}

/// What one worker brings to the merge barrier.
struct SegmentScan {
    candidates: Vec<Candidate>,
    tuples_scanned: u64,
    /// Batched fetches the worker's own flush replay rejected (stale
    /// worker threshold); they never reach the merge.
    speculative: u64,
    filter_nanos: u64,
    refine_nanos: u64,
}

impl IvaIndex {
    /// [`IvaIndex::query`] with explicit execution options: the filter
    /// scan runs on `threads` segments in parallel, the merged result is
    /// bit-identical to the serial scan.
    ///
    /// Counter stats sum across workers; phase timings take the slowest
    /// worker — measured in per-thread CPU time, so the max is the phase's
    /// critical path even when workers outnumber cores — with the merge
    /// counted as filter time.
    pub fn query_opts<M: Metric + Sync>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome> {
        let lambda = self.resolve_weights(query, weights);
        let mut carry = ScanCarry::new(k);
        self.query_carry_opts(table, query, metric, &lambda, opts, &mut carry)?;
        Ok(carry.finish())
    }

    /// [`IvaIndex::query_opts`] threading the candidate pool and counters
    /// through `carry` — the segmented engine's parallel building block.
    /// Workers still scan with private (initially empty) pools, which
    /// admit a superset of what the carried pool would; the merge replay
    /// filters against the carried pool in scan order, so the concatenated
    /// multi-tier scan stays bit-identical to a serial carried scan.
    pub fn query_carry_opts<M: Metric + Sync>(
        &self,
        table: &SwtTable,
        query: &Query,
        metric: &M,
        lambda: &[f64],
        opts: &QueryOptions,
        carry: &mut ScanCarry,
    ) -> Result<()> {
        let n = self.n_tuples();
        let requested = opts
            .threads
            .unwrap_or_else(|| self.config().resolved_search_threads());
        let max_useful = usize::try_from(n.div_ceil(MIN_SEGMENT)).unwrap_or(usize::MAX);
        let threads = requested.min(max_useful).max(1);
        let refine_batch = opts
            .refine_batch
            .unwrap_or_else(|| self.config().resolved_refine_batch())
            .max(1);
        if threads == 1 {
            return self.query_carry_serial(
                table,
                query,
                metric,
                lambda,
                opts.measured,
                refine_batch,
                carry,
            );
        }

        let k = carry.pool.capacity();
        // One prepared table per query — the packed-mask kernels and
        // numeric codecs are immutable and shared by every worker below;
        // workers only open private cursors.
        let shared = self.prepare_query(query)?;
        let ndf = self.config().ndf_penalty;
        let measured = opts.measured;
        let t = threads as u64;
        let bounds: Vec<(u64, u64)> = (0..t).map(|i| (i * n / t, (i + 1) * n / t)).collect();

        let mut slots: Vec<Option<Result<SegmentScan>>> = Vec::new();
        slots.resize_with(bounds.len(), || None);
        crossbeam::thread::scope(|s| {
            for (&(lo, hi), slot) in bounds.iter().zip(slots.iter_mut()) {
                let shared = &shared;
                s.spawn(move |_| {
                    *slot = Some(self.scan_segment(
                        table,
                        query,
                        shared,
                        k,
                        metric,
                        lambda,
                        ndf,
                        lo,
                        hi,
                        measured,
                        refine_batch,
                    ));
                });
            }
        })
        .map_err(|_| IvaError::Corrupt("filter worker panicked".into()))?;

        // Merge barrier: replay recorded candidates in segment order
        // through the carried pool (see module doc for why this reproduces
        // the serial scan exactly).
        let merge_start = measured.then(thread_cpu_time);
        let ScanCarry { pool, stats } = carry;
        let mut max_filter = 0u64;
        let mut max_refine = 0u64;
        for slot in slots {
            let seg = slot.ok_or_else(|| IvaError::Corrupt("worker slot unfilled".into()))??;
            stats.tuples_scanned += seg.tuples_scanned;
            stats.speculative_accesses += seg.speculative;
            max_filter = max_filter.max(seg.filter_nanos);
            max_refine = max_refine.max(seg.refine_nanos);
            for c in seg.candidates {
                if pool.admits(c.est) {
                    stats.table_accesses += 1;
                    pool.insert_at(c.tid, c.actual, RecordPtr(c.ptr));
                } else {
                    stats.speculative_accesses += 1;
                }
            }
        }
        if let Some(m) = merge_start {
            max_filter += thread_cpu_time().saturating_sub(m);
        }
        stats.filter_nanos += max_filter;
        stats.refine_nanos += max_refine;
        // Tier accounting once for the merged plan — the workers scanned
        // the same prepared attributes, so per-worker accounting would
        // multiply the breakdown by the thread count.
        self.tier_stats_into(&shared, self.tuple_is_hot(), stats);
        Ok(())
    }

    /// Scan tuple-list positions `[lo, hi)` with private cursors and pool,
    /// recording every candidate that survives the worker's own batch
    /// replay (with `refine_batch ≤ 1`, every fetched candidate).
    #[allow(clippy::too_many_arguments)]
    fn scan_segment<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        shared: &[SharedAttr],
        k: usize,
        metric: &M,
        lambda: &[f64],
        ndf: f64,
        lo: u64,
        hi: u64,
        measured: bool,
        refine_batch: usize,
    ) -> Result<SegmentScan> {
        let mut cursors = self.open_cursors(shared)?;
        self.seek_cursors(shared, &mut cursors, lo)?;
        let mut tsrc = self.open_tuple_source()?;
        tsrc.skip_entries(lo)?;
        let mut pool = ResultPool::new(k);
        let mut out = SegmentScan {
            candidates: Vec::new(),
            tuples_scanned: 0,
            speculative: 0,
            filter_nanos: 0,
            refine_nanos: 0,
        };
        let mut diffs = vec![0.0f64; query.len()];
        let mut refiner = Refiner::new(query, lambda, metric, ndf);
        // Admitted-but-not-yet-fetched candidates, `(ptr, est)` in scan
        // order; flushed as one page-coalesced batch read.
        let mut pending: Vec<(u64, f64)> = Vec::new();
        let start = measured.then(thread_cpu_time);
        for _ in lo..hi {
            let (tid, ptr) = tsrc.next_entry()?;
            out.tuples_scanned += 1;
            if ptr == TOMBSTONE_PTR {
                self.skip_cursors(shared, &mut cursors, tid)?;
                continue;
            }
            self.lower_bounds_into(shared, &mut cursors, tid, lambda, ndf, &mut diffs)?;
            let est = metric.combine(&diffs);
            if pool.admits(est) {
                if refine_batch <= 1 {
                    let refine_start = measured.then(thread_cpu_time);
                    let (tid, actual) = refiner.fetch(table, RecordPtr(ptr), pool.threshold())?;
                    pool.insert_at(tid, actual, RecordPtr(ptr));
                    out.candidates.push(Candidate {
                        tid,
                        ptr,
                        est,
                        actual,
                    });
                    if let Some(rt) = refine_start {
                        out.refine_nanos += thread_cpu_time().saturating_sub(rt);
                    }
                } else {
                    pending.push((ptr, est));
                    if pending.len() >= refine_batch {
                        let refine_start = measured.then(thread_cpu_time);
                        flush_pending(table, &mut refiner, &mut pending, &mut pool, &mut out)?;
                        if let Some(rt) = refine_start {
                            out.refine_nanos += thread_cpu_time().saturating_sub(rt);
                        }
                    }
                }
            }
        }
        if !pending.is_empty() {
            let refine_start = measured.then(thread_cpu_time);
            flush_pending(table, &mut refiner, &mut pending, &mut pool, &mut out)?;
            if let Some(rt) = refine_start {
                out.refine_nanos += thread_cpu_time().saturating_sub(rt);
            }
        }
        if let Some(st) = start {
            out.filter_nanos = thread_cpu_time()
                .saturating_sub(st)
                .saturating_sub(out.refine_nanos);
        }
        Ok(out)
    }
}

/// Flush a worker's deferred candidates: fetch them as one page-ordered,
/// coalesced batch, then replay the admission test in scan order against
/// the worker pool. The scan-time test used a threshold at most `B − 1`
/// inserts stale, so the pending set is a superset of what the unbatched
/// worker fetches; the replay filters it back down to exactly that set
/// (rejects are counted speculative), keeping the merge input — and the
/// final top-k — bit-identical for every batch size.
fn flush_pending<M: Metric>(
    table: &SwtTable,
    refiner: &mut Refiner<'_, M>,
    pending: &mut Vec<(u64, f64)>,
    pool: &mut ResultPool,
    out: &mut SegmentScan,
) -> Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    let ptrs: Vec<RecordPtr> = pending.iter().map(|&(p, _)| RecordPtr(p)).collect();
    let pins = table.file().pin_records(&ptrs)?;
    for (i, &(ptr, est)) in pending.iter().enumerate() {
        if pool.admits(est) {
            let (tid, actual) = refiner.fetch_pinned(table, &pins, i, pool.threshold())?;
            pool.insert_at(tid, actual, RecordPtr(ptr));
            out.candidates.push(Candidate {
                tid,
                ptr,
                est,
                actual,
            });
        } else {
            out.speculative += 1;
        }
    }
    pending.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, IndexTarget};
    use crate::config::IvaConfig;
    use crate::metric::MetricKind;
    use iva_storage::{IoStats, PagerOptions};
    use iva_swt::{AttrId, Tuple, Value};

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 512,
            cache_bytes: 256 * 1024,
        }
    }

    /// A table wide enough to exercise every list type: a dense text
    /// attribute (Type III), a sparse one (I or II), a dense numeric
    /// (Type IV) and a sparse numeric (Type I).
    fn table(n: u32) -> SwtTable {
        let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let dense_txt = t.define_text("title").unwrap();
        let sparse_txt = t.define_text("note").unwrap();
        let dense_num = t.define_numeric("price").unwrap();
        let sparse_num = t.define_numeric("stock").unwrap();
        for i in 0..n {
            let mut tup = Tuple::new();
            if i % 5 != 0 {
                tup.set(dense_txt, Value::text(format!("product listing {i:04}")));
            }
            if i % 13 == 0 {
                tup.set(sparse_txt, Value::text(format!("note {i}")));
            }
            if i % 2 == 0 {
                tup.set(dense_num, Value::num(f64::from(i % 97)));
            }
            if i % 11 == 0 {
                tup.set(sparse_num, Value::num(f64::from(i)));
            }
            t.insert(&tup).unwrap();
        }
        t
    }

    fn probe() -> Query {
        Query::new()
            .text(AttrId(0), "product listing 0042")
            .text(AttrId(1), "note 39")
            .num(AttrId(2), 42.0)
            .num(AttrId(3), 33.0)
    }

    fn assert_bit_identical(a: &QueryOutcome, b: &QueryOutcome, label: &str) {
        assert_eq!(a.results.len(), b.results.len(), "{label}: result count");
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.tid, y.tid, "{label}");
            assert_eq!(x.ptr, y.ptr, "{label}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{label}");
        }
        assert_eq!(a.stats.tuples_scanned, b.stats.tuples_scanned, "{label}");
        assert_eq!(a.stats.table_accesses, b.stats.table_accesses, "{label}");
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let table = table(600);
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let q = probe();
        for k in [1usize, 5, 20] {
            let serial = index
                .query(&table, &q, k, &MetricKind::L2, WeightScheme::Equal)
                .unwrap();
            for threads in [2usize, 4, 8] {
                let o = QueryOptions {
                    threads: Some(threads),
                    measured: true,
                    refine_batch: None,
                };
                let par = index
                    .query_opts(&table, &q, k, &MetricKind::L2, WeightScheme::Equal, &o)
                    .unwrap();
                assert_bit_identical(&serial, &par, &format!("k={k} threads={threads}"));
            }
        }
    }

    #[test]
    fn parallel_matches_serial_with_tombstones_and_appends() {
        let table = table(400);
        let mut index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        // Tombstone a spread of tuples, including segment-boundary areas.
        for tid in [0u64, 99, 100, 101, 199, 200, 350, 399] {
            assert!(index.delete(tid).unwrap());
        }
        let q = probe();
        let serial = index
            .query(&table, &q, 10, &MetricKind::L1, WeightScheme::Equal)
            .unwrap();
        for threads in [2usize, 3, 7] {
            let o = QueryOptions {
                threads: Some(threads),
                measured: false,
                refine_batch: None,
            };
            let par = index
                .query_opts(&table, &q, 10, &MetricKind::L1, WeightScheme::Equal, &o)
                .unwrap();
            assert_bit_identical(&serial, &par, &format!("threads={threads}"));
            assert_eq!(par.stats.filter_nanos, 0, "unmeasured run read the clock");
            assert_eq!(par.stats.refine_nanos, 0);
        }
    }

    #[test]
    fn thread_count_clamps_to_segment_floor() {
        let table = table(100); // ⌈100/64⌉ = 2 useful segments
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let q = probe();
        let serial = index
            .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let o = QueryOptions {
            threads: Some(64),
            measured: true,
            refine_batch: None,
        };
        let par = index
            .query_opts(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal, &o)
            .unwrap();
        assert_bit_identical(&serial, &par, "clamped");
    }

    #[test]
    fn speculative_accesses_only_in_parallel_runs() {
        let table = table(600);
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let q = probe();
        let serial = index
            .query(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        assert_eq!(serial.stats.speculative_accesses, 0);
        let o = QueryOptions {
            threads: Some(4),
            measured: true,
            refine_batch: None,
        };
        let par = index
            .query_opts(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal, &o)
            .unwrap();
        // Workers 2..4 start with empty pools, so they must over-fetch at
        // least their warm-up candidates.
        assert!(par.stats.speculative_accesses > 0);
        assert_eq!(par.stats.table_accesses, serial.stats.table_accesses);
    }
}
