//! lint:scope(no-panic-decode)
//! Multi-query batch execution: one shared tuple-list scan serving many
//! queries at once (the admission-batching substrate of the serving layer).
//!
//! A serving front end that admits several concurrent top-k requests can
//! run them as a *batch*: the tuple list is read once per scan position —
//! not once per query — and the refinement fetches of all queries are
//! pooled into shared page-coalesced
//! [`TableFile::pin_records`](iva_swt::TableFile::pin_records) rounds, so
//! concurrent queries share buffer-pool pages the way the paper's cost
//! model assumes (Sec. V-A's cache regime).
//!
//! Bit-identity. Each query keeps private cursors, a private top-k pool
//! and private deferred candidates; only the tuple-list read and the
//! physical fetch rounds are shared. A shared round flushes every query's
//! pending candidates whenever the *combined* count reaches `B`, which
//! means one query's flush schedule depends on its neighbors — but the
//! PR 3 replay argument is schedule-independent: at any flush point a
//! query's scan-time admission threshold is at most "rows since its last
//! flush" inserts stale (a superset of the serial admissions), and the
//! replay applies the exact admission rule in scan order against the
//! up-to-date pool, reproducing the serial pool evolution exactly. The
//! top-k and `table_accesses` of every batch member are therefore
//! bit-identical to running that query alone through
//! [`IvaIndex::query_opts`], for every batch composition and every `B`;
//! surplus fetches land in [`QueryStats::speculative_accesses`].
//!
//! Phase timings are per-*batch*, not per-query: every member reports the
//! same shared-scan filter time and shared-round refine time, because the
//! work genuinely is shared and cannot be attributed to one member. Treat
//! the nanos of a batched outcome as "cost of the round you rode in".

use iva_swt::{RecordPtr, SwtTable};

use crate::error::Result;
use crate::index::{AttrCursor, IvaIndex, QueryOutcome, SharedAttr};
use crate::layout::TOMBSTONE_PTR;
use crate::metric::{Metric, WeightScheme};
use crate::parallel::QueryOptions;
use crate::pool::ResultPool;
use crate::query::{Query, QueryStats};
use crate::refine::Refiner;
use crate::timing::thread_cpu_time;

/// One query of a batch submitted to [`IvaIndex::query_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The query.
    pub query: &'a Query,
    /// Result-pool size (top-k).
    pub k: usize,
    /// Attribute weighting scheme.
    pub weights: WeightScheme,
}

/// Private per-query scan state: everything except the tuple-list read and
/// the physical fetch rounds.
struct ItemState<'a, M: Metric> {
    lambda: &'a [f64],
    shared: Vec<SharedAttr>,
    cursors: Vec<AttrCursor>,
    pool: ResultPool,
    stats: QueryStats,
    diffs: Vec<f64>,
    /// Admitted-but-not-yet-fetched candidates, `(ptr, est)` in scan order.
    pending: Vec<(u64, f64)>,
    refiner: Refiner<'a, M>,
}

/// One shared refinement round: concatenate every item's pending fetches
/// into a single page-coalesced batch read, then replay each item's
/// admission test in scan order against its now-current pool (see the
/// module doc for why this keeps every member bit-identical).
fn flush_shared<M: Metric>(table: &SwtTable, items: &mut [ItemState<'_, M>]) -> Result<()> {
    let mut ptrs: Vec<RecordPtr> = Vec::new();
    for st in items.iter() {
        ptrs.extend(st.pending.iter().map(|&(p, _)| RecordPtr(p)));
    }
    if ptrs.is_empty() {
        return Ok(());
    }
    let pins = table.file().pin_records(&ptrs)?;
    let mut i = 0;
    for st in items.iter_mut() {
        for &(ptr, est) in &st.pending {
            if st.pool.admits(est) {
                st.stats.table_accesses += 1;
                let (tid, actual) =
                    st.refiner
                        .fetch_pinned(table, &pins, i, st.pool.threshold())?;
                st.pool.insert_at(tid, actual, RecordPtr(ptr));
            } else {
                st.stats.speculative_accesses += 1;
            }
            i += 1;
        }
        st.pending.clear();
    }
    Ok(())
}

impl IvaIndex {
    /// Run a batch of top-k queries over one shared tuple-list scan with
    /// shared refinement rounds. Every member's top-k and
    /// `table_accesses` are bit-identical to running it alone through
    /// [`IvaIndex::query_opts`] — for any batch composition and any
    /// `refine_batch` (see the module doc). A singleton batch falls back
    /// to the ordinary (possibly parallel) single-query plan;
    /// `opts.threads` is otherwise ignored — batching *is* the
    /// parallelism here, across queries instead of across segments.
    pub fn query_batch<M: Metric + Sync>(
        &self,
        table: &SwtTable,
        batch: &[BatchItem<'_>],
        metric: &M,
        opts: &QueryOptions,
    ) -> Result<Vec<QueryOutcome>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        if batch.len() == 1 {
            let mut out = Vec::with_capacity(1);
            for it in batch {
                out.push(self.query_opts(table, it.query, it.k, metric, it.weights, opts)?);
            }
            return Ok(out);
        }
        let refine_batch = opts
            .refine_batch
            .unwrap_or_else(|| self.config().resolved_refine_batch())
            .max(1);
        let measured = opts.measured;
        let ndf = self.config().ndf_penalty;

        let lambdas: Vec<Vec<f64>> = batch
            .iter()
            .map(|it| self.resolve_weights(it.query, it.weights))
            .collect();
        let mut items = Vec::with_capacity(batch.len());
        for (it, lambda) in batch.iter().zip(&lambdas) {
            let shared = self.prepare_query(it.query)?;
            let cursors = self.open_cursors(&shared)?;
            items.push(ItemState {
                lambda,
                shared,
                cursors,
                pool: ResultPool::new(it.k),
                stats: QueryStats::default(),
                diffs: vec![0.0f64; it.query.len()],
                pending: Vec::new(),
                refiner: Refiner::new(it.query, lambda, metric, ndf),
            });
        }

        let mut tsrc = self.open_tuple_source()?;
        let tuple_hot = tsrc.is_hot();
        let mut total_pending = 0usize;
        let mut refine_nanos = 0u64;
        let start = measured.then(thread_cpu_time);
        for _ in 0..self.n_tuples() {
            let (tid, ptr) = tsrc.next_entry()?;
            if ptr == TOMBSTONE_PTR {
                for st in items.iter_mut() {
                    st.stats.tuples_scanned += 1;
                    self.skip_cursors(&st.shared, &mut st.cursors, tid)?;
                }
                continue;
            }
            for st in items.iter_mut() {
                st.stats.tuples_scanned += 1;
                self.lower_bounds_into(
                    &st.shared,
                    &mut st.cursors,
                    tid,
                    st.lambda,
                    ndf,
                    &mut st.diffs,
                )?;
                let est = metric.combine(&st.diffs);
                if st.pool.admits(est) {
                    st.pending.push((ptr, est));
                    total_pending += 1;
                }
            }
            if total_pending >= refine_batch {
                let refine_start = measured.then(thread_cpu_time);
                flush_shared(table, &mut items)?;
                total_pending = 0;
                if let Some(t) = refine_start {
                    refine_nanos += thread_cpu_time().saturating_sub(t);
                }
            }
        }
        if total_pending > 0 {
            let refine_start = measured.then(thread_cpu_time);
            flush_shared(table, &mut items)?;
            if let Some(t) = refine_start {
                refine_nanos += thread_cpu_time().saturating_sub(t);
            }
        }
        let total_nanos = start.map(|t| thread_cpu_time().saturating_sub(t));

        let mut out = Vec::with_capacity(items.len());
        for mut st in items {
            if let Some(total) = total_nanos {
                st.stats.refine_nanos = refine_nanos;
                st.stats.filter_nanos = total.saturating_sub(refine_nanos);
            }
            self.tier_stats_into(&st.shared, tuple_hot, &mut st.stats);
            out.push(QueryOutcome {
                results: st.pool.into_sorted(),
                stats: st.stats,
            });
        }
        Ok(out)
    }
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

    /// A spread of distinct probes so batch members chase different
    /// candidates and flush on different schedules.
    fn probes() -> Vec<Query> {
        vec![
            Query::new()
                .text(AttrId(0), "product listing 0042")
                .num(AttrId(2), 42.0),
            Query::new().text(AttrId(1), "note 39").num(AttrId(3), 33.0),
            Query::new()
                .text(AttrId(0), "product listing 0511")
                .text(AttrId(1), "note 13")
                .num(AttrId(2), 7.0),
            Query::new().num(AttrId(2), 90.0).num(AttrId(3), 121.0),
        ]
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
    fn batch_matches_solo_bit_for_bit() {
        let table = table(600);
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let qs = probes();
        let ks = [3usize, 10, 1, 5];
        let solo: Vec<QueryOutcome> = qs
            .iter()
            .zip(ks)
            .map(|(q, k)| {
                index
                    .query(&table, q, k, &MetricKind::L2, WeightScheme::Equal)
                    .unwrap()
            })
            .collect();
        for refine_batch in [1usize, 2, 7, 64, 1024] {
            let o = QueryOptions {
                threads: Some(1),
                measured: true,
                refine_batch: Some(refine_batch),
            };
            let items: Vec<BatchItem<'_>> = qs
                .iter()
                .zip(ks)
                .map(|(query, k)| BatchItem {
                    query,
                    k,
                    weights: WeightScheme::Equal,
                })
                .collect();
            let batch = index
                .query_batch(&table, &items, &MetricKind::L2, &o)
                .unwrap();
            assert_eq!(batch.len(), solo.len());
            for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
                assert_bit_identical(s, b, &format!("B={refine_batch} item={i}"));
            }
        }
    }

    #[test]
    fn batch_matches_solo_with_tombstones() {
        let table = table(400);
        let mut index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        for tid in [0u64, 99, 100, 101, 199, 200, 350, 399] {
            assert!(index.delete(tid).unwrap());
        }
        let qs = probes();
        let solo: Vec<QueryOutcome> = qs
            .iter()
            .map(|q| {
                index
                    .query(&table, q, 10, &MetricKind::L1, WeightScheme::Equal)
                    .unwrap()
            })
            .collect();
        let o = QueryOptions {
            threads: Some(1),
            measured: false,
            refine_batch: Some(16),
        };
        let items: Vec<BatchItem<'_>> = qs
            .iter()
            .map(|query| BatchItem {
                query,
                k: 10,
                weights: WeightScheme::Equal,
            })
            .collect();
        let batch = index
            .query_batch(&table, &items, &MetricKind::L1, &o)
            .unwrap();
        for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
            assert_bit_identical(s, b, &format!("item={i}"));
            assert_eq!(b.stats.filter_nanos, 0, "unmeasured run read the clock");
            assert_eq!(b.stats.refine_nanos, 0);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let table = table(200);
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let o = QueryOptions::default();
        assert!(index
            .query_batch(&table, &[], &MetricKind::L2, &o)
            .unwrap()
            .is_empty());
        let q = Query::new().text(AttrId(0), "product listing 0042");
        let solo = index
            .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let batch = index
            .query_batch(
                &table,
                &[BatchItem {
                    query: &q,
                    k: 5,
                    weights: WeightScheme::Equal,
                }],
                &MetricKind::L2,
                &o,
            )
            .unwrap();
        assert_bit_identical(&solo, &batch[0], "singleton");
    }

    #[test]
    fn identical_members_get_identical_answers() {
        let table = table(300);
        let index = build_index(
            &table,
            IndexTarget::Mem,
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        let q = Query::new()
            .text(AttrId(0), "product listing 0123")
            .num(AttrId(2), 23.0);
        let items = vec![
            BatchItem {
                query: &q,
                k: 7,
                weights: WeightScheme::Equal,
            };
            3
        ];
        let o = QueryOptions {
            threads: Some(1),
            measured: true,
            refine_batch: Some(8),
        };
        let batch = index
            .query_batch(&table, &items, &MetricKind::L2, &o)
            .unwrap();
        let solo = index
            .query(&table, &q, 7, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        for b in &batch {
            assert_bit_identical(&solo, b, "identical member");
        }
    }
}
