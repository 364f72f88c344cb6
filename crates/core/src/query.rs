//! Structured similarity queries (Sec. III-A).
//!
//! A query defines values on a small subset of attributes — a string on a
//! text attribute or a number on a numerical one — and asks for the top-k
//! tuples under `D(T,Q) = f(λ₁d₁, …, λ_qd_q)`.

use iva_swt::{AttrId, Tuple, Value};
use iva_text::edit_distance_bytes;

use crate::metric::Metric;

/// The value a query defines on one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A number on a numerical attribute.
    Num(f64),
    /// A single string on a text attribute.
    Text(String),
}

/// A structured similarity query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    values: Vec<(AttrId, QueryValue)>,
}

impl Query {
    /// Empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a string value (builder style).
    pub fn text(mut self, attr: AttrId, s: impl Into<String>) -> Self {
        self.set(attr, QueryValue::Text(s.into()));
        self
    }

    /// Define a numerical value (builder style).
    pub fn num(mut self, attr: AttrId, v: f64) -> Self {
        self.set(attr, QueryValue::Num(v));
        self
    }

    /// Define or replace a value.
    pub fn set(&mut self, attr: AttrId, value: QueryValue) {
        match self.values.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (attr, value)),
        }
    }

    /// Number of defined values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values are defined.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Index of `attr` in iteration order, if the query defines it.
    pub(crate) fn position(&self, attr: AttrId) -> Option<usize> {
        self.values.binary_search_by_key(&attr, |(a, _)| *a).ok()
    }

    /// Iterate `(attr, value)` in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &QueryValue)> {
        self.values.iter().map(|(a, v)| (*a, v))
    }
}

/// Exact per-attribute difference `d[A](T,Q)` (Sec. III-A): edit distance
/// minimum over the value's strings for text, absolute difference for
/// numbers, `ndf_penalty` for undefined cells.
pub fn attr_difference(value: Option<&Value>, qv: &QueryValue, ndf_penalty: f64) -> f64 {
    match (value, qv) {
        (None, _) => ndf_penalty,
        (Some(Value::Num(v)), QueryValue::Num(q)) => (q - v).abs(),
        (Some(Value::Text(strings)), QueryValue::Text(q)) => strings
            .iter()
            .map(|s| edit_distance_bytes(q.as_bytes(), s.as_bytes()) as f64)
            .fold(f64::INFINITY, f64::min),
        // Type mismatches cannot happen through the typed build/query APIs;
        // treat defensively as ndf.
        _ => ndf_penalty,
    }
}

/// Exact distance `D(T,Q)` given resolved weights (one `λ` per query value,
/// in query iteration order).
pub fn exact_distance<M: Metric>(
    tuple: &Tuple,
    query: &Query,
    weights: &[f64],
    metric: &M,
    ndf_penalty: f64,
) -> f64 {
    debug_assert_eq!(weights.len(), query.len());
    let mut diffs = Vec::with_capacity(query.len());
    for ((attr, qv), &w) in query.iter().zip(weights) {
        diffs.push(w * attr_difference(tuple.get(attr), qv, ndf_penalty));
    }
    metric.combine(&diffs)
}

/// Per-query measurement counters, used by the experiment harness to split
/// filtering from refinement as in Fig. 9/15 of the paper.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Tuples examined in the filter step.
    pub tuples_scanned: u64,
    /// Candidates that passed the filter and were fetched from the table
    /// file (the paper's "table file accesses", Fig. 8). Identical for
    /// serial and parallel execution of the same query.
    pub table_accesses: u64,
    /// Extra table fetches made by parallel filter workers whose private
    /// pools admit more loosely than the merged pool (0 when
    /// single-threaded). Physical reads beyond the serial plan's — the
    /// price paid for segment parallelism.
    pub speculative_accesses: u64,
    /// Time spent scanning the index and estimating distances, in nanos.
    pub filter_nanos: u64,
    /// Time spent on random table accesses + exact distances, in nanos.
    pub refine_nanos: u64,
    /// Query attributes whose filter scan was served entirely from the
    /// in-RAM hot tier (zero pager traffic for that attribute's vector
    /// list). The tier is a cache: hits never change answers, only which
    /// medium paid for the scan.
    pub hot_tier_attrs: u64,
    /// Query attributes whose filter scan went through the pager (the
    /// durable iVA-file path). `hot_tier_attrs + cold_tier_attrs` counts
    /// every query attribute that had a vector list to scan.
    pub cold_tier_attrs: u64,
    /// Bytes of signature/code columns swept in RAM for hot attributes.
    pub hot_tier_bytes_scanned: u64,
    /// Vector-list bytes scanned through the pager for cold attributes.
    pub cold_tier_bytes_scanned: u64,
    /// *Logical* (raw-layout-equivalent) bytes of the lists behind this
    /// query's filter phase: the tuple list plus every query attribute's
    /// vector list at its uncompressed size, whatever encoding or tier
    /// actually served the scan. The denominator of the compression ratio.
    pub list_bytes_logical: u64,
    /// *Physical* page-padded bytes of the same lists as stored: each
    /// list's on-disk (possibly packed) size rounded up to whole pager
    /// pages. `list_bytes_logical / list_bytes_physical` > 1 means the
    /// packed encodings shrank this query's filter working set.
    pub list_bytes_physical: u64,
}

impl QueryStats {
    /// Filter time in milliseconds.
    pub fn filter_ms(&self) -> f64 {
        self.filter_nanos as f64 / 1e6
    }

    /// Refine time in milliseconds.
    pub fn refine_ms(&self) -> f64 {
        self.refine_nanos as f64 / 1e6
    }

    /// Total query time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.filter_nanos + self.refine_nanos) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricKind;

    #[test]
    fn builder_sorts_and_replaces() {
        let q = Query::new()
            .num(AttrId(5), 1.0)
            .text(AttrId(1), "x")
            .num(AttrId(5), 2.0);
        assert_eq!(q.len(), 2);
        let attrs: Vec<u32> = q.iter().map(|(a, _)| a.0).collect();
        assert_eq!(attrs, vec![1, 5]);
        assert_eq!(q.iter().nth(1).unwrap().1, &QueryValue::Num(2.0));
    }

    #[test]
    fn attr_difference_cases() {
        assert_eq!(attr_difference(None, &QueryValue::Num(5.0), 20.0), 20.0);
        assert_eq!(
            attr_difference(Some(&Value::num(3.0)), &QueryValue::Num(5.0), 20.0),
            2.0
        );
        let v = Value::texts(["Canon", "Cannon"]);
        assert_eq!(
            attr_difference(Some(&v), &QueryValue::Text("Canon".into()), 20.0),
            0.0
        );
        let v = Value::text("Cannon");
        assert_eq!(
            attr_difference(Some(&v), &QueryValue::Text("Canon".into()), 20.0),
            1.0
        );
    }

    #[test]
    fn mismatched_types_fall_back_to_penalty() {
        let v = Value::num(3.0);
        assert_eq!(
            attr_difference(Some(&v), &QueryValue::Text("x".into()), 20.0),
            20.0
        );
    }

    #[test]
    fn exact_distance_example_4_1_style() {
        // f = d_Lens + d_Brand with ndf penalty 20 (the paper's Ex. 4.1).
        let lens = AttrId(0);
        let brand = AttrId(1);
        let q = Query::new().text(lens, "Wide-angle").text(brand, "Canon");
        let weights = [1.0, 1.0];
        // Tuple 0: Lens = "Wide-angle", Brand ndf -> distance 0 + 20... but
        // the example's tuple 0 has Brand "Sony" (ed 4 with weight 1: 0+4).
        let t0 = Tuple::new()
            .with(lens, Value::text("Wide-angle"))
            .with(brand, Value::text("Sony"));
        let d0 = exact_distance(&t0, &q, &weights, &MetricKind::L1, 20.0);
        assert_eq!(d0, 4.0);
        // Tuple 5: Lens = {"Telephoto","Wide-angle"}, Brand = "Cannon".
        let t5 = Tuple::new()
            .with(lens, Value::texts(["Telephoto", "Wide-angle"]))
            .with(brand, Value::text("Cannon"));
        let d5 = exact_distance(&t5, &q, &weights, &MetricKind::L1, 20.0);
        assert_eq!(d5, 1.0);
    }

    #[test]
    fn stats_time_conversions() {
        let s = QueryStats {
            filter_nanos: 2_500_000,
            refine_nanos: 500_000,
            ..Default::default()
        };
        assert_eq!(s.filter_ms(), 2.5);
        assert_eq!(s.refine_ms(), 0.5);
        assert_eq!(s.total_ms(), 3.0);
    }
}
