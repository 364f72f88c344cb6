//! lint:scope(no-panic-decode)
//! Refinement: fetch one admitted candidate and score it against the query
//! (the random table access plus exact distance of Algorithm 1, lines
//! 11–12). Every query plan refines through [`Refiner`].
//!
//! Three things keep a candidate cheap:
//!
//! * **Projection, borrowed.** The payload is read into a buffer reused
//!   across candidates and walked with [`RecordFields`]; only the query's
//!   attributes are kept, as positions in the buffer. Nothing is decoded
//!   into owned values, yet every check of
//!   [`decode_record`](iva_swt::decode_record) still runs on every field.
//! * **Early abandon.** Admission is the strict `dist < threshold`
//!   (`ResultPool::threshold`), so a candidate only needs its exact
//!   distance if that distance is below the threshold. Numeric and ndf
//!   differences come first; with the text differences still set to 0 the
//!   metric's combine is a lower bound (Property 3.1), and the candidate
//!   is abandoned once that bound reaches the threshold.
//! * **Bounded text verification.** Before each text attribute, the
//!   smallest integer edit distance `d` whose combine reaches the
//!   threshold is found by probing the metric. The bounded verifier
//!   [`edit_distance_within_in`] then runs with bound `d − 1`, tightened
//!   to `best − 1` across the strings of a multi-string value, with its
//!   working space reused. If no string comes within the bound, the
//!   candidate is abandoned.
//!
//! An abandoned candidate reports a value `≥ threshold`, which the pool
//! rejects exactly as it would have rejected the true distance. Below the
//! threshold the result has the same bits as [`crate::exact_distance`] on
//! the decoded tuple: the same per-attribute differences, in the same
//! order, through the same combine. See DESIGN.md §9.

use iva_swt::{FieldRef, RecordFields, RecordPins, RecordPtr, SwtError, SwtTable, TextSpan, Tid};
use iva_text::{edit_distance_within_in, EditScratch};

use crate::error::{IvaError, Result};
use crate::metric::Metric;
use crate::query::{Query, QueryValue};

/// A query attribute's cell, as found in the candidate's record.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Ndf,
    Num(f64),
    Text(TextSpan),
}

/// Fetches candidates and scores them against one query, reusing its
/// buffers across candidates. One per query per thread.
pub struct Refiner<'q, M: Metric> {
    query: &'q Query,
    lambda: &'q [f64],
    metric: &'q M,
    ndf: f64,
    payload: Vec<u8>,
    scratch: Scratch,
}

/// Per-candidate working space, kept apart from the payload buffer it
/// points into.
#[derive(Debug, Default)]
struct Scratch {
    cells: Vec<Cell>,
    diffs: Vec<f64>,
    probe: Vec<f64>,
    edit: EditScratch,
}

impl<'q, M: Metric> Refiner<'q, M> {
    /// A refiner for `query` with resolved weights `lambda` (one per query
    /// value, in query order) and the index's ndf penalty.
    pub fn new(query: &'q Query, lambda: &'q [f64], metric: &'q M, ndf: f64) -> Self {
        Self {
            query,
            lambda,
            metric,
            ndf,
            payload: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Fetch the record at `ptr` and score it against `threshold`: the
    /// tuple id and its exact distance if that is below `threshold`,
    /// otherwise some value `≥ threshold`.
    pub fn fetch(
        &mut self,
        table: &SwtTable,
        ptr: RecordPtr,
        threshold: f64,
    ) -> Result<(Tid, f64)> {
        let head = table.file().read_payload(ptr, &mut self.payload)?;
        Ok((head.tid, self.score_payload(threshold)?))
    }

    /// [`Refiner::fetch`] for the `i`-th record of a batch pinned with
    /// [`iva_swt::TableFile::pin_records`].
    pub fn fetch_pinned(
        &mut self,
        table: &SwtTable,
        pins: &RecordPins,
        i: usize,
        threshold: f64,
    ) -> Result<(Tid, f64)> {
        let head = table
            .file()
            .read_payload_pinned(pins, i, &mut self.payload)?;
        Ok((head.tid, self.score_payload(threshold)?))
    }

    /// Score an interpreted record (the payload of a stored record) with
    /// the same contract as [`Refiner::fetch`]. A record that
    /// [`decode_record`](iva_swt::decode_record) rejects, or that does not
    /// fill `record` exactly, is an error.
    pub fn score(&mut self, record: &[u8], threshold: f64) -> Result<f64> {
        self.payload.clear();
        self.payload.extend_from_slice(record);
        self.score_payload(threshold)
    }

    fn score_payload(&mut self, threshold: f64) -> Result<f64> {
        score(
            &self.payload,
            self.query,
            self.lambda,
            self.metric,
            self.ndf,
            threshold,
            &mut self.scratch,
        )
    }
}

/// The refine routine proper; see the module doc.
fn score<M: Metric>(
    record: &[u8],
    query: &Query,
    lambda: &[f64],
    metric: &M,
    ndf: f64,
    threshold: f64,
    s: &mut Scratch,
) -> Result<f64> {
    if lambda.len() != query.len() {
        return Err(IvaError::InvalidArgument(format!(
            "weight vector has {} entries for a {}-attribute query",
            lambda.len(),
            query.len()
        )));
    }
    // Project: one pass over every field, keeping the query's cells. A
    // repeated attribute keeps its last occurrence, as decoding does.
    s.cells.clear();
    s.cells.resize(query.len(), Cell::Ndf);
    let mut fields = RecordFields::new(record)?;
    for field in fields.by_ref() {
        let (attr, value) = field?;
        let Some(at) = query.position(attr) else {
            continue;
        };
        if let Some(cell) = s.cells.get_mut(at) {
            *cell = match value {
                FieldRef::Num(v) => Cell::Num(v),
                FieldRef::Text(t) => Cell::Text(t.to_span()),
            };
        }
    }
    if fields.consumed() != record.len() {
        return Err(SwtError::Corrupt(format!(
            "record decoded {} of {} bytes",
            fields.consumed(),
            record.len()
        ))
        .into());
    }

    // Numeric and ndf differences; text differences start at 0.
    s.diffs.clear();
    let mut any_text = false;
    for ((cell, (_, qv)), &w) in s.cells.iter().zip(query.iter()).zip(lambda.iter()) {
        s.diffs.push(match (cell, qv) {
            (Cell::Num(v), QueryValue::Num(q)) => w * (q - v).abs(),
            (Cell::Text(_), QueryValue::Text(_)) => {
                any_text = true;
                0.0
            }
            // Ndf, and type mismatches (treated as ndf, as in
            // `attr_difference`).
            _ => w * ndf,
        });
    }
    let partial = metric.combine(&s.diffs);
    if !any_text || partial >= threshold {
        // Exact without text; otherwise a lower bound that already
        // reaches the threshold.
        return Ok(partial);
    }

    for (i, ((cell, (_, qv)), &w)) in s.cells.iter().zip(query.iter()).zip(lambda).enumerate() {
        let (Cell::Text(span), QueryValue::Text(q)) = (cell, qv) else {
            continue;
        };
        let q = q.as_bytes();
        // Any edit distance is at most the longer string's length.
        let longest = span
            .strings(record)
            .map(<[u8]>::len)
            .fold(q.len(), usize::max);
        let cut = first_reaching(metric, &s.diffs, &mut s.probe, i, w, longest, threshold);
        let bound = match cut {
            Some((0, reached)) => return Ok(reached),
            Some((d, _)) => d - 1,
            None => longest,
        };
        let mut best: Option<usize> = None;
        for string in span.strings(record) {
            let within = best.map_or(bound, |b| b - 1);
            if let Some(e) = edit_distance_within_in(q, string, within, &mut s.edit) {
                best = Some(e);
                if e == 0 {
                    break;
                }
            }
        }
        match best {
            Some(e) => {
                if let Some(d) = s.diffs.get_mut(i) {
                    *d = w * e as f64;
                }
            }
            // Every string is at least `d` away, so the distance is at
            // least the combine that reached the threshold. (With no cut the
            // bound is the longest length, which every string is within.)
            None => return Ok(cut.map_or(f64::INFINITY, |(_, reached)| reached)),
        }
    }
    Ok(metric.combine(&s.diffs))
}

/// The smallest integer `d ≤ max` such that `diffs` with entry `i` set to
/// `w·d` combines to at least `threshold`, with that combined value; `None`
/// if even `d = max` stays below. The combine is monotone in `d`
/// (Property 3.1), so a binary search over probes finds it for any
/// [`Metric`].
fn first_reaching<M: Metric>(
    metric: &M,
    diffs: &[f64],
    probe: &mut Vec<f64>,
    i: usize,
    w: f64,
    max: usize,
    threshold: f64,
) -> Option<(usize, f64)> {
    probe.clear();
    probe.extend_from_slice(diffs);
    let top = combine_at(metric, probe, i, w, max);
    if top < threshold {
        return None;
    }
    // The answer lies in [lo, hi], and combine(hi) = reached ≥ threshold.
    let (mut lo, mut hi, mut reached) = (0, max, top);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = combine_at(metric, probe, i, w, mid);
        if v >= threshold {
            hi = mid;
            reached = v;
        } else {
            lo = mid + 1;
        }
    }
    Some((hi, reached))
}

/// `combine(probe)` with entry `i` set to `w·d`.
fn combine_at<M: Metric>(metric: &M, probe: &mut [f64], i: usize, w: f64, d: usize) -> f64 {
    if let Some(p) = probe.get_mut(i) {
        *p = w * d as f64;
    }
    metric.combine(probe)
}
