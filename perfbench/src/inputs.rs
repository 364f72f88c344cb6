//! Seeded inputs, generated in full before any clock starts.

use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{Query, Tuple, Value};

use crate::Size;

/// Values per query (the paper's default query shape).
pub const VALUES_PER_QUERY: usize = 3;

/// The top-k every query asks for.
pub const K: usize = 10;

/// One write of the post-and-search stream. Deletes and updates carry a
/// raw pick that selects among the tids live at that point, so the
/// victims are a pure function of the seed and the operations before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert fresh tuple `n` of [`Inputs::fresh`].
    Insert(usize),
    /// Delete the live tid selected by the pick.
    Delete(u64),
    /// Replace the live tid selected by the pick with fresh tuple `n`.
    Update(u64, usize),
}

/// Everything a run consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The tuples loaded during set-up, and the attribute schema.
    pub dataset: Dataset,
    /// Distinct queries, cycled in order by the client.
    pub queries: Vec<Query>,
    /// Tuples the write stream may insert, never loaded during set-up.
    pub fresh: Vec<Tuple>,
    /// The write stream, `writes_per_query` entries per query.
    pub writes: Vec<WriteOp>,
}

/// SplitMix64: a small, fixed generator for the write stream.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Candidate queries drawn per query kept by [`stratified_queries`].
const CANDIDATES_PER_QUERY: usize = 8;

/// `n` distinct queries sampled from the data distribution, stratified on
/// a data-only proxy of their cost so that the query mix varies less from
/// seed to seed.
///
/// Query latency spans 3 ms to over 100 ms and the median sits where the
/// distribution is steep, so with a few hundred queries the plain sample's
/// median moved by ±15% between seeds. The proxy is the summed document
/// frequency (tuples defining the attribute) of the query's attributes,
/// a property of the corpus alone whose rank correlation with latency was
/// 0.82. `CANDIDATES_PER_QUERY * n` candidates are drawn, sorted by the
/// proxy, and every `CANDIDATES_PER_QUERY`-th is kept from a seeded
/// offset (systematic sampling); the kept queries are then shuffled. The
/// sample follows the candidates' distribution, so it is unbiased, but
/// every proxy stratum is represented in every run.
fn stratified_queries(dataset: &Dataset, n: usize, rng: &mut SplitMix) -> Vec<Query> {
    let mut df = vec![0u64; dataset.attr_types.len()];
    for t in &dataset.tuples {
        for (a, _) in t.iter() {
            df[a.index()] += 1;
        }
    }
    let want = n * CANDIDATES_PER_QUERY;
    let mut candidates: Vec<Query> = Vec::with_capacity(want);
    while candidates.len() < want {
        let set = generate_query_set(dataset, VALUES_PER_QUERY, want, 0, rng.next_u64());
        for q in set.queries {
            if candidates.len() < want && !candidates.contains(&q) {
                candidates.push(q);
            }
        }
    }
    candidates.sort_by_key(|q| q.iter().map(|(a, _)| df[a.index()]).sum::<u64>());
    let offset = rng.below(CANDIDATES_PER_QUERY as u64) as usize;
    let mut kept: Vec<Query> = candidates
        .into_iter()
        .skip(offset)
        .step_by(CANDIDATES_PER_QUERY)
        .collect();
    for i in (1..kept.len()).rev() {
        kept.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kept
}

/// Tuples generated beyond the load for the write stream to draw from.
const FRESH_POOL: usize = 20_000;

/// Generate the inputs of one run. The corpus is fixed: the generator's
/// default (paper-calibrated) seed at the load size, plus a pool of
/// fresh postings when the workload writes. `seed` draws the query set
/// and the write stream (which fresh postings, which victims). Dataset
/// generation spawns threads, so this must finish before timing begins.
pub fn generate(size: &Size, seed: u64) -> Inputs {
    let mut rng = SplitMix(seed);
    let n_writes = size.queries * size.writes_per_query;
    let pool = if n_writes > 0 { FRESH_POOL } else { 0 };
    assert!(n_writes <= pool, "write stream longer than the fresh pool");
    let mut cfg = WorkloadConfig::scaled(size.tuples);
    cfg.n_tuples += pool;
    let mut dataset = Dataset::generate(&cfg);
    let fresh = dataset.tuples.split_off(size.tuples);
    dataset.config.n_tuples = size.tuples;

    let queries = stratified_queries(&dataset, size.distinct, &mut rng);

    // 80% inserts, 10% deletes, 10% updates; fresh postings are drawn
    // from the pool without replacement.
    let mut order: Vec<usize> = (0..fresh.len()).collect();
    let mut next = 0;
    let mut draw = |rng: &mut SplitMix| {
        let j = next + rng.below((order.len() - next) as u64) as usize;
        order.swap(next, j);
        next += 1;
        order[next - 1]
    };
    let mut writes = Vec::with_capacity(n_writes);
    for _ in 0..n_writes {
        let op = match rng.below(10) {
            0..=7 => WriteOp::Insert(draw(&mut rng)),
            8 => WriteOp::Delete(rng.next_u64()),
            _ => WriteOp::Update(rng.next_u64(), draw(&mut rng)),
        };
        writes.push(op);
    }
    Inputs {
        dataset,
        queries,
        fresh,
        writes,
    }
}

/// User bytes of a tuple: string bytes plus 8 per number. The
/// denominator of every bytes-per-user-byte ratio.
pub fn user_bytes(tuple: &Tuple) -> u64 {
    tuple
        .iter()
        .map(|(_, v)| match v {
            Value::Text(strings) => strings.iter().map(|s| s.len() as u64).sum(),
            Value::Num(_) => 8,
        })
        .sum()
}
