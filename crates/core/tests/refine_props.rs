//! Exactness of the projected, early-abandoning refine routine against the
//! reference `exact_distance` over a fully decoded tuple.
//!
//! Contract under test, for every record, query, weight vector, metric and
//! threshold: when the true distance is below the threshold the routine
//! returns it bit for bit; otherwise it returns some value at or above the
//! threshold (which the pool's strict `<` admission then rejects). A
//! record the reference decoder rejects is rejected too.

use proptest::prelude::*;

use iva_core::{exact_distance, Metric, MetricKind, Query, Refiner, WeightScheme};
use iva_swt::{decode_record, encode_record, AttrId, Tuple, Value};

const N_ATTRS: u32 = 8;
const NDF: f64 = 20.0;

/// SplitMix64: the cases below derive everything from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Near-duplicates, typos, multibyte text and unrelated strings of very
/// different lengths, so edit distances span 0 to well past any bound.
const WORDS: &[&str] = &[
    "canon",
    "cannon",
    "canon eos",
    "nikon",
    "sony",
    "digital camera",
    "digtal camrea",
    "wide-angle lens",
    "telephoto",
    "a",
    "zz",
    "数码相机",
    "数码相",
    "the quick brown fox jumps over the lazy dog",
];

fn word(rng: &mut Rng) -> String {
    if rng.below(4) == 0 {
        // A random lowercase string of 1..24 bytes.
        let len = 1 + rng.below(24) as usize;
        (0..len)
            .map(|_| char::from(b'a' + rng.below(6) as u8))
            .collect()
    } else {
        WORDS[rng.below(WORDS.len() as u64) as usize].to_string()
    }
}

/// A random sparse tuple: each attribute is ndf, a number, or a text value
/// of one to four strings. Types are drawn per tuple, so queries meet type
/// mismatches.
fn tuple(rng: &mut Rng) -> Tuple {
    let mut t = Tuple::new();
    for a in 0..N_ATTRS {
        match rng.below(3) {
            0 => {}
            1 => {
                t.set(AttrId(a), Value::num((rng.unit() - 0.5) * 80.0));
            }
            _ => {
                let n = 1 + rng.below(4) as usize;
                t.set(AttrId(a), Value::texts((0..n).map(|_| word(rng))));
            }
        }
    }
    t
}

fn query(rng: &mut Rng) -> Query {
    let mut q = Query::new();
    let n = 1 + rng.below(4);
    for _ in 0..n {
        let a = AttrId(rng.below(u64::from(N_ATTRS)) as u32);
        q = if rng.below(2) == 0 {
            q.text(a, word(rng))
        } else {
            q.num(a, (rng.unit() - 0.5) * 80.0)
        };
    }
    q
}

fn weights(rng: &mut Rng, q: &Query) -> Vec<f64> {
    let scheme = if rng.below(2) == 0 {
        WeightScheme::Equal
    } else {
        WeightScheme::Itf
    };
    // ITF over random document frequencies, including df == total (λ = 0).
    (0..q.len())
        .map(|_| {
            let total = 1 + rng.below(1000);
            scheme.weight(total, rng.below(total + 1))
        })
        .collect()
}

/// A monotone metric outside the three built-ins: saturating terms make
/// the combine flat above a cap, so threshold probing meets plateaus.
struct CappedSum;

impl Metric for CappedSum {
    fn combine(&self, d: &[f64]) -> f64 {
        d.iter().map(|x| x.min(9.0)).sum()
    }
}

fn check<M: Metric>(metric: &M, record: &[u8], q: &Query, lambda: &[f64], rng: &mut Rng) {
    let (tuple, _) = decode_record(record).unwrap();
    let truth = exact_distance(&tuple, q, lambda, metric, NDF);
    let mut refiner = Refiner::new(q, lambda, metric, NDF);
    let random = truth * 2.0 * rng.unit();
    let thresholds = [
        f64::INFINITY,
        truth,
        random,
        truth + 1.0,
        (truth - 1.0).max(0.0),
        0.0,
    ];
    for threshold in thresholds {
        let got = refiner.score(record, threshold).unwrap();
        if truth < threshold {
            assert_eq!(
                got.to_bits(),
                truth.to_bits(),
                "{}: threshold {threshold}, got {got}, truth {truth}",
                metric.name()
            );
        } else {
            assert!(
                got >= threshold,
                "{}: abandoned at {got} below threshold {threshold} (truth {truth})",
                metric.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn refine_is_exact_below_threshold_and_rejected_above(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let t = tuple(&mut rng);
        let mut record = Vec::new();
        encode_record(&t, &mut record).unwrap();
        for _ in 0..4 {
            let q = query(&mut rng);
            let lambda = weights(&mut rng, &q);
            check(&MetricKind::L1, &record, &q, &lambda, &mut rng);
            check(&MetricKind::L2, &record, &q, &lambda, &mut rng);
            check(&MetricKind::LInf, &record, &q, &lambda, &mut rng);
            check(&CappedSum, &record, &q, &lambda, &mut rng);
        }
    }

    /// A damaged record is an error exactly when decoding it is, or when
    /// it does not fill its stored length.
    #[test]
    fn refine_rejects_what_decoding_rejects(
        seed in any::<u64>(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut rng = Rng(seed);
        let mut record = Vec::new();
        encode_record(&tuple(&mut rng), &mut record).unwrap();
        let q = query(&mut rng);
        let lambda = weights(&mut rng, &q);
        let mut refiner = Refiner::new(&q, &lambda, &MetricKind::L2, NDF);
        let mut flipped = record.clone();
        let at = at.index(flipped.len());
        flipped[at] ^= xor;
        let truncated = &record[..cut.index(record.len())];
        for bytes in [&flipped[..], truncated] {
            let decodes = matches!(decode_record(bytes), Ok((_, used)) if used == bytes.len());
            for threshold in [f64::INFINITY, 0.0] {
                prop_assert_eq!(refiner.score(bytes, threshold).is_ok(), decodes);
            }
        }
    }
}
