//! The exact oracle: top-k by exhaustive scan over the tuples the
//! benchmark knows to be live, independent of the engine under test. Runs
//! outside every timed phase.
//!
//! It computes what `DirectScan` computes — `exact_distance` under L2,
//! equal weights and the engine's default ndf penalty, for every live
//! tuple — but over the tuples in memory and all queries in one pass, so
//! hundreds of distinct queries can be checked in every run. The unit test
//! below holds it to `DirectScan` itself.

use iva_core::exact_distance;
use iva_file::{AttrType, IvaConfig, MetricKind, Query, Result, Tuple};

use crate::inputs::K;

/// Distance bits of a top-k answer, ascending.
pub type Answer = Vec<u64>;

/// The bits of a list of distances, in the order given.
pub fn answer(dists: impl Iterator<Item = f64>) -> Answer {
    dists.map(f64::to_bits).collect()
}

/// Define the dataset's catalog (`attr_{i}` in attribute order) through
/// `define`, which receives the name and whether it is a text attribute.
pub fn define_catalog(
    attr_types: &[AttrType],
    mut define: impl FnMut(&str, bool) -> Result<()>,
) -> Result<()> {
    for (i, ty) in attr_types.iter().enumerate() {
        define(&format!("attr_{i}"), *ty == AttrType::Text)?;
    }
    Ok(())
}

/// The k smallest exact distances of `query` over `tuples`, ascending.
/// A tuple that defines none of the query's attributes is exactly as far
/// as the empty tuple, so only tuples defining one are scored one by one.
fn top_k(tuples: &[&Tuple], query: &Query) -> Answer {
    let weights = vec![1.0; query.len()];
    let ndf = IvaConfig::default().ndf_penalty;
    let distance = |t: &Tuple| exact_distance(t, query, &weights, &MetricKind::L2, ndf);
    let mut dists: Vec<f64> = tuples
        .iter()
        .filter(|t| query.iter().any(|(a, _)| t.get(a).is_some()))
        .map(|t| distance(t))
        .collect();
    let undefined = tuples.len() - dists.len();
    dists.extend(std::iter::repeat_n(
        distance(&Tuple::new()),
        undefined.min(K),
    ));
    let k = K.min(dists.len());
    if k > 0 && k < dists.len() {
        dists.select_nth_unstable_by(k - 1, f64::total_cmp);
    }
    dists.truncate(k);
    dists.sort_by(f64::total_cmp);
    answer(dists.into_iter())
}

/// Exact top-k answers of `queries` over `tuples`, on at most two
/// threads.
pub fn exact_answers<'a>(
    tuples: impl Iterator<Item = &'a Tuple>,
    queries: &[Query],
) -> Vec<Answer> {
    let tuples: Vec<&Tuple> = tuples.collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let chunk = queries.len().div_ceil(threads).max(1);
    let tuples = &tuples;
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| s.spawn(move || qs.iter().map(|q| top_k(tuples, q)).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use crate::{Size, Workload};
    use iva_file::baselines::DirectScan;
    use iva_file::{IoStats, PagerOptions, SwtTable, WeightScheme};

    #[test]
    fn agrees_with_direct_scan() {
        let inputs = inputs::generate(&Size::reduced(Workload::Table1Warm), 3);
        let mut table = SwtTable::create_mem(&PagerOptions::default(), IoStats::new()).unwrap();
        define_catalog(&inputs.dataset.attr_types, |name, text| {
            if text {
                table.define_text(name)?;
            } else {
                table.define_numeric(name)?;
            }
            Ok(())
        })
        .unwrap();
        for t in &inputs.dataset.tuples {
            table.insert(t).unwrap();
        }
        let ours = exact_answers(inputs.dataset.tuples.iter(), &inputs.queries);
        let dst = DirectScan::new(IvaConfig::default().ndf_penalty);
        for (q, got) in inputs.queries.iter().zip(&ours) {
            let out = dst
                .query(&table, q, K, &MetricKind::L2, WeightScheme::Equal)
                .unwrap();
            assert_eq!(got, &answer(out.results.iter().map(|e| e.dist)));
        }
    }
}
