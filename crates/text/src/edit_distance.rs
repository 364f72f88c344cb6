//! Levenshtein edit distance.
//!
//! The paper adopts edit distance as the typo-tolerant string metric
//! (Sec. I-B): "the minimum number of edit operations (insertions,
//! deletions, and substitutions) of single characters needed to transform
//! the first string into the second". All string lengths in this
//! reproduction are measured in bytes, consistently across grams,
//! signatures and distances, so the Gravano n-gram lower bound holds.

/// Edit distance between two byte strings (two-row dynamic program).
pub fn edit_distance_bytes(a: &[u8], b: &[u8]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Ensure the inner row is the shorter side.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Edit distance between two UTF-8 strings, computed over bytes.
pub fn edit_distance(a: &str, b: &str) -> usize {
    edit_distance_bytes(a.as_bytes(), b.as_bytes())
}

/// Reusable working space for [`edit_distance_within_in`] — the
/// bit-parallel match masks and the banded DP rows — so a caller verifying
/// many strings allocates once instead of per call.
#[derive(Debug, Clone, Default)]
pub struct EditScratch {
    /// Per byte value, the positions of the pattern holding it. All zero
    /// between calls.
    peq: Vec<u64>,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

impl EditScratch {
    /// Empty scratch; the rows grow to the longest string seen.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Bounded edit distance: returns `Some(d)` if `d <= bound`, `None`
/// otherwise. Used where only a threshold check is needed; see
/// [`edit_distance_within_in`] for the algorithms.
pub fn edit_distance_within(a: &[u8], b: &[u8], bound: usize) -> Option<usize> {
    edit_distance_within_in(a, b, bound, &mut EditScratch::new())
}

/// [`edit_distance_within`] with its working space taken from `scratch`.
///
/// When the shorter string fits a machine word (≤ 64 bytes) the distance
/// comes from the bit-parallel algorithm of Myers in Hyyrö's formulation
/// for edit distance, one word operation sequence per byte of the longer
/// string; otherwise from a banded two-row DP. Both stop as soon as the
/// distance provably exceeds `bound`.
pub fn edit_distance_within_in(
    a: &[u8],
    b: &[u8],
    bound: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if a.len() - b.len() > bound {
        return None;
    }
    if b.is_empty() {
        return Some(a.len());
    }
    if b.len() <= 64 {
        if scratch.peq.len() != 256 {
            scratch.peq = vec![0; 256];
        }
        if let Ok(peq) = <&mut [u64; 256]>::try_from(scratch.peq.as_mut_slice()) {
            return bit_parallel_within(a, b, bound, peq);
        }
    }
    banded_within(a, b, bound, scratch)
}

/// Bit-parallel edit distance of `pattern` (1 to 64 bytes) against `text`,
/// if it is at most `bound`. Bit `i` of the vertical delta vectors
/// `vp`/`vn` says whether `D[i+1][j] − D[i][j]` is +1/−1; `dist` tracks
/// `D[m][j]` along the last row. `peq` must be all zero on entry and is
/// left all zero.
fn bit_parallel_within(
    text: &[u8],
    pattern: &[u8],
    bound: usize,
    peq: &mut [u64; 256],
) -> Option<usize> {
    for (i, &c) in pattern.iter().enumerate() {
        if let Some(e) = peq.get_mut(usize::from(c)) {
            *e |= 1u64 << i;
        }
    }
    let last = 1u64 << (pattern.len() - 1);
    let (mut vp, mut vn) = (!0u64, 0u64);
    let mut dist = pattern.len();
    let mut exceeded = false;
    for (j, &c) in text.iter().enumerate() {
        let x = peq.get(usize::from(c)).copied().unwrap_or(0);
        let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        if hp & last != 0 {
            dist += 1;
        } else if hn & last != 0 {
            dist = dist.saturating_sub(1);
        }
        // Row 0 is D[0][j] = j: every horizontal delta there is +1.
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        vp = hn | !(d0 | hp);
        vn = hp & d0;
        // Each remaining column lowers the last row by at most one.
        if dist.saturating_sub(text.len() - j - 1) > bound {
            exceeded = true;
            break;
        }
    }
    for &c in pattern {
        if let Some(e) = peq.get_mut(usize::from(c)) {
            *e = 0;
        }
    }
    (!exceeded && dist <= bound).then_some(dist)
}

/// Banded two-row DP over `a` (the longer string) and `b`; stops as soon
/// as a whole row exceeds `bound` (row minima never decrease).
fn banded_within(a: &[u8], b: &[u8], bound: usize, scratch: &mut EditScratch) -> Option<usize> {
    // Any distance is at most the longer length, so a larger bound only
    // widens the band to no effect.
    let bound = bound.min(a.len());
    let inf = bound + 1;
    let EditScratch { prev, cur, .. } = scratch;
    prev.clear();
    prev.extend((0..=b.len()).map(|j| if j <= bound { j } else { inf }));
    cur.clear();
    cur.resize(b.len() + 1, inf);
    for (i, &ca) in a.iter().enumerate() {
        // Band of row i+1: columns [lo, hi], column 0 handled apart.
        let lo = (i + 1).saturating_sub(bound).max(1);
        let hi = (i + 1 + bound).min(b.len());
        let first = if i < bound { i + 1 } else { inf };
        let mut row_min = first;
        if let Some(c) = cur.first_mut() {
            *c = first;
        }
        // The cell just left of the band: column 0, or an out-of-band inf.
        let mut left = if lo > 1 { inf } else { first };
        if let Some(c) = cur.get_mut(lo - 1) {
            *c = left;
        }
        if lo <= hi {
            let diag = prev.get(lo - 1..hi)?;
            let up = prev.get(lo..=hi)?;
            let bs = b.get(lo - 1..hi)?;
            let row = cur.get_mut(lo..=hi)?;
            for (((&dg, &u), &cb), c) in diag.iter().zip(up).zip(bs).zip(row) {
                let v = (dg + usize::from(ca != cb))
                    .min(u + 1)
                    .min(left + 1)
                    .min(inf);
                *c = v;
                left = v;
                row_min = row_min.min(v);
            }
        }
        // The next band reaches at most one column further right.
        if let Some(c) = cur.get_mut(hi + 1) {
            *c = inf;
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    prev.get(b.len()).copied().filter(|&d| d <= bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
        // The paper's running typo: "Cannon" vs "Canon".
        assert_eq!(edit_distance("Cannon", "Canon"), 1);
    }

    #[test]
    fn single_ops() {
        assert_eq!(edit_distance("canon", "canons"), 1); // insertion
        assert_eq!(edit_distance("canon", "cann"), 1); // deletion of 'o'
        assert_eq!(edit_distance("canon", "caxon"), 1); // substitution
        assert_eq!(edit_distance("canon", "cano"), 1); // deletion
    }

    #[test]
    fn banded_agrees_with_full() {
        let pairs = [
            ("google", "googel"),
            ("digital camera", "digtal camera"),
            ("a", "zzzzzz"),
            ("same", "same"),
            ("", "xy"),
        ];
        for (a, b) in pairs {
            let full = edit_distance(a, b);
            for bound in 0..8 {
                let banded = edit_distance_within(a.as_bytes(), b.as_bytes(), bound);
                if full <= bound {
                    assert_eq!(banded, Some(full), "{a} {b} bound={bound}");
                } else {
                    assert_eq!(banded, None, "{a} {b} bound={bound}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_agrees_with_full() {
        let words = [
            "",
            "a",
            "canon",
            "cannon",
            "digital camera",
            "digtal camrea",
            "wide-angle lens",
            "zzzzzzzzzzzzzzzzzzzz",
            "数码相机",
            "the quick brown fox jumps over the lazy dog and keeps on running past the barn",
            "the quick brown fax jumped over a lazy dog and kept on running past the old barn",
            "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijkl",
            "bcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklm",
        ];
        let mut scratch = EditScratch::new();
        for a in words {
            for b in words {
                let full = edit_distance(a, b);
                for bound in [0, 1, 2, 3, 5, 8, 13, 40, 70, usize::MAX] {
                    let banded =
                        edit_distance_within_in(a.as_bytes(), b.as_bytes(), bound, &mut scratch);
                    assert_eq!(
                        banded,
                        (full <= bound).then_some(full),
                        "{a:?} {b:?} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn length_difference_lower_bounds() {
        assert!(edit_distance("ab", "abcdef") >= 4);
        assert_eq!(edit_distance_within(b"ab", b"abcdef", 3), None);
    }
}
