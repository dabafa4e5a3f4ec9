//! Memory-reference characterization measures of Section 4.
//!
//! The paper defines, for the reduction-array references of a loop:
//!
//! * **CH** — a histogram showing the number of elements referenced by a
//!   certain number of iterations;
//! * **CHD** — the CH distribution (CH normalized by referenced elements);
//! * **CHR** — the ratio of the total number of references (the sum of the
//!   CH histogram) to the space needed for allocating replicated arrays
//!   across processors;
//! * **CON** (connectivity) — the ratio between the number of iterations
//!   and the number of distinct memory elements referenced by the loop;
//! * **MO** (mobility) — proportional to the number of distinct elements
//!   that an iteration references;
//! * **SP** (sparsity) — the ratio of referenced elements to the dimension
//!   of the array;
//! * **DIM** — the ratio between the reduction array dimension and the
//!   cache size.
//!
//! These are derived here from an [`AccessPattern`]'s [`LocalIndex`] — the
//! derivation the run-time inspector in `smartapps-reductions::inspect`
//! shares.

use crate::pattern::AccessPattern;
use serde::{Deserialize, Serialize};

/// Measured reference characteristics of a reduction loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternChars {
    /// Reduction array dimension (number of elements).
    pub num_elements: usize,
    /// Loop iteration count.
    pub iterations: usize,
    /// Total reduction references.
    pub references: usize,
    /// Distinct elements referenced.
    pub distinct: usize,
    /// Distinct cache lines (8-element groups) touched — the spatial
    /// density the `ll` scheme's touched-line merge depends on.
    pub distinct_lines: usize,
    /// MO: mean distinct elements referenced per iteration.
    pub mo: f64,
    /// CON: iterations / distinct elements.
    pub con: f64,
    /// SP: distinct / dimension (fraction between 0 and 1).
    pub sp: f64,
    /// CH histogram: `ch[k]` = number of elements referenced by exactly
    /// `k+1` references (elements with zero references are excluded;
    /// the tail is clamped into the last bucket).
    pub ch: Vec<usize>,
    /// Maximum references to any single element (contention proxy).
    pub max_refs_per_element: usize,
}

/// Number of CH buckets kept (reference counts 1..=CH_BUCKETS, last bucket
/// clamps the tail).
pub const CH_BUCKETS: usize = 64;

/// The touched set of a pattern numbered densely: every referenced
/// element gets one slot, in first-touch order.  The characterization
/// and every inspector product derive from slots, and the `hash` scheme
/// keeps `K × distinct` private values per thread indexed by slot instead
/// of a table probed by element.  It depends on the pattern only, not on
/// the thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalIndex {
    /// Reference slot -> dense slot of its element.
    pub slot_of_ref: Vec<u32>,
    /// Dense slot -> element, in first-touch order.
    pub elements: Vec<u32>,
}

impl LocalIndex {
    /// Number the touched elements of `pat` (one walk of the reference
    /// stream).  The element -> slot map is zero-initialized (it stores
    /// slot + 1), so pages of untouched elements are never faulted in, and
    /// it is dropped when the walk ends.
    pub fn of(pat: &AccessPattern) -> Self {
        let mut slot_plus_one = vec![0u32; pat.num_elements];
        let mut elements = Vec::new();
        let slot_of_ref = pat
            .indices
            .iter()
            .map(|&x| {
                let s = &mut slot_plus_one[x as usize];
                if *s == 0 {
                    elements.push(x);
                    *s = elements.len() as u32;
                }
                *s - 1
            })
            .collect();
        LocalIndex {
            slot_of_ref,
            elements,
        }
    }
}

impl PatternChars {
    /// Characterize a pattern: number its touched set, then derive.
    pub fn measure(pat: &AccessPattern) -> Self {
        Self::derive(pat, &LocalIndex::of(pat))
    }

    /// Characterize `pat` from its slot numbering, in one walk of the slot
    /// stream: per-slot counts give `distinct`, CH and the maximum, and a
    /// last-seen-iteration stamp per slot gives MO without a sort.  The
    /// slots' elements give `distinct_lines`, through a transient zeroed
    /// flag per line.
    pub fn derive(pat: &AccessPattern, local: &LocalIndex) -> Self {
        let iters = pat.num_iterations();
        let distinct = local.elements.len();
        // Per slot: its references, and the last iteration + 1 that
        // referenced it (0: none yet).
        let mut seen = vec![(0u32, 0u32); distinct];
        let mut mo_sum = 0usize;
        for (i, w) in pat.iter_ptr.windows(2).enumerate() {
            let stamp = i as u32 + 1;
            for &s in &local.slot_of_ref[w[0] as usize..w[1] as usize] {
                let (count, last) = &mut seen[s as usize];
                *count += 1;
                mo_sum += usize::from(*last != stamp);
                *last = stamp;
            }
        }
        let mut ch = vec![0usize; CH_BUCKETS];
        let mut max_refs = 0usize;
        for &(c, _) in &seen {
            ch[(c as usize - 1).min(CH_BUCKETS - 1)] += 1;
            max_refs = max_refs.max(c as usize);
        }
        let mut lines = vec![false; pat.num_elements.div_ceil(8)];
        let mut distinct_lines = 0usize;
        for &x in &local.elements {
            let line = &mut lines[x as usize >> 3];
            distinct_lines += usize::from(!*line);
            *line = true;
        }
        let ratio = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        PatternChars {
            num_elements: pat.num_elements,
            iterations: iters,
            references: pat.num_references(),
            distinct,
            distinct_lines,
            mo: ratio(mo_sum, iters),
            con: ratio(iters, distinct),
            sp: ratio(distinct, pat.num_elements),
            ch,
            max_refs_per_element: max_refs,
        }
    }

    /// CHD: the CH histogram normalized to a distribution over referenced
    /// elements.
    pub fn chd(&self) -> Vec<f64> {
        let total: usize = self.ch.iter().sum();
        if total == 0 {
            return vec![0.0; self.ch.len()];
        }
        self.ch.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// CHR for `p` processors: total references / (p × dimension) — how
    /// well the references amortize fully replicated private arrays.
    pub fn chr(&self, p: usize) -> f64 {
        if self.num_elements == 0 || p == 0 {
            return 0.0;
        }
        self.references as f64 / (p as f64 * self.num_elements as f64)
    }

    /// DIM for a cache of `cache_bytes`: array footprint / cache size
    /// (8-byte elements).
    pub fn dim(&self, cache_bytes: usize) -> f64 {
        if cache_bytes == 0 {
            return f64::INFINITY;
        }
        (self.num_elements * 8) as f64 / cache_bytes as f64
    }

    /// Reduction array footprint in KB (Table 2's "Red. Array Size").
    pub fn array_kb(&self) -> f64 {
        (self.num_elements * 8) as f64 / 1024.0
    }

    /// The number of (hottest-first) elements needed to cover `mass`
    /// fraction of all references, estimated from the CH histogram.  Under
    /// a contention tail (Zipf-like CHD) this is far below `distinct` —
    /// the working set that actually matters for access-ordered storage
    /// like the `hash` scheme's accumulation tables.
    pub fn effective_distinct(&self, mass: f64) -> usize {
        if self.references == 0 {
            return 0;
        }
        let target = self.references as f64 * mass.clamp(0.0, 1.0);
        let mut covered = 0.0;
        let mut elems = 0usize;
        // Walk buckets hottest-first; the clamped tail bucket is weighted
        // by the observed maximum.
        for (b, &count) in self.ch.iter().enumerate().rev() {
            if count == 0 {
                continue;
            }
            let k = if b + 1 == CH_BUCKETS {
                self.max_refs_per_element as f64
            } else {
                (b + 1) as f64
            };
            let bucket_mass = count as f64 * k;
            if covered + bucket_mass >= target {
                let need = ((target - covered) / k).ceil() as usize;
                return elems + need.min(count);
            }
            covered += bucket_mass;
            elems += count;
        }
        elems
    }

    /// HCHR: the fraction of references that fall on *high-contention*
    /// elements ("the set of CHRs which have a high degree of contention is
    /// referred to as HCHR").  An element is high-contention when it
    /// absorbs at least `threshold` times the mean references-per-
    /// referenced-element.
    pub fn hchr(&self, threshold: f64) -> f64 {
        if self.references == 0 || self.distinct == 0 {
            return 0.0;
        }
        let mean = self.references as f64 / self.distinct as f64;
        let cutoff = mean * threshold;
        // Approximate per-bucket reference mass from the CH histogram
        // (bucket k holds elements with k+1 references; the clamped tail
        // bucket uses the observed maximum as its count).
        let mut hot_refs = 0.0;
        for (b, &count) in self.ch.iter().enumerate() {
            let k = if b + 1 == CH_BUCKETS {
                self.max_refs_per_element as f64
            } else {
                (b + 1) as f64
            };
            if k >= cutoff {
                hot_refs += count as f64 * k;
            }
        }
        (hot_refs / self.references as f64).min(1.0)
    }
}

/// Drift between two characterizations, used by the adaptive runtime to
/// decide when a dynamic code's pattern changed enough to warrant
/// re-characterization ("when the changes are significant enough (a
/// threshold that is tested at run-time) then a re-characterization of the
/// reference pattern is needed").
pub fn drift(a: &PatternChars, b: &PatternChars) -> f64 {
    fn rel(x: f64, y: f64) -> f64 {
        let m = x.abs().max(y.abs());
        if m == 0.0 {
            0.0
        } else {
            (x - y).abs() / m
        }
    }
    rel(a.mo, b.mo)
        .max(rel(a.con, b.con))
        .max(rel(a.sp, b.sp))
        .max(rel(a.references as f64, b.references as f64))
        .max(rel(a.distinct as f64, b.distinct as f64))
        .max(rel(a.distinct_lines as f64, b.distinct_lines as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AccessPattern;

    fn uniform_pattern(elems: usize, iters: usize, per_iter: usize) -> AccessPattern {
        let lists: Vec<Vec<u32>> = (0..iters)
            .map(|i| {
                (0..per_iter)
                    .map(|k| ((i * per_iter + k) % elems) as u32)
                    .collect()
            })
            .collect();
        AccessPattern::from_iters(elems, &lists)
    }

    #[test]
    fn measures_of_uniform_pattern() {
        // 100 elements, 50 iterations x 2 refs = 100 refs covering all.
        let p = uniform_pattern(100, 50, 2);
        let c = PatternChars::measure(&p);
        assert_eq!(c.references, 100);
        assert_eq!(c.distinct, 100);
        assert_eq!(c.distinct_lines, 13); // ceil(100/8)
        assert!((c.mo - 2.0).abs() < 1e-12);
        assert!((c.con - 0.5).abs() < 1e-12);
        assert!((c.sp - 1.0).abs() < 1e-12);
        assert_eq!(c.max_refs_per_element, 1);
        // All referenced exactly once: CH bucket 0 holds everything.
        assert_eq!(c.ch[0], 100);
        assert!((c.chd()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chr_definition() {
        let p = uniform_pattern(100, 200, 2); // 400 refs
        let c = PatternChars::measure(&p);
        assert!((c.chr(8) - 400.0 / 800.0).abs() < 1e-12);
        assert!((c.chr(1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dim_and_array_kb() {
        let p = uniform_pattern(1024, 1, 1);
        let c = PatternChars::measure(&p);
        assert!((c.array_kb() - 8.0).abs() < 1e-12); // 1024 * 8 B = 8 KB
        assert!((c.dim(8192) - 1.0).abs() < 1e-12);
        assert!(c.dim(4096) > 1.0);
    }

    #[test]
    fn mo_counts_distinct_not_total() {
        // One iteration referencing the same element 5 times: MO = 1.
        let p = AccessPattern::from_iters(4, &[vec![2, 2, 2, 2, 2]]);
        let c = PatternChars::measure(&p);
        assert!((c.mo - 1.0).abs() < 1e-12);
        assert_eq!(c.references, 5);
        assert_eq!(c.max_refs_per_element, 5);
        // CH: one element with 5 refs -> bucket 4.
        assert_eq!(c.ch[4], 1);
    }

    #[test]
    fn ch_tail_clamps() {
        let refs: Vec<u32> = vec![0; CH_BUCKETS + 10];
        let p = AccessPattern::from_iters(1, &[refs]);
        let c = PatternChars::measure(&p);
        assert_eq!(c.ch[CH_BUCKETS - 1], 1);
        assert_eq!(c.max_refs_per_element, CH_BUCKETS + 10);
    }

    #[test]
    fn effective_distinct_collapses_under_hot_tails() {
        // Uniform single-reference: covering 90% of refs needs ~90% of
        // the elements.
        let p = uniform_pattern(100, 50, 2);
        let c = PatternChars::measure(&p);
        let e = c.effective_distinct(0.9);
        assert!((85..=95).contains(&e), "uniform: {e}");
        assert_eq!(c.effective_distinct(1.0), 100);
        // One element with 200 refs + 40 singles: 90% of 240 refs = 216,
        // covered by the hot element plus 16 singles.
        let mut lists = vec![vec![0u32; 5]; 40];
        lists.extend((1..41u32).map(|e| vec![e]));
        let p = AccessPattern::from_iters(64, &lists);
        let c = PatternChars::measure(&p);
        let e = c.effective_distinct(0.9);
        assert!(e <= 20, "hot tail must collapse the working set: {e}");
        // Degenerate cases.
        let c = PatternChars::measure(&AccessPattern::from_iters(4, &[]));
        assert_eq!(c.effective_distinct(0.9), 0);
    }

    #[test]
    fn hchr_flags_contention_tails() {
        // Uniform single-reference pattern: nothing is hot.
        let p = uniform_pattern(100, 50, 2);
        let c = PatternChars::measure(&p);
        assert_eq!(c.hchr(2.0), 0.0);
        // One element absorbing most references is hot.
        let mut lists = vec![vec![0u32; 5]; 40]; // element 0: 200 refs
        lists.extend((1..41u32).map(|e| vec![e])); // 40 cold elements
        let p = AccessPattern::from_iters(64, &lists);
        let c = PatternChars::measure(&p);
        let h = c.hchr(2.0);
        assert!(h > 0.7, "element 0 holds 200/240 refs: hchr {h}");
        assert!(h <= 1.0);
        // Empty pattern is safe.
        let c = PatternChars::measure(&AccessPattern::from_iters(4, &[]));
        assert_eq!(c.hchr(2.0), 0.0);
    }

    #[test]
    fn drift_detects_changes() {
        let a = PatternChars::measure(&uniform_pattern(100, 50, 2));
        let b = PatternChars::measure(&uniform_pattern(100, 50, 2));
        assert_eq!(drift(&a, &b), 0.0);
        let c = PatternChars::measure(&uniform_pattern(100, 200, 2));
        assert!(drift(&a, &c) > 0.5, "4x iterations is a large drift");
    }

    #[test]
    fn empty_pattern_is_safe() {
        let p = AccessPattern::from_iters(10, &[]);
        let c = PatternChars::measure(&p);
        assert_eq!(c.references, 0);
        assert_eq!(c.distinct, 0);
        assert_eq!(c.mo, 0.0);
        assert_eq!(c.con, 0.0);
        assert_eq!(c.chd().iter().sum::<f64>(), 0.0);
    }

    fn localize_patterns() -> Vec<AccessPattern> {
        use crate::{Distribution, PatternSpec};
        let generated = |dist, seed| {
            PatternSpec {
                num_elements: 4096,
                iterations: 3000,
                refs_per_iter: 3,
                coverage: 0.3,
                dist,
                seed,
            }
            .generate()
        };
        vec![
            generated(Distribution::Uniform, 1),
            generated(Distribution::Clustered { window: 16 }, 2),
            AccessPattern::from_iters(9, &[vec![4, 1], vec![], vec![1, 8, 4]]),
        ]
    }

    #[test]
    fn local_index_maps_every_reference_to_its_element() {
        for pat in localize_patterns() {
            let li = LocalIndex::of(&pat);
            assert!(pat
                .indices
                .iter()
                .zip(&li.slot_of_ref)
                .all(|(&x, &s)| li.elements[s as usize] == x));
        }
    }

    #[test]
    fn local_index_numbers_distinct_elements_in_first_touch_order() {
        for pat in localize_patterns() {
            let mut first_touch = Vec::new();
            for &x in &pat.indices {
                if !first_touch.contains(&x) {
                    first_touch.push(x);
                }
            }
            let li = LocalIndex::of(&pat);
            assert!(
                li.elements == first_touch
                    && li.elements.len() == PatternChars::measure(&pat).distinct
            );
        }
    }

    #[test]
    fn local_index_of_empty_and_single_hot_patterns() {
        let empty = LocalIndex::of(&AccessPattern::from_iters(16, &[]));
        let hot = LocalIndex::of(&AccessPattern::from_iters(4, &vec![vec![3u32, 3]; 50]));
        assert!(
            empty.slot_of_ref.is_empty()
                && empty.elements.is_empty()
                && hot.elements == [3]
                && hot.slot_of_ref == [0; 100]
        );
    }
}
