//! The run-time inspector: pattern characterization and the per-scheme
//! pre-analyses (conflict marking for `sel`, owner lists for `lw`, dense
//! slot numbering for `hash`).
//!
//! "The characterization of the access pattern is performed at compile
//! time whenever possible, and otherwise, at run-time, during an inspector
//! phase or during speculative execution."  Here it is the inspector
//! phase: one pass over the reference stream, after which the decision
//! model (`crate::model`) picks a scheme and the chosen executor may reuse
//! the analyses.

use smartapps_workloads::pattern::AccessPattern;
use smartapps_workloads::{block_range, elem_block_range, PatternChars};

/// Which elements are referenced by more than one thread under block
/// scheduling (the privatization set of the `sel` scheme).
#[derive(Debug, Clone)]
pub struct ConflictInfo {
    /// Thread count the analysis was computed for.
    pub threads: usize,
    /// Number of conflicting elements.
    pub num_conflicting: usize,
    /// Element -> compact conflict slot, or `u32::MAX` for non-conflicting.
    pub compact: Vec<u32>,
    /// Compact slot -> element.
    pub conflicting_elements: Vec<u32>,
}

/// Which iterations each thread must execute under owner-computes
/// (iteration replication of the `lw` scheme).
#[derive(Debug, Clone)]
pub struct OwnerLists {
    /// Thread count the analysis was computed for.
    pub threads: usize,
    /// Per-thread iteration lists (ascending).
    pub iters_of: Vec<Vec<u32>>,
    /// Replication factor: total listed iterations / loop iterations.
    pub replication: f64,
}

/// The touched set of a pattern numbered densely, for the `hash` scheme:
/// every referenced element gets one slot, in first-touch order, so a
/// thread's private storage is `K × distinct` values indexed by slot
/// instead of a table probed by element.  It depends on the pattern only,
/// not on the thread count.
#[derive(Debug, Clone)]
pub struct LocalIndex {
    /// Reference slot -> dense slot of its element.
    pub slot_of_ref: Vec<u32>,
    /// Dense slot -> element, in first-touch order.
    pub elements: Vec<u32>,
}

/// The complete inspector result.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Section 4 characterization measures.
    pub chars: PatternChars,
    /// Conflict analysis for `sel`.
    pub conflicts: ConflictInfo,
    /// Owner lists for `lw`.
    pub owners: OwnerLists,
}

/// The inspector products one run may reuse.  A scheme that needs a
/// product it is not handed computes it for that run alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyses<'a> {
    /// Conflict and owner analysis, for `sel` and `lw`.
    pub inspection: Option<&'a Inspection>,
    /// Dense slot numbering, for `hash`.
    pub local: Option<&'a LocalIndex>,
}

impl<'a> From<Option<&'a Inspection>> for Analyses<'a> {
    /// An inspection alone: `hash` localizes per run.
    fn from(inspection: Option<&'a Inspection>) -> Self {
        Analyses {
            inspection,
            local: None,
        }
    }
}

/// Inspector entry points.
pub struct Inspector;

/// Sentinel: element not yet referenced.
const UNOWNED: u8 = u8::MAX;
/// Sentinel: element referenced by at least two threads.
const CONFLICT: u8 = u8::MAX - 1;

impl Inspector {
    /// Run the full inspector for a block-scheduled loop on `threads`
    /// threads.
    pub fn analyze(pat: &AccessPattern, threads: usize) -> Inspection {
        assert!((1..=250).contains(&threads), "thread count {threads}");
        Inspection {
            chars: PatternChars::measure(pat),
            conflicts: Self::conflicts(pat, threads),
            owners: Self::owners(pat, threads),
        }
    }

    /// Conflict analysis only.
    pub fn conflicts(pat: &AccessPattern, threads: usize) -> ConflictInfo {
        let n = pat.num_elements;
        let mut owner = vec![UNOWNED; n];
        for t in 0..threads {
            for i in block_range(pat.num_iterations(), t, threads) {
                for r in pat.ref_range(i) {
                    let x = pat.indices[r] as usize;
                    match owner[x] {
                        UNOWNED => owner[x] = t as u8,
                        CONFLICT => {}
                        o if o as usize == t => {}
                        _ => owner[x] = CONFLICT,
                    }
                }
            }
        }
        let mut compact = vec![u32::MAX; n];
        let mut conflicting_elements = Vec::new();
        for (x, &o) in owner.iter().enumerate() {
            if o == CONFLICT {
                compact[x] = conflicting_elements.len() as u32;
                conflicting_elements.push(x as u32);
            }
        }
        ConflictInfo {
            threads,
            num_conflicting: conflicting_elements.len(),
            compact,
            conflicting_elements,
        }
    }

    /// Number the touched elements of `pat` densely, in first-touch order
    /// (one pass).  The element -> slot map is zero-initialized (it stores
    /// slot + 1), so pages of untouched elements are never faulted in, and
    /// it is dropped when the pass ends.
    pub fn localize(pat: &AccessPattern) -> LocalIndex {
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

    /// Owner-list analysis only.
    pub fn owners(pat: &AccessPattern, threads: usize) -> OwnerLists {
        let n = pat.num_elements;
        // Element -> owning thread, from the line-aligned block partition.
        let bounds: Vec<usize> = (0..threads)
            .map(|t| elem_block_range(n, t, threads).end)
            .collect();
        let owner_of = |x: usize| -> usize { bounds.partition_point(|&b| b <= x) };
        let mut iters_of: Vec<Vec<u32>> = vec![Vec::new(); threads];
        let mut listed = 0usize;
        let mut hit: Vec<u32> = vec![u32::MAX; threads];
        for i in 0..pat.num_iterations() {
            for r in pat.ref_range(i) {
                let t = owner_of(pat.indices[r] as usize);
                if hit[t] != i as u32 {
                    hit[t] = i as u32;
                    iters_of[t].push(i as u32);
                    listed += 1;
                }
            }
        }
        OwnerLists {
            threads,
            iters_of,
            replication: if pat.num_iterations() > 0 {
                listed as f64 / pat.num_iterations() as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::{Distribution, PatternSpec};

    #[test]
    fn conflicts_on_hand_built_pattern() {
        // 2 threads, 4 iterations (2 each).  Element 0 touched by both
        // halves -> conflict; 1 only by thread 0; 2 only by thread 1.
        let pat = AccessPattern::from_iters(3, &[vec![0, 1], vec![1], vec![0, 2], vec![2]]);
        let c = Inspector::conflicts(&pat, 2);
        assert_eq!(c.num_conflicting, 1);
        assert_eq!(c.conflicting_elements, vec![0]);
        assert_eq!(c.compact[0], 0);
        assert_eq!(c.compact[1], u32::MAX);
        assert_eq!(c.compact[2], u32::MAX);
    }

    #[test]
    fn single_thread_has_no_conflicts() {
        let pat = PatternSpec {
            num_elements: 100,
            iterations: 300,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed: 1,
        }
        .generate();
        let c = Inspector::conflicts(&pat, 1);
        assert_eq!(c.num_conflicting, 0);
    }

    #[test]
    fn clustered_patterns_conflict_less_than_uniform() {
        let mk = |dist| {
            let pat = PatternSpec {
                num_elements: 10_000,
                iterations: 10_000,
                refs_per_iter: 2,
                coverage: 1.0,
                dist,
                seed: 3,
            }
            .generate();
            Inspector::conflicts(&pat, 8).num_conflicting
        };
        let uniform = mk(Distribution::Uniform);
        let clustered = mk(Distribution::Clustered { window: 32 });
        assert!(
            clustered < uniform / 4,
            "clustered {clustered} should be far below uniform {uniform}"
        );
    }

    #[test]
    fn owner_lists_cover_every_iteration_once_per_owner() {
        let pat = AccessPattern::from_iters(16, &[vec![0, 15], vec![0, 0], vec![8], vec![15, 0]]);
        let o = Inspector::owners(&pat, 2);
        // Thread 0 owns elements 0..8, thread 1 owns 8..16.
        assert_eq!(o.iters_of[0], vec![0, 1, 3]);
        assert_eq!(o.iters_of[1], vec![0, 2, 3]);
        // Iterations 0 and 3 are replicated to both threads.
        assert!((o.replication - 6.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn replication_factor_bounded_by_mo_and_threads() {
        let pat = PatternSpec {
            num_elements: 1000,
            iterations: 2000,
            refs_per_iter: 3,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed: 5,
        }
        .generate();
        for threads in [1usize, 2, 4, 8] {
            let o = Inspector::owners(&pat, threads);
            assert!(o.replication >= 1.0 - 1e-12);
            assert!(o.replication <= 3.0 + 1e-12, "at most MO owners");
            assert!(o.replication <= threads as f64 + 1e-12);
        }
    }

    #[test]
    fn full_analyze_is_consistent() {
        let pat = PatternSpec {
            num_elements: 512,
            iterations: 1024,
            refs_per_iter: 2,
            coverage: 0.5,
            dist: Distribution::Uniform,
            seed: 9,
        }
        .generate();
        let insp = Inspector::analyze(&pat, 4);
        assert_eq!(insp.chars.references, pat.num_references());
        assert_eq!(insp.conflicts.threads, 4);
        assert_eq!(insp.owners.threads, 4);
        assert!(insp.conflicts.num_conflicting <= insp.chars.distinct);
    }

    fn localize_patterns() -> Vec<AccessPattern> {
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
            let li = Inspector::localize(&pat);
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
            let li = Inspector::localize(&pat);
            assert!(
                li.elements == first_touch
                    && li.elements.len() == PatternChars::measure(&pat).distinct
            );
        }
    }

    #[test]
    fn local_index_of_empty_and_single_hot_patterns() {
        let empty = Inspector::localize(&AccessPattern::from_iters(16, &[]));
        let hot = Inspector::localize(&AccessPattern::from_iters(4, &vec![vec![3u32, 3]; 50]));
        assert!(
            empty.slot_of_ref.is_empty()
                && empty.elements.is_empty()
                && hot.elements == [3]
                && hot.slot_of_ref == [0; 100]
        );
    }
}
