//! The run-time inspector: pattern characterization and the per-scheme
//! pre-analyses (conflicting slots for `sel`, replication and owner lists
//! for `lw`, the dense slot numbering for `hash`).
//!
//! "The characterization of the access pattern is performed at compile
//! time whenever possible, and otherwise, at run-time, during an inspector
//! phase or during speculative execution."  Here it is the inspector
//! phase.  It numbers the touched set first, in one localize walk of the
//! reference stream ([`LocalIndex::of`]), and derives the
//! characterization from slots ([`PatternChars::derive`]); neither depends
//! on the thread count, so a caller that keeps them pays the pair once per
//! pattern.  Then, per width, one walk of the slot stream in block order
//! finds the conflicting slots and counts `lw`'s replication; at width 1
//! both are known without the walk.  Every kept product is
//! O(references + distinct); the N-sized arrays, localize's element ->
//! slot map and a flag per line for `distinct_lines`, live only while
//! their walk runs.  `lw`'s owner lists are built on the first `lw` run,
//! not by the inspection.  The decision model (`crate::model`) then picks
//! a scheme, and the chosen executor reuses the analyses.

use smartapps_workloads::pattern::AccessPattern;
pub use smartapps_workloads::LocalIndex;
use smartapps_workloads::{block_range, elem_block_range, PatternChars};
use std::sync::{Arc, OnceLock};

/// Which touched slots more than one thread references under block
/// scheduling (the privatization set of the `sel` scheme).
#[derive(Debug, Clone)]
pub struct ConflictInfo {
    /// Slot -> conflict index, or `u32::MAX` for a slot one thread alone
    /// references.
    pub compact: Vec<u32>,
    /// Conflict index -> element.
    pub conflicting_elements: Vec<u32>,
}

/// The complete inspector result at one thread count.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Thread count the width pass was computed for.
    pub threads: usize,
    /// The pattern's slot numbering, which `sel` and `hash` key by.
    pub local: Arc<LocalIndex>,
    /// Section 4 characterization measures.
    pub chars: PatternChars,
    /// Conflict analysis for `sel`.
    pub conflicts: ConflictInfo,
    /// `lw`'s iteration replication factor: owner-list entries / loop
    /// iterations.
    pub replication: f64,
    /// `lw`'s per-thread iteration lists, built on the first `lw` run.
    iters_of: OnceLock<Vec<Vec<u32>>>,
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
    /// An inspection and the slot numbering it was derived from.
    fn from(inspection: Option<&'a Inspection>) -> Self {
        Analyses {
            inspection,
            local: inspection.map(|insp| &*insp.local),
        }
    }
}

/// Inspector entry points.
pub struct Inspector;

/// Sentinel: slot not yet referenced.
const UNOWNED: u8 = u8::MAX;
/// Sentinel: slot referenced by at least two threads.
const CONFLICT: u8 = u8::MAX - 1;

impl Inspector {
    /// Run the full inspector for a block-scheduled loop on `threads`
    /// threads: localize, derive the characterization, then the width
    /// pass.
    pub fn analyze(pat: &AccessPattern, threads: usize) -> Inspection {
        let (local, chars) = Self::number(pat);
        Self::at_width(pat, local, chars, threads)
    }

    /// The width-free half of an inspection: `pat`'s slot numbering and
    /// the characterization derived from it.
    pub fn number(pat: &AccessPattern) -> (Arc<LocalIndex>, PatternChars) {
        let local = LocalIndex::of(pat);
        let chars = PatternChars::derive(pat, &local);
        (Arc::new(local), chars)
    }

    /// The width pass over `pat`, numbered by `local` and characterized
    /// by `chars`.  At width 1 it is closed-form: one thread references
    /// every slot, so none conflicts, and `lw` lists each non-empty
    /// iteration once.  Wider, it is one walk of the slot stream in block
    /// order (`Inspector::walk`).
    pub fn at_width(
        pat: &AccessPattern,
        local: Arc<LocalIndex>,
        chars: PatternChars,
        threads: usize,
    ) -> Inspection {
        assert!((1..=250).contains(&threads), "thread count {threads}");
        let (compact, conflicting_elements, listed) = if threads == 1 {
            let nonempty = pat.iter_ptr.windows(2).filter(|w| w[0] != w[1]);
            (
                vec![u32::MAX; local.elements.len()],
                Vec::new(),
                nonempty.count(),
            )
        } else {
            Self::walk(pat, &local, threads)
        };
        Inspection {
            threads,
            local,
            chars,
            conflicts: ConflictInfo {
                compact,
                conflicting_elements,
            },
            replication: listed as f64 / pat.num_iterations().max(1) as f64,
            iters_of: OnceLock::new(),
        }
    }

    /// One walk of the slot stream in block order: each slot keeps the
    /// thread that references it, or a conflict mark once a second one
    /// does; and a stamp per `lw` owner counts the (iteration, owner)
    /// pairs that replication charges, the owner of a slot's element
    /// looked up once per slot.  Returns the conflict numbering (`compact`,
    /// `conflicting_elements`) and the count of listed pairs.
    fn walk(
        pat: &AccessPattern,
        local: &LocalIndex,
        threads: usize,
    ) -> (Vec<u32>, Vec<u32>, usize) {
        let home = lw_homes(pat, local, threads);
        let mut owner = vec![UNOWNED; local.elements.len()];
        let (mut hit, mut listed) = (vec![u32::MAX; threads], 0usize);
        let iters = pat.num_iterations();
        for t in 0..threads {
            let tb = t as u8;
            for i in block_range(iters, t, threads) {
                for &s in &local.slot_of_ref[pat.ref_range(i)] {
                    let o = &mut owner[s as usize];
                    let alone = *o == UNOWNED || *o == tb;
                    *o = if alone { tb } else { CONFLICT };
                    let h = &mut hit[home[s as usize] as usize];
                    listed += usize::from(*h != i as u32);
                    *h = i as u32;
                }
            }
        }
        let (mut compact, mut conflicting_elements) = (vec![u32::MAX; owner.len()], Vec::new());
        for (s, _) in owner.iter().enumerate().filter(|&(_, &o)| o == CONFLICT) {
            compact[s] = conflicting_elements.len() as u32;
            conflicting_elements.push(local.elements[s]);
        }
        (compact, conflicting_elements, listed)
    }
}

/// `lw`'s owner of every slot: the thread whose line-aligned element
/// block holds the slot's element.
fn lw_homes(pat: &AccessPattern, local: &LocalIndex, threads: usize) -> Vec<u8> {
    let bounds: Vec<usize> = (0..threads)
        .map(|t| elem_block_range(pat.num_elements, t, threads).end)
        .collect();
    let home = |x: &u32| bounds.partition_point(|&b| b <= *x as usize) as u8;
    local.elements.iter().map(home).collect()
}

impl Inspection {
    /// `lw`'s per-thread iteration lists (ascending): thread `t` runs
    /// every iteration that references an element of its block.  `pat`
    /// must be the pattern this inspection was taken of; the lists are
    /// built on the first call and kept.
    pub fn owner_lists(&self, pat: &AccessPattern) -> &[Vec<u32>] {
        self.iters_of.get_or_init(|| {
            let home = lw_homes(pat, &self.local, self.threads);
            let mut iters_of = vec![Vec::new(); self.threads];
            for i in 0..pat.num_iterations() {
                for &s in &self.local.slot_of_ref[pat.ref_range(i)] {
                    let list: &mut Vec<u32> = &mut iters_of[home[s as usize] as usize];
                    if list.last() != Some(&(i as u32)) {
                        list.push(i as u32);
                    }
                }
            }
            iters_of
        })
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
        // First touch numbers element x as slot x here.
        let pat = AccessPattern::from_iters(3, &[vec![0, 1], vec![1], vec![0, 2], vec![2]]);
        let c = Inspector::analyze(&pat, 2).conflicts;
        assert_eq!(c.conflicting_elements, vec![0]);
        assert_eq!(c.compact, vec![0, u32::MAX, u32::MAX]);
    }

    #[test]
    fn compact_map_is_keyed_by_slot() {
        // First touch numbers element 5 as slot 0 and element 2 as slot
        // 1; only element 2 is referenced by both threads.
        let pat = AccessPattern::from_iters(6, &[vec![5, 2], vec![2]]);
        let insp = Inspector::analyze(&pat, 2);
        assert_eq!(insp.local.elements, vec![5, 2]);
        assert_eq!(insp.conflicts.compact, vec![u32::MAX, 0]);
        assert_eq!(insp.conflicts.conflicting_elements, vec![2]);
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
        let c = Inspector::analyze(&pat, 1).conflicts;
        assert!(c.conflicting_elements.is_empty());
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
            Inspector::analyze(&pat, 8)
                .conflicts
                .conflicting_elements
                .len()
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
        let insp = Inspector::analyze(&pat, 2);
        let lists = insp.owner_lists(&pat);
        // Thread 0 owns elements 0..8, thread 1 owns 8..16.
        assert_eq!(lists[0], vec![0, 1, 3]);
        assert_eq!(lists[1], vec![0, 2, 3]);
        // Iterations 0 and 3 are replicated to both threads.
        assert!((insp.replication - 6.0 / 4.0).abs() < 1e-12);
        // Built once: a second call returns the same lists.
        assert!(std::ptr::eq(lists, insp.owner_lists(&pat)));
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
            let r = Inspector::analyze(&pat, threads).replication;
            assert!(r >= 1.0 - 1e-12);
            assert!(r <= 3.0 + 1e-12, "at most MO owners");
            assert!(r <= threads as f64 + 1e-12);
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
        assert_eq!(insp.threads, 4);
        assert_eq!(insp.owner_lists(&pat).len(), 4);
        assert_eq!(insp.conflicts.compact.len(), insp.chars.distinct);
        assert!(insp.conflicts.conflicting_elements.len() <= insp.chars.distinct);
    }

    #[test]
    fn analyses_from_an_inspection_carry_its_slot_numbering() {
        let pat = AccessPattern::from_iters(9, &[vec![4, 1], vec![], vec![1, 8, 4]]);
        let insp = Inspector::analyze(&pat, 2);
        let analyses = Analyses::from(Some(&insp));
        // `hash` reads `analyses.local` and `sel` its inspection's
        // numbering: both are the inspection's own, so neither localizes.
        assert!(std::ptr::eq(analyses.inspection.unwrap(), &insp));
        assert!(std::ptr::eq(analyses.local.unwrap(), &*insp.local));
        let none = Analyses::from(None);
        assert!(none.inspection.is_none() && none.local.is_none());
    }
}
