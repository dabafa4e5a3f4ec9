//! Property tests: every parallel reduction scheme is observationally
//! equivalent to the sequential loop, for arbitrary patterns, thread
//! counts and integer monoids (exact equality — no FP tolerance games);
//! and the inspector, which derives everything from the slot numbering,
//! equals a naive per-element oracle field for field.

use proptest::prelude::*;
use smartapps_reductions::{
    run_scheme, run_scheme_with, Analyses, Inspector, LocalIndex, Scheme, SpawnExecutor,
};
use smartapps_workloads::chars::CH_BUCKETS;
use smartapps_workloads::pattern::{contribution_i64, sequential_reduce_i64};
use smartapps_workloads::{
    block_range, elem_block_range, fig3_rows, AccessPattern, Distribution, PatternChars,
    PatternSpec,
};

/// The inspector written the direct way, over elements: a count per
/// element and a sort per iteration for the characterization, an owner
/// byte per element for the conflicts, and a range lookup per reference
/// for `lw`'s owner lists.  The slot-derived inspector must equal it.
mod naive {
    use super::*;

    pub fn chars(pat: &AccessPattern) -> PatternChars {
        let mut per_elem = vec![0u32; pat.num_elements];
        for &x in &pat.indices {
            per_elem[x as usize] += 1;
        }
        let distinct = per_elem.iter().filter(|&&c| c > 0).count();
        let distinct_lines = per_elem
            .chunks(8)
            .filter(|ch| ch.iter().any(|&c| c > 0))
            .count();
        let mut ch = vec![0usize; CH_BUCKETS];
        let mut max_refs = 0usize;
        for &c in &per_elem {
            if c > 0 {
                ch[(c as usize - 1).min(CH_BUCKETS - 1)] += 1;
                max_refs = max_refs.max(c as usize);
            }
        }
        let iters = pat.num_iterations();
        let mut mo_sum = 0usize;
        for i in 0..iters {
            let mut refs = pat.refs(i).to_vec();
            refs.sort_unstable();
            refs.dedup();
            mo_sum += refs.len();
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

    /// The elements more than one thread references, ascending.
    pub fn conflicting_elements(pat: &AccessPattern, threads: usize) -> Vec<u32> {
        const UNOWNED: u8 = u8::MAX;
        const CONFLICT: u8 = u8::MAX - 1;
        let mut owner = vec![UNOWNED; pat.num_elements];
        for t in 0..threads {
            for i in block_range(pat.num_iterations(), t, threads) {
                for &x in pat.refs(i) {
                    match owner[x as usize] {
                        UNOWNED => owner[x as usize] = t as u8,
                        CONFLICT => {}
                        o if o as usize == t => {}
                        _ => owner[x as usize] = CONFLICT,
                    }
                }
            }
        }
        (0..pat.num_elements as u32)
            .filter(|&x| owner[x as usize] == CONFLICT)
            .collect()
    }

    /// `lw`'s per-thread iteration lists and replication factor.
    pub fn owner_lists(pat: &AccessPattern, threads: usize) -> (Vec<Vec<u32>>, f64) {
        let bounds: Vec<usize> = (0..threads)
            .map(|t| elem_block_range(pat.num_elements, t, threads).end)
            .collect();
        let mut iters_of: Vec<Vec<u32>> = vec![Vec::new(); threads];
        for i in 0..pat.num_iterations() {
            for &x in pat.refs(i) {
                let t = bounds.partition_point(|&b| b <= x as usize);
                if iters_of[t].last() != Some(&(i as u32)) {
                    iters_of[t].push(i as u32);
                }
            }
        }
        let listed: usize = iters_of.iter().map(Vec::len).sum();
        let iters = pat.num_iterations();
        let replication = if iters > 0 {
            listed as f64 / iters as f64
        } else {
            0.0
        };
        (iters_of, replication)
    }
}

/// The inspector of `pat` at widths 1, 2, 4 and 7 equals the naive
/// oracle: the characterization field for field (f64 fields bit for
/// bit), the conflicting element set, `lw`'s owner lists and the
/// replication factor (bit for bit).
fn check_inspection_equals_oracle(pat: &AccessPattern) -> Result<(), TestCaseError> {
    let want = naive::chars(pat);
    let bits = |c: &PatternChars| [c.mo.to_bits(), c.con.to_bits(), c.sp.to_bits()];
    prop_assert_eq!(&PatternChars::measure(pat), &want, "measure");
    for threads in [1, 2, 4, 7] {
        let insp = Inspector::analyze(pat, threads);
        prop_assert_eq!(bits(&insp.chars), bits(&want), "mo, con, sp");
        prop_assert_eq!(&insp.chars, &want);
        let mut conflicting = insp.conflicts.conflicting_elements.clone();
        conflicting.sort_unstable();
        let want_conflicting = naive::conflicting_elements(pat, threads);
        prop_assert_eq!(conflicting, want_conflicting, "x{}", threads);
        let (lists, replication) = naive::owner_lists(pat, threads);
        let (got, expected) = (insp.replication.to_bits(), replication.to_bits());
        prop_assert_eq!(got, expected, "replication x{}", threads);
        prop_assert_eq!(insp.owner_lists(pat), &lists[..], "x{}", threads);
    }
    Ok(())
}

/// Strategy: arbitrary small access patterns in CSR form.
fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    (1usize..200, 0usize..120, 0usize..6).prop_flat_map(|(n, iters, max_refs)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..n as u32, 0..=max_refs),
            iters..=iters,
        )
        .prop_map(move |lists| AccessPattern::from_iters(n, &lists))
    })
}

/// Strategy: generator-driven patterns (exercises the real workload
/// shapes, larger than the hand-rolled CSR cases).
fn arb_generated() -> impl Strategy<Value = AccessPattern> {
    (
        16usize..5000,
        1usize..2000,
        1usize..4,
        1u32..100,
        prop_oneof![
            Just(Distribution::Uniform),
            (1.0f64..2.0).prop_map(|s| Distribution::Zipf { s }),
            (4u32..64).prop_map(|w| Distribution::Clustered { window: w }),
        ],
        any::<u64>(),
    )
        .prop_map(|(n, iters, refs, cov_pct, dist, seed)| {
            PatternSpec {
                num_elements: n,
                iterations: iters,
                refs_per_iter: refs,
                coverage: cov_pct as f64 / 100.0,
                dist,
                seed,
            }
            .generate()
        })
}

fn body(_i: usize, r: usize) -> i64 {
    contribution_i64(r)
}

/// `hash` handed a cached [`LocalIndex`](smartapps_reductions::LocalIndex)
/// and `hash` localizing per call must both equal the oracle.
fn check_hash_index_paths(pat: &AccessPattern, threads: usize) -> Result<(), TestCaseError> {
    let oracle = sequential_reduce_i64(pat);
    let local = LocalIndex::of(pat);
    let supplied = Analyses {
        inspection: None,
        local: Some(&local),
    };
    let cached = run_scheme_with(Scheme::Hash, pat, &body, threads, supplied, &SpawnExecutor);
    prop_assert_eq!(&cached, &oracle, "hash, supplied index, x{}", threads);
    let per_call = run_scheme(Scheme::Hash, pat, &body, threads, None);
    prop_assert_eq!(&per_call, &oracle, "hash, localized per call, x{}", threads);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_schemes_equal_oracle_on_arbitrary_patterns(
        pat in arb_pattern(),
        threads in 1usize..9,
    ) {
        let oracle = sequential_reduce_i64(&pat);
        let insp = Inspector::analyze(&pat, threads);
        for s in Scheme::all_parallel() {
            let got = run_scheme(s, &pat, &body, threads, Some(&insp));
            prop_assert_eq!(&got, &oracle, "{} x{}", s, threads);
        }
    }

    #[test]
    fn all_schemes_equal_oracle_on_generated_patterns(
        pat in arb_generated(),
        threads in 1usize..7,
    ) {
        let oracle = sequential_reduce_i64(&pat);
        let insp = Inspector::analyze(&pat, threads);
        for s in Scheme::all_parallel() {
            let got = run_scheme(s, &pat, &body, threads, Some(&insp));
            prop_assert_eq!(&got, &oracle, "{} x{}", s, threads);
        }
    }

    #[test]
    fn hash_equals_oracle_with_and_without_a_supplied_index(
        pat in arb_pattern(),
        generated in arb_generated(),
        threads in 1usize..9,
    ) {
        check_hash_index_paths(&pat, threads)?;
        check_hash_index_paths(&generated, threads)?;
    }

    #[test]
    fn inspector_invariants(
        pat in arb_generated(),
        threads in 1usize..9,
    ) {
        let insp = Inspector::analyze(&pat, threads);
        // Conflicting elements are a subset of distinct referenced ones.
        let conflicting = insp.conflicts.conflicting_elements.len();
        prop_assert!(conflicting <= insp.chars.distinct);
        // The slot -> conflict index map is a bijection from the
        // conflicting slots onto the conflict indices.
        let mut slot_of_conflict = vec![None; conflicting];
        for (slot, &c) in insp.conflicts.compact.iter().enumerate() {
            if c != u32::MAX {
                prop_assert!(slot_of_conflict[c as usize].replace(slot).is_none());
            }
        }
        for (c, slot) in slot_of_conflict.iter().enumerate() {
            let slot = slot.expect("every conflict index has a slot");
            prop_assert_eq!(insp.local.elements[slot], insp.conflicts.conflicting_elements[c]);
        }
        // Owner lists: replication within [1, min(MO_max, threads)]
        // whenever any iteration references something.
        if pat.num_references() > 0 {
            prop_assert!(insp.replication >= 0.0);
            prop_assert!(insp.replication <= threads as f64 + 1e-9);
        }
        // Every iteration with references appears in at least one owner list.
        let mut seen = vec![false; pat.num_iterations()];
        for list in insp.owner_lists(&pat) {
            for &i in list {
                seen[i as usize] = true;
            }
        }
        for (i, &was_seen) in seen.iter().enumerate() {
            prop_assert_eq!(was_seen, !pat.refs(i).is_empty(), "iteration {}", i);
        }
        // Single thread never conflicts.
        if threads == 1 {
            prop_assert_eq!(conflicting, 0);
        }
    }

    #[test]
    fn inspection_equals_naive_oracle_on_arbitrary_patterns(
        pat in arb_pattern(),
        generated in arb_generated(),
    ) {
        check_inspection_equals_oracle(&pat)?;
        check_inspection_equals_oracle(&generated)?;
    }

    #[test]
    fn characterization_invariants(pat in arb_generated()) {
        let c = smartapps_workloads::PatternChars::measure(&pat);
        prop_assert_eq!(c.references, pat.num_references());
        prop_assert!(c.distinct <= c.num_elements);
        prop_assert!(c.distinct_lines <= c.num_elements.div_ceil(8));
        prop_assert!(c.distinct_lines * 8 >= c.distinct.min(c.num_elements));
        prop_assert!(c.sp >= 0.0 && c.sp <= 1.0 + 1e-12);
        prop_assert!(c.mo <= 8.0, "refs_per_iter < 4 in this strategy");
        // CH histogram covers exactly the distinct elements.
        prop_assert_eq!(c.ch.iter().sum::<usize>(), c.distinct);
    }

    #[test]
    fn model_ranks_are_total_and_deterministic(
        pat in arb_generated(),
        threads in 1usize..9,
        lw in any::<bool>(),
    ) {
        use smartapps_reductions::{DecisionModel, ModelInput};
        let insp = Inspector::analyze(&pat, threads);
        let input = ModelInput::from_inspection(&insp, lw);
        let m = DecisionModel::default();
        let a = m.decide(&input);
        let b = m.decide(&input);
        prop_assert_eq!(a.ranking.len(), 5);
        for ((s1, c1), (s2, c2)) in a.ranking.iter().zip(b.ranking.iter()) {
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(c1, c2);
        }
        // Costs ascend and are positive (lw may be infinite when barred).
        for w in a.ranking.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        if !lw {
            prop_assert!(a.best() != Scheme::Lw);
        }
    }
}

/// The characterization equivalence on the shapes a generator samples
/// rarely: no pattern, empty iterations, one hot element, elements that
/// share a line or sit on either side of a line boundary, and the Zipf
/// and clustered tails at a size where a line holds many elements.
#[test]
fn inspection_equals_naive_oracle_on_edge_patterns() {
    let generated = |n, dist, seed| {
        PatternSpec {
            num_elements: n,
            iterations: 3000,
            refs_per_iter: 3,
            coverage: 0.5,
            dist,
            seed,
        }
        .generate()
    };
    let patterns = [
        AccessPattern::from_iters(16, &[]),
        AccessPattern::from_iters(7, &[vec![], vec![], vec![]]),
        AccessPattern::from_iters(9, &[vec![], vec![4, 1], vec![], vec![1, 8, 4], vec![]]),
        AccessPattern::from_iters(4, &vec![vec![3u32, 3, 3]; 100]),
        AccessPattern::from_iters(1, &[vec![0u32; CH_BUCKETS + 10]]),
        AccessPattern::from_iters(1001, &[vec![7, 0, 8], vec![511, 512, 0], vec![1000]]),
        generated(40_000, Distribution::Zipf { s: 1.2 }, 5),
        generated(40_000, Distribution::Clustered { window: 32 }, 6),
        generated(1 << 18, Distribution::Uniform, 7),
    ];
    for pat in &patterns {
        check_inspection_equals_oracle(pat).unwrap();
    }
}

/// The characterization equivalence on every Figure 3 row, whose
/// decisions depend on it.
#[test]
fn inspection_equals_naive_oracle_on_fig3_rows() {
    for row in fig3_rows() {
        let pat = row.pattern(1234);
        check_inspection_equals_oracle(&pat)
            .unwrap_or_else(|e| panic!("{} n={}: {e}", row.app, row.n));
    }
}
