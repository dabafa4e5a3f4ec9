//! Property tests: every parallel reduction scheme is observationally
//! equivalent to the sequential loop, for arbitrary patterns, thread
//! counts and integer monoids (exact equality — no FP tolerance games).

use proptest::prelude::*;
use smartapps_reductions::{
    run_scheme, run_scheme_with, Analyses, Inspector, Scheme, SpawnExecutor,
};
use smartapps_workloads::pattern::{contribution_i64, sequential_reduce_i64};
use smartapps_workloads::{AccessPattern, Distribution, PatternSpec};

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
    let local = Inspector::localize(pat);
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
        prop_assert!(insp.conflicts.num_conflicting <= insp.chars.distinct);
        // Compact map is a bijection onto conflicting_elements.
        for (slot, &e) in insp.conflicts.conflicting_elements.iter().enumerate() {
            prop_assert_eq!(insp.conflicts.compact[e as usize] as usize, slot);
        }
        // Owner lists: replication within [1, min(MO_max, threads)]
        // whenever any iteration references something.
        if pat.num_references() > 0 {
            prop_assert!(insp.owners.replication >= 0.0);
            prop_assert!(insp.owners.replication <= threads as f64 + 1e-9);
        }
        // Every iteration with references appears in at least one owner list.
        let mut seen = vec![false; pat.num_iterations()];
        for list in &insp.owners.iters_of {
            for &i in list {
                seen[i as usize] = true;
            }
        }
        for (i, &was_seen) in seen.iter().enumerate() {
            prop_assert_eq!(was_seen, !pat.refs(i).is_empty(), "iteration {}", i);
        }
        // Single thread never conflicts.
        if threads == 1 {
            prop_assert_eq!(insp.conflicts.num_conflicting, 0);
        }
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
