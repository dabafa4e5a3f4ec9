//! Property tests for fused multi-output sweeps: for arbitrary patterns,
//! thread counts and fanouts K, every scheme's fused execution is
//! observationally equivalent to K independent sequential oracles — the
//! contract the runtime's fused sweeps rely on (exact equality on integer
//! monoids, no FP tolerance games) — and output k is the single-body run
//! of body k.

use proptest::prelude::*;
use smartapps_reductions::{run_fused, run_scheme, FusedBody, Inspector, Scheme};
use smartapps_workloads::pattern::{contribution, contribution_i64, sequential_reduce_i64};
use smartapps_workloads::{AccessPattern, Distribution, PatternSpec};

/// Strategy: arbitrary small access patterns in CSR form (hand-rolled
/// iteration lists, including empty iterations and repeated indices).
fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    (1usize..150, 0usize..90, 0usize..5).prop_flat_map(|(n, iters, max_refs)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..n as u32, 0..=max_refs),
            iters..=iters,
        )
        .prop_map(move |lists| AccessPattern::from_iters(n, &lists))
    })
}

/// Strategy: generator-driven patterns (the real workload shapes).
fn arb_generated() -> impl Strategy<Value = AccessPattern> {
    (
        16usize..2000,
        1usize..800,
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

/// K owned bodies, each scaling the base contribution differently so a
/// cross-wired output (body k feeding output j) cannot cancel out.
fn scaled_bodies(k: usize) -> Vec<Box<dyn Fn(usize, usize) -> i64 + Sync>> {
    (0..k)
        .map(|kk| {
            let scale = kk as i64 + 1;
            Box::new(move |_i: usize, r: usize| contribution_i64(r).wrapping_mul(scale))
                as Box<dyn Fn(usize, usize) -> i64 + Sync>
        })
        .collect()
}

fn check_all_schemes(pat: &AccessPattern, threads: usize, k: usize) -> Result<(), TestCaseError> {
    let insp = Inspector::analyze(pat, threads);
    let owned = scaled_bodies(k);
    let bodies: Vec<FusedBody<'_, i64>> =
        owned.iter().map(|b| &**b as FusedBody<'_, i64>).collect();
    let base = sequential_reduce_i64(pat);
    for s in Scheme::all_parallel() {
        let outs = run_fused(s, pat, &bodies, threads, Some(&insp));
        prop_assert_eq!(outs.len(), k, "{} must produce one output per body", s);
        for (kk, out) in outs.iter().enumerate() {
            let scale = kk as i64 + 1;
            let expect: Vec<i64> = base.iter().map(|v| v.wrapping_mul(scale)).collect();
            prop_assert_eq!(
                out,
                &expect,
                "{} x{} fanout {} output {}",
                s,
                threads,
                k,
                kk
            );
        }
    }
    Ok(())
}

/// Output k of `run_fused(s, bodies)` against `run_scheme(s, bodies[k])`
/// for every software scheme.  i64 must match bit for bit everywhere.  So
/// must f64 wherever the merge order is fixed: one thread, or any scheme
/// but `ll`, which combines under stripe locks in the order threads
/// arrive, so there only tolerance holds.
fn check_fused_vs_single(
    pat: &AccessPattern,
    threads: usize,
    k: usize,
) -> Result<(), TestCaseError> {
    let insp = Inspector::analyze(pat, threads);
    let ints: Vec<Box<dyn Fn(usize, usize) -> i64 + Sync>> = (0..k)
        .map(|kk| {
            Box::new(move |i: usize, r: usize| {
                contribution_i64(r)
                    .wrapping_mul(kk as i64 + 1)
                    .wrapping_add(i as i64)
            }) as Box<dyn Fn(usize, usize) -> i64 + Sync>
        })
        .collect();
    let floats: Vec<Box<dyn Fn(usize, usize) -> f64 + Sync>> = (0..k)
        .map(|kk| {
            Box::new(move |i: usize, r: usize| contribution(r) * (kk as f64 + 1.0) + i as f64)
                as Box<dyn Fn(usize, usize) -> f64 + Sync>
        })
        .collect();
    let ints: Vec<FusedBody<'_, i64>> = ints.iter().map(|b| &**b as FusedBody<'_, i64>).collect();
    let floats: Vec<FusedBody<'_, f64>> =
        floats.iter().map(|b| &**b as FusedBody<'_, f64>).collect();
    for s in std::iter::once(Scheme::Seq).chain(Scheme::all_parallel()) {
        let fused_i = run_fused(s, pat, &ints, threads, Some(&insp));
        let fused_f = run_fused(s, pat, &floats, threads, Some(&insp));
        let fixed_order = threads == 1 || s != Scheme::Ll;
        for kk in 0..k {
            let single_i = run_scheme(s, pat, &ints[kk], threads, Some(&insp));
            prop_assert_eq!(
                &fused_i[kk],
                &single_i,
                "{} x{} i64 output {}",
                s,
                threads,
                kk
            );
            let single_f = run_scheme(s, pat, &floats[kk], threads, Some(&insp));
            if fixed_order {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(&fused_f[kk]),
                    bits(&single_f),
                    "{} x{} f64 output {}",
                    s,
                    threads,
                    kk
                );
            } else {
                for (e, (a, b)) in single_f.iter().zip(&fused_f[kk]).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "{} x{} f64 output {} elem {}: {} vs {}",
                        s,
                        threads,
                        kk,
                        e,
                        a,
                        b
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fused_output_k_is_the_single_run_of_body_k_on_arbitrary_patterns(
        pat in arb_pattern(),
        threads in 1usize..7,
        k in 1usize..5,
    ) {
        check_fused_vs_single(&pat, threads, k)?;
    }

    #[test]
    fn fused_output_k_is_the_single_run_of_body_k_on_generated_patterns(
        pat in arb_generated(),
        threads in 1usize..5,
        k in 1usize..5,
    ) {
        check_fused_vs_single(&pat, threads, k)?;
    }

    #[test]
    fn fused_k_outputs_equal_k_oracles_on_arbitrary_patterns(
        pat in arb_pattern(),
        threads in 1usize..7,
        k in 1usize..6,
    ) {
        check_all_schemes(&pat, threads, k)?;
    }

    #[test]
    fn fused_k_outputs_equal_k_oracles_on_generated_patterns(
        pat in arb_generated(),
        threads in 1usize..5,
        k in 1usize..5,
    ) {
        check_all_schemes(&pat, threads, k)?;
    }

    #[test]
    fn fused_bodies_see_their_iteration_index(
        pat in arb_generated(),
        threads in 1usize..5,
    ) {
        // Bodies keyed by (iteration, slot): the fused traversal must
        // hand every body the same coordinates the sequential loop sees.
        let insp = Inspector::analyze(&pat, threads);
        let b0 = |i: usize, r: usize| (i as i64) * 3 + r as i64;
        let b1 = |i: usize, r: usize| (i as i64) - 2 * r as i64;
        let bodies: Vec<FusedBody<'_, i64>> = vec![&b0, &b1];
        let mut oracle0 = vec![0i64; pat.num_elements];
        let mut oracle1 = vec![0i64; pat.num_elements];
        for (i, r, x) in pat.iter_refs() {
            oracle0[x as usize] += b0(i, r);
            oracle1[x as usize] += b1(i, r);
        }
        for s in Scheme::all_parallel() {
            let outs = run_fused(s, &pat, &bodies, threads, Some(&insp));
            prop_assert_eq!(&outs[0], &oracle0, "{} output 0", s);
            prop_assert_eq!(&outs[1], &oracle1, "{} output 1", s);
        }
    }
}
