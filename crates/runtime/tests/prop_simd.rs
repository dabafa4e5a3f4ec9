//! Property tests of the SIMD backend's numerics policy (see
//! `docs/MODEL.md`): for arbitrary access patterns — including the
//! degenerate CSR shapes (empty iterations, duplicate indices, single
//! elements) that break lane/stripe math —
//!
//! * **i64 is bit-exact** against the sequential oracle: integer sums
//!   are associative, so lane striping must not change a single bit;
//! * **f64 is run-to-run bit-identical**: the kernel's blocked
//!   summation order is fixed, so the same job produces the same bits
//!   every execution (repeatability the calibrator and the oracle
//!   harness both pin on);
//! * **f64 stays within the documented reassociation bound** of the
//!   sequential left-fold oracle (`1e-9` relative per element for
//!   these magnitudes);
//! * **a built-in body is its closure**: every
//!   [`Builtin`](smartapps_runtime::Builtin), at widths 1, 2, 4 and 7,
//!   produces the output of the same function submitted as a closure,
//!   bit for bit, though the kernel inlines one and calls the other
//!   through `dyn`.

use proptest::prelude::*;
use smartapps_reductions::{Analyses, Scheme};
use smartapps_runtime::backend::{Backend, ExecRequest, SimdBackend};
use smartapps_runtime::{Builtin, JobOutput, JobSpec, WorkerPool};
use smartapps_workloads::pattern::{sequential_reduce, sequential_reduce_i64};
use smartapps_workloads::{
    contribution, contribution_i64, AccessPattern, Distribution, PatternSpec,
};
use std::sync::Arc;

/// Strategy: small CSR patterns with awkward shapes.
fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    (1usize..120, 0usize..60, 0usize..4).prop_flat_map(|(n, iters, max_refs)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..n as u32, 0..=max_refs),
            iters..=iters,
        )
        .prop_map(move |lists| AccessPattern::from_iters(n, &lists))
    })
}

/// Strategy: small generator-driven patterns across distributions.
fn arb_generated() -> impl Strategy<Value = AccessPattern> {
    (
        8usize..400,
        1usize..160,
        1usize..4,
        10u32..100,
        prop_oneof![
            Just(Distribution::Uniform),
            (4u32..32).prop_map(|w| Distribution::Clustered { window: w }),
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

fn run_simd_i64(
    backend: &SimdBackend,
    pat: &Arc<AccessPattern>,
    spec: &JobSpec,
    threads: usize,
) -> Vec<i64> {
    let out = backend.execute(&ExecRequest {
        pattern: pat,
        body: &spec.body,
        threads,
        scheme: Scheme::Simd,
        analyses: Analyses::default(),
    });
    assert!(out.sim_cycles.is_none(), "simd is a wall-clock backend");
    out.output.as_i64().unwrap().to_vec()
}

fn run_simd_f64(
    backend: &SimdBackend,
    pat: &Arc<AccessPattern>,
    spec: &JobSpec,
    threads: usize,
) -> Vec<f64> {
    backend
        .execute(&ExecRequest {
            pattern: pat,
            body: &spec.body,
            threads,
            scheme: Scheme::Simd,
            analyses: Analyses::default(),
        })
        .output
        .as_f64()
        .unwrap()
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simd_is_bit_exact_against_the_i64_oracle(
        pat in arb_pattern(),
        threads in 1usize..5,
    ) {
        let backend = SimdBackend::new(Arc::new(WorkerPool::new(threads)));
        let pat = Arc::new(pat);
        let spec = JobSpec::i64(pat.clone(), |i, r| {
            contribution_i64(r).wrapping_add(i as i64)
        });
        let got = run_simd_i64(&backend, &pat, &spec, threads);
        let mut oracle = vec![0i64; pat.num_elements];
        for (i, r, x) in pat.iter_refs() {
            oracle[x as usize] += contribution_i64(r).wrapping_add(i as i64);
        }
        prop_assert_eq!(&got, &oracle, "threads {}", threads);
    }

    #[test]
    fn simd_i64_matches_the_scalar_oracle_on_generated_patterns(pat in arb_generated()) {
        let backend = SimdBackend::new(Arc::new(WorkerPool::new(4)));
        let pat = Arc::new(pat);
        let spec = JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        let got = run_simd_i64(&backend, &pat, &spec, 4);
        prop_assert_eq!(&got, &sequential_reduce_i64(&pat));
    }

    #[test]
    fn simd_f64_is_run_to_run_bit_identical_and_near_the_oracle(
        pat in arb_generated(),
        threads in 1usize..5,
    ) {
        let backend = SimdBackend::new(Arc::new(WorkerPool::new(threads)));
        let pat = Arc::new(pat);
        let spec = JobSpec::f64(pat.clone(), |_i, r| contribution(r));
        let first = run_simd_f64(&backend, &pat, &spec, threads);
        // Fixed blocked summation order: repeated runs reproduce every
        // bit, NaN payloads and signed zeros included.
        for run in 0..3 {
            let again = run_simd_f64(&backend, &pat, &spec, threads);
            prop_assert_eq!(first.len(), again.len());
            for (e, (a, b)) in first.iter().zip(&again).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "run {} element {}: {} vs {}", run, e, a, b
                );
            }
        }
        // Divergence from the sequential left fold is bounded
        // reassociation error, not drift.
        let oracle = sequential_reduce(&pat);
        for (e, (a, b)) in oracle.iter().zip(&first).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "element {}: {} vs {}", e, a, b
            );
        }
    }
}

/// The same function as `b`, submitted as a closure.
fn as_closure(pat: &Arc<AccessPattern>, b: Builtin) -> JobSpec {
    let pat = pat.clone();
    match b {
        Builtin::Sum => JobSpec::i64(pat, |_i, r| contribution_i64(r)),
        Builtin::Mul(k) => JobSpec::i64(pat, move |_i, r| contribution_i64(r).wrapping_mul(k)),
        Builtin::FSum => JobSpec::f64(pat, |_i, r| contribution(r)),
        Builtin::Usum => JobSpec::i64(pat, |i, _r| contribution_i64(i)),
        Builtin::Fusum => JobSpec::f64(pat, |i, _r| contribution(i)),
    }
}

/// The output's bits, flavor-tagged.
fn bits(out: &JobOutput) -> (bool, Vec<u64>) {
    match out {
        JobOutput::F64(v) => (true, v.iter().map(|x| x.to_bits()).collect()),
        JobOutput::I64(v) => (false, v.iter().map(|&x| x as u64).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simd_builtins_equal_their_closures(pat in arb_generated(), degenerate in arb_pattern()) {
        for pat in [pat, degenerate] {
            let pat = Arc::new(pat);
            for threads in [1usize, 2, 4, 7] {
                let backend = SimdBackend::new(Arc::new(WorkerPool::new(threads)));
                let run = |spec: &JobSpec| {
                    backend
                        .execute(&ExecRequest {
                            pattern: &pat,
                            body: &spec.body,
                            threads,
                            scheme: Scheme::Simd,
                            analyses: Analyses::default(),
                        })
                        .output
                };
                for b in [
                    Builtin::Sum,
                    Builtin::Mul(-7),
                    Builtin::Mul(i64::MAX),
                    Builtin::FSum,
                    Builtin::Usum,
                    Builtin::Fusum,
                ] {
                    let got = run(&JobSpec::builtin(pat.clone(), b));
                    let want = run(&as_closure(&pat, b));
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} x{}", b, threads);
                }
            }
        }
    }
}
