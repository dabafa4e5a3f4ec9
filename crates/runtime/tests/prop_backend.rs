//! Property tests for the PCLR hardware backend: for arbitrary access
//! patterns, the result read back from the simulated machine equals the
//! software sequential oracle — bit-exact for integer reductions,
//! within reassociation tolerance for floating point — and repeated
//! runs are deterministic down to the cycle count.
//!
//! Patterns are kept small: the event-driven simulator runs orders of
//! magnitude slower than native execution, and these cases each build
//! and drain a whole machine.

use proptest::prelude::*;
use smartapps_reductions::{Analyses, Scheme};
use smartapps_runtime::backend::{Backend, ExecRequest, PclrBackend, PclrConfig};
use smartapps_runtime::JobSpec;
use smartapps_workloads::pattern::{sequential_reduce, sequential_reduce_i64};
use smartapps_workloads::{
    contribution, contribution_i64, AccessPattern, Distribution, PatternSpec,
};
use std::sync::Arc;

/// Strategy: small CSR patterns (empty iterations, duplicate indices,
/// single elements — the shapes that break address/partition math).
fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    (1usize..120, 0usize..60, 0usize..4).prop_flat_map(|(n, iters, max_refs)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..n as u32, 0..=max_refs),
            iters..=iters,
        )
        .prop_map(move |lists| AccessPattern::from_iters(n, &lists))
    })
}

/// Strategy: small generator-driven patterns.
fn arb_generated() -> impl Strategy<Value = AccessPattern> {
    (
        8usize..400,
        1usize..120,
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

fn run_pclr(backend: &PclrBackend, pat: &Arc<AccessPattern>, spec: &JobSpec) -> (Vec<i64>, u64) {
    let out = backend.execute(&ExecRequest {
        pattern: pat,
        body: &spec.body,
        threads: backend.config().nodes,
        scheme: Scheme::Pclr,
        analyses: Analyses::default(),
    });
    (
        out.output.as_i64().unwrap().to_vec(),
        out.sim_cycles.expect("pclr reports cycles"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pclr_equals_i64_oracle_on_arbitrary_patterns(
        pat in arb_pattern(),
        nodes in 1usize..5,
    ) {
        let backend = PclrBackend::new(PclrConfig { nodes, ..PclrConfig::default() });
        let pat = Arc::new(pat);
        let spec = JobSpec::i64(pat.clone(), |i, r| {
            contribution_i64(r).wrapping_add(i as i64)
        });
        let (got, cycles) = run_pclr(&backend, &pat, &spec);
        let mut oracle = vec![0i64; pat.num_elements];
        for (i, r, x) in pat.iter_refs() {
            oracle[x as usize] += contribution_i64(r).wrapping_add(i as i64);
        }
        prop_assert_eq!(&got, &oracle, "nodes {}", backend.config().nodes);
        prop_assert!(cycles > 0);
    }

    #[test]
    fn pclr_equals_both_oracles_on_generated_patterns(pat in arb_generated()) {
        let backend = PclrBackend::new(PclrConfig { nodes: 4, ..PclrConfig::default() });
        let pat = Arc::new(pat);
        // Integer flavor: exact.
        let spec = JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        let (got, _) = run_pclr(&backend, &pat, &spec);
        prop_assert_eq!(&got, &sequential_reduce_i64(&pat));
        // Float flavor: reassociated like any parallel scheme.
        let spec = JobSpec::f64(pat.clone(), |_i, r| contribution(r));
        let out = backend.execute(&ExecRequest {
            pattern: &pat,
            body: &spec.body,
            threads: 4,
            scheme: Scheme::Pclr,
            analyses: Analyses::default(),
        });
        let oracle = sequential_reduce(&pat);
        for (e, (a, b)) in oracle.iter().zip(out.output.as_f64().unwrap()).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "element {}: {} vs {}", e, a, b
            );
        }
    }

    #[test]
    fn pclr_execution_is_deterministic(pat in arb_generated()) {
        // Same job, same machine, twice: identical values *and* cycles —
        // the property the oracle tests (and profile calibration) pin on.
        let backend = PclrBackend::new(PclrConfig { nodes: 2, ..PclrConfig::default() });
        let pat = Arc::new(pat);
        let spec = JobSpec::i64(pat.clone(), |_i, r| contribution_i64(r));
        let (a, cycles_a) = run_pclr(&backend, &pat, &spec);
        let (b, cycles_b) = run_pclr(&backend, &pat, &spec);
        prop_assert_eq!(a, b);
        prop_assert_eq!(cycles_a, cycles_b);
    }
}
