//! Property tests for the execution backends.
//!
//! * The PCLR hardware backend: for arbitrary access patterns, the
//!   result read back from the simulated machine equals the software
//!   sequential oracle — bit-exact for integer reductions, within
//!   reassociation tolerance for floating point — and repeated runs are
//!   deterministic down to the cycle count.  Patterns are kept small: the
//!   event-driven simulator runs orders of magnitude slower than native
//!   execution, and these cases each build and drain a whole machine.
//! * The software backend's built-in bodies: every [`Builtin`], under
//!   every software scheme and at widths 1, 2, 4 and 7, produces the
//!   output of the same function submitted as a closure, bit for bit.
//!   The built-in runs as a concrete closure the kernel inlines, the
//!   closure through `dyn`; the two may differ in codegen, never in bits.

use proptest::prelude::*;
use smartapps_reductions::{Analyses, Scheme};
use smartapps_runtime::backend::{Backend, ExecRequest, PclrBackend, PclrConfig, SoftwareBackend};
use smartapps_runtime::{Builtin, JobOutput, JobSpec, WorkerPool};
use smartapps_workloads::pattern::{sequential_reduce, sequential_reduce_i64};
use smartapps_workloads::{
    contribution, contribution_i64, AccessPattern, Distribution, PatternSpec,
};
use std::sync::{Arc, OnceLock};

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

/// Every built-in body, `mul` at a few scales (0, negative, wrapping).
const BUILTINS: [Builtin; 8] = [
    Builtin::Sum,
    Builtin::Mul(3),
    Builtin::Mul(0),
    Builtin::Mul(-7),
    Builtin::Mul(i64::MAX),
    Builtin::FSum,
    Builtin::Usum,
    Builtin::Fusum,
];

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

/// The output's bits, flavor-tagged so an i64 result never equals an f64
/// one.
fn bits(out: &JobOutput) -> (bool, Vec<u64>) {
    match out {
        JobOutput::F64(v) => (true, v.iter().map(|x| x.to_bits()).collect()),
        JobOutput::I64(v) => (false, v.iter().map(|&x| x as u64).collect()),
    }
}

/// One software backend per width, on a pool of that width.
fn software(threads: usize) -> &'static SoftwareBackend {
    static POOLS: OnceLock<Vec<(usize, SoftwareBackend)>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| {
        [1, 2, 4, 7]
            .into_iter()
            .map(|t| (t, SoftwareBackend::new(Arc::new(WorkerPool::new(t)))))
            .collect()
    });
    &pools.iter().find(|(t, _)| *t == threads).unwrap().1
}

/// Run every built-in and its closure twin under every software scheme
/// at widths 1, 2, 4 and 7, and require the same bits.
fn builtins_match_closures(pat: AccessPattern) -> Result<(), TestCaseError> {
    let pat = Arc::new(pat);
    for b in BUILTINS {
        let builtin = JobSpec::builtin(pat.clone(), b);
        prop_assert_eq!(builtin.uniform_body, b.is_uniform());
        let closure = as_closure(&pat, b);
        for threads in [1usize, 2, 4, 7] {
            let backend = software(threads);
            for scheme in Scheme::all_parallel().into_iter().chain([Scheme::Seq]) {
                let run = |spec: &JobSpec| {
                    backend
                        .execute(&ExecRequest {
                            pattern: &pat,
                            body: &spec.body,
                            threads,
                            scheme,
                            analyses: Analyses::default(),
                        })
                        .output
                };
                let (got, want) = (run(&builtin), run(&closure));
                prop_assert_eq!(bits(&got), bits(&want), "{:?} {} x{}", b, scheme, threads);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn builtins_equal_their_closures_on_arbitrary_patterns(pat in arb_pattern()) {
        builtins_match_closures(pat)?;
    }

    #[test]
    fn builtins_equal_their_closures_on_generated_patterns(pat in arb_generated()) {
        builtins_match_closures(pat)?;
    }
}
