//! Cross-crate integration: the adaptive runtime over the paper's workload
//! generators, end to end.

use smartapps::prelude::*;
use smartapps::workloads::{fig3_rows, sequential_reduce};
use std::sync::{Mutex, MutexGuard};

/// Several tests here judge measured wall time; run concurrently, each
/// would measure its neighbours' SPMD regions as well as its own.  Every
/// test holds this lock, so the binary runs them one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The adaptive runtime must produce oracle-identical results on every
/// Figure 3 application shape (subsampled for test speed).
#[test]
fn adaptive_runtime_correct_on_all_fig3_shapes() {
    let _serial = serial();
    for (k, row) in fig3_rows().iter().enumerate() {
        let pat = row.pattern(1000 + k as u64);
        let pat = pat.truncate_iterations(20_000.min(pat.num_iterations()));
        let mut smart = AdaptiveReduction::new(k as u64, 4, row.lw_feasible);
        let (got, log) = smart.execute(&pat, &|_i, r| contribution(r));
        let oracle = sequential_reduce(&pat);
        for (e, (a, b)) in oracle.iter().zip(got.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{} row {k} elem {e}: {a} vs {b} (scheme {})",
                row.app,
                log.scheme
            );
        }
    }
}

/// The model's recommendation must place within the measured top three
/// schemes for the canonical dense and sparse extremes (timing-based, so
/// we allow slack but the extremes are unambiguous).
#[test]
fn model_extremes_agree_with_measurement() {
    let _serial = serial();
    // Dense, high reuse: rep-family territory; hash must NOT win.
    let dense = PatternSpec {
        num_elements: 20_000,
        iterations: 400_000,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: Distribution::Uniform,
        seed: 1,
    }
    .generate();
    let (ranking, _) = rank_schemes(&dense, &|_i, r| contribution(r), 4, false, 3);
    assert_ne!(
        ranking[0].scheme,
        Scheme::Hash,
        "hash cannot win dense reuse"
    );

    // Ultra sparse: rep must be last by a wide margin.
    let sparse = PatternSpec {
        num_elements: 1_000_000,
        iterations: 500,
        refs_per_iter: 4,
        coverage: 0.002,
        dist: Distribution::Uniform,
        seed: 2,
    }
    .generate();
    let (ranking, _) = rank_schemes(&sparse, &|_i, r| contribution(r), 4, false, 3);
    assert_eq!(
        ranking.last().unwrap().scheme,
        Scheme::Rep,
        "rep pays O(N) sweeps for 2,000 updates: must rank last; got {:?}",
        ranking.iter().map(|t| t.scheme).collect::<Vec<_>>()
    );
}

/// The compiled multi-version path (IR -> recognition -> adaptive
/// execution) agrees with a hand-rolled loop.
#[test]
fn compiled_reduction_end_to_end() {
    let _serial = serial();
    use smartapps::core::recognize::build::{histogram_update, indirect_load};
    use smartapps::core::recognize::LoopNest;
    let l = LoopNest {
        stmts: vec![histogram_update(0, 1, indirect_load(2, 1))],
    };
    let mut c = CompiledReduction::compile(&l, 9, 3, false).unwrap();
    let n = 256;
    let iters = 20_000;
    let x: Vec<f64> = (0..iters).map(|i| ((i * 31) % n) as f64).collect();
    let f: Vec<f64> = (0..n).map(|e| 1.0 + e as f64).collect();
    let inputs = Inputs::default().bind(1, &x).bind(2, &f);
    let (w, _) = c.run(n, iters, &inputs);
    let mut expect = vec![0.0; n];
    for &xi in x.iter().take(iters) {
        let idx = xi as usize;
        expect[idx] += f[idx];
    }
    for (e, (a, b)) in expect.iter().zip(w.iter()).enumerate() {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "elem {e}");
    }
}

/// Repeated invocations must amortize: later invocations skip the
/// inspector on a stable pattern.
#[test]
fn inspector_amortized_across_invocations() {
    let _serial = serial();
    let pat = PatternSpec {
        num_elements: 4_096,
        iterations: 50_000,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: Distribution::Uniform,
        seed: 3,
    }
    .generate();
    let mut smart = AdaptiveReduction::new(11, 4, false);
    let mut characterizations = 0;
    for _ in 0..8 {
        let (_, log) = smart.execute(&pat, &|_i, r| contribution(r));
        characterizations += log.characterized as usize;
    }
    assert!(
        characterizations <= 2,
        "stable pattern re-characterized {characterizations}/8 times"
    );
}

/// Failure injection: the loop body's cost explodes mid-run (simulating
/// external interference or a platform fault).  The feedback loop must
/// escalate beyond `Keep` while the interference lasts — a 30x sample is
/// far past the drift ratio, so the adaptation policy marks the decision
/// due (`Redecide`) — and settle again after it clears.
#[test]
fn interference_triggers_escalation_and_recovery() {
    let _serial = serial();
    use smartapps::core::toolbox::Adaptation;
    use std::sync::atomic::{AtomicBool, Ordering};

    let pat = PatternSpec {
        num_elements: 8_192,
        iterations: 60_000,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: Distribution::Uniform,
        seed: 21,
    }
    .generate();
    let interfere = AtomicBool::new(false);
    let body = |_i: usize, r: usize| {
        let mut v = contribution(r);
        if interfere.load(Ordering::Relaxed) {
            // ~30x extra work per reference while the fault is active.
            for k in 0..30 {
                v += contribution(r.wrapping_add(k)) * 1e-12;
            }
        }
        v
    };
    let mut smart = AdaptiveReduction::new(77, 4, false);
    // Warm, stable phase.
    for _ in 0..4 {
        smart.execute(&pat, &body);
    }
    // Inject the fault for a few invocations.
    interfere.store(true, Ordering::Relaxed);
    let mut escalated = false;
    for _ in 0..4 {
        let (_, log) = smart.execute(&pat, &body);
        escalated |= log.adaptation != Adaptation::Keep;
    }
    assert!(escalated, "a 30x slowdown must not read as on-target");
    // Clear the fault: the loop keeps producing correct results throughout
    // and returns to Keep.  One stray wall-clock outlier may still
    // escalate a run; a loop that has not settled escalates most of them.
    interfere.store(false, Ordering::Relaxed);
    let mut settled = 0;
    for _ in 0..6 {
        let (w, log) = smart.execute(&pat, &body);
        assert!(w.iter().all(|v| v.is_finite()));
        settled += (log.adaptation == Adaptation::Keep) as usize;
    }
    assert!(
        settled >= 4,
        "feedback loop must settle after the fault clears ({settled}/6 runs)"
    );
}
