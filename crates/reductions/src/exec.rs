//! Unified execution front end: run a [`Scheme`] for one body or for a
//! fused group of K bodies with optional inspector reuse, and measure
//! scheme rankings the way Figure 3's experimental column does.
//!
//! Both entry points run the same kernels — the library described in
//! [`algorithms`] — so a single job is exactly the K = 1 case of a fused
//! sweep.

use crate::algorithms::{self, FusedBody, One};
use crate::inspect::{Inspection, Inspector};
use crate::scheme::{RedElem, Scheme, UnsafeSlice};
use crate::spmd::{SpawnExecutor, SpmdExecutor};
use smartapps_workloads::pattern::AccessPattern;
use std::time::{Duration, Instant};

/// Execute one scheme on freshly spawned threads (the per-call path).
/// `sel` and `lw` need an inspection; if none is supplied one is computed
/// (and its cost is the caller's to account).
pub fn run_scheme<T: RedElem>(
    scheme: Scheme,
    pat: &AccessPattern,
    body: &(impl Fn(usize, usize) -> T + Sync),
    threads: usize,
    insp: Option<&Inspection>,
) -> Vec<T> {
    run_scheme_on(scheme, pat, body, threads, insp, &SpawnExecutor)
}

/// Execute one scheme on the supplied [`SpmdExecutor`] — the pooled
/// execution path used by `smartapps-runtime`, which routes the SPMD
/// region onto persistent workers instead of spawning threads per call.
///
/// # Panics
///
/// Panics for [`Scheme::Pclr`]: the hardware scheme has no software
/// kernel and must be routed to a PCLR-capable execution backend
/// (`smartapps-runtime`'s `PclrBackend`).  Likewise for [`Scheme::Simd`].
pub fn run_scheme_on<T: RedElem>(
    scheme: Scheme,
    pat: &AccessPattern,
    body: &(impl Fn(usize, usize) -> T + Sync),
    threads: usize,
    insp: Option<&Inspection>,
    exec: &(impl SpmdExecutor + ?Sized),
) -> Vec<T> {
    let mut w = vec![T::neutral(); pat.num_elements];
    let out = [UnsafeSlice::new(&mut w)];
    algorithms::sweep(scheme, pat, &One(body), threads, insp, exec, &out);
    w
}

/// Execute `scheme` once over `pat`, producing one output array per body
/// in `bodies` — the multi-output form of [`run_scheme_on`]: one pattern
/// traversal, K contribution functions, K result arrays.
///
/// A service coalescing same-class jobs (see `smartapps-runtime`) often
/// holds a batch whose members reduce over the *same* pattern with
/// *different* bodies; walking the pattern once for all of them shares
/// the traversal, the same insight the polyhedral-reduction line exploits
/// when it fuses reductions into a single scan.  Output `k` equals
/// `run_scheme_on(scheme, pat, bodies[k], ..)`.
///
/// `sel` and `lw` need an inspection; the caller's is reused when
/// supplied, otherwise one is computed here.  An empty `bodies` slice
/// yields an empty result vector without touching the pattern.
///
/// # Panics
///
/// Panics for [`Scheme::Pclr`] (the simulated PCLR machine executes one
/// reduction per loop, so fused sweeps never route there) and
/// [`Scheme::Simd`].
pub fn run_fused_on<T: RedElem>(
    scheme: Scheme,
    pat: &AccessPattern,
    bodies: &[FusedBody<'_, T>],
    threads: usize,
    insp: Option<&Inspection>,
    exec: &(impl SpmdExecutor + ?Sized),
) -> Vec<Vec<T>> {
    if bodies.is_empty() {
        return Vec::new();
    }
    let mut ws: Vec<Vec<T>> = bodies
        .iter()
        .map(|_| vec![T::neutral(); pat.num_elements])
        .collect();
    let outs: Vec<UnsafeSlice<'_, T>> = ws.iter_mut().map(|w| UnsafeSlice::new(w)).collect();
    algorithms::sweep(scheme, pat, bodies, threads, insp, exec, &outs);
    drop(outs);
    ws
}

/// [`run_fused_on`] on freshly spawned threads ([`SpawnExecutor`]).
pub fn run_fused<T: RedElem>(
    scheme: Scheme,
    pat: &AccessPattern,
    bodies: &[FusedBody<'_, T>],
    threads: usize,
    insp: Option<&Inspection>,
) -> Vec<Vec<T>> {
    run_fused_on(scheme, pat, bodies, threads, insp, &SpawnExecutor)
}

/// Timing result of one scheme execution.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Scheme measured.
    pub scheme: Scheme,
    /// Wall time of the best repetition.
    pub elapsed: Duration,
}

/// Measure a scheme: run `reps` repetitions and keep the fastest (loops in
/// the paper's codes are invoked repeatedly; the steady-state invocation
/// time is what the rankings compare).
pub fn time_scheme<T: RedElem>(
    scheme: Scheme,
    pat: &AccessPattern,
    body: &(impl Fn(usize, usize) -> T + Sync),
    threads: usize,
    insp: Option<&Inspection>,
    reps: usize,
) -> (Vec<T>, Timing) {
    assert!(reps >= 1);
    let mut best = Duration::MAX;
    let mut out = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        out = run_scheme(scheme, pat, body, threads, insp);
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
    }
    (
        out,
        Timing {
            scheme,
            elapsed: best,
        },
    )
}

/// Measure all parallel schemes plus the sequential baseline, returning
/// timings sorted fastest-first (the experimental ranking of Figure 3) and
/// the sequential time for speedup computation.
///
/// Schemes whose results disagree with the sequential oracle (beyond FP
/// tolerance) panic — a wrong answer must never win a ranking.
pub fn rank_schemes(
    pat: &AccessPattern,
    body: &(impl Fn(usize, usize) -> f64 + Sync),
    threads: usize,
    lw_feasible: bool,
    reps: usize,
) -> (Vec<Timing>, Duration) {
    let insp = Inspector::analyze(pat, threads);
    let (oracle, seq_t) = time_scheme(Scheme::Seq, pat, body, 1, None, reps);
    let mut timings = Vec::new();
    for s in Scheme::all_parallel() {
        if s == Scheme::Lw && !lw_feasible {
            continue;
        }
        let (out, t) = time_scheme(s, pat, body, threads, Some(&insp), reps);
        for (e, (a, b)) in oracle.iter().zip(out.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{s} wrong at element {e}: {a} vs {b}"
            );
        }
        timings.push(t);
    }
    timings.sort_by_key(|t| t.elapsed);
    (timings, seq_t.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::pattern::{contribution, sequential_reduce};
    use smartapps_workloads::{Distribution, PatternSpec};

    fn pat() -> AccessPattern {
        PatternSpec {
            num_elements: 2_000,
            iterations: 4_000,
            refs_per_iter: 2,
            coverage: 0.8,
            dist: Distribution::Uniform,
            seed: 13,
        }
        .generate()
    }

    #[test]
    fn run_scheme_dispatches_all() {
        let p = pat();
        let body = |_i: usize, r: usize| contribution(r);
        let oracle = sequential_reduce(&p);
        for s in [
            Scheme::Seq,
            Scheme::Rep,
            Scheme::Ll,
            Scheme::Sel,
            Scheme::Lw,
            Scheme::Hash,
        ] {
            let got = run_scheme(s, &p, &body, 4, None);
            for (a, b) in oracle.iter().zip(got.iter()) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{s}");
            }
        }
    }

    #[test]
    fn time_scheme_returns_fastest_rep() {
        let p = pat();
        let body = |_i: usize, r: usize| contribution(r);
        let (_, t) = time_scheme(Scheme::Rep, &p, &body, 2, None, 3);
        assert!(t.elapsed > Duration::ZERO);
        assert_eq!(t.scheme, Scheme::Rep);
    }

    #[test]
    fn rank_schemes_excludes_infeasible_lw() {
        let p = pat();
        let body = |_i: usize, r: usize| contribution(r);
        let (ranking, seq_t) = rank_schemes(&p, &body, 2, false, 1);
        assert_eq!(ranking.len(), 4);
        assert!(ranking.iter().all(|t| t.scheme != Scheme::Lw));
        assert!(seq_t > Duration::ZERO);
        // Sorted ascending.
        for w in ranking.windows(2) {
            assert!(w[0].elapsed <= w[1].elapsed);
        }
        let (with_lw, _) = rank_schemes(&p, &body, 2, true, 1);
        assert_eq!(with_lw.len(), 5);
    }
}
