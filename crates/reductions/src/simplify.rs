//! Reduction simplification: recognize-and-rewrite *before* scheduling.
//!
//! Every scheme the decision model can pick still performs O(R) work for
//! R reduction references; the polyhedral simplification line (Maximal
//! Simplification of Polyhedral Reductions) shows that when the
//! references of successive iterations overlap, the overlap can be
//! *reused* instead of recomputed — cutting asymptotic work, which beats
//! any backend that merely executes the original work faster.
//!
//! This module is the software embodiment of that idea for the CSR
//! patterns this repo's runtime schedules:
//!
//! * a **recognizer** ([`recognize`]) that detects the unified
//!   contiguous-interval form — every iteration's references form one
//!   ascending run `lo_i ..= hi_i` — which subsumes prefix scans
//!   (`lo == 0`), suffix scans (`hi == N-1`) and overlapping sliding
//!   windows (constant width), plus a conservative [`CostGuard`] so
//!   unprofitable matches pass through untouched;
//! * a **rewriter** ([`run_scan`] / [`run_scan_group`]) that lowers a
//!   match to difference arrays: each iteration posts its per-iteration
//!   value at `diff[lo]` and its inverse at `diff[hi+1]`, and one prefix
//!   scan materializes every output — O(I + N) instead of O(R).  The
//!   group form hoists the shared structural traversal across K fused
//!   outputs (one row walk feeds K difference arrays);
//! * a **probe** ([`probe_uniform`]) that spot-checks the caller's
//!   "iteration-uniform body" declaration, the legality flag the rewrite
//!   rests on: the contribution must not depend on the reference slot
//!   within an iteration (and must be finite for floats).  A declaration
//!   the probe refutes disqualifies the rewrite — the job then executes
//!   on the unsimplified engine, so a lying caller loses the speedup,
//!   never the answer.
//!
//! The rewrite needs an *invertible* combine — difference arrays cancel
//! a window's value past its right edge — which [`ScanElem`] adds on top
//! of [`RedElem`]: exact for the wrapping integer monoids (a true group
//! structure, bit-identical to the direct sum in any order), and
//! tolerance-equal for `f64` where the executor's fixed sequential
//! evaluation order makes repeated runs bit-identical to *each other*.

use crate::algorithms::FusedBody;
use crate::scheme::RedElem;
use smartapps_workloads::pattern::AccessPattern;

/// Rows the uniformity probe samples (each checked exhaustively across
/// its reference slots).
pub const PROBE_ROWS: usize = 16;

/// A reduction element whose combine is invertible — the algebra the
/// difference-array rewrite needs.  Wrapping integer addition forms a
/// true group (`combine(v, negate(v))` is exactly neutral in any
/// evaluation order); `f64` negation cancels only approximately, so
/// float rewrites are tolerance-equal to the unsimplified engine and
/// [`admissible`](ScanElem::admissible) additionally refuses non-finite
/// contributions, whose cancellation error is unbounded.
pub trait ScanElem: RedElem {
    /// The inverse element: `combine(v, negate(v)) == neutral()` (exactly
    /// for integers, approximately for floats).
    fn negate(v: Self) -> Self;
    /// Whether a contribution value may enter a rewritten plan at all.
    fn admissible(v: Self) -> bool {
        let _ = v;
        true
    }
}

impl ScanElem for i64 {
    #[inline]
    fn negate(v: i64) -> i64 {
        v.wrapping_neg()
    }
}

impl ScanElem for u64 {
    #[inline]
    fn negate(v: u64) -> u64 {
        v.wrapping_neg()
    }
}

impl ScanElem for f64 {
    #[inline]
    fn negate(v: f64) -> f64 {
        -v
    }
    #[inline]
    fn admissible(v: f64) -> bool {
        v.is_finite()
    }
}

/// The structural family of a recognized pattern (diagnostic: the
/// rewrite is identical for all of them; the shape feeds telemetry
/// labels and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanShape {
    /// Every iteration reads `0 ..= hi_i`: a prefix scan.
    Prefix,
    /// Every iteration reads `lo_i ..= N-1`: a suffix scan.
    Suffix,
    /// Every (non-empty) iteration reads a constant-width interval: a
    /// sliding window of that width.
    Window(usize),
    /// Contiguous intervals of varying placement and width.
    Interval,
}

impl ScanShape {
    /// Telemetry label of the shape (`smartapps_simplify_ns{shape=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            ScanShape::Prefix => "prefix",
            ScanShape::Suffix => "suffix",
            ScanShape::Window(_) => "window",
            ScanShape::Interval => "interval",
        }
    }
}

/// Why the recognizer declined a pattern.  Every variant is *structural*
/// — a property of the pattern alone, never of the body — so verdicts
/// are safe to persist per workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// No references at all: nothing to simplify.
    Empty,
    /// An iteration's references are not one ascending contiguous run
    /// (a gap, a repeat/aliased element, or a descending step) — the
    /// interval lowering does not apply.
    RaggedRow {
        /// First offending iteration.
        iter: usize,
    },
    /// Structure matched, but the rewritten work would not undercut the
    /// original by the guard's margin.
    Unprofitable {
        /// Original work: total reduction references.
        refs: usize,
        /// Rewritten work: iterations + elements (+1 for the scan).
        rewritten: usize,
    },
}

/// Conservative profitability gate: a match is rewritten only when the
/// original O(R) work exceeds the rewritten O(I + N) work by a real
/// margin, so borderline patterns keep their measured-and-calibrated
/// execution path instead of trading it for noise.
#[derive(Debug, Clone, Copy)]
pub struct CostGuard {
    /// Minimum total references before a rewrite is considered at all
    /// (tiny jobs finish before the bookkeeping pays off).
    pub min_refs: usize,
    /// Required ratio of original to rewritten work.
    pub min_gain: f64,
}

impl Default for CostGuard {
    fn default() -> Self {
        CostGuard {
            min_refs: 1024,
            min_gain: 2.0,
        }
    }
}

/// A recognized (and guard-approved) pattern: its shape and the work
/// accounting the cost guard compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanMatch {
    /// Structural family of the pattern.
    pub shape: ScanShape,
    /// Original work: total reduction references.
    pub refs: usize,
    /// Rewritten work: one difference-array post per iteration plus one
    /// prefix scan over the output (`iterations + elements + 1`).
    pub rewritten_ops: usize,
}

/// Structurally recognize `pat` as a contiguous-interval reduction and
/// apply `guard`.  Purely pattern-driven: the caller still owns the
/// body-side legality question (declaration + [`probe_uniform`]).
///
/// Empty iterations are permitted (they contribute nothing and the
/// rewriter skips them); they do not participate in shape
/// classification.
pub fn recognize(pat: &AccessPattern, guard: &CostGuard) -> Result<ScanMatch, Reject> {
    let refs = pat.num_references();
    if refs == 0 {
        return Err(Reject::Empty);
    }
    let n = pat.num_elements;
    let iters = pat.num_iterations();
    let mut all_prefix = true;
    let mut all_suffix = true;
    let mut width: Option<usize> = None;
    let mut constant_width = true;
    for i in 0..iters {
        let row = pat.refs(i);
        if row.is_empty() {
            continue;
        }
        let lo = row[0];
        // One ascending contiguous run: each reference is exactly its
        // predecessor plus one.  Gaps (off-by-one windows), repeats
        // (aliased outputs) and descending rows all fail here.
        for (j, &x) in row.iter().enumerate() {
            if x as usize != lo as usize + j {
                return Err(Reject::RaggedRow { iter: i });
            }
        }
        let hi = lo as usize + row.len() - 1;
        all_prefix &= lo == 0;
        all_suffix &= hi == n.saturating_sub(1);
        match width {
            None => width = Some(row.len()),
            Some(w) => constant_width &= w == row.len(),
        }
    }
    let rewritten = iters + n + 1;
    if refs < guard.min_refs || (refs as f64) < guard.min_gain * rewritten as f64 {
        return Err(Reject::Unprofitable { refs, rewritten });
    }
    let shape = if all_prefix {
        ScanShape::Prefix
    } else if all_suffix {
        ScanShape::Suffix
    } else if constant_width {
        ScanShape::Window(width.unwrap_or(0))
    } else {
        ScanShape::Interval
    };
    Ok(ScanMatch {
        shape,
        refs,
        rewritten_ops: rewritten,
    })
}

/// Spot-check a caller's iteration-uniform declaration: sample up to
/// [`PROBE_ROWS`] non-empty iterations spread across the pattern, plus
/// the first [`PROBE_ROWS`] iterations holding at least two references,
/// and evaluate the body at *every* reference slot of each — all values
/// must agree (and be [`admissible`](ScanElem::admissible)).  A `false`
/// means the declaration is refuted for *this body* — it says nothing
/// about the pattern, so probe verdicts must never be persisted per
/// class.
///
/// The second pass exists because strided sampling alone can alias with
/// the pattern's own periodicity: a growing-prefix family whose period
/// divides the stride presents only its width-1 rows to the sampler,
/// and slot dependence is unobservable on a single-slot row.  Probing
/// the earliest multi-reference rows directly closes that hole; if the
/// pattern has *no* multi-reference row at all, every row reads exactly
/// one slot and the declaration is vacuously true.
pub fn probe_uniform<T: ScanElem>(
    pat: &AccessPattern,
    body: &(dyn Fn(usize, usize) -> T + Sync),
) -> bool {
    let iters = pat.num_iterations();
    if iters == 0 {
        return true;
    }
    let probe_row = |i: usize| -> bool {
        let range = pat.ref_range(i);
        if range.is_empty() {
            return true;
        }
        let first = body(i, range.start);
        if !T::admissible(first) {
            return false;
        }
        for r in range.start + 1..range.end {
            if body(i, r) != first {
                return false;
            }
        }
        true
    };
    let step = iters.div_ceil(PROBE_ROWS);
    for i in (0..iters).step_by(step.max(1)) {
        if !probe_row(i) {
            return false;
        }
    }
    let mut wide = 0;
    for i in 0..iters {
        if wide >= PROBE_ROWS {
            break;
        }
        if pat.ref_range(i).len() < 2 {
            continue;
        }
        wide += 1;
        if !probe_row(i) {
            return false;
        }
    }
    true
}

/// Execute one recognized job via the difference-array rewrite: O(I + N)
/// work instead of O(R).  The caller guarantees the pattern passed
/// [`recognize`] (contiguous ascending rows) and the body is
/// iteration-uniform; each iteration's value is taken from its first
/// reference slot.
///
/// Evaluation order is fixed (iterations ascending, then one left-to-
/// right scan), so repeated runs are bit-identical even for `f64`.
pub fn run_scan<T: ScanElem>(
    pat: &AccessPattern,
    body: &(dyn Fn(usize, usize) -> T + Sync),
) -> Vec<T> {
    run_scan_group(pat, &[body]).pop().unwrap_or_default()
}

/// [`run_scan`] for a K-fused group sharing one pattern: the structural
/// row walk (interval bounds, difference-array addressing) is paid once
/// and feeds K difference arrays — the shared-partial hoisting that
/// makes simplified fused groups O(I + N + K·(I + N)) instead of
/// K·O(R).
pub fn run_scan_group<T: ScanElem>(
    pat: &AccessPattern,
    bodies: &[FusedBody<'_, T>],
) -> Vec<Vec<T>> {
    let k = bodies.len();
    if k == 0 {
        return Vec::new();
    }
    let n = pat.num_elements;
    let mut diffs: Vec<Vec<T>> = (0..k).map(|_| vec![T::neutral(); n + 1]).collect();
    for i in 0..pat.num_iterations() {
        let range = pat.ref_range(i);
        if range.is_empty() {
            continue;
        }
        let lo = pat.indices[range.start] as usize;
        let hi = lo + (range.end - range.start); // exclusive right edge
        for (body, diff) in bodies.iter().zip(diffs.iter_mut()) {
            let v = body(i, range.start);
            diff[lo] = T::combine(diff[lo], v);
            diff[hi] = T::combine(diff[hi], T::negate(v));
        }
    }
    diffs
        .into_iter()
        .map(|diff| {
            let mut acc = T::neutral();
            let mut out = vec![T::neutral(); n];
            for (e, slot) in out.iter_mut().enumerate() {
                acc = T::combine(acc, diff[e]);
                *slot = acc;
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::pattern::contribution_i64;

    /// Direct O(R) oracle over the true (possibly slot-dependent) body.
    fn oracle_i64(pat: &AccessPattern, body: impl Fn(usize, usize) -> i64) -> Vec<i64> {
        let mut w = vec![0i64; pat.num_elements];
        for (i, r, x) in pat.iter_refs() {
            w[x as usize] = w[x as usize].wrapping_add(body(i, r));
        }
        w
    }

    fn oracle_f64(pat: &AccessPattern, body: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let mut w = vec![0.0f64; pat.num_elements];
        for (i, r, x) in pat.iter_refs() {
            w[x as usize] += body(i, r);
        }
        w
    }

    /// A sliding-window pattern: iteration `i` reads
    /// `start(i) ..= start(i)+width-1` with the given start stride.
    fn window_pattern(n: usize, iters: usize, width: usize, stride: usize) -> AccessPattern {
        let rows: Vec<Vec<u32>> = (0..iters)
            .map(|i| {
                let lo = (i * stride) % (n - width + 1);
                (lo as u32..(lo + width) as u32).collect()
            })
            .collect();
        AccessPattern::from_iters(n, &rows)
    }

    fn prefix_pattern(n: usize, iters: usize) -> AccessPattern {
        let rows: Vec<Vec<u32>> = (0..iters).map(|i| (0..=(i % n) as u32).collect()).collect();
        AccessPattern::from_iters(n, &rows)
    }

    fn suffix_pattern(n: usize, iters: usize) -> AccessPattern {
        let rows: Vec<Vec<u32>> = (0..iters)
            .map(|i| ((i % n) as u32..n as u32).collect())
            .collect();
        AccessPattern::from_iters(n, &rows)
    }

    const LOOSE: CostGuard = CostGuard {
        min_refs: 1,
        min_gain: 0.0,
    };

    #[test]
    fn recognizer_classifies_the_three_families() {
        let w = window_pattern(64, 512, 8, 1);
        assert_eq!(recognize(&w, &LOOSE).unwrap().shape, ScanShape::Window(8));
        let p = prefix_pattern(64, 512);
        assert_eq!(recognize(&p, &LOOSE).unwrap().shape, ScanShape::Prefix);
        let s = suffix_pattern(64, 512);
        assert_eq!(recognize(&s, &LOOSE).unwrap().shape, ScanShape::Suffix);
        // Mixed contiguous intervals of varying width.
        let m =
            AccessPattern::from_iters(16, &[vec![2, 3, 4], vec![5, 6], vec![], vec![0, 1, 2, 3]]);
        assert_eq!(recognize(&m, &LOOSE).unwrap().shape, ScanShape::Interval);
    }

    #[test]
    fn recognizer_rejects_near_misses() {
        // Off-by-one window: a gap inside the run.
        let gap = AccessPattern::from_iters(16, &[vec![3, 4, 6]]);
        assert_eq!(recognize(&gap, &LOOSE), Err(Reject::RaggedRow { iter: 0 }));
        // Aliased outputs: a repeated element.
        let alias = AccessPattern::from_iters(16, &[vec![5, 5, 6]]);
        assert_eq!(
            recognize(&alias, &LOOSE),
            Err(Reject::RaggedRow { iter: 0 })
        );
        // Descending run.
        let desc = AccessPattern::from_iters(16, &[vec![6, 5, 4]]);
        assert_eq!(recognize(&desc, &LOOSE), Err(Reject::RaggedRow { iter: 0 }));
        // A single bad row poisons an otherwise clean window pattern.
        let mut rows: Vec<Vec<u32>> = (0..64).map(|i| vec![i, i + 1, i + 2]).collect();
        rows[40] = vec![40, 42, 43];
        let poisoned = AccessPattern::from_iters(128, &rows);
        assert_eq!(
            recognize(&poisoned, &LOOSE),
            Err(Reject::RaggedRow { iter: 40 })
        );
        // Nothing to simplify.
        let empty = AccessPattern::from_iters(4, &[vec![], vec![]]);
        assert_eq!(recognize(&empty, &LOOSE), Err(Reject::Empty));
    }

    #[test]
    fn cost_guard_passes_through_unprofitable_matches() {
        let small = window_pattern(32, 16, 4, 1); // 64 refs, rewritten 49
        let strict = CostGuard::default();
        assert!(matches!(
            recognize(&small, &strict),
            Err(Reject::Unprofitable { .. })
        ));
        // A wide overlapping window clears the default guard easily.
        let big = window_pattern(256, 4096, 64, 1);
        let m = recognize(&big, &strict).unwrap();
        assert!(m.refs as f64 >= strict.min_gain * m.rewritten_ops as f64);
    }

    #[test]
    fn i64_scan_is_bit_exact_against_the_direct_oracle() {
        for (pat, name) in [
            (window_pattern(100, 700, 13, 3), "window"),
            (prefix_pattern(50, 300), "prefix"),
            (suffix_pattern(50, 300), "suffix"),
        ] {
            recognize(&pat, &LOOSE).unwrap();
            let body = |i: usize, _r: usize| contribution_i64(i).wrapping_mul(7);
            let got = run_scan(&pat, &body);
            assert_eq!(got, oracle_i64(&pat, body), "{name}");
        }
    }

    #[test]
    fn i64_scan_matches_under_wrapping_extremes() {
        // Values near the integer boundaries exercise the wrapping group
        // structure the rewrite relies on.
        let pat = window_pattern(64, 2000, 9, 1);
        let body = |i: usize, _r: usize| i64::MAX - (i as i64).wrapping_mul(0x1234_5678_9abc);
        assert_eq!(run_scan(&pat, &body), oracle_i64(&pat, body));
    }

    #[test]
    fn f64_scan_is_tolerance_equal_and_run_to_run_bit_identical() {
        let pat = window_pattern(128, 3000, 17, 2);
        let body = |i: usize, _r: usize| smartapps_workloads::pattern::contribution(i);
        let a = run_scan(&pat, &body);
        let oracle = oracle_f64(&pat, body);
        for (g, o) in a.iter().zip(&oracle) {
            assert!((g - o).abs() <= 1e-9 * o.abs().max(1.0), "{g} vs {o}");
        }
        for _ in 0..3 {
            let again = run_scan(&pat, &body);
            assert!(
                a.iter()
                    .zip(&again)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "f64 rewrite must be deterministic run to run"
            );
        }
    }

    #[test]
    fn group_scan_matches_k_independent_oracles() {
        let pat = window_pattern(90, 900, 11, 1);
        let bodies_owned: Vec<Box<dyn Fn(usize, usize) -> i64 + Sync>> = (0..5)
            .map(|j| {
                let j = j as i64;
                Box::new(move |i: usize, _r: usize| contribution_i64(i).wrapping_add(j))
                    as Box<dyn Fn(usize, usize) -> i64 + Sync>
            })
            .collect();
        let bodies: Vec<FusedBody<'_, i64>> = bodies_owned
            .iter()
            .map(|b| &**b as FusedBody<'_, i64>)
            .collect();
        let outs = run_scan_group(&pat, &bodies);
        assert_eq!(outs.len(), 5);
        for (j, out) in outs.iter().enumerate() {
            let j = j as i64;
            let oracle = oracle_i64(&pat, |i, _r| contribution_i64(i).wrapping_add(j));
            assert_eq!(out, &oracle, "fused output {j}");
        }
    }

    #[test]
    fn probe_accepts_uniform_and_refutes_liars() {
        let pat = window_pattern(64, 400, 8, 1);
        let uniform = |i: usize, _r: usize| contribution_i64(i);
        assert!(probe_uniform::<i64>(&pat, &uniform));
        // Slot-dependent ("non-associative" under the rewrite): refuted.
        let slotted = |_i: usize, r: usize| contribution_i64(r);
        assert!(!probe_uniform::<i64>(&pat, &slotted));
        // Non-finite floats are inadmissible even when uniform.
        let inf = |_i: usize, _r: usize| f64::INFINITY;
        assert!(!probe_uniform::<f64>(&pat, &inf));
        let nan = |_i: usize, _r: usize| f64::NAN;
        assert!(!probe_uniform::<f64>(&pat, &nan));
    }

    #[test]
    fn probe_is_not_fooled_by_stride_aliasing() {
        // 1024 iterations probed with stride 1024/16 = 64; the prefix
        // period 64 divides the stride, so every strided sample is the
        // width-1 row `[0]` and a slot-dependent body looks uniform to
        // the strided pass alone.  The wide-row pass must refute it.
        let pat = prefix_pattern(64, 1024);
        let slotted = |_i: usize, r: usize| contribution_i64(r);
        assert!(
            !probe_uniform::<i64>(&pat, &slotted),
            "pattern-periodic sampling must not hide slot dependence"
        );
        // Same period, genuinely uniform body: still accepted.
        let uniform = |i: usize, _r: usize| contribution_i64(i);
        assert!(probe_uniform::<i64>(&pat, &uniform));
        // A pattern whose rows all hold exactly one slot cannot observe
        // slot dependence — the declaration is vacuously true.
        let singles = AccessPattern::from_iters(
            32,
            &(0..200).map(|i| vec![(i % 32) as u32]).collect::<Vec<_>>(),
        );
        assert!(probe_uniform::<i64>(&singles, &slotted));
    }

    #[test]
    fn empty_rows_contribute_nothing() {
        let pat = AccessPattern::from_iters(
            2048,
            &(0..600)
                .map(|i| {
                    if i % 3 == 0 {
                        Vec::new()
                    } else {
                        (i as u32..(i + 4) as u32).collect()
                    }
                })
                .collect::<Vec<_>>(),
        );
        recognize(&pat, &LOOSE).unwrap();
        let body = |i: usize, _r: usize| contribution_i64(i);
        assert_eq!(run_scan(&pat, &body), oracle_i64(&pat, body));
    }
}
