//! The `simd` scheme: vectorized tree reduction for dense regimes.
//!
//! "A Fast and Generic GPU-Based Parallel Reduction Implementation"
//! reduces in a hierarchy — wide independent lanes per block, merged by a
//! horizontal tree reduce.  This module maps that shape onto CPU SIMD:
//!
//! * **Loop phase** — each SPMD thread owns a *lane-striped* private
//!   array of `N × SIMD_LANES` slots.  Successive references rotate
//!   through the lanes, so repeated updates to a hot element land in
//!   independent accumulator slots instead of one serial dependency
//!   chain (the scalar `rep` bottleneck on high-reuse floods).
//! * **Merge phase** — element blocks are walked in cache-sized tiles;
//!   within a tile the P private stripes are combined slot-wise (the
//!   contiguous, vectorizable inner loop — see [`SimdElem::accumulate`]),
//!   then each element's lanes collapse by a fixed horizontal tree
//!   reduce `(l0 ⊕ l1) ⊕ (l2 ⊕ l3)`.
//!
//! # Numerics policy
//!
//! The summation order is **fixed** by `(pattern, threads)`: every
//! contribution lands in a deterministic `(thread, lane)` slot in
//! iteration order, slots combine across threads in thread order, and
//! lanes collapse in tree order.  Integer results are bit-identical to
//! the sequential oracle (wrapping addition is associative); `f64`
//! results are bit-identical *run-to-run* and differ from the sequential
//! oracle only by reassociation — bounded in practice by
//! `|Σ|·ε·log₂(refs per element)` and verified within `1e-9` relative in
//! the property tests (see `docs/MODEL.md`).
//!
//! Like [`Scheme::Pclr`](crate::Scheme::Pclr), `Scheme::Simd` is not
//! dispatched through [`run_scheme`](crate::run_scheme); the runtime's
//! `SimdBackend` calls [`simd_reduce_on`] directly.

use crate::scheme::{RedElem, UnsafeSlice};
use crate::spmd::{SpawnExecutor, SpmdExecutor};
use smartapps_workloads::pattern::AccessPattern;
use smartapps_workloads::{block_range, elem_block_range, PatternChars};

/// Independent accumulator lanes per element (the "warp width" of the
/// tree reduction mapped onto CPU vector registers).
pub const SIMD_LANES: usize = 4;

/// Elements per merge tile: `SIMD_TILE × SIMD_LANES × 8 B = 32 KiB` of
/// lane accumulators — the cache block the tiled merge keeps resident
/// while it streams through all P private stripes.
pub const SIMD_TILE: usize = 1024;

/// Minimum sparsity (SP = distinct / dimension) for the lane-striped
/// kernel to be worth its `SIMD_LANES`-fold private footprint.  Below
/// this the pattern is in `hash`/`sel` territory and `simd` is masked
/// exactly like an infeasible `lw`.
pub const SIMD_MIN_SP: f64 = 0.25;

/// Whether the vectorized kernel is applicable to a measured pattern:
/// the dense/privatizing regime (SP at or above [`SIMD_MIN_SP`]) with at
/// least one reference.  Sparse and hash-regime patterns are infeasible —
/// lane striping multiplies the private footprint by [`SIMD_LANES`],
/// which only amortizes when the array is densely referenced.
pub fn simd_feasible(chars: &PatternChars) -> bool {
    chars.references > 0 && chars.sp >= SIMD_MIN_SP
}

/// An element type with a vectorizable slot-wise combine.
///
/// `accumulate` must be *observably identical* to the scalar loop
/// `acc[j] = combine(acc[j], src[j])` for every slot `j` in order — the
/// intrinsic paths below only batch independent per-slot combines, never
/// reassociate across slots, so portable and vectorized builds produce
/// bit-identical results.
pub trait SimdElem: RedElem {
    /// Slot-wise combine of `src` into `acc` (`acc[j] ⊕= src[j]`).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    fn accumulate(acc: &mut [Self], src: &[Self]);
}

/// The portable slot-wise combine every [`SimdElem::accumulate`] must
/// agree with bit-for-bit.
#[inline]
fn accumulate_scalar<T: RedElem>(acc: &mut [T], src: &[T]) {
    assert_eq!(
        acc.len(),
        src.len(),
        "slot-wise combine needs equal lengths"
    );
    for (a, &s) in acc.iter_mut().zip(src.iter()) {
        *a = T::combine(*a, s);
    }
}

impl SimdElem for f64 {
    #[inline]
    fn accumulate(acc: &mut [f64], src: &[f64]) {
        assert_eq!(
            acc.len(),
            src.len(),
            "slot-wise combine needs equal lengths"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is baseline on x86_64; loads/stores stay in
        // bounds (i + 2 <= len) and unaligned variants are used.
        unsafe {
            use std::arch::x86_64::*;
            let len = acc.len();
            let mut i = 0;
            while i + 2 <= len {
                let a = _mm_loadu_pd(acc.as_ptr().add(i));
                let b = _mm_loadu_pd(src.as_ptr().add(i));
                _mm_storeu_pd(acc.as_mut_ptr().add(i), _mm_add_pd(a, b));
                i += 2;
            }
            while i < len {
                acc[i] += src[i];
                i += 1;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        accumulate_scalar(acc, src);
    }
}

impl SimdElem for i64 {
    #[inline]
    fn accumulate(acc: &mut [i64], src: &[i64]) {
        assert_eq!(
            acc.len(),
            src.len(),
            "slot-wise combine needs equal lengths"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is baseline on x86_64; loads/stores stay in
        // bounds (i + 2 <= len) and unaligned variants are used.
        // `_mm_add_epi64` is two's-complement addition == wrapping_add.
        unsafe {
            use std::arch::x86_64::*;
            let len = acc.len();
            let mut i = 0;
            while i + 2 <= len {
                let a = _mm_loadu_si128(acc.as_ptr().add(i) as *const __m128i);
                let b = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
                _mm_storeu_si128(acc.as_mut_ptr().add(i) as *mut __m128i, _mm_add_epi64(a, b));
                i += 2;
            }
            while i < len {
                acc[i] = acc[i].wrapping_add(src[i]);
                i += 1;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        accumulate_scalar(acc, src);
    }
}

impl SimdElem for u64 {
    #[inline]
    fn accumulate(acc: &mut [u64], src: &[u64]) {
        // Same two's-complement lanes as i64; route through the scalar
        // shape to keep one intrinsic site per width.
        accumulate_scalar(acc, src);
    }
}

/// Collapse one element's [`SIMD_LANES`] slots by the fixed horizontal
/// tree: `(l0 ⊕ l1) ⊕ (l2 ⊕ l3)`.
#[inline]
fn tree_fold<T: RedElem>(lanes: &[T]) -> T {
    debug_assert_eq!(lanes.len(), SIMD_LANES);
    T::combine(
        T::combine(lanes[0], lanes[1]),
        T::combine(lanes[2], lanes[3]),
    )
}

/// `simd` on freshly spawned threads (see [`simd_reduce_on`]).
pub fn simd_reduce<T: SimdElem>(
    pat: &AccessPattern,
    body: &(impl Fn(usize, usize) -> T + Sync),
    threads: usize,
) -> Vec<T> {
    simd_reduce_on(pat, body, threads, &SpawnExecutor)
}

/// `simd`: lane-striped private accumulation with a tiled tree-reduce
/// merge — the vectorized counterpart of the `rep` kernel in
/// [`algorithms`](crate::algorithms), with identical SPMD structure (any
/// [`SpmdExecutor`] works) and the fixed summation order documented at
/// the [module level](self).
pub fn simd_reduce_on<T: SimdElem>(
    pat: &AccessPattern,
    body: &(impl Fn(usize, usize) -> T + Sync),
    threads: usize,
    exec: &(impl SpmdExecutor + ?Sized),
) -> Vec<T> {
    assert!(threads >= 1);
    let n = pat.num_elements;
    // Loop phase: each thread accumulates into a lane-striped private
    // array; references rotate through the lanes so repeated hits on one
    // element use independent accumulator slots.
    let mut privates: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    {
        let slots = UnsafeSlice::new(&mut privates);
        let slots = &slots;
        exec.spmd(threads, &|t| {
            let mut w = vec![T::neutral(); n * SIMD_LANES];
            let mut lane = 0usize;
            for i in block_range(pat.num_iterations(), t, threads) {
                for r in pat.ref_range(i) {
                    let x = pat.indices[r] as usize;
                    let s = x * SIMD_LANES + lane;
                    w[s] = T::combine(w[s], body(i, r));
                    lane = (lane + 1) % SIMD_LANES;
                }
            }
            // SAFETY: each tid writes only its own slot.
            unsafe { slots.write(t, w) };
        });
    }
    // Merge phase: tiled slot-wise accumulation across the P stripes,
    // then a per-element horizontal tree fold.
    let mut result = vec![T::neutral(); n];
    let privates = &privates;
    {
        let out = UnsafeSlice::new(&mut result);
        let out = &out;
        exec.spmd(threads, &|t| {
            let my = elem_block_range(n, t, threads);
            let mut acc = [T::neutral(); SIMD_TILE * SIMD_LANES];
            let mut lo = my.start;
            while lo < my.end {
                let hi = (lo + SIMD_TILE).min(my.end);
                let slots = (hi - lo) * SIMD_LANES;
                acc[..slots].fill(T::neutral());
                for p in privates {
                    T::accumulate(&mut acc[..slots], &p[lo * SIMD_LANES..hi * SIMD_LANES]);
                }
                for e in lo..hi {
                    let base = (e - lo) * SIMD_LANES;
                    // SAFETY: element blocks are disjoint across threads.
                    unsafe { out.write(e, tree_fold(&acc[base..base + SIMD_LANES])) };
                }
                lo = hi;
            }
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::pattern::{
        contribution, contribution_i64, sequential_reduce, sequential_reduce_i64,
    };
    use smartapps_workloads::{Distribution, PatternSpec};

    fn pattern(seed: u64) -> AccessPattern {
        PatternSpec {
            num_elements: 500,
            iterations: 800,
            refs_per_iter: 3,
            coverage: 0.6,
            dist: Distribution::Uniform,
            seed,
        }
        .generate()
    }

    fn body(_i: usize, r: usize) -> i64 {
        contribution_i64(r)
    }

    #[test]
    fn simd_matches_scalar_oracle_i64_bit_exact() {
        let pat = pattern(42);
        let oracle = sequential_reduce_i64(&pat);
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(simd_reduce(&pat, &body, threads), oracle, "simd x{threads}");
        }
    }

    #[test]
    fn simd_f64_deterministic_and_bounded() {
        let pat = pattern(7);
        let fbody = |_i: usize, r: usize| contribution(r);
        let oracle = sequential_reduce(&pat);
        for threads in [1usize, 2, 4] {
            let a = simd_reduce(&pat, &fbody, threads);
            let b = simd_reduce(&pat, &fbody, threads);
            // Fixed blocked summation order: bit-identical run-to-run.
            for (e, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "x{threads} elem {e}");
            }
            // Reassociation vs the sequential order stays tiny.
            for (e, (x, o)) in a.iter().zip(oracle.iter()).enumerate() {
                assert!(
                    (x - o).abs() <= 1e-9 * o.abs().max(1.0),
                    "x{threads} elem {e}: {x} vs oracle {o}"
                );
            }
        }
    }

    /// Same pathological executor as the scalar algorithm tests: tids run
    /// one after another; only the completion barrier may be relied on.
    struct SerialExec;
    impl SpmdExecutor for SerialExec {
        fn spmd(&self, threads: usize, body: &(dyn Fn(usize) + Sync)) {
            for t in 0..threads {
                body(t);
            }
        }
    }

    #[test]
    fn simd_is_executor_agnostic() {
        let pat = pattern(11);
        let oracle = sequential_reduce_i64(&pat);
        assert_eq!(simd_reduce_on(&pat, &body, 4, &SerialExec), oracle);
        // And bit-identical to the spawned-thread run for f64.
        let fbody = |_i: usize, r: usize| contribution(r);
        let serial = simd_reduce_on(&pat, &fbody, 4, &SerialExec);
        let spawned = simd_reduce(&pat, &fbody, 4);
        for (a, b) in serial.iter().zip(spawned.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn simd_edge_patterns() {
        // Empty pattern.
        let empty = AccessPattern::from_iters(16, &[]);
        assert_eq!(simd_reduce(&empty, &body, 3), vec![0i64; 16]);
        // Maximal contention: every reference hits element 0 — the lane
        // rotation must still fold back to the exact total.
        let hot = AccessPattern::from_iters(4, &vec![vec![0u32, 0, 0]; 100]);
        let oracle = sequential_reduce_i64(&hot);
        for threads in [1usize, 2, 4] {
            assert_eq!(simd_reduce(&hot, &body, threads), oracle);
        }
        // More threads than iterations.
        let tiny = AccessPattern::from_iters(10, &[vec![1u32], vec![2, 2]]);
        let oracle = sequential_reduce_i64(&tiny);
        for threads in [3usize, 8] {
            assert_eq!(simd_reduce(&tiny, &body, threads), oracle);
        }
    }

    #[test]
    fn accumulate_matches_scalar_combine_bitwise() {
        // The intrinsic paths must agree with the portable slot loop
        // bit-for-bit, including odd (tail) lengths.
        for len in [0usize, 1, 2, 3, 7, 16, 33] {
            let mut fa: Vec<f64> = (0..len).map(|j| j as f64 * 0.3 - 1.7).collect();
            let fs: Vec<f64> = (0..len).map(|j| (j as f64).sin()).collect();
            let mut fa_ref = fa.clone();
            f64::accumulate(&mut fa, &fs);
            super::accumulate_scalar(&mut fa_ref, &fs);
            assert!(fa
                .iter()
                .zip(&fa_ref)
                .all(|(a, b)| a.to_bits() == b.to_bits()));

            let mut ia: Vec<i64> = (0..len).map(|j| i64::MAX - j as i64).collect();
            let is: Vec<i64> = (0..len).map(|j| j as i64 * 3 + 1).collect();
            let mut ia_ref = ia.clone();
            i64::accumulate(&mut ia, &is); // wraps — must match wrapping_add
            super::accumulate_scalar(&mut ia_ref, &is);
            assert_eq!(ia, ia_ref);

            let mut ua: Vec<u64> = (0..len as u64).map(|j| u64::MAX - j).collect();
            let us: Vec<u64> = (0..len as u64).collect();
            let mut ua_ref = ua.clone();
            u64::accumulate(&mut ua, &us);
            super::accumulate_scalar(&mut ua_ref, &us);
            assert_eq!(ua, ua_ref);
        }
    }

    #[test]
    fn feasibility_gates_on_density() {
        let dense = PatternChars::measure(&pattern(1));
        assert!(dense.sp >= SIMD_MIN_SP, "test pattern should be dense");
        assert!(simd_feasible(&dense));
        let sparse = PatternChars::measure(
            &PatternSpec {
                num_elements: 400_000,
                iterations: 1_000,
                refs_per_iter: 4,
                coverage: 0.004,
                dist: Distribution::Uniform,
                seed: 3,
            }
            .generate(),
        );
        assert!(!simd_feasible(&sparse), "sp {}", sparse.sp);
        // No references => nothing to vectorize.
        let empty = PatternChars::measure(&AccessPattern::from_iters(16, &[]));
        assert!(!simd_feasible(&empty));
    }
}
