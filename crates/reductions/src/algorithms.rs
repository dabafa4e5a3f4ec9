//! The parallel reduction algorithm library of Section 4 — one kernel per
//! scheme, shared by single jobs and fused sweeps.
//!
//! Every kernel computes, for an [`AccessPattern`] `pat` and K
//! contribution functions `body_k(iteration, ref_slot) -> T`, the K arrays
//!
//! ```text
//! w_k[x] = ⊕ { body_k(i, r) : pat.indices[r] == x, r ∈ pat.ref_range(i) }
//! ```
//!
//! exactly as the sequential loop would — the schemes differ only in *how*
//! the partial results are privatized and merged, which is precisely what
//! the adaptive selection of the paper chooses between:
//!
//! | scheme | private storage        | merge cost              | best when |
//! |--------|------------------------|-------------------------|-----------|
//! | `rep`  | full array × P         | O(N) per processor      | dense, high reuse (CHR high) |
//! | `ll`   | full array × P + lines | O(touched lines)        | large array, moderate sparsity |
//! | `sel`  | conflicting elems only | O(conflicts)            | sparse, low contention |
//! | `lw`   | none (owner computes)  | none (iter replication) | feasible loops, moderate MO |
//! | `hash` | touched set × P        | O(distinct)             | extremely sparse (SP ≪ 1%) |
//!
//! **One kernel, any K.**  Each scheme is written once, generic over its
//! body set.  A single job ([`run_scheme_on`](crate::run_scheme_on))
//! passes one `impl Fn` body, for which K = 1 is a compile-time constant,
//! so the kernel compiles to the plain single-output loop.  A fused sweep
//! ([`run_fused_on`](crate::run_fused_on)) passes K [`FusedBody`]s and
//! walks the pattern **once** for all of them: the traversal, the address
//! generation, the touched-line marks, the conflict and ownership tests
//! and the slot lookup are paid once per reference, and only the body
//! evaluations and updates scale with K.  Private storage is stride-K
//! interleaved — all K partial values of an element adjacent — so one
//! touched line serves the whole batch; it also grows K-fold, so callers
//! bound K (the runtime caps it with its `max_fuse` knob).
//!
//! Every kernel upholds the oracle contract: output `k` equals the
//! sequential loop over `body_k` bit for bit on integer monoids and within
//! floating-point tolerance otherwise — and, because both entry points
//! run the same kernel, output `k` of a fused sweep is the single run of
//! `body_k`.  Every merge combines an element's partials in tid order
//! from the neutral element, so every kernel is also run-to-run
//! bit-identical on floating point.
//!
//! **One privatizing kernel.**  `rep`, `ll`, `sel` and `hash` are one
//! loop-and-merge sweep.  In the loop phase each thread combines into its
//! own `K × slots` private array; in the merge phase each thread walks a
//! block of slots and combines every thread's partial in tid order, then
//! writes the element.  The schemes differ only in compile-time
//! parameters: the key a reference carries (its element, or its `hash`
//! slot), which keys get a slot (`sel` updates an element only one thread
//! touches in place), the element a slot merges into, and whether threads
//! mark the lines they touch.  `ll` marks each line of eight elements it
//! touches, one bit per line in the bitmap its merge reads, so the merge
//! visits only marked lines and combines only the threads that marked
//! each one.
//!
//! **Width 1 is the sequential sweep.**  At one thread every software
//! scheme, single or fused, runs `seq`'s traversal, before any inspection
//! or localize pass.  This is bit-identical on floating point too: a lone
//! thread combines each element's contributions in iteration order from
//! the neutral element, and a merge only adds `neutral ⊕ x = x`.  So the
//! private storage, the maps and the merge buy nothing at width 1.
//!
//! `hash` reduces over the touched set numbered once by
//! [`Inspector::localize`]: a [`LocalIndex`] gives every reference the
//! dense slot of its element, so private storage is `K × distinct` per
//! thread with no probe and no growth.  A caller that reuses the pattern
//! passes the index in (the runtime caches one per pattern allocation);
//! otherwise each run localizes for itself.
//!
//! Threading runs one SPMD block task per logical processor through a
//! [`SpmdExecutor`] — [`SpawnExecutor`](crate::SpawnExecutor) forks fresh
//! threads per call, the `smartapps-runtime` persistent worker pool serves
//! the service path.  Block scheduling matches the paper's block-scheduled
//! loops.

use crate::inspect::{Analyses, ConflictInfo, Inspector, LocalIndex, OwnerLists};
use crate::scheme::{RedElem, Scheme, UnsafeSlice};
use crate::spmd::SpmdExecutor;
use smartapps_workloads::pattern::AccessPattern;
use smartapps_workloads::{block_range, elem_block_range};

/// Elements per touched-line bucket in the `ll` scheme (one cache line of
/// f64).
const LINK_LINE: usize = 8;

/// A borrowed contribution body, as fused sweeps consume them.
pub type FusedBody<'a, T> = &'a (dyn Fn(usize, usize) -> T + Sync);

/// The bodies one sweep evaluates at every visited reference.
pub(crate) trait Bodies<T>: Sync {
    /// K, the number of bodies and outputs.  Kernels call it inside each
    /// SPMD closure: a value captured into the closure is opaque there,
    /// while a call folds a single body's constant 1 into the loop.
    fn k(&self) -> usize;
    /// Hand `f(kk, body_kk(i, r))` every body's contribution, in body order.
    fn each(&self, i: usize, r: usize, f: impl FnMut(usize, T));
}

/// A single job's body: K = 1.
pub(crate) struct One<'a, F>(pub &'a F);

impl<T, F: Fn(usize, usize) -> T + Sync> Bodies<T> for One<'_, F> {
    #[inline(always)]
    fn k(&self) -> usize {
        1
    }
    #[inline(always)]
    fn each(&self, i: usize, r: usize, mut f: impl FnMut(usize, T)) {
        f(0, (self.0)(i, r));
    }
}

impl<T> Bodies<T> for [FusedBody<'_, T>] {
    #[inline]
    fn k(&self) -> usize {
        self.len()
    }
    #[inline]
    fn each(&self, i: usize, r: usize, mut f: impl FnMut(usize, T)) {
        for (kk, body) in self.iter().enumerate() {
            f(kk, body(i, r));
        }
    }
}

/// Sequential baseline.
pub fn seq<T: RedElem>(pat: &AccessPattern, body: &(impl Fn(usize, usize) -> T + Sync)) -> Vec<T> {
    crate::run_scheme(Scheme::Seq, pat, body, 1, None)
}

/// Visit `(i, r, x)` — iteration, reference slot, element — for every
/// reference of the iterations `iters`, in order.
#[inline(always)]
fn each_ref(
    pat: &AccessPattern,
    iters: impl IntoIterator<Item = usize>,
    f: impl FnMut(usize, usize, usize),
) {
    each_keyed(pat, &pat.indices, iters, f);
}

/// [`each_ref`] with `keys[r]` in place of the element (`hash` passes its
/// dense slots).  The arrays are borrowed once up front, so `f`'s stores
/// cannot force a reload of them on every reference.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // slicing each iteration costs more than indexing
fn each_keyed(
    pat: &AccessPattern,
    keys: &[u32],
    iters: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(usize, usize, usize),
) {
    let iter_ptr = &pat.iter_ptr[..];
    for i in iters {
        for r in iter_ptr[i] as usize..iter_ptr[i + 1] as usize {
            f(i, r, keys[r] as usize);
        }
    }
}

/// Execute `scheme` over `pat` once for the whole body set, combining
/// output `k` into `outs[k]` (one neutral-initialized `num_elements`
/// array per body) — the one scheme dispatch behind both public entry
/// points.  `sel` and `lw` need an inspection and `hash` a
/// [`LocalIndex`]; the caller's are reused when supplied, otherwise the
/// missing one is computed here, per call.  At width 1 every software
/// scheme runs [`seq_sweep`] instead, before any inspection or localize
/// pass (bit-identical; see the module doc).
///
/// # Panics
///
/// Panics for [`Scheme::Pclr`] and [`Scheme::Simd`], which have no scalar
/// software kernel.
pub(crate) fn sweep<'o, T: RedElem, B: Bodies<T> + ?Sized>(
    scheme: Scheme,
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    analyses: Analyses<'_>,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &(impl AsRef<[UnsafeSlice<'o, T>]> + ?Sized),
) {
    assert!(threads >= 1 || scheme == Scheme::Seq);
    if threads <= 1 && scheme.is_software() {
        return seq_sweep(pat, bodies, outs);
    }
    let (own_insp, own_local);
    let insp = match (scheme, analyses.inspection) {
        (Scheme::Sel | Scheme::Lw, None) => {
            own_insp = Inspector::analyze(pat, threads);
            Some(&own_insp)
        }
        (_, insp) => insp,
    };
    let local = match (scheme, analyses.local) {
        (Scheme::Hash, None) => {
            own_local = Inspector::localize(pat);
            Some(&own_local)
        }
        (_, local) => local,
    };
    let (slices, n) = (outs.as_ref(), pat.num_elements);
    match scheme {
        Scheme::Seq => seq_sweep(pat, bodies, outs),
        Scheme::Rep => privatize(pat, bodies, threads, &Replicated::<false>(n), exec, slices),
        Scheme::Ll => privatize(pat, bodies, threads, &Replicated::<true>(n), exec, slices),
        Scheme::Sel => {
            let conflicts = &insp.unwrap().conflicts;
            assert_eq!(conflicts.threads, threads, "conflict info for wrong P");
            privatize(pat, bodies, threads, conflicts, exec, slices)
        }
        Scheme::Lw => lw_sweep(pat, bodies, threads, &insp.unwrap().owners, exec, slices),
        Scheme::Hash => privatize(pat, bodies, threads, local.unwrap(), exec, slices),
        Scheme::Pclr => {
            panic!("Scheme::Pclr has no software kernel; route it to a PCLR execution backend")
        }
        Scheme::Simd => {
            panic!("Scheme::Simd is not dispatched here; route it to a SIMD execution backend")
        }
    }
}

/// `seq`: one traversal, straight into the outputs.
///
/// `outs` is the caller's container, not a slice of it: for a single job
/// it is a one-element array, whose size lets the compiler load the output
/// once before the loop instead of once per reference.
fn seq_sweep<'o, T: RedElem, B: Bodies<T> + ?Sized>(
    pat: &AccessPattern,
    bodies: &B,
    outs: &(impl AsRef<[UnsafeSlice<'o, T>]> + ?Sized),
) {
    let outs = outs.as_ref();
    each_ref(pat, 0..pat.num_iterations(), |i, r, x| {
        // SAFETY: a single thread touches the outputs.
        bodies.each(i, r, |kk, v| unsafe { outs[kk].combine_into(x, v) });
    });
}

/// What a privatizing scheme decides: which key each reference carries,
/// which keys get a private slot, and which element each slot merges
/// into.  [`privatize`] is generic over it, so every scheme still
/// compiles to its own loop.
trait Privatized: Sync {
    /// Whether threads mark the lines of [`LINK_LINE`] slots they touch,
    /// so the merge visits only marked lines, and only their markers.
    const MARKS: bool = false;
    /// Slots per mark bit.  A constant, so the merge divides by a shift.
    const LINE: usize = if Self::MARKS { LINK_LINE } else { 1 };
    /// The key of every reference slot.
    fn keys<'a>(&'a self, pat: &'a AccessPattern) -> &'a [u32];
    /// Private slots per thread, each K values wide.
    fn slots(&self) -> usize;
    /// The private slot of key `x`, or `None` when only the running
    /// thread ever touches its element, which is then updated in place.
    fn slot(&self, x: usize) -> Option<usize>;
    /// The element slot `s` merges into.
    fn element(&self, s: usize) -> usize;
}

/// `rep` (`MARKS = false`) and `ll` (`MARKS = true`): one slot per
/// element of an N-element pattern.
struct Replicated<const MARKS: bool>(usize);

impl<const M: bool> Privatized for Replicated<M> {
    const MARKS: bool = M;
    fn keys<'a>(&'a self, pat: &'a AccessPattern) -> &'a [u32] {
        &pat.indices
    }
    fn slots(&self) -> usize {
        self.0
    }
    #[inline(always)]
    fn slot(&self, x: usize) -> Option<usize> {
        Some(x)
    }
    #[inline(always)]
    fn element(&self, s: usize) -> usize {
        s
    }
}

/// `sel`: one slot per conflicting element; an element one thread alone
/// references is written in place.
impl Privatized for ConflictInfo {
    fn keys<'a>(&'a self, pat: &'a AccessPattern) -> &'a [u32] {
        &pat.indices
    }
    fn slots(&self) -> usize {
        self.num_conflicting
    }
    #[inline(always)]
    fn slot(&self, x: usize) -> Option<usize> {
        let c = self.compact[x];
        (c != u32::MAX).then_some(c as usize)
    }
    #[inline(always)]
    fn element(&self, s: usize) -> usize {
        self.conflicting_elements[s] as usize
    }
}

/// `hash`: one slot per touched element, read per reference from the
/// [`LocalIndex`] — no probe, no growth, so the working set stays
/// proportional to the *referenced* elements, which is what makes it win
/// on extremely sparse patterns like SPICE.
impl Privatized for LocalIndex {
    fn keys<'a>(&'a self, _: &'a AccessPattern) -> &'a [u32] {
        &self.slot_of_ref
    }
    fn slots(&self) -> usize {
        self.elements.len()
    }
    #[inline(always)]
    fn slot(&self, s: usize) -> Option<usize> {
        Some(s)
    }
    #[inline(always)]
    fn element(&self, s: usize) -> usize {
        self.elements[s] as usize
    }
}

/// The privatizing kernel of `rep`, `ll`, `sel` and `hash`.
///
/// Loop phase: each thread walks its iteration block, combining every
/// contribution into its own `K × slots` private array (an element
/// without a slot in place), and marks the lines it touches if the scheme
/// marks.  Merge phase: each thread takes a block of 64-line groups and,
/// for every line some thread marked (every line, when the scheme does
/// not mark), combines the markers' partials in tid order from the
/// neutral element, then writes the result.  The order is fixed, so the
/// output is run-to-run bit-identical, and no lock is taken.  A marking
/// merge does the combines of the lines touched, plus a scan of one
/// bitmap word per 64 lines per thread; packing a thread's marks into
/// that bitmap costs it O(lines), beside its O(slots) neutral fill.
fn privatize<T: RedElem, B: Bodies<T> + ?Sized, S: Privatized>(
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    scheme: &S,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &[UnsafeSlice<'_, T>],
) {
    let slots = scheme.slots();
    let words = slots.div_ceil(S::LINE * 64);
    // Loop phase: the private arrays' allocation and neutral fill is the
    // Init cost the paper charges to software schemes.
    let mut privates: Vec<(Vec<T>, Vec<u64>)> = (0..threads).map(|_| Default::default()).collect();
    {
        let parts = UnsafeSlice::new(&mut privates);
        let parts = &parts;
        exec.spmd(threads, &|t| {
            let k = bodies.k();
            let mut w = vec![T::neutral(); k * slots];
            let mut touched = vec![false; if S::MARKS { slots.div_ceil(S::LINE) } else { 0 }];
            let mine = block_range(pat.num_iterations(), t, threads);
            each_keyed(pat, scheme.keys(pat), mine, |i, r, x| {
                match scheme.slot(x) {
                    Some(s) => {
                        if S::MARKS {
                            // A byte store: testing and setting a bit here
                            // costs the loop a third more on dense patterns.
                            touched[s / S::LINE] = true;
                        }
                        let base = s * k;
                        bodies.each(i, r, |kk, v| w[base + kk] = T::combine(w[base + kk], v));
                    }
                    // SAFETY: the scheme gives an element no slot only when
                    // this thread alone touches it, in any output.
                    None => bodies.each(i, r, |kk, v| unsafe { outs[kk].combine_into(x, v) }),
                }
            });
            // Packed once per thread, O(lines), into the merge's bitmap.
            let marks = touched
                .chunks(64)
                .map(|c| c.iter().rev().fold(0, |m, &b| m << 1 | b as u64));
            // SAFETY: each tid writes only its own entry.
            unsafe { parts.write(t, (w, marks.collect())) };
        });
    }
    // Merge phase: every thread reads all P partials over its groups —
    // the step that does not scale.
    let privates = &privates;
    exec.spmd(threads, &|t| {
        let k = bodies.k();
        for g in block_range(words, t, threads) {
            let marked = |p: &(Vec<T>, Vec<u64>)| if S::MARKS { p.1[g] } else { u64::MAX };
            let mut todo = privates.iter().fold(0, |a, p| a | marked(p));
            // Walk runs of adjacent lines, so an unmarking scheme's
            // group is one plain slot loop (cut at `slots`).
            while todo != 0 {
                let first = todo.trailing_zeros();
                let run = (todo >> first).trailing_ones();
                todo &= !(u64::MAX >> (64 - run) << first);
                let (lo, hi) = (g * 64 + first as usize, g * 64 + (first + run) as usize);
                for s in lo * S::LINE..(hi * S::LINE).min(slots) {
                    let (e, b) = (scheme.element(s), s / S::LINE % 64);
                    for (kk, out) in outs[..k].iter().enumerate() {
                        let mut acc = T::neutral();
                        for p in privates.iter().filter(|p| marked(p) >> b & 1 != 0) {
                            acc = T::combine(acc, p.0[s * k + kk]);
                        }
                        // SAFETY: an element has at most one slot, groups
                        // are disjoint across merge threads, and the loop
                        // phase updated in place only elements without one.
                        unsafe { out.write(e, acc) };
                    }
                }
            }
        }
    });
}

/// `lw`: local write (owner computes).  Elements are block-partitioned;
/// every iteration is executed by each thread owning at least one of its
/// referenced elements (iteration replication), and each thread commits
/// only the updates into its own partition — no private arrays, no merge.
/// The ownership test and index load are paid once for all K outputs.
fn lw_sweep<T: RedElem, B: Bodies<T> + ?Sized>(
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    owners: &OwnerLists,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &[UnsafeSlice<'_, T>],
) {
    assert_eq!(owners.threads, threads, "owner lists computed for wrong P");
    let n = pat.num_elements;
    exec.spmd(threads, &|t| {
        let my = elem_block_range(n, t, threads);
        let iters = owners.iters_of[t].iter().map(|&i| i as usize);
        each_ref(pat, iters, |i, r, x| {
            if my.contains(&x) {
                // SAFETY: x is owned by this thread's disjoint element
                // block, in every output.
                bodies.each(i, r, |kk, v| unsafe { outs[kk].combine_into(x, v) });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::SpawnExecutor;
    use crate::{run_fused_on, run_scheme_on};
    use smartapps_workloads::pattern::{
        contribution, contribution_i64, sequential_reduce, sequential_reduce_i64,
    };
    use smartapps_workloads::{Distribution, PatternSpec};

    const SOFTWARE: [Scheme; 6] = [
        Scheme::Seq,
        Scheme::Rep,
        Scheme::Ll,
        Scheme::Sel,
        Scheme::Lw,
        Scheme::Hash,
    ];

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

    /// 1 029 elements: 129 `ll` lines over three bitmap words, the last
    /// word and line partial.  Every iteration touches one element of a
    /// sweep, whose lines each belong to the one thread whose block
    /// reaches them, and one of 16 hot elements that every thread touches.
    fn wide_pattern() -> AccessPattern {
        let iters: Vec<Vec<u32>> = (0..1400u32)
            .map(|i| vec![i * 1029 / 1400, i % 16])
            .collect();
        AccessPattern::from_iters(1029, &iters)
    }

    /// Run `scheme` for bodies `scale(kk) · contribution(r)`, kk < k: K = 1
    /// through the single-body entry point, K > 1 as one fused sweep.
    fn run_k<T: RedElem>(
        scheme: Scheme,
        pat: &AccessPattern,
        k: usize,
        threads: usize,
        exec: &(impl SpmdExecutor + ?Sized),
        body: impl Fn(usize, usize) -> T + Sync + Copy,
    ) -> Vec<Vec<T>> {
        if k == 1 {
            return vec![run_scheme_on(
                scheme,
                pat,
                &|_i, r| body(0, r),
                threads,
                None,
                exec,
            )];
        }
        let owned: Vec<Box<dyn Fn(usize, usize) -> T + Sync>> = (0..k)
            .map(|kk| Box::new(move |_i: usize, r: usize| body(kk, r)) as Box<_>)
            .collect();
        let bodies: Vec<FusedBody<'_, T>> =
            owned.iter().map(|b| &**b as FusedBody<'_, T>).collect();
        run_fused_on(scheme, pat, &bodies, threads, None, exec)
    }

    /// Body `kk` scales the integer contribution by `kk + 1`.
    fn scaled_i64(kk: usize, r: usize) -> i64 {
        contribution_i64(r).wrapping_mul(kk as i64 + 1)
    }

    /// The K oracles for [`scaled_i64`]: wrapping arithmetic is a ring, so
    /// scaling the sequential sum is exact.
    fn oracles_i64(pat: &AccessPattern, k: usize) -> Vec<Vec<i64>> {
        let base = sequential_reduce_i64(pat);
        (0..k)
            .map(|kk| base.iter().map(|v| v.wrapping_mul(kk as i64 + 1)).collect())
            .collect()
    }

    #[test]
    fn all_schemes_match_sequential_oracle() {
        for pat in [pattern(42), wide_pattern()] {
            for k in [1usize, 3] {
                let oracles = oracles_i64(&pat, k);
                for threads in [1usize, 2, 4, 7] {
                    for s in SOFTWARE {
                        let got = run_k(s, &pat, k, threads, &SpawnExecutor, scaled_i64);
                        let n = pat.num_elements;
                        assert_eq!(got, oracles, "{s} x{threads} k={k} n={n}");
                    }
                }
            }
        }
    }

    /// A pathological-but-legal executor that runs the SPMD tids one after
    /// another on the calling thread.  The algorithms may not rely on tids
    /// actually overlapping in time — only on the completion barrier.
    struct SerialExec;
    impl SpmdExecutor for SerialExec {
        fn spmd(&self, threads: usize, body: &(dyn Fn(usize) + Sync)) {
            for t in 0..threads {
                body(t);
            }
        }
    }

    #[test]
    fn schemes_are_executor_agnostic() {
        for pat in [pattern(11), wide_pattern()] {
            for k in [1usize, 3] {
                let oracles = oracles_i64(&pat, k);
                for s in SOFTWARE {
                    let got = run_k(s, &pat, k, 4, &SerialExec, scaled_i64);
                    let n = pat.num_elements;
                    assert_eq!(got, oracles, "{s} serial k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn empty_pattern_yields_neutral_array() {
        let pat = AccessPattern::from_iters(16, &[]);
        for k in [1usize, 3] {
            for s in SOFTWARE {
                let got = run_k(s, &pat, k, 3, &SpawnExecutor, scaled_i64);
                assert_eq!(got, vec![vec![0i64; 16]; k], "{s} k={k}");
            }
        }
        // No bodies: no outputs, and the pattern is never touched.
        let none: Vec<FusedBody<'_, i64>> = Vec::new();
        assert!(run_fused_on(Scheme::Rep, &pattern(24), &none, 4, None, &SpawnExecutor).is_empty());
    }

    #[test]
    fn single_hot_element_all_threads() {
        // Maximal contention: every reference hits element 0.
        let pat = AccessPattern::from_iters(4, &vec![vec![0u32, 0, 0]; 100]);
        for k in [1usize, 3] {
            let oracles = oracles_i64(&pat, k);
            for threads in [2usize, 4] {
                for s in SOFTWARE {
                    let got = run_k(s, &pat, k, threads, &SpawnExecutor, scaled_i64);
                    assert_eq!(got, oracles, "{s} x{threads} k={k}");
                }
            }
        }
    }

    #[test]
    fn more_threads_than_iterations() {
        let pat = AccessPattern::from_iters(10, &[vec![1u32], vec![2, 2]]);
        for k in [1usize, 3] {
            let oracles = oracles_i64(&pat, k);
            for threads in [3usize, 8] {
                for s in SOFTWARE {
                    let got = run_k(s, &pat, k, threads, &SpawnExecutor, scaled_i64);
                    assert_eq!(got, oracles, "{s} x{threads} k={k}");
                }
            }
        }
    }

    #[test]
    fn f64_schemes_agree_within_tolerance() {
        let pat = pattern(7);
        // Power-of-two scales commute with rounding, so scaling the
        // sequential sum gives each body's exact sequential result.
        let scale = |kk: usize| 0.5f64.powi(kk as i32);
        let base = sequential_reduce(&pat);
        for k in [1usize, 3] {
            for threads in [1usize, 2, 4, 7] {
                for s in SOFTWARE {
                    let body = |kk, r| contribution(r) * scale(kk);
                    let got = run_k(s, &pat, k, threads, &SpawnExecutor, body);
                    if threads > 1 {
                        // Every merge combines in a fixed order, so a
                        // second run gives the same bits.
                        let again = run_k(s, &pat, k, threads, &SpawnExecutor, body);
                        let bits = |v: &[Vec<f64>]| -> Vec<u64> {
                            v.iter().flatten().map(|x| x.to_bits()).collect()
                        };
                        assert_eq!(bits(&got), bits(&again), "{s} x{threads} k={k} rerun");
                    }
                    for (kk, out) in got.iter().enumerate() {
                        for (e, (a, b)) in base.iter().zip(out).enumerate() {
                            let a = a * scale(kk);
                            let at = format!("{s} x{threads} k={k} output {kk} elem {e}");
                            if threads == 1 {
                                // Width 1 is the sequential sweep: exact.
                                assert_eq!(a.to_bits(), b.to_bits(), "{at}: {a} vs {b}");
                            } else {
                                let tol = 1e-9 * a.abs().max(1.0);
                                assert!((a - b).abs() <= tol, "{at}: {a} vs {b}");
                            }
                        }
                    }
                }
            }
        }
    }
}
