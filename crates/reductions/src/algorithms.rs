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
//! | `ll`   | full array × P + links | O(touched)              | large array, moderate sparsity |
//! | `sel`  | conflicting elems only | O(conflicts)            | sparse, low contention |
//! | `lw`   | none (owner computes)  | none (iter replication) | feasible loops, moderate MO |
//! | `hash` | per-thread hash table  | O(distinct)             | extremely sparse (SP ≪ 1%) |
//!
//! **One kernel, any K.**  Each scheme is written once, generic over its
//! body set.  A single job ([`run_scheme_on`](crate::run_scheme_on))
//! passes one `impl Fn` body, for which K = 1 is a compile-time constant,
//! so the kernel compiles to the plain single-output loop.  A fused sweep
//! ([`run_fused_on`](crate::run_fused_on)) passes K [`FusedBody`]s and
//! walks the pattern **once** for all of them: the traversal, the address
//! generation, the touched-line links, the conflict and ownership tests
//! and the hash probe are paid once per reference, and only the body
//! evaluations and updates scale with K.  Private storage is stride-K
//! interleaved — all K partial values of an element adjacent — so one
//! touched line serves the whole batch; it also grows K-fold, so callers
//! bound K (the runtime caps it with its `max_fuse` knob).
//!
//! Every kernel upholds the oracle contract: output `k` equals the
//! sequential loop over `body_k` bit for bit on integer monoids and within
//! floating-point tolerance otherwise — and, because both entry points
//! run the same kernel, output `k` of a fused sweep is the single run of
//! `body_k`.
//!
//! Threading runs one SPMD block task per logical processor through a
//! [`SpmdExecutor`] — [`SpawnExecutor`](crate::SpawnExecutor) forks fresh
//! threads per call, the `smartapps-runtime` persistent worker pool serves
//! the service path.  Block scheduling matches the paper's block-scheduled
//! loops.

use crate::inspect::{ConflictInfo, Inspection, Inspector, OwnerLists};
use crate::scheme::{RedElem, Scheme, UnsafeSlice};
use crate::spmd::SpmdExecutor;
use parking_lot::Mutex;
use smartapps_workloads::pattern::AccessPattern;
use smartapps_workloads::{block_range, elem_block_range};

/// Number of lock stripes used by merge phases that combine into shared
/// storage (`ll`, `hash`).
const MERGE_STRIPES: usize = 256;

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
/// reference of the iterations `iters`, in order.  The pattern's arrays
/// are borrowed once up front, so `f`'s stores cannot force a reload of
/// them on every reference.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // slicing each iteration costs more than indexing
fn each_ref(
    pat: &AccessPattern,
    iters: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(usize, usize, usize),
) {
    let (iter_ptr, indices) = (&pat.iter_ptr[..], &pat.indices[..]);
    for i in iters {
        for r in iter_ptr[i] as usize..iter_ptr[i + 1] as usize {
            f(i, r, indices[r] as usize);
        }
    }
}

/// Execute `scheme` over `pat` once for the whole body set, combining
/// output `k` into `outs[k]` (one neutral-initialized `num_elements`
/// array per body) — the one scheme dispatch behind both public entry
/// points.  `sel` and `lw` need an inspection; the caller's is reused when
/// supplied, otherwise one is computed here.
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
    insp: Option<&Inspection>,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &(impl AsRef<[UnsafeSlice<'o, T>]> + ?Sized),
) {
    assert!(threads >= 1 || scheme == Scheme::Seq);
    let own;
    let insp = match (scheme, insp) {
        (Scheme::Sel | Scheme::Lw, None) => {
            own = Inspector::analyze(pat, threads);
            Some(&own)
        }
        (_, insp) => insp,
    };
    let slices = outs.as_ref();
    match scheme {
        Scheme::Seq => seq_sweep(pat, bodies, outs),
        Scheme::Rep => rep_sweep(pat, bodies, threads, exec, slices),
        Scheme::Ll => ll_sweep(pat, bodies, threads, exec, slices),
        Scheme::Sel => sel_sweep(pat, bodies, threads, &insp.unwrap().conflicts, exec, slices),
        Scheme::Lw => lw_sweep(pat, bodies, threads, &insp.unwrap().owners, exec, slices),
        Scheme::Hash => hash_sweep(pat, bodies, threads, exec, slices),
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

/// `rep`: fully replicated private arrays + block-parallel merge.
fn rep_sweep<T: RedElem, B: Bodies<T> + ?Sized>(
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &[UnsafeSlice<'_, T>],
) {
    let n = pat.num_elements;
    // Loop phase: every thread owns a fully replicated array, initialized
    // to the neutral element (this allocation + sweep is the Init cost the
    // paper charges to the software scheme).
    let mut privates: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    {
        let slots = UnsafeSlice::new(&mut privates);
        let slots = &slots;
        exec.spmd(threads, &|t| {
            let k = bodies.k();
            let mut w = vec![T::neutral(); k * n];
            let mine = block_range(pat.num_iterations(), t, threads);
            each_ref(pat, mine, |i, r, x| {
                let base = x * k;
                bodies.each(i, r, |kk, v| w[base + kk] = T::combine(w[base + kk], v));
            });
            // SAFETY: each tid writes only its own slot.
            unsafe { slots.write(t, w) };
        });
    }
    // Merge phase: element blocks across threads; every thread reads all P
    // partial arrays over its block — the non-scaling step.
    let privates = &privates;
    exec.spmd(threads, &|t| {
        let k = bodies.k();
        for e in elem_block_range(n, t, threads) {
            for (kk, out) in outs[..k].iter().enumerate() {
                let mut acc = T::neutral();
                for p in privates {
                    acc = T::combine(acc, p[e * k + kk]);
                }
                // SAFETY: element blocks are disjoint across threads.
                unsafe { out.write(e, acc) };
            }
        }
    });
}

/// `ll`: replicated buffers with links — private arrays plus **one**
/// touched-line list per thread (all K outputs touch the same lines), so
/// the merge walks only written storage, line by line under stripe locks.
fn ll_sweep<T: RedElem, B: Bodies<T> + ?Sized>(
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &[UnsafeSlice<'_, T>],
) {
    let n = pat.num_elements;
    let n_lines = n.div_ceil(LINK_LINE);
    let stripes: Vec<Mutex<()>> = (0..MERGE_STRIPES).map(|_| Mutex::new(())).collect();
    let stripes = &stripes;
    exec.spmd(threads, &|t| {
        let k = bodies.k();
        let mut w = vec![T::neutral(); k * n];
        let mut touched_line = vec![false; n_lines];
        // Sized up front, so recording a line never calls into the
        // allocator from the loop.
        let mut links = vec![0u32; n_lines];
        let mut touched = 0;
        let mine = block_range(pat.num_iterations(), t, threads);
        each_ref(pat, mine, |i, r, x| {
            let line = x / LINK_LINE;
            if !touched_line[line] {
                touched_line[line] = true;
                links[touched] = line as u32;
                touched += 1;
            }
            let base = x * k;
            bodies.each(i, r, |kk, v| w[base + kk] = T::combine(w[base + kk], v));
        });
        for &line in &links[..touched] {
            let lo = line as usize * LINK_LINE;
            let hi = (lo + LINK_LINE).min(n);
            let _g = stripes[line as usize % MERGE_STRIPES].lock();
            for (e, vals) in (lo..hi).zip(w[lo * k..hi * k].chunks_exact(k)) {
                for (out, &v) in outs[..k].iter().zip(vals) {
                    // SAFETY: the stripe lock serializes all access to
                    // this line across threads, for every output.
                    unsafe { out.combine_into(e, v) };
                }
            }
        }
    });
}

/// `sel`: selective privatization.  The inspector's conflict analysis
/// marks elements referenced by more than one thread; only those get
/// (compact) private storage.  Non-conflicting elements are updated
/// directly in the shared outputs — each has exactly one writing thread,
/// however many outputs it feeds.
fn sel_sweep<T: RedElem, B: Bodies<T> + ?Sized>(
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    conflicts: &ConflictInfo,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &[UnsafeSlice<'_, T>],
) {
    assert_eq!(
        conflicts.threads, threads,
        "conflict info computed for wrong P"
    );
    let nc = conflicts.num_conflicting;
    // Loop phase.
    let mut privates: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    {
        let slots = UnsafeSlice::new(&mut privates);
        let slots = &slots;
        exec.spmd(threads, &|t| {
            let k = bodies.k();
            let mut priv_c = vec![T::neutral(); k * nc];
            let mine = block_range(pat.num_iterations(), t, threads);
            each_ref(pat, mine, |i, r, x| {
                let c = conflicts.compact[x];
                if c != u32::MAX {
                    let base = c as usize * k;
                    bodies.each(i, r, |kk, v| {
                        priv_c[base + kk] = T::combine(priv_c[base + kk], v)
                    });
                } else {
                    // SAFETY: non-conflicting element — exactly one thread
                    // (this one) ever touches index x, in any output.
                    bodies.each(i, r, |kk, v| unsafe { outs[kk].combine_into(x, v) });
                }
            });
            // SAFETY: each tid writes only its own slot.
            unsafe { slots.write(t, priv_c) };
        });
    }
    // Merge phase: only the compact conflicting region.
    let privates = &privates;
    let conflict_elems = &conflicts.conflicting_elements;
    exec.spmd(threads, &|t| {
        let k = bodies.k();
        for ci in block_range(nc, t, threads) {
            let e = conflict_elems[ci] as usize;
            for (kk, out) in outs[..k].iter().enumerate() {
                let mut acc = T::neutral();
                for p in privates {
                    acc = T::combine(acc, p[ci * k + kk]);
                }
                // SAFETY: each conflicting element has exactly one compact
                // slot, compact blocks are disjoint across merge threads,
                // and loop threads never wrote conflicting elements
                // directly.
                unsafe { out.combine_into(e, acc) };
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

/// Sentinel for an empty [`HashAcc`] slot.
const EMPTY: u32 = u32::MAX;

/// The `hash` scheme's open-addressing accumulation table (linear
/// probing, power-of-two capacity): K values per key, stored adjacently,
/// so one probe per reference serves every body.  Every call names K, so a
/// single job's constant 1 folds into the probe.
struct HashAcc<T> {
    keys: Vec<u32>,
    vals: Vec<T>,
    mask: usize,
    len: usize,
}

impl<T: RedElem> HashAcc<T> {
    /// A table with room for at least `cap` keys of `k` values each.
    fn with_capacity(cap: usize, k: usize) -> Self {
        let size = (cap.max(8) * 2).next_power_of_two();
        HashAcc {
            keys: vec![EMPTY; size],
            vals: vec![T::neutral(); size * k],
            mask: size - 1,
            len: 0,
        }
    }

    /// The `k` values of `key`, claiming a slot (and growing first if
    /// needed) for a new key.
    #[inline(always)]
    fn values(&mut self, key: u32, k: usize) -> &mut [T] {
        debug_assert_ne!(key, EMPTY);
        if self.len * 10 >= self.keys.len() * 7 {
            self.grow(k);
        }
        // Multiplicative hashing (Fibonacci): cheap and adequate for array
        // indices.
        let mut s = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & self.mask;
        loop {
            let existing = self.keys[s];
            if existing == key {
                break;
            }
            if existing == EMPTY {
                self.keys[s] = key;
                self.len += 1;
                break;
            }
            s = (s + 1) & self.mask;
        }
        &mut self.vals[s * k..][..k]
    }

    #[cold]
    fn grow(&mut self, k: usize) {
        let mut bigger = HashAcc::<T>::with_capacity(self.keys.len(), k);
        for (key, vals) in self.iter(k) {
            bigger.values(key, k).copy_from_slice(vals);
        }
        *self = bigger;
    }

    /// Occupied `(key, values)` pairs, in slot order.
    fn iter(&self, k: usize) -> impl Iterator<Item = (u32, &[T])> + '_ {
        self.keys
            .iter()
            .zip(self.vals.chunks_exact(k))
            .filter(|(key, _)| **key != EMPTY)
            .map(|(key, vals)| (*key, vals))
    }
}

/// `hash`: per-thread hash-table accumulation, merged under stripe locks.
/// The table keeps the working set proportional to the *referenced*
/// elements, which is what makes it win on extremely sparse patterns like
/// SPICE ("the hash table reduces the allocated and processed space to
/// such an extent that ... the performance improves dramatically").
fn hash_sweep<T: RedElem, B: Bodies<T> + ?Sized>(
    pat: &AccessPattern,
    bodies: &B,
    threads: usize,
    exec: &(impl SpmdExecutor + ?Sized),
    outs: &[UnsafeSlice<'_, T>],
) {
    let stripes: Vec<Mutex<()>> = (0..MERGE_STRIPES).map(|_| Mutex::new(())).collect();
    let stripes = &stripes;
    exec.spmd(threads, &|t| {
        let k = bodies.k();
        let mut table = HashAcc::<T>::with_capacity(64, k);
        let mine = block_range(pat.num_iterations(), t, threads);
        each_ref(pat, mine, |i, r, x| {
            let vals = table.values(x as u32, k);
            bodies.each(i, r, |kk, v| vals[kk] = T::combine(vals[kk], v));
        });
        for (key, vals) in table.iter(k) {
            let e = key as usize;
            let _g = stripes[(e / LINK_LINE) % MERGE_STRIPES].lock();
            for (out, &v) in outs[..k].iter().zip(vals) {
                // SAFETY: serialized by the stripe lock.
                unsafe { out.combine_into(e, v) };
            }
        }
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
        let pat = pattern(42);
        for k in [1usize, 3] {
            let oracles = oracles_i64(&pat, k);
            for threads in [1usize, 2, 4, 7] {
                for s in SOFTWARE {
                    let got = run_k(s, &pat, k, threads, &SpawnExecutor, scaled_i64);
                    assert_eq!(got, oracles, "{s} x{threads} k={k}");
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
        let pat = pattern(11);
        for k in [1usize, 3] {
            let oracles = oracles_i64(&pat, k);
            for s in SOFTWARE {
                let got = run_k(s, &pat, k, 4, &SerialExec, scaled_i64);
                assert_eq!(got, oracles, "{s} serial k={k}");
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
            for threads in [2usize, 4] {
                for s in SOFTWARE {
                    let got = run_k(s, &pat, k, threads, &SpawnExecutor, |kk, r| {
                        contribution(r) * scale(kk)
                    });
                    for (kk, out) in got.iter().enumerate() {
                        for (e, (a, b)) in base.iter().zip(out).enumerate() {
                            let a = a * scale(kk);
                            assert!(
                                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                                "{s} x{threads} k={k} output {kk} elem {e}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn acc_table_accumulates_and_grows() {
        for k in [1usize, 3] {
            let mut t = HashAcc::<i64>::with_capacity(4, k);
            for key in 0..1000u32 {
                for add in [1, 2] {
                    for (kk, v) in t.values(key, k).iter_mut().enumerate() {
                        *v += add * (kk as i64 + 1);
                    }
                }
            }
            assert_eq!(t.len, 1000, "k={k}");
            let mut keys: Vec<u32> = t.iter(k).map(|(key, _)| key).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..1000).collect::<Vec<_>>(), "k={k}");
            for (key, vals) in t.iter(k) {
                for (kk, &v) in vals.iter().enumerate() {
                    assert_eq!(v, 3 * (kk as i64 + 1), "key {key} k={k} value {kk}");
                }
            }
        }
    }

    #[test]
    fn acc_table_handles_colliding_keys() {
        // Keys engineered to collide under the multiplicative hash are hard
        // to construct portably; instead stress a tiny table.
        let keys = [0u32, 16, 32, 48, 64, 80];
        for k in [1usize, 3] {
            let mut t = HashAcc::<i64>::with_capacity(8, k);
            for add in [None, Some(1)] {
                for key in keys {
                    for (kk, v) in t.values(key, k).iter_mut().enumerate() {
                        *v += add.unwrap_or(key as i64) * (kk as i64 + 1);
                    }
                }
            }
            let got: std::collections::HashMap<u32, Vec<i64>> =
                t.iter(k).map(|(key, vals)| (key, vals.to_vec())).collect();
            for key in keys {
                let want: Vec<i64> = (1..=k as i64).map(|s| (key as i64 + 1) * s).collect();
                assert_eq!(got[&key], want, "key {key} k={k}");
            }
        }
    }
}
