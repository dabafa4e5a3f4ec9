//! Reduction scheme identifiers and the element/operator abstraction.
//!
//! A *reduction variable* is "a variable whose value is used in one
//! associative and commutative operation of the form `x = x ⊗ exp`, where
//! `⊗` is the operator and `x` does not occur in `exp` or anywhere else in
//! the loop" (Section 4, footnote).  The associativity/commutativity is
//! what lets every scheme here reorder and privatize the updates.

use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;

/// The parallel reduction algorithms of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Sequential execution (baseline, not a parallelization).
    Seq,
    /// `rep` — private accumulation in fully replicated private arrays,
    /// followed by a global merge.
    Rep,
    /// `ll` — replicated buffer with links: private arrays plus a
    /// touched-line bitmap so the merge visits only written lines.
    Ll,
    /// `sel` — selective privatization: only elements referenced by more
    /// than one processor are privatized; the rest are written in place.
    Sel,
    /// `lw` — local write (owner-computes with iteration replication,
    /// after Han & Tseng): each processor executes the iterations touching
    /// its partition and commits only the owned updates.
    Lw,
    /// `hash` — sparse reductions privatized in per-processor hash tables.
    Hash,
    /// `pclr` — the hardware scheme of Section 5: reduction accesses are
    /// marked (shadow-addressed) and combined by the directory
    /// controllers' combine units, with no private-array initialization
    /// and a cache-flush merge.  This scheme has **no software kernel**;
    /// it executes on a PCLR-capable execution backend (the simulated
    /// machine in `smartapps-sim`, routed by `smartapps-runtime`'s
    /// `PclrBackend`).  [`run_scheme`](crate::run_scheme) and
    /// [`run_fused`](crate::run_fused) panic when asked to run it.
    Pclr,
    /// `simd` — vectorized tree reduction: cache-block tiled private
    /// accumulation with multiple independent lanes per thread, merged by
    /// a horizontal tree reduce (the GPU block/warp shape mapped to CPU
    /// SIMD; see [`simd`](crate::simd)).  Like [`Pclr`](Scheme::Pclr) it
    /// is **not** dispatched through the scalar kernel front end:
    /// `smartapps-runtime`'s `SimdBackend` invokes the vector kernels
    /// directly, and [`run_scheme`](crate::run_scheme)/
    /// [`run_fused`](crate::run_fused) panic when asked to run it.
    Simd,
}

impl Scheme {
    /// The paper's abbreviation for the scheme.
    pub fn abbrev(self) -> &'static str {
        match self {
            Scheme::Seq => "seq",
            Scheme::Rep => "rep",
            Scheme::Ll => "ll",
            Scheme::Sel => "sel",
            Scheme::Lw => "lw",
            Scheme::Hash => "hash",
            Scheme::Pclr => "pclr",
            Scheme::Simd => "simd",
        }
    }

    /// Parse the paper's abbreviation.
    pub fn from_abbrev(s: &str) -> Option<Scheme> {
        Some(match s {
            "seq" => Scheme::Seq,
            "rep" => Scheme::Rep,
            "ll" => Scheme::Ll,
            "sel" => Scheme::Sel,
            "lw" => Scheme::Lw,
            "hash" => Scheme::Hash,
            "pclr" => Scheme::Pclr,
            "simd" => Scheme::Simd,
            _ => return None,
        })
    }

    /// All *software* parallel schemes (excludes `Seq` and the
    /// backend-gated `Pclr`/`Simd` schemes, which need a capable
    /// execution backend and enter rankings only when one is present).
    pub fn all_parallel() -> [Scheme; 5] {
        [
            Scheme::Rep,
            Scheme::Ll,
            Scheme::Sel,
            Scheme::Lw,
            Scheme::Hash,
        ]
    }

    /// True for schemes the scalar software library can execute directly
    /// (everything except the hardware [`Pclr`](Scheme::Pclr) scheme and
    /// the vectorized [`Simd`](Scheme::Simd) scheme, which route through
    /// their own execution backends).
    pub fn is_software(self) -> bool {
        !matches!(self, Scheme::Pclr | Scheme::Simd)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// An element type usable in reductions: a commutative monoid.
pub trait RedElem: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// The identity element.
    fn neutral() -> Self;
    /// The associative, commutative combine.
    fn combine(a: Self, b: Self) -> Self;
}

impl RedElem for f64 {
    #[inline]
    fn neutral() -> f64 {
        0.0
    }
    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        a + b
    }
}

impl RedElem for i64 {
    #[inline]
    fn neutral() -> i64 {
        0
    }
    #[inline]
    fn combine(a: i64, b: i64) -> i64 {
        a.wrapping_add(b)
    }
}

impl RedElem for u64 {
    #[inline]
    fn neutral() -> u64 {
        0
    }
    #[inline]
    fn combine(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }
}

/// A shared slice written concurrently at *provably disjoint* indices.
///
/// The `sel` and `lw` schemes let multiple threads write directly into the
/// shared result array; their inspectors guarantee that no element is
/// written by two threads.  This wrapper carries that guarantee past the
/// borrow checker.
pub struct UnsafeSlice<'a, T> {
    slice: &'a [UnsafeCell<T>],
}

unsafe impl<T: Send + Sync> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send + Sync> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap a mutable slice for disjoint concurrent writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` and `&[UnsafeCell<T>]` have identical layout;
        // exclusive access is handed to the cells.
        let ptr = slice as *mut [T] as *const [UnsafeCell<T>];
        UnsafeSlice {
            slice: unsafe { &*ptr },
        }
    }

    /// Write `v` to index `i`.
    ///
    /// # Safety
    /// No other thread may read or write index `i` concurrently.  Callers
    /// uphold this with a partition of the index space.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        *self.slice[i].get() = v;
    }

    /// Read index `i`.
    ///
    /// # Safety
    /// No other thread may write index `i` concurrently.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        *self.slice[i].get()
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.slice.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.slice.is_empty()
    }
}

impl<'a, T: RedElem> UnsafeSlice<'a, T> {
    /// Combine `v` into index `i`.
    ///
    /// # Safety
    /// No other thread may access index `i` concurrently.
    #[inline]
    pub unsafe fn combine_into(&self, i: usize, v: T) {
        let cell = self.slice[i].get();
        *cell = T::combine(*cell, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_abbrevs_roundtrip() {
        for s in [
            Scheme::Seq,
            Scheme::Rep,
            Scheme::Ll,
            Scheme::Sel,
            Scheme::Lw,
            Scheme::Hash,
            Scheme::Pclr,
            Scheme::Simd,
        ] {
            assert_eq!(Scheme::from_abbrev(s.abbrev()), Some(s));
            assert_eq!(format!("{s}"), s.abbrev());
        }
        assert_eq!(Scheme::from_abbrev("bogus"), None);
        assert_eq!(Scheme::all_parallel().len(), 5);
        assert!(Scheme::all_parallel().iter().all(|s| s.is_software()));
        assert!(!Scheme::Pclr.is_software());
        assert!(!Scheme::Simd.is_software());
        assert!(Scheme::Seq.is_software());
    }

    #[test]
    fn red_elem_monoid_laws() {
        // Identity.
        assert_eq!(f64::combine(f64::neutral(), 3.5), 3.5);
        assert_eq!(i64::combine(i64::neutral(), -7), -7);
        assert_eq!(u64::combine(u64::neutral(), 9), 9);
        // Commutativity on samples.
        assert_eq!(f64::combine(1.5, 2.25), f64::combine(2.25, 1.5));
        assert_eq!(i64::combine(5, -3), i64::combine(-3, 5));
        // Associativity on samples (exact for these operands).
        assert_eq!(
            f64::combine(f64::combine(0.5, 0.25), 0.125),
            f64::combine(0.5, f64::combine(0.25, 0.125))
        );
    }

    #[test]
    fn unsafe_slice_disjoint_writes() {
        let mut v = vec![0i64; 64];
        {
            let s = UnsafeSlice::new(&mut v);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let s = &s;
                    scope.spawn(move || {
                        for i in (t * 16)..((t + 1) * 16) {
                            // SAFETY: index ranges are disjoint per thread.
                            unsafe { s.write(i, i as i64) };
                        }
                    });
                }
            });
            assert_eq!(s.len(), 64);
            assert!(!s.is_empty());
        }
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as i64);
        }
    }

    #[test]
    fn unsafe_slice_combine_into() {
        let mut v = vec![10i64; 4];
        let s = UnsafeSlice::new(&mut v);
        unsafe {
            s.combine_into(2, 5);
            assert_eq!(s.read(2), 15);
        }
        let _ = s;
        assert_eq!(v, vec![10, 10, 15, 10]);
    }
}
