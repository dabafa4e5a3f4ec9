//! The LRPD test: speculative run-time parallelization of loops with
//! privatization and reduction validation (Rauchwerger & Padua).
//!
//! The loop is executed speculatively in parallel: each processor runs a
//! block of iterations against a *private copy-in view* of the array under
//! test, marking shadow state.  Afterwards a cross-processor analysis
//! checks that no flow dependence crossed a block boundary:
//!
//! * an **exposed read** (read not covered by an earlier write in the same
//!   block) of an element that an earlier block wrote or reduced is a flow
//!   dependence — speculation failed;
//! * plain writes privatize (last value wins, committed in block order);
//! * reduction-shaped updates (`x += e`) commute and merge across blocks.
//!
//! On success the private results are committed; on failure the loop
//! re-executes sequentially (the speculative run never modified the shared
//! array, so no rollback of data is needed).

use crate::shadow::{ReadView, ShadowArray};

/// The access interface the instrumented loop body uses.  The compiler
/// stage of SmartApps generates exactly these calls around each access to
/// the array under test.
pub trait SpecAccess {
    /// Read element `x`.
    fn read(&mut self, x: usize) -> f64;
    /// Write element `x`.
    fn write(&mut self, x: usize, v: f64);
    /// Reduction update `x += v`.
    fn reduce(&mut self, x: usize, v: f64);
}

/// Speculative context: reads fall back to the frozen base array.
struct SpecCtx<'a> {
    shadow: &'a mut ShadowArray,
    base: &'a [f64],
    iter: u32,
}

impl SpecAccess for SpecCtx<'_> {
    #[inline]
    fn read(&mut self, x: usize) -> f64 {
        match self.shadow.read(x, self.iter) {
            ReadView::Covered(v) => v,
            ReadView::Partial(p) => self.base[x] + p,
            ReadView::Exposed => self.base[x],
        }
    }
    #[inline]
    fn write(&mut self, x: usize, v: f64) {
        self.shadow.write(x, self.iter, v);
    }
    #[inline]
    fn reduce(&mut self, x: usize, v: f64) {
        self.shadow.reduce(x, self.iter, v);
    }
}

/// Sequential context: operates directly on the array.
struct SeqCtx<'a> {
    data: &'a mut [f64],
}

impl SpecAccess for SeqCtx<'_> {
    #[inline]
    fn read(&mut self, x: usize) -> f64 {
        self.data[x]
    }
    #[inline]
    fn write(&mut self, x: usize, v: f64) {
        self.data[x] = v;
    }
    #[inline]
    fn reduce(&mut self, x: usize, v: f64) {
        self.data[x] += v;
    }
}

/// Execute `range` sequentially on `data`.
pub fn run_sequential<F>(data: &mut [f64], range: std::ops::Range<usize>, body: &F)
where
    F: Fn(usize, &mut dyn SpecAccess),
{
    let mut ctx = SeqCtx { data };
    for i in range {
        body(i, &mut ctx);
    }
}

/// Reusable speculative execution state (shadow arrays reset cheaply
/// between windows via epochs).
pub struct Speculator {
    shadows: Vec<ShadowArray>,
}

/// A detected cross-block flow dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependence {
    /// Element carrying the dependence.
    pub element: u32,
    /// Global iteration of the sink (the exposed read that came too late).
    pub sink_iter: u32,
    /// Index of the block containing the sink.
    pub sink_chunk: usize,
}

/// Result of one speculative window.
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// The earliest dependence found, if any (by sink iteration).
    pub earliest: Option<Dependence>,
    /// Number of elements carrying cross-block flow dependences.
    pub conflicts: usize,
}

/// Report of a full LRPD execution.
#[derive(Debug, Clone)]
pub struct LrpdReport {
    /// Whether the speculative parallel execution committed.
    pub succeeded: bool,
    /// Dependent elements found (zero on success).
    pub conflicts: usize,
    /// Iterations executed speculatively (once, whether or not committed).
    pub speculative_iterations: usize,
}

impl Speculator {
    /// Create a speculator for `threads` processors over arrays of `n`
    /// elements.
    pub fn new(n: usize, threads: usize) -> Self {
        assert!(threads >= 1);
        Speculator {
            shadows: (0..threads).map(|_| ShadowArray::new(n)).collect(),
        }
    }

    /// Number of processors.
    pub fn threads(&self) -> usize {
        self.shadows.len()
    }

    /// Run one speculative window over `range`, block-scheduled.  `data`
    /// is only read.  Returns the chunk boundaries used.
    pub fn run_window<F>(
        &mut self,
        data: &[f64],
        range: std::ops::Range<usize>,
        body: &F,
    ) -> Vec<std::ops::Range<usize>>
    where
        F: Fn(usize, &mut dyn SpecAccess) + Sync,
    {
        let threads = self.shadows.len();
        let total = range.len();
        let chunks: Vec<std::ops::Range<usize>> = (0..threads)
            .map(|t| {
                let lo = range.start + total * t / threads;
                let hi = range.start + total * (t + 1) / threads;
                lo..hi
            })
            .collect();
        std::thread::scope(|s| {
            for (shadow, chunk) in self.shadows.iter_mut().zip(chunks.iter()) {
                let chunk = chunk.clone();
                s.spawn(move || {
                    shadow.reset();
                    for i in chunk {
                        let mut ctx = SpecCtx {
                            shadow,
                            base: data,
                            iter: i as u32,
                        };
                        body(i, &mut ctx);
                    }
                });
            }
        });
        chunks
    }

    /// Cross-processor analysis: find flow dependences between blocks.
    ///
    /// A dependence exists on element `x` when a block performs an exposed
    /// read of `x` and any *earlier* block wrote or reduced `x` — the
    /// speculative read returned the stale base value.
    pub fn analyze(&self, chunks: &[std::ops::Range<usize>]) -> WindowOutcome {
        let threads = self.shadows.len();
        let mut earliest: Option<Dependence> = None;
        let mut conflicts = 0usize;
        for b in 1..threads {
            for &xu in self.shadows[b].touched() {
                let x = xu as usize;
                let mb = self.shadows[b].marks(x);
                if !mb.exposed_read {
                    continue;
                }
                let produced_earlier = (0..b).any(|a| {
                    let ma = self.shadows[a].marks(x);
                    ma.written || ma.reduced
                });
                if produced_earlier {
                    conflicts += 1;
                    let sink_iter = self.shadows[b].first_access(x).expect("touched element");
                    let dep = Dependence {
                        element: xu,
                        sink_iter,
                        sink_chunk: b,
                    };
                    if earliest.is_none_or(|e| sink_iter < e.sink_iter) {
                        earliest = Some(dep);
                    }
                }
            }
        }
        let _ = chunks;
        WindowOutcome {
            earliest,
            conflicts,
        }
    }

    /// Commit blocks `0..upto` into `data`, in block order (last value for
    /// writes, merge for reduction partials).
    pub fn commit(&self, data: &mut [f64], upto: usize) {
        for shadow in &self.shadows[..upto] {
            for &xu in shadow.touched() {
                let x = xu as usize;
                let m = shadow.marks(x);
                if m.written {
                    data[x] = shadow.value(x);
                } else if m.reduced {
                    data[x] += shadow.value(x);
                }
            }
        }
    }
}

/// Execute a loop under the (processor-wise) LRPD test with copy-in
/// privatization and reduction validation.  On dependence detection the
/// loop re-executes sequentially.
pub fn lrpd_execute<F>(data: &mut [f64], n_iters: usize, threads: usize, body: &F) -> LrpdReport
where
    F: Fn(usize, &mut dyn SpecAccess) + Sync,
{
    let mut spec = Speculator::new(data.len(), threads);
    let chunks = spec.run_window(data, 0..n_iters, body);
    let outcome = spec.analyze(&chunks);
    match outcome.earliest {
        None => {
            spec.commit(data, threads);
            LrpdReport {
                succeeded: true,
                conflicts: 0,
                speculative_iterations: n_iters,
            }
        }
        Some(_) => {
            run_sequential(data, 0..n_iters, body);
            LrpdReport {
                succeeded: false,
                conflicts: outcome.conflicts,
                speculative_iterations: n_iters,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully parallel loop: disjoint writes.
    #[test]
    fn fully_parallel_loop_commits() {
        let mut data = vec![0.0; 64];
        let mut expect = data.clone();
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            ctx.write(i % 64, i as f64);
        };
        run_sequential(&mut expect, 0..64, &body);
        let r = lrpd_execute(&mut data, 64, 4, &body);
        assert!(r.succeeded);
        assert_eq!(r.conflicts, 0);
        assert_eq!(data, expect);
    }

    /// A reduction loop: every iteration updates shared elements; valid in
    /// parallel because reductions commute.
    #[test]
    fn reduction_loop_commits() {
        let mut data = vec![1.0; 8];
        let mut expect = data.clone();
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            ctx.reduce(i % 8, 1.0);
            ctx.reduce(0, 0.5);
        };
        run_sequential(&mut expect, 0..80, &body);
        let r = lrpd_execute(&mut data, 80, 4, &body);
        assert!(r.succeeded, "reductions must validate");
        for (a, b) in data.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// A loop with a real flow dependence: iteration i reads what i-1
    /// wrote.  Speculation must fail and fall back to sequential, still
    /// producing the sequential answer.
    #[test]
    fn flow_dependence_falls_back_to_sequential() {
        let n = 64;
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            let prev = if i == 0 { 1.0 } else { ctx.read(i - 1) };
            ctx.write(i, prev + 1.0);
        };
        let mut expect = vec![0.0; n];
        run_sequential(&mut expect, 0..n, &body);
        let mut data = vec![0.0; n];
        let r = lrpd_execute(&mut data, n, 4, &body);
        assert!(!r.succeeded);
        assert!(r.conflicts > 0);
        assert_eq!(data, expect, "fallback must be exact");
    }

    /// Privatizable temporaries: every iteration writes then reads its own
    /// scratch element — no exposed reads, fully parallel.
    #[test]
    fn privatization_hides_waw() {
        let n = 100;
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            ctx.write(0, i as f64); // shared scratch, written first
            let t = ctx.read(0); // covered read
            ctx.write(1 + (i % 63), t * 2.0);
        };
        let mut expect = vec![0.0; 64];
        run_sequential(&mut expect, 0..n, &body);
        let mut data = vec![0.0; 64];
        let r = lrpd_execute(&mut data, n, 4, &body);
        assert!(r.succeeded, "privatizable scratch must pass the test");
        assert_eq!(data, expect);
    }

    /// Anti-dependences (read early, written later) are legal under
    /// copy-in speculation.
    #[test]
    fn anti_dependence_is_legal() {
        let n = 40;
        // Iteration i reads element i+1 (written by a later iteration) and
        // writes element i: sequentially each read sees the ORIGINAL value.
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            let v = if i + 1 < 40 { ctx.read(i + 1) } else { 0.0 };
            ctx.write(i, v + 1.0);
        };
        let mut expect: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut data = expect.clone();
        run_sequential(&mut expect, 0..n, &body);
        let r = lrpd_execute(&mut data, n, 4, &body);
        assert!(
            r.succeeded,
            "anti-dependences do not invalidate copy-in speculation"
        );
        assert_eq!(data, expect);
    }

    /// Exposed read of an element reduced by an earlier block fails.
    #[test]
    fn read_of_reduction_variable_fails() {
        let n = 64;
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            if i == 50 {
                let v = ctx.read(3); // reads the accumulating total
                ctx.write(10, v);
            } else {
                ctx.reduce(3, 1.0);
            }
        };
        let mut expect = vec![0.0; 64];
        run_sequential(&mut expect, 0..n, &body);
        let mut data = vec![0.0; 64];
        let r = lrpd_execute(&mut data, n, 4, &body);
        assert!(!r.succeeded);
        assert_eq!(data, expect);
    }

    /// Single-threaded speculation always succeeds (no cross-block pairs).
    #[test]
    fn single_thread_never_conflicts() {
        let body = |i: usize, ctx: &mut dyn SpecAccess| {
            let v = if i == 0 { 0.0 } else { ctx.read(i - 1) };
            ctx.write(i, v + 1.0);
        };
        let mut data = vec![0.0; 32];
        let r = lrpd_execute(&mut data, 32, 1, &body);
        assert!(r.succeeded);
        assert_eq!(data[31], 32.0);
    }
}
