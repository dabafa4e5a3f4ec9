//! Job descriptions, pattern signatures, and the blocking handles clients
//! wait on.
//!
//! A [`JobSpec`] is one reduction invocation: an access pattern plus a
//! contribution body (f64 or i64 flavored).  Submission assigns it a
//! [`PatternSignature`] — the hashed characterization-bucket key that the
//! sharded queue coalesces on and the profile store persists under — and
//! returns a [`JobHandle`] whose [`wait`](JobHandle::wait) blocks until
//! the dispatcher fills in the [`JobResult`].

use crate::error::JobError;
use smartapps_core::toolbox::DomainKey;
use smartapps_reductions::Scheme;
use smartapps_workloads::pattern::AccessPattern;
use smartapps_workloads::{contribution, contribution_i64, PatternChars};
use std::borrow::Cow;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Shared f64 contribution body.
pub type F64Body = Arc<dyn Fn(usize, usize) -> f64 + Send + Sync>;
/// Shared i64 contribution body.
pub type I64Body = Arc<dyn Fn(usize, usize) -> i64 + Send + Sync>;

/// The contribution function of a job, in one of the two element flavors
/// the service executes.
#[derive(Clone)]
pub enum JobBody {
    /// Floating-point reduction (tolerance-equal across schemes).
    F64(F64Body),
    /// Integer reduction (bit-equal across schemes).
    I64(I64Body),
    /// One of the service's built-in bodies.  A single-job kernel matches
    /// it once per job and runs it as a concrete closure it can inline;
    /// the fused, scan and PCLR paths call a shared closure made from the
    /// same value.
    Builtin(Builtin),
}

impl JobBody {
    /// Whether the body produces f64 outputs.
    pub(crate) fn is_f64(&self) -> bool {
        match self {
            JobBody::F64(_) => true,
            JobBody::I64(_) => false,
            JobBody::Builtin(b) => b.is_f64(),
        }
    }

    /// The body as a shared closure, for the paths that call bodies
    /// through `dyn`: a closure body as it is, a built-in as the closure
    /// made from it.
    pub(crate) fn dynamic(&self) -> Cow<'_, JobBody> {
        struct Dyn;
        impl Visit for Dyn {
            type Out = JobBody;
            fn f64(
                self,
                f: impl Fn(usize, usize) -> f64 + Copy + Send + Sync + 'static,
            ) -> JobBody {
                JobBody::F64(Arc::new(f))
            }
            fn i64(
                self,
                f: impl Fn(usize, usize) -> i64 + Copy + Send + Sync + 'static,
            ) -> JobBody {
                JobBody::I64(Arc::new(f))
            }
        }
        match self {
            JobBody::Builtin(b) => Cow::Owned(b.visit(Dyn)),
            body => Cow::Borrowed(body),
        }
    }
}

/// The service's built-in contribution bodies, named the way the wire
/// protocol names them.  `r` is the reference slot and `i` the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `contribution_i64(r)` (wire `sum`).
    Sum,
    /// `contribution_i64(r) · k`, wrapping (wire `mul:k`).
    Mul(i64),
    /// `contribution(r)` (wire `fsum`).
    FSum,
    /// `contribution_i64(i)`, iteration-uniform (wire `usum`).
    Usum,
    /// `contribution(i)`, iteration-uniform (wire `fusum`).
    Fusum,
}

impl Builtin {
    /// Whether the body produces f64 outputs.
    pub fn is_f64(self) -> bool {
        matches!(self, Builtin::FSum | Builtin::Fusum)
    }

    /// Whether the body depends on the iteration only (see
    /// [`JobSpec::uniform_body`]).
    pub fn is_uniform(self) -> bool {
        matches!(self, Builtin::Usum | Builtin::Fusum)
    }

    /// Hand `v` this body as a concrete closure.  This is the one place
    /// each built-in is spelled, so every consumer runs the same function.
    #[inline(always)]
    pub(crate) fn visit<V: Visit>(self, v: V) -> V::Out {
        match self {
            Builtin::Sum => v.i64(|_i, r| contribution_i64(r)),
            Builtin::Mul(k) => v.i64(move |_i, r| contribution_i64(r).wrapping_mul(k)),
            Builtin::FSum => v.f64(|_i, r| contribution(r)),
            Builtin::Usum => v.i64(|i, _r| contribution_i64(i)),
            Builtin::Fusum => v.f64(|i, _r| contribution(i)),
        }
    }
}

/// What [`Builtin::visit`] hands a built-in's closure to.
pub(crate) trait Visit {
    type Out;
    fn f64(self, f: impl Fn(usize, usize) -> f64 + Copy + Send + Sync + 'static) -> Self::Out;
    fn i64(self, f: impl Fn(usize, usize) -> i64 + Copy + Send + Sync + 'static) -> Self::Out;
}

/// The result array of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Output of an [`JobBody::F64`] job.
    F64(Vec<f64>),
    /// Output of an [`JobBody::I64`] job.
    I64(Vec<i64>),
}

impl JobOutput {
    /// The f64 array, if this was an f64 job.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            JobOutput::F64(v) => Some(v),
            JobOutput::I64(_) => None,
        }
    }

    /// The i64 array, if this was an i64 job.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            JobOutput::I64(v) => Some(v),
            JobOutput::F64(_) => None,
        }
    }

    /// The f64 array, moved out, if this was an f64 job.
    pub fn into_f64(self) -> Option<Vec<f64>> {
        match self {
            JobOutput::F64(v) => Some(v),
            JobOutput::I64(_) => None,
        }
    }

    /// The i64 array, moved out, if this was an i64 job.
    pub fn into_i64(self) -> Option<Vec<i64>> {
        match self {
            JobOutput::I64(v) => Some(v),
            JobOutput::F64(_) => None,
        }
    }

    /// Number of reduction elements.
    pub fn len(&self) -> usize {
        match self {
            JobOutput::F64(v) => v.len(),
            JobOutput::I64(v) => v.len(),
        }
    }

    /// Whether the result array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One reduction invocation submitted to the runtime.
#[derive(Clone)]
pub struct JobSpec {
    /// The access pattern to reduce over (shared so coalesced repeats of
    /// the same pattern pay one allocation).
    pub pattern: Arc<AccessPattern>,
    /// The contribution body.
    pub body: JobBody,
    /// SPMD width override; `None` uses the pool width.
    pub threads: Option<usize>,
    /// Whether owner-computes (`lw`) is legal for this loop.
    pub lw_feasible: bool,
    /// Caller-declared legality flag for the simplification pass: the
    /// body's contribution depends only on the *iteration*, never on the
    /// reference slot within it (`body(i, r) == body(i, r')` for all
    /// slots of iteration `i`).  Like
    /// [`lw_feasible`](JobSpec::lw_feasible) this is a declaration the
    /// runtime cannot prove for an opaque closure — but it spot-checks it
    /// ([`probe_uniform`](smartapps_reductions::probe_uniform)) and a
    /// refuted declaration merely loses the rewrite, never the answer.
    pub uniform_body: bool,
}

impl JobSpec {
    /// An f64 job with default threading.
    pub fn f64(
        pattern: Arc<AccessPattern>,
        body: impl Fn(usize, usize) -> f64 + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            pattern,
            body: JobBody::F64(Arc::new(body)),
            threads: None,
            lw_feasible: false,
            uniform_body: false,
        }
    }

    /// An i64 job with default threading.
    pub fn i64(
        pattern: Arc<AccessPattern>,
        body: impl Fn(usize, usize) -> i64 + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            pattern,
            body: JobBody::I64(Arc::new(body)),
            threads: None,
            lw_feasible: false,
            uniform_body: false,
        }
    }

    /// A job running a built-in body with default threading; the
    /// iteration-uniform built-ins come declared
    /// [`uniform_body`](JobSpec::uniform_body).
    pub fn builtin(pattern: Arc<AccessPattern>, body: Builtin) -> Self {
        JobSpec {
            pattern,
            body: JobBody::Builtin(body),
            threads: None,
            lw_feasible: false,
            uniform_body: body.is_uniform(),
        }
    }

    /// Set an explicit SPMD width.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Mark owner-computes as legal.
    pub fn with_lw_feasible(mut self, feasible: bool) -> Self {
        self.lw_feasible = feasible;
        self
    }

    /// Declare the body iteration-uniform, making the job eligible for
    /// the simplification pass (see
    /// [`uniform_body`](JobSpec::uniform_body)).
    pub fn with_uniform_body(mut self, uniform: bool) -> Self {
        self.uniform_body = uniform;
        self
    }
}

/// The hashed "functioning domain" key of a pattern: characterization
/// measures of a sampled prefix, bucketed the way the ToolBox's
/// [`DomainKey`] buckets them, folded through FNV-1a.  Jobs with equal
/// signatures share queue shards, scheme decisions, and profile entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternSignature(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a over a few words.  Unlike the uploaded-pattern
/// interner's content hash, which lives one process and may change
/// freely, this one must never change: profile stores persist its
/// values as `<sig:016x>`, and a different hash would orphan every store
/// on disk.  It hashes seven words, so its speed does not matter.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

impl PatternSignature {
    /// Compute the signature of a pattern by characterizing its first
    /// `sample_iters` iterations (the same cheap sampling the adaptive
    /// loop's drift check uses) and hashing the domain buckets together
    /// with the SPMD width the job will run at — schemes and calibrations
    /// measured at different widths must never share a profile entry.
    ///
    /// This copies the sampled prefix
    /// ([`truncate_iterations`](AccessPattern::truncate_iterations): two
    /// `to_vec`s), numbers its touched set with
    /// [`LocalIndex::of`](smartapps_workloads::LocalIndex::of) (a
    /// zero-initialized slot map of `num_elements` entries) and
    /// characterizes it in one walk of the slot stream
    /// ([`PatternChars::derive`], no sort), so the runtime calls it once
    /// per pattern allocation and width and memoizes the result; the
    /// memoized value is always the one this returns.
    pub fn of(pat: &AccessPattern, sample_iters: usize, threads: usize) -> Self {
        let chars = PatternChars::measure(&pat.truncate_iterations(sample_iters));
        let key = DomainKey::of(&chars);
        let log2b = |x: usize| -> u64 {
            if x <= 1 {
                0
            } else {
                64 - (x as u64).leading_zeros() as u64
            }
        };
        PatternSignature(fnv1a([
            key.dim_bucket as u64,
            key.reuse_bucket as u64,
            key.sparsity_decile as u64,
            key.mo as u64,
            log2b(pat.num_elements),
            log2b(pat.num_iterations()),
            threads as u64,
        ]))
    }
}

/// What the dispatcher reports back for one finished job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The reduced array.
    pub output: JobOutput,
    /// Scheme the dispatcher executed.
    pub scheme: Scheme,
    /// The execution's cost sample (excludes queueing): wall time of the
    /// scheme execution on the software backend, *simulated machine
    /// time* when the job was offloaded to the PCLR backend (see
    /// [`sim_cycles`](JobResult::sim_cycles)).  For a job that ran in a
    /// fused sweep this is the whole sweep's wall time — the per-job
    /// amortized cost is `elapsed / (fused_with + 1)`.
    pub elapsed: Duration,
    /// Simulated cycles, when the job ran on the PCLR hardware backend;
    /// `None` for software executions.
    pub sim_cycles: Option<u64>,
    /// Whether the scheme came from the profile store (no inspection paid).
    pub profile_hit: bool,
    /// How many other jobs shared this job's dispatch batch.
    pub batched_with: usize,
    /// How many other jobs shared this job's *fused execution sweep*
    /// (one traversal, multiple outputs); `0` when the job executed on
    /// its own traversal.  Always `<= batched_with`.
    pub fused_with: usize,
    /// `Some` when the job failed — see [`JobError`] for the failure
    /// categories.  The output is then empty and nothing was recorded in
    /// the profile store.
    pub error: Option<JobError>,
}

impl JobResult {
    /// The error message, if the job failed (convenience accessor).
    pub fn error_message(&self) -> Option<&str> {
        self.error.as_ref().map(JobError::message)
    }
}

pub(crate) struct JobState {
    slot: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl JobState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(JobState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn complete(&self, result: JobResult) {
        let mut g = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        debug_assert!(g.is_none(), "job completed twice");
        *g = Some(result);
        self.cv.notify_all();
    }
}

/// A blocking handle to a submitted job.
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
    pub(crate) signature: PatternSignature,
}

impl JobHandle {
    /// The signature the job was queued and profiled under.
    pub fn signature(&self) -> PatternSignature {
        self.signature
    }

    /// Block until the dispatcher finishes the job.
    pub fn wait(self) -> JobResult {
        let mut g = self.state.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.state.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Block until the job finishes or `timeout` elapses.  `Some` consumes
    /// the result (unlike [`try_wait`](JobHandle::try_wait), which leaves
    /// it in place); `None` means the job is still running — the handle
    /// stays valid and a later `wait`/`try_wait`/`wait_timeout` will
    /// observe the result.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.state.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = g.take() {
                return Some(r);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            g = self
                .state
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Non-blocking poll; `Some` once the job has finished, **without**
    /// consuming the slot.
    ///
    /// Polling used to hand the result over exactly once, which made the
    /// natural poll-then-[`wait`](JobHandle::wait) pattern deadlock: the
    /// first `Some` emptied the slot, so the follow-up `wait` blocked
    /// forever on a job that was already done.  Now every ready poll
    /// returns a clone of the [`JobResult`] (output array included) and a
    /// later `wait`/`wait_timeout` still observes it.  When only
    /// completion matters, [`peek_done`](JobHandle::peek_done) avoids the
    /// clone.
    pub fn try_wait(&self) -> Option<JobResult> {
        self.state
            .slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Whether the job has finished and its result is still waiting in
    /// the slot — a clone-free probe, cheaper than
    /// [`try_wait`](JobHandle::try_wait) when the result itself isn't
    /// needed yet.  After the result has been consumed (by `wait` or
    /// `wait_timeout`) this returns `false` again.
    pub fn peek_done(&self) -> bool {
        self.state
            .slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartapps_workloads::{Distribution, PatternSpec};

    fn pat(seed: u64, n: usize) -> AccessPattern {
        PatternSpec {
            num_elements: n,
            iterations: 4000,
            refs_per_iter: 2,
            coverage: 1.0,
            dist: Distribution::Uniform,
            seed,
        }
        .generate()
    }

    #[test]
    fn equal_class_patterns_share_a_signature() {
        // Same spec, different seed: same buckets, same signature.
        let a = PatternSignature::of(&pat(1, 4096), 2048, 4);
        let b = PatternSignature::of(&pat(2, 4096), 2048, 4);
        assert_eq!(a, b);
        // A 64x larger array is a different domain.
        let c = PatternSignature::of(&pat(1, 262_144), 2048, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn signature_values_are_pinned() {
        // Profile stores persist these values: a change here orphans
        // every store on disk.
        let iters: Vec<Vec<u32>> = (0..4000u32)
            .map(|i| vec![i * 7 % 4096, (i * 13 + 5) % 4096])
            .collect();
        let p = AccessPattern::from_iters(4096, &iters);
        let got: Vec<u64> = [1, 4]
            .map(|threads| PatternSignature::of(&p, 2048, threads).0)
            .to_vec();
        assert_eq!(got, [0xeef6_f992_c743_9bec, 0x9206_a477_a675_bd89]);
    }

    #[test]
    fn handle_blocks_until_completion() {
        let state = JobState::new();
        let handle = JobHandle {
            state: state.clone(),
            signature: PatternSignature(7),
        };
        let t = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(20));
        state.complete(JobResult {
            output: JobOutput::I64(vec![3, 4]),
            scheme: Scheme::Rep,
            elapsed: Duration::from_millis(1),
            sim_cycles: None,
            profile_hit: false,
            batched_with: 0,
            fused_with: 0,
            error: None,
        });
        let r = t.join().unwrap();
        assert_eq!(r.output.as_i64(), Some(&[3i64, 4][..]));
        assert_eq!(r.output.len(), 2);
        assert!(!r.output.is_empty());
    }

    #[test]
    fn try_wait_polls() {
        let state = JobState::new();
        let handle = JobHandle {
            state: state.clone(),
            signature: PatternSignature(7),
        };
        assert!(handle.try_wait().is_none());
        assert!(!handle.peek_done());
        state.complete(JobResult {
            output: JobOutput::F64(vec![1.0]),
            scheme: Scheme::Hash,
            elapsed: Duration::ZERO,
            sim_cycles: None,
            profile_hit: true,
            batched_with: 3,
            fused_with: 0,
            error: None,
        });
        assert!(handle.peek_done(), "peek must see the result");
        assert!(handle.peek_done(), "peek must not consume it");
        let r = handle.try_wait().unwrap();
        assert!(r.profile_hit);
        assert_eq!(r.batched_with, 3);
        let again = handle.try_wait().expect("polling must not consume");
        assert_eq!(again.batched_with, 3);
        assert!(handle.peek_done(), "result still waiting after polls");
    }

    #[test]
    fn poll_then_wait_observes_the_same_result() {
        // Regression: `try_wait` used to take() the slot, so a client
        // that polled a ready handle and then called `wait` blocked
        // forever.  Now the poll clones and the wait still completes.
        let state = JobState::new();
        let handle = JobHandle {
            state: state.clone(),
            signature: PatternSignature(9),
        };
        state.complete(JobResult {
            output: JobOutput::I64(vec![11, 22]),
            scheme: Scheme::Simd,
            elapsed: Duration::from_micros(5),
            sim_cycles: None,
            profile_hit: false,
            batched_with: 0,
            fused_with: 0,
            error: None,
        });
        let polled = handle.try_wait().expect("ready");
        assert_eq!(polled.output.as_i64(), Some(&[11i64, 22][..]));
        let waited = handle.wait();
        assert_eq!(waited.output.as_i64(), Some(&[11i64, 22][..]));
        assert_eq!(waited.scheme, Scheme::Simd);
    }

    #[test]
    fn wait_timeout_times_out_then_delivers() {
        let state = JobState::new();
        let handle = JobHandle {
            state: state.clone(),
            signature: PatternSignature(7),
        };
        let t0 = std::time::Instant::now();
        assert!(handle.wait_timeout(Duration::from_millis(25)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        let t = std::thread::spawn(move || handle.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(15));
        state.complete(JobResult {
            output: JobOutput::I64(vec![5]),
            scheme: Scheme::Rep,
            elapsed: Duration::ZERO,
            sim_cycles: None,
            profile_hit: false,
            batched_with: 0,
            fused_with: 0,
            error: None,
        });
        let r = t.join().unwrap().expect("completion must end the wait");
        assert_eq!(r.output.as_i64(), Some(&[5i64][..]));
    }
}
