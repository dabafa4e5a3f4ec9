//! # smartapps-runtime — the persistent reduction service
//!
//! The paper's SmartApps vision is a *continuously running* adaptive
//! system: inspect → decide → execute → monitor → adapt (Figure 1).  The
//! library crates implement each stage; this crate makes them a service —
//! the long-lived process shape that amortizes setup and analysis across
//! many invocations, which is where the real speedup of run-time
//! optimization lives.
//!
//! Five pieces, each its own module:
//!
//! * [`pool`] — a **persistent worker pool** ([`WorkerPool`]): fixed
//!   threads, parked on condvars when idle, implementing the
//!   `SpmdExecutor` seam from `smartapps-reductions`.  Reduction
//!   invocations pay zero thread-creation cost on the hot path.
//! * [`runtime`] + [`job`] (+ the crate-private `dispatch` module, the
//!   batch pipeline each dispatcher runs and the single exit —
//!   `dispatch::finish` — every job leaves by) — a **sharded job queue
//!   served by N shard-affine dispatchers**: [`Runtime::submit`] /
//!   [`Runtime::submit_batch`] accept jobs from any number of client
//!   threads and shard them by [`PatternSignature`]; each dispatcher owns
//!   a subset of shards and steals batches from overloaded peers when its
//!   own drain, so no single consumer caps the job rate.  Same-class jobs
//!   coalesce into one dispatch batch sharing a single scheme decision,
//!   and same-*pattern* members of a batch execute as one **fused sweep**
//!   — one traversal producing every output.  [`JobHandle::wait`] blocks
//!   for the result.
//! * [`profile`] — a **cross-run profile store** ([`ProfileStore`]):
//!   signature → best known scheme + calibration, saved to a text file at
//!   shutdown and loaded at startup, so a restarted service skips full
//!   inspection for workload classes it has seen before.
//! * [`backend`] — the **execution-backend seam** ([`Backend`]): the
//!   dispatcher decides a scheme, a backend executes it and reports a
//!   cost sample.  [`SoftwareBackend`] runs the reduction library on the
//!   pool; [`PclrBackend`] lowers the job to PCLR instruction traces and
//!   runs the paper's simulated hardware (`smartapps-sim`), making the
//!   hardware scheme a first-class competitor in the same profile store.
//! * [`completion`] — the **completion-driven frontend**
//!   ([`CompletionSet`]): [`Runtime::submit_tagged`] routes finished
//!   results onto a bounded MPSC completion queue instead of per-handle
//!   condvars, so one consumer thread multiplexes thousands of in-flight
//!   jobs — the seam `smartapps-server` turns into a network service.
//! * [`error`] — the **structured job failure channel** ([`JobError`]):
//!   every failed job reports a typed [`JobErrorKind`] (body panic,
//!   rejected submission, shutdown race, quarantined class) next to its
//!   message.
//!
//! ## Example
//!
//! ```
//! use smartapps_runtime::{JobSpec, Runtime};
//! use smartapps_workloads::{contribution, Distribution, PatternSpec};
//! use std::sync::Arc;
//!
//! let rt = Runtime::with_workers(4);
//! let pat = Arc::new(
//!     PatternSpec {
//!         num_elements: 2048,
//!         iterations: 10_000,
//!         refs_per_iter: 2,
//!         coverage: 1.0,
//!         dist: Distribution::Uniform,
//!         seed: 5,
//!     }
//!     .generate(),
//! );
//! // First job of a class pays the inspection ...
//! let first = rt.run(JobSpec::f64(pat.clone(), |_i, r| contribution(r)));
//! assert!(!first.profile_hit);
//! // ... repeats are served from the profile store.
//! let again = rt.run(JobSpec::f64(pat, |_i, r| contribution(r)));
//! assert!(again.profile_hit);
//! assert_eq!(again.scheme, first.scheme);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod completion;
pub(crate) mod dispatch;
pub mod error;
pub mod intern;
pub mod job;
pub mod pool;
pub mod profile;
pub(crate) mod queue;
pub(crate) mod registry;
pub mod runtime;
pub mod stats;
pub mod telemetry;

pub use backend::{
    Backend, ExecOutcome, ExecRequest, PclrBackend, PclrConfig, SimdBackend, SoftwareBackend,
};
pub use completion::{Completion, CompletionSet};
pub use error::{JobError, JobErrorKind};
pub use intern::{InternError, Interned, PatternInterner};
pub use job::{Builtin, JobBody, JobHandle, JobOutput, JobResult, JobSpec, PatternSignature};
pub use pool::WorkerPool;
pub use profile::{ProfileEntry, ProfileStore};
pub use runtime::{CalibrationConfig, Runtime, RuntimeConfig};
pub use stats::{RuntimeStats, StatsSnapshot};
pub use telemetry::{RuntimeTelemetry, SlowJob, Stage};
