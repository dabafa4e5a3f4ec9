//! # SmartApps — an application-centric approach to high performance
//! computing, in Rust
//!
//! A reproduction of *"SmartApps, an Application Centric Approach to High
//! Performance Computing: Compiler-Assisted Software and Hardware Support
//! for Reduction Operations"* (Dang, Garzarán, Prvulovic, Zhang, Jula, Yu,
//! Amato, Rauchwerger, Torrellas — IPPS/IPDPS 2002).
//!
//! This facade crate re-exports the workspace's five libraries:
//!
//! * [`core`] (`smartapps-core`) — the adaptive runtime: reduction
//!   recognition, multi-version dispatch, the performance ToolBox and the
//!   monitor/adapt feedback loop;
//! * [`reductions`] (`smartapps-reductions`) — the parallel reduction
//!   algorithm library (`rep`, `ll`, `sel`, `lw`, `hash`), the run-time
//!   inspector and the decision model (Section 4 / Figure 3);
//! * [`specpar`] (`smartapps-specpar`) — speculative parallelization: the
//!   LRPD and Recursive LRPD tests, wavefront inspector/executor,
//!   WHILE-loop parallelization and feedback-guided blocked scheduling
//!   (Section 3);
//! * [`sim`] (`smartapps-sim`) — the execution-driven CC-NUMA simulator
//!   with the PCLR hardware reduction extension (Sections 5–6, Tables 1–2,
//!   Figures 6–7);
//! * [`workloads`] (`smartapps-workloads`) — generators reproducing the
//!   paper's application reference patterns and their characterization
//!   measures (CH, CHD, CHR, CON, MO, SP, DIM).
//!
//! ## Quickstart
//!
//! ```
//! use smartapps::prelude::*;
//!
//! // An irregular histogram-style reduction over a mesh edge list.
//! let pattern = smartapps::workloads::apps::irreg_mesh(10_000, 40_000, 42);
//!
//! // Let the SmartApp runtime characterize it and pick the best scheme.
//! let mut smart = AdaptiveReduction::new(0, 4, true);
//! let (forces, log) = smart.execute(&pattern, &|_i, r| contribution(r));
//!
//! assert_eq!(forces.len(), 10_000);
//! println!("runtime chose {} ({} refs)", log.scheme, pattern.num_references());
//! ```
//!
//! ## Runtime service
//!
//! The library calls above spawn threads per invocation and forget
//! everything at process exit.  [`runtime`] (`smartapps-runtime`) is the
//! continuously-running service shape of the same feedback loop:
//!
//! * a **persistent worker pool** keeps SPMD workers parked between
//!   invocations, so repeated reductions pay zero thread-creation cost;
//! * a **sharded job queue** accepts [`Runtime::submit`] /
//!   `submit_batch` traffic from many client threads and coalesces jobs
//!   with the same pattern signature into one scheme decision;
//! * a **cross-run profile store** persists signature → scheme +
//!   calibration to disk at shutdown, so a restarted service skips full
//!   inspection for workloads it has already learned;
//! * a **completion-driven frontend** (`Runtime::submit_tagged` + a
//!   shared `CompletionSet`) multiplexes thousands of in-flight jobs
//!   onto one consumer thread, which [`server`] (`smartapps-server`)
//!   turns into a TCP network service: an acceptor plus a fixed reactor
//!   set serve any number of clients — no thread per client anywhere
//!   (see `docs/SERVER.md`; `smartbench` in `benchmark/` measures it).
//!
//! ```
//! use smartapps::prelude::*;
//! use std::sync::Arc;
//!
//! let rt = Runtime::with_workers(4);
//! let pattern = Arc::new(smartapps::workloads::apps::irreg_mesh(10_000, 40_000, 42));
//! let first = rt.run(JobSpec::f64(pattern.clone(), |_i, r| contribution(r)));
//! let again = rt.run(JobSpec::f64(pattern, |_i, r| contribution(r)));
//! assert!(again.profile_hit); // decision reused, no second inspection
//! assert_eq!(first.output.len(), 10_000);
//! ```
//!
//! [`Runtime::submit`]: smartapps_runtime::Runtime::submit

pub use smartapps_core as core;
pub use smartapps_reductions as reductions;
pub use smartapps_runtime as runtime;
pub use smartapps_server as server;
pub use smartapps_sim as sim;
pub use smartapps_specpar as specpar;
pub use smartapps_workloads as workloads;

/// Common imports for applications built on SmartApps.
pub mod prelude {
    pub use smartapps_core::adaptive::{AdaptiveReduction, InvocationLog};
    pub use smartapps_core::multiversion::{CompiledReduction, Inputs};
    pub use smartapps_core::toolbox::Adaptation;
    pub use smartapps_reductions::{
        rank_schemes, run_scheme, run_scheme_on, DecisionModel, Inspector, ModelInput, Scheme,
        SpawnExecutor, SpmdExecutor,
    };
    pub use smartapps_runtime::{
        JobHandle, JobResult, JobSpec, ProfileStore, Runtime, RuntimeConfig, WorkerPool,
    };
    pub use smartapps_specpar::{lrpd_execute, rlrpd_execute, FgbsScheduler, SpecAccess};
    pub use smartapps_workloads::{
        contribution, AccessPattern, Distribution, PatternChars, PatternSpec,
    };
}
