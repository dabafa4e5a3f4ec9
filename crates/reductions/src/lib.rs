//! # smartapps-reductions — adaptive parallel reduction library
//!
//! The software half of the SmartApps paper (Section 4): a library of
//! parallel reduction algorithms, a run-time inspector that characterizes
//! a loop's memory reference pattern (CH, CHD, CHR, CON, MO, SP, DIM), and
//! a decision model that selects the algorithm matching the pattern —
//! reproducing the adaptive scheme validated by Figure 3.
//!
//! ## The library
//!
//! Five software schemes — [`Scheme::Rep`], [`Scheme::Ll`],
//! [`Scheme::Sel`], [`Scheme::Lw`], [`Scheme::Hash`] — plus the
//! sequential baseline, each written once and run by [`run_scheme`] for a
//! single body and by [`run_fused`] for K bodies over one traversal.  The
//! scheme table, the oracle contract and the fused layout are described
//! in [`algorithms`].
//!
//! ## Example
//!
//! ```
//! use smartapps_reductions::{DecisionModel, Inspector, ModelInput, run_scheme};
//! use smartapps_workloads::{PatternSpec, Distribution, contribution};
//!
//! let pat = PatternSpec {
//!     num_elements: 4096,
//!     iterations: 20_000,
//!     refs_per_iter: 2,
//!     coverage: 1.0,
//!     dist: Distribution::Uniform,
//!     seed: 7,
//! }
//! .generate();
//!
//! // Inspect, decide, execute.
//! let insp = Inspector::analyze(&pat, 4);
//! let model = DecisionModel::default();
//! let choice = model.decide(&ModelInput::from_inspection(&insp, false)).best();
//! let w = run_scheme(choice, &pat, &|_i, r| contribution(r), 4, Some(&insp));
//! assert_eq!(w.len(), 4096);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod exec;
pub mod inspect;
pub mod model;
pub mod scheme;
pub mod simd;
pub mod simplify;
pub mod spmd;

pub use algorithms::FusedBody;
pub use exec::{
    rank_schemes, run_fused, run_fused_on, run_fused_with, run_scheme, run_scheme_on,
    run_scheme_with, time_scheme, Timing,
};
pub use inspect::{Analyses, ConflictInfo, Inspection, Inspector, LocalIndex};
pub use model::{DecisionModel, ModelInput, ModelParams, Prediction};
pub use scheme::{RedElem, Scheme, UnsafeSlice};
pub use simd::{simd_feasible, simd_reduce, simd_reduce_on, SimdElem, SIMD_LANES};
pub use simplify::{
    probe_uniform, recognize, run_scan, run_scan_group, CostGuard, Reject, ScanElem, ScanMatch,
    ScanShape,
};
pub use spmd::{SpawnExecutor, SpmdExecutor};
