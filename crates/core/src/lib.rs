//! # smartapps-core — the SmartApps adaptive runtime
//!
//! The application-centric runtime of the paper's Section 2: the compiler
//! embeds most run-time services *into* the application together with a
//! performance-optimizing feedback loop, so that the executable's final
//! form "takes shape only at run-time, after all input data has been
//! analyzed".
//!
//! The pieces, mapped to the paper's architecture (Figures 1 and 2):
//!
//! * [`mod@recognize`] — the static-compiler stage: reduction recognition over
//!   a loop IR (what Polaris does for the original system);
//! * [`multiversion`] — the packaged multi-version code: recognized loop +
//!   every library variant behind an adaptive dispatcher, completed at run
//!   time once the input data is known;
//! * [`adaptive`] — the run-time feedback loop for reduction loops:
//!   inspect → decide → execute → monitor → adapt, deciding from and
//!   learning into a [`Calibrator`];
//! * [`toolbox`] — the ToolBox: functioning domains and the one
//!   adaptation policy, [`toolbox::step`], that the runtime's dispatcher
//!   and [`adaptive`] both call (keep, explore, recheck, fuse; a
//!   drift-suspect sample re-decides, a phase change re-characterizes);
//! * [`calibrate`] — the one learner: per-`(Scheme, DomainKey)` EWMA
//!   corrections with confidence weighting that ground the analytic model
//!   in measured cost samples (see `docs/MODEL.md`);
//! * [`provenance`] — decision provenance: [`DecisionRecord`]s carrying
//!   the feature vector, the analytic-vs-corrected candidate cost table,
//!   feasibility masks, and gate verdicts for every ranked decision
//!   (served over the wire as `explain`, `docs/OBSERVABILITY.md`);
//! * [`configurer`] — the Configurer: applies computed system
//!   configurations to the host (thread counts) or to the simulated
//!   machine (PCLR controller flavor, page placement);
//! * [`monitor`] — phase-transition detection.
//!
//! ## Example: a self-optimizing reduction loop
//!
//! ```
//! use smartapps_core::adaptive::AdaptiveReduction;
//! use smartapps_workloads::{PatternSpec, Distribution, contribution};
//!
//! let pat = PatternSpec {
//!     num_elements: 2048,
//!     iterations: 10_000,
//!     refs_per_iter: 2,
//!     coverage: 1.0,
//!     dist: Distribution::Uniform,
//!     seed: 5,
//! }
//! .generate();
//! let mut smart = AdaptiveReduction::new(/*loop_id=*/ 1, /*threads=*/ 2, false);
//! let (w, log) = smart.execute(&pat, &|_i, r| contribution(r));
//! assert_eq!(w.len(), 2048);
//! assert!(log.characterized); // first invocation pays the inspector
//! let (_w, log2) = smart.execute(&pat, &|_i, r| contribution(r));
//! assert!(!log2.characterized); // stable pattern: decision reused
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod calibrate;
pub mod configurer;
pub mod monitor;
pub mod multiversion;
pub mod provenance;
pub mod recognize;
pub mod toolbox;

pub use adaptive::{AdaptiveReduction, InvocationLog};
pub use calibrate::{Calibrator, CorrLevel, Correction};
pub use configurer::{Configurer, HostConfigurer, SimConfigurer, SystemConfig};
pub use monitor::PhaseDetector;
pub use multiversion::{CompiledReduction, Inputs};
pub use provenance::{CandidateCost, DecisionRecord, FeatureVector, GateVerdict};
pub use recognize::{distribute_by_operator, recognize, LoopNest, Recognition, ReductionInfo};
pub use toolbox::{Adaptation, DomainKey};
