//! # smartapps-bench — experiment harnesses
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1_config`    | Table 1 (architecture parameters + latency self-test) |
//! | `fig3_adaptive`    | Figure 3 (adaptive scheme selection validation, 8 procs) |
//! | `table2_appchar`   | Table 2 (application characteristics, 16 procs) |
//! | `fig6_pclr`        | Figure 6 (Sw/Hw/Flex time breakdown + speedups, 16 procs) |
//! | `fig7_scalability` | Figure 7 (harmonic-mean speedups at 4/8/16 procs) |
//! | `ablation`         | design-choice ablations called out in DESIGN.md |
//!
//! plus `doc_links`, the CI check that every relative markdown link
//! resolves.  These reproduce the paper's figures; they are not the
//! service's performance driver — that is `smartbench`
//! (`benchmark/README.md`).
//!
//! The library part holds the runners the binaries share.

#![warn(missing_docs)]

pub mod pclr_experiment;
pub mod report;

pub use pclr_experiment::{run_app, AppResult, SimSystem};
