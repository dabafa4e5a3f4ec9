//! # smartapps-workloads — irregular reduction workload generators
//!
//! Regenerates the memory-reference behaviour of the applications the
//! SmartApps paper evaluates — **Irreg, Nbf, Moldyn, Spark98, Charmm,
//! Spice** (Figure 3, software adaptive selection) and **Euler, Equake,
//! Vml, Charmm, Nbf** (Table 2 / Figures 6–7, PCLR hardware) — as seeded
//! synthetic access patterns plus the Section 4 characterization measures
//! (CH, CHD, CHR, CON, MO, SP, DIM).
//!
//! The crate has three layers:
//!
//! * [`pattern`] — the [`pattern::AccessPattern`] CSR representation and
//!   sequential oracles;
//! * [`mesh`] / [`apps`] — generators: generic ([`mesh::PatternSpec`]) and
//!   paper-specific ([`apps::fig3_rows`], [`apps::table2_rows`]);
//! * [`chars`] / [`tracegen`] — consumers: run-time characterization and
//!   lowering to `smartapps-sim` instruction traces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod chars;
pub mod mesh;
pub mod pattern;
pub mod tracegen;

pub use apps::{fig3_rows, table2_rows, AppShape, Fig3Row, Table2Row};
pub use chars::{drift, LocalIndex, PatternChars};
pub use mesh::{Distribution, PatternSpec};
pub use pattern::{
    contribution, contribution_i64, sequential_reduce, sequential_reduce_i64, AccessPattern,
};
pub use tracegen::{
    block_range, elem_block_range, pclr_traces_with_values, SimScheme, TraceParams, ValueFn,
};
