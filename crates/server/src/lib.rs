//! # smartapps-server — the reduction service as a network service
//!
//! `smartapps-runtime` is an in-process library: its submission API stops
//! at the process boundary.  This crate opens the first out-of-process
//! workload scenario — a TCP front end over the runtime's
//! completion-driven frontend, where
//! [`Runtime::submit_tagged`](smartapps_runtime::Runtime::submit_tagged)
//! routes every finished job onto one shared
//! [`CompletionSet`](smartapps_runtime::CompletionSet) — with a thread
//! count **independent of the client count**: one acceptor plus a small
//! fixed set of reactor threads serve any number of connections, because
//! no thread ever parks on an individual job.
//!
//! Four public modules:
//!
//! * [`wire`] — the messages (`submit` / `batch` / `upload` / `stats` /
//!   `stats v2` / `metrics` / `drain` / `unquarantine` / `explain` /
//!   `slowlog` / `upgrade bin` requests, `done` / `stats` / `stats2` /
//!   `drained` / `uploaded` / `explained` / `slowlog` / `upgraded`
//!   responses plus the length-prefixed `metrics` exposition frame),
//!   each described once; the line-oriented text protocol and the
//!   binary one are both derived from that description by the private
//!   `codec` module, so the two always agree on every message's fields.
//!   See `docs/SERVER.md` for the full grammar and
//!   `docs/OBSERVABILITY.md` for the metric catalog.
//! * [`wire2`] — the opt-in **binary wire v2** entry points: the same
//!   request and response types as length-prefixed frames with exact
//!   i64/f64 bodies, negotiated per connection via `upgrade bin`, and
//!   the incremental frame splitter.
//! * [`server`] — the [`Server`]: an epoll-blocked acceptor plus a
//!   small fixed set of epoll-blocked reactor threads (readable,
//!   writable, and completion-wake events; no sleep-polling), buffered
//!   nonblocking writes under a write-stall budget, and the pending
//!   table demultiplexing completions back to sockets.
//! * [`client`] — the blocking [`Client`] library the examples, the
//!   tests and `smartbench` drive, speaking either protocol.
//!
//! ## Example
//!
//! ```
//! use smartapps_runtime::Runtime;
//! use smartapps_server::{Client, ReplyMode, Server, ServerConfig, SubmitArgs};
//! use smartapps_server::{DoneOutcome, WireBody, WireDist, WireSpec};
//! use std::sync::Arc;
//!
//! let rt = Arc::new(Runtime::with_workers(2));
//! let server = Server::start(rt, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client
//!     .submit(SubmitArgs {
//!         token: 1,
//!         reply: ReplyMode::Ack,
//!         body: WireBody::Sum,
//!         source: smartapps_server::WireSource::Gen(WireSpec {
//!             elements: 256,
//!             iterations: 400,
//!             refs_per_iter: 2,
//!             coverage: 0.9,
//!             dist: WireDist::Uniform,
//!             seed: 11,
//!         }),
//!     })
//!     .unwrap();
//! let done = client.next_done().unwrap();
//! assert_eq!(done.token, 1);
//! assert!(matches!(done.outcome, DoneOutcome::Ok { .. }));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
mod codec;
pub mod server;
pub mod wire;
pub mod wire2;

pub use client::Client;
pub use server::{Server, ServerConfig};
pub use smartapps_telemetry::HistSummary;
pub use wire::{
    checksum, checksum_f64, DoneMsg, DoneOutcome, ExplainInfo, ExplainTarget, Payload, ReplyMode,
    Request, Response, SlowlogEntry, StatsV2, SubmitArgs, UploadArgs, WireBody, WireCandidate,
    WireDist, WireGate, WireSource, WireSpec, DEFAULT_SLOWLOG, MAX_SLOWLOG,
};
pub use wire2::{BinMsg, FrameBuf, FrameStep, DEFAULT_MAX_FRAME_BYTES};
