//! The wire protocol's messages, each described once.
//!
//! Every request and response type here implements the crate-private
//! `Field` trait: one walk over its fields that both formats run — the line-oriented **text** protocol and the
//! length-prefixed **binary wire v2** ([`wire2`](crate::wire2)).  The
//! [`Request`] and [`Response`] tables map every variant to its text
//! verb and its binary kind byte.  A format implements only primitives
//! (see `codec.rs`), so the field order and the shape of each message
//! live in this file alone.  The full grammar is in `docs/SERVER.md` and
//! `docs/OBSERVABILITY.md`.
//!
//! In text, every message is one UTF-8 line (`\n`-terminated,
//! blank-separated fields) — human-readable, `nc`-debuggable, and
//! stateless per line (a `batch` request carries its jobs inline).  The
//! one exception is the reply to a [`Request::Metrics`]: Prometheus text
//! exposition is multi-line, so it travels as a length-prefixed frame
//! (`metrics <len>\n` + `len` raw bytes) outside the [`Response`] enum.
//! A connection starts in text and may switch to binary with `upgrade
//! bin` → [`Response::Upgraded`].
//!
//! Job *bodies* cannot cross a network boundary as closures, so the
//! protocol describes jobs declaratively: a [`WireSource`] either names
//! a deterministic generated access pattern (a [`WireSpec`] — the same
//! `PatternSpec` parameters the workloads crate uses) or references a
//! CSR structure the client previously uploaded (`upload` →
//! [`Response::Uploaded`] handle), and a [`WireBody`] names one of the
//! server's built-in contribution functions.  Two clients sending the
//! same spec — or uploading the same CSR content — share one
//! server-side pattern allocation, which is what lets their jobs
//! coalesce — and fuse — exactly like in-process submissions.
//!
//! The types carry `serde` derives for source-compatibility with the
//! real crates; in this offline build the vendored stand-in expands
//! them to nothing.

use crate::codec::{
    self, get_nums, get_vec, put_nums, put_vec, record, variants, Count, Field, Message, Sink,
    Source, GLUED,
};
use serde::{Deserialize, Serialize};
use smartapps_runtime::Builtin;
use smartapps_telemetry::HistSummary;
use smartapps_workloads::{Distribution, PatternSpec};

/// Generated-pattern description a job reduces over (the wire form of
/// `PatternSpec`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireSpec {
    /// Reduction array dimension.
    pub elements: usize,
    /// Loop iteration count.
    pub iterations: usize,
    /// Reduction references per iteration.
    pub refs_per_iter: usize,
    /// Fraction of elements eligible to be referenced, in `(0, 1]`.
    pub coverage: f64,
    /// Contention shape.
    pub dist: WireDist,
    /// RNG seed (patterns are deterministic given the spec).
    pub seed: u64,
}

impl WireSpec {
    /// The corresponding generator spec.
    pub fn to_pattern_spec(self) -> PatternSpec {
        PatternSpec {
            num_elements: self.elements,
            iterations: self.iterations,
            refs_per_iter: self.refs_per_iter,
            coverage: self.coverage,
            dist: match self.dist {
                WireDist::Uniform => Distribution::Uniform,
                WireDist::Zipf(s) => Distribution::Zipf { s },
                WireDist::Clustered(window) => Distribution::Clustered { window },
            },
            seed: self.seed,
        }
    }

    /// Total reduction references the pattern will carry (admission-cap
    /// input; must not overflow into a bogus small number).
    pub fn total_refs(&self) -> usize {
        self.iterations.saturating_mul(self.refs_per_iter)
    }

    /// Validate ranges the generator would otherwise `assert!` on — the
    /// server must reject these at parse time, not panic on a reactor.
    pub fn validate(&self) -> Result<(), String> {
        if self.elements == 0 {
            return Err("elements must be >= 1".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be >= 1".into());
        }
        if self.refs_per_iter == 0 {
            return Err("refs_per_iter must be >= 1".into());
        }
        if !(self.coverage > 0.0 && self.coverage <= 1.0) {
            return Err(format!("coverage must be in (0,1], got {}", self.coverage));
        }
        if let WireDist::Zipf(s) = self.dist {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("zipf exponent must be finite and >= 0, got {s}"));
            }
        }
        Ok(())
    }
}

/// Text: `<elements> <iterations> <refs> <coverage> <dist> <seed>`.
impl Field for WireSpec {
    const MIN_BIN: usize = 41;
    fn put<S: Sink>(&self, s: &mut S) {
        s.field(&self.elements);
        s.field(&self.iterations);
        s.field(&self.refs_per_iter);
        s.num(&self.coverage);
        s.field(&self.dist);
        s.num(&self.seed);
    }
    #[inline]
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        let spec = WireSpec {
            elements: r.field()?,
            iterations: r.field()?,
            refs_per_iter: r.field()?,
            coverage: r.num()?,
            dist: r.field()?,
            seed: r.num()?,
        };
        // The text grammar refuses these at parse time; binary carries
        // any bit pattern and leaves them to `validate`.
        if R::TEXT && !spec.coverage.is_finite() {
            return Err("coverage must be finite".into());
        }
        Ok(spec)
    }
}

/// Wire form of the pattern generator's contention shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WireDist {
    /// Uniform over the active set.
    Uniform,
    /// Zipf-skewed with the given exponent.
    Zipf(f64),
    /// Spatially clustered with the given window radius.
    Clustered(u32),
}

variants!(
    WireDist,
    "distribution",
    Uniform = "uniform",
    Zipf(num) = "zipf:",
    Clustered(num) = "clustered:"
);

/// Which built-in contribution function the job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireBody {
    /// The workloads crate's standard `contribution_i64`.
    Sum,
    /// `contribution_i64` scaled by a constant (distinct outputs for
    /// fused-sweep members without distinct code).
    Mul(i64),
    /// The workloads crate's f64 `contribution` — the floating-point
    /// body; its `done` payload uses the f64 payload shapes
    /// ([`Payload::ChecksumF64`] / [`Payload::FullF64`]).
    FSum,
    /// A body that panics on its first invocation — the failure-channel
    /// test hook (drives `Panic` errors and, in streaks, quarantine).
    Panic,
    /// Iteration-uniform i64 body (`contribution_i64` of the *iteration*,
    /// same value in every slot of a row) — submitted with the
    /// uniform-body declaration set, so scan/window-shaped patterns are
    /// eligible for the runtime's simplification pass.
    Usum,
    /// Iteration-uniform f64 body (`contribution` of the iteration);
    /// the f64 counterpart of [`WireBody::Usum`], also declared uniform.
    Fusum,
}

impl WireBody {
    /// The runtime built-in a named body runs as; `None` for
    /// [`WireBody::Panic`], which runs as an opaque closure.
    pub fn builtin(self) -> Option<Builtin> {
        match self {
            WireBody::Sum => Some(Builtin::Sum),
            WireBody::Mul(k) => Some(Builtin::Mul(k)),
            WireBody::FSum => Some(Builtin::FSum),
            WireBody::Usum => Some(Builtin::Usum),
            WireBody::Fusum => Some(Builtin::Fusum),
            WireBody::Panic => None,
        }
    }

    /// Whether the body produces f64 outputs (selects the f64 payload
    /// shapes on the `done` response).
    pub fn is_f64(self) -> bool {
        self.builtin().is_some_and(Builtin::is_f64)
    }

    /// Whether the body is iteration-uniform (submitted with the
    /// [`JobSpec::with_uniform_body`](smartapps_runtime::JobSpec)
    /// declaration, making it simplification-eligible).
    pub fn is_uniform(self) -> bool {
        self.builtin().is_some_and(Builtin::is_uniform)
    }
}

variants!(
    WireBody,
    "body",
    Sum = "sum",
    Mul(num) = "mul:",
    Panic = "panic",
    FSum = "fsum",
    Usum = "usum",
    Fusum = "fusum"
);

/// Where a submitted job's access pattern comes from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WireSource {
    /// Described inline as a generator spec (the original protocol
    /// shape): the server expands and caches the synthetic pattern.
    Gen(WireSpec),
    /// References a CSR structure previously interned via `upload`, by
    /// the handle the [`Response::Uploaded`] reply carried.  Handles are
    /// server-scoped (any connection may use any issued handle — that is
    /// what lets same-structure jobs from different clients fuse).
    Handle(u64),
}

// An inline spec has no text tag; a handle is `pat:<hex16>`.
variants!(WireSource, "source", Gen(field) = "", Handle(hex) = "pat:");

/// How much of the result the `done` response carries back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplyMode {
    /// Length + wrapping-sum checksum only (the loadgen mode: verifiable
    /// without shipping the array).
    Ack,
    /// Every output value (the oracle-comparison mode).
    Full,
}

variants!(ReplyMode, "reply mode", Ack = "ack", Full = "full");

/// One job submission: the client-chosen token echoed on the `done`
/// response, the reply mode, the body, and the pattern source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubmitArgs {
    /// Client-chosen correlation tag; the server treats it as opaque and
    /// echoes it exactly once per submission.
    pub token: u64,
    /// How much of the result to send back.
    pub reply: ReplyMode,
    /// Which built-in contribution function runs.
    pub body: WireBody,
    /// The access pattern to reduce over: an inline generator spec
    /// (9 text fields) or an uploaded-pattern handle (`pat:<hex>`,
    /// 4 text fields).
    pub source: WireSource,
}

// Binary: a token, three tags and at least a handle.
record!(SubmitArgs, min 19, b' ', token: num, reply: field, body: field, source: field);

/// One CSR structure upload: the raw row-pointer and index arrays of an
/// [`AccessPattern`](smartapps_workloads::AccessPattern).  The server
/// validates and interns the structure and replies
/// [`Response::Uploaded`] with the handle; invalid or over-capacity
/// uploads fail with a `done <token> err rejected ...` message (the
/// connection survives).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UploadArgs {
    /// Client-chosen correlation tag, echoed on the reply.
    pub token: u64,
    /// Reduction array dimension (what `indices` values index into).
    pub num_elements: usize,
    /// CSR row pointers: `iter_ptr[i]..iter_ptr[i+1]` spans iteration
    /// `i`'s slice of `indices`.
    pub iter_ptr: Vec<u32>,
    /// Concatenated per-iteration element indices.
    pub indices: Vec<u32>,
}

/// Text puts both counts before both arrays; binary puts each count
/// right before its array.
impl Field for UploadArgs {
    fn put<S: Sink>(&self, s: &mut S) {
        s.num(&self.token);
        s.field(&self.num_elements);
        if S::TEXT {
            s.count(Count::Bare, self.iter_ptr.len());
            s.count(Count::Bare, self.indices.len());
            s.nums(&self.iter_ptr);
            s.nums(&self.indices);
        } else {
            put_nums(s, Count::Bare, &self.iter_ptr);
            put_nums(s, Count::Bare, &self.indices);
        }
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        let token = r.num()?;
        let num_elements = r.field()?;
        let (iter_ptr, indices) = if R::TEXT {
            let (np, ni) = (r.count(Count::Bare, 4)?, r.count(Count::Bare, 4)?);
            (r.nums(np)?, r.nums(ni)?)
        } else {
            (get_nums(r, Count::Bare)?, get_nums(r, Count::Bare)?)
        };
        Ok(UploadArgs {
            token,
            num_elements,
            iter_ptr,
            indices,
        })
    }
}

/// A client→server request (one line each).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one job.
    Submit(SubmitArgs),
    /// Submit several jobs in one request; same-class members coalesce
    /// (and same-spec members can fuse) exactly like an in-process
    /// `submit_batch`.
    Batch(Vec<SubmitArgs>),
    /// Snapshot the runtime's service counters.
    Stats,
    /// Snapshot counters *plus* latency-histogram digests and the
    /// quarantined classes with their remaining TTLs (the richer
    /// observability surface; `stats` stays for old clients).
    StatsV2,
    /// Fetch the full Prometheus-style text exposition.  The reply is
    /// the protocol's one framed (multi-line) response:
    /// `metrics <len>\n` followed by exactly `len` raw bytes — see
    /// `docs/OBSERVABILITY.md`.
    Metrics,
    /// Reply `drained` once every job submitted on this connection has
    /// completed (a per-connection flush barrier).
    Drain,
    /// Lift the poisoned-class quarantine of a signature (hex, as
    /// reported by `done ... err quarantined` messages' class field —
    /// see `docs/SERVER.md`).
    Unquarantine(u64),
    /// Intern a CSR structure server-side; the reply
    /// ([`Response::Uploaded`]) carries the handle later submissions
    /// reference via [`WireSource::Handle`].
    Upload(UploadArgs),
    /// Fetch the latest decision record of a workload class: why the
    /// runtime runs that class the way it does (candidate cost table,
    /// feasibility masks, gate verdicts).  The reply is
    /// [`Response::Explained`] — `explained none` when no ranking has
    /// run for the class.
    Explain(ExplainTarget),
    /// Fetch the `n` slowest retained jobs with their per-stage latency
    /// attribution ([`Response::Slowlog`]).
    Slowlog(usize),
    /// Switch this connection to the length-prefixed binary wire v2
    /// (`docs/SERVER.md`).  Legal only while the connection has no jobs
    /// in flight — the server must not interleave a text `done` with the
    /// framed `upgraded` reply.  After the [`Response::Upgraded`]
    /// acknowledgment (still a text line), both directions speak frames.
    UpgradeBin,
}

impl Request {
    /// Render the request as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        codec::to_text(self)
    }

    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        codec::from_text(line)
    }
}

impl Message for Request {
    const NAME: &'static str = "request";
    const KINDS: &'static [(u8, &'static str, &'static str)] = &[
        (0x01, "submit", ""),
        (0x02, "batch", ""),
        (0x03, "stats", ""),
        (0x04, "stats", "v2"),
        (0x05, "metrics", ""),
        (0x06, "drain", ""),
        (0x07, "unquarantine", ""),
        (0x08, "upload", ""),
        (0x09, "upgrade", "bin"),
        (0x0a, "explain", ""),
        (0x0b, "slowlog", ""),
    ];

    fn row(&self) -> usize {
        match self {
            Request::Submit(_) => 0,
            Request::Batch(_) => 1,
            Request::Stats => 2,
            Request::StatsV2 => 3,
            Request::Metrics => 4,
            Request::Drain => 5,
            Request::Unquarantine(_) => 6,
            Request::Upload(_) => 7,
            Request::UpgradeBin => 8,
            Request::Explain(_) => 9,
            Request::Slowlog(_) => 10,
        }
    }

    fn put_fields<S: Sink>(&self, s: &mut S) {
        match self {
            Request::Submit(a) => s.field(a),
            Request::Batch(jobs) => put_vec(s, Count::Bare, jobs),
            Request::Unquarantine(sig) => s.hex(sig),
            Request::Upload(u) => s.field(u),
            Request::Explain(t) => s.field(t),
            Request::Slowlog(n) => s.field(n),
            Request::Stats
            | Request::StatsV2
            | Request::Metrics
            | Request::Drain
            | Request::UpgradeBin => {}
        }
    }

    #[inline]
    fn get_fields<R: Source>(row: usize, r: &mut R) -> Result<Self, String> {
        Ok(match row {
            0 => Request::Submit(r.field()?),
            1 => {
                let jobs = get_vec(r, Count::Bare)?;
                if jobs.is_empty() {
                    return Err("batch count must be >= 1".into());
                }
                Request::Batch(jobs)
            }
            2 => Request::Stats,
            3 => Request::StatsV2,
            4 => Request::Metrics,
            5 => Request::Drain,
            6 => Request::Unquarantine(r.hex()?),
            7 => Request::Upload(r.field()?),
            8 => Request::UpgradeBin,
            9 => Request::Explain(r.field()?),
            // A bare text `slowlog` asks for the default count.
            _ if R::TEXT && r.at_end() => Request::Slowlog(DEFAULT_SLOWLOG),
            _ => Request::Slowlog(r.field()?),
        })
    }
}

/// Result payload of a successful job.  (`Eq` is off the table: the f64
/// payload shapes carry floats.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Output length plus wrapping-sum checksum ([`ReplyMode::Ack`],
    /// i64 bodies).
    Checksum {
        /// Number of reduction elements.
        len: usize,
        /// Wrapping sum of all output values.
        sum: i64,
    },
    /// The full output array ([`ReplyMode::Full`], i64 bodies).
    Full(Vec<i64>),
    /// Output length plus float sum ([`ReplyMode::Ack`], f64 bodies).
    ChecksumF64 {
        /// Number of reduction elements.
        len: usize,
        /// Plain (left-to-right) sum of all output values.
        sum: f64,
    },
    /// The full f64 output array ([`ReplyMode::Full`], f64 bodies).
    FullF64(Vec<f64>),
}

const PAYLOADS: &[&str] = &["sum", "full", "fsum", "ffull"];

impl Field for Payload {
    fn put<S: Sink>(&self, s: &mut S) {
        match self {
            Payload::Checksum { len, sum } => {
                s.tag(PAYLOADS, 0);
                s.field(len);
                s.num(sum);
            }
            Payload::Full(values) => {
                s.tag(PAYLOADS, 1);
                put_nums(s, Count::Bare, values);
            }
            Payload::ChecksumF64 { len, sum } => {
                s.tag(PAYLOADS, 2);
                s.field(len);
                s.num(sum);
            }
            Payload::FullF64(values) => {
                s.tag(PAYLOADS, 3);
                put_nums(s, Count::Bare, values);
            }
        }
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        Ok(match r.tag("payload", PAYLOADS)? {
            0 => Payload::Checksum {
                len: r.field()?,
                sum: r.num()?,
            },
            1 => Payload::Full(get_nums(r, Count::Bare)?),
            2 => Payload::ChecksumF64 {
                len: r.field()?,
                sum: r.num()?,
            },
            _ => Payload::FullF64(get_nums(r, Count::Bare)?),
        })
    }
}

/// Wrapping-sum checksum of an output array (what
/// [`Payload::Checksum`] carries).
pub fn checksum(values: &[i64]) -> i64 {
    values.iter().fold(0i64, |a, &v| a.wrapping_add(v))
}

/// Left-to-right float sum (what [`Payload::ChecksumF64`] carries);
/// deterministic given the same array.
pub fn checksum_f64(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// The text protocol's one framed reply: the exposition is multi-line,
/// so it rides `metrics <len>\n` followed by exactly `len` raw bytes
/// rather than a [`Response`] line.
pub(crate) fn metrics_frame(exposition: &[u8]) -> Vec<u8> {
    let mut frame = format!("metrics {}\n", exposition.len()).into_bytes();
    frame.extend_from_slice(exposition);
    frame
}

/// One finished job, as reported on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoneMsg {
    /// The client's token, echoed.
    pub token: u64,
    /// What happened.
    pub outcome: DoneOutcome,
}

/// The two shapes of a `done` line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DoneOutcome {
    /// The job executed cleanly.
    Ok {
        /// Scheme abbreviation the dispatcher executed (`rep`, `hash`, …).
        scheme: String,
        /// The execution's cost sample in nanoseconds.
        elapsed_ns: u64,
        /// Whether the decision came from the profile store.
        profile_hit: bool,
        /// Group-mates sharing the job's fused sweep.
        fused_with: usize,
        /// Group-mates sharing the job's dispatch batch.
        batched_with: usize,
        /// The result payload, per the submission's [`ReplyMode`].
        payload: Payload,
    },
    /// The job failed.
    Err {
        /// Stable [`JobErrorKind`](smartapps_runtime::JobErrorKind) name
        /// (`panic`, `rejected`, `shutdown`, `quarantined`).
        kind: String,
        /// The signature the job was queued under (`0` when rejected
        /// before queueing) — the argument `unquarantine` takes.
        signature: u64,
        /// Human-readable detail; spaces allowed (last field on the line).
        message: String,
    },
}

const OUTCOMES: &[&str] = &["ok", "err"];

/// `fused_with` and `batched_with` travel as `u32` in binary.
impl Field for DoneMsg {
    fn put<S: Sink>(&self, s: &mut S) {
        s.num(&self.token);
        match &self.outcome {
            DoneOutcome::Ok {
                scheme,
                elapsed_ns,
                profile_hit,
                fused_with,
                batched_with,
                payload,
            } => {
                s.tag(OUTCOMES, 0);
                s.word(scheme);
                s.num(elapsed_ns);
                s.bool(profile_hit);
                s.num(&(*fused_with as u32));
                s.num(&(*batched_with as u32));
                s.field(payload);
            }
            DoneOutcome::Err {
                kind,
                signature,
                message,
            } => {
                s.tag(OUTCOMES, 1);
                s.word(kind);
                s.hex(signature);
                s.rest(message);
            }
        }
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        let token = r.num()?;
        let outcome = match r.tag("done status", OUTCOMES)? {
            0 => DoneOutcome::Ok {
                scheme: r.word()?,
                elapsed_ns: r.num()?,
                profile_hit: r.bool()?,
                fused_with: r.num::<u32>()? as usize,
                batched_with: r.num::<u32>()? as usize,
                payload: r.field()?,
            },
            _ => DoneOutcome::Err {
                kind: r.word()?,
                signature: r.hex()?,
                message: r.rest()?,
            },
        };
        Ok(DoneMsg { token, outcome })
    }
}

/// The `stats v2` payload: counters, latency-histogram digests, and the
/// quarantine ledger — everything `stats` reports plus the distribution
/// and health state the counters cannot express.
///
/// All three lists are sorted (counters and histogram digests by key,
/// quarantined classes by signature), so identical server state encodes
/// to an identical line.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StatsV2 {
    /// Service counters, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Per-series histogram digests, sorted by (name, label key, label
    /// value); label values are registry-sanitized to `[A-Za-z0-9._-]`,
    /// which is what keeps the colon-separated wire form unambiguous.
    pub hists: Vec<HistSummary>,
    /// Quarantined class signatures with the whole seconds remaining
    /// until each TTL expires, sorted by signature.
    pub quarantined: Vec<(u64, u64)>,
}

impl Field for StatsV2 {
    fn put<S: Sink>(&self, s: &mut S) {
        put_vec(s, Count::Section("counters"), &self.counters);
        put_vec(s, Count::Section("hists"), &self.hists);
        put_vec(s, Count::Section("quarantine"), &self.quarantined);
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        Ok(StatsV2 {
            counters: get_vec(r, Count::Section("counters"))?,
            hists: get_vec(r, Count::Section("hists"))?,
            quarantined: get_vec(r, Count::Section("quarantine"))?,
        })
    }
}

record!(HistSummary, min 52, b':', name: word, label_key: word, label_value: word,
    count: num, p50: num, p95: num, p99: num, max: num);

/// A quarantine entry, text `<signature hex16>:<ttl secs>`.
impl Field for (u64, u64) {
    const MIN_BIN: usize = 16;
    fn put<S: Sink>(&self, s: &mut S) {
        s.joined(b':', |s| {
            s.hex(&self.0);
            s.num(&self.1);
        });
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        r.joined(b':', |r| Ok((r.hex()?, r.num()?)))
    }
}

/// Exemplars a bare `slowlog` request (no count) asks for.
pub const DEFAULT_SLOWLOG: usize = 8;

/// Most exemplars one `slowlog` reply carries, regardless of the
/// requested count (the server clamps; the store is bounded anyway).
pub const MAX_SLOWLOG: usize = 256;

/// What a [`Request::Explain`] asks about: a workload-class signature
/// (as reported by `done` messages and quarantine entries) or an
/// uploaded-pattern handle the server resolves to its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExplainTarget {
    /// A class signature, verbatim.
    Signature(u64),
    /// An uploaded-pattern handle (`pat:<hex>`); the server maps it to
    /// the signature its submissions queue under.
    Handle(u64),
}

variants!(
    ExplainTarget,
    "explain target",
    Signature(hex) = "",
    Handle(hex) = "pat:"
);

/// A gate verdict as reported on the wire: whether the gate took its
/// action, and the single-token reason (`docs/OBSERVABILITY.md` lists
/// the vocabulary per gate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireGate {
    /// Whether the gate fired.
    pub fired: bool,
    /// Single-token justification (`[a-z0-9._-]`).
    pub reason: String,
}

record!(WireGate, min 5, b':', fired: bool, reason: word);

/// One row of the `explain` candidate cost table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCandidate {
    /// Scheme abbreviation (`rep`, `hash`, `pclr`, …).
    pub scheme: String,
    /// Raw analytic model cost (`inf` when masked).
    pub analytic: f64,
    /// Correction-scaled cost the ranking compared.
    pub corrected: f64,
    /// Whether the scheme was admissible for this input.
    pub feasible: bool,
}

record!(WireCandidate, min 21, b':', scheme: word, analytic: num, corrected: num, feasible: bool);

/// The `explain` payload: the wire form of the runtime's per-class
/// decision record — feature vector, full candidate cost table
/// (analytic-vs-corrected, masked rows included), gate verdicts, and
/// the winning scheme/backend (`docs/OBSERVABILITY.md` is the field
/// catalog).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainInfo {
    /// The workload-class signature the record applies to.
    pub signature: u64,
    /// Functioning-domain label (the `d..r..s..m..` form the metric
    /// series use).
    pub domain: String,
    /// The scheme the decision chose (abbreviation).
    pub winner: String,
    /// The backend that executed the class's last decided job
    /// (`software`, `simd`, `pclr`, `scan`; `pending` before execution).
    pub backend: String,
    /// The decision came from an exploration slot.
    pub explored: bool,
    /// The decision was a periodic profile recheck.
    pub rechecked: bool,
    /// Times the class's winning scheme has changed across recorded
    /// decisions.
    pub flips: u64,
    /// Fusion-gate verdict.
    pub fusion: WireGate,
    /// Simplification-gate verdict.
    pub simplify: WireGate,
    /// Quarantine verdict (fired = rejected).
    pub quarantine: WireGate,
    /// The model inputs, as ordered `name=value` pairs (counts are
    /// exact below 2^53; ratios are the model's own floats).
    pub features: Vec<(String, f64)>,
    /// The candidate cost table, in ranked order (best corrected cost
    /// first).
    pub candidates: Vec<WireCandidate>,
}

/// Text: `<sig> <domain> <winner> <backend> <explored><rechecked>
/// <flips> <gate> <gate> <gate> features n … candidates m …`.
impl Field for ExplainInfo {
    fn put<S: Sink>(&self, s: &mut S) {
        s.hex(&self.signature);
        s.word(&self.domain);
        s.word(&self.winner);
        s.word(&self.backend);
        s.joined(GLUED, |s| {
            s.bool(&self.explored);
            s.bool(&self.rechecked);
        });
        s.num(&self.flips);
        s.field(&self.fusion);
        s.field(&self.simplify);
        s.field(&self.quarantine);
        put_vec(s, Count::Section("features"), &self.features);
        put_vec(s, Count::Section("candidates"), &self.candidates);
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        let signature = r.hex()?;
        let domain = r.word()?;
        let winner = r.word()?;
        let backend = r.word()?;
        let (explored, rechecked) = r.joined(GLUED, |r| Ok((r.bool()?, r.bool()?)))?;
        Ok(ExplainInfo {
            signature,
            domain,
            winner,
            backend,
            explored,
            rechecked,
            flips: r.num()?,
            fusion: r.field()?,
            simplify: r.field()?,
            quarantine: r.field()?,
            features: get_vec(r, Count::Section("features"))?,
            candidates: get_vec(r, Count::Section("candidates"))?,
        })
    }
}

/// One slow-job exemplar as reported by `slowlog`: the job's class, its
/// end-to-end latency, how it was routed, and the per-stage latency
/// attribution derived from its lifecycle trace event.  The five stage
/// fields sum exactly to `latency_ns` for executed jobs (all-zero for
/// jobs that failed before execution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowlogEntry {
    /// The job's class signature.
    pub class: u64,
    /// End-to-end latency (submission → completion), nanoseconds.
    pub latency_ns: u64,
    /// Scheme abbreviation the job executed (`-` when it failed before
    /// a scheme was chosen).
    pub scheme: String,
    /// Backend tag (`software`, `simd`, `pclr`, `scan`).
    pub backend: String,
    /// How the job ended (`none`, `panicked`, `quarantined`).
    pub error: String,
    /// Members of the job's fused sweep (1 = unfused, 0 = unexecuted).
    pub fused: u16,
    /// Submission → dispatcher dequeue, nanoseconds.
    pub queue_ns: u64,
    /// Dequeue → scheme decision, nanoseconds.
    pub decide_ns: u64,
    /// Simplification-gate time (recognizer + probe), nanoseconds.
    pub simplify_ns: u64,
    /// Decision → execution done minus the simplify share, nanoseconds.
    pub exec_ns: u64,
    /// Execution done → completion handed to the sink, nanoseconds.
    pub completion_ns: u64,
    /// Winning scheme of the decision record in force when the job
    /// completed (`-` when no ranking had run for the class).
    pub winner: String,
}

// `fused` travels as a `u32` in binary.
record!(SlowlogEntry, min 76, b':', class: hex, latency_ns: num, scheme: word, backend: word,
    error: word, fused: field, queue_ns: num, decide_ns: num, simplify_ns: num, exec_ns: num,
    completion_ns: num, winner: word);

/// A server→client response (one line each).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// One finished job.
    Done(DoneMsg),
    /// Service-counter snapshot as ordered `key=value` pairs.
    Stats(Vec<(String, u64)>),
    /// The richer `stats v2` snapshot.
    StatsV2(StatsV2),
    /// The connection's flush barrier: every job submitted before the
    /// `drain` has completed; the payload is the total jobs completed on
    /// this connection so far.
    Drained(u64),
    /// Whether the `unquarantine` found ledger state to clear.
    Unquarantined(bool),
    /// A CSR upload succeeded: the echoed token and the issued (or
    /// deduplicated) pattern handle.
    Uploaded {
        /// The upload's token, echoed.
        token: u64,
        /// The handle later submissions reference via
        /// [`WireSource::Handle`].
        handle: u64,
    },
    /// The latest decision record of the asked-about class (`None` when
    /// no ranking has run for it — reported as `explained none`).
    Explained(Option<ExplainInfo>),
    /// The slowest retained jobs, slowest first, with per-stage latency
    /// attribution.
    Slowlog(Vec<SlowlogEntry>),
    /// Acknowledges [`Request::UpgradeBin`]: the last text line on the
    /// connection; everything after it (both directions) is binary wire
    /// v2 frames.
    Upgraded,
    /// Protocol-level failure (unparsable line, oversized job, …); the
    /// server closes the connection after sending it.
    Error(String),
}

impl Response {
    /// Render the response as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        codec::to_text(self)
    }

    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        codec::from_text(line.trim_end_matches(['\r', '\n']))
    }
}

/// `explained none` / `explained <record>`.
const PRESENCE: &[&str] = &["none", ""];

impl Message for Response {
    const NAME: &'static str = "response";
    /// `0x87` is the metrics frame, which is not a `Response`.
    const KINDS: &'static [(u8, &'static str, &'static str)] = &[
        (0x81, "done", ""),
        (0x82, "stats", ""),
        (0x83, "stats2", ""),
        (0x84, "drained", ""),
        (0x85, "unquarantined", ""),
        (0x86, "err", ""),
        (0x88, "uploaded", ""),
        (0x89, "upgraded", "bin"),
        (0x8a, "explained", ""),
        (0x8b, "slowlog", ""),
    ];

    fn row(&self) -> usize {
        match self {
            Response::Done(_) => 0,
            Response::Stats(_) => 1,
            Response::StatsV2(_) => 2,
            Response::Drained(_) => 3,
            Response::Unquarantined(_) => 4,
            Response::Error(_) => 5,
            Response::Uploaded { .. } => 6,
            Response::Upgraded => 7,
            Response::Explained(_) => 8,
            Response::Slowlog(_) => 9,
        }
    }

    fn put_fields<S: Sink>(&self, s: &mut S) {
        match self {
            Response::Done(d) => s.field(d),
            Response::Stats(pairs) => put_vec(s, Count::ToEnd, pairs),
            Response::StatsV2(v2) => s.field(v2),
            Response::Drained(n) => s.num(n),
            Response::Unquarantined(found) => s.bool(found),
            Response::Error(msg) => s.rest(msg),
            Response::Uploaded { token, handle } => {
                s.num(token);
                s.hex(handle);
            }
            Response::Upgraded => {}
            Response::Explained(info) => {
                s.tag(PRESENCE, u8::from(info.is_some()));
                if let Some(info) = info {
                    s.field(info);
                }
            }
            Response::Slowlog(entries) => put_vec(s, Count::Bare, entries),
        }
    }

    #[inline]
    fn get_fields<R: Source>(row: usize, r: &mut R) -> Result<Self, String> {
        Ok(match row {
            0 => Response::Done(r.field()?),
            1 => Response::Stats(get_vec(r, Count::ToEnd)?),
            2 => Response::StatsV2(r.field()?),
            3 => Response::Drained(r.num()?),
            4 => Response::Unquarantined(r.bool()?),
            5 => Response::Error(r.rest()?),
            6 => Response::Uploaded {
                token: r.num()?,
                handle: r.hex()?,
            },
            7 => Response::Upgraded,
            8 => Response::Explained(match r.tag("explained presence", PRESENCE)? {
                0 => None,
                _ => Some(r.field()?),
            }),
            _ => Response::Slowlog(get_vec(r, Count::Bare)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WireSpec {
        WireSpec {
            elements: 512,
            iterations: 900,
            refs_per_iter: 2,
            coverage: 0.75,
            dist: WireDist::Zipf(1.1),
            seed: 7,
        }
    }

    #[test]
    fn stats_v2_carries_the_simplify_and_simd_counters() {
        // The server's `stats2` builder exports these three counters; the
        // text codec must carry the exact names unharmed (satellite of the
        // observability issue — clients key dashboards off them).
        let v2 = StatsV2 {
            counters: vec![
                ("simd_offloads".into(), 17),
                ("simplified_jobs".into(), 9),
                ("simplify_rejects".into(), 3),
            ],
            hists: vec![],
            quarantined: vec![],
        };
        let line = Response::StatsV2(v2.clone()).encode();
        assert_eq!(Response::parse(&line), Ok(Response::StatsV2(v2)));
    }

    fn explain_info() -> ExplainInfo {
        ExplainInfo {
            signature: 0xfeed_0007,
            domain: "d11r2s10m2".into(),
            winner: "hash".into(),
            backend: "software".into(),
            explored: false,
            rechecked: true,
            flips: 3,
            fusion: WireGate {
                fired: true,
                reason: "hash-trusted".into(),
            },
            simplify: WireGate {
                fired: false,
                reason: "recognizer-miss".into(),
            },
            quarantine: WireGate {
                fired: false,
                reason: "clear".into(),
            },
            features: vec![
                ("references".into(), 1800.0),
                ("elements".into(), 512.0),
                ("sp".into(), 0.734),
            ],
            candidates: vec![
                WireCandidate {
                    scheme: "hash".into(),
                    analytic: 1234.5,
                    corrected: 987.25,
                    feasible: true,
                },
                WireCandidate {
                    scheme: "lw".into(),
                    analytic: f64::INFINITY,
                    corrected: f64::INFINITY,
                    feasible: false,
                },
            ],
        }
    }

    fn slowlog_entry() -> SlowlogEntry {
        SlowlogEntry {
            class: 0xfeed_0007,
            latency_ns: 1_250_000,
            scheme: "hash".into(),
            backend: "simd".into(),
            error: "none".into(),
            fused: 4,
            queue_ns: 10_000,
            decide_ns: 40_000,
            simplify_ns: 0,
            exec_ns: 1_100_000,
            completion_ns: 100_000,
            winner: "hash".into(),
        }
    }

    mod golden {
        //! The wire formats pinned byte for byte: every message of a fixed
        //! corpus with its exact text line and binary frame (hex).  Both
        //! codecs must produce exactly these bytes and decode them back to
        //! the same value; the accept cases pin what the text parser takes
        //! beyond the canonical form.

        use super::*;
        use crate::wire2::{self, BinMsg, FrameBuf, FrameStep, DEFAULT_MAX_FRAME_BYTES};

        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }

        fn split(frame: &[u8]) -> (u8, Vec<u8>) {
            let mut fb = FrameBuf::new();
            fb.extend(frame);
            match fb.next_frame(DEFAULT_MAX_FRAME_BYTES) {
                Ok(FrameStep::Frame { kind, body }) if fb.pending() == 0 => (kind, body),
                other => panic!("not exactly one frame: {other:?}"),
            }
        }

        fn zipf_spec() -> WireSpec {
            spec()
        }

        fn submit(token: u64, reply: ReplyMode, body: WireBody, source: WireSource) -> SubmitArgs {
            SubmitArgs {
                token,
                reply,
                body,
                source,
            }
        }

        fn ok(
            token: u64,
            scheme: &str,
            elapsed_ns: u64,
            hit: bool,
            fused: usize,
            batched: usize,
            payload: Payload,
        ) -> Response {
            Response::Done(DoneMsg {
                token,
                outcome: DoneOutcome::Ok {
                    scheme: scheme.into(),
                    elapsed_ns,
                    profile_hit: hit,
                    fused_with: fused,
                    batched_with: batched,
                    payload,
                },
            })
        }

        fn failed(token: u64, kind: &str, signature: u64, message: &str) -> Response {
            Response::Done(DoneMsg {
                token,
                outcome: DoneOutcome::Err {
                    kind: kind.into(),
                    signature,
                    message: message.into(),
                },
            })
        }

        fn explain_simd() -> ExplainInfo {
            ExplainInfo {
                backend: "simd".into(),
                explored: true,
                rechecked: false,
                flips: 2,
                fusion: WireGate {
                    fired: false,
                    reason: "group-of-one".into(),
                },
                simplify: WireGate {
                    fired: true,
                    reason: "prefix".into(),
                },
                features: vec![("references".into(), 1800.0), ("sp".into(), 0.734)],
                candidates: vec![
                    WireCandidate {
                        scheme: "hash".into(),
                        analytic: 1234.5,
                        corrected: 987.25,
                        feasible: true,
                    },
                    WireCandidate {
                        scheme: "pclr".into(),
                        analytic: f64::INFINITY,
                        corrected: f64::INFINITY,
                        feasible: false,
                    },
                ],
                ..explain_info()
            }
        }

        fn requests() -> Vec<(Request, &'static str, &'static str)> {
            let args = submit(
                41,
                ReplyMode::Full,
                WireBody::Mul(-3),
                WireSource::Gen(zipf_spec()),
            );
            let by_handle = submit(43, ReplyMode::Ack, WireBody::FSum, WireSource::Handle(0x1f));
            vec![
                (Request::Submit(args), "submit 41 full mul:-3 512 900 2 0.75 zipf:1.1 7", "450000000129000000000000000101fdffffffffffffff00000200000000000084030000000000000200000000000000000000000000e83f019a9999999999f13f0700000000000000"),
                (Request::Submit(by_handle), "submit 43 ack fsum pat:000000000000001f", "14000000012b000000000000000003011f00000000000000"),
                (Request::Submit(submit(44, ReplyMode::Ack, WireBody::Usum, WireSource::Handle(0x20))), "submit 44 ack usum pat:0000000000000020", "14000000012c000000000000000004012000000000000000"),
                (Request::Submit(submit(45, ReplyMode::Full, WireBody::Fusum, WireSource::Gen(zipf_spec()))), "submit 45 full fusum 512 900 2 0.75 zipf:1.1 7", "3d000000012d00000000000000010500000200000000000084030000000000000200000000000000000000000000e83f019a9999999999f13f0700000000000000"),
                (
                    Request::Submit(submit(
                        u64::MAX,
                        ReplyMode::Ack,
                        WireBody::Panic,
                        WireSource::Gen(WireSpec {
                            elements: 1,
                            iterations: usize::MAX,
                            refs_per_iter: 3,
                            coverage: 1e-9,
                            dist: WireDist::Uniform,
                            seed: u64::MAX,
                        }),
                    )),
                    "submit 18446744073709551615 ack panic 1 18446744073709551615 3 0.000000001 uniform 18446744073709551615", "3500000001ffffffffffffffff0002000100000000000000ffffffffffffffff030000000000000095d626e80b2e113e00ffffffffffffffff",
                ),
                (Request::Submit(submit(0, ReplyMode::Ack, WireBody::Mul(i64::MIN), WireSource::Handle(u64::MAX))), "submit 0 ack mul:-9223372036854775808 pat:ffffffffffffffff", "1c0000000100000000000000000001000000000000008001ffffffffffffffff"),
                (
                    Request::Batch(vec![
                        args,
                        by_handle,
                        submit(
                            42,
                            ReplyMode::Ack,
                            WireBody::Sum,
                            WireSource::Gen(WireSpec {
                                dist: WireDist::Clustered(16),
                                ..spec()
                            }),
                        ),
                    ]),
                    "batch 3 41 full mul:-3 512 900 2 0.75 zipf:1.1 7 43 ack fsum pat:000000000000001f 42 ack sum 512 900 2 0.75 clustered:16 7", "94000000020300000029000000000000000101fdffffffffffffff00000200000000000084030000000000000200000000000000000000000000e83f019a9999999999f13f07000000000000002b000000000000000003011f000000000000002a00000000000000000000000200000000000084030000000000000200000000000000000000000000e83f02100000000700000000000000",
                ),
                (
                    Request::Batch(vec![
                        submit(77, ReplyMode::Full, WireBody::FSum, WireSource::Gen(zipf_spec())),
                        submit(78, ReplyMode::Ack, WireBody::Mul(-3), WireSource::Handle(0x2a)),
                        submit(79, ReplyMode::Ack, WireBody::Usum, WireSource::Handle(0x2b)),
                        submit(80, ReplyMode::Full, WireBody::Fusum, WireSource::Handle(0x2c)),
                    ]),
                    "batch 4 77 full fsum 512 900 2 0.75 zipf:1.1 7 78 ack mul:-3 pat:000000000000002a 79 ack usum pat:000000000000002b 80 full fusum pat:000000000000002c", "8200000002040000004d00000000000000010300000200000000000084030000000000000200000000000000000000000000e83f019a9999999999f13f07000000000000004e000000000000000001fdffffffffffffff012a000000000000004f000000000000000004012b0000000000000050000000000000000105012c00000000000000",
                ),
                (Request::Stats, "stats", "0100000003"),
                (Request::StatsV2, "stats v2", "0100000004"),
                (Request::Metrics, "metrics", "0100000005"),
                (Request::Drain, "drain", "0100000006"),
                (Request::Unquarantine(0xdead_beef_0042), "unquarantine 0000deadbeef0042", "09000000074200efbeadde0000"),
                (Request::Unquarantine(0), "unquarantine 0000000000000000", "09000000070000000000000000"),
                (
                    Request::Upload(UploadArgs {
                        token: 5,
                        num_elements: 4,
                        iter_ptr: vec![0, 2, 2, 3],
                        indices: vec![1, 3, 0],
                    }),
                    "upload 5 4 4 3 0 2 2 3 1 3 0", "350000000805000000000000000400000000000000040000000000000002000000020000000300000003000000010000000300000000000000",
                ),
                (
                    Request::Upload(UploadArgs {
                        token: 6,
                        num_elements: 0,
                        iter_ptr: vec![],
                        indices: vec![],
                    }),
                    "upload 6 0 0 0", "1900000008060000000000000000000000000000000000000000000000",
                ),
                (Request::Explain(ExplainTarget::Signature(0xabc_0042)), "explain 000000000abc0042", "0a0000000a004200bc0a00000000"),
                (Request::Explain(ExplainTarget::Handle(0x2a)), "explain pat:000000000000002a", "0a0000000a012a00000000000000"),
                (Request::Slowlog(17), "slowlog 17", "090000000b1100000000000000"),
                (Request::Slowlog(0), "slowlog 0", "090000000b0000000000000000"),
                (Request::UpgradeBin, "upgrade bin", "0100000009"),
            ]
        }

        fn responses() -> Vec<(Response, &'static str, &'static str)> {
            vec![
                (ok(9, "hash", 123_456, true, 5, 7, Payload::Checksum { len: 512, sum: -17 }), "done 9 ok hash 123456 1 5 7 sum 512 -17", "3400000081090000000000000000040000006861736840e2010000000000010500000007000000000002000000000000efffffffffffffff"),
                (ok(10, "rep", 1, false, 0, 0, Payload::Full(vec![1, -2, 3])), "done 10 ok rep 1 0 0 0 full 3 1 -2 3", "3f000000810a000000000000000003000000726570010000000000000000000000000000000001030000000100000000000000feffffffffffffff0300000000000000"),
                (ok(14, "seq", 0, false, 0, 0, Payload::Full(vec![])), "done 14 ok seq 0 0 0 0 full 0", "27000000810e00000000000000000300000073657100000000000000000000000000000000000100000000"),
                (ok(15, "lw", 2, false, 0, 0, Payload::Checksum { len: 0, sum: i64::MIN }), "done 15 ok lw 2 0 0 0 sum 0 -9223372036854775808", "32000000810f0000000000000000020000006c7702000000000000000000000000000000000000000000000000000000000000000080"),
                (ok(12, "rep", 77, false, 0, 1, Payload::ChecksumF64 { len: 3, sum: -0.125 }), "done 12 ok rep 77 0 0 1 fsum 3 -0.125", "33000000810c0000000000000000030000007265704d00000000000000000000000001000000020300000000000000000000000000c0bf"),
                (ok(16, "simd", 3, true, 2, 2, Payload::ChecksumF64 { len: 1, sum: -0.0 }), "done 16 ok simd 3 1 2 2 fsum 1 -0", "34000000811000000000000000000400000073696d6403000000000000000102000000020000000201000000000000000000000000000080"),
                (
                    ok(13, "pclr", 78, true, 1, 1, Payload::FullF64(vec![1.5, -2.25, 1e-9, std::f64::consts::PI])),
                    "done 13 ok pclr 78 1 1 1 ffull 4 1.5 -2.25 0.000000001 3.141592653589793", "48000000810d00000000000000000400000070636c724e000000000000000101000000010000000304000000000000000000f83f00000000000002c095d626e80b2e113e182d4454fb210940",
                ),
                (
                    ok(u64::MAX, "hash", u64::MAX, true, 5, 7, Payload::FullF64(vec![-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE])),
                    "done 18446744073709551615 ok hash 18446744073709551615 1 5 7 ffull 4 -0 inf -inf 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014", "4800000081ffffffffffffffff000400000068617368ffffffffffffffff01050000000700000003040000000000000000000080000000000000f07f000000000000f0ff0000000000001000",
                ),
                (ok(17, "seq", 0, false, 0, 0, Payload::FullF64(vec![])), "done 17 ok seq 0 0 0 0 ffull 0", "27000000811100000000000000000300000073657100000000000000000000000000000000000300000000"),
                (failed(11, "panic", 0xabc, "bad row 7 of 9"), "done 11 err panic 0000000000000abc bad row 7 of 9", "2d000000810b00000000000000010500000070616e6963bc0a0000000000000e00000062616420726f772037206f662039"),
                (failed(18, "rejected", 0, ""), "done 18 err rejected 0000000000000000 ", "22000000811200000000000000010800000072656a6563746564000000000000000000000000"),
                (Response::Stats(vec![("submitted".into(), 12), ("completed".into(), u64::MAX)]), "stats submitted=12 completed=18446744073709551615", "2f0000008202000000090000007375626d69747465640c0000000000000009000000636f6d706c65746564ffffffffffffffff"),
                (Response::Stats(vec![]), "stats", "050000008200000000"),
                (
                    Response::StatsV2(StatsV2 {
                        counters: vec![("completed".into(), 12), ("submitted".into(), 12)],
                        hists: vec![HistSummary {
                            name: "smartapps_exec_ns".into(),
                            label_key: "scheme".into(),
                            label_value: "hash".into(),
                            count: 40,
                            p50: 1023,
                            p95: 8191,
                            p99: 16383,
                            max: 12345,
                        }],
                        quarantined: vec![(0xabc, 17), (0xdef, 0)],
                    }),
                    "stats2 counters 2 completed=12 submitted=12 hists 1 smartapps_exec_ns:scheme:hash:40:1023:8191:16383:12345 quarantine 2 0000000000000abc:17 0000000000000def:0", "a6000000830200000009000000636f6d706c657465640c00000000000000090000007375626d69747465640c000000000000000100000011000000736d617274617070735f657865635f6e7306000000736368656d6504000000686173682800000000000000ff03000000000000ff1f000000000000ff3f000000000000393000000000000002000000bc0a0000000000001100000000000000ef0d0000000000000000000000000000",
                ),
                (Response::StatsV2(StatsV2::default()), "stats2 counters 0 hists 0 quarantine 0", "0d00000083000000000000000000000000"),
                (Response::Explained(None), "explained none", "020000008a00"),
                (Response::Explained(Some(explain_info())), "explained 00000000feed0007 d11r2s10m2 hash software 01 3 1:hash-trusted 0:recognizer-miss 0:clear features 3 references=1800 elements=512 sp=0.734 candidates 2 hash:1234.5:987.25:1 lw:inf:inf:0", "d50000008a010700edfe000000000a00000064313172327331306d32040000006861736808000000736f66747761726500010300000000000000010c000000686173682d74727573746564000f0000007265636f676e697a65722d6d6973730005000000636c656172030000000a0000007265666572656e6365730000000000209c4008000000656c656d656e74730000000000008040020000007370b0726891ed7ce73f02000000040000006861736800000000004a93400000000000da8e4001020000006c77000000000000f07f000000000000f07f00"),
                (Response::Explained(Some(explain_simd())), "explained 00000000feed0007 d11r2s10m2 hash simd 10 2 0:group-of-one 1:prefix 0:clear features 2 references=1800 sp=0.734 candidates 2 hash:1234.5:987.25:1 pclr:inf:inf:0", "b60000008a010700edfe000000000a00000064313172327331306d3204000000686173680400000073696d6401000200000000000000000c00000067726f75702d6f662d6f6e6501060000007072656669780005000000636c656172020000000a0000007265666572656e6365730000000000209c40020000007370b0726891ed7ce73f02000000040000006861736800000000004a93400000000000da8e40010400000070636c72000000000000f07f000000000000f07f00"),
                (Response::Slowlog(vec![]), "slowlog 0", "050000008b00000000"),
                (
                    Response::Slowlog(vec![
                        slowlog_entry(),
                        SlowlogEntry {
                            scheme: "-".into(),
                            winner: "-".into(),
                            error: "quarantined".into(),
                            fused: u16::MAX,
                            queue_ns: 0,
                            decide_ns: 0,
                            exec_ns: 0,
                            completion_ns: 0,
                            ..slowlog_entry()
                        },
                    ]),
                    "slowlog 2 00000000feed0007:1250000:hash:simd:none:4:10000:40000:0:1100000:100000:hash 00000000feed0007:1250000:-:simd:quarantined:65535:0:0:0:0:0:-", "be0000008b020000000700edfe00000000d01213000000000004000000686173680400000073696d64040000006e6f6e65040000001027000000000000409c0000000000000000000000000000e0c8100000000000a08601000000000004000000686173680700edfe00000000d012130000000000010000002d0400000073696d640b00000071756172616e74696e6564ffff000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000002d",
                ),
                (Response::Drained(40), "drained 40", "09000000842800000000000000"),
                (Response::Unquarantined(true), "unquarantined 1", "020000008501"),
                (Response::Unquarantined(false), "unquarantined 0", "020000008500"),
                (Response::Uploaded { token: 12, handle: 0x2a }, "uploaded 12 000000000000002a", "11000000880c000000000000002a00000000000000"),
                (Response::Upgraded, "upgraded bin", "0100000089"),
                (Response::Error("line too long".into()), "err line too long", "12000000860d0000006c696e6520746f6f206c6f6e67"),
                (Response::Error(String::new()), "err ", "050000008600000000"),
            ]
        }

        /// Lines the text parser accepts beyond the canonical form, with
        /// what they mean: runs of spaces and tabs between request fields,
        /// leading and trailing blanks, short and upper-case hex, a
        /// default count, and a trailing `\r` on a response.
        fn accepted_requests() -> Vec<(&'static str, Request)> {
            let args = submit(
                41,
                ReplyMode::Full,
                WireBody::Mul(-3),
                WireSource::Gen(zipf_spec()),
            );
            vec![
                ("slowlog", Request::Slowlog(DEFAULT_SLOWLOG)),
                (
                    "submit  41\tfull mul:-3 512  900 2 0.75 zipf:1.1 7",
                    Request::Submit(args),
                ),
                (
                    "\tbatch 1  43 ack\tfsum pat:1f  ",
                    Request::Batch(vec![submit(
                        43,
                        ReplyMode::Ack,
                        WireBody::FSum,
                        WireSource::Handle(0x1f),
                    )]),
                ),
                (
                    "submit +41 full mul:-3 512 900 2 7.5e-1 zipf:1.1 +7",
                    Request::Submit(args),
                ),
                ("stats\tv2", Request::StatsV2),
                (
                    "unquarantine deadbeef0042",
                    Request::Unquarantine(0xdead_beef_0042),
                ),
                (
                    "explain pat:2A",
                    Request::Explain(ExplainTarget::Handle(0x2a)),
                ),
                ("  drain ", Request::Drain),
            ]
        }

        fn accepted_responses() -> Vec<(&'static str, Response)> {
            vec![
                (
                    "done 9 ok hash 123456 1 5 7 sum 512 -17\r\n",
                    ok(
                        9,
                        "hash",
                        123_456,
                        true,
                        5,
                        7,
                        Payload::Checksum { len: 512, sum: -17 },
                    ),
                ),
                (
                    "done 9 ok hash 123456 1 5 7  sum\t512 -17",
                    ok(
                        9,
                        "hash",
                        123_456,
                        true,
                        5,
                        7,
                        Payload::Checksum { len: 512, sum: -17 },
                    ),
                ),
                (
                    "done 11 err panic 0000000000000abc bad row 7 of 9\r\n",
                    failed(11, "panic", 0xabc, "bad row 7 of 9"),
                ),
                (
                    "done 11 err panic abc  two spaces\r",
                    failed(11, "panic", 0xabc, " two spaces"),
                ),
                (
                    "stats  submitted=12\tcompleted=1\r",
                    Response::Stats(vec![("submitted".into(), 12), ("completed".into(), 1)]),
                ),
                (
                    "err line too long\r\n",
                    Response::Error("line too long".into()),
                ),
                ("err", Response::Error(String::new())),
                ("explained none\r\n", Response::Explained(None)),
                ("drained 40 ", Response::Drained(40)),
                ("upgraded bin\n", Response::Upgraded),
            ]
        }

        const METRICS: &[u8] = b"# TYPE smartapps_request_ns histogram\n...";

        #[test]
        fn golden_corpus_pins_text_and_binary_bytes() {
            for (req, line, frame) in requests() {
                assert_eq!(req.encode(), line, "text of {req:?}");
                assert_eq!(Request::parse(line), Ok(req.clone()), "line: {line}");
                let bytes = wire2::encode_request(&req);
                assert_eq!(hex(&bytes), frame, "frame of {req:?}");
                let (kind, body) = split(&bytes);
                assert_eq!(wire2::decode_request(kind, &body), Ok(req));
            }
            for (resp, line, frame) in responses() {
                assert_eq!(resp.encode(), line, "text of {resp:?}");
                assert_eq!(Response::parse(line), Ok(resp.clone()), "line: {line}");
                let bytes = wire2::encode_response(&resp);
                assert_eq!(hex(&bytes), frame, "frame of {resp:?}");
                let (kind, body) = split(&bytes);
                assert_eq!(
                    wire2::decode_response(kind, &body),
                    Ok(BinMsg::Response(Box::new(resp)))
                );
            }
            // The metrics reply, outside both enums, in both protocols.
            assert_eq!(
                metrics_frame(METRICS),
                b"metrics 41\n# TYPE smartapps_request_ns histogram\n...".to_vec()
            );
            let bytes = wire2::encode_metrics_frame(METRICS);
            assert_eq!(
                hex(&bytes),
                "2a0000008723205459504520736d617274617070735f726571756573745f6e7320686973746f6772616d0a2e2e2e"
            );
            let (kind, body) = split(&bytes);
            assert_eq!(
                wire2::decode_response(kind, &body),
                Ok(BinMsg::Metrics(METRICS.to_vec()))
            );
            for (line, req) in accepted_requests() {
                assert_eq!(Request::parse(line), Ok(req), "line: {line:?}");
            }
            for (line, resp) in accepted_responses() {
                assert_eq!(Response::parse(line), Ok(resp), "line: {line:?}");
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for line in [
            "",
            "submit",
            "submit 1 ack sum 0 900 2 0.75 uniform 7", // elements 0 OK at parse...
            "submit x ack sum 512 900 2 0.75 uniform 7", // bad token
            "submit 1 nope sum 512 900 2 0.75 uniform 7", // bad reply
            "submit 1 ack warp 512 900 2 0.75 uniform 7", // bad body
            "submit 1 ack sum 512 900 2 1.5e nope 7",  // bad coverage/dist
            "batch 2 1 ack sum 512 900 2 0.75 uniform 7", // short batch
            "batch x",                                 // bad count
            "stats now",                               // trailing junk
            "unquarantine zz",                         // bad hex
            "warp 9",                                  // unknown verb
            "submit 1 ack sum pat:zz",                 // bad handle hex
            "submit 1 ack sum pat:2a 99",              // trailing fields
            "upload 1 4 2 1 0 2 3 9",                  // count mismatch
            "upload 1 4 2 x 0 2",                      // bad length field
            "upgrade text",                            // unknown upgrade mode
            "explain",                                 // missing target
            "explain zz",                              // bad hex
            "explain pat:zz",                          // bad handle hex
            "explain abc def",                         // trailing junk
            "slowlog x",                               // bad count
        ] {
            // Line 3 parses (validation is a separate step); all others fail.
            let parsed = Request::parse(line);
            if line.starts_with("submit 1 ack sum 0") {
                let Ok(Request::Submit(args)) = parsed else {
                    panic!("zero-element submit should parse, validation rejects it")
                };
                let WireSource::Gen(spec) = args.source else {
                    panic!("generator submit should carry a spec")
                };
                assert!(spec.validate().is_err());
            } else {
                assert!(parsed.is_err(), "should reject: {line}");
            }
        }
        for line in [
            "done",
            "done 9 ok",
            "done 9 ok hash 1 2 0 0 sum 1", // bad profile_hit field
            "done 9 ok hash 1 1 0 0 full 3 1 2", // undersized full payload
            "done 9 err panic",
            "drained x",
            "unquarantined 2",
            "bogus",
            "stats2",                                      // no sections
            "stats2 counters 1",                           // truncated counters
            "stats2 counters 0 hists 1 a:b quarantine 0",  // short digest
            "stats2 counters 0 hists 0 quarantine 1 zz:3", // bad signature
            "stats2 counters 0 hists 0 quarantine 0 junk", // trailing fields
            "stats2 hists 0 counters 0 quarantine 0",      // sections out of order
            "uploaded 5",                                  // missing handle
            "uploaded x 2a",                               // bad token
            "upgraded text",                               // unknown mode
            "done 9 ok hash 1 1 0 0 ffull 2 1.5",          // undersized f64 payload
            "explained",                                   // empty record
            "explained zz d1r1s1m1 hash software 00 0 0:a 0:b 0:c features 0 candidates 0", // bad sig
            "explained 2a d1r1s1m1 hash software 02 0 0:a 0:b 0:c features 0 candidates 0", // bad flags
            "explained 2a d1r1s1m1 hash software 00 0 0:a 0:b 0:c features 1 candidates 0", // short features
            "explained 2a d1r1s1m1 hash software 00 0 0:a 0:b 0:c features 0 candidates 1 hash:1:2", // short candidate row
            "explained 2a d1r1s1m1 hash software 00 0 0:a 0:b 0:c candidates 0 features 0", // sections out of order
            "slowlog",                            // no count
            "slowlog 2 a",                        // declared 2, got 1
            "slowlog 1 zz:1:a:b:c:0:0:0:0:0:0:d", // bad class hex
            "slowlog 1 toofew:1",                 // short entry
        ] {
            assert!(Response::parse(line).is_err(), "should reject: {line}");
        }
    }

    #[test]
    fn spec_validation_bounds() {
        assert!(spec().validate().is_ok());
        assert!(WireSpec {
            coverage: 0.0,
            ..spec()
        }
        .validate()
        .is_err());
        assert!(WireSpec {
            coverage: f64::NAN,
            ..spec()
        }
        .validate()
        .is_err());
        assert!(WireSpec {
            iterations: 0,
            ..spec()
        }
        .validate()
        .is_err());
        assert!(WireSpec {
            dist: WireDist::Zipf(f64::INFINITY),
            ..spec()
        }
        .validate()
        .is_err());
        assert_eq!(spec().total_refs(), 1800);
        assert_eq!(
            WireSpec {
                iterations: usize::MAX,
                refs_per_iter: 3,
                ..spec()
            }
            .total_refs(),
            usize::MAX,
            "ref accounting must saturate, not wrap"
        );
    }

    #[test]
    fn checksum_wraps() {
        assert_eq!(checksum(&[1, 2, 3]), 6);
        assert_eq!(checksum(&[i64::MAX, 1]), i64::MIN);
        assert_eq!(checksum(&[]), 0);
    }
}
