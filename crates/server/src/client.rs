//! The client side of the wire protocol: a thin blocking library over
//! one TCP connection, used by `examples/network_service.rs` and
//! `smartbench`'s wire workloads.  A connection starts in the text protocol;
//! [`upgrade_binary`](Client::upgrade_binary) negotiates binary wire v2
//! and every later request and response rides length-prefixed frames
//! with exact i64/f64 bodies.
//!
//! Responses to control requests (`stats`, `stats v2`, `metrics`,
//! `drain`, `unquarantine`, `upload`) interleave with asynchronous
//! `done` messages on the same socket; the client stashes `done`
//! messages it reads while waiting for a control response, and
//! [`next_done`](Client::next_done) consumes the stash before touching
//! the socket — no message is ever dropped or reordered within its
//! kind.

use crate::wire::{
    DoneMsg, DoneOutcome, ExplainInfo, ExplainTarget, Request, Response, SlowlogEntry, StatsV2,
    SubmitArgs, UploadArgs,
};
use crate::wire2::{self, BinMsg};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking client for one `smartapps-server` connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stashed: VecDeque<DoneMsg>,
    binary: bool,
}

impl Client {
    /// Connect to a server (e.g. the address from
    /// [`Server::local_addr`](crate::Server::local_addr)).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            stashed: VecDeque::new(),
            binary: false,
        })
    }

    /// Whether this connection has negotiated binary wire v2.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        if self.binary {
            self.writer.write_all(&wire2::encode_request(request))
        } else {
            let mut line = request.encode();
            line.push('\n');
            self.writer.write_all(line.as_bytes())
        }
    }

    /// Read one binary frame off the socket (blocking).
    fn read_frame(&mut self) -> io::Result<BinMsg> {
        let mut head = [0u8; wire2::FRAME_HEADER_BYTES];
        self.reader.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head);
        if len == 0 || len > wire2::DEFAULT_MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        let mut frame = vec![0u8; len as usize];
        self.reader.read_exact(&mut frame)?;
        wire2::decode_response(frame[0], &frame[1..]).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("unparsable frame: {e}"))
        })
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let response = if self.binary {
            loop {
                match self.read_frame()? {
                    BinMsg::Response(r) => break *r,
                    // An unsolicited metrics frame nobody is waiting for.
                    BinMsg::Metrics(_) => continue,
                }
            }
        } else {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Response::parse(&line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparsable response: {e} (line: {})", line.trim_end()),
                )
            })?
        };
        match response {
            Response::Error(msg) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server protocol error: {msg}"),
            )),
            r => Ok(r),
        }
    }

    /// Negotiate binary wire v2 for the rest of this connection.
    ///
    /// Call only with no jobs in flight (the server refuses otherwise:
    /// a `done` racing the upgrade could interleave text and frames).
    /// The request and its `upgraded bin` acknowledgment are the
    /// connection's last text lines.
    pub fn upgrade_binary(&mut self) -> io::Result<()> {
        if self.binary {
            return Ok(());
        }
        self.send(&Request::UpgradeBin)?;
        loop {
            match self.read_response()? {
                Response::Upgraded => {
                    self.binary = true;
                    return Ok(());
                }
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Upload a CSR access pattern; returns the server's handle for it,
    /// usable in [`WireSource::Handle`](crate::WireSource::Handle)
    /// submissions on any connection.  Re-uploading an identical
    /// structure returns the same handle (the server interns by
    /// content).  A rejected upload (invalid CSR, admission cap, intern
    /// table full) fails with `InvalidData` and leaves the connection
    /// usable.
    ///
    /// Give the upload a token distinct from any in-flight job's: the
    /// rejection reply is a `done … err` for that token.
    pub fn upload(&mut self, args: UploadArgs) -> io::Result<u64> {
        let token = args.token;
        self.send(&Request::Upload(args))?;
        loop {
            match self.read_response()? {
                Response::Uploaded { token: t, handle } if t == token => return Ok(handle),
                Response::Done(d) => {
                    if d.token == token {
                        if let DoneOutcome::Err { message, .. } = d.outcome {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("upload rejected: {message}"),
                            ));
                        }
                    }
                    self.stashed.push_back(d);
                }
                _ => continue,
            }
        }
    }

    /// Submit one job; its `done` arrives asynchronously via
    /// [`next_done`](Client::next_done).
    pub fn submit(&mut self, args: SubmitArgs) -> io::Result<()> {
        self.send(&Request::Submit(args))
    }

    /// Submit several jobs in one request (they coalesce — and same-spec
    /// members can fuse — server-side).
    pub fn submit_batch(&mut self, jobs: Vec<SubmitArgs>) -> io::Result<()> {
        self.send(&Request::Batch(jobs))
    }

    /// Block for the next finished job (stash first, then socket).
    pub fn next_done(&mut self) -> io::Result<DoneMsg> {
        if let Some(d) = self.stashed.pop_front() {
            return Ok(d);
        }
        loop {
            match self.read_response()? {
                Response::Done(d) => return Ok(d),
                // A control response nobody is waiting for (e.g. a
                // drained barrier read late) is dropped; done messages
                // are never dropped.
                _ => continue,
            }
        }
    }

    /// Request and return the runtime's service counters as ordered
    /// `(name, value)` pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        self.send(&Request::Stats)?;
        loop {
            match self.read_response()? {
                Response::Stats(pairs) => return Ok(pairs),
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Request the richer `stats v2` snapshot: sorted service counters,
    /// per-series latency-histogram digests, and quarantined workload
    /// classes with their remaining TTLs.
    pub fn stats_v2(&mut self) -> io::Result<StatsV2> {
        self.send(&Request::StatsV2)?;
        loop {
            match self.read_response()? {
                Response::StatsV2(v2) => return Ok(v2),
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Request the Prometheus-style text exposition of every histogram
    /// and counter in the process (runtime and server series alike).
    ///
    /// In the text protocol the reply is its one length-prefixed frame
    /// (`metrics <len>` header line, then `<len>` raw bytes); in binary
    /// mode it is an ordinary metrics frame.  `done` messages read while
    /// waiting are stashed for [`next_done`](Client::next_done) as
    /// usual.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.send(&Request::Metrics)?;
        if self.binary {
            loop {
                match self.read_frame()? {
                    BinMsg::Metrics(body) => {
                        return String::from_utf8(body).map_err(|e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("metrics body is not UTF-8: {e}"),
                            )
                        })
                    }
                    BinMsg::Response(r) => match *r {
                        Response::Done(d) => self.stashed.push_back(d),
                        Response::Error(msg) => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("server protocol error: {msg}"),
                            ))
                        }
                        _ => continue,
                    },
                }
            }
        }
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if let Some(len) = line.trim_end().strip_prefix("metrics ") {
                let len: usize = len.trim().parse().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad metrics frame length: {e}"),
                    )
                })?;
                let mut body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
                return String::from_utf8(body).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("metrics body is not UTF-8: {e}"),
                    )
                });
            }
            match Response::parse(&line) {
                Ok(Response::Done(d)) => self.stashed.push_back(d),
                Ok(Response::Error(msg)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server protocol error: {msg}"),
                    ))
                }
                _ => continue,
            }
        }
    }

    /// Flush barrier: block until every job submitted on this connection
    /// has produced its `done` line (all of which are stashed for
    /// [`next_done`](Client::next_done)); returns the connection's total
    /// completed-job count.
    pub fn drain(&mut self) -> io::Result<u64> {
        self.send(&Request::Drain)?;
        loop {
            match self.read_response()? {
                Response::Drained(n) => return Ok(n),
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Lift the quarantine of a workload class (the signature reported on
    /// `quarantined` error responses).  Returns whether the server found
    /// ledger state to clear.
    pub fn unquarantine(&mut self, signature: u64) -> io::Result<bool> {
        self.send(&Request::Unquarantine(signature))?;
        loop {
            match self.read_response()? {
                Response::Unquarantined(found) => return Ok(found),
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Fetch the latest decision record for a workload class — the full
    /// "why" behind its scheme choice: feature vector, the
    /// analytic-vs-corrected candidate cost table with feasibility
    /// masks, gate verdicts, and the winning scheme/backend.  `Ok(None)`
    /// means the server has not ranked that class yet.  Target a class
    /// by its signature (as reported on `done` errors or in `stats v2`
    /// quarantine rows) or by an uploaded pattern's handle
    /// ([`ExplainTarget::Handle`]).
    pub fn explain(&mut self, target: ExplainTarget) -> io::Result<Option<ExplainInfo>> {
        self.send(&Request::Explain(target))?;
        loop {
            match self.read_response()? {
                Response::Explained(info) => return Ok(info),
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Fetch the server's slowest retained jobs, slowest first — at most
    /// `n` entries (the server clamps to its own cap), each with
    /// per-stage latency attribution (queue / decide / simplify-probe /
    /// exec / completion) and the decision winner in force when the job
    /// completed.
    pub fn slowlog(&mut self, n: usize) -> io::Result<Vec<SlowlogEntry>> {
        self.send(&Request::Slowlog(n))?;
        loop {
            match self.read_response()? {
                Response::Slowlog(entries) => return Ok(entries),
                Response::Done(d) => self.stashed.push_back(d),
                _ => continue,
            }
        }
    }

    /// Finished jobs read ahead of schedule while waiting for a control
    /// response.
    pub fn stashed(&self) -> usize {
        self.stashed.len()
    }
}
