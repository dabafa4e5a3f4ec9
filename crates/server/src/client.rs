//! The client side of the wire protocol: a thin blocking library over
//! one TCP connection, used by `examples/network_service.rs` and
//! `smartbench`'s wire workloads.  A connection starts in the text protocol;
//! [`upgrade_binary`](Client::upgrade_binary) negotiates binary wire v2
//! and every later request and response rides length-prefixed frames
//! with exact i64/f64 bodies.
//!
//! Responses to control requests (`stats`, `stats v2`, `metrics`,
//! `drain`, `unquarantine`, `upload`, `explain`, `slowlog`, `upgrade
//! bin`) interleave with asynchronous `done` messages on the same
//! socket; every control call goes through one helper that stashes the
//! `done` messages it reads while waiting, and
//! [`next_done`](Client::next_done) consumes the stash before touching
//! the socket — no message is ever dropped or reordered within its
//! kind.

use crate::codec::Proto;
use crate::wire::{
    DoneMsg, DoneOutcome, ExplainInfo, ExplainTarget, Request, Response, SlowlogEntry, StatsV2,
    SubmitArgs, UploadArgs,
};
use crate::wire2::{self, BinMsg};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::mem::take;
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking client for one `smartapps-server` connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stashed: VecDeque<DoneMsg>,
    binary: bool,
}

/// A `call` picker taking the one response variant the call waits for.
macro_rules! want {
    ($pat:pat => $out:expr) => {
        |m: &mut BinMsg| match m {
            BinMsg::Response(r) => match &mut **r {
                $pat => Some(Ok($out)),
                _ => None,
            },
            BinMsg::Metrics(_) => None,
        }
    };
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
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
        let proto = if self.binary { Proto::Bin } else { Proto::Text };
        self.writer.write_all(&proto.encode(request))
    }

    /// Read one message in the connection's protocol (blocking): a
    /// response, or the metrics reply.  A protocol error from the server
    /// and an unparsable message are both `InvalidData`.
    fn read(&mut self) -> io::Result<BinMsg> {
        let msg = if self.binary {
            let mut head = [0u8; wire2::FRAME_HEADER_BYTES];
            self.reader.read_exact(&mut head)?;
            let len = u32::from_le_bytes(head);
            if len == 0 || len > wire2::DEFAULT_MAX_FRAME_BYTES {
                return Err(invalid(format!("bad frame length {len}")));
            }
            let mut frame = vec![0u8; len as usize];
            self.reader.read_exact(&mut frame)?;
            wire2::decode_response(frame[0], &frame[1..])
                .map_err(|e| invalid(format!("unparsable frame: {e}")))?
        } else {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if let Some(len) = line.trim_end().strip_prefix("metrics ") {
                let len: usize = len
                    .parse()
                    .map_err(|e| invalid(format!("bad metrics frame length: {e}")))?;
                let mut body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
                return Ok(BinMsg::Metrics(body));
            }
            let r = Response::parse(&line).map_err(|e| {
                invalid(format!(
                    "unparsable response: {e} (line: {})",
                    line.trim_end()
                ))
            })?;
            BinMsg::Response(Box::new(r))
        };
        if let BinMsg::Response(r) = &msg {
            if let Response::Error(e) = &**r {
                return Err(invalid(format!("server protocol error: {e}")));
            }
        }
        Ok(msg)
    }

    /// Send a control request, then read until `pick` takes a reply.
    /// Every `done` read meanwhile is stashed for
    /// [`next_done`](Client::next_done); other unwanted replies are
    /// dropped.
    fn call<T>(
        &mut self,
        request: &Request,
        mut pick: impl FnMut(&mut BinMsg) -> Option<io::Result<T>>,
    ) -> io::Result<T> {
        self.send(request)?;
        loop {
            let mut msg = self.read()?;
            if let Some(result) = pick(&mut msg) {
                return result;
            }
            if let BinMsg::Response(r) = msg {
                if let Response::Done(d) = *r {
                    self.stashed.push_back(d);
                }
            }
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
        self.call(&Request::UpgradeBin, want!(Response::Upgraded => ()))?;
        self.binary = true;
        Ok(())
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
        self.call(&Request::Upload(args), |m| match m {
            BinMsg::Response(r) => match &**r {
                Response::Uploaded { token: t, handle } if *t == token => Some(Ok(*handle)),
                Response::Done(DoneMsg {
                    token: t,
                    outcome: DoneOutcome::Err { message, .. },
                }) if *t == token => Some(Err(invalid(format!("upload rejected: {message}")))),
                _ => None,
            },
            BinMsg::Metrics(_) => None,
        })
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
            // A control response nobody is waiting for (e.g. a drained
            // barrier read late) is dropped; done messages are never
            // dropped.
            if let BinMsg::Response(r) = self.read()? {
                if let Response::Done(d) = *r {
                    return Ok(d);
                }
            }
        }
    }

    /// Request and return the runtime's service counters as ordered
    /// `(name, value)` pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        self.call(
            &Request::Stats,
            want!(Response::Stats(pairs) => take(pairs)),
        )
    }

    /// Request the richer `stats v2` snapshot: sorted service counters,
    /// per-series latency-histogram digests, and quarantined workload
    /// classes with their remaining TTLs.
    pub fn stats_v2(&mut self) -> io::Result<StatsV2> {
        self.call(&Request::StatsV2, want!(Response::StatsV2(v2) => take(v2)))
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
        self.call(&Request::Metrics, |m| match m {
            BinMsg::Metrics(body) => Some(
                String::from_utf8(take(body))
                    .map_err(|e| invalid(format!("metrics body is not UTF-8: {e}"))),
            ),
            BinMsg::Response(_) => None,
        })
    }

    /// Flush barrier: block until every job submitted on this connection
    /// has produced its `done` line (all of which are stashed for
    /// [`next_done`](Client::next_done)); returns the connection's total
    /// completed-job count.
    pub fn drain(&mut self) -> io::Result<u64> {
        self.call(&Request::Drain, want!(Response::Drained(n) => *n))
    }

    /// Lift the quarantine of a workload class (the signature reported on
    /// `quarantined` error responses).  Returns whether the server found
    /// ledger state to clear.
    pub fn unquarantine(&mut self, signature: u64) -> io::Result<bool> {
        self.call(
            &Request::Unquarantine(signature),
            want!(Response::Unquarantined(found) => *found),
        )
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
        self.call(
            &Request::Explain(target),
            want!(Response::Explained(info) => info.take()),
        )
    }

    /// Fetch the server's slowest retained jobs, slowest first — at most
    /// `n` entries (the server clamps to its own cap), each with
    /// per-stage latency attribution (queue / decide / simplify-probe /
    /// exec / completion) and the decision winner in force when the job
    /// completed.
    pub fn slowlog(&mut self, n: usize) -> io::Result<Vec<SlowlogEntry>> {
        self.call(
            &Request::Slowlog(n),
            want!(Response::Slowlog(entries) => take(entries)),
        )
    }

    /// Finished jobs read ahead of schedule while waiting for a control
    /// response.
    pub fn stashed(&self) -> usize {
        self.stashed.len()
    }
}
