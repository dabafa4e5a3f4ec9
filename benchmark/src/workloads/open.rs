//! `wire_open_mixed`: an open loop — requests are sent when they are
//! due, whether or not earlier replies have arrived.
//!
//! Two tenants, each an independent Poisson stream drawn from the seed:
//! a light one on the **text** protocol (1 200-reference jobs, acks) and
//! a heavy one on binary wire v2 (≈ 100 k-reference f64 jobs by uploaded
//! handle, `full` payload replies).  The rate goes through three steps,
//! 0.6x / 1.0x / 1.4x of the committed base rate; the end-to-end figures
//! come from the 1.0x step.  Latency runs from the *due* time, so a stall
//! that delays later sends is charged to the requests it delayed.  Rounds
//! are 100-ms windows.  This is where queueing, head-of-line blocking
//! between tenants, the text codec and the reply write path show.
//!
//! One load-generator thread drives both connections through its own
//! nonblocking sockets and the public `wire` / `wire2` codecs; the
//! blocking `Client` cannot send on time while it waits for a reply.

use super::closed::{small_classes, SmallClass};
use super::{cold_starts, io, Service};
use crate::catalogue as cat;
use crate::estimate;
use crate::gen::{self, Arrival, Rng};
use crate::os;
use crate::run::{self, Budget, Goodput, Outcome, Recorder, RunArgs};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::verify::{self, Expected};
use smartapps_server::wire2::{self, FrameBuf, FrameStep};
use smartapps_server::{
    BinMsg, Client, DoneMsg, ReplyMode, Request, Response, SubmitArgs, UploadArgs, WireBody,
    WireSource, DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One arrival in this many is traced with all its spans.
const TRACE_SAMPLE: u64 = 8;

struct HeavyClass {
    pattern: smartapps_workloads::AccessPattern,
    expected: Expected,
}

/// A connection the open loop owns: nonblocking socket, the protocol it
/// speaks, and the bytes that have arrived but not yet made a message.
struct RawConn {
    stream: TcpStream,
    binary: bool,
    frames: FrameBuf,
    line: Vec<u8>,
    unsent: Vec<u8>,
    /// Scratch for `read`, kept so a poll does not clear 64 KiB of stack.
    scratch: Vec<u8>,
}

impl RawConn {
    /// Connect (and negotiate binary wire v2 when asked) with blocking
    /// I/O, then switch the socket to nonblocking.
    fn connect(addr: SocketAddr, binary: bool) -> Result<RawConn, String> {
        let mut stream = io("connect", TcpStream::connect(addr))?;
        io("nodelay", stream.set_nodelay(true))?;
        if binary {
            let mut line = Request::UpgradeBin.encode();
            line.push('\n');
            io("upgrade bin", stream.write_all(line.as_bytes()))?;
            let mut reply = Vec::new();
            let mut byte = [0u8; 1];
            while byte[0] != b'\n' {
                io("upgrade reply", stream.read_exact(&mut byte))?;
                reply.push(byte[0]);
            }
            let text = String::from_utf8_lossy(&reply);
            if Response::parse(&text) != Ok(Response::Upgraded) {
                return Err(format!("upgrade bin answered {:?}", text.trim_end()));
            }
        }
        io("nonblocking", stream.set_nonblocking(true))?;
        Ok(RawConn {
            stream,
            binary,
            frames: FrameBuf::new(),
            line: Vec::new(),
            unsent: Vec::new(),
            scratch: vec![0; 64 * 1024],
        })
    }

    /// Encode one request in the connection's protocol.
    fn encode(&self, request: &Request) -> Vec<u8> {
        if self.binary {
            wire2::encode_request(request)
        } else {
            let mut line = request.encode();
            line.push('\n');
            line.into_bytes()
        }
    }

    /// Write what fits now; the rest waits in `unsent`.
    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.unsent.extend_from_slice(bytes);
        self.flush()
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.unsent.is_empty() {
            match self.stream.write(&self.unsent) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.unsent.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Read what has arrived and hand every complete `done` to `on_done`
    /// with the time its decoding started and ended.
    fn poll(&mut self, mut on_done: impl FnMut(DoneMsg, Instant, Instant)) -> Result<(), String> {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) if self.binary => self.frames.extend(&self.scratch[..n]),
                Ok(n) => self.line.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        if self.binary {
            loop {
                let t0 = Instant::now();
                match self.frames.next_frame(DEFAULT_MAX_FRAME_BYTES)? {
                    FrameStep::NeedMore => break,
                    FrameStep::Frame { kind, body } => {
                        if let BinMsg::Response(r) = wire2::decode_response(kind, &body)? {
                            if let Response::Done(d) = *r {
                                on_done(d, t0, Instant::now());
                            }
                        }
                    }
                }
            }
        } else {
            let mut start = 0;
            while let Some(nl) = self.line[start..].iter().position(|&b| b == b'\n') {
                let t0 = Instant::now();
                let text = String::from_utf8_lossy(&self.line[start..start + nl]);
                if let Response::Done(d) = Response::parse(&text)? {
                    on_done(d, t0, Instant::now());
                }
                start += nl + 1;
            }
            self.line.drain(..start);
        }
        Ok(())
    }
}

struct Live {
    service: Service,
    light: RawConn,
    heavy: RawConn,
    handles: Vec<u64>,
}

/// Cold start to warm caches: runtime, server, the heavy patterns
/// uploaded, both tenants connected, every class answered once.
fn bring_up(small: &[SmallClass], heavy: &[HeavyClass]) -> Result<Live, String> {
    let service = Service::start(run::wire_runtime_config(None), run::server_config(64))?;
    let addr = service.server.local_addr();
    let mut setup = io("connect", Client::connect(addr))?;
    io("upgrade bin", setup.upgrade_binary())?;
    let mut handles = Vec::with_capacity(heavy.len());
    for (i, class) in heavy.iter().enumerate() {
        handles.push(io(
            "upload",
            setup.upload(UploadArgs {
                token: u64::MAX - i as u64,
                num_elements: class.pattern.num_elements,
                iter_ptr: class.pattern.iter_ptr.clone(),
                indices: class.pattern.indices.clone(),
            }),
        )?);
    }
    for (i, class) in heavy.iter().enumerate() {
        io("submit", setup.submit(heavy_args(i as u64, handles[i])))?;
        verify::check_full(&class.expected, &io("next_done", setup.next_done())?)?;
    }
    // The light classes go over a text connection, as they will later.
    let mut text = io("connect", Client::connect(addr))?;
    for (i, class) in small.iter().enumerate() {
        io("submit", text.submit(light_args(i as u64, class)))?;
        class.ack.check(&io("next_done", text.next_done())?)?;
    }
    Ok(Live {
        light: RawConn::connect(addr, false)?,
        heavy: RawConn::connect(addr, true)?,
        service,
        handles,
    })
}

fn light_args(token: u64, class: &SmallClass) -> SubmitArgs {
    SubmitArgs {
        token,
        reply: ReplyMode::Ack,
        body: WireBody::Sum,
        source: WireSource::Gen(class.spec),
    }
}

fn heavy_args(token: u64, handle: u64) -> SubmitArgs {
    SubmitArgs {
        token,
        reply: ReplyMode::Full,
        body: WireBody::FSum,
        source: WireSource::Handle(handle),
    }
}

/// What the generator knows about one arrival while it is in flight.
#[derive(Clone, Copy)]
struct Sent {
    root: SpanId,
    answered: bool,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let budget = Budget::wire(os::nproc());
    budget.check()?;
    let _one_cpu = run::confine_to_one_cpu()?;
    let mut rng = Rng::new(args.seed);
    let small = small_classes(&mut rng);
    let heavy: Vec<HeavyClass> = (0..cat::HEAVY_CLASSES)
        .map(|_| {
            let pattern = gen::heavy_pattern(rng.next_u64() >> 16);
            let expected = Expected::sum_f64(&pattern);
            HeavyClass { pattern, expected }
        })
        .collect();
    let schedule = gen::open_schedule(&mut rng, args.seconds);
    run::print_environment(
        &budget,
        &run::wire_runtime_config(None),
        Some(&run::server_config(64)),
    );
    println!(
        "schedule: {} arrivals over {} s, base rate {} light + {} heavy per second, steps {:?}",
        schedule.len(),
        args.seconds,
        cat::OPEN_LIGHT_RATE,
        cat::OPEN_HEAVY_RATE,
        cat::OPEN_STEPS
    );

    let stop = |live: Live| {
        drop((live.light, live.heavy));
        live.service.stop();
    };
    let mut cold_starts_s =
        cold_starts(cat::COLD_STARTS_OPEN / 2, || bring_up(&small, &heavy), stop)?;
    let Live {
        service,
        mut light,
        heavy: mut heavy_conn,
        handles,
    } = bring_up(&small, &heavy)?;
    let mut control = io("connect", Client::connect(service.server.local_addr()))?;
    println!(
        "env: live threads {} with the service up",
        os::live_threads()
    );

    // Step boundaries on the schedule's clock.
    let step_ends_ns: Vec<u64> = cat::OPEN_STEPS
        .iter()
        .scan(0.0, |acc, &(_, share)| {
            *acc += share * args.seconds;
            Some((*acc * 1e9) as u64)
        })
        .collect();
    let main_start_ns = step_ends_ns[cat::OPEN_MAIN_STEP - 1];
    let main_end_ns = step_ends_ns[cat::OPEN_MAIN_STEP];
    // A traced run traces the second half of the main step only.
    let trace_from_ns = (main_start_ns + main_end_ns) / 2;
    let window_ns = cat::OPEN_WINDOW_MS * 1_000_000;
    let refs_of = |a: &Arrival| -> u64 {
        if a.heavy {
            (cat::HEAVY_ITERATIONS * 2) as u64
        } else {
            (cat::SMALL_ITERATIONS * cat::SMALL_REFS_PER_ITER) as u64
        }
    };

    let mut tracer = Tracer::new(TRACE_SAMPLE);
    let mut rec = Recorder::new(cat::OPEN_SLO_US);
    let mut sent: Vec<Sent> = Vec::with_capacity(schedule.len());
    let mut lateness_us: Vec<f64> = Vec::with_capacity(schedule.len());
    let mut heavy_lat_us: Vec<f64> = Vec::new();
    // Per step: arrivals, answered within the limit, correct, references.
    let mut steps = [(0u64, 0u64, 0u64, 0u64); 3];
    let (mut backlog_main_start, mut backlog_main_end) = (None, None);
    let (mut before, mut after) = (None, None);
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let fds = [light.stream.as_raw_fd(), heavy_conn.stream.as_raw_fd()];
    let drain = Duration::from_millis(cat::OPEN_DRAIN_TIMEOUT_MS);

    let t0 = Instant::now();
    let due_at = |a: &Arrival| t0 + Duration::from_nanos(a.due_ns);
    rec.main = false;
    rec.start(t0, os::thread_cpu_ns());
    let mut window_end_ns = window_ns;
    loop {
        let now = Instant::now();
        let now_ns = (now - t0).as_nanos() as u64;
        // Close every window the clock has passed.
        while now_ns >= window_end_ns && window_end_ns <= step_ends_ns[2] {
            let start_ns = window_end_ns - window_ns;
            rec.main = start_ns >= main_start_ns && window_end_ns <= main_end_ns;
            rec.end_round(
                t0 + Duration::from_nanos(window_end_ns),
                os::thread_cpu_ns(),
                tracer.is_on(),
            );
            if window_end_ns >= main_start_ns && backlog_main_start.is_none() {
                backlog_main_start = Some(outstanding);
                if args.trace {
                    before = Some(service.reading(&mut control)?);
                }
            }
            if window_end_ns >= main_end_ns && backlog_main_end.is_none() {
                backlog_main_end = Some(outstanding);
                if args.trace {
                    after = Some(service.reading(&mut control)?);
                }
            }
            if args.trace {
                tracer.set_on(window_end_ns >= trace_from_ns && window_end_ns < main_end_ns);
            }
            window_end_ns += window_ns;
        }
        // Send everything that is due.
        while next < schedule.len() && schedule[next].due_ns <= now_ns {
            let a = schedule[next];
            let token = next as u64;
            let ts = Instant::now();
            lateness_us.push((ts - due_at(&a)).as_secs_f64() * 1e6);
            let conn = if a.heavy { &mut heavy_conn } else { &mut light };
            let request = Request::Submit(if a.heavy {
                heavy_args(token, handles[a.class as usize])
            } else {
                light_args(token, &small[a.class as usize])
            });
            let bytes = conn.encode(&request);
            let te = Instant::now();
            conn.write(&bytes)?;
            let mut root = NO_PARENT;
            if tracer.wants(token) {
                root = tracer.begin_at("wire.request", token, NO_PARENT, ts);
                tracer.record("client.encode", token, root, ts, te);
                tracer.record("client.write", token, root, te, Instant::now());
            }
            sent.push(Sent {
                root,
                answered: false,
            });
            steps[a.step as usize].0 += 1;
            outstanding += 1;
            next += 1;
        }
        // Take in every reply that has arrived.
        for conn in [&mut light, &mut heavy_conn] {
            conn.flush()?;
            conn.poll(|done, d0, d1| {
                let idx = done.token as usize;
                let Some(state) = sent.get_mut(idx).filter(|s| !s.answered) else {
                    rec.main = false;
                    rec.fail(&format!(
                        "reply for unknown or answered token {}",
                        done.token
                    ));
                    return;
                };
                state.answered = true;
                outstanding -= 1;
                let a = schedule[idx];
                let latency_us = (d1 - due_at(&a)).as_secs_f64() * 1e6;
                let checked = if a.heavy {
                    verify::check_full(&heavy[a.class as usize].expected, &done)
                } else {
                    small[a.class as usize].ack.check(&done)
                };
                if state.root != NO_PARENT {
                    let t3 = Instant::now();
                    tracer.record("client.decode", done.token, state.root, d0, d1);
                    tracer.record("verify", done.token, state.root, d1, t3);
                    tracer.end_at(state.root, t3);
                }
                let step = &mut steps[a.step as usize];
                if checked.is_ok() {
                    step.2 += 1;
                    step.3 += refs_of(&a);
                    step.1 += u64::from(latency_us <= cat::OPEN_SLO_US);
                }
                rec.main = a.step as usize == cat::OPEN_MAIN_STEP;
                if rec.main && a.heavy && checked.is_ok() {
                    heavy_lat_us.push(latency_us);
                }
                rec.checked(checked, latency_us, refs_of(&a));
            })?;
        }
        if next == schedule.len() {
            let last_due = schedule.last().map_or(t0, &due_at);
            if outstanding == 0 && now_ns >= step_ends_ns[2] {
                break;
            }
            if now > last_due + drain {
                break;
            }
        }
        let timeout = match schedule.get(next) {
            Some(a) => due_at(a).saturating_duration_since(Instant::now()),
            None => Duration::from_millis(1),
        };
        // Unsent bytes wait for the socket to drain; look again shortly.
        let timeout = if light.unsent.is_empty() && heavy_conn.unsent.is_empty() {
            timeout
        } else {
            timeout.min(Duration::from_micros(200))
        };
        if !timeout.is_zero() {
            os::wait_readable(&fds, Some(timeout));
        }
    }
    // Whatever is still unanswered timed out: failed, and past any limit.
    rec.main = false;
    for (idx, state) in sent.iter().enumerate() {
        if !state.answered {
            rec.main = schedule[idx].step as usize == cat::OPEN_MAIN_STEP;
            rec.fail(&format!(
                "arrival {idx} unanswered {drain:?} after the schedule ended"
            ));
        }
    }

    let main_span_s = (main_end_ns - main_start_ns) as f64 / 1e9;
    let main = steps[cat::OPEN_MAIN_STEP];
    let goodput = Goodput {
        jobs_per_s: main.2 as f64 / main_span_s,
        mrefs_per_s: main.3 as f64 / main_span_s / 1e6,
    };
    let backlog_start = backlog_main_start.unwrap_or(0);
    let backlog_end = backlog_main_end.unwrap_or(outstanding);
    println!(
        "steps: (arrivals, within limit, correct) {:?} | backlog at the 1.0x step: {} -> {}",
        steps.map(|s| (s.0, s.1, s.2)),
        backlog_start,
        backlog_end
    );
    lateness_us.sort_by(f64::total_cmp);
    let lateness_p95 = estimate::quantile_sorted(&lateness_us, 0.95);
    println!(
        "loadgen: lateness p50 {:.1} p95 {:.1} us",
        estimate::quantile_sorted(&lateness_us, 0.5),
        lateness_p95
    );

    let mut layers = BTreeMap::new();
    layers.insert("loadgen.lateness_p95_us", lateness_p95);
    if args.trace {
        if let (Some(before), Some(after)) = (before, after) {
            after.since(&before).layers(main_span_s, &mut layers);
        }
        layers.insert("heavy_p50_us", estimate::median(&heavy_lat_us));
        layers.insert("loadgen.backlog_end", backlog_end as f64);
        // The highest step rate whose arrivals met the limit while the
        // backlog stayed flat.
        let mut rate_in_slo = 0.0;
        for (i, &(scale, _)) in cat::OPEN_STEPS.iter().enumerate() {
            let (arrivals, within, _, _) = steps[i];
            let grew =
                i == cat::OPEN_MAIN_STEP && backlog_end > backlog_start + arrivals as usize / 100;
            if arrivals > 0
                && within as f64 / arrivals as f64 >= cat::OPEN_RATE_IN_SLO_SHARE
                && !grew
            {
                rate_in_slo = scale * (cat::OPEN_LIGHT_RATE + cat::OPEN_HEAVY_RATE);
            }
        }
        layers.insert("loadgen.rate_in_slo", rate_in_slo);
        // The schedule fixes the throughput here, so tracing shows in the
        // latency: traced half of the main step against the untraced half.
        let untraced = run::phase_figures(&rec.rounds, Some(false)).latency_p50_us;
        let traced = run::phase_figures(&rec.rounds, Some(true)).latency_p50_us;
        layers.insert(
            "trace.overhead_share",
            if untraced > 0.0 {
                traced / untraced - 1.0
            } else {
                0.0
            },
        );
    }
    println!(
        "env: live threads {} at the end of the phase",
        os::live_threads()
    );
    drop((control, light, heavy_conn));
    service.stop();
    cold_starts_s.extend(cold_starts(
        cat::COLD_STARTS_OPEN / 2,
        || bring_up(&small, &heavy),
        stop,
    )?);
    Ok(Outcome {
        recorder: rec,
        cold_starts_s,
        goodput: Some(goodput),
        layers,
        tracer,
    })
}
