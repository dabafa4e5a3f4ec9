//! `wire_closed_small`: a closed loop of hot 1 200-reference jobs.
//!
//! One load-generator thread keeps two binary-wire-v2 connections at a
//! window of 16 each: it reads one `done` from a connection and submits
//! that connection's next job.  Four classes cycle, two submitted by
//! inline spec and two by uploaded handle; every reply is an ack whose
//! checksum is compared with the oracle's.  A round is 1 000 answered
//! jobs.  Every cache hits and the kernel is a few microseconds, so the
//! reactor, `wire2`, the pattern cache and the runtime's
//! queue/dispatch/completion path do nearly all the work.

use super::{cold_starts, io, Service, UNTRACED_SHARE};
use crate::catalogue as cat;
use crate::gen::{self, Rng};
use crate::os;
use crate::run::{self, Budget, Outcome, Recorder, RunArgs};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::verify::{Expected, ExpectedAck};
use smartapps_server::{Client, ReplyMode, SubmitArgs, UploadArgs, WireBody, WireSource, WireSpec};
use smartapps_workloads::AccessPattern;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One request in this many is traced with all its spans.
const TRACE_SAMPLE: u64 = 64;
/// Slots of the in-flight table; far above the 32 requests in flight.
const RING: usize = 256;

pub struct SmallClass {
    pub spec: WireSpec,
    pub pattern: AccessPattern,
    pub ack: ExpectedAck,
}

pub fn small_classes(rng: &mut Rng) -> Vec<SmallClass> {
    (0..cat::SMALL_CLASSES)
        .map(|_| {
            let spec = gen::small_spec(rng.next_u64() >> 16);
            let pattern = spec.to_pattern_spec().generate();
            let ack = ExpectedAck::of(&Expected::sum_i64(&pattern));
            SmallClass { spec, pattern, ack }
        })
        .collect()
}

/// The `RunArgs::corrupt_oracle` test hook: one wrong bit in what the
/// oracle expects of a class (flipping it again restores the truth).
#[cfg(test)]
fn flip_one_expected_bit(class: &mut SmallClass) {
    if let ExpectedAck::I64 { sum, .. } = &mut class.ack {
        *sum ^= 1;
    }
}

struct Live {
    service: Service,
    conns: Vec<Client>,
    sources: Vec<WireSource>,
}

fn submit_args(token: u64, source: WireSource) -> SubmitArgs {
    SubmitArgs {
        token,
        reply: ReplyMode::Ack,
        body: WireBody::Sum,
        source,
    }
}

/// Cold start to warm caches: runtime, server, two upgraded connections,
/// the second half of the classes uploaded, and every class answered
/// once correctly.
fn bring_up(classes: &[SmallClass]) -> Result<Live, String> {
    let service = Service::start(run::wire_runtime_config(None), run::server_config(64))?;
    let addr = service.server.local_addr();
    let mut conns = Vec::with_capacity(cat::CLOSED_CONNS);
    for _ in 0..cat::CLOSED_CONNS {
        let mut c = io("connect", Client::connect(addr))?;
        io("upgrade bin", c.upgrade_binary())?;
        conns.push(c);
    }
    let mut sources = Vec::with_capacity(classes.len());
    for (i, class) in classes.iter().enumerate() {
        if i < classes.len() / 2 {
            sources.push(WireSource::Gen(class.spec));
        } else {
            let handle = io(
                "upload",
                conns[0].upload(UploadArgs {
                    token: u64::MAX - i as u64,
                    num_elements: class.pattern.num_elements,
                    iter_ptr: class.pattern.iter_ptr.clone(),
                    indices: class.pattern.indices.clone(),
                }),
            )?;
            sources.push(WireSource::Handle(handle));
        }
    }
    for (i, class) in classes.iter().enumerate() {
        let conn = &mut conns[i % cat::CLOSED_CONNS];
        io("submit", conn.submit(submit_args(i as u64, sources[i])))?;
        let done = io("next_done", conn.next_done())?;
        class.ack.check(&done)?;
    }
    Ok(Live {
        service,
        conns,
        sources,
    })
}

/// The in-flight table: when each outstanding token was sent and the
/// root span it is traced under.
struct InFlight {
    slots: Vec<(u64, Instant, SpanId)>,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            slots: vec![(u64::MAX, Instant::now(), NO_PARENT); RING],
        }
    }
    fn put(&mut self, token: u64, at: Instant, root: SpanId) {
        self.slots[token as usize % RING] = (token, at, root);
    }
    fn take(&mut self, token: u64) -> Option<(Instant, SpanId)> {
        let slot = &mut self.slots[token as usize % RING];
        (slot.0 == token).then(|| {
            slot.0 = u64::MAX;
            (slot.1, slot.2)
        })
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let budget = Budget::wire(os::nproc());
    budget.check()?;
    let _one_cpu = run::confine_to_one_cpu()?;
    let mut rng = Rng::new(args.seed);
    // Mutated by the `corrupt_oracle` test hook alone.
    #[cfg_attr(not(test), allow(unused_mut))]
    let mut classes = small_classes(&mut rng);
    run::print_environment(
        &budget,
        &run::wire_runtime_config(None),
        Some(&run::server_config(64)),
    );

    let stop = |live: Live| {
        drop(live.conns);
        live.service.stop();
    };
    let mut cold_starts_s = cold_starts(cat::COLD_STARTS_CLOSED / 2, || bring_up(&classes), stop)?;
    let Live {
        service,
        mut conns,
        sources,
    } = bring_up(&classes)?;
    let mut control = io("connect", Client::connect(service.server.local_addr()))?;
    println!(
        "env: live threads {} with the service up",
        os::live_threads()
    );

    let mut tracer = Tracer::new(TRACE_SAMPLE);
    let mut rec = Recorder::new(cat::CLOSED_SLO_US);
    let mut inflight = InFlight::new();
    let mut next_token = cat::SMALL_CLASSES as u64;
    let refs_per_job = (cat::SMALL_ITERATIONS * cat::SMALL_REFS_PER_ITER) as u64;

    let mut submit = |conn: &mut Client, tracer: &mut Tracer, inflight: &mut InFlight| {
        let token = next_token;
        next_token += 1;
        let source = sources[token as usize % sources.len()];
        let t0 = Instant::now();
        let sent = conn.submit(submit_args(token, source));
        let mut root = NO_PARENT;
        if tracer.wants(token) {
            root = tracer.begin_at("wire.request", token, NO_PARENT, t0);
            tracer.record("client.submit", token, root, t0, Instant::now());
        }
        inflight.put(token, t0, root);
        io("submit", sent)
    };

    // Fill both windows, then warm up for a few rounds before the clock
    // starts: the first jobs after a cold start still fault pages in.
    for conn in conns.iter_mut() {
        for _ in 0..cat::CLOSED_WINDOW {
            submit(conn, &mut tracer, &mut inflight)?;
        }
    }
    let warmup_jobs = 3 * cat::CLOSED_ROUND_JOBS;
    let measure = Duration::from_secs_f64(args.seconds);
    let mut answered = 0usize;
    let mut measuring = false;
    let mut deadline = Instant::now() + measure;
    let mut trace_from = deadline;
    let mut before = None;
    let mut stopping = false;
    let mut outstanding = vec![cat::CLOSED_WINDOW; conns.len()];
    let mut decode_cpu = (0u64, 0u64);

    while outstanding.iter().any(|&n| n > 0) {
        for c in 0..conns.len() {
            if outstanding[c] == 0 {
                continue;
            }
            let probe_cpu = tracer.is_on() && answered.is_multiple_of(TRACE_SAMPLE as usize);
            let cpu0 = if probe_cpu { os::thread_cpu_ns() } else { 0 };
            let t1 = Instant::now();
            let done = io("next_done", conns[c].next_done())?;
            let t2 = Instant::now();
            if probe_cpu {
                decode_cpu = (decode_cpu.0 + os::thread_cpu_ns() - cpu0, decode_cpu.1 + 1);
            }
            outstanding[c] -= 1;
            let class = &classes[done.token as usize % classes.len()];
            match inflight.take(done.token) {
                None => rec.fail(&format!("reply for unknown token {}", done.token)),
                Some((sent, root)) => {
                    let checked = class.ack.check(&done);
                    if root != NO_PARENT {
                        let t3 = Instant::now();
                        tracer.record("client.next_done", done.token, root, t1, t2);
                        tracer.record("verify", done.token, root, t2, t3);
                        tracer.end_at(root, t3);
                    }
                    if measuring {
                        rec.checked(checked, (t2 - sent).as_secs_f64() * 1e6, refs_per_job);
                    } else {
                        checked?;
                    }
                }
            }
            answered += 1;
            if !measuring && answered == warmup_jobs {
                if args.trace {
                    before = Some(service.reading(&mut control)?);
                }
                measuring = true;
                answered = 0;
                #[cfg(test)]
                if args.corrupt_oracle {
                    flip_one_expected_bit(&mut classes[0]);
                }
                let now = Instant::now();
                deadline = now + measure;
                trace_from = now + measure.mul_f64(UNTRACED_SHARE);
                rec.start(now, os::thread_cpu_ns());
            } else if measuring && !stopping && answered.is_multiple_of(cat::CLOSED_ROUND_JOBS) {
                let now = Instant::now();
                rec.end_round(now, os::thread_cpu_ns(), tracer.is_on());
                if args.trace && !tracer.is_on() && now >= trace_from {
                    tracer.set_on(true);
                }
                stopping = now >= deadline;
            }
            if !stopping {
                submit(&mut conns[c], &mut tracer, &mut inflight)?;
                outstanding[c] += 1;
            }
        }
    }

    #[cfg(test)]
    if args.corrupt_oracle {
        // Honest again for the cold starts that follow the phase.
        flip_one_expected_bit(&mut classes[0]);
    }
    let mut layers = BTreeMap::new();
    if let Some(before) = before {
        let wall_s = (rec.phase_end - rec.phase_start).as_secs_f64();
        service
            .reading(&mut control)?
            .since(&before)
            .layers(wall_s, &mut layers);
        let mean = |(sum, n): (u64, u64)| if n > 0 { sum as f64 / n as f64 } else { 0.0 };
        layers.insert("client.decode_self_ns", mean(decode_cpu));
    }
    println!(
        "env: live threads {} at the end of the phase",
        os::live_threads()
    );
    drop(control);
    drop(conns);
    service.stop();
    cold_starts_s.extend(cold_starts(
        cat::COLD_STARTS_CLOSED / 2,
        || bring_up(&classes),
        stop,
    )?);
    Ok(Outcome {
        recorder: rec,
        cold_starts_s,
        goodput: None,
        layers,
        tracer,
    })
}
