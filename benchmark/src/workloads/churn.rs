//! `wire_churn_upload`: the caches the closed loop only reads are here
//! filled, missed and evicted.
//!
//! A round is two service lifetimes, each a **fresh** `Runtime` +
//! `Server` with a 32-entry pattern cache: connect, upgrade, upload 8 CSR
//! patterns of ≈ 50 k references (4 distinct, 4 re-uploads that must
//! dedup), submit 96 first-sight classes twice each — more classes than
//! the pattern cache holds, so the LRU evicts and the second pass
//! regenerates — drain, shut down.  The second lifetime of a round runs
//! with `profile_path` set: it loads a store of foreign classes at
//! startup and saves its own at shutdown, so the store's load and save
//! run every round and every round is the same work.  A change that
//! speeds hits by slowing inserts, interning or cold decisions shows
//! here.

use super::{io, Service, UNTRACED_SHARE};
use crate::catalogue as cat;
use crate::counters::Reading;
use crate::gen::{self, Rng};
use crate::os;
use crate::run::{self, Budget, Outcome, Recorder, RunArgs};
use crate::trace::{Tracer, NO_PARENT};
use crate::verify::{Expected, ExpectedAck};
use smartapps_runtime::PatternSignature;
use smartapps_server::{Client, ReplyMode, SubmitArgs, UploadArgs, WireBody, WireSource, WireSpec};
use smartapps_workloads::AccessPattern;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every lifetime is traced whole or not at all; one in this many is.
const TRACE_SAMPLE: u64 = 8;

enum Source {
    Inline(WireSpec),
    /// Index into the uploaded patterns.
    Uploaded(usize),
}

struct Class {
    source: Source,
    body: WireBody,
    ack: ExpectedAck,
    refs: u64,
}

struct Inputs {
    uploads: Vec<AccessPattern>,
    classes: Vec<Class>,
    /// Classes of other shapes, run once at set-up to make the profile
    /// store the odd lifetimes load.
    foreign: Vec<Class>,
}

fn inline_class(spec: WireSpec) -> (Class, AccessPattern) {
    let pattern = spec.to_pattern_spec().generate();
    let class = Class {
        source: Source::Inline(spec),
        body: WireBody::Sum,
        ack: ExpectedAck::of(&Expected::sum_i64(&pattern)),
        refs: pattern.num_references() as u64,
    };
    (class, pattern)
}

fn inputs(rng: &mut Rng) -> Inputs {
    let uploads: Vec<AccessPattern> = (0..cat::CHURN_UPLOADS_DISTINCT)
        .map(|v| gen::churn_upload_pattern(v, rng.next_u64() >> 16))
        .collect();
    let mut signatures = HashSet::new();
    let mut sign = |p: &AccessPattern| {
        signatures.insert(PatternSignature::of(p, 2048, run::WIRE_WORKERS));
    };
    let mut classes: Vec<Class> = uploads
        .iter()
        .enumerate()
        .map(|(u, pattern)| {
            sign(pattern);
            Class {
                source: Source::Uploaded(u),
                body: WireBody::FSum,
                ack: ExpectedAck::of(&Expected::sum_f64(pattern)),
                refs: pattern.num_references() as u64,
            }
        })
        .collect();
    let inline = cat::CHURN_CLASSES - classes.len();
    let mut specs = gen::churn_inline_specs(rng, inline + 32);
    let foreign_specs = specs.split_off(inline);
    for spec in specs {
        let (class, pattern) = inline_class(spec);
        sign(&pattern);
        classes.push(class);
    }
    println!(
        "inputs: {} classes with {} distinct signatures, {} uploads of {} references",
        classes.len(),
        signatures.len(),
        uploads.len(),
        uploads[0].num_references()
    );
    Inputs {
        uploads,
        classes,
        foreign: foreign_specs
            .into_iter()
            .map(|s| inline_class(s).0)
            .collect(),
    }
}

fn submit_args(token: u64, class: &Class, handles: &[u64]) -> SubmitArgs {
    SubmitArgs {
        token,
        reply: ReplyMode::Ack,
        body: class.body,
        source: match class.source {
            Source::Inline(spec) => WireSource::Gen(spec),
            Source::Uploaded(u) => WireSource::Handle(handles[u]),
        },
    }
}

/// The load generator's state across lifetimes.
struct Churn<'a> {
    inputs: &'a Inputs,
    tracer: Tracer,
    /// Bytes uploaded and the seconds the uploads took.
    upload: (f64, f64),
    /// Thread CPU inside traced `next_done` calls, and how many.
    decode_cpu: (u64, u64),
    /// The services' own counters, summed over traced lifetimes, and the
    /// time those lifetimes took.
    counters: Reading,
    traced_wall_s: f64,
}

/// Book a failed or wrong operation, or fail the run when nothing is
/// being recorded (set-up must not go wrong quietly).
fn book(
    rec: Option<&mut Recorder>,
    result: Result<(), String>,
    latency_us: f64,
    refs: Option<u64>,
) -> Result<(), String> {
    match (rec, refs) {
        (None, _) => result,
        (Some(rec), Some(refs)) => {
            rec.checked(result, latency_us, refs);
            Ok(())
        }
        (Some(rec), None) => {
            match result {
                Ok(()) => rec.ok_other(latency_us),
                Err(why) if why.contains("failed:") => rec.fail(&why),
                Err(why) => rec.wrong(&why),
            }
            Ok(())
        }
    }
}

impl Churn<'_> {
    /// Read one `done`, check it against the class it answers, book it.
    fn answer(
        &mut self,
        client: &mut Client,
        classes: &[Class],
        sent_at: &mut [Option<Instant>],
        rec: Option<&mut Recorder>,
        trace_id: Option<u64>,
    ) -> Result<(), String> {
        let c0 = if trace_id.is_some() {
            os::thread_cpu_ns()
        } else {
            0
        };
        let t1 = Instant::now();
        let done = io("next_done", client.next_done())?;
        let t2 = Instant::now();
        if trace_id.is_some() {
            self.decode_cpu.0 += os::thread_cpu_ns() - c0;
            self.decode_cpu.1 += 1;
        }
        let slot = done.token as usize;
        let Some(sent) = sent_at.get_mut(slot).and_then(Option::take) else {
            let why = format!("failed: reply for unknown token {}", done.token);
            return book(rec, Err(why), 0.0, Some(0));
        };
        let class = &classes[slot % classes.len()];
        let checked = class.ack.check(&done);
        if let Some(id) = trace_id {
            let req = (id << 16) | done.token;
            let t3 = Instant::now();
            let root = self.tracer.record("wire.request", req, NO_PARENT, sent, t3);
            self.tracer.record("client.next_done", req, root, t1, t2);
            self.tracer.record("verify", req, root, t2, t3);
        }
        book(
            rec,
            checked,
            (t2 - sent).as_secs_f64() * 1e6,
            Some(class.refs),
        )
    }

    /// One service lifetime, numbered `id`.  Returns the time from
    /// `Runtime::new` until every class had been answered once: the cold
    /// start.
    fn lifetime(
        &mut self,
        classes: &[Class],
        profile: Option<&Path>,
        mut rec: Option<&mut Recorder>,
        id: u64,
    ) -> Result<f64, String> {
        let t_start = Instant::now();
        let trace_id = self.tracer.wants(id).then_some(id);
        let uploads = &self.inputs.uploads;
        let service = Service::start(
            run::wire_runtime_config(profile.map(Path::to_path_buf)),
            run::server_config(cat::CHURN_PATTERN_CACHE),
        )?;
        let mut client = io("connect", Client::connect(service.server.local_addr()))?;
        io("upgrade bin", client.upgrade_binary())?;

        // Uploads: each distinct pattern, then each again (must dedup).
        let mut handles = vec![0u64; uploads.len()];
        for k in 0..2 * uploads.len() {
            let u = k % uploads.len();
            let pattern = &uploads[u];
            let args = UploadArgs {
                token: u64::MAX - k as u64,
                num_elements: pattern.num_elements,
                iter_ptr: pattern.iter_ptr.clone(),
                indices: pattern.indices.clone(),
            };
            let t0 = Instant::now();
            let got = client.upload(args);
            let t1 = Instant::now();
            self.upload.0 += 4.0 * (pattern.iter_ptr.len() + pattern.indices.len()) as f64;
            self.upload.1 += (t1 - t0).as_secs_f64();
            if let Some(id) = trace_id {
                let req = (id << 16) | (0xff00 + k as u64);
                let root = self.tracer.record("wire.request", req, NO_PARENT, t0, t1);
                self.tracer.record("client.upload", req, root, t0, t1);
            }
            let checked = match got {
                Err(e) => Err(format!("failed: upload {u} refused: {e}")),
                Ok(h) if k < uploads.len() => {
                    handles[u] = h;
                    Ok(())
                }
                Ok(h) if h == handles[u] => Ok(()),
                Ok(h) => Err(format!(
                    "re-upload {u} got handle {h:x}, not {:x}",
                    handles[u]
                )),
            };
            book(
                rec.as_deref_mut(),
                checked,
                (t1 - t0).as_secs_f64() * 1e6,
                None,
            )?;
        }

        // In flight: token -> sent at.  Tokens are pass * N + class.
        let n = classes.len();
        let mut sent_at: Vec<Option<Instant>> = vec![None; 2 * n];

        // Pass 1: batches of 16 through `submit_batch`.
        for (b, chunk) in classes.chunks(cat::CHURN_BATCH).enumerate() {
            let base = b * cat::CHURN_BATCH;
            let batch: Vec<SubmitArgs> = chunk
                .iter()
                .enumerate()
                .map(|(i, c)| submit_args((base + i) as u64, c, &handles))
                .collect();
            let t0 = Instant::now();
            io("submit_batch", client.submit_batch(batch))?;
            if let Some(id) = trace_id {
                let req = (id << 16) | base as u64;
                self.tracer
                    .record("client.submit_batch", req, NO_PARENT, t0, Instant::now());
            }
            for slot in &mut sent_at[base..base + chunk.len()] {
                *slot = Some(t0);
            }
            for _ in 0..chunk.len() {
                self.answer(
                    &mut client,
                    classes,
                    &mut sent_at,
                    rec.as_deref_mut(),
                    trace_id,
                )?;
            }
        }
        let setup_s = t_start.elapsed().as_secs_f64();

        // Pass 2: single submits, 16 in flight.
        let mut outstanding = 0;
        for (i, class) in classes.iter().enumerate() {
            let token = (n + i) as u64;
            let t0 = Instant::now();
            io("submit", client.submit(submit_args(token, class, &handles)))?;
            if let Some(id) = trace_id {
                let req = (id << 16) | token;
                self.tracer
                    .record("client.submit", req, NO_PARENT, t0, Instant::now());
            }
            sent_at[n + i] = Some(t0);
            outstanding += 1;
            if outstanding == cat::CHURN_BATCH {
                self.answer(
                    &mut client,
                    classes,
                    &mut sent_at,
                    rec.as_deref_mut(),
                    trace_id,
                )?;
                outstanding -= 1;
            }
        }
        io("drain", client.drain())?;
        for _ in 0..outstanding {
            self.answer(
                &mut client,
                classes,
                &mut sent_at,
                rec.as_deref_mut(),
                trace_id,
            )?;
        }
        if trace_id.is_some() {
            self.counters.add(&service.reading(&mut client)?);
        }
        drop(client);
        service.stop();
        if trace_id.is_some() {
            self.traced_wall_s += t_start.elapsed().as_secs_f64();
        }
        Ok(setup_s)
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let budget = Budget::wire(os::nproc());
    budget.check()?;
    let _one_cpu = run::confine_to_one_cpu()?;
    let mut rng = Rng::new(args.seed);
    let inputs = inputs(&mut rng);
    let store: PathBuf = args
        .out_dir
        .join(format!("profile-store-{}.txt", std::process::id()));
    let seed_store = store.with_extension("seed");
    io("out dir", std::fs::create_dir_all(&args.out_dir))?;
    run::print_environment(
        &budget,
        &run::wire_runtime_config(Some(store.clone())),
        Some(&run::server_config(cat::CHURN_PATTERN_CACHE)),
    );
    let mut churn = Churn {
        inputs: &inputs,
        tracer: Tracer::new(TRACE_SAMPLE),
        upload: (0.0, 0.0),
        decode_cpu: (0, 0),
        counters: Reading::default(),
        traced_wall_s: 0.0,
    };

    // The store the second lifetime of every round loads: written once by
    // a lifetime over foreign classes.
    let _ = std::fs::remove_file(&seed_store);
    churn.lifetime(&inputs.foreign, Some(&seed_store), None, 0)?;
    let seed_bytes = io("seed store", std::fs::read(&seed_store))?;
    println!("inputs: seed profile store of {} bytes", seed_bytes.len());

    // A lifetime stops its own clock once every class has been answered
    // once, so the cold starts are lifetimes like any other.
    let mut cold_starts_s = Vec::with_capacity(cat::COLD_STARTS_CHURN);
    for _ in 0..cat::COLD_STARTS_CHURN / 2 {
        cold_starts_s.push(churn.lifetime(&inputs.classes, None, None, 0)?);
    }

    let mut rec = Recorder::new(cat::CHURN_SLO_US);
    let measure = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let trace_from = start + measure.mul_f64(UNTRACED_SHARE);
    rec.start(start, os::thread_cpu_ns());
    let mut id = 1u64;
    loop {
        for profile in [None, Some(store.as_path())] {
            if profile.is_some() {
                io("seed store copy", std::fs::write(&store, &seed_bytes))?;
            }
            churn.lifetime(&inputs.classes, profile, Some(&mut rec), id)?;
            id += 1;
        }
        let now = Instant::now();
        rec.end_round(now, os::thread_cpu_ns(), churn.tracer.is_on());
        if args.trace && !churn.tracer.is_on() && now >= trace_from {
            churn.tracer.set_on(true);
        }
        if now >= start + measure {
            break;
        }
    }
    churn.tracer.set_on(false);
    for _ in 0..cat::COLD_STARTS_CHURN / 2 {
        cold_starts_s.push(churn.lifetime(&inputs.classes, None, None, 0)?);
    }
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&seed_store);

    let mut layers = BTreeMap::new();
    if args.trace {
        churn.counters.layers(churn.traced_wall_s, &mut layers);
        let (bytes, secs) = churn.upload;
        layers.insert(
            "upload.mb_per_s",
            if secs > 0.0 { bytes / 1e6 / secs } else { 0.0 },
        );
        let (cpu, n) = churn.decode_cpu;
        layers.insert(
            "client.decode_self_ns",
            if n > 0 { cpu as f64 / n as f64 } else { 0.0 },
        );
    }
    println!(
        "env: live threads {} at the end of the phase",
        os::live_threads()
    );
    Ok(Outcome {
        recorder: rec,
        cold_starts_s,
        goodput: None,
        layers,
        tracer: churn.tracer,
    })
}
