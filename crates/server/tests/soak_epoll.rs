//! Soak tests of the epoll data plane's two core promises:
//!
//! * **Idle costs nothing.**  A reactor with nothing to do blocks in
//!   `epoll_wait` with no timeout; hundreds of idle connections must not
//!   produce wakeups.  The per-reactor idle-wakeup counter is the
//!   regression guard that replaced the old sleep-poll loop — a
//!   level-triggered bug (dead fd left registered, waker never drained,
//!   EPOLLOUT left armed) shows up here as a wakeup storm.
//! * **A stuck reader cannot wedge the service.**  Responses to a
//!   client that stops reading pile into its outbound buffer, the
//!   write-stall budget expires, and the connection is disconnected and
//!   reaped — while every other connection keeps being served.

use smartapps_runtime::Runtime;
use smartapps_server::{
    Client, DoneOutcome, ReplyMode, Server, ServerConfig, SubmitArgs, WireBody, WireDist,
    WireSource, WireSpec,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_spec(seed: u64) -> WireSpec {
    WireSpec {
        elements: 96,
        iterations: 120,
        refs_per_iter: 2,
        coverage: 0.9,
        dist: WireDist::Uniform,
        seed,
    }
}

#[test]
fn idle_connections_produce_no_wakeups_while_active_ones_are_served() {
    const IDLE_CONNS: usize = 256;
    const ACTIVE_CLIENTS: u64 = 8;
    const JOBS_PER_CLIENT: u64 = 48;

    let rt = Arc::new(Runtime::with_workers(3));
    let server = Server::start(
        rt,
        ServerConfig {
            reactors: 2,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();

    // A crowd of connected-but-silent clients.  Under epoll they are
    // pure registration-table entries; under the old sleep-poll loop
    // every one of them was scanned every millisecond.
    let idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    // Let the acceptor hand them all over before sampling counters.
    let handover = Instant::now();
    while server.connections() < IDLE_CONNS && handover.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.connections(),
        IDLE_CONNS,
        "acceptor lost connections"
    );

    // Eight pipelining clients hammer the service through the crowd.
    let threads: Vec<_> = (0..ACTIVE_CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                if c % 2 == 0 {
                    client.upgrade_binary().expect("upgrade");
                }
                for burst in 0..(JOBS_PER_CLIENT / 12) {
                    let jobs: Vec<SubmitArgs> = (0..12)
                        .map(|j| SubmitArgs {
                            token: c * 10_000 + burst * 100 + j,
                            reply: ReplyMode::Ack,
                            body: WireBody::Sum,
                            source: WireSource::Gen(small_spec(c * 31 + j)),
                        })
                        .collect();
                    client.submit_batch(jobs).expect("batch");
                }
                let drained = client.drain().expect("drain");
                assert_eq!(drained, JOBS_PER_CLIENT, "client {c} lost jobs");
                for _ in 0..JOBS_PER_CLIENT {
                    let d = client.next_done().expect("done");
                    assert!(
                        matches!(d.outcome, DoneOutcome::Ok { .. }),
                        "client {c}: {:?}",
                        d.outcome
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("active client");
    }

    // Quiesce, then measure a pure-idle window: 256 open sockets, no
    // traffic, no completions.  Blocked reactors must stay blocked.
    std::thread::sleep(Duration::from_millis(150));
    let wakeups_before = server.reactor_wakeups();
    let idle_before = server.reactor_idle_wakeups();
    std::thread::sleep(Duration::from_millis(500));
    let wakeup_delta = server.reactor_wakeups() - wakeups_before;
    let idle_delta = server.reactor_idle_wakeups() - idle_before;
    assert!(
        wakeup_delta <= 4,
        "reactors woke {wakeup_delta} times during an idle half-second \
         (sleep-poll regression or wakeup storm)"
    );
    assert!(
        idle_delta <= 4,
        "{idle_delta} idle wakeups during an idle half-second"
    );

    // Over the whole run (accept storm, 384 jobs, drain barriers) only a
    // small share of wakeups may be fruitless.  The count scales with the
    // work the run did, so the bound is a share of all wakeups, not a
    // fixed number: 250 runs (150 release, 40 debug, 60 release beside a
    // CPU hog) saw 5-65 idle of 121-594 wakeups, at most 13.6 %.  A busy
    // loop makes nearly every wakeup idle, tens of thousands of them.
    let idle_total = server.reactor_idle_wakeups();
    let wakeups_total = server.reactor_wakeups();
    assert!(
        idle_total * 4 <= wakeups_total,
        "{idle_total} of {wakeups_total} wakeups across the soak were idle (at most 1/4 expected)"
    );

    drop(idle);
    server.shutdown();
}

#[test]
fn stuck_reader_is_disconnected_by_the_stall_budget() {
    // Tight budget so the test is quick; the default is 5s.
    let budget = Duration::from_millis(300);
    let rt = Arc::new(Runtime::with_workers(3));
    let server = Server::start(
        rt,
        ServerConfig {
            reactors: 2,
            write_stall_budget: budget,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.local_addr();

    // A client that requests Full payloads and never reads a byte: the
    // socket fills, responses pile into the outbound buffer, and the
    // stall clock starts.
    let mut stuck = TcpStream::connect(addr).expect("connect");
    stuck.set_nodelay(true).expect("nodelay");
    // Sample `connections()` only once the acceptor has registered the
    // connection — before that, 0 reads as "already reaped".
    let handover = Instant::now();
    while server.connections() != 1 && handover.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.connections(), 1, "stuck client never registered");

    // ~120 KB of text per response, ~3.6 MB per round.  How much a
    // loopback socket pair absorbs unread is the kernel's business
    // (several MB here), so no fixed volume is assumed: keep flooding in
    // rounds until the server drops the connection.  It must do so
    // within the budget of the socket filling (plus compute and
    // reactor-tick slack) — not wedge a reactor in a write.
    let wide = WireSpec {
        elements: 60_000,
        iterations: 32,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: WireDist::Uniform,
        seed: 7,
    };
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(20);
    let mut token = 0u64;
    while server.connections() > 0 && Instant::now() < deadline {
        let mut script = String::new();
        for _ in 0..30 {
            script.push_str(
                &smartapps_server::Request::Submit(SubmitArgs {
                    token,
                    reply: ReplyMode::Full,
                    body: WireBody::Sum,
                    source: WireSource::Gen(wide),
                })
                .encode(),
            );
            script.push('\n');
            token += 1;
        }
        // A failed write means the server already hung up on us.
        if stuck.write_all(script.as_bytes()).is_err() {
            break;
        }
        // Let the round compute and the stall clock run before adding more.
        let round = Instant::now();
        while server.connections() > 0 && round.elapsed() < 2 * budget {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    // The hang-up a failed write saw can precede the reap by a tick.
    let reaped = Instant::now();
    while server.connections() > 0 && reaped.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        server.connections(),
        0,
        "stuck reader still connected after {:?} and {token} requests",
        t0.elapsed()
    );

    // And the service is unharmed: a healthy client gets served.
    let mut probe = Client::connect(addr).expect("connect");
    probe
        .submit(SubmitArgs {
            token: 1,
            reply: ReplyMode::Ack,
            body: WireBody::Sum,
            source: WireSource::Gen(small_spec(3)),
        })
        .expect("submit");
    let d = probe.next_done().expect("done");
    assert!(matches!(d.outcome, DoneOutcome::Ok { .. }));

    // The stall that killed the connection (the first this server
    // accepted, hence `conn="0"`) is on its books: a connection failed
    // by the budget never drains, so this is the terminal charge.
    let metrics = probe.metrics().expect("metrics");
    let stall_us: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("smartapps_conn_stall_us{conn=\"0\"} "))
        .expect("stall series of the reaped connection")
        .parse()
        .expect("stall counter value");
    assert!(
        u128::from(stall_us) >= budget.as_micros(),
        "terminal stall not charged: {stall_us}us < {budget:?}"
    );

    drop(stuck);
    server.shutdown();
}
