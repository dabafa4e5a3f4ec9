//! What the benchmark asks of the operating system: CPU clocks, a
//! nanosecond-resolution readiness wait, and the `/proc` figures the
//! thread-budget guard prints.  Linux only — the benchmark reads
//! `/proc/self` and the service itself is epoll-based.

use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const POLLIN: i16 = 0x001;

// libc symbols std already links; same device as `vendor/epoll`.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// CPU time the keep-awake thread has used, as it last published it.
static KEEP_AWAKE_CPU_NS: AtomicU64 = AtomicU64::new(0);

/// CPU time the [`KeepAwake`] thread has used so far (0 without one).
/// The recorder subtracts it from the process's like the load
/// generator's own: it is no part of the service.
pub fn keep_awake_cpu_ns() -> u64 {
    KEEP_AWAKE_CPU_NS.load(Ordering::Relaxed)
}

/// A thread that spins at `SCHED_IDLE` priority for as long as the guard
/// lives, so the vCPU never halts.
///
/// Whenever the pipeline's threads all sleep — between two arrivals of
/// the open loop, between a reply and the next request — an idle vCPU
/// executes `HLT`, which on a guest is an exit to the hypervisor; the
/// next wake-up then waits for the host to schedule the vCPU again, and
/// how long that takes changes by the minute.  On `wire_open_mixed` five
/// alternating 15-s runs gave a median latency of 152–161 µs without the
/// spinner and 127–130 µs with it (README, "Keeping the vCPU awake").  An
/// idle-priority thread runs only when nothing else is runnable and is
/// preempted the moment anything wakes, so it takes no cycle the service
/// or the generator wants.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Start the spinner on the calling thread's CPU set.  An error when
    /// the kernel refuses the idle policy: at normal priority the spinner
    /// would take its share of the CPU, and without it the figures are of
    /// another regime (15–30 % apart), so there is no second path.
    pub fn start() -> Result<KeepAwake, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("smartbench-keep-awake".into())
            .spawn(move || {
                let param = 0i32;
                // SAFETY: `param` is a valid `sched_param` (one int,
                // priority 0, the only value SCHED_IDLE takes); pid 0 is
                // the calling thread.
                let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 };
                let _ = tx.send(idle);
                while idle && !flag.load(Ordering::Relaxed) {
                    for _ in 0..2000 {
                        std::hint::spin_loop();
                    }
                    KEEP_AWAKE_CPU_NS.store(thread_cpu_ns(), Ordering::Relaxed);
                }
            })
            .map_err(|e| format!("keep-awake thread: {e}"))?;
        let mut guard = KeepAwake {
            stop,
            thread: Some(thread),
        };
        if rx.recv() == Ok(true) {
            Ok(guard)
        } else {
            guard.join();
            Err("the kernel refuses SCHED_IDLE, so the vCPU cannot be kept from halting".into())
        }
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.join();
    }
}

/// Words of a CPU mask: 1024 CPUs, what glibc's `cpu_set_t` holds.
const MASK_WORDS: usize = 16;

/// Pin the calling thread — and every thread it creates afterwards, which
/// is all of the service — to the highest-numbered CPU it may run on, and
/// return that CPU.  An error when the kernel refuses: floating threads
/// are another regime, not a fallback.
///
/// Three threads that share one vCPU take turns.  Spread over the two
/// vCPUs of a shared host they also wait for the hypervisor to run both
/// at once, and which thread lands where changes from run to run: that
/// was most of the run-to-run spread of the wire workloads, floating or
/// placed by hand (README, "Placement").  The last CPU, because the first
/// takes the box's interrupts.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed and names a
    // CPU the kernel just reported as allowed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to cpu {cpu} was refused"));
    }
    Ok(cpu)
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and both clock ids are
    // constants every Linux kernel supports; the call writes `ts` only.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Block until one of `fds` is readable or `timeout` lapses (`None`
/// waits for readiness alone).  `ppoll` takes the timeout in
/// nanoseconds, which the open loop needs: its arrivals are tens of
/// microseconds apart and `epoll_wait` rounds to milliseconds.
pub fn wait_readable(fds: &[RawFd], timeout: Option<Duration>) {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `pfds` is a live array of `pfds.len()` pollfd structs,
    // `ts_ptr` is null or points at `ts`, which outlives the call, and a
    // null signal mask leaves the mask unchanged.  A failure (EINTR) only
    // makes the caller poll its sockets early.
    unsafe {
        ppoll(
            pfds.as_mut_ptr(),
            pfds.len() as u64,
            ts_ptr,
            std::ptr::null(),
        )
    };
}

/// CPUs this process may run on, as first read: every workload asks
/// before it confines itself, and a later reading from a confined thread
/// (a second run in one process, as the self-test makes) would say 1.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads alive in this process right now.
pub fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }

    #[test]
    fn proc_figures_are_sane() {
        assert!(nproc() >= 1);
        assert!(live_threads() >= 1);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn wait_readable_times_out_on_a_silent_socket() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let t0 = std::time::Instant::now();
        wait_readable(&[listener.as_raw_fd()], Some(Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }
}
