//! The four workloads.  Each module builds its inputs from the seed,
//! takes its cold starts, runs its measured phase on the calling thread
//! (the one load-generator thread the budget allows) and hands back an
//! [`Outcome`].

pub mod churn;
pub mod closed;
pub mod embed;
pub mod open;

use crate::catalogue as cat;
use crate::counters::Reading;
use crate::run::{Outcome, RunArgs};
use smartapps_runtime::{Runtime, RuntimeConfig};
use smartapps_server::{Client, Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        cat::WIRE_CLOSED_SMALL => closed::run(args),
        cat::EMBED_REGIMES => embed::run(args),
        cat::WIRE_OPEN_MIXED => open::run(args),
        cat::WIRE_CHURN_UPLOAD => churn::run(args),
        other => Err(format!(
            "unknown workload {other:?}; the catalogue has {:?}",
            cat::WORKLOADS.map(|w| w.name)
        )),
    }
}

/// A runtime with a server in front of it.
pub struct Service {
    pub rt: Arc<Runtime>,
    pub server: Server,
}

impl Service {
    pub fn start(rt: RuntimeConfig, server: ServerConfig) -> Result<Service, String> {
        let rt = Arc::new(Runtime::new(rt));
        let server = Server::start(rt.clone(), server).map_err(|e| format!("server start: {e}"))?;
        Ok(Service { rt, server })
    }

    /// Shut the server down, then the runtime (which saves its profile
    /// store when a path is configured).
    pub fn stop(self) {
        self.server.shutdown();
        // The server held the only other handle, so this one is the last
        // and the runtime shuts down here, not on some later drop.
        Arc::try_unwrap(self.rt)
            .unwrap_or_else(|_| panic!("runtime still shared after the server stopped"))
            .shutdown();
    }

    /// A reading of the service's counters, the exposition fetched over
    /// the wire through `control`.
    pub fn reading(&self, control: &mut Client) -> Result<Reading, String> {
        let text = control.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok(Reading::take(&self.rt.stats(), Some(&self.server), &text))
    }
}

/// `io::Result` to the `String` errors the workloads report.
pub(crate) fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Run `cold_start` `n` times, shutting each service down again
/// (untimed), and return the durations in seconds.
pub(crate) fn cold_starts<S>(
    n: usize,
    mut cold_start: impl FnMut() -> Result<S, String>,
    mut stop: impl FnMut(S),
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let live = cold_start()?;
        out.push(t0.elapsed().as_secs_f64());
        stop(live);
    }
    Ok(out)
}

/// Where a traced run switches its tracer on: the first third of the
/// phase stays untraced so the run can report what tracing costs.
pub(crate) const UNTRACED_SHARE: f64 = 1.0 / 3.0;
