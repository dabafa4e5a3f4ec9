//! The Configurer — the ToolBox tool that applies computed configurations
//! to the platform: "configure architecture, I/O, and OS systems (network,
//! cache, directories)".
//!
//! Two levels exist in this reproduction, matching the paper's "moderately
//! reconfigurable hardware" story:
//!
//! * [`HostConfigurer`] — OS-level knobs on the real host: worker thread
//!   count (the paper's "specialization of processors for computing or
//!   communication" reduced to its software-visible effect);
//! * [`SimConfigurer`] — architectural knobs on the simulated CC-NUMA:
//!   PCLR controller flavor (hardwired / programmable / off), page
//!   placement policy, combine-unit throughput.  This is what the
//!   `ConfigHardware()` call of Figure 5 talks to.
//!
//! A configurer is deliberately dumb: it applies a [`SystemConfig`] the
//! application chose (for example by trying candidate configurations on
//! its own loop and keeping the fastest) and reports what changed.
//! Policy lives with the caller; mechanism lives here.

use serde::{Deserialize, Serialize};
use smartapps_sim::directory::PlacementPolicy;
use smartapps_sim::{ControllerKind, MachineConfig};

/// A target system configuration, as chosen by the application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Worker threads the run-time library should use.
    pub threads: usize,
    /// Whether reduction hardware should be engaged, and which flavor.
    pub reduction_hw: ReductionHw,
    /// Shared-page placement policy.
    pub placement: Placement,
}

/// Reduction-hardware engagement level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReductionHw {
    /// No PCLR: software reductions only.
    Off,
    /// PCLR with the hardwired directory controller.
    Hardwired,
    /// PCLR with the programmable (MAGIC-like) controller.
    Programmable,
}

/// Page-placement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// First-touch (the paper's best-performing policy).
    FirstTouch,
    /// Round-robin striping.
    RoundRobin,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            threads: 8,
            reduction_hw: ReductionHw::Off,
            placement: Placement::FirstTouch,
        }
    }
}

/// What a configurer changed when applying a configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reconfiguration {
    /// Human-readable change log (empty = nothing to do).
    pub changes: Vec<String>,
}

impl Reconfiguration {
    /// True when the configuration was already in effect.
    pub fn is_noop(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Applies [`SystemConfig`]s to a platform.
pub trait Configurer {
    /// Apply `target`, returning what changed.
    fn apply(&mut self, target: &SystemConfig) -> Reconfiguration;
    /// The currently applied configuration.
    fn current(&self) -> &SystemConfig;
}

/// Host-level configurer: tracks the thread count handed to the run-time
/// library.  (Thread counts are per-loop arguments in this library, so the
/// configurer owns the value and executors read it.)
#[derive(Debug, Clone)]
pub struct HostConfigurer {
    cfg: SystemConfig,
    max_threads: usize,
}

impl HostConfigurer {
    /// Create with the host's parallelism budget.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        HostConfigurer {
            cfg: SystemConfig {
                threads: max_threads,
                ..Default::default()
            },
            max_threads,
        }
    }

    /// The thread count executors should use right now.
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }
}

impl Configurer for HostConfigurer {
    fn apply(&mut self, target: &SystemConfig) -> Reconfiguration {
        let mut rec = Reconfiguration::default();
        let t = target.threads.clamp(1, self.max_threads);
        if t != self.cfg.threads {
            rec.changes
                .push(format!("threads: {} -> {}", self.cfg.threads, t));
            self.cfg.threads = t;
        }
        // Host hardware knobs are not reconfigurable: note refusals.
        if target.reduction_hw != ReductionHw::Off {
            rec.changes
                .push("reduction_hw: unavailable on host (ignored)".into());
        }
        rec
    }

    fn current(&self) -> &SystemConfig {
        &self.cfg
    }
}

/// Simulated-machine configurer: rebuilds a [`MachineConfig`] according to
/// the target (this is the reconfiguration path a SmartApp exercises before
/// launching a simulated reduction loop).
#[derive(Debug, Clone)]
pub struct SimConfigurer {
    cfg: SystemConfig,
    nodes: usize,
}

impl SimConfigurer {
    /// Create for a machine of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        SimConfigurer {
            cfg: SystemConfig {
                threads: nodes,
                ..Default::default()
            },
            nodes,
        }
    }

    /// Materialize the machine configuration for the current target.
    pub fn machine_config(&self) -> MachineConfig {
        let mut m = match self.cfg.reduction_hw {
            ReductionHw::Off | ReductionHw::Hardwired => MachineConfig::table1(self.nodes),
            ReductionHw::Programmable => MachineConfig::flex(self.nodes),
        };
        debug_assert!(matches!(
            m.controller,
            ControllerKind::Hardwired | ControllerKind::Programmable
        ));
        m.nodes = self.nodes;
        m
    }

    /// Placement policy for `Machine::with_placement`.
    pub fn placement_policy(&self) -> PlacementPolicy {
        match self.cfg.placement {
            Placement::FirstTouch => PlacementPolicy::FirstTouch,
            Placement::RoundRobin => PlacementPolicy::RoundRobin,
        }
    }

    /// Whether traces should use PCLR reduction accesses.
    pub fn use_pclr(&self) -> bool {
        self.cfg.reduction_hw != ReductionHw::Off
    }
}

impl Configurer for SimConfigurer {
    fn apply(&mut self, target: &SystemConfig) -> Reconfiguration {
        let mut rec = Reconfiguration::default();
        if target.reduction_hw != self.cfg.reduction_hw {
            rec.changes.push(format!(
                "reduction_hw: {:?} -> {:?}",
                self.cfg.reduction_hw, target.reduction_hw
            ));
            self.cfg.reduction_hw = target.reduction_hw;
        }
        if target.placement != self.cfg.placement {
            rec.changes.push(format!(
                "placement: {:?} -> {:?}",
                self.cfg.placement, target.placement
            ));
            self.cfg.placement = target.placement;
        }
        let t = target.threads.clamp(1, self.nodes);
        if t != self.cfg.threads {
            rec.changes
                .push(format!("threads: {} -> {}", self.cfg.threads, t));
            self.cfg.threads = t;
        }
        rec
    }

    fn current(&self) -> &SystemConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_configurer_clamps_and_logs() {
        let mut c = HostConfigurer::new(8);
        assert_eq!(c.threads(), 8);
        let rec = c.apply(&SystemConfig {
            threads: 4,
            ..Default::default()
        });
        assert_eq!(rec.changes, vec!["threads: 8 -> 4"]);
        assert_eq!(c.threads(), 4);
        // Clamped to the budget.
        c.apply(&SystemConfig {
            threads: 100,
            ..Default::default()
        });
        assert_eq!(c.threads(), 8);
        // Re-applying is a no-op.
        let rec = c.apply(&SystemConfig {
            threads: 8,
            ..Default::default()
        });
        assert!(rec.is_noop());
    }

    #[test]
    fn host_refuses_hardware_knobs() {
        let mut c = HostConfigurer::new(4);
        let rec = c.apply(&SystemConfig {
            threads: 4,
            reduction_hw: ReductionHw::Hardwired,
            placement: Placement::FirstTouch,
        });
        assert!(!rec.is_noop());
        assert!(rec.changes[0].contains("unavailable"));
    }

    #[test]
    fn sim_configurer_materializes_machines() {
        let mut c = SimConfigurer::new(16);
        assert!(!c.use_pclr());
        c.apply(&SystemConfig {
            threads: 16,
            reduction_hw: ReductionHw::Programmable,
            placement: Placement::RoundRobin,
        });
        assert!(c.use_pclr());
        let m = c.machine_config();
        assert_eq!(m.controller, ControllerKind::Programmable);
        assert_eq!(m.nodes, 16);
        assert_eq!(c.placement_policy(), PlacementPolicy::RoundRobin);

        c.apply(&SystemConfig {
            threads: 16,
            reduction_hw: ReductionHw::Hardwired,
            placement: Placement::FirstTouch,
        });
        let m = c.machine_config();
        assert_eq!(m.controller, ControllerKind::Hardwired);
        assert_eq!(c.placement_policy(), PlacementPolicy::FirstTouch);
    }

    #[test]
    fn sim_reconfiguration_log_is_complete() {
        let mut c = SimConfigurer::new(8);
        let rec = c.apply(&SystemConfig {
            threads: 4,
            reduction_hw: ReductionHw::Hardwired,
            placement: Placement::RoundRobin,
        });
        assert_eq!(rec.changes.len(), 3, "{:?}", rec.changes);
        // Same target again: silent.
        let rec = c.apply(&c.current().clone());
        assert!(rec.is_noop());
    }
}
