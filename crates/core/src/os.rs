//! The harness-facing Popcorn OS model: builder, event loop, reporting.

use popcorn_hw::{HwParams, Machine, Topology};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::osmodel::{self, KernelClustering, OsEvent, OsModel, RunReport};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::Program;
use popcorn_kernel::types::GroupId;
use popcorn_msg::{Fabric, KernelId, MsgParams};
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator, StopCondition};

use crate::machine::{PopEvent, PopcornMachine};
use crate::params::PopcornParams;

impl Handler<PopEvent> for PopcornMachine {
    fn handle(&mut self, now: SimTime, event: PopEvent, sched: &mut Scheduler<PopEvent>) {
        // Under planned crashes, events addressed to a dead kernel are
        // frozen at the front door (see `machine::recovery`); a fault-free
        // run takes one boolean branch here.
        if let Some(event) = self.intercept_crashed(now, event, sched) {
            osmodel::dispatch(self, now, event, sched);
        }
    }
}

/// Configures and builds a [`PopcornOs`].
///
/// # Example
///
/// ```
/// use popcorn_core::PopcornOs;
/// use popcorn_hw::Topology;
///
/// let os = PopcornOs::builder()
///     .topology(Topology::new(2, 8))
///     .kernels(2)
///     .build();
/// assert_eq!(os.num_kernels(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PopcornOsBuilder {
    topology: Topology,
    kernels: u16,
    clustering: Option<KernelClustering>,
    hw: HwParams,
    os: OsParams,
    msg: MsgParams,
    pop: PopcornParams,
}

impl Default for PopcornOsBuilder {
    fn default() -> Self {
        PopcornOsBuilder {
            topology: Topology::paper_default(),
            kernels: 4,
            clustering: None,
            hw: HwParams::default(),
            os: OsParams::default(),
            msg: MsgParams::default(),
            pop: PopcornParams::default(),
        }
    }
}

impl PopcornOsBuilder {
    /// Sets the machine topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the number of kernel instances (cores are partitioned
    /// contiguously among them).
    pub fn kernels(mut self, n: u16) -> Self {
        self.kernels = n;
        self
    }

    /// Sets the kernel count from a first-class clustering (one kernel per
    /// core / CCX / socket of the configured topology) instead of a raw
    /// number. Resolved against the topology at [`Self::build`] time, so
    /// the call order relative to [`Self::topology`] does not matter.
    pub fn clustering(mut self, c: KernelClustering) -> Self {
        self.clustering = Some(c);
        self
    }

    /// Overrides the hardware cost parameters.
    pub fn hw_params(mut self, p: HwParams) -> Self {
        self.hw = p;
        self
    }

    /// Overrides the kernel software cost parameters.
    pub fn os_params(mut self, p: OsParams) -> Self {
        self.os = p;
        self
    }

    /// Overrides the message-layer parameters.
    pub fn msg_params(mut self, p: MsgParams) -> Self {
        self.msg = p;
        self
    }

    /// Overrides the Popcorn protocol parameters (and ablation toggles).
    pub fn popcorn_params(mut self, p: PopcornParams) -> Self {
        self.pop = p;
        self
    }

    /// Builds the OS model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter set fails validation or there are more
    /// kernels than cores.
    pub fn build(self) -> PopcornOs {
        self.hw.validate().expect("invalid hardware parameters");
        self.os.validate().expect("invalid OS parameters");
        self.msg.validate().expect("invalid message parameters");
        self.pop.validate().expect("invalid Popcorn parameters");
        // Crash detection infers death from ack silence: the window must
        // outlast the worst-case retransmit chain or survivors would
        // declare a congested peer dead.
        if !self.msg.faults.crashes.is_empty() && self.pop.reliable_delivery {
            assert!(
                self.pop.crash_detect_ns > self.pop.worst_retx_chain_ns(),
                "crash_detect_ns ({}) must exceed the worst-case retransmit \
                 chain ({}) or a congested kernel could be declared dead",
                self.pop.crash_detect_ns,
                self.pop.worst_retx_chain_ns()
            );
        }
        let machine = Machine::new(self.topology, self.hw);
        let kernel_count = self
            .clustering
            .map_or(self.kernels, |c| c.kernel_count(self.topology));
        let parts = self.topology.partition(kernel_count);
        let locations: Vec<_> = parts.iter().map(|p| p[0]).collect();
        let fabric = Fabric::new(&machine, locations, self.msg);
        let kernels: Vec<Kernel> = parts
            .into_iter()
            .enumerate()
            .map(|(i, cores)| {
                Kernel::new(KernelId(i as u16), cores, self.os.clone(), machine.clone())
            })
            .collect();
        PopcornOs {
            sim: Simulator::new(),
            machine: PopcornMachine::new(kernels, fabric, machine, self.pop),
            topology: self.topology,
            next_home: 0,
        }
    }
}

/// The replicated-kernel OS model, ready to load programs and run.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct PopcornOs {
    sim: Simulator<PopEvent>,
    machine: PopcornMachine,
    topology: Topology,
    next_home: usize,
}

impl PopcornOs {
    /// Starts configuring a Popcorn OS.
    pub fn builder() -> PopcornOsBuilder {
        PopcornOsBuilder::default()
    }

    /// Number of kernel instances.
    pub fn num_kernels(&self) -> usize {
        self.machine.kernels().len()
    }

    /// Protocol statistics (for benches needing raw histograms).
    pub fn stats(&self) -> &crate::stats::PopStats {
        &self.machine.stats
    }

    /// The message fabric statistics.
    pub fn fabric(&self) -> &Fabric {
        self.machine.fabric()
    }

    /// The kernel instances (read-only, for assertions in tests).
    pub fn kernels(&self) -> &[Kernel] {
        self.machine.kernels()
    }
}

impl OsModel for PopcornOs {
    fn name(&self) -> &'static str {
        "popcorn"
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn load(&mut self, program: Box<dyn Program>) -> GroupId {
        // Spread successive processes across kernels round-robin.
        let home = self.next_home % self.num_kernels();
        self.next_home += 1;
        let (group, core) = self.machine.create_group(home, program, self.sim.now());
        self.sim.schedule(
            self.sim.now(),
            OsEvent::CoreRun {
                kernel: home as u16,
                core,
            },
        );
        // First load under an active policy: start the staggered per-kernel
        // telemetry/policy ticks (a no-op vec under `ScriptedOnly`).
        for (at, msg) in self.machine.policy_tick_starts(self.sim.now()) {
            self.sim.schedule(at, OsEvent::Custom(msg));
        }
        // Likewise the crash-detection timers when crashes are planned (a
        // no-op vec for every fault-free configuration).
        for (at, msg) in self.machine.crash_detect_starts() {
            self.sim.schedule(at, OsEvent::Custom(msg));
        }
        group
    }

    fn run_with(&mut self, horizon: SimTime, event_budget: u64) -> RunReport {
        let stop = self.sim.run_until(&mut self.machine, horizon, event_budget);
        let now = self.sim.now();
        // Global invariant check on every completed run (the queue fully
        // drained, so any inconsistency is permanent, not in flight).
        if stop == StopCondition::QueueEmpty {
            if let Err(violations) = crate::invariants::check(&self.machine, now) {
                panic!(
                    "global invariants violated at {now:?}:\n  {}",
                    violations.join("\n  ")
                );
            }
        }
        let mut metrics = self.machine.stats.metrics();
        metrics.insert(
            "messages".into(),
            self.machine.fabric().total_sends() as f64,
        );
        metrics.insert(
            "msg_latency_us_mean".into(),
            self.machine.fabric().latency_histogram().mean() / 1_000.0,
        );
        if self.machine.fabric().faults_active() {
            let fc = self.machine.fabric().fault_counters();
            metrics.insert("drops_injected".into(), fc.drops as f64);
            metrics.insert("dups_injected".into(), fc.dups as f64);
            metrics.insert("delays_injected".into(), fc.delays as f64);
            metrics.insert("blackout_drops".into(), fc.blackout_drops as f64);
            metrics.insert("crash_drops".into(), fc.crash_drops as f64);
        }
        // Zero under `ScriptedOnly`: no telemetry is sampled.
        metrics.insert(
            "runq_depth_tw_mean".into(),
            if self.machine.policy_active() {
                self.machine.telemetry().mean_depth_tw()
            } else {
                0.0
            },
        );
        // Under fault injection, moot RPC-deadline timers can trail the real
        // work by up to `rpc_deadline_ns`; report when the workload actually
        // finished. The same applies to an active policy's trailing final
        // tick. Fault-free scripted runs keep the raw clock (byte-identical
        // to a build without the reliability layer).
        let finished_at = if self.machine.fabric().faults_active() || self.machine.policy_active() {
            self.machine.last_activity()
        } else {
            now
        };
        // Home-service occupancy (E16's headline measurement): groups
        // reaped mid-run already folded their page service points into
        // the aggregate; add those still live at drain, then report.
        // Pure read-out of already-recorded serialization — no event,
        // timestamp, or counter is touched.
        let mut home = self.machine.stats.home_service.clone();
        for s in self.machine.servers().values() {
            s.page.fold_into(&mut home);
        }
        for s in self.machine.delegate_servers().values() {
            s.fold_into(&mut home);
        }
        let span = finished_at.as_nanos() as f64;
        metrics.insert("home_servers".into(), home.servers as f64);
        metrics.insert("home_peak_depth".into(), home.peak_depth as f64);
        metrics.insert("home_depth_mean".into(), home.depth_hist.mean());
        metrics.insert("home_depth_tw_mean_max".into(), home.depth_tw_mean_max);
        metrics.insert(
            "home_busy_pct_max".into(),
            if span > 0.0 {
                home.busy_ns_max as f64 * 100.0 / span
            } else {
                0.0
            },
        );
        metrics.insert(
            "home_busy_pct_mean".into(),
            if span > 0.0 && home.servers > 0 {
                home.busy_ns_sum as f64 * 100.0 / (span * home.servers as f64)
            } else {
                0.0
            },
        );
        RunReport::new(
            self.name(),
            self.machine.kernels(),
            stop,
            finished_at,
            self.sim.events_processed(),
            metrics,
        )
    }
}
