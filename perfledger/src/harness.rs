//! Runs a [`Plan`] against the Popcorn model: the untraced run behind
//! every end-to-end number, and the traced run that fills the per-layer
//! ledger. Both go through public APIs only, and both must produce the
//! same virtual digest.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use popcorn_core::machine::{PopEvent, PopcornMachine};
use popcorn_core::proto::Protocol;
use popcorn_core::{PopStats, PopcornOs, PopcornParams};
use popcorn_hw::{HwParams, Machine, Topology};
use popcorn_kernel::kernel::{Kernel, RunOutcome};
use popcorn_kernel::osmodel::{
    self, ensure_core_run, OsEvent, OsMachine, OsModel, DEFAULT_EVENT_BUDGET,
};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Resume, SysResult, SyscallReq};
use popcorn_msg::{Fabric, KernelId, MsgParams};
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator, StopCondition};

use crate::metrics::lookup;
use crate::program::{self, Leader, Outputs, Sink};
use crate::workloads::{Plan, KERNELS};

/// One run's results.
#[derive(Debug)]
pub struct Run {
    /// Host time of `build()` plus `load()`.
    pub setup: Duration,
    /// Host time of the run itself.
    pub wall: Duration,
    /// Events the engine dispatched.
    pub events: u64,
    /// Virtual time when the run ended.
    pub makespan: SimTime,
    /// What the threads handed back (samples sorted), with the run-level
    /// checks' failures added.
    pub out: Outputs,
    /// Hash of everything virtual: events, end time, the model's sorted
    /// metrics and the threads' outputs.
    pub digest: u64,
    /// Per-layer counts read from the model (untraced runs only).
    pub counts: Vec<(&'static str, f64)>,
}

fn loaders(plan: &Plan) -> (Sink, Vec<Box<dyn popcorn_kernel::program::Program>>) {
    let sink = Sink::default();
    let leaders = plan
        .procs
        .iter()
        .map(|p| Leader::boxed(p.clone(), sink.clone()))
        .collect();
    (sink, leaders)
}

fn take(sink: Sink) -> Outputs {
    let mut out = Arc::try_unwrap(sink)
        .map(|m| m.into_inner().expect("a thread panicked while reporting"))
        .unwrap_or_else(|s| s.lock().expect("a thread panicked while reporting").clone());
    for l in &mut out.lat {
        l.sort_unstable();
    }
    out
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// The model state the digest and the checks read.
struct Ended<'a> {
    events: u64,
    at: SimTime,
    stop: StopCondition,
    kernels: &'a [Kernel],
    stats: &'a PopStats,
    fabric: &'a Fabric,
}

impl Ended<'_> {
    /// Adds the run-level checks to `out` and returns the virtual digest.
    fn finish(&self, plan: &Plan, out: &mut Outputs) -> u64 {
        let exited: u64 = self.kernels.iter().map(|k| k.stats.exited.get()).sum();
        let stuck = osmodel::stuck_tasks(self.kernels);
        if self.stop != StopCondition::QueueEmpty || !stuck.is_empty() {
            out.fail(format!(
                "run not clean: {:?} with {} stuck threads",
                self.stop,
                stuck.len()
            ));
        }
        if exited != plan.threads() {
            out.fail(format!(
                "{exited} threads exited, {} were created",
                plan.threads()
            ));
        }
        let workers: u64 = plan.procs.iter().map(|p| p.threads.len() as u64).sum();
        if out.threads_done != workers {
            out.fail(format!(
                "{} of {workers} threads finished their scripts",
                out.threads_done
            ));
        }
        let mut h = DefaultHasher::new();
        (self.events, self.at, exited, stuck.len()).hash(&mut h);
        let mut metrics = osmodel::base_metrics(self.kernels);
        metrics.extend(self.stats.metrics());
        metrics.insert("messages".into(), self.fabric.total_sends() as f64);
        for (k, v) in &metrics {
            (k, v.to_bits()).hash(&mut h);
        }
        (&out.lat, out.attempted, out.failed, out.threads_done).hash(&mut h);
        h.finish()
    }
}

/// One untraced run: build, load, run, check.
pub fn run(plan: &Plan) -> Result<Run, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut os = PopcornOs::builder()
            .topology(Topology::paper_default())
            .kernels(KERNELS)
            .build();
        let (sink, leaders) = loaders(plan);
        for l in leaders {
            os.load(l);
        }
        let t1 = Instant::now();
        let report = os.run();
        let wall = t1.elapsed();
        let mut out = take(sink);
        let digest = Ended {
            events: report.events,
            at: report.finished_at,
            stop: report.stop,
            kernels: os.kernels(),
            stats: os.stats(),
            fabric: os.fabric(),
        }
        .finish(plan, &mut out);
        Run {
            setup: t1 - t0,
            wall,
            events: report.events,
            makespan: report.finished_at,
            out,
            digest,
            counts: layer_counts(&os, &report.metrics),
        }
    }))
    .map_err(panic_message)
}

/// Handler families the ledger charges host time to: the six protocol
/// modules of `popcorn-core`, plus syscalls served inline.
pub const FAMILIES: [&str; 7] = [
    "migrate",
    "group",
    "vma",
    "page",
    "futex",
    "transport",
    "sys",
];
const SPAN_NAMES: [&str; 7] = [
    "core.migrate",
    "core.group",
    "core.vma",
    "core.page",
    "core.futex",
    "core.transport",
    "core.sys",
];
const GROUP: usize = 1;
const PAGE: usize = 3;
const FUTEX: usize = 4;

fn protocol_family(p: Protocol) -> usize {
    match p {
        Protocol::Migrate => 0,
        Protocol::Group => GROUP,
        Protocol::Vma => 2,
        Protocol::Page => PAGE,
        Protocol::Futex => FUTEX,
        Protocol::Transport => 5,
    }
}

fn syscall_family(req: &SyscallReq) -> usize {
    match req {
        SyscallReq::Migrate(_) => 0,
        SyscallReq::Clone { .. } | SyscallReq::ExitGroup { .. } => GROUP,
        SyscallReq::Mmap { .. } | SyscallReq::Munmap { .. } | SyscallReq::Brk { .. } => 2,
        SyscallReq::Futex(_) => FUTEX,
        SyscallReq::GetPid
        | SyscallReq::GetTid
        | SyscallReq::GetKernel
        | SyscallReq::Yield
        | SyscallReq::Nanosleep { .. } => 6,
    }
}

/// One traced interval: a handled event or a layer call inside it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the traced run began.
    pub start: u64,
    /// Duration in ns.
    pub dur: u64,
    /// Index of the event it belongs to (shared by the event's spans).
    pub event: u64,
    /// Whether this is the event's own span (the parent of the others).
    pub root: bool,
}

/// Host time and counts of one traced run, per layer.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Wall time of `Simulator::run_until`.
    pub wall: Duration,
    /// Engine time, ns: popping events between handlers, and scheduling
    /// follow-up events once the handler's layer calls have returned.
    pub sim_ns: u64,
    /// `Kernel::run_core` time including program steps, ns.
    pub run_core_ns: u64,
    /// Program steps and their time, ns.
    pub steps: u64,
    /// Time inside `Program::step`, ns.
    pub step_ns: u64,
    /// Handler time per [`FAMILIES`] entry, ns.
    pub family_ns: [u64; 7],
    /// Handler calls per [`FAMILIES`] entry.
    pub family_calls: [u64; 7],
    /// `run_core` calls.
    pub core_runs: u64,
    /// `run_core` calls that returned `Busy` in the future without
    /// stepping any program: the core was still busy.
    pub wasted: u64,
    /// Sampled spans (one event in [`SPAN_EVERY`]).
    pub spans: Vec<Span>,
}

/// One event in this many is recorded as spans.
pub const SPAN_EVERY: u64 = 64;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// `PopcornMachine` behind a copy of the `osmodel::dispatch` skeleton that
/// times every layer call. Fault-free configurations only: events are
/// never addressed to a crashed kernel, so no crash interception is needed.
struct Traced {
    m: PopcornMachine,
    ledger: Ledger,
    origin: Instant,
    last: Instant,
    events: u64,
    spans: bool,
}

impl Traced {
    fn hook(&mut self, family: usize, f: impl FnOnce(&mut PopcornMachine)) -> Instant {
        f(&mut self.m);
        let end = Instant::now();
        self.ledger.family_calls[family] += 1;
        end
    }
}

impl Handler<PopEvent> for Traced {
    fn handle(&mut self, now: SimTime, event: PopEvent, sched: &mut Scheduler<'_, PopEvent>) {
        let t0 = Instant::now();
        self.ledger.sim_ns += ns(t0 - self.last);
        let index = self.events;
        self.events += 1;
        // (layer end, and the one family hook the event ran, if any)
        let mut run_core_end = None;
        let mut hook: Option<(usize, Instant, Instant)> = None;
        match event {
            OsEvent::CoreRun { kernel, core } => {
                let ki = kernel as usize;
                let steps = program::steps_so_far();
                let outcome = self.m.kernels_mut()[ki].run_core(now, core);
                let t1 = Instant::now();
                run_core_end = Some(t1);
                self.ledger.core_runs += 1;
                let (family, end) = match outcome {
                    RunOutcome::Idle => (None, t1),
                    RunOutcome::Busy { until } => {
                        if until > now && program::steps_so_far() == steps {
                            self.ledger.wasted += 1;
                        }
                        ensure_core_run(sched, kernel, core, until);
                        (None, t1)
                    }
                    RunOutcome::Preempted { at } => {
                        ensure_core_run(sched, kernel, core, at);
                        (None, t1)
                    }
                    RunOutcome::Syscall { tid, req, at } => {
                        let f = syscall_family(&req);
                        (
                            Some(f),
                            self.hook(f, |m| m.handle_syscall(sched, ki, core, tid, req, at)),
                        )
                    }
                    RunOutcome::SyncOp { tid, addr, op, at } => (
                        Some(FUTEX),
                        self.hook(FUTEX, |m| {
                            m.handle_sync_op(sched, ki, core, tid, addr, op, at)
                        }),
                    ),
                    RunOutcome::Fault {
                        tid,
                        page,
                        write,
                        no_vma,
                        at,
                    } => (
                        Some(PAGE),
                        self.hook(PAGE, |m| {
                            m.handle_fault(sched, ki, core, tid, page, write, no_vma, at)
                        }),
                    ),
                    RunOutcome::Exited { tid, code, at } => {
                        let end =
                            self.hook(GROUP, |m| m.handle_exit(sched, ki, core, tid, code, at));
                        ensure_core_run(sched, kernel, core, at);
                        (Some(GROUP), end)
                    }
                };
                if let Some(f) = family {
                    hook = Some((f, t1, end));
                }
            }
            OsEvent::TimerWake { kernel, tid } => {
                let k = &mut self.m.kernels_mut()[kernel as usize];
                if let Some(task) = k.task_mut(tid) {
                    task.resume = Resume::Sys(SysResult::Val(0));
                    let core = k.wake(tid, now);
                    ensure_core_run(sched, kernel, core, now);
                }
                run_core_end = Some(Instant::now());
            }
            OsEvent::Custom(msg) => {
                let f = protocol_family(msg.payload.protocol());
                let end = self.hook(f, |m| m.handle_custom(sched, msg, now));
                hook = Some((f, t0, end));
            }
        }
        let exit = Instant::now();
        let mut covered = 0;
        if let Some(t1) = run_core_end {
            self.ledger.run_core_ns += ns(t1 - t0);
            covered += ns(t1 - t0);
        }
        if let Some((f, a, b)) = hook {
            self.ledger.family_ns[f] += ns(b - a);
            covered += ns(b - a);
        }
        self.ledger.sim_ns += ns(exit - t0) - covered;
        self.last = exit;
        if self.spans && index.is_multiple_of(SPAN_EVERY) {
            let at = |t: Instant| ns(t - self.origin);
            let spans = &mut self.ledger.spans;
            spans.push(Span {
                name: "event",
                start: at(t0),
                dur: ns(exit - t0),
                event: index,
                root: true,
            });
            if let Some(t1) = run_core_end {
                spans.push(Span {
                    name: "kernel.run_core",
                    start: at(t0),
                    dur: ns(t1 - t0),
                    event: index,
                    root: false,
                });
            }
            if let Some((f, a, b)) = hook {
                spans.push(Span {
                    name: SPAN_NAMES[f],
                    start: at(a),
                    dur: ns(b - a),
                    event: index,
                    root: false,
                });
            }
        }
    }
}

/// Builds the machine exactly as `PopcornOsBuilder::build` does for the
/// benchmark's configuration (paper topology, 4 kernels, default params).
fn machine() -> PopcornMachine {
    let topo = Topology::paper_default();
    let os = OsParams::default();
    let machine = Machine::new(topo, HwParams::default());
    let parts = topo.partition(KERNELS);
    let locations = parts.iter().map(|p| p[0]).collect();
    let fabric = Fabric::new(&machine, locations, MsgParams::default());
    let kernels = parts
        .into_iter()
        .enumerate()
        .map(|(i, cores)| Kernel::new(KernelId(i as u16), cores, os.clone(), machine.clone()))
        .collect();
    PopcornMachine::new(kernels, fabric, machine, PopcornParams::default())
}

/// One traced run: the same model and load order as [`run`], driven by
/// the timing handler. Records spans when `spans` is set.
pub fn run_traced(plan: &Plan, spans: bool) -> Result<(Run, Ledger), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut m = machine();
        assert!(
            !m.fabric().faults_active() && !m.policy_active(),
            "the traced run models fault-free, policy-free runs only"
        );
        let mut sim: Simulator<PopEvent> = Simulator::new();
        let (sink, leaders) = loaders(plan);
        // The same schedule calls, in the same order, as `PopcornOs::load`.
        for (i, l) in leaders.into_iter().enumerate() {
            let home = i % usize::from(KERNELS);
            let (_, core) = m.create_group(home, l, sim.now());
            sim.schedule(
                sim.now(),
                OsEvent::CoreRun {
                    kernel: home as u16,
                    core,
                },
            );
            assert!(
                m.policy_tick_starts(sim.now()).is_empty() && m.crash_detect_starts().is_empty()
            );
        }
        program::step_clock(true);
        let start = Instant::now();
        let mut traced = Traced {
            m,
            ledger: Ledger::default(),
            origin: start,
            last: start,
            events: 0,
            spans,
        };
        let stop = sim.run_until(&mut traced, SimTime::MAX, DEFAULT_EVENT_BUDGET);
        let wall = start.elapsed();
        let (steps, step_ns) = program::step_clock(false);
        let Traced { m, mut ledger, .. } = traced;
        ledger.wall = wall;
        ledger.steps = steps;
        ledger.step_ns = step_ns;
        let mut out = take(sink);
        if stop == StopCondition::QueueEmpty {
            if let Err(v) = popcorn_core::invariants::check(&m, sim.now()) {
                out.fail(format!("invariants violated: {}", v.join("; ")));
            }
        }
        let digest = Ended {
            events: sim.events_processed(),
            at: sim.now(),
            stop,
            kernels: m.kernels(),
            stats: &m.stats,
            fabric: m.fabric(),
        }
        .finish(plan, &mut out);
        let run = Run {
            setup: Duration::ZERO,
            wall,
            events: sim.events_processed(),
            makespan: sim.now(),
            out,
            digest,
            counts: Vec::new(),
        };
        (run, ledger)
    }))
    .map_err(|e| {
        program::step_clock(false);
        panic_message(e)
    })
}

/// Deterministic per-layer counts of a finished untraced run.
fn layer_counts(
    os: &PopcornOs,
    metrics: &std::collections::BTreeMap<String, f64>,
) -> Vec<(&'static str, f64)> {
    let s = os.stats();
    let mut c = Vec::new();
    let mut put = |name: &str, v: f64| c.push((lookup(name).name, v));
    let kernels = os.kernels();
    put(
        "kernel.ctx_switches",
        kernels
            .iter()
            .map(|k| k.stats.ctx_switches.get())
            .sum::<u64>() as f64,
    );
    let (wait, waits) = kernels.iter().fold((0.0, 0u64), |(w, n), k| {
        let h = &k.stats.sched_latency;
        (w + h.mean() * h.count() as f64, n + h.count())
    });
    put(
        "kernel.sched_wait_us_mean",
        wait / waits.max(1) as f64 / 1e3,
    );
    for p in Protocol::ALL {
        let pc = s.proto.get(p);
        let f = p.name();
        put(&format!("core.{f}.msgs_out"), pc.msgs_out.get() as f64);
        put(
            &format!("core.{f}.rpcs_issued"),
            pc.rpcs_issued.get() as f64,
        );
        put(
            &format!("core.{f}.service_us_mean"),
            pc.service.mean() / 1e3,
        );
    }
    let (first, back) = (s.migrations_first.get(), s.migrations_back.get());
    put("core.migrate.first", first as f64);
    put("core.migrate.back", back as f64);
    put(
        "core.migrate.back_ratio",
        back as f64 / (first + back).max(1) as f64,
    );
    put(
        "core.page.remote_faults",
        (s.faults_remote_read.get() + s.faults_remote_write.get()) as f64,
    );
    put("core.page.invalidations", s.invalidations.get() as f64);
    put("core.page.transfers", s.page_transfers.get() as f64);
    for (name, key) in [
        ("core.page.home_peak_depth", "home_peak_depth"),
        ("core.page.home_depth_tw_mean_max", "home_depth_tw_mean_max"),
        ("core.page.home_busy_pct_max", "home_busy_pct_max"),
    ] {
        let v = *metrics
            .get(key)
            .unwrap_or_else(|| panic!("RunReport has no metric {key:?}"));
        put(name, v);
    }
    let remote = s.rmw_remote.get() + s.futex_remote.get();
    let all = remote + s.rmw_local.get() + s.futex_local.get();
    put("core.futex.remote_ratio", remote as f64 / all.max(1) as f64);
    put("core.transport.retransmits", s.retransmits.get() as f64);
    put("core.transport.ops_failed", s.ops_failed.get() as f64);
    let f = os.fabric();
    put("msg.sends", f.total_sends() as f64);
    put("msg.latency_us_mean", f.latency_histogram().mean() / 1e3);
    put(
        "msg.queue_delay_us_mean",
        f.queue_delay_histogram().mean() / 1e3,
    );
    c
}

/// The sampled spans as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut o = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.root {
            "null".to_string()
        } else {
            format!("\"event {}\"", s.event)
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            o,
            "{{\"name\": \"{}\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": \"event {}\", \"parent\": {parent}}}}}{sep}",
            s.name,
            s.start as f64 / 1e3,
            s.dur as f64 / 1e3,
            s.event,
        )
        .expect("write to a String");
    }
    o.push_str("]}\n");
    o
}
