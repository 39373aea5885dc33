//! Experiment rigs: uniform construction and execution of the three OS
//! models, plus the parallel sweep machinery shared by every experiment.
//!
//! # Parallel deterministic sweeps
//!
//! Every simulation in the suite is single-threaded and seeded, so
//! *independent* simulations (different experiments, different sweep
//! points, different OS models) can run on parallel host threads without
//! changing a single virtual-time result. [`parallel_map`] is the one
//! primitive everything uses: it maps a function over items on up to
//! [`jobs`] worker threads and returns results **in input order**, so
//! tables render byte-for-byte identically whether the sweep ran serially
//! or in parallel. The `repro` binary's `--jobs N` / `--serial` flags feed
//! [`set_jobs`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use popcorn_baselines::{MultikernelOs, SmpOs};
use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::program::Program;
use popcorn_sim::SimTime;

/// Configured host-parallelism level; 0 means "not set, use the host's
/// available parallelism".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of host worker threads sweeps may use (the `repro`
/// `--jobs` flag). `1` forces fully serial execution (`--serial`); `0`
/// resets to the default (available host parallelism).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective host-parallelism level: the value set by [`set_jobs`], or
/// the host's available parallelism when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on up to [`jobs`] scoped worker threads,
/// returning results in input order.
///
/// Determinism: each item is processed exactly once by exactly one worker,
/// simulations own their seeded RNGs, and results are collected by index —
/// so the output is identical to `items.into_iter().map(f).collect()`
/// regardless of the parallelism level or scheduling. With `jobs() == 1`
/// (or a single item) no threads are spawned at all.
///
/// An installed event sink ([`popcorn_sim::current_event_sink`]) is
/// propagated into the workers, so events processed by nested simulations
/// stay credited to the calling scope's experiment.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let sink = popcorn_sim::current_event_sink();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (slots, results, next, f) = (&slots, &results, &next, &f);
            let sink = sink.clone();
            s.spawn(move || {
                let work = || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("item slot poisoned")
                        .take()
                        .expect("each item claimed exactly once");
                    let r = f(item);
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                };
                match sink {
                    Some(sink) => popcorn_sim::with_event_sink(sink, work),
                    None => work(),
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Simulator self-metrics for one regenerated experiment (the entries of
/// `BENCH_repro.json`).
#[derive(Debug, Clone)]
pub struct ExperimentPerf {
    /// Experiment id as selected on the command line (`e5`, `ablate-vma`, …).
    pub id: String,
    /// Host wall-clock time spent regenerating the experiment, at full
    /// [`Duration`] resolution.
    pub wall: Duration,
    /// Simulation events processed across every run of the experiment.
    pub events: u64,
}

impl ExperimentPerf {
    /// Events per host second, computed from the full-resolution
    /// [`Duration`]. Never derive this from the rounded `wall_secs` JSON
    /// field: millisecond rounding quantizes sub-10ms experiments badly
    /// and reports `0` events/sec for anything under half a millisecond.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Renders the `BENCH_repro.json` body (hand-rolled: the build is fully
/// offline, no serde).
///
/// Each entry records `wall_nanos` — the exact integer measurement — next
/// to the human-friendly millisecond-rounded `wall_secs`; `events_per_sec`
/// is always computed from the unrounded duration.
pub fn perf_json(jobs: usize, total_wall: Duration, perfs: &[ExperimentPerf]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let total_events: u64 = perfs.iter().map(|p| p.events).sum();
    let entries: Vec<String> = perfs
        .iter()
        .map(|p| {
            format!(
                "    {{\n      \"id\": \"{}\",\n      \"wall_secs\": {:.3},\n      \"wall_nanos\": {},\n      \"events\": {},\n      \"events_per_sec\": {:.0}\n    }}",
                p.id,
                p.wall.as_secs_f64(),
                p.wall.as_nanos(),
                p.events,
                p.events_per_sec()
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"repro\",\n  \"jobs\": {},\n  \"host_parallelism\": {},\n  \"total_wall_secs\": {:.3},\n  \"total_wall_nanos\": {},\n  \"total_events\": {},\n  \"experiments\": [\n{}\n  ]\n}}",
        jobs,
        host,
        total_wall.as_secs_f64(),
        total_wall.as_nanos(),
        total_events,
        entries.join(",\n")
    )
}

/// Which OS model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsKind {
    /// The replicated-kernel OS (the paper's system).
    Popcorn,
    /// SMP Linux-like baseline.
    Smp,
    /// Barrelfish-like multikernel baseline.
    Multikernel,
}

impl OsKind {
    /// All three, in the comparison order used by the tables.
    pub const ALL: [OsKind; 3] = [OsKind::Popcorn, OsKind::Smp, OsKind::Multikernel];

    /// Short name for table columns.
    pub fn name(self) -> &'static str {
        match self {
            OsKind::Popcorn => "popcorn",
            OsKind::Smp => "smp",
            OsKind::Multikernel => "multikernel",
        }
    }
}

/// Machine/OS configuration of one experiment cell.
#[derive(Debug, Clone)]
pub struct Rig {
    /// Machine layout.
    pub topology: Topology,
    /// Kernel instances for the multi-kernel models (SMP ignores this).
    pub kernels: u16,
    /// Popcorn protocol parameters (for ablations).
    pub popcorn: PopcornParams,
    /// Virtual-time horizon (safety stop).
    pub horizon: SimTime,
    /// Event budget (livelock guard).
    pub event_budget: u64,
}

impl Default for Rig {
    fn default() -> Self {
        Rig {
            topology: Topology::paper_default(),
            kernels: 4,
            popcorn: PopcornParams::default(),
            horizon: SimTime::from_secs(300),
            event_budget: 200_000_000,
        }
    }
}

impl Rig {
    /// A rig on the default 64-core machine with 4 kernels.
    pub fn paper() -> Self {
        Rig::default()
    }

    /// A small rig for quick runs.
    pub fn small() -> Self {
        Rig {
            topology: Topology::new(2, 4),
            kernels: 2,
            ..Rig::default()
        }
    }

    /// Builds one OS model instance.
    pub fn build(&self, kind: OsKind) -> Box<dyn OsModel> {
        match kind {
            OsKind::Popcorn => Box::new(
                PopcornOs::builder()
                    .topology(self.topology)
                    .kernels(self.kernels)
                    .popcorn_params(self.popcorn.clone())
                    .build(),
            ),
            OsKind::Smp => Box::new(SmpOs::builder().topology(self.topology).build()),
            OsKind::Multikernel => Box::new(
                MultikernelOs::builder()
                    .topology(self.topology)
                    .kernels(self.kernels)
                    .build(),
            ),
        }
    }

    /// Builds, loads and runs one workload; panics on an unclean run so
    /// experiments cannot silently report numbers from deadlocked runs.
    pub fn run(&self, kind: OsKind, program: Box<dyn Program>) -> RunReport {
        let mut os = self.build(kind);
        os.load(program);
        let report = os.run_with(self.horizon, self.event_budget);
        assert!(
            report.is_clean(),
            "{} run was not clean (stop={:?}, stuck={:?})",
            kind.name(),
            report.stop,
            report.stuck_tasks
        );
        report
    }

    /// Like [`Rig::run`] but returns the (possibly unclean) report.
    pub fn run_lenient(&self, kind: OsKind, program: Box<dyn Program>) -> RunReport {
        let mut os = self.build(kind);
        os.load(program);
        os.run_with(self.horizon, self.event_budget)
    }

    /// Runs one workload per OS kind, on parallel host threads when
    /// [`jobs`] allows (each simulation itself is single-threaded and
    /// deterministic, so the reports are identical to a serial run).
    pub fn run_all<F>(&self, make: F) -> Vec<(OsKind, RunReport)>
    where
        F: Fn() -> Box<dyn Program> + Sync,
    {
        parallel_map(OsKind::ALL.to_vec(), |kind| (kind, self.run(kind, make())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_workloads::micro;

    #[test]
    fn all_three_models_run_the_same_workload() {
        let rig = Rig::small();
        let results = rig.run_all(|| micro::null_syscall_storm(4, 20));
        assert_eq!(results.len(), 3);
        for (kind, r) in &results {
            assert!(r.is_clean(), "{} not clean", kind.name());
            assert_eq!(r.exited_tasks, 5, "{}", kind.name());
        }
        // Deterministic: re-running popcorn gives identical virtual time.
        let again = rig.run(OsKind::Popcorn, micro::null_syscall_storm(4, 20));
        let first = &results
            .iter()
            .find(|(k, _)| *k == OsKind::Popcorn)
            .expect("popcorn ran")
            .1;
        assert_eq!(again.finished_at, first.finished_at);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let doubled = parallel_map((0..64).collect::<Vec<u64>>(), |x| x * 2);
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<u64>>());
        // Degenerate inputs.
        assert_eq!(parallel_map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_propagates_event_sink_to_workers() {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let sink = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let rig = Rig::small();
        let serial: Vec<u64> = popcorn_sim::with_event_sink(sink.clone(), || {
            parallel_map(vec![(); 4], |_| {
                rig.run(OsKind::Popcorn, micro::null_syscall_storm(2, 5))
                    .events
            })
        });
        let expected: u64 = serial.iter().sum();
        assert!(expected > 0);
        assert_eq!(sink.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn events_per_sec_uses_the_unrounded_duration() {
        // 2308 events in 361.4 µs — rounds to 0.000 s in the JSON, which
        // used to make the recorded rate 0. The unrounded rate is ~6.4M/s.
        let p = ExperimentPerf {
            id: "e2".into(),
            wall: Duration::from_nanos(361_400),
            events: 2308,
        };
        let rate = p.events_per_sec();
        assert!((rate - 6_386_275.594).abs() < 1.0, "rate = {rate}");
        // Degenerate zero-duration measurement stays finite.
        let z = ExperimentPerf {
            id: "z".into(),
            wall: Duration::ZERO,
            events: 10,
        };
        assert_eq!(z.events_per_sec(), 0.0);
    }

    #[test]
    fn perf_json_records_exact_nanos_next_to_rounded_secs() {
        let perfs = vec![ExperimentPerf {
            id: "e1".into(),
            wall: Duration::from_nanos(412_345),
            events: 1000,
        }];
        let json = perf_json(1, Duration::from_nanos(412_345), &perfs);
        // The rounded view quantizes to zero...
        assert!(json.contains("\"wall_secs\": 0.000"), "{json}");
        // ...but the exact measurement and the rate derived from it do not.
        assert!(json.contains("\"wall_nanos\": 412345"), "{json}");
        assert!(json.contains("\"events_per_sec\": 2425154"), "{json}");
        assert!(json.contains("\"total_wall_nanos\": 412345"), "{json}");
        assert!(json.contains("\"total_events\": 1000"), "{json}");
    }

    #[test]
    #[should_panic(expected = "not clean")]
    fn unclean_runs_panic_loudly() {
        #[derive(Debug)]
        struct Forever;
        impl popcorn_kernel::program::Program for Forever {
            fn step(
                &mut self,
                _r: popcorn_kernel::program::Resume,
                _e: &popcorn_kernel::program::ProgEnv,
            ) -> popcorn_kernel::program::Op {
                popcorn_kernel::program::Op::Compute(1_000_000)
            }
        }
        let rig = Rig {
            horizon: SimTime::from_millis(1),
            ..Rig::small()
        };
        let _ = rig.run(OsKind::Smp, Box::new(Forever));
    }
}
