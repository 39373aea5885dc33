//! Experiment rigs and the runner: uniform construction and execution of
//! the three OS models, experiments as lists of cells, and the one
//! parallel map that runs them.
//!
//! [`Rig`] is the only code in this crate that builds an OS model (a
//! `clippy.toml` lint holds every other caller off the model
//! constructors), so the inputs of an experiment cell are its [`Rig`] plus
//! the parameter structs' defaults. The rig's fault plan applies to Popcorn only; the
//! baselines always run on a fault-free fabric.
//!
//! # Experiments as cells
//!
//! An [`Experiment`] is data: an id and a function that builds its
//! [`Plan`] without running anything — the list of its [`Cell`]s and a
//! pure `render` that folds the cells' [`CellOut`]s, in list order, into
//! its [`Table`]. A cell is one configured run under a stable key such as
//! `e5/32/smp`.
//!
//! # Parallel deterministic sweeps
//!
//! Every simulation in the suite is single-threaded and seeded, so
//! independent cells can run on parallel host threads without changing a
//! single virtual-time result. [`run`] gathers every cell of the selected
//! experiments and maps them through one [`parallel_map`] on `jobs`
//! threads (the `repro` binary's `--jobs N`), so at most `jobs`
//! simulations run at once. Results come back **in input order**, so
//! tables render byte for byte identically at any `jobs`. A `clippy.toml`
//! lint keeps [`run`] the only caller of [`parallel_map`] outside tests.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use popcorn_baselines::{MultikernelOs, SmpOs};
use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::program::Program;
use popcorn_msg::{FaultPlan, MsgParams};
use popcorn_sim::SimTime;

use crate::table::Table;

/// The host's available parallelism: the `--jobs` default.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, returning
/// results in input order.
///
/// Determinism: each item is processed exactly once by exactly one worker,
/// simulations own their seeded RNGs, and results are collected by index —
/// so the output is identical to `items.into_iter().map(f).collect()`
/// regardless of `jobs` or scheduling. With `jobs == 1` (or a single item)
/// no threads are spawned at all. A worker's panic reaches the caller with
/// its own message.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let next = queue.lock().expect("item queue poisoned").next();
                        let Some((i, item)) = next else { return mine };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// What one cell measured: the typed values its experiment's `render`
/// reads.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Simulation events the cell's run processed (0 for a cell that runs
    /// no simulator).
    pub events: u64,
    /// Virtual time the run finished.
    pub finished: SimTime,
    /// Whether every loaded thread ran to completion ([`Rig::run`] panics
    /// otherwise, so only cells that run a model themselves see `false`).
    pub clean: bool,
    /// The run's report metrics plus any value the cell adds with
    /// [`CellOut::with`].
    metrics: BTreeMap<String, f64>,
}

impl CellOut {
    /// Adds (or replaces) the named value.
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.metrics.insert(name.to_string(), value);
        self
    }

    /// A value by name.
    ///
    /// # Panics
    ///
    /// Panics if the cell recorded no value `name`, so a misspelled name
    /// fails loudly instead of reading as zero.
    pub fn metric(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(&v) => v,
            None => panic!("cell recorded no value {name:?}"),
        }
    }

    /// [`CellOut::finished`] in virtual milliseconds.
    pub fn ms(&self) -> f64 {
        self.finished.as_millis_f64()
    }
}

impl From<RunReport> for CellOut {
    fn from(r: RunReport) -> Self {
        CellOut {
            events: r.events,
            finished: r.finished_at,
            clean: r.is_clean(),
            metrics: r.metrics,
        }
    }
}

/// One configured run of an experiment.
pub struct Cell {
    /// Stable key: the experiment id, then the cell's sweep coordinates
    /// (`e5/32/smp`, `e14/pages/crash`).
    pub key: String,
    /// Runs the cell.
    pub run: Box<dyn Fn() -> CellOut + Send + Sync>,
}

impl Cell {
    /// The cell `key` that runs `run`.
    pub fn new(key: String, run: impl Fn() -> CellOut + Send + Sync + 'static) -> Self {
        Cell {
            key,
            run: Box::new(run),
        }
    }
}

/// A pure function that folds an experiment's cell outputs, in cell
/// order, into its table.
pub type Render = Box<dyn Fn(&[CellOut]) -> Table>;

/// What an experiment regenerates: its cells and their [`Render`].
pub struct Plan {
    /// The cells, each not yet run.
    pub cells: Vec<Cell>,
    /// Renders the table from the cells' outputs.
    pub render: Render,
}

impl Plan {
    /// The plan that runs `cells` and renders their outputs with `render`.
    pub fn new(cells: Vec<Cell>, render: impl Fn(&[CellOut]) -> Table + 'static) -> Self {
        Plan {
            cells,
            render: Box::new(render),
        }
    }
}

/// One experiment of the evaluation: its `repro` id (`e5`, `ablate-vma`,
/// …, the `results/<id>.json` name) and the function that builds its
/// [`Plan`] without running any cell.
pub type Experiment = (&'static str, fn() -> Plan);

/// Runs `cell`, timing it; a panic inside it is re-raised under its key.
fn run_cell(cell: &Cell) -> (CellOut, Duration) {
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(&cell.run)) {
        Ok(out) => (out, started.elapsed()),
        Err(panic) => {
            let msg = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("cell {}: {msg}", cell.key)
        }
    }
}

/// Runs every cell of `experiments` through one [`parallel_map`] on
/// `jobs` host threads and renders each experiment's table from its
/// cells, in order. Each experiment's [`ExperimentPerf`] sums its cells'
/// host time and events.
#[allow(clippy::disallowed_methods)]
pub fn run(jobs: usize, experiments: &[Experiment]) -> Vec<(Table, ExperimentPerf)> {
    let mut cells = Vec::new();
    let mut renders = Vec::new();
    for &(id, plan) in experiments {
        let plan = plan();
        renders.push((id, plan.cells.len(), plan.render));
        cells.extend(plan.cells);
    }
    let mut done = parallel_map(jobs, cells, |cell| run_cell(&cell)).into_iter();
    renders
        .into_iter()
        .map(|(id, n, render)| {
            let (outs, walls): (Vec<CellOut>, Vec<Duration>) = done.by_ref().take(n).unzip();
            let perf = ExperimentPerf {
                id,
                wall: walls.iter().sum(),
                events: outs.iter().map(|o| o.events).sum(),
            };
            (render(&outs), perf)
        })
        .collect()
}

/// Simulator self-metrics for one regenerated experiment (the entries of
/// `BENCH_repro.json`).
#[derive(Debug, Clone)]
pub struct ExperimentPerf {
    /// Experiment id as selected on the command line (`e5`, `ablate-vma`, …).
    pub id: &'static str,
    /// Host time summed over the experiment's cells, at full [`Duration`]
    /// resolution. Cells of different experiments run interleaved, so
    /// this is work, not a span of wall-clock time.
    pub wall: Duration,
    /// Simulation events processed across every cell of the experiment.
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
        host_parallelism(),
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
    /// Faults injected into Popcorn's message fabric (the baselines
    /// ignore this and run fault-free).
    pub faults: FaultPlan,
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
            faults: FaultPlan::none(),
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

    /// The configured Popcorn model, for cells that read its raw
    /// statistics rather than a [`RunReport`].
    #[allow(clippy::disallowed_methods)]
    pub fn popcorn(&self) -> PopcornOs {
        PopcornOs::builder()
            .topology(self.topology)
            .kernels(self.kernels)
            .popcorn_params(self.popcorn.clone())
            .msg_params(MsgParams {
                faults: self.faults.clone(),
                ..MsgParams::default()
            })
            .build()
    }

    /// Builds one OS model instance.
    #[allow(clippy::disallowed_methods)]
    pub fn build(&self, kind: OsKind) -> Box<dyn OsModel> {
        match kind {
            OsKind::Popcorn => Box::new(self.popcorn()),
            OsKind::Smp => Box::new(SmpOs::new(self.topology)),
            OsKind::Multikernel => Box::new(MultikernelOs::new(self.topology, self.kernels)),
        }
    }

    /// Builds the model, loads each program as its own process and runs
    /// them together; panics on an unclean run so experiments cannot
    /// silently report numbers from deadlocked runs.
    pub fn run(
        &self,
        kind: OsKind,
        programs: impl IntoIterator<Item = Box<dyn Program>>,
    ) -> RunReport {
        let mut os = self.build(kind);
        for program in programs {
            os.load(program);
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_workloads::micro;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_three_models_run_the_same_workload() {
        let rig = Rig::small();
        let results =
            OsKind::ALL.map(|kind| (kind, rig.run(kind, [micro::null_syscall_storm(4, 20)])));
        assert_eq!(results.len(), 3);
        for (kind, r) in &results {
            assert!(r.is_clean(), "{} not clean", kind.name());
            assert_eq!(r.exited_tasks, 5, "{}", kind.name());
        }
        // Deterministic: re-running popcorn gives identical virtual time.
        let again = rig.run(OsKind::Popcorn, [micro::null_syscall_storm(4, 20)]);
        let first = &results
            .iter()
            .find(|(k, _)| *k == OsKind::Popcorn)
            .expect("popcorn ran")
            .1;
        assert_eq!(again.finished_at, first.finished_at);
    }

    #[test]
    fn the_fault_plan_and_every_program_reach_popcorn() {
        let pingpongs = || -> [Box<dyn Program>; 2] {
            [
                Box::new(micro::MigrationPingPong::new(20)),
                Box::new(micro::MigrationPingPong::new(20)),
            ]
        };
        let clean = Rig::small().run(OsKind::Popcorn, pingpongs());
        let lossy = Rig {
            faults: FaultPlan::uniform_drop(7, 0.05),
            ..Rig::small()
        }
        .run(OsKind::Popcorn, pingpongs());
        assert_eq!(clean.metric("retransmits"), 0.0);
        assert!(lossy.metric("retransmits") > 0.0);
        assert_eq!(clean.exited_tasks, 2);
        assert_eq!(lossy.exited_tasks, 2);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn parallel_map_preserves_input_order() {
        let doubled = parallel_map(4, (0..64).collect::<Vec<u64>>(), |x| x * 2);
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<u64>>());
        // Degenerate inputs.
        assert_eq!(parallel_map(4, Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(4, vec![7u64], |x| x + 1), vec![8]);
    }

    /// Cells of `max_in_flight`'s experiments currently running, and the
    /// most that ever ran at once.
    static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
    static MAX_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

    /// Six synthetic cells that each hold a slot of `IN_FLIGHT` for a
    /// millisecond and report one event.
    fn six_sleepers() -> Vec<Cell> {
        (0..6)
            .map(|i| {
                Cell::new(format!("sleepers/{i}"), || {
                    let now = IN_FLIGHT.fetch_add(1, Ordering::SeqCst) + 1;
                    MAX_IN_FLIGHT.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                    IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
                    CellOut {
                        events: 1,
                        ..CellOut::default()
                    }
                })
            })
            .collect()
    }

    /// Runs three six-cell experiments at `jobs`; returns the most cells
    /// that ran at once.
    fn max_in_flight(jobs: usize) -> usize {
        let sleepers: Experiment = ("sleepers", || {
            Plan::new(six_sleepers(), |outs| {
                Table::new("S", "sleepers", [outs.len().to_string()])
            })
        });
        MAX_IN_FLIGHT.store(0, Ordering::SeqCst);
        let runs = run(jobs, &[sleepers; 3]);
        for (table, perf) in &runs {
            assert_eq!(table.columns, ["6"]);
            assert_eq!(perf.events, 6);
        }
        MAX_IN_FLIGHT.load(Ordering::SeqCst)
    }

    #[test]
    fn the_runner_never_runs_more_than_jobs_cells_at_once() {
        // Experiments used to fan their cells out inside a fan-out over
        // experiments, so `--jobs N` ran up to N² simulations at once.
        for jobs in [1, 2] {
            let max = max_in_flight(jobs);
            assert!(max <= jobs, "{max} cells in flight at jobs {jobs}");
        }
    }

    #[test]
    fn events_per_sec_uses_the_unrounded_duration() {
        // 2308 events in 361.4 µs — rounds to 0.000 s in the JSON, which
        // used to make the recorded rate 0. The unrounded rate is ~6.4M/s.
        let p = ExperimentPerf {
            id: "e2",
            wall: Duration::from_nanos(361_400),
            events: 2308,
        };
        let rate = p.events_per_sec();
        assert!((rate - 6_386_275.594).abs() < 1.0, "rate = {rate}");
        // Degenerate zero-duration measurement stays finite.
        let z = ExperimentPerf {
            id: "z",
            wall: Duration::ZERO,
            events: 10,
        };
        assert_eq!(z.events_per_sec(), 0.0);
    }

    #[test]
    fn perf_json_records_exact_nanos_next_to_rounded_secs() {
        let perfs = vec![ExperimentPerf {
            id: "e1",
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
    #[should_panic(expected = "cell forever/smp: smp run was not clean")]
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
        // Through the runner on two workers, beside a clean cell, so the
        // panic that reaches the caller names the unclean cell.
        let forever: Experiment = ("forever", || {
            let unclean = Cell::new("forever/smp".to_string(), || {
                let rig = Rig {
                    horizon: SimTime::from_millis(1),
                    ..Rig::small()
                };
                rig.run(OsKind::Smp, [Box::new(Forever) as Box<dyn Program>])
                    .into()
            });
            let clean = Cell::new("forever/none".to_string(), CellOut::default);
            Plan::new(vec![clean, unclean], |_| unreachable!("a cell panics"))
        });
        let _ = run(2, &[forever]);
    }
}
