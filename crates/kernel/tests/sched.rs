//! Scheduler-mechanism tests: oversubscription, quantum preemption of
//! long compute, fairness, and CPU-time accounting.

use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_kernel::kernel::{Kernel, RunOutcome};
use popcorn_kernel::mm::Mm;
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Op, ProgEnv, Program, Resume};
use popcorn_kernel::types::{GroupId, Tid};
use popcorn_msg::KernelId;
use popcorn_sim::SimTime;

#[derive(Debug)]
struct Spin {
    cycles_left: u64,
    chunk: u64,
}

impl Spin {
    fn new(total: u64, chunk: u64) -> Self {
        Spin {
            cycles_left: total,
            chunk,
        }
    }
}

impl Program for Spin {
    fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
        if self.cycles_left == 0 {
            return Op::Exit(0);
        }
        let c = self.chunk.min(self.cycles_left);
        self.cycles_left -= c;
        Op::Compute(c)
    }
}

fn one_core_kernel() -> Kernel {
    let machine = Machine::new(Topology::single_socket(1), HwParams::default());
    Kernel::new(KernelId(0), vec![CoreId(0)], OsParams::default(), machine)
}

fn group(k: &mut Kernel) -> GroupId {
    let leader = k.alloc_tid();
    let g = GroupId(leader);
    k.adopt_mm(Mm::new(g));
    g
}

/// Drives one core until all of `expect_exits` tasks exit; returns
/// `(finish_time, exit_order)`.
fn drive(k: &mut Kernel, core: CoreId, expect_exits: usize) -> (SimTime, Vec<Tid>) {
    let mut now = SimTime::ZERO;
    let mut exits = Vec::new();
    for _ in 0..1_000_000 {
        match k.run_core(now, core) {
            RunOutcome::Idle => break,
            RunOutcome::Busy { until } | RunOutcome::Preempted { at: until } => now = until,
            RunOutcome::Exited { tid, at, .. } => {
                now = at;
                exits.push(tid);
                if exits.len() == expect_exits {
                    break;
                }
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    (now, exits)
}

#[test]
fn oversubscribed_core_interleaves_all_tasks() {
    let mut k = one_core_kernel();
    let g = group(&mut k);
    // 6 threads on 1 core, each 5ms of compute in 0.5ms chunks.
    let per_task = 12_000_000u64; // 5ms at 2.4GHz
    let tids: Vec<Tid> = (0..6)
        .map(|_| {
            let t = k.alloc_tid();
            k.spawn(
                t,
                g,
                Box::new(Spin::new(per_task, 1_200_000)),
                None,
                SimTime::ZERO,
            );
            t
        })
        .collect();
    let (finish, exits) = drive(&mut k, CoreId(0), 6);
    assert_eq!(exits.len(), 6);
    // Total time ≈ 6 × 5ms of compute plus switching overhead, < 10% slack.
    let compute_ms = 6.0 * 5.0;
    let total_ms = finish.as_millis_f64();
    assert!(
        total_ms >= compute_ms && total_ms < compute_ms * 1.1,
        "total {total_ms}ms vs compute {compute_ms}ms"
    );
    // Fairness: with equal work and round-robin slices, tasks finish close
    // together — the first exit happens in the last fifth of the run.
    let first_exit_fraction = {
        // Re-run to capture the time of the first exit.
        let mut k2 = one_core_kernel();
        let g2 = group(&mut k2);
        for _ in 0..6 {
            let t = k2.alloc_tid();
            k2.spawn(
                t,
                g2,
                Box::new(Spin::new(per_task, 1_200_000)),
                None,
                SimTime::ZERO,
            );
        }
        let mut now = SimTime::ZERO;
        let mut first = None;
        for _ in 0..1_000_000 {
            match k2.run_core(now, CoreId(0)) {
                RunOutcome::Idle => break,
                RunOutcome::Busy { until } | RunOutcome::Preempted { at: until } => now = until,
                RunOutcome::Exited { at, .. } => {
                    first = Some(at);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        first.expect("someone exits").as_millis_f64() / total_ms
    };
    assert!(
        first_exit_fraction > 0.8,
        "first exit at {first_exit_fraction:.2} of the run — unfair scheduling"
    );
    let _ = tids;
}

#[test]
fn long_compute_is_preempted_at_quantum_granularity() {
    let mut k = one_core_kernel();
    let g = group(&mut k);
    // One hog with a single 50ms compute op; one sprinter with 0.1ms.
    let hog = k.alloc_tid();
    k.spawn(
        hog,
        g,
        Box::new(Spin::new(120_000_000, 120_000_000)),
        None,
        SimTime::ZERO,
    );
    let sprinter = k.alloc_tid();
    k.spawn(
        sprinter,
        g,
        Box::new(Spin::new(240_000, 240_000)),
        None,
        SimTime::ZERO,
    );
    let (_, exits) = drive(&mut k, CoreId(0), 2);
    assert_eq!(
        exits[0], sprinter,
        "the sprinter must finish long before the 50ms hog chunk"
    );
    // And the sprinter's wall time is bounded by ~2 quanta, not 50ms.
    // (exit order already proves preemption; check accounting too)
    let hog_cpu = k.task(hog).unwrap().stats.cpu_time;
    assert_eq!(
        hog_cpu,
        SimTime::from_micros(50_000),
        "hog charged exactly its compute"
    );
}

#[test]
fn cpu_time_accounting_matches_work() {
    let mut k = one_core_kernel();
    let g = group(&mut k);
    let t = k.alloc_tid();
    let cycles = 7_200_000u64; // 3ms at 2.4GHz
    k.spawn(
        t,
        g,
        Box::new(Spin::new(cycles, 600_000)),
        None,
        SimTime::ZERO,
    );
    drive(&mut k, CoreId(0), 1);
    assert_eq!(k.task(t).unwrap().stats.cpu_time, SimTime::from_millis(3));
}

#[test]
fn sole_runner_never_pays_preemption() {
    let mut k = one_core_kernel();
    let g = group(&mut k);
    let t = k.alloc_tid();
    k.spawn(
        t,
        g,
        Box::new(Spin::new(24_000_000, 24_000_000)),
        None,
        SimTime::ZERO,
    );
    drive(&mut k, CoreId(0), 1);
    // One dispatch, zero further switches.
    assert_eq!(k.stats.ctx_switches.get(), 1);
    assert_eq!(k.task(t).unwrap().stats.ctx_switches, 1);
}

#[test]
fn work_spreads_across_cores_of_one_kernel() {
    let machine = Machine::new(Topology::single_socket(4), HwParams::default());
    let mut k = Kernel::new(
        KernelId(0),
        (0..4).map(CoreId).collect(),
        OsParams::default(),
        machine,
    );
    let g = group(&mut k);
    let mut cores_used = std::collections::BTreeSet::new();
    for _ in 0..8 {
        let t = k.alloc_tid();
        let c = k.spawn(t, g, Box::new(Spin::new(1_000, 1_000)), None, SimTime::ZERO);
        cores_used.insert(c);
    }
    assert_eq!(cores_used.len(), 4, "spawns must cover all cores");
    for c in 0..4 {
        assert_eq!(k.core_load(CoreId(c)), 2, "even 2-per-core split");
    }
}
