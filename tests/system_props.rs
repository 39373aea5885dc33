//! Whole-system randomized tests spanning all three OS models: randomized
//! workload configurations must complete cleanly, deterministically, and
//! with behaviour equivalent across the OS designs (the single-system
//! image promise). Driven by the deterministic [`SimRng`] (the build is
//! offline, so no external property-testing framework).

use popcorn::baselines::{MultikernelOs, SmpOs};
use popcorn::core::PopcornOs;
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::{OsModel, RunReport};
use popcorn::kernel::program::{Placement, Program};
use popcorn::sim::SimRng;
use popcorn::workloads::micro;
use popcorn::workloads::npb::{self, NpbConfig};
use popcorn::workloads::team::{Team, TeamConfig};

fn run_popcorn(kernels: u16, program: Box<dyn Program>) -> RunReport {
    let mut os = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(kernels)
        .build();
    os.load(program);
    os.run()
}

fn run_smp(program: Box<dyn Program>) -> RunReport {
    let mut os = SmpOs::new(Topology::new(2, 4));
    os.load(program);
    os.run()
}

fn run_mk(kernels: u16, program: Box<dyn Program>) -> RunReport {
    let mut os = MultikernelOs::new(Topology::new(2, 4), kernels);
    os.load(program);
    os.run()
}

/// Random team shapes complete on every OS with the exact expected thread
/// count, no segfaults and no stuck tasks.
#[test]
fn random_teams_complete_everywhere() {
    let mut rng = SimRng::new(0x5EED_6001);
    for _ in 0..24 {
        let threads = rng.range_u64(1, 10) as usize;
        let iters = rng.range_u64(1, 12) as u32;
        let pages = rng.range_u64(1, 6);
        let kernels = rng.range_u64(1, 5) as u16;
        let make = || {
            Team::boxed(
                TeamConfig::new(threads, pages * 4096),
                Box::new(move |i, shared| {
                    Box::new(micro::PageBounceWorker::new(
                        shared.data,
                        pages,
                        iters,
                        i as u64,
                    ))
                }),
            )
        };
        for r in [
            run_popcorn(kernels, make()),
            run_smp(make()),
            run_mk(kernels, make()),
        ] {
            assert!(r.is_clean(), "{} stuck: {:?}", r.os, r.stuck_tasks);
            assert_eq!(r.exited_tasks as usize, threads + 1, "{}", r.os);
            assert_eq!(r.metric("segv"), 0.0, "{}", r.os);
        }
    }
}

/// The replicated kernel is deterministic: identical configurations finish
/// at the identical virtual nanosecond.
#[test]
fn popcorn_runs_are_deterministic() {
    let mut rng = SimRng::new(0x5EED_6002);
    for _ in 0..24 {
        let threads = rng.range_u64(1, 8) as usize;
        let iters = rng.range_u64(1, 8) as u32;
        let kernels = rng.range_u64(1, 5) as u16;
        let make = || {
            Team::boxed(
                TeamConfig::new(threads, 4 * 4096),
                Box::new(move |i, shared| {
                    Box::new(micro::PageBounceWorker::new(
                        shared.data,
                        4,
                        iters,
                        i as u64,
                    ))
                }),
            )
        };
        let a = run_popcorn(kernels, make());
        let b = run_popcorn(kernels, make());
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.events, b.events);
        assert_eq!(&a.metrics, &b.metrics);
    }
}

/// NPB-class kernels complete with the right thread counts on popcorn
/// regardless of shape.
#[test]
fn npb_kernels_complete_on_popcorn() {
    let mut rng = SimRng::new(0x5EED_6003);
    for _ in 0..24 {
        let which = rng.range_u64(0, 4) as u8;
        let threads = rng.range_u64(1, 8) as usize;
        let iterations = rng.range_u64(1, 5) as u32;
        let cfg = NpbConfig {
            threads,
            iterations,
            pages_per_thread: 2,
            compute_cycles: 20_000,
            barrier_groups: 0,
        };
        let program = match which {
            0 => npb::is_benchmark(cfg),
            1 => npb::cg_benchmark(cfg),
            2 => npb::ft_benchmark(cfg),
            _ => npb::mg_benchmark(cfg),
        };
        let r = run_popcorn(4, program);
        assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
        assert_eq!(r.exited_tasks as usize, threads + 1);
        assert_eq!(r.metric("segv"), 0.0);
    }
}

/// Popcorn's kernel-count knob never changes *what* happens, only how long
/// it takes: thread counts and mutex totals match across 1..4 kernels
/// (SSI functional equivalence).
#[test]
fn kernel_count_is_functionally_transparent() {
    let mut rng = SimRng::new(0x5EED_6004);
    for _ in 0..24 {
        let threads = rng.range_u64(2, 8) as usize;
        let iters = rng.range_u64(1, 10) as u32;
        let make = || micro::futex_contention(threads, iters, 1_000);
        let mut exits = Vec::new();
        for kernels in [1u16, 2, 4] {
            let r = run_popcorn(kernels, make());
            assert!(r.is_clean(), "k={kernels} stuck: {:?}", r.stuck_tasks);
            exits.push(r.exited_tasks);
        }
        assert!(exits.windows(2).all(|w| w[0] == w[1]));
    }
}

/// Spawn storms with random placement complete with exact accounting on
/// the replicated kernel.
#[test]
fn spawn_storms_account_exactly() {
    let mut rng = SimRng::new(0x5EED_6005);
    for _ in 0..24 {
        let children = rng.range_u64(1, 16) as usize;
        let local = rng.chance(0.5);
        let placement = if local {
            Placement::Local
        } else {
            Placement::Auto
        };
        let r = run_popcorn(4, micro::spawn_join_storm(children, placement));
        assert!(r.is_clean());
        assert_eq!(r.exited_tasks as usize, children + 1);
        assert_eq!(r.metric("spawned") as usize, children + 1);
    }
}
