//! Cross-OS integration tests through the facade crate: the same
//! application binaries run on all three OS designs, and the designs
//! differ exactly where the paper says they differ.

use popcorn::baselines::{MultikernelOs, SmpOs};
use popcorn::core::PopcornOs;
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::OsModel;
use popcorn::workloads::micro;
use popcorn::workloads::npb::{self, NpbConfig};

fn all_three() -> Vec<Box<dyn OsModel>> {
    let topo = Topology::new(2, 4);
    vec![
        Box::new(PopcornOs::builder().topology(topo).kernels(2).build()),
        Box::new(SmpOs::new(topo)),
        Box::new(MultikernelOs::new(topo, 2)),
    ]
}

#[test]
fn same_binary_runs_on_all_three_oses() {
    for mut os in all_three() {
        os.load(npb::cg_benchmark(NpbConfig::class_s(6)));
        let r = os.run();
        assert!(r.is_clean(), "{} stuck: {:?}", r.os, r.stuck_tasks);
        assert_eq!(r.exited_tasks, 7, "{}", r.os);
    }
}

#[test]
fn only_popcorn_moves_threads_between_kernels() {
    // Popcorn: ping-pong completes with real migrations.
    let mut pop = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(2)
        .build();
    pop.load(Box::new(micro::MigrationPingPong::new(6)));
    let r = pop.run();
    assert!(r.is_clean());
    assert_eq!(
        r.metric("migrations_first") + r.metric("migrations_back"),
        6.0
    );
}

#[test]
fn contention_metrics_exist_only_where_the_structures_do() {
    // SMP exposes zone/mmap_sem contention; popcorn exposes protocol
    // counters; the multikernel exposes remote service counters. A model
    // without the structure does not report its metric at all.
    let topo = Topology::new(2, 4);

    let mut smp = SmpOs::new(topo);
    smp.load(micro::mmap_storm(6, 10, 16384));
    let rs = smp.run();
    assert!(rs.is_clean());
    assert!(rs.metric("zone_lock_acquires") > 0.0);
    assert!(!rs.metrics.contains_key("page_transfers"));

    let mut pop = PopcornOs::builder().topology(topo).kernels(2).build();
    pop.load(micro::page_bounce(6, 4, 12));
    let rp = pop.run();
    assert!(rp.is_clean());
    assert!(rp.metric("page_transfers") > 0.0);
    assert!(!rp.metrics.contains_key("zone_lock_acquires"));

    let mut mk = MultikernelOs::new(topo, 2);
    mk.load(micro::futex_contention(6, 8, 1_000));
    let rm = mk.run();
    assert!(rm.is_clean());
    assert!(rm.metric("remote_service") > 0.0);
    assert!(!rm.metrics.contains_key("page_transfers"));
}

#[test]
fn virtual_time_orders_the_designs_plausibly_under_mmap_load() {
    // One process, threads spread: SMP should beat popcorn (distribution
    // tax); multikernel (local-only memory) should beat both.
    let topo = Topology::new(2, 4);
    let run = |mut os: Box<dyn OsModel>| {
        os.load(micro::mmap_storm(6, 20, 16384));
        let r = os.run();
        assert!(r.is_clean(), "{}", r.os);
        r.finished_at
    };
    let pop = run(Box::new(
        PopcornOs::builder().topology(topo).kernels(2).build(),
    ));
    let smp = run(Box::new(SmpOs::new(topo)));
    let mk = run(Box::new(MultikernelOs::new(topo, 2)));
    assert!(
        pop > smp,
        "cross-kernel address space should cost more than SMP here (pop {pop}, smp {smp})"
    );
    assert!(mk < pop, "local-only multikernel must be fastest (mk {mk})");
}

#[test]
fn facade_reexports_compose() {
    // The README quickstart path: everything reachable through `popcorn::`.
    use popcorn::sim::SimTime;
    let mut os = popcorn::core::PopcornOs::builder()
        .topology(popcorn::hw::Topology::new(2, 2))
        .kernels(2)
        .build();
    os.load(popcorn::workloads::micro::spawn_join_storm(
        3,
        popcorn::kernel::program::Placement::Auto,
    ));
    let r = os.run_with(SimTime::from_secs(10), 10_000_000);
    assert!(r.is_clean());
    assert_eq!(r.exited_tasks, 4);
}

#[test]
fn kernel_local_syscalls_and_core_moves_match_on_every_model() {
    // `getpid`, `gettid`, `getkernel`, `sched_yield`, `nanosleep` and an
    // affinity move within the kernel touch no shared state, so all three
    // designs run them the same way: same resumes, same positions, same
    // finish time.
    use std::sync::{Arc, Mutex};

    use popcorn::hw::CoreId;
    use popcorn::kernel::program::{MigrateTarget, Op, ProgEnv, Program, Resume, SyscallReq};
    use popcorn::msg::KernelId;

    type Trace = Arc<Mutex<Vec<(Resume, KernelId, CoreId)>>>;
    #[derive(Debug)]
    struct LocalOps {
        step: usize,
        trace: Trace,
    }
    impl Program for LocalOps {
        fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
            self.trace.lock().unwrap().push((r, env.kernel, env.core));
            self.step += 1;
            match self.step {
                1 => Op::Syscall(SyscallReq::GetPid),
                2 => Op::Syscall(SyscallReq::GetTid),
                3 => Op::Syscall(SyscallReq::GetKernel),
                4 => Op::Syscall(SyscallReq::Yield),
                5 => Op::Syscall(SyscallReq::Nanosleep { ns: 10_000 }),
                6 => Op::Syscall(SyscallReq::Migrate(MigrateTarget::Core(CoreId(1)))),
                7 => Op::Compute(1_000),
                _ => Op::Exit(0),
            }
        }
    }

    let runs: Vec<_> = all_three()
        .into_iter()
        .map(|mut os| {
            let trace = Trace::default();
            os.load(Box::new(LocalOps {
                step: 0,
                trace: trace.clone(),
            }));
            let r = os.run();
            assert!(r.is_clean(), "{} stuck: {:?}", r.os, r.stuck_tasks);
            let trace = trace.lock().unwrap().clone();
            assert_eq!(trace.len(), 8, "{}", r.os);
            assert_eq!(trace.last().unwrap().2, CoreId(1), "{} moved", r.os);
            (r.os, r.finished_at, trace)
        })
        .collect();
    let (_, finished_at, trace) = &runs[0];
    // Pinned so that a cost all three models share cannot drift unseen.
    assert_eq!(*finished_at, popcorn::sim::SimTime::from_nanos(25_257));
    for (os, at, t) in &runs[1..] {
        assert_eq!(at, finished_at, "{os} finishes with {}", runs[0].0);
        assert_eq!(t, trace, "{os} sees what {} sees", runs[0].0);
    }
}
