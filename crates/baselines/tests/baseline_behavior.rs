//! Behavioural tests of the baseline OS models: contention effects on
//! SMP, isolation semantics on the multikernel.

use popcorn_baselines::{MultikernelOs, SmpOs};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::program::{Op, Placement, ProgEnv, Program, Resume, SyscallReq};
use popcorn_workloads::micro;
use popcorn_workloads::team::{Team, TeamConfig};

#[test]
fn smp_mmap_contention_grows_with_threads() {
    // Fixed total work split across more threads on a single process:
    // wait time per mmap_sem acquire must grow with concurrency.
    let run = |threads: usize| {
        let mut os = SmpOs::new(Topology::paper_default());
        os.load(micro::mmap_storm(threads, 240 / threads as u32, 16384));
        let r = os.run();
        assert!(r.is_clean());
        r.metric("mmap_sem_wait_us_mean")
    };
    let lone = run(1);
    let crowded = run(48);
    assert!(
        crowded > lone * 3.0,
        "contended waits ({crowded:.2}us) should dwarf uncontended ({lone:.2}us)"
    );
}

#[test]
fn smp_zone_lock_is_shared_across_processes() {
    // Two unrelated processes still contend on the one page allocator.
    let run = |procs: usize| {
        let mut os = SmpOs::new(Topology::paper_default());
        for _ in 0..procs {
            let mut cfg = TeamConfig::new(8, 0);
            cfg.placement = Placement::Local;
            os.load(Team::boxed(
                cfg,
                Box::new(|_, _| Box::new(micro::MmapWorker::new(20, 16384))),
            ));
        }
        let r = os.run();
        assert!(r.is_clean());
        r.metric("zone_lock_wait_us_mean")
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four > one,
        "more processes must add zone-lock queueing (1p: {one:.2}us, 4p: {four:.2}us)"
    );
}

/// Runs a 5-worker team spread over 4 kernels (home kernel 0) in which
/// worker `killer` calls `exit_group` after 300 µs while the others spin.
fn multikernel_exit_group_from(killer: usize) -> RunReport {
    #[derive(Debug)]
    struct Spinner;
    impl Program for Spinner {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            Op::Compute(100_000)
        }
    }
    #[derive(Debug)]
    struct Killer {
        slept: bool,
    }
    impl Program for Killer {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            if !self.slept {
                self.slept = true;
                return Op::Syscall(SyscallReq::Nanosleep { ns: 300_000 });
            }
            Op::Syscall(SyscallReq::ExitGroup { code: 3 })
        }
    }
    let mut cfg = TeamConfig::new(5, 0);
    cfg.placement = Placement::Auto; // spread across kernels
    let mut os = MultikernelOs::new(Topology::new(2, 4), 4);
    os.load(Team::boxed(
        cfg,
        Box::new(move |i, _| {
            if i == killer {
                Box::new(Killer { slept: false }) as Box<dyn Program>
            } else {
                Box::new(Spinner) as Box<dyn Program>
            }
        }),
    ));
    os.run_with(popcorn_sim::SimTime::from_secs(5), 20_000_000)
}

#[test]
fn multikernel_exit_group_reaches_remote_members() {
    // Workers 0 and 4 share the home kernel 0 with the leader; workers 1-3
    // are remote spawns on kernels 1-3, three messages each (`SpawnReq`,
    // `SpawnResp`, `MemberJoined`). The exit then sends one `GroupKill` and
    // gets one `GroupExitReq` back per host other than the home and the
    // initiator, plus the initiator's own report when it is not the home.
    for (killer, messages) in [(4, 3 * 3 + 2 * 3), (1, 3 * 3 + 1 + 2 * 2)] {
        let r = multikernel_exit_group_from(killer);
        assert!(
            r.stuck_tasks.is_empty(),
            "exit_group from worker {killer} left stuck tasks: {:?}",
            r.stuck_tasks
        );
        assert_eq!(r.exited_tasks, 6, "exit_group from worker {killer}");
        assert_eq!(
            r.metric("messages"),
            messages as f64,
            "exit_group from worker {killer} sends each host one GroupKill"
        );
    }
}

#[test]
fn multikernel_local_mmap_needs_no_messages() {
    let mut cfg = TeamConfig::new(4, 0);
    cfg.placement = Placement::Local;
    let mut os = MultikernelOs::new(Topology::new(2, 4), 2);
    os.load(Team::boxed(
        cfg,
        Box::new(|_, _| Box::new(micro::MmapWorker::new(10, 16384))),
    ));
    let r = os.run();
    assert!(r.is_clean());
    assert_eq!(
        r.metric("messages"),
        0.0,
        "kernel-local work must be message-free on the multikernel"
    );
}

#[test]
fn multikernel_remote_futex_goes_through_home_service() {
    let mut cfg = TeamConfig::new(4, 0);
    cfg.placement = Placement::Auto;
    let mut os = MultikernelOs::new(Topology::new(2, 4), 4);
    os.load(Team::boxed(
        cfg,
        Box::new(|_, shared| Box::new(micro::MutexWorker::new(shared.sync_slot(1), 5, 500))),
    ));
    let r = os.run();
    assert!(r.is_clean());
    assert!(r.metric("remote_service") > 0.0);
    assert!(r.metric("messages") > 0.0);
}
