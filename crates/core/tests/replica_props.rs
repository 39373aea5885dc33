//! Property tests for page-table replica maintenance: the replicas and
//! the page directory must never disagree, no matter how faults,
//! migrations, replica pushes and kernel crashes interleave — and with
//! the gate off, the whole walk-latency model must be perfectly inert.
//!
//! The agreement property itself lives in the global invariant audit
//! (`popcorn_core::invariants`, check 6), which runs after every
//! completed run and panics on a holder shadow that diverges from the
//! directory or a holder that names a dead kernel. These tests drive
//! that audit through seeded-random interleavings the way
//! `fault_recovery.rs` drives the crash invariants.

use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::{HwParams, Topology};
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::program::{MigrateTarget, Op, Placement, ProgEnv, Program, Resume, SyscallReq};
use popcorn_kernel::types::VAddr;
use popcorn_msg::{ChannelFaults, FaultPlan, KernelId, MsgParams};
use popcorn_sim::{SimTime, StopCondition};
use popcorn_workloads::adversarial;

/// Maps a private page span, spawns `workers` [`RovingWriter`]s over
/// disjoint slices, and exits **without joining** — recovery may kill
/// any worker (lost pages have no error return), and a join counter a
/// dead thread can never bump would wedge the drain.
#[derive(Debug)]
struct NoJoinLeader {
    workers: usize,
    pages_each: u64,
    hops: u32,
    compute_ns: u64,
    state: u8,
    base: VAddr,
    spawned: usize,
}

impl Program for NoJoinLeader {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::Mmap {
                    len: self.workers as u64 * self.pages_each * VAddr::PAGE_SIZE,
                })
            }
            _ => {
                if self.state == 1 {
                    let Resume::Sys(res) = r else { panic!("mmap") };
                    self.base = VAddr(res.expect_val("mmap"));
                    self.state = 2;
                }
                if self.spawned < self.workers {
                    let base = self
                        .base
                        .add(self.spawned as u64 * self.pages_each * VAddr::PAGE_SIZE);
                    self.spawned += 1;
                    Op::Syscall(SyscallReq::Clone {
                        child: Box::new(RovingWriter {
                            base,
                            pages: self.pages_each,
                            hops_left: self.hops,
                            compute_ns: self.compute_ns,
                            next_page: 0,
                            seq: 0,
                            touching: false,
                        }),
                        placement: Placement::Auto,
                    })
                } else {
                    Op::Exit(0)
                }
            }
        }
    }
}

/// Ring-hops with its private pages in tow, rewriting them after every
/// hop — the fault/migration interleaving generator. A hop that fails
/// (`EIO` toward a dead kernel) is simply skipped; a store against a
/// page whose only copy died gets the worker killed by the kernel, and
/// its replica state must still audit clean.
#[derive(Debug)]
struct RovingWriter {
    base: VAddr,
    pages: u64,
    hops_left: u32,
    compute_ns: u64,
    next_page: u64,
    seq: u64,
    touching: bool,
}

impl Program for RovingWriter {
    fn step(&mut self, _r: Resume, env: &ProgEnv) -> Op {
        if self.touching {
            if self.next_page < self.pages {
                let addr = self.base.add(self.next_page * VAddr::PAGE_SIZE);
                self.next_page += 1;
                self.seq += 1;
                return Op::Store(addr, self.seq);
            }
            self.touching = false;
            return Op::Compute(self.compute_ns);
        }
        if self.hops_left == 0 {
            return Op::Exit(0);
        }
        self.hops_left -= 1;
        self.next_page = 0;
        self.touching = true;
        let next = KernelId((env.kernel.0 + 1) % 4);
        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(next)))
    }
}

/// 64 seeded-random fault plans (loss, duplication, delay, and on every
/// fourth plan a kernel crash) over a migrating-and-faulting fleet with
/// replication on and eagerly seeded. The invariant audit — including
/// check 6, replica/directory agreement — runs after every case; the
/// assertion here adds that no interleaving may wedge the machine.
#[test]
fn replicas_and_directory_agree_under_random_interleavings() {
    let mut state: u64 = 0xE15_5EED;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for case in 0..64u64 {
        let x = next();
        let drop_p = ((x >> 8) % 1000) as f64 / 10_000.0; // 0..10%
        let dup_p = ((x >> 24) % 500) as f64 / 10_000.0; // 0..5%
        let delay_p = ((x >> 40) % 2000) as f64 / 10_000.0; // 0..20%
        let mut plan = FaultPlan {
            seed: x | 1,
            uniform: Some(ChannelFaults {
                drop_p,
                dup_p,
                delay_p,
                delay_max_ns: 20_000,
            }),
            ..FaultPlan::none()
        };
        let crash = case % 4 == 3;
        if crash {
            let victim = KernelId((next() % 4) as u16);
            let at = SimTime::from_micros(200 + next() % 2_000);
            plan = plan.with_crash(victim, at);
        }
        let mut os = PopcornOs::builder()
            .topology(Topology::paper_default())
            .kernels(4)
            .msg_params(MsgParams {
                faults: plan,
                ..MsgParams::default()
            })
            .popcorn_params(PopcornParams {
                page_table_replication: true,
                replicate_on_first_fault: true,
                ..PopcornParams::default()
            })
            .build();
        os.load(Box::new(NoJoinLeader {
            workers: 6,
            pages_each: 2,
            hops: 10,
            compute_ns: 20_000,
            state: 0,
            base: VAddr(0),
            spawned: 0,
        }));
        let r = os.run();
        assert_eq!(
            r.stop,
            StopCondition::QueueEmpty,
            "case {case} (crash={crash}) did not drain: {:?}",
            r.stop
        );
        // Replication genuinely engaged: the fleet migrates and faults,
        // so walks were charged and replicas installed.
        assert!(
            r.metric("replica_local_walks") + r.metric("replica_remote_walks") >= 1.0,
            "case {case}: no walks charged — the property test went vacuous"
        );
    }
}

fn off_run(hw: HwParams) -> (String, SimTime) {
    let mut os = PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .hw_params(hw)
        .build();
    os.load(adversarial::migrating_writers(6, 10, 4, 2, 20_000));
    let r: RunReport = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.metric("replica_local_walks"), 0.0);
    assert_eq!(r.metric("replica_remote_walks"), 0.0);
    assert_eq!(r.metric("replica_installs"), 0.0);
    assert_eq!(r.metric("replica_updates"), 0.0);
    (format!("{:?}", r.metrics), r.finished_at)
}

/// With the gate off (the default), the walk-latency model must be
/// unreachable: cranking every walk/update knob to absurd values cannot
/// move a single metric or the finish time. This is the code-level twin
/// of the CI byte-identity check on `results/*.json`.
#[test]
fn replication_off_ignores_walk_params_byte_for_byte() {
    let stock = off_run(HwParams::default());
    let absurd = off_run(HwParams {
        local_replica_walk_ns: 90_000,
        remote_page_walk_ns: 9_000_000,
        pt_replica_update_ns: 700_000,
        ..HwParams::default()
    });
    assert_eq!(
        stock, absurd,
        "walk params leaked into a replication-off run"
    );

    // Sanity that the comparison is not vacuous: the same workload with
    // the gate on does charge walks (and so *would* see those knobs).
    let mut os = PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .popcorn_params(PopcornParams {
            page_table_replication: true,
            replicate_on_first_fault: true,
            ..PopcornParams::default()
        })
        .build();
    os.load(adversarial::migrating_writers(6, 10, 4, 2, 20_000));
    let r = os.run();
    assert!(r.is_clean());
    assert!(r.metric("replica_local_walks") + r.metric("replica_remote_walks") >= 1.0);
    assert!(r.metric("replica_installs") >= 1.0);
}
