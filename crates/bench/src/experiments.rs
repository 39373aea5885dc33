//! The evaluation suite: one [`Experiment`] per reconstructed table/figure
//! (E1–E11) plus the ablations and extensions DESIGN.md calls out.
//!
//! Every function here builds an experiment's [`Plan`]: its cells and a
//! deterministic render of their outputs into a [`Table`]. The `repro`
//! binary runs them through [`crate::rig::run`] and EXPERIMENTS.md
//! records representative output.

use std::fmt::Display;

use popcorn_core::PopcornParams;
use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_kernel::osmodel::OsModel;
use popcorn_kernel::policy::PolicyKind;
use popcorn_kernel::program::{Op, Placement, ProgEnv, Program, Resume, SyscallReq};
use popcorn_kernel::types::VAddr;
use popcorn_msg::{Fabric, FaultPlan, KernelId, MsgParams, Wire};
use popcorn_sim::SimTime;
use popcorn_workloads::adversarial;
use popcorn_workloads::micro;
use popcorn_workloads::npb::{self, NpbConfig};
use popcorn_workloads::team::{Team, TeamConfig};

use crate::rig::{Cell, CellOut, Experiment, OsKind, Plan, Rig};
use crate::table::{ratio, us, Table};

/// Thread counts swept by the scaling experiments on the 64-core machine.
pub const THREAD_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 63];

/// The cells of a sweep: one per point and model in `kinds`, point-major,
/// keyed `<id>/<point>/<model>`.
fn os_sweep<P, F>(id: &str, points: &[P], kinds: &[OsKind], run: F) -> Vec<Cell>
where
    P: Copy + Display + Send + Sync + 'static,
    F: Fn(P, OsKind) -> CellOut + Clone + Send + Sync + 'static,
{
    let mut cells = Vec::new();
    for &p in points {
        for &k in kinds {
            let run = run.clone();
            cells.push(Cell::new(format!("{id}/{p}/{}", k.name()), move || {
                run(p, k)
            }));
        }
    }
    cells
}

struct Blob(usize);
impl Wire for Blob {
    fn wire_size(&self) -> usize {
        self.0
    }
}

/// E1 — message-layer latency and throughput (the messaging table). Each
/// cell measures a lone message, then 10k back-to-back ones on the same
/// channel; the cells run no simulator, only the fabric's latency math.
fn e1_messaging() -> Plan {
    let mut points = Vec::new();
    for (scope, from, to) in [
        ("same-socket", KernelId(0), KernelId(1)),
        ("cross-socket", KernelId(0), KernelId(2)),
    ] {
        for size in [0usize, 64, 256, 1024, 4096] {
            points.push((scope, from, to, size));
        }
    }
    let cells = points
        .iter()
        .map(|&(scope, from, to, size)| {
            Cell::new(format!("e1/{scope}/{size}"), move || {
                let machine = Machine::new(Topology::paper_default(), HwParams::default());
                // Eight kernels on four sockets: kernels 0,1 share socket 0.
                let parts = machine.topology().partition(8);
                let locations: Vec<CoreId> = parts.iter().map(|p| p[0]).collect();
                let mut fabric = Fabric::new(&machine, locations.clone(), MsgParams::default());
                let one = fabric
                    .send(SimTime::ZERO, from, to, Blob(size))
                    .expect_delivered();
                // Streaming: 10k back-to-back messages on one channel.
                let n = 10_000u64;
                let mut last = SimTime::ZERO;
                let mut fabric2 = Fabric::new(&machine, locations, MsgParams::default());
                for _ in 0..n {
                    last = fabric2
                        .send(SimTime::ZERO, from, to, Blob(size))
                        .expect_delivered()
                        .deliver_at;
                }
                let mps = n as f64 / last.as_secs_f64();
                // Mean time a streamed message spent queued behind its
                // predecessors (channel serialization), from the
                // per-channel queue-delay histograms.
                CellOut::default()
                    .with("latency_ns", one.deliver_at.as_nanos() as f64)
                    .with("msgs_per_s", mps)
                    .with("MB_per_s", mps * (size as f64 + 64.0) / 1e6)
                    .with("queue_delay_ns", fabric2.queue_delay_histogram().mean())
            })
        })
        .collect();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E1",
            "inter-kernel message layer: one-way latency and streaming throughput",
            [
                "payload_B",
                "scope",
                "latency_us",
                "msgs_per_s",
                "MB_per_s",
                "queue_delay_us",
            ],
        );
        for ((scope, _, _, size), o) in points.iter().zip(outs) {
            t.row([
                size.to_string(),
                scope.to_string(),
                us(o.metric("latency_ns")),
                format!("{:.0}", o.metric("msgs_per_s")),
                format!("{:.0}", o.metric("MB_per_s")),
                us(o.metric("queue_delay_ns")),
            ]);
        }
        t.note("expected: small messages land in the low microseconds; cross-socket adds the interconnect hop; throughput bounded by per-message software cost");
        t
    })
}

/// E2 — thread migration latency: first visit vs back-migration, idle vs
/// loaded machine (the migration cost table).
fn e2_migration() -> Plan {
    let scenarios = [("idle", 0usize), ("loaded", 32)];
    let cells = scenarios
        .map(|(scenario, background)| {
            Cell::new(format!("e2/{scenario}"), move || {
                let mut programs: Vec<Box<dyn Program>> = Vec::new();
                if background > 0 {
                    programs.push(Team::boxed(
                        TeamConfig::new(background, 0),
                        Box::new(|_, _| micro::compute_worker(120_000_000)),
                    ));
                }
                programs.push(Box::new(micro::MigrationPingPong::new(40)));
                Rig::paper().run(OsKind::Popcorn, programs).into()
            })
        })
        .into();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E2",
            "thread migration latency (syscall to resume on the target kernel)",
            ["scenario", "first_visit_us", "back_migration_us", "hops"],
        );
        for ((scenario, _), o) in scenarios.iter().zip(outs) {
            t.row([
                scenario.to_string(),
                format!("{:.2}", o.metric("migration_first_us_mean")),
                format!("{:.2}", o.metric("migration_back_us_mean")),
                "40".to_string(),
            ]);
        }
        t.note("expected: back-migration (shadow revival) markedly cheaper than first visit; load adds queueing, not protocol cost");
        t
    })
}

/// E3 — distributed thread group creation: time to spawn-and-join N
/// threads (the clone figure).
fn e3_thread_group() -> Plan {
    let cells = os_sweep("e3", &THREAD_SWEEP, &OsKind::ALL, |n, k| {
        Rig::paper()
            .run(k, [micro::spawn_join_storm(n, Placement::Auto)])
            .into()
    });
    Plan::new(cells, |outs| {
        let mut t = Table::new(
            "E3",
            "thread-group creation: spawn N threads and join them (total ms)",
            [
                "threads",
                "popcorn_ms",
                "smp_ms",
                "multikernel_ms",
                "popcorn_remote_clone_us",
            ],
        );
        for (n, o) in THREAD_SWEEP.iter().zip(outs.chunks(3)) {
            t.row([
                n.to_string(),
                format!("{:.3}", o[0].ms()),
                format!("{:.3}", o[1].ms()),
                format!("{:.3}", o[2].ms()),
                format!("{:.1}", o[0].metric("clone_remote_us_mean")),
            ]);
        }
        t.note("expected: remote creation costs a message round-trip per thread; all three grow roughly linearly with N");
        t
    })
}

/// Touches `pages` pages (read or write) then exits; used by E4.
#[derive(Debug)]
struct Toucher {
    base: VAddr,
    pages: u64,
    page: u64,
    write: bool,
}

impl Program for Toucher {
    fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
        if self.page == self.pages {
            return Op::Exit(0);
        }
        let addr = self.base.add(self.page * VAddr::PAGE_SIZE);
        self.page += 1;
        if self.write {
            Op::Store(addr, 1)
        } else {
            Op::Load(addr)
        }
    }
}

/// E4 driver: leader maps a region, touches it (becoming owner), then
/// spawns touchers on other kernels in sequence; finally writes again from
/// the last reader's kernel to measure invalidation of the full copyset.
#[derive(Debug)]
struct E4Orchestrator {
    pages: u64,
    readers: u16, // kernels 1..=readers read the region
    state: u8,
    base: VAddr,
    page: u64,
    next_reader: u16,
}

impl E4Orchestrator {
    /// The 16-page orchestrator with readers on kernels `1..=readers`.
    fn boxed(readers: u16) -> Box<dyn Program> {
        Box::new(E4Orchestrator {
            pages: 16,
            readers,
            state: 0,
            base: VAddr(0),
            page: 0,
            next_reader: 1,
        })
    }
}

impl Program for E4Orchestrator {
    fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
        loop {
            match self.state {
                0 => {
                    self.state = 1;
                    return Op::Syscall(SyscallReq::Mmap {
                        len: self.pages * VAddr::PAGE_SIZE,
                    });
                }
                1 => {
                    let Resume::Sys(res) = r else { panic!("mmap") };
                    self.base = VAddr(res.expect_val("mmap"));
                    self.state = 2;
                    continue;
                }
                2 => {
                    // Own the pages (local faults at home).
                    if self.page == self.pages {
                        self.state = 3;
                        continue;
                    }
                    let a = self.base.add(self.page * VAddr::PAGE_SIZE);
                    self.page += 1;
                    return Op::Store(a, 7);
                }
                3 => {
                    // Sequentially place a toucher on each reader kernel and
                    // wait for it (sequential ⇒ clean latency attribution).
                    if self.next_reader > self.readers {
                        self.state = 4;
                        continue;
                    }
                    let k = self.next_reader;
                    self.next_reader += 1;
                    self.state = 5;
                    return Op::Syscall(SyscallReq::Clone {
                        child: Box::new(Toucher {
                            base: self.base,
                            pages: self.pages,
                            page: 0,
                            write: false,
                        }),
                        placement: Placement::Core(CoreId(k * 16)), // kernel k
                    });
                }
                5 => {
                    // Let the reader run; a sleep gives it time to finish
                    // before the next one starts (sequential phases).
                    self.state = 7;
                    return Op::Syscall(SyscallReq::Nanosleep { ns: 3_000_000 });
                }
                7 => {
                    self.state = 3;
                    continue;
                }
                4 => {
                    // Final writer on the last kernel: invalidates the
                    // whole copyset per page.
                    self.state = 8;
                    return Op::Syscall(SyscallReq::Clone {
                        child: Box::new(Toucher {
                            base: self.base,
                            pages: self.pages,
                            page: 0,
                            write: true,
                        }),
                        placement: Placement::Core(CoreId((self.readers) * 16)),
                    });
                }
                8 => {
                    self.state = 9;
                    return Op::Syscall(SyscallReq::Nanosleep { ns: 3_000_000 });
                }
                9 => return Op::Exit(0),
                _ => unreachable!(),
            }
        }
    }
}

/// E4 — address-space consistency costs: local faults, remote read
/// retrieval, remote write (ownership transfer), and invalidation cost
/// versus copyset size (the page-protocol figure).
fn e4_page_protocol() -> Plan {
    // Readers on kernels 1..=r, then a writer: copyset r + 1.
    let cells = (1u16..=3)
        .map(|readers| {
            Cell::new(format!("e4/copyset-{}", readers + 1), move || {
                let orchestrator = E4Orchestrator::boxed(readers);
                Rig::paper().run(OsKind::Popcorn, [orchestrator]).into()
            })
        })
        .collect();
    Plan::new(cells, |outs| {
        let mut t = Table::new(
            "E4",
            "page-consistency costs (mean fault-to-resume latency)",
            [
                "case",
                "copyset",
                "local_us",
                "remote_read_us",
                "remote_write_us",
            ],
        );
        for (copyset, o) in (2..).zip(outs) {
            t.row([
                "read-share-then-write".to_string(),
                format!("{copyset}"),
                format!("{:.2}", o.metric("fault_local_us_mean")),
                format!("{:.2}", o.metric("fault_remote_read_us_mean")),
                format!("{:.2}", o.metric("fault_remote_write_us_mean")),
            ]);
        }
        t.note("expected: local ≪ remote read < remote write; invalidations to multiple holders proceed in parallel, so write cost grows from copyset 2 to 3 and then saturates");
        t
    })
}

/// Builds an mmap-storm team with explicit placement.
fn mmap_storm_placed(
    threads: usize,
    iters: u32,
    bytes: u64,
    placement: Placement,
) -> Box<dyn Program> {
    let mut cfg = TeamConfig::new(threads, 0);
    cfg.placement = placement;
    Team::boxed(
        cfg,
        Box::new(move |_, _| Box::new(micro::MmapWorker::new(iters, bytes))),
    )
}

/// E5 — address-space operation scalability (the `mmap_sem`/zone-lock
/// contention figure): four processes, each a team of kernel-local
/// threads doing map/touch/unmap rounds; fixed total work.
fn e5_mmap_storm() -> Plan {
    let totals = [4usize, 8, 16, 32, 60];
    let cells = os_sweep("e5", &totals, &OsKind::ALL, |total, k| {
        let iters = 2880 / total as u32;
        let storms =
            (0..4).map(|_| mmap_storm_placed(total / 4, iters, 4 * 4096, Placement::Local));
        Rig::paper().run(k, storms).into()
    });
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E5",
            "mmap/munmap scalability, 4 processes x T/4 local threads (total ms, fixed total work)",
            [
                "total_threads",
                "popcorn_ms",
                "smp_ms",
                "multikernel_ms",
                "smp_over_popcorn",
            ],
        );
        for (total, o) in totals.iter().zip(outs.chunks(3)) {
            let (p, s, m) = (o[0].ms(), o[1].ms(), o[2].ms());
            t.row([
                total.to_string(),
                format!("{p:.3}"),
                format!("{s:.3}"),
                format!("{m:.3}"),
                ratio(s / p),
            ]);
        }
        t.note("expected: SMP stops improving (global zone lock + machine-wide shootdowns shared by all processes); popcorn and the multikernel keep scaling on per-kernel structures");
        t
    })
}

/// E5b — the same storm as one process *spanning* kernels: the distributed
/// address-space consistency overhead the paper quantifies (Popcorn pays a
/// home round-trip per operation; SMP does not).
fn e5b_mmap_span() -> Plan {
    let sweep = [1usize, 4, 16, 63];
    let kinds = [OsKind::Popcorn, OsKind::Smp];
    let cells = os_sweep("e5b", &sweep, &kinds, |n, k| {
        let storm = mmap_storm_placed(n, 1260 / n as u32, 4 * 4096, Placement::Auto);
        Rig::paper().run(k, [storm]).into()
    });
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E5b",
            "mmap/munmap, ONE process x T machine-spread threads (total ms, fixed total work)",
            ["threads", "popcorn_ms", "smp_ms", "popcorn_over_smp"],
        );
        for (n, o) in sweep.iter().zip(outs.chunks(2)) {
            let (p, s) = (o[0].ms(), o[1].ms());
            t.row([
                n.to_string(),
                format!("{p:.3}"),
                format!("{s:.3}"),
                ratio(p / s),
            ]);
        }
        t.note("expected: popcorn LOSES here — every map/unmap serializes at the home kernel over messages. This is the paper's honest trade-off: a single-system-image address space spanning kernels costs messaging");
        t
    })
}

/// Builds a mutex-contention team with explicit placement.
fn futex_contention_placed(
    threads: usize,
    iters: u32,
    critical: u64,
    placement: Placement,
) -> Box<dyn Program> {
    let mut cfg = TeamConfig::new(threads, 0);
    cfg.placement = placement;
    Team::boxed(
        cfg,
        Box::new(move |_, shared| {
            Box::new(micro::MutexWorker::new(
                shared.sync_slot(1),
                iters,
                critical,
            ))
        }),
    )
}

/// E6 — futex contention: T threads hammering one mutex, kernel-local
/// (the paper's local futex case) versus machine-spread (the distributed
/// futex cost).
fn e6_futex() -> Plan {
    let sweep = [1usize, 2, 4, 8, 16];
    let mut cells = Vec::new();
    for n in sweep {
        for (variant, kind, placement) in [
            ("popcorn-local", OsKind::Popcorn, Placement::Local),
            ("popcorn-spread", OsKind::Popcorn, Placement::Auto),
            ("smp", OsKind::Smp, Placement::Auto),
            ("multikernel", OsKind::Multikernel, Placement::Auto),
        ] {
            cells.push(Cell::new(format!("e6/{n}/{variant}"), move || {
                let team = futex_contention_placed(n, 1260 / n as u32, 4_000, placement);
                Rig::paper().run(kind, [team]).into()
            }));
        }
    }
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E6",
            "futex contention: T threads x lock/unlock rounds on one mutex (total ms)",
            [
                "threads",
                "popcorn_local_ms",
                "popcorn_spread_ms",
                "smp_ms",
                "multikernel_spread_ms",
            ],
        );
        for (n, o) in sweep.iter().zip(outs.chunks(4)) {
            let mut row = vec![n.to_string()];
            row.extend(o.iter().map(|v| format!("{:.3}", v.ms())));
            t.row(row);
        }
        t.note("expected: kernel-local popcorn tracks SMP (futex fast path); spreading the mutex across kernels pays a message round-trip per contended operation — the distributed-futex cost the paper quantifies");
        t
    })
}

/// E7 — null-syscall scaling: getpid loops on every thread (parity check:
/// uncontended syscalls cost the same everywhere). Steady-state cost is
/// estimated from the slope between a short and a long loop (separate
/// cells), cancelling team setup costs.
fn e7_syscall_scaling() -> Plan {
    let (short, long) = (200u32, 400u32);
    let sweep = [1usize, 8, 32, 63];
    let mut cells = Vec::new();
    for n in sweep {
        for k in OsKind::ALL {
            for calls in [short, long] {
                let key = format!("e7/{n}/{}/{calls}", k.name());
                cells.push(Cell::new(key, move || {
                    Rig::paper()
                        .run(k, [micro::null_syscall_storm(n, calls)])
                        .into()
                }));
            }
        }
    }
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E7",
            "null syscall (getpid): steady-state ns per call at T threads",
            ["threads", "popcorn_ns", "smp_ns", "multikernel_ns"],
        );
        let slope = |runs: &[CellOut]| {
            let [t_short, t_long] = [&runs[0], &runs[1]].map(|r| r.finished.as_nanos() as f64);
            format!("{:.0}", (t_long - t_short) / (long - short) as f64)
        };
        for (n, o) in sweep.iter().zip(outs.chunks(6)) {
            let mut row = vec![n.to_string()];
            row.extend(o.chunks(2).map(slope));
            t.row(row);
        }
        t.note("expected: flat and identical across OSes — local syscalls touch no shared state in any of the three designs");
        t
    })
}

/// Shared plan for E9/E10/E11: `make`'s NPB kernel over [`THREAD_SWEEP`]
/// on each model, with fixed total work divided over the threads.
fn npb_experiment(
    id: &'static str,
    title: &'static str,
    make: fn(NpbConfig) -> Box<dyn Program>,
    total_cycles_per_iter: u64,
    iterations: u32,
    pages: u64,
    note: &'static str,
) -> Plan {
    let key = id.to_lowercase();
    let cells = os_sweep(&key, &THREAD_SWEEP, &OsKind::ALL, move |n, k| {
        let cfg = NpbConfig {
            threads: n,
            iterations,
            pages_per_thread: pages,
            compute_cycles: total_cycles_per_iter / n as u64,
            barrier_groups: 0,
        };
        Rig::paper().run(k, [make(cfg)]).into()
    });
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            id,
            title,
            [
                "threads",
                "popcorn_ms",
                "smp_ms",
                "multikernel_ms",
                "popcorn_speedup",
                "smp_speedup",
                "smp_over_popcorn",
            ],
        );
        // Speedups are relative to the first sweep point (popcorn@1, smp@1).
        let (p1, s1) = (outs[0].ms(), outs[1].ms());
        for (n, o) in THREAD_SWEEP.iter().zip(outs.chunks(3)) {
            let (p, s, m) = (o[0].ms(), o[1].ms(), o[2].ms());
            t.row([
                n.to_string(),
                format!("{p:.2}"),
                format!("{s:.2}"),
                format!("{m:.2}"),
                ratio(p1 / p),
                ratio(s1 / s),
                ratio(s / p),
            ]);
        }
        t.note(note);
        t
    })
}

/// E8 — IS-class (allocation-heavy) scalability: the paper's
/// "up to 40% faster than SMP" case. Multi-process: four IS processes
/// (one per kernel on popcorn), threads split among them.
fn e8_npb_is() -> Plan {
    let totals = [4usize, 8, 16, 32, 64];
    let cells = os_sweep("e8", &totals, &OsKind::ALL, |total, kind| {
        let total_cycles_per_iter = 84_000_000u64; // ~35ms single-thread per iteration
        let cfg = NpbConfig {
            threads: total / 4,
            iterations: 10,
            pages_per_thread: 12,
            compute_cycles: total_cycles_per_iter / total as u64,
            barrier_groups: 0,
        };
        // Keep each process on its home kernel (the pinning the paper's
        // runs use); SMP spreads over its one kernel.
        let processes = (0..4).map(|_| npb::is_benchmark_placed(cfg, Placement::Local));
        Rig::paper().run(kind, processes).into()
    });
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E8",
            "IS-class, 4 processes x T/4 threads each (allocation-heavy; total ms, fixed total work)",
            [
                "total_threads",
                "popcorn_ms",
                "smp_ms",
                "multikernel_ms",
                "smp_over_popcorn",
            ],
        );
        for (total, o) in totals.iter().zip(outs.chunks(3)) {
            let (p, s, m) = (o[0].ms(), o[1].ms(), o[2].ms());
            t.row([
                total.to_string(),
                format!("{p:.2}"),
                format!("{s:.2}"),
                format!("{m:.2}"),
                ratio(s / p),
            ]);
        }
        t.note("expected: at high core counts SMP's shared structures (zone lock, shootdowns) make it lose to popcorn by tens of percent (paper: up to 40%); the multikernel tracks popcorn");
        t
    })
}

/// E9 — CG-class (compute-bound) scalability: everyone scales; popcorn
/// within a few percent of SMP (the "competitive" claim).
fn e9_npb_cg() -> Plan {
    npb_experiment(
        "E9",
        "CG-class, one process x T threads (compute-bound; total ms, fixed total work)",
        npb::cg_benchmark,
        240_000_000, // 100ms single-thread per iteration
        6,
        4,
        "expected: near-linear speedup on all three; popcorn within a few percent of SMP (cross-kernel barriers are its only extra cost)",
    )
}

/// E10 — FT-class (all-to-all) scalability: popcorn pays page-ownership
/// migration on the transpose; competitive but behind SMP at high counts.
fn e10_npb_ft() -> Plan {
    npb_experiment(
        "E10",
        "FT-class, one process x T threads (all-to-all transpose; total ms, fixed total work)",
        npb::ft_benchmark,
        240_000_000,
        6,
        4,
        "expected: the transpose bounces page ownership between kernels, so popcorn trails SMP as threads span more kernels — the cost of distributed shared memory the paper quantifies",
    )
}

/// E11 — MG-class scalability (extension benchmark): halo exchange with
/// per-level barriers at decreasing working-set sizes — the
/// communication-bound regime where all three OSes flatten early.
fn e11_npb_mg() -> Plan {
    npb_experiment(
        "E11",
        "MG-class, one process x T threads (halo exchange; total ms, fixed total work)",
        npb::mg_benchmark,
        240_000_000,
        6,
        4,
        "expected: speedup saturates earlier than CG for everyone (per-level barriers); popcorn pays halo page sharing on top",
    )
}

/// E12 workloads: the E2 migration workload, the E4 page-protocol
/// workload, and the crash-scenario hopper fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum E12Workload {
    Migration,
    Pages,
    Hoppers,
}

/// Runs one E12 cell on the configured model itself (an unclean run is a
/// table row, not a panic) and adds the p99 latency, µs, of the
/// workload's operation from the model's raw histograms.
fn e12_cell(wk: E12Workload, faults: FaultPlan) -> CellOut {
    let rig = Rig {
        faults,
        ..Rig::paper()
    };
    let mut os = rig.popcorn();
    match wk {
        E12Workload::Migration => {
            os.load(Box::new(micro::MigrationPingPong::new(200)));
        }
        E12Workload::Pages => {
            os.load(E4Orchestrator::boxed(2));
        }
        E12Workload::Hoppers => {
            // Four independent single-thread processes hopping the kernel
            // ring (homes round-robin across kernels); compute keeps them
            // in flight when the crash lands.
            for _ in 0..4 {
                os.load(adversarial::straggler_hopper(24, 4, 200_000));
            }
        }
    }
    let r = os.run_with(rig.horizon, rig.event_budget);
    let p99_ns = match wk {
        E12Workload::Migration | E12Workload::Hoppers => {
            os.stats().migration_back_lat.quantile(0.99)
        }
        E12Workload::Pages => os.stats().fault_remote_read_lat.quantile(0.99),
    };
    CellOut::from(r).with("p99_us", p99_ns as f64 / 1_000.0)
}

/// E12 — fault tolerance (extension beyond the paper): reliable delivery
/// under injected message loss. Sweeps uniform drop probability over the
/// E2 migration and E4 page-protocol workloads, rides out a scripted
/// channel blackout, and survives a mid-run kernel crash with migrations
/// aborting back to their origin. Cells are keyed
/// `e12/<workload>/<fault>`.
fn e12_fault_tolerance() -> Plan {
    // Drop rate, row label and key.
    const DROPS: [(f64, &str, &str); 4] = [
        (0.0, "none", "drop-0"),
        (0.001, "drop 0.1%", "drop-0.001"),
        (0.01, "drop 1%", "drop-0.01"),
        (0.1, "drop 10%", "drop-0.1"),
    ];
    let mut points = Vec::new();
    for wk in [E12Workload::Migration, E12Workload::Pages] {
        for (i, (p, label, key)) in DROPS.into_iter().enumerate() {
            // A distinct seed per rate, or the nested-subset structure of
            // one shared uniform stream makes low rates drop nothing.
            let seed = 0xE12 + 0x9E37 * (i as u64 + 1) + 0x5BD1;
            points.push((wk, label, key, FaultPlan::uniform_drop(seed, p)));
        }
    }
    points.push((
        E12Workload::Migration,
        "blackout 0->1, 0.2-1.2ms",
        "blackout",
        FaultPlan::none().with_blackout(
            KernelId(0),
            KernelId(1),
            SimTime::from_micros(200),
            SimTime::from_micros(1_200),
        ),
    ));
    points.push((
        E12Workload::Hoppers,
        "kernel 3 crash @1ms",
        "crash",
        FaultPlan::none().with_crash(KernelId(3), SimTime::from_millis(1)),
    ));
    let cells = points
        .iter()
        .map(|(wk, _, fault, plan)| {
            let (wk, plan) = (*wk, plan.clone());
            let key = format!("e12/{}/{fault}", format!("{wk:?}").to_lowercase());
            Cell::new(key, move || e12_cell(wk, plan.clone()))
        })
        .collect();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E12",
            "fault tolerance: completion and recovery overhead under fabric faults",
            [
                "workload",
                "fault",
                "clean",
                "completion_ms",
                "retransmits",
                "retx_overhead_ms",
                "aborted",
                "p99_us",
                "p99_x",
            ],
        );
        // p99 inflation is relative to the same workload's zero-fault row.
        let baseline_p99 = |wk: E12Workload| {
            points
                .iter()
                .zip(outs)
                .find(|((w, label, ..), _)| *w == wk && *label == "none")
                .map(|(_, o)| o.metric("p99_us"))
        };
        for ((wk, label, ..), o) in points.iter().zip(outs) {
            let wk_name = match wk {
                E12Workload::Migration => "migration (E2)",
                E12Workload::Pages => "pages (E4)",
                E12Workload::Hoppers => "ring hoppers",
            };
            let p99 = o.metric("p99_us");
            let p99_x = match baseline_p99(*wk) {
                Some(base) if base > 0.0 => format!("{:.2}", p99 / base),
                _ => "-".to_string(),
            };
            let aborted =
                o.metric("migrations_aborted") + o.metric("ops_failed") + o.metric("fault_kills");
            t.row([
                wk_name.to_string(),
                label.to_string(),
                o.clean.to_string(),
                format!("{:.3}", o.ms()),
                format!("{:.0}", o.metric("retransmits")),
                format!("{:.3}", o.metric("retx_backoff_ms")),
                format!("{aborted:.0}"),
                format!("{p99:.1}"),
                p99_x,
            ]);
        }
        t.note("expected: every run completes cleanly; retransmit count tracks the drop rate; p99 inflates with loss (a lost message costs at least one backoff); the crash scenario aborts migrations to the dead kernel back to their origin instead of wedging");
        t
    })
}

/// E13 adversarial scenarios, each built to trap a naive policy (see
/// `popcorn_workloads::adversarial`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum E13Scenario {
    /// Thundering-herd futex: waiters parked machine-wide, one waker.
    Herd,
    /// Scripted ping-pong bouncers plus compute ballast piled on kernel 0.
    Storm,
    /// Every worker fights over the same hot pages; most threads blocked.
    HotPages,
    /// Ring hoppers while kernel 3 is slow, then unreachable.
    Straggler,
}

impl E13Scenario {
    const ALL: [E13Scenario; 4] = [
        E13Scenario::Herd,
        E13Scenario::Storm,
        E13Scenario::HotPages,
        E13Scenario::Straggler,
    ];

    fn name(self) -> &'static str {
        match self {
            E13Scenario::Herd => "thundering herd",
            E13Scenario::Storm => "ping-pong storm",
            E13Scenario::HotPages => "hot-page skew",
            E13Scenario::Straggler => "straggler kernel",
        }
    }
}

/// The straggler fault plan: every channel toward kernel 3 picks up heavy
/// delay jitter, and mid-run the channels black out entirely for a while.
fn e13_straggler_plan() -> FaultPlan {
    let slow = popcorn_msg::ChannelFaults {
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 1.0,
        delay_max_ns: 150_000,
    };
    let mut plan = FaultPlan {
        seed: 0xE13,
        ..FaultPlan::none()
    };
    for from in [0u16, 1, 2] {
        plan = plan
            .with_channel(KernelId(from), KernelId(3), slow.clone())
            .with_blackout(
                KernelId(from),
                KernelId(3),
                SimTime::from_millis(1),
                SimTime::from_millis(12),
            );
    }
    plan
}

/// Runs one E13 cell (panicking if it is unclean).
fn e13_cell(sc: E13Scenario, policy: PolicyKind) -> CellOut {
    let rig = Rig {
        popcorn: PopcornParams {
            policy,
            ..PopcornParams::default()
        },
        faults: if sc == E13Scenario::Straggler {
            e13_straggler_plan()
        } else {
            FaultPlan::none()
        },
        ..Rig::paper()
    };
    let programs = match sc {
        // The round window (cycles) must be wide enough for remote
        // waiters to re-read and park before the wake fires.
        E13Scenario::Herd => vec![adversarial::thundering_herd(10, 8, 800_000)],
        E13Scenario::Storm => vec![adversarial::pingpong_storm(3, 30, 5_000, 6, 2_000_000)],
        E13Scenario::HotPages => vec![adversarial::hot_page_skew(8, 4, 120)],
        // Four independent hopper processes, homes round-robin.
        E13Scenario::Straggler => (0..4)
            .map(|_| adversarial::straggler_hopper(24, 4, 200_000))
            .collect(),
    };
    rig.run(OsKind::Popcorn, programs).into()
}

/// E13 — migration-policy shootout (extension beyond the paper): every
/// selectable policy against every adversarial scenario. `scripted` rows
/// are the baseline; the policy columns show who takes the bait and who
/// helps.
fn e13_policies() -> Plan {
    // Explicitly the five replication-free policies — NOT `PolicyKind::ALL`,
    // which also carries `ReplicaAware`. That one needs
    // `page_table_replication` on (validation rejects it otherwise) and is
    // swept in E15 instead; keeping this list fixed keeps e13.json stable.
    let policies = [
        PolicyKind::ScriptedOnly,
        PolicyKind::LoadThreshold,
        PolicyKind::WorkStealing,
        PolicyKind::FutexWakeLocality,
        PolicyKind::FaultAware,
    ];
    let mut cells = Vec::new();
    for sc in E13Scenario::ALL {
        for pk in policies {
            let key = format!("e13/{}/{}", format!("{sc:?}").to_lowercase(), pk.name());
            cells.push(Cell::new(key, move || e13_cell(sc, pk)));
        }
    }
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "E13",
            "migration policies vs adversarial scenarios: completion and policy activity",
            [
                "scenario",
                "policy",
                "clean",
                "completion_ms",
                "migrations",
                "policy_acts",
                "aborted",
                "runq_tw",
                "vs_scripted",
            ],
        );
        let sum = |o: &CellOut, names: &[&str]| names.iter().map(|n| o.metric(n)).sum::<f64>();
        for (sc, runs) in E13Scenario::ALL.iter().zip(outs.chunks(policies.len())) {
            // The scripted run (the first policy) is the baseline.
            let base = runs[0].ms();
            for (pk, o) in policies.iter().zip(runs) {
                let vs = if base > 0.0 {
                    format!("{:.2}", o.ms() / base)
                } else {
                    "-".to_string()
                };
                let migrations = sum(o, &["migrations_first", "migrations_back"]);
                let acts = sum(o, &["policy_migrations", "wake_chases", "policy_redirects"]);
                let aborted = sum(o, &["migrations_aborted", "ops_failed", "fault_kills"]);
                t.row([
                    sc.name().to_string(),
                    pk.name().to_string(),
                    o.clean.to_string(),
                    format!("{:.3}", o.ms()),
                    format!("{migrations:.0}"),
                    format!("{acts:.0}"),
                    format!("{aborted:.0}"),
                    format!("{:.2}", o.metric("runq_depth_tw_mean")),
                    vs,
                ]);
            }
        }
        t.note("expected: scripted rows show zero policy_acts (the framework is inert by default); wake-locality chases the herd; fault-aware reroutes hops around the blacked-out straggler and aborts less than scripted; load-threshold's hysteresis keeps the ping-pong storm from amplifying");
        t
    })
}

/// A rig on the paper machine whose Popcorn runs with `popcorn`.
fn popcorn_rig(popcorn: PopcornParams) -> Rig {
    Rig {
        popcorn,
        ..Rig::paper()
    }
}

/// Ablation — shadow-task reuse on back-migration.
fn ablate_shadow() -> Plan {
    let settings = [true, false];
    let cells = settings
        .map(|reuse| {
            Cell::new(format!("ablate-shadow/{reuse}"), move || {
                let rig = popcorn_rig(PopcornParams {
                    shadow_task_reuse: reuse,
                    ..PopcornParams::default()
                });
                let pingpong: Box<dyn Program> = Box::new(micro::MigrationPingPong::new(40));
                rig.run(OsKind::Popcorn, [pingpong]).into()
            })
        })
        .into();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "A1",
            "ablation: shadow-task reuse on back-migration",
            ["shadow_reuse", "back_migration_us", "first_visit_us"],
        );
        for (reuse, o) in settings.iter().zip(outs) {
            t.row([
                reuse.to_string(),
                format!("{:.2}", o.metric("migration_back_us_mean")),
                format!("{:.2}", o.metric("migration_first_us_mean")),
            ]);
        }
        t.note("expected: disabling reuse makes every back-migration pay full task creation");
        t
    })
}

/// Ablation — on-demand vs eager VMA replication at migration time.
fn ablate_vma() -> Plan {
    let modes = ["on-demand", "eager"];
    let cells = modes
        .map(|mode| {
            Cell::new(format!("ablate-vma/{mode}"), move || {
                let rig = popcorn_rig(PopcornParams {
                    eager_vma_replication: mode == "eager",
                    ..PopcornParams::default()
                });
                let mut cfg = TeamConfig::new(16, 32 * 4096);
                cfg.placement = Placement::Auto;
                let team = Team::boxed(
                    cfg,
                    Box::new(|i, shared| {
                        Box::new(micro::PageBounceWorker::new(
                            shared.data,
                            32,
                            20,
                            i as u64 * 3,
                        ))
                    }),
                );
                rig.run(OsKind::Popcorn, [team]).into()
            })
        })
        .into();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "A2",
            "ablation: on-demand vs eager VMA replication",
            ["mode", "total_ms", "vma_fetches", "migration_msg_overhead"],
        );
        for (mode, o) in modes.iter().zip(outs) {
            t.row([
                mode.to_string(),
                format!("{:.3}", o.ms()),
                format!("{:.0}", o.metric("vma_fetches")),
                format!("{:.0}", o.metric("messages")),
            ]);
        }
        t.note("expected: eager replication eliminates VMA-fetch round trips at the cost of larger migration/clone state; on-demand is the paper's design");
        t
    })
}

/// Ablation — distributed-futex local fast path.
fn ablate_futex() -> Plan {
    let settings = [true, false];
    let cells = settings
        .map(|fast| {
            Cell::new(format!("ablate-futex/{fast}"), move || {
                let rig = popcorn_rig(PopcornParams {
                    futex_local_fastpath: fast,
                    ..PopcornParams::default()
                });
                let mut cfg = TeamConfig::new(16, 0);
                cfg.placement = Placement::Local; // all on the home kernel
                let team = Team::boxed(
                    cfg,
                    Box::new(|_, shared| {
                        Box::new(micro::MutexWorker::new(shared.sync_slot(1), 40, 2_000))
                    }),
                );
                rig.run(OsKind::Popcorn, [team]).into()
            })
        })
        .into();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "A3",
            "ablation: futex/sync local fast path at the home kernel",
            ["fastpath", "total_ms", "rmw_local", "rmw_remote"],
        );
        for (fast, o) in settings.iter().zip(outs) {
            t.row([
                fast.to_string(),
                format!("{:.3}", o.ms()),
                format!("{:.0}", o.metric("rmw_local")),
                format!("{:.0}", o.metric("rmw_remote")),
            ]);
        }
        t.note("expected: without the fast path even home-local threads pay the RPC-shaped cost, inflating synchronization-heavy runs");
        t
    })
}

/// Ablation/extension — flat vs hierarchical barriers, with and without
/// first-touch sync-word homing (the paper's futex server lives at the
/// group's origin kernel; the extension homes each word where it is first
/// used, making group-local barriers kernel-local).
fn ablate_hier() -> Plan {
    let cases = [
        ("flat", "origin"),
        ("hier", "origin"),
        ("flat", "first-touch"),
        ("hier", "first-touch"),
    ];
    let cells = cases
        .map(|(barrier, homing)| {
            Cell::new(format!("ablate-hier/{barrier}/{homing}"), move || {
                let rig = popcorn_rig(PopcornParams {
                    sync_first_touch_homing: homing == "first-touch",
                    ..PopcornParams::default()
                });
                let cfg = NpbConfig {
                    threads: 32,
                    iterations: 40,
                    pages_per_thread: 1,
                    compute_cycles: 30_000,
                    barrier_groups: if barrier == "hier" { 4 } else { 0 },
                };
                rig.run(OsKind::Popcorn, [npb::cg_benchmark(cfg)]).into()
            })
        })
        .into();
    Plan::new(cells, move |outs| {
        let mut t = Table::new(
            "A4",
            "extension: hierarchical barriers + first-touch sync-word homing (CG-class, 32 threads, 4 kernels)",
            ["barrier", "word_homing", "total_ms", "rmw_local", "rmw_remote"],
        );
        for ((barrier, homing), o) in cases.iter().zip(outs) {
            t.row([
                barrier.to_string(),
                homing.to_string(),
                format!("{:.3}", o.ms()),
                format!("{:.0}", o.metric("rmw_local")),
                format!("{:.0}", o.metric("rmw_remote")),
            ]);
        }
        t.note("expected: hierarchy alone HURTS (an extra level, still served remotely at the origin); combined with first-touch homing ~90% of sync ops become kernel-local and the barrier-bound run speeds up ~20%");
        t
    })
}

/// Every experiment, in `repro all` order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", e1_messaging as fn() -> Plan),
        ("e2", e2_migration),
        ("e3", e3_thread_group),
        ("e4", e4_page_protocol),
        ("e5", e5_mmap_storm),
        ("e5b", e5b_mmap_span),
        ("e6", e6_futex),
        ("e7", e7_syscall_scaling),
        ("e8", e8_npb_is),
        ("e9", e9_npb_cg),
        ("e10", e10_npb_ft),
        ("e11", e11_npb_mg),
        ("e12", e12_fault_tolerance),
        ("e13", e13_policies),
        ("e14", crate::e14::e14_crash_recovery),
        ("e15", crate::e15::e15_replication),
        ("e16", crate::e16::e16_hierarchical_homes),
        ("ablate-shadow", ablate_shadow),
        ("ablate-vma", ablate_vma),
        ("ablate-futex", ablate_futex),
        ("ablate-hier", ablate_hier),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events one run of E5's kernel-pinned storm processes: four
    /// processes of `per_proc` local threads, `iters` rounds each.
    fn e5_storm_events(kind: OsKind, per_proc: usize, iters: u32) -> u64 {
        let storms = (0..4).map(|_| mmap_storm_placed(per_proc, iters, 4 * 4096, Placement::Local));
        Rig::paper().run(kind, storms).events
    }

    /// Duplicate core re-poll chains that never merge make events grow
    /// with the square of the rounds (~4x per doubling); merged, the
    /// growth is linear (~2x).
    #[test]
    fn e5_storm_events_grow_linearly_with_rounds() {
        for kind in OsKind::ALL {
            let r = e5_storm_events(kind, 8, 20);
            let r2 = e5_storm_events(kind, 8, 40);
            assert!(
                r2 * 2 <= r * 5,
                "{}: {r} events at 20 rounds, {r2} at 40 (over 2.5x)",
                kind.name()
            );
        }
    }

    /// A key names one cell of the whole suite, under its experiment's id.
    #[test]
    fn cell_keys_are_unique_across_all_experiments() {
        let mut keys = std::collections::BTreeSet::new();
        for (id, plan) in all_experiments() {
            let cells = plan().cells;
            assert!(!cells.is_empty(), "{id} lists no cells");
            for cell in cells {
                let prefix = format!("{id}/");
                assert!(cell.key.starts_with(&prefix), "{} in {id}", cell.key);
                assert!(!cell.key.contains(' '), "{:?} has a space", cell.key);
                assert!(keys.insert(cell.key.clone()), "duplicate key {}", cell.key);
            }
        }
        assert!(keys.contains("e14/pages/crash") && keys.contains("e5/32/smp"));
    }
}
