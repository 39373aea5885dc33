//! The evaluation suite: one function per reconstructed table/figure
//! (E1–E11) plus the ablations and extensions DESIGN.md calls out.
//!
//! Every function is deterministic and returns a [`Table`]; the `repro`
//! binary prints them and EXPERIMENTS.md records representative output.

use popcorn_core::PopcornParams;
use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_kernel::osmodel::OsModel;
use popcorn_kernel::policy::PolicyKind;
use popcorn_kernel::program::{
    MigrateTarget, Op, Placement, ProgEnv, Program, Resume, SysResult, SyscallReq,
};
use popcorn_kernel::types::VAddr;
use popcorn_msg::{Fabric, FaultPlan, KernelId, MsgParams, Wire};
use popcorn_sim::SimTime;
use popcorn_workloads::adversarial;
use popcorn_workloads::micro;
use popcorn_workloads::npb::{self, NpbConfig};
use popcorn_workloads::team::{Team, TeamConfig};

use crate::rig::{parallel_map, OsKind, Rig};
use crate::table::{ratio, us, Table};

/// Thread counts swept by the scaling experiments on the 64-core machine.
pub const THREAD_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 63];

struct Blob(usize);
impl Wire for Blob {
    fn wire_size(&self) -> usize {
        self.0
    }
}

/// E1 — message-layer latency and throughput (the messaging table).
pub fn e1_messaging() -> Table {
    let machine = Machine::new(Topology::paper_default(), HwParams::default());
    // Eight kernels on four sockets: kernels 0,1 share socket 0.
    let parts = machine.topology().partition(8);
    let locations: Vec<CoreId> = parts.iter().map(|p| p[0]).collect();
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
    let mut points = Vec::new();
    for &(scope, from, to) in &[
        ("same-socket", KernelId(0), KernelId(1)),
        ("cross-socket", KernelId(0), KernelId(2)),
    ] {
        for &size in &[0usize, 64, 256, 1024, 4096] {
            points.push((scope, from, to, size));
        }
    }
    for row in parallel_map(points, |(scope, from, to, size)| {
        let mut fabric = Fabric::new(&machine, locations.clone(), MsgParams::default());
        let one = fabric
            .send(SimTime::ZERO, from, to, Blob(size))
            .expect_delivered();
        // Streaming: 10k back-to-back messages on one channel.
        let n = 10_000u64;
        let mut last = SimTime::ZERO;
        let mut fabric2 = Fabric::new(&machine, locations.clone(), MsgParams::default());
        for _ in 0..n {
            last = fabric2
                .send(SimTime::ZERO, from, to, Blob(size))
                .expect_delivered()
                .deliver_at;
        }
        let secs = last.as_secs_f64();
        let mps = n as f64 / secs;
        let mbps = mps * (size as f64 + 64.0) / 1e6;
        // Mean time a streamed message spent queued behind its
        // predecessors (channel serialization), from the per-channel
        // queue-delay histograms.
        let qd = fabric2.queue_delay_histogram();
        [
            size.to_string(),
            scope.to_string(),
            us(one.deliver_at.as_nanos() as f64),
            format!("{mps:.0}"),
            format!("{mbps:.0}"),
            us(qd.mean()),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: small messages land in the low microseconds; cross-socket adds the interconnect hop; throughput bounded by per-message software cost");
    t
}

/// E2 — thread migration latency: first visit vs back-migration, idle vs
/// loaded machine (the migration cost table).
pub fn e2_migration() -> Table {
    let mut t = Table::new(
        "E2",
        "thread migration latency (syscall to resume on the target kernel)",
        ["scenario", "first_visit_us", "back_migration_us", "hops"],
    );
    let scenarios = vec![("idle", 0usize), ("loaded", 32)];
    for row in parallel_map(scenarios, |(scenario, background)| {
        let rig = Rig::paper();
        let mut os = popcorn_core::PopcornOs::builder()
            .topology(rig.topology)
            .kernels(rig.kernels)
            .build();
        if background > 0 {
            os.load(Team::boxed(
                TeamConfig::new(background, 0),
                Box::new(|_, _| micro::compute_worker(120_000_000)),
            ));
        }
        os.load(Box::new(micro::MigrationPingPong::new(40)));
        let r = os.run();
        assert!(r.is_clean(), "E2 {scenario} unclean");
        [
            scenario.to_string(),
            us(os.stats().migration_first_lat.mean()),
            us(os.stats().migration_back_lat.mean()),
            "40".to_string(),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: back-migration (shadow revival) markedly cheaper than first visit; load adds queueing, not protocol cost");
    t
}

/// E3 — distributed thread group creation: time to spawn-and-join N
/// threads (the clone figure).
pub fn e3_thread_group() -> Table {
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
    let rig = Rig::paper();
    // One parallel cell per (thread count, OS): the whole sweep fans out.
    let cells: Vec<(usize, OsKind)> = THREAD_SWEEP
        .iter()
        .flat_map(|&n| OsKind::ALL.iter().map(move |&k| (n, k)))
        .collect();
    let reports = parallel_map(cells, |(n, k)| {
        rig.run(k, micro::spawn_join_storm(n, Placement::Auto))
    });
    for (i, &n) in THREAD_SWEEP.iter().enumerate() {
        let find = |k: OsKind| {
            let j = OsKind::ALL
                .iter()
                .position(|&x| x == k)
                .expect("known kind");
            &reports[i * OsKind::ALL.len() + j]
        };
        t.row([
            n.to_string(),
            format!("{:.3}", find(OsKind::Popcorn).finished_at.as_millis_f64()),
            format!("{:.3}", find(OsKind::Smp).finished_at.as_millis_f64()),
            format!(
                "{:.3}",
                find(OsKind::Multikernel).finished_at.as_millis_f64()
            ),
            format!(
                "{:.1}",
                find(OsKind::Popcorn).metric("clone_remote_us_mean")
            ),
        ]);
    }
    t.note("expected: remote creation costs a message round-trip per thread; all three grow roughly linearly with N");
    t
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
/// spawns touchers on other kernels in sequence; finally (optionally)
/// writes again from a late kernel to measure invalidation of the full
/// copyset.
#[derive(Debug)]
struct E4Orchestrator {
    pages: u64,
    readers: u16, // kernels 1..=readers read the region
    writer_last: bool,
    state: u8,
    base: VAddr,
    page: u64,
    next_reader: u16,
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
                        self.state = if self.writer_last { 4 } else { 6 };
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
                9 | 6 => return Op::Exit(0),
                _ => unreachable!(),
            }
        }
    }
}

/// E4 — address-space consistency costs: local faults, remote read
/// retrieval, remote write (ownership transfer), and invalidation cost
/// versus copyset size (the page-protocol figure).
pub fn e4_page_protocol() -> Table {
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
    // Base case: one reader kernel, then a writer: copyset 2.
    for row in parallel_map(vec![1u16, 2, 3], |readers| {
        let mut os = popcorn_core::PopcornOs::builder()
            .topology(Topology::paper_default())
            .kernels(4)
            .build();
        os.load(Box::new(E4Orchestrator {
            pages: 16,
            readers,
            writer_last: true,
            state: 0,
            base: VAddr(0),
            page: 0,
            next_reader: 1,
        }));
        let r = os.run();
        assert!(r.is_clean(), "E4 unclean: {:?}", r.stuck_tasks);
        [
            "read-share-then-write".to_string(),
            format!("{}", readers + 1),
            us(os.stats().fault_local_lat.mean()),
            us(os.stats().fault_remote_read_lat.mean()),
            us(os.stats().fault_remote_write_lat.mean()),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: local ≪ remote read < remote write; invalidations to multiple holders proceed in parallel, so write cost grows from copyset 2 to 3 and then saturates");
    t
}

/// Runs `procs` processes (each a team built by `make`) on one OS
/// instance; returns total virtual ms.
fn multiproc_ms(
    rig: &Rig,
    kind: OsKind,
    procs: usize,
    make: impl Fn(usize) -> Box<dyn Program>,
) -> f64 {
    let mut os = rig.build(kind);
    for p in 0..procs {
        os.load(make(p));
    }
    let r = os.run_with(rig.horizon, rig.event_budget);
    assert!(
        r.is_clean(),
        "{} multi-process run unclean: {:?}",
        kind.name(),
        r.stuck_tasks
    );
    r.finished_at.as_millis_f64()
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
pub fn e5_mmap_storm() -> Table {
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
    let total_iters = 2880u32;
    let rig = Rig::paper();
    let procs = 4usize;
    let totals = [4usize, 8, 16, 32, 60];
    let cells: Vec<(usize, OsKind)> = totals
        .iter()
        .flat_map(|&total| OsKind::ALL.iter().map(move |&k| (total, k)))
        .collect();
    let ms = parallel_map(cells, |(total, k)| {
        let per_proc = total / procs;
        let iters = total_iters / total as u32;
        multiproc_ms(&rig, k, procs, |_| {
            mmap_storm_placed(per_proc, iters, 4 * 4096, Placement::Local)
        })
    });
    for (i, &total) in totals.iter().enumerate() {
        let get = |k: OsKind| {
            let j = OsKind::ALL
                .iter()
                .position(|&x| x == k)
                .expect("known kind");
            ms[i * OsKind::ALL.len() + j]
        };
        let (p, s, m) = (
            get(OsKind::Popcorn),
            get(OsKind::Smp),
            get(OsKind::Multikernel),
        );
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
}

/// E5b — the same storm as one process *spanning* kernels: the distributed
/// address-space consistency overhead the paper quantifies (Popcorn pays a
/// home round-trip per operation; SMP does not).
pub fn e5b_mmap_span() -> Table {
    let mut t = Table::new(
        "E5b",
        "mmap/munmap, ONE process x T machine-spread threads (total ms, fixed total work)",
        ["threads", "popcorn_ms", "smp_ms", "popcorn_over_smp"],
    );
    let total_iters = 1260u32;
    let rig = Rig::paper();
    let sweep = [1usize, 4, 16, 63];
    let kinds = [OsKind::Popcorn, OsKind::Smp];
    let cells: Vec<(usize, OsKind)> = sweep
        .iter()
        .flat_map(|&n| kinds.iter().map(move |&k| (n, k)))
        .collect();
    let ms = parallel_map(cells, |(n, k)| {
        let iters = total_iters / n as u32;
        rig.run(k, mmap_storm_placed(n, iters, 4 * 4096, Placement::Auto))
            .finished_at
            .as_millis_f64()
    });
    for (i, &n) in sweep.iter().enumerate() {
        let (p, s) = (ms[i * 2], ms[i * 2 + 1]);
        t.row([
            n.to_string(),
            format!("{p:.3}"),
            format!("{s:.3}"),
            ratio(p / s),
        ]);
    }
    t.note("expected: popcorn LOSES here — every map/unmap serializes at the home kernel over messages. This is the paper's honest trade-off: a single-system-image address space spanning kernels costs messaging");
    t
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
pub fn e6_futex() -> Table {
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
    let total_rounds = 1260u32;
    let rig = Rig::paper();
    let sweep = [1usize, 2, 4, 8, 16];
    let variants = [
        (OsKind::Popcorn, Placement::Local),
        (OsKind::Popcorn, Placement::Auto),
        (OsKind::Smp, Placement::Auto),
        (OsKind::Multikernel, Placement::Auto),
    ];
    let cells: Vec<(usize, OsKind, Placement)> = sweep
        .iter()
        .flat_map(|&n| variants.iter().map(move |&(k, p)| (n, k, p)))
        .collect();
    let ms = parallel_map(cells, |(n, k, placement)| {
        let iters = total_rounds / n as u32;
        rig.run(k, futex_contention_placed(n, iters, 4_000, placement))
            .finished_at
            .as_millis_f64()
    });
    for (i, &n) in sweep.iter().enumerate() {
        let v = &ms[i * variants.len()..(i + 1) * variants.len()];
        let (p_local, p_spread, smp, mk) = (v[0], v[1], v[2], v[3]);
        t.row([
            n.to_string(),
            format!("{p_local:.3}"),
            format!("{p_spread:.3}"),
            format!("{smp:.3}"),
            format!("{mk:.3}"),
        ]);
    }
    t.note("expected: kernel-local popcorn tracks SMP (futex fast path); spreading the mutex across kernels pays a message round-trip per contended operation — the distributed-futex cost the paper quantifies");
    t
}

/// E7 — null-syscall scaling: getpid loops on every thread (parity check:
/// uncontended syscalls cost the same everywhere). Steady-state cost is
/// estimated from the slope between two loop lengths, cancelling team
/// setup costs.
pub fn e7_syscall_scaling() -> Table {
    let mut t = Table::new(
        "E7",
        "null syscall (getpid): steady-state ns per call at T threads",
        ["threads", "popcorn_ns", "smp_ns", "multikernel_ns"],
    );
    let rig = Rig::paper();
    let (short, long) = (2_000u32, 4_000u32);
    let sweep = [1usize, 8, 32, 63];
    let cells: Vec<(usize, OsKind)> = sweep
        .iter()
        .flat_map(|&n| OsKind::ALL.iter().map(move |&k| (n, k)))
        .collect();
    let ns = parallel_map(cells, |(n, k)| {
        let t_short = rig
            .run(k, micro::null_syscall_storm(n, short))
            .finished_at
            .as_nanos() as f64;
        let t_long = rig
            .run(k, micro::null_syscall_storm(n, long))
            .finished_at
            .as_nanos() as f64;
        (t_long - t_short) / (long - short) as f64
    });
    for (i, &n) in sweep.iter().enumerate() {
        let v = &ns[i * OsKind::ALL.len()..(i + 1) * OsKind::ALL.len()];
        t.row([
            n.to_string(),
            format!("{:.0}", v[0]),
            format!("{:.0}", v[1]),
            format!("{:.0}", v[2]),
        ]);
    }
    t.note("expected: flat and identical across OSes — local syscalls touch no shared state in any of the three designs");
    t
}

/// Builds an NPB config with *fixed total work* divided over T threads.
fn strong_scaling(
    threads: usize,
    total_cycles_per_iter: u64,
    iterations: u32,
    pages: u64,
) -> NpbConfig {
    NpbConfig {
        threads,
        iterations,
        pages_per_thread: pages,
        compute_cycles: total_cycles_per_iter / threads as u64,
        barrier_groups: 0,
    }
}

/// Shared driver for E8/E9/E10.
fn npb_experiment(
    id: &str,
    title: &str,
    make: impl Fn(NpbConfig) -> Box<dyn Program> + Sync,
    total_cycles_per_iter: u64,
    iterations: u32,
    pages: u64,
    note: &str,
) -> Table {
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
    let rig = Rig::paper();
    let cells: Vec<(usize, OsKind)> = THREAD_SWEEP
        .iter()
        .flat_map(|&n| OsKind::ALL.iter().map(move |&k| (n, k)))
        .collect();
    let ms = parallel_map(cells, |(n, k)| {
        let cfg = strong_scaling(n, total_cycles_per_iter, iterations, pages);
        rig.run(k, make(cfg)).finished_at.as_millis_f64()
    });
    // Speedups are relative to the first sweep point (popcorn@1, smp@1);
    // with all cells collected, the base is simply the first row's cells.
    let (p1, s1) = (ms[0], ms[1]);
    for (i, &n) in THREAD_SWEEP.iter().enumerate() {
        let v = &ms[i * OsKind::ALL.len()..(i + 1) * OsKind::ALL.len()];
        let (p, s, m) = (v[0], v[1], v[2]);
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
}

/// E8 — IS-class (allocation-heavy) scalability: the paper's
/// "up to 40% faster than SMP" case. Multi-process: four IS processes
/// (one per kernel on popcorn), threads split among them.
pub fn e8_npb_is() -> Table {
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
    let rig = Rig::paper();
    let totals = [4usize, 8, 16, 32, 64];
    let total_cycles_per_iter = 84_000_000u64; // ~35ms single-thread per iteration
    let cells: Vec<(usize, OsKind)> = totals
        .iter()
        .flat_map(|&total| OsKind::ALL.iter().map(move |&k| (total, k)))
        .collect();
    let ms = parallel_map(cells, |(total, kind)| {
        let per_proc = total / 4;
        let mut os = rig.build(kind);
        for _ in 0..4 {
            let cfg = NpbConfig {
                threads: per_proc,
                iterations: 10,
                pages_per_thread: 12,
                compute_cycles: total_cycles_per_iter / total as u64,
                barrier_groups: 0,
            };
            // Keep each process on its home kernel (the pinning the
            // paper's runs use); SMP spreads over its one kernel.
            os.load(npb::is_benchmark_placed(cfg, Placement::Local));
        }
        let r = os.run_with(rig.horizon, rig.event_budget);
        assert!(
            r.is_clean(),
            "E8 {} unclean: {:?}",
            kind.name(),
            r.stuck_tasks
        );
        r.finished_at.as_millis_f64()
    });
    for (i, &total) in totals.iter().enumerate() {
        let v = &ms[i * OsKind::ALL.len()..(i + 1) * OsKind::ALL.len()];
        let (p, s, m) = (v[0], v[1], v[2]);
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
}

/// E9 — CG-class (compute-bound) scalability: everyone scales; popcorn
/// within a few percent of SMP (the "competitive" claim).
pub fn e9_npb_cg() -> Table {
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
pub fn e10_npb_ft() -> Table {
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
pub fn e11_npb_mg() -> Table {
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

/// Migrates around the kernel ring with compute between hops, skipping a
/// hop when the migration fails with an error (the graceful-abort path a
/// crashed target forces). Used by the E12 kernel-crash scenario.
#[derive(Debug)]
struct RingHopper {
    hops_left: u32,
    kernels: u16,
    compute_ns: u64,
    migrating: bool,
    hops_failed: u32,
}

impl RingHopper {
    fn new(hops: u32, kernels: u16, compute_ns: u64) -> Self {
        RingHopper {
            hops_left: hops,
            kernels,
            compute_ns,
            migrating: false,
            hops_failed: 0,
        }
    }
}

impl Program for RingHopper {
    fn step(&mut self, r: Resume, env: &ProgEnv) -> Op {
        if self.migrating {
            self.migrating = false;
            if matches!(r, Resume::Sys(SysResult::Err(_))) {
                // The target was unreachable; we were revived at the origin.
                self.hops_failed += 1;
            }
            return Op::Compute(self.compute_ns);
        }
        if self.hops_left == 0 {
            return Op::Exit(0);
        }
        self.hops_left -= 1;
        self.migrating = true;
        let next = KernelId((env.kernel.0 + 1) % self.kernels);
        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(next)))
    }
}

/// E12 workloads: the E2 migration workload, the E4 page-protocol
/// workload, and the crash-scenario hopper fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum E12Workload {
    Migration,
    Pages,
    Hoppers,
}

/// Runs one E12 cell and reduces it to the table's numeric columns
/// (clean, completion ms, retransmits, backoff ms, aborts, p99 us).
fn e12_cell(wk: E12Workload, plan: FaultPlan) -> (bool, f64, f64, f64, f64, f64) {
    let mut os = popcorn_core::PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .msg_params(MsgParams {
            faults: plan,
            ..MsgParams::default()
        })
        .build();
    match wk {
        E12Workload::Migration => {
            os.load(Box::new(micro::MigrationPingPong::new(200)));
        }
        E12Workload::Pages => {
            os.load(Box::new(E4Orchestrator {
                pages: 16,
                readers: 2,
                writer_last: true,
                state: 0,
                base: VAddr(0),
                page: 0,
                next_reader: 1,
            }));
        }
        E12Workload::Hoppers => {
            // Four independent single-thread processes hopping the kernel
            // ring (homes round-robin across kernels); compute keeps them
            // in flight when the crash lands.
            for _ in 0..4 {
                os.load(Box::new(RingHopper::new(24, 4, 200_000)));
            }
        }
    }
    let r = os.run();
    let p99_ns = match wk {
        E12Workload::Migration | E12Workload::Hoppers => {
            os.stats().migration_back_lat.quantile(0.99)
        }
        E12Workload::Pages => os.stats().fault_remote_read_lat.quantile(0.99),
    };
    (
        r.is_clean(),
        r.finished_at.as_millis_f64(),
        r.metric("retransmits"),
        r.metric("retx_backoff_ms"),
        r.metric("migrations_aborted") + r.metric("ops_failed") + r.metric("fault_kills"),
        p99_ns as f64 / 1_000.0,
    )
}

/// E12 — fault tolerance (extension beyond the paper): reliable delivery
/// under injected message loss. Sweeps uniform drop probability over the
/// E2 migration and E4 page-protocol workloads, rides out a scripted
/// channel blackout, and survives a mid-run kernel crash with migrations
/// aborting back to their origin.
pub fn e12_fault_tolerance() -> Table {
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
    const DROPS: [(f64, &str); 4] = [
        (0.0, "none"),
        (0.001, "drop 0.1%"),
        (0.01, "drop 1%"),
        (0.1, "drop 10%"),
    ];
    let mut cells: Vec<(E12Workload, &str, FaultPlan)> = Vec::new();
    for wk in [E12Workload::Migration, E12Workload::Pages] {
        for (i, (p, label)) in DROPS.into_iter().enumerate() {
            // A distinct seed per rate, or the nested-subset structure of
            // one shared uniform stream makes low rates drop nothing.
            let seed = 0xE12 + 0x9E37 * (i as u64 + 1) + 0x5BD1;
            cells.push((wk, label, FaultPlan::uniform_drop(seed, p)));
        }
    }
    cells.push((
        E12Workload::Migration,
        "blackout 0->1, 0.2-1.2ms",
        FaultPlan::none().with_blackout(
            KernelId(0),
            KernelId(1),
            SimTime::from_micros(200),
            SimTime::from_micros(1_200),
        ),
    ));
    cells.push((
        E12Workload::Hoppers,
        "kernel 3 crash @1ms",
        FaultPlan::none().with_crash(KernelId(3), SimTime::from_millis(1)),
    ));
    let results = parallel_map(cells.clone(), |(wk, _, plan)| e12_cell(wk, plan));
    // p99 inflation is relative to the same workload's zero-fault row.
    let baseline_p99 = |wk: E12Workload| {
        cells
            .iter()
            .zip(&results)
            .find(|((w, label, _), _)| *w == wk && *label == "none")
            .map(|(_, r)| r.5)
    };
    for ((wk, label, _), &(clean, ms, retx, backoff_ms, aborted, p99)) in cells.iter().zip(&results)
    {
        let wk_name = match wk {
            E12Workload::Migration => "migration (E2)",
            E12Workload::Pages => "pages (E4)",
            E12Workload::Hoppers => "ring hoppers",
        };
        let p99_x = match baseline_p99(*wk) {
            Some(base) if base > 0.0 => format!("{:.2}", p99 / base),
            _ => "-".to_string(),
        };
        t.row([
            wk_name.to_string(),
            label.to_string(),
            clean.to_string(),
            format!("{ms:.3}"),
            format!("{retx:.0}"),
            format!("{backoff_ms:.3}"),
            format!("{aborted:.0}"),
            format!("{p99:.1}"),
            p99_x,
        ]);
    }
    t.note("expected: every run completes cleanly; retransmit count tracks the drop rate; p99 inflates with loss (a lost message costs at least one backoff); the crash scenario aborts migrations to the dead kernel back to their origin instead of wedging");
    t
}

/// E13 adversarial scenarios, each built to trap a naive policy (see
/// `popcorn_workloads::adversarial`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum E13Scenario {
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
    pub(crate) const ALL: [E13Scenario; 4] = [
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

/// Runs one E13 cell and reduces it to the table's numeric columns
/// (clean, completion ms, scripted migrations, policy actions, aborted
/// ops, time-weighted runqueue depth).
pub(crate) fn e13_cell(sc: E13Scenario, policy: PolicyKind) -> (bool, f64, f64, f64, f64, f64) {
    let mut builder = popcorn_core::PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .popcorn_params(PopcornParams {
            policy,
            ..PopcornParams::default()
        });
    if sc == E13Scenario::Straggler {
        builder = builder.msg_params(MsgParams {
            faults: e13_straggler_plan(),
            ..MsgParams::default()
        });
    }
    let mut os = builder.build();
    match sc {
        E13Scenario::Herd => {
            // The round window (cycles) must be wide enough for remote
            // waiters to re-read and park before the wake fires.
            os.load(adversarial::thundering_herd(10, 8, 800_000));
        }
        E13Scenario::Storm => {
            os.load(adversarial::pingpong_storm(3, 30, 5_000, 6, 2_000_000));
        }
        E13Scenario::HotPages => {
            os.load(adversarial::hot_page_skew(8, 4, 120));
        }
        E13Scenario::Straggler => {
            // Four independent hopper processes, homes round-robin.
            for _ in 0..4 {
                os.load(adversarial::straggler_hopper(24, 4, 200_000));
            }
        }
    }
    let r = os.run();
    (
        r.is_clean(),
        r.finished_at.as_millis_f64(),
        r.metric("migrations_first") + r.metric("migrations_back"),
        r.metric("policy_migrations") + r.metric("wake_chases") + r.metric("policy_redirects"),
        r.metric("migrations_aborted") + r.metric("ops_failed") + r.metric("fault_kills"),
        r.metric("runq_depth_tw_mean"),
    )
}

/// E13 — migration-policy shootout (extension beyond the paper): every
/// selectable policy against every adversarial scenario. `scripted` rows
/// are the baseline; the policy columns show who takes the bait and who
/// helps.
pub fn e13_policies() -> Table {
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
    let mut cells: Vec<(E13Scenario, PolicyKind)> = Vec::new();
    for sc in E13Scenario::ALL {
        for pk in policies {
            cells.push((sc, pk));
        }
    }
    let results = parallel_map(cells.clone(), |(sc, pk)| e13_cell(sc, pk));
    let baseline_ms = |sc: E13Scenario| {
        cells
            .iter()
            .zip(&results)
            .find(|((s, pk), _)| *s == sc && *pk == PolicyKind::ScriptedOnly)
            .map(|(_, r)| r.1)
    };
    for ((sc, pk), &(clean, ms, migr, acts, aborted, runq)) in cells.iter().zip(&results) {
        let vs = match baseline_ms(*sc) {
            Some(base) if base > 0.0 => format!("{:.2}", ms / base),
            _ => "-".to_string(),
        };
        t.row([
            sc.name().to_string(),
            pk.name().to_string(),
            clean.to_string(),
            format!("{ms:.3}"),
            format!("{migr:.0}"),
            format!("{acts:.0}"),
            format!("{aborted:.0}"),
            format!("{runq:.2}"),
            vs,
        ]);
    }
    t.note("expected: scripted rows show zero policy_acts (the framework is inert by default); wake-locality chases the herd; fault-aware reroutes hops around the blacked-out straggler and aborts less than scripted; load-threshold's hysteresis keeps the ping-pong storm from amplifying");
    t
}

/// Ablation — shadow-task reuse on back-migration.
pub fn ablate_shadow() -> Table {
    let mut t = Table::new(
        "A1",
        "ablation: shadow-task reuse on back-migration",
        ["shadow_reuse", "back_migration_us", "first_visit_us"],
    );
    for row in parallel_map(vec![true, false], |reuse| {
        let params = PopcornParams {
            shadow_task_reuse: reuse,
            ..PopcornParams::default()
        };
        let mut os = popcorn_core::PopcornOs::builder()
            .topology(Topology::paper_default())
            .kernels(4)
            .popcorn_params(params)
            .build();
        os.load(Box::new(micro::MigrationPingPong::new(40)));
        let r = os.run();
        assert!(r.is_clean());
        [
            reuse.to_string(),
            us(os.stats().migration_back_lat.mean()),
            us(os.stats().migration_first_lat.mean()),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: disabling reuse makes every back-migration pay full task creation");
    t
}

/// Ablation — on-demand vs eager VMA replication at migration time.
pub fn ablate_vma() -> Table {
    let mut t = Table::new(
        "A2",
        "ablation: on-demand vs eager VMA replication",
        ["mode", "total_ms", "vma_fetches", "migration_msg_overhead"],
    );
    for row in parallel_map(vec![false, true], |eager| {
        let params = PopcornParams {
            eager_vma_replication: eager,
            ..PopcornParams::default()
        };
        let rig = Rig {
            popcorn: params,
            ..Rig::paper()
        };
        let mut cfg = TeamConfig::new(16, 32 * 4096);
        cfg.placement = Placement::Auto;
        let r = rig.run(
            OsKind::Popcorn,
            Team::boxed(
                cfg,
                Box::new(|i, shared| {
                    Box::new(micro::PageBounceWorker::new(
                        shared.data,
                        32,
                        20,
                        i as u64 * 3,
                    ))
                }),
            ),
        );
        [
            if eager { "eager" } else { "on-demand" }.to_string(),
            format!("{:.3}", r.finished_at.as_millis_f64()),
            format!("{:.0}", r.metric("vma_fetches")),
            format!("{:.0}", r.metric("messages")),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: eager replication eliminates VMA-fetch round trips at the cost of larger migration/clone state; on-demand is the paper's design");
    t
}

/// Ablation — distributed-futex local fast path.
pub fn ablate_futex() -> Table {
    let mut t = Table::new(
        "A3",
        "ablation: futex/sync local fast path at the home kernel",
        ["fastpath", "total_ms", "rmw_local", "rmw_remote"],
    );
    for row in parallel_map(vec![true, false], |fast| {
        let params = PopcornParams {
            futex_local_fastpath: fast,
            ..PopcornParams::default()
        };
        let rig = Rig {
            popcorn: params,
            topology: Topology::paper_default(),
            kernels: 4,
            ..Rig::paper()
        };
        let mut cfg = TeamConfig::new(16, 0);
        cfg.placement = Placement::Local; // all on the home kernel
        let r = rig.run(
            OsKind::Popcorn,
            Team::boxed(
                cfg,
                Box::new(|_, shared| {
                    Box::new(micro::MutexWorker::new(shared.sync_slot(1), 40, 2_000))
                }),
            ),
        );
        [
            fast.to_string(),
            format!("{:.3}", r.finished_at.as_millis_f64()),
            format!("{:.0}", r.metric("rmw_local")),
            format!("{:.0}", r.metric("rmw_remote")),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: without the fast path even home-local threads pay the RPC-shaped cost, inflating synchronization-heavy runs");
    t
}

/// An experiment entry: id plus the function regenerating its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Ablation/extension — flat vs hierarchical barriers, with and without
/// first-touch sync-word homing (the paper's futex server lives at the
/// group's origin kernel; the extension homes each word where it is first
/// used, making group-local barriers kernel-local).
pub fn ablate_hier() -> Table {
    let mut t = Table::new(
        "A4",
        "extension: hierarchical barriers + first-touch sync-word homing (CG-class, 32 threads, 4 kernels)",
        ["barrier", "word_homing", "total_ms", "rmw_local", "rmw_remote"],
    );
    let cases = [
        ("flat", false, 0u64),
        ("hier", false, 4u64),
        ("flat", true, 0u64),
        ("hier", true, 4u64),
    ];
    for row in parallel_map(cases.to_vec(), |(barrier, first_touch, groups)| {
        let params = PopcornParams {
            sync_first_touch_homing: first_touch,
            ..PopcornParams::default()
        };
        let rig = Rig {
            popcorn: params,
            ..Rig::paper()
        };
        let cfg = NpbConfig {
            threads: 32,
            iterations: 40,
            pages_per_thread: 1,
            compute_cycles: 30_000,
            barrier_groups: groups,
        };
        let r = rig.run(OsKind::Popcorn, npb::cg_benchmark(cfg));
        [
            barrier.to_string(),
            if first_touch { "first-touch" } else { "origin" }.to_string(),
            format!("{:.3}", r.finished_at.as_millis_f64()),
            format!("{:.0}", r.metric("rmw_local")),
            format!("{:.0}", r.metric("rmw_remote")),
        ]
    }) {
        t.row(row);
    }
    t.note("expected: hierarchy alone HURTS (an extra level, still served remotely at the origin); combined with first-touch homing ~90% of sync ops become kernel-local and the barrier-bound run speeds up ~20%");
    t
}

/// All experiment ids and functions, for the `repro` binary.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", e1_messaging as fn() -> Table),
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
        let rig = Rig::paper();
        let mut os = rig.build(kind);
        for _ in 0..4 {
            os.load(mmap_storm_placed(
                per_proc,
                iters,
                4 * 4096,
                Placement::Local,
            ));
        }
        let r = os.run_with(rig.horizon, rig.event_budget);
        assert!(r.is_clean(), "{} E5 storm run unclean", kind.name());
        r.events
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
}
