//! The four seeded workloads, generated as per-thread [`Instr`] scripts.
//!
//! Every workload runs on `Topology::paper_default()` (4 sockets × 16
//! cores) with 4 kernels, kernel `k` owning cores `16k..16k+16`. The
//! scripts are drawn from `SimRng::new(seed)`, one forked stream per
//! thread, so the same seed always gives the same scripts.

use std::sync::Arc;

use popcorn_hw::CoreId;
use popcorn_kernel::program::Placement;
use popcorn_sim::SimRng;

use crate::program::Instr;

/// Kernels in every workload (one per socket).
pub const KERNELS: u16 = 4;
/// Cores each kernel owns.
const CORES_PER_KERNEL: u16 = 16;
/// Mutex words laid out in a process's sync page.
pub const MAX_MUTEXES: u64 = 4;
/// Core clock the scripts' cycle counts assume (`HwParams::default()`).
const CYCLES_PER_US: u64 = 2_400;

/// One process: its data region and one script per worker thread.
#[derive(Debug)]
pub struct ProcPlan {
    /// Pages the leader maps for the threads' data.
    pub data_pages: u64,
    /// Shared pages whose words `Load`/`Store` address (one word per
    /// thread on each).
    pub shared_pages: u32,
    /// Pages of each thread's private working set (`Hop`).
    pub ws_pages: u64,
    /// The worker threads.
    pub threads: Vec<ThreadPlan>,
}

/// One worker thread: where it is created and what it runs.
#[derive(Debug)]
pub struct ThreadPlan {
    /// Placement passed to `Clone`.
    pub placement: Placement,
    /// The thread's script.
    pub script: Vec<Instr>,
}

/// A generated workload: the processes to load, in load order (process
/// `i` is homed on kernel `i % 4`).
#[derive(Debug)]
pub struct Plan {
    /// The processes.
    pub procs: Vec<Arc<ProcPlan>>,
}

impl Plan {
    /// Threads the run creates: one leader per process plus its workers.
    pub fn threads(&self) -> u64 {
        self.procs.iter().map(|p| 1 + p.threads.len() as u64).sum()
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A tiny size for tests: still enough samples for every p99.
    Quick,
}

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it (one line; copied into BENCHMARK.json).
    pub why: &'static str,
    generate: fn(&mut SimRng, Size) -> Vec<ProcPlan>,
}

impl Workload {
    /// Generates the scripts for `seed`.
    pub fn plan(&self, seed: u64, size: Size) -> Plan {
        let mut rng = SimRng::new(seed);
        Plan {
            procs: (self.generate)(&mut rng, size)
                .into_iter()
                .map(Arc::new)
                .collect(),
        }
    }
}

/// Every workload, in the order the benchmark lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "local_storm",
        why: "4 kernel-pinned processes of 8 threads mapping, touching and unmapping memory: \
              kernel scheduler, mm and engine only, zero fabric sends",
        generate: local_storm,
    },
    Workload {
        name: "migrate_ring",
        why: "16 threads hopping between kernels with a private 4-page working set: \
              migration protocol and pages that follow their single owner",
        generate: migrate_ring,
    },
    Workload {
        name: "shared_pages",
        why: "16 threads on 4 kernels reading and writing 64 shared pages, 80% to 8 hot ones: \
              copysets, invalidation fan-out and home queueing",
        generate: shared_pages,
    },
    Workload {
        name: "futex_mix",
        why: "16 threads on 4 kernels taking 4 skewed futex mutexes with periodic barriers: \
              distributed futex server and remote RMW forwarding",
        generate: futex_mix,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Thread `i` of 16 spread evenly: kernel `i % 4`, a distinct core there.
fn spread(i: usize) -> (u16, Placement) {
    let k = (i % KERNELS as usize) as u16;
    let core = k * CORES_PER_KERNEL + (i / KERNELS as usize) as u16;
    (k, Placement::Core(CoreId(core)))
}

fn us_cycles(rng: &mut SimRng, lo_us: u64, hi_us: u64) -> u64 {
    rng.range_u64(lo_us * CYCLES_PER_US, hi_us * CYCLES_PER_US + 1)
}

/// E5's pattern: per kernel one process of `Placement::Local` threads, each
/// running rounds of {mmap 1–8 pages, store to each, munmap}, a burst of
/// 0–4 `getpid`s and 1–4 µs of compute.
fn local_storm(rng: &mut SimRng, size: Size) -> Vec<ProcPlan> {
    let rounds = match size {
        Size::Full => 330,
        Size::Quick => 40,
    };
    (0..KERNELS)
        .map(|p| ProcPlan {
            data_pages: 0,
            shared_pages: 0,
            ws_pages: 0,
            threads: (0..8)
                .map(|t| {
                    let mut r = rng.fork(u64::from(p) * 8 + t);
                    let mut script = Vec::with_capacity(rounds * 4);
                    for _ in 0..rounds {
                        script.push(Instr::Round);
                        script.push(Instr::MapTouchUnmap(r.range_u64(1, 9)));
                        script.push(Instr::GetPid(r.range_u64(0, 5) as u32));
                        script.push(Instr::Compute(us_cycles(&mut r, 1, 4)));
                    }
                    ThreadPlan {
                        placement: Placement::Local,
                        script,
                    }
                })
                .collect(),
        })
        .collect()
}

/// Each hop migrates to a seeded kernel other than the current one,
/// computes 1–4 µs, then stores to and reads back its 4 private pages.
fn migrate_ring(rng: &mut SimRng, size: Size) -> Vec<ProcPlan> {
    const WS_PAGES: u64 = 4;
    let hops = match size {
        Size::Full => 5_000,
        Size::Quick => 70,
    };
    let threads = (0..16)
        .map(|i| {
            let mut r = rng.fork(i as u64);
            let (mut at, placement) = spread(i);
            let mut script = Vec::with_capacity(hops * 2);
            for _ in 0..hops {
                let to = (at + r.range_u64(1, u64::from(KERNELS)) as u16) % KERNELS;
                at = to;
                script.push(Instr::Round);
                script.push(Instr::Hop {
                    to,
                    cycles: us_cycles(&mut r, 1, 4),
                });
            }
            ThreadPlan { placement, script }
        })
        .collect();
    vec![ProcPlan {
        data_pages: 16 * WS_PAGES,
        shared_pages: 0,
        ws_pages: WS_PAGES,
        threads,
    }]
}

/// Rounds of 8 accesses: 90% loads of any thread's word, 10% stores to
/// the thread's own word; 80% of accesses go to the 8 hot pages of 64.
fn shared_pages(rng: &mut SimRng, size: Size) -> Vec<ProcPlan> {
    const PAGES: u32 = 64;
    const HOT: u32 = 8;
    const PER_ROUND: usize = 8;
    let rounds = match size {
        Size::Full => 3_500,
        Size::Quick => 64,
    };
    let threads = (0..16)
        .map(|i| {
            let mut r = rng.fork(i as u64);
            let mut script = Vec::with_capacity(rounds * (PER_ROUND + 1));
            for _ in 0..rounds {
                script.push(Instr::Round);
                for _ in 0..PER_ROUND {
                    let page = if r.chance(0.8) {
                        r.range_u64(0, u64::from(HOT)) as u32
                    } else {
                        r.range_u64(u64::from(HOT), u64::from(PAGES)) as u32
                    };
                    script.push(if r.chance(0.1) {
                        Instr::Store { page }
                    } else {
                        Instr::Load {
                            page,
                            slot: r.range_u64(0, 16) as u32,
                        }
                    });
                }
            }
            ThreadPlan {
                placement: spread(i).1,
                script,
            }
        })
        .collect();
    vec![ProcPlan {
        data_pages: u64::from(PAGES),
        shared_pages: PAGES,
        ws_pages: 0,
        threads,
    }]
}

/// Rounds of {critical section of 0.1–0.4 µs under one of 4 mutexes
/// picked 8:4:2:1, then 1–4 µs of compute}, with a barrier every 64 rounds.
fn futex_mix(rng: &mut SimRng, size: Size) -> Vec<ProcPlan> {
    const WEIGHTS: [u64; MAX_MUTEXES as usize] = [8, 4, 2, 1];
    let rounds = match size {
        Size::Full => 15_000,
        Size::Quick => 128,
    };
    let total: u64 = WEIGHTS.iter().sum();
    let threads = (0..16)
        .map(|i| {
            let mut r = rng.fork(i as u64);
            let mut script = Vec::with_capacity(rounds * 3 + rounds / 64);
            for round in 1..=rounds {
                script.push(Instr::Round);
                if round % 64 == 0 {
                    script.push(Instr::Barrier);
                }
                let mut pick = r.range_u64(0, total);
                let mutex = WEIGHTS
                    .iter()
                    .position(|&w| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .expect("pick < total") as u32;
                script.push(Instr::Critical {
                    mutex,
                    cycles: r.range_u64(CYCLES_PER_US / 10, 4 * CYCLES_PER_US / 10 + 1),
                });
                script.push(Instr::Compute(us_cycles(&mut r, 1, 4)));
            }
            ThreadPlan {
                placement: spread(i).1,
                script,
            }
        })
        .collect();
    vec![ProcPlan {
        data_pages: 0,
        shared_pages: 0,
        ws_pages: 0,
        threads,
    }]
}
