//! NPB-class benchmark skeletons: IS, CG and FT.
//!
//! The paper's evaluation compares the OSes on selected shared-memory
//! benchmarks (NAS Parallel Benchmarks class). What differentiates the
//! OSes is not the arithmetic — it is the *OS-visible* behaviour: how much
//! the benchmark allocates, how its threads share pages, and how often
//! they synchronize. These skeletons reproduce exactly that behaviour and
//! charge the arithmetic as virtual compute cycles:
//!
//! - [`is_benchmark`] — IS (integer sort) class: allocation-heavy
//!   (per-iteration scratch mmap/munmap), neighbour key exchange,
//!   barrier per phase. This is the kernel-contention-bound case where
//!   the paper reports Popcorn beating SMP Linux.
//! - [`cg_benchmark`] — CG (conjugate gradient) class: compute-bound,
//!   read-mostly shared matrix, one barrier per iteration. All three OSes
//!   should scale here.
//! - [`ft_benchmark`] — FT (3-D FFT) class: all-to-all transpose writes
//!   into every other thread's partition — the worst case for
//!   page-ownership migration.

use popcorn_kernel::program::{Op, ProgEnv, Program, Resume, SyscallReq};
use popcorn_kernel::types::VAddr;

use crate::team::{Shared, Team, TeamConfig};
use crate::ulib::{Barrier, BarrierWait, Flow, HierBarrier, HierBarrierWait, Poll};

/// Scale parameters of an NPB-class run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpbConfig {
    /// Worker threads.
    pub threads: usize,
    /// Outer iterations.
    pub iterations: u32,
    /// Pages per thread partition (and per-iteration scratch size for IS).
    pub pages_per_thread: u64,
    /// Compute cycles charged per thread per iteration.
    pub compute_cycles: u64,
    /// 0 = flat barrier; otherwise the number of groups of a hierarchical
    /// (combining) barrier, with worker `i` in group `i % groups`. Matches
    /// kernel placement when workers are spawned with `Placement::Auto`
    /// round-robin over the same number of kernels.
    pub barrier_groups: u64,
}

impl NpbConfig {
    /// A small class (quick tests): 4 iterations, 4 pages/thread, 100k
    /// cycles (~42 µs at 2.4 GHz).
    pub fn class_s(threads: usize) -> Self {
        NpbConfig {
            threads,
            iterations: 4,
            pages_per_thread: 4,
            compute_cycles: 100_000,
            barrier_groups: 0,
        }
    }

    /// Total shared-data bytes the benchmark maps.
    pub fn data_bytes(&self) -> u64 {
        self.threads as u64 * self.pages_per_thread * VAddr::PAGE_SIZE
    }

    fn partition(&self, shared: &Shared, index: usize) -> VAddr {
        shared
            .data
            .add(index as u64 * self.pages_per_thread * VAddr::PAGE_SIZE)
    }
}

/// Drives an embedded barrier (flat or hierarchical) from inside a worker
/// state machine.
#[derive(Debug)]
struct AtBarrier(Box<dyn Flow>);

impl AtBarrier {
    fn begin(cfg: &NpbConfig, shared: &Shared, index: usize) -> (Self, Op) {
        let mut flow: Box<dyn Flow> = if cfg.barrier_groups == 0 {
            Box::new(BarrierWait::new(Barrier::at(
                shared.sync_slot(1),
                cfg.threads as u64,
            )))
        } else {
            let groups = cfg.barrier_groups;
            let h = HierBarrier::at(shared.sync_slot(8), groups);
            let g = index as u64 % groups;
            // Exact party count of group g: floor share plus one for the
            // first `threads % groups` groups.
            let base = cfg.threads as u64 / groups;
            let extra = u64::from(g < cfg.threads as u64 % groups);
            Box::new(HierBarrierWait::new(h, g, base + extra))
        };
        match flow.step(Resume::Start) {
            Poll::Op(op) => (AtBarrier(flow), op),
            Poll::Done => unreachable!("barrier cannot complete without ops"),
        }
    }

    fn step(&mut self, resume: Resume) -> Poll {
        self.0.step(resume)
    }
}

// ---------------------------------------------------------------------
// IS: allocation-heavy bucket sort with neighbour exchange
// ---------------------------------------------------------------------

#[derive(Debug)]
enum IsState {
    IterStart,
    MapScratch,
    FillScratch { scratch: VAddr, page: u64 },
    Computing { scratch: VAddr },
    WriteKeys { scratch: VAddr, page: u64 },
    ExchangeBarrier { scratch: VAddr, b: AtBarrier },
    ReadNeighbor { scratch: VAddr, page: u64 },
    DoneBarrier { scratch: VAddr, b: AtBarrier },
    Unmap,
    Finished,
}

/// One IS-class worker.
#[derive(Debug)]
pub struct IsWorker {
    cfg: NpbConfig,
    index: usize,
    shared: Shared,
    iter: u32,
    state: IsState,
}

impl IsWorker {
    fn new(cfg: NpbConfig, index: usize, shared: Shared) -> Self {
        IsWorker {
            cfg,
            index,
            shared,
            iter: 0,
            state: IsState::IterStart,
        }
    }
}

impl Program for IsWorker {
    fn step(&mut self, resume: Resume, _env: &ProgEnv) -> Op {
        loop {
            match &mut self.state {
                IsState::IterStart => {
                    if self.iter == self.cfg.iterations {
                        self.state = IsState::Finished;
                        continue;
                    }
                    self.iter += 1;
                    self.state = IsState::MapScratch;
                    return Op::Syscall(SyscallReq::Mmap {
                        len: self.cfg.pages_per_thread * VAddr::PAGE_SIZE,
                    });
                }
                IsState::MapScratch => {
                    let Resume::Sys(res) = resume else {
                        panic!("IS expected mmap result, got {resume:?}");
                    };
                    let scratch = VAddr(res.expect_val("IS scratch mmap"));
                    self.state = IsState::FillScratch { scratch, page: 0 };
                    continue;
                }
                IsState::FillScratch { scratch, page } => {
                    if *page == self.cfg.pages_per_thread {
                        let s = *scratch;
                        self.state = IsState::Computing { scratch: s };
                        return Op::Compute(self.cfg.compute_cycles);
                    }
                    let addr = scratch.add(*page * VAddr::PAGE_SIZE);
                    *page += 1;
                    return Op::Store(addr, self.iter as u64);
                }
                IsState::Computing { scratch } => {
                    let s = *scratch;
                    self.state = IsState::WriteKeys {
                        scratch: s,
                        page: 0,
                    };
                    continue;
                }
                IsState::WriteKeys { scratch, page } => {
                    if *page == self.cfg.pages_per_thread {
                        let s = *scratch;
                        let (b, op) = AtBarrier::begin(&self.cfg, &self.shared, self.index);
                        self.state = IsState::ExchangeBarrier { scratch: s, b };
                        return op;
                    }
                    let own = self.cfg.partition(&self.shared, self.index);
                    let addr = own.add(*page * VAddr::PAGE_SIZE + 16);
                    *page += 1;
                    return Op::Store(addr, (self.index as u64) << 32 | self.iter as u64);
                }
                IsState::ExchangeBarrier { scratch, b } => match b.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        let s = *scratch;
                        self.state = IsState::ReadNeighbor {
                            scratch: s,
                            page: 0,
                        };
                        continue;
                    }
                },
                IsState::ReadNeighbor { scratch, page } => {
                    if *page == self.cfg.pages_per_thread {
                        let s = *scratch;
                        let (b, op) = AtBarrier::begin(&self.cfg, &self.shared, self.index);
                        self.state = IsState::DoneBarrier { scratch: s, b };
                        return op;
                    }
                    let neighbor = (self.index + 1) % self.cfg.threads;
                    let base = self.cfg.partition(&self.shared, neighbor);
                    let addr = base.add(*page * VAddr::PAGE_SIZE + 16);
                    *page += 1;
                    return Op::Load(addr);
                }
                IsState::DoneBarrier { scratch, b } => match b.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        let s = *scratch;
                        self.state = IsState::Unmap;
                        return Op::Syscall(SyscallReq::Munmap {
                            addr: s,
                            len: self.cfg.pages_per_thread * VAddr::PAGE_SIZE,
                        });
                    }
                },
                IsState::Unmap => {
                    self.state = IsState::IterStart;
                    continue;
                }
                IsState::Finished => return Op::Exit(0),
            }
        }
    }
}

/// Builds the IS-class team leader.
pub fn is_benchmark(cfg: NpbConfig) -> Box<dyn Program> {
    is_benchmark_placed(cfg, popcorn_kernel::program::Placement::Auto)
}

/// IS-class with explicit worker placement (e.g. `Local` to pin a process
/// to its home kernel, as the paper's multi-process runs do).
pub fn is_benchmark_placed(
    cfg: NpbConfig,
    placement: popcorn_kernel::program::Placement,
) -> Box<dyn Program> {
    let mut team = TeamConfig::new(cfg.threads, cfg.data_bytes());
    team.placement = placement;
    Team::boxed(
        team,
        Box::new(move |i, shared| Box::new(IsWorker::new(cfg, i, shared))),
    )
}

// ---------------------------------------------------------------------
// CG: compute-bound with a read-mostly shared matrix
// ---------------------------------------------------------------------

#[derive(Debug)]
enum CgState {
    IterStart,
    ReadMatrix { page: u64 },
    Reduce { b: AtBarrier },
    Finished,
}

/// One CG-class worker.
#[derive(Debug)]
pub struct CgWorker {
    cfg: NpbConfig,
    index: usize,
    shared: Shared,
    iter: u32,
    state: CgState,
}

impl CgWorker {
    fn new(cfg: NpbConfig, index: usize, shared: Shared) -> Self {
        CgWorker {
            cfg,
            index,
            shared,
            iter: 0,
            state: CgState::IterStart,
        }
    }
}

impl Program for CgWorker {
    fn step(&mut self, resume: Resume, _env: &ProgEnv) -> Op {
        loop {
            match &mut self.state {
                CgState::IterStart => {
                    if self.iter == self.cfg.iterations {
                        self.state = CgState::Finished;
                        continue;
                    }
                    self.iter += 1;
                    self.state = CgState::ReadMatrix { page: 0 };
                    return Op::Compute(self.cfg.compute_cycles);
                }
                CgState::ReadMatrix { page } => {
                    // Sparse mat-vec: read a few pages of the shared
                    // matrix — own partition plus one neighbour page.
                    if *page == self.cfg.pages_per_thread + 1 {
                        let (b, op) = AtBarrier::begin(&self.cfg, &self.shared, self.index);
                        self.state = CgState::Reduce { b };
                        return op;
                    }
                    let addr = if *page < self.cfg.pages_per_thread {
                        self.cfg
                            .partition(&self.shared, self.index)
                            .add(*page * VAddr::PAGE_SIZE)
                    } else {
                        let n = (self.index + 1) % self.cfg.threads;
                        self.cfg.partition(&self.shared, n)
                    };
                    *page += 1;
                    return Op::Load(addr);
                }
                CgState::Reduce { b } => match b.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        self.state = CgState::IterStart;
                        continue;
                    }
                },
                CgState::Finished => return Op::Exit(0),
            }
        }
    }
}

/// Builds the CG-class team leader.
pub fn cg_benchmark(cfg: NpbConfig) -> Box<dyn Program> {
    Team::boxed(
        TeamConfig::new(cfg.threads, cfg.data_bytes()),
        Box::new(move |i, shared| Box::new(CgWorker::new(cfg, i, shared))),
    )
}

// ---------------------------------------------------------------------
// FT: all-to-all transpose
// ---------------------------------------------------------------------

#[derive(Debug)]
enum FtState {
    IterStart,
    Scatter { peer: usize },
    TransposeBarrier { b: AtBarrier },
    Gather { page: u64 },
    DoneBarrier { b: AtBarrier },
    Finished,
}

/// One FT-class worker.
#[derive(Debug)]
pub struct FtWorker {
    cfg: NpbConfig,
    index: usize,
    shared: Shared,
    iter: u32,
    state: FtState,
}

impl FtWorker {
    fn new(cfg: NpbConfig, index: usize, shared: Shared) -> Self {
        FtWorker {
            cfg,
            index,
            shared,
            iter: 0,
            state: FtState::IterStart,
        }
    }
}

impl Program for FtWorker {
    fn step(&mut self, resume: Resume, _env: &ProgEnv) -> Op {
        loop {
            match &mut self.state {
                FtState::IterStart => {
                    if self.iter == self.cfg.iterations {
                        self.state = FtState::Finished;
                        continue;
                    }
                    self.iter += 1;
                    self.state = FtState::Scatter { peer: 0 };
                    return Op::Compute(self.cfg.compute_cycles);
                }
                FtState::Scatter { peer } => {
                    // Transpose: write one line into every peer's
                    // partition (page chosen by our own index).
                    if *peer == self.cfg.threads {
                        let (b, op) = AtBarrier::begin(&self.cfg, &self.shared, self.index);
                        self.state = FtState::TransposeBarrier { b };
                        return op;
                    }
                    let p = *peer;
                    *peer += 1;
                    if p == self.index {
                        continue; // own partition written during gather
                    }
                    let page = self.index as u64 % self.cfg.pages_per_thread;
                    let addr = self
                        .cfg
                        .partition(&self.shared, p)
                        .add(page * VAddr::PAGE_SIZE + 8 * (self.index as u64 % 64));
                    return Op::Store(addr, (self.iter as u64) << 16 | self.index as u64);
                }
                FtState::TransposeBarrier { b } => match b.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        self.state = FtState::Gather { page: 0 };
                        continue;
                    }
                },
                FtState::Gather { page } => {
                    if *page == self.cfg.pages_per_thread {
                        let (b, op) = AtBarrier::begin(&self.cfg, &self.shared, self.index);
                        self.state = FtState::DoneBarrier { b };
                        return op;
                    }
                    let addr = self
                        .cfg
                        .partition(&self.shared, self.index)
                        .add(*page * VAddr::PAGE_SIZE);
                    *page += 1;
                    return Op::Load(addr);
                }
                FtState::DoneBarrier { b } => match b.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        self.state = FtState::IterStart;
                        continue;
                    }
                },
                FtState::Finished => return Op::Exit(0),
            }
        }
    }
}

/// Builds the FT-class team leader.
pub fn ft_benchmark(cfg: NpbConfig) -> Box<dyn Program> {
    Team::boxed(
        TeamConfig::new(cfg.threads, cfg.data_bytes()),
        Box::new(move |i, shared| Box::new(FtWorker::new(cfg, i, shared))),
    )
}

// ---------------------------------------------------------------------
// MG: V-cycle multigrid with nearest-neighbour halo exchange
// ---------------------------------------------------------------------

#[derive(Debug)]
enum MgState {
    IterStart,
    Smooth { level: u64, page: u64 },
    Halo { level: u64, side: u8 },
    LevelBarrier { level: u64, b: AtBarrier },
    Finished,
}

/// One MG-class worker: per iteration it walks a V-cycle of levels; at
/// each level it smooths (writes) a level-dependent slice of its own
/// partition, reads one halo page from each neighbour, and crosses a
/// barrier. Coarser levels touch fewer pages but synchronize just as
/// often — the communication-bound regime multigrid is known for.
#[derive(Debug)]
pub struct MgWorker {
    cfg: NpbConfig,
    index: usize,
    shared: Shared,
    iter: u32,
    state: MgState,
}

impl MgWorker {
    fn new(cfg: NpbConfig, index: usize, shared: Shared) -> Self {
        MgWorker {
            cfg,
            index,
            shared,
            iter: 0,
            state: MgState::IterStart,
        }
    }

    fn levels(&self) -> u64 {
        // log2 of the partition size, at least 1.
        64 - self.cfg.pages_per_thread.leading_zeros() as u64
    }

    fn pages_at(&self, level: u64) -> u64 {
        (self.cfg.pages_per_thread >> level).max(1)
    }
}

impl Program for MgWorker {
    fn step(&mut self, resume: Resume, _env: &ProgEnv) -> Op {
        loop {
            match &mut self.state {
                MgState::IterStart => {
                    if self.iter == self.cfg.iterations {
                        self.state = MgState::Finished;
                        continue;
                    }
                    self.iter += 1;
                    self.state = MgState::Smooth { level: 0, page: 0 };
                    return Op::Compute(self.cfg.compute_cycles);
                }
                MgState::Smooth { level, page } => {
                    let lvl = *level;
                    let p = *page;
                    if p == self.pages_at(lvl) {
                        self.state = MgState::Halo {
                            level: lvl,
                            side: 0,
                        };
                        continue;
                    }
                    if let MgState::Smooth { page, .. } = &mut self.state {
                        *page += 1;
                    }
                    let addr = self
                        .cfg
                        .partition(&self.shared, self.index)
                        .add(p * VAddr::PAGE_SIZE + 8 * lvl);
                    return Op::Store(addr, (self.iter as u64) << 8 | lvl);
                }
                MgState::Halo { level, side } => {
                    let lvl = *level;
                    if *side == 2 {
                        let (b, op) = AtBarrier::begin(&self.cfg, &self.shared, self.index);
                        self.state = MgState::LevelBarrier { level: lvl, b };
                        return op;
                    }
                    let n = self.cfg.threads;
                    let neighbor = if *side == 0 {
                        (self.index + 1) % n
                    } else {
                        (self.index + n - 1) % n
                    };
                    *side += 1;
                    let addr = self.cfg.partition(&self.shared, neighbor);
                    return Op::Load(addr);
                }
                MgState::LevelBarrier { level, b } => match b.step(resume) {
                    Poll::Op(op) => return op,
                    Poll::Done => {
                        let next = *level + 1;
                        if next == self.levels() {
                            self.state = MgState::IterStart;
                        } else {
                            self.state = MgState::Smooth {
                                level: next,
                                page: 0,
                            };
                        }
                        continue;
                    }
                },
                MgState::Finished => return Op::Exit(0),
            }
        }
    }
}

/// Builds the MG-class team leader.
pub fn mg_benchmark(cfg: NpbConfig) -> Box<dyn Program> {
    Team::boxed(
        TeamConfig::new(cfg.threads, cfg.data_bytes()),
        Box::new(move |i, shared| Box::new(MgWorker::new(cfg, i, shared))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ProgEnv {
        ProgEnv {
            tid: popcorn_kernel::types::Tid::new(popcorn_msg::KernelId(0), 1),
            core: popcorn_hw::CoreId(0),
            kernel: popcorn_msg::KernelId(0),
            now: popcorn_sim::SimTime::ZERO,
        }
    }

    fn shared() -> Shared {
        Shared {
            sync: VAddr(0x7f00_0000_0000),
            data: VAddr(0x7f00_0001_0000),
            threads: 2,
        }
    }

    #[test]
    fn configs_scale_sanely() {
        let s = NpbConfig::class_s(8);
        assert_eq!(s.data_bytes(), 8 * 4 * 4096);
    }

    #[test]
    fn partitions_are_disjoint() {
        let cfg = NpbConfig::class_s(4);
        let sh = Shared {
            sync: VAddr(0x1000),
            data: VAddr(0x100000),
            threads: 4,
        };
        let p0 = cfg.partition(&sh, 0);
        let p1 = cfg.partition(&sh, 1);
        assert_eq!(p1.0 - p0.0, cfg.pages_per_thread * VAddr::PAGE_SIZE);
    }

    #[test]
    fn is_worker_starts_with_scratch_mmap() {
        let cfg = NpbConfig {
            threads: 2,
            iterations: 1,
            pages_per_thread: 2,
            compute_cycles: 10,
            barrier_groups: 0,
        };
        let mut w = IsWorker::new(cfg, 0, shared());
        match w.step(Resume::Start, &env()) {
            Op::Syscall(SyscallReq::Mmap { len }) => assert_eq!(len, 8192),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ft_worker_scatters_to_peers_not_self() {
        let cfg = NpbConfig {
            threads: 2,
            iterations: 1,
            pages_per_thread: 2,
            compute_cycles: 10,
            barrier_groups: 0,
        };
        let sh = shared();
        let mut w = FtWorker::new(cfg, 0, sh);
        // Compute first...
        assert!(matches!(w.step(Resume::Start, &env()), Op::Compute(10)));
        // ...then a store into peer 1's partition.
        match w.step(Resume::Done, &env()) {
            Op::Store(addr, _) => {
                let p1 = cfg.partition(&sh, 1);
                assert!(addr.0 >= p1.0 && addr.0 < p1.0 + cfg.pages_per_thread * 4096);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mg_worker_walks_levels_coarsening() {
        let cfg = NpbConfig {
            threads: 2,
            iterations: 1,
            pages_per_thread: 4, // levels: 3 (4, 2, 1 pages)
            compute_cycles: 5,
            barrier_groups: 0,
        };
        let mut w = MgWorker::new(cfg, 0, shared());
        assert_eq!(w.levels(), 3);
        assert_eq!(w.pages_at(0), 4);
        assert_eq!(w.pages_at(1), 2);
        assert_eq!(w.pages_at(2), 1);
        assert_eq!(w.pages_at(9), 1);
        // Compute, then 4 smoothing stores at level 0.
        assert!(matches!(w.step(Resume::Start, &env()), Op::Compute(5)));
        for _ in 0..4 {
            assert!(matches!(w.step(Resume::Done, &env()), Op::Store(_, _)));
        }
        // Two halo loads (right then left neighbour).
        assert!(matches!(w.step(Resume::Done, &env()), Op::Load(_)));
        assert!(matches!(w.step(Resume::Done, &env()), Op::Load(_)));
    }

    #[test]
    fn cg_worker_reads_matrix_after_compute() {
        let cfg = NpbConfig {
            threads: 2,
            iterations: 1,
            pages_per_thread: 2,
            compute_cycles: 99,
            barrier_groups: 0,
        };
        let mut w = CgWorker::new(cfg, 0, shared());
        assert!(matches!(w.step(Resume::Start, &env()), Op::Compute(99)));
        assert!(matches!(w.step(Resume::Done, &env()), Op::Load(_)));
    }
}
