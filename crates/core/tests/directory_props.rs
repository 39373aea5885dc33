//! Randomized property tests for the page-consistency directory: many
//! random protocol interleavings must preserve the single-writer
//! invariant, version monotonicity, and liveness (every request
//! eventually granted). Driven by the deterministic [`SimRng`] (the build
//! is offline, so no external property-testing framework).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use popcorn_core::directory::{DirStep, Directory, Grant, PageRequest};
use popcorn_kernel::mm::{PageContents, PageState};
use popcorn_kernel::types::PageNo;
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::SimRng;

const PAGE: PageNo = PageNo(0x7f00);

/// Drives a directory plus simulated per-kernel page states; checks
/// invariants after every step.
struct Harness {
    dir: Directory,
    /// Simulated local state per kernel (mirrors what its Mm would hold).
    local: BTreeMap<KernelId, PageState>,
    /// Work the "network" still has to deliver: pending fetch (owner) or
    /// invalidation acks.
    pending_fetch: Option<KernelId>,
    pending_invals: VecDeque<KernelId>,
    /// Grants waiting for the requester's PageDone.
    pending_done: Option<Grant>,
    next_rpc: u64,
    granted: usize,
    versions_seen: Vec<u64>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            dir: Directory::new(),
            local: BTreeMap::new(),
            pending_fetch: None,
            pending_invals: VecDeque::new(),
            pending_done: None,
            next_rpc: 1,
            granted: 0,
            versions_seen: Vec::new(),
        }
    }

    fn busy(&self) -> bool {
        self.pending_fetch.is_some()
            || !self.pending_invals.is_empty()
            || self.pending_done.is_some()
    }

    fn request(&mut self, kernel: KernelId, write: bool) {
        // Skip requests the kernel would not actually raise.
        match self.local.get(&kernel) {
            Some(PageState::Exclusive) => return,
            Some(PageState::ReadShared) if !write => return,
            _ => {}
        }
        let rpc = RpcId(self.next_rpc);
        self.next_rpc += 1;
        let req = PageRequest {
            rpc,
            origin: kernel,
            write,
        };
        let step = self.dir.request(PAGE, req);
        self.apply_step(req, step);
    }

    fn apply_step(&mut self, req: PageRequest, step: DirStep) {
        match step {
            DirStep::Grant(g) => self.accept_grant(g),
            DirStep::Fetch { owner } => {
                assert_ne!(owner, req.origin, "fetching from the requester");
                self.pending_fetch = Some(owner);
            }
            DirStep::Invalidate { holders } => {
                assert!(!holders.contains(&req.origin));
                for h in &holders {
                    assert!(
                        self.local.contains_key(h),
                        "invalidating {h}, which holds nothing"
                    );
                }
                self.pending_invals = holders.into_iter().collect();
            }
            DirStep::Queued => {}
        }
    }

    fn deliver_one(&mut self) {
        if let Some(owner) = self.pending_fetch.take() {
            // Owner downgrades and returns its copy.
            let state = self.local.get_mut(&owner).expect("owner holds the page");
            *state = PageState::ReadShared;
            let grant = self.dir.fetched(PAGE, PageContents::default());
            self.accept_grant(grant);
            return;
        }
        if let Some(h) = self.pending_invals.pop_front() {
            let had = self.local.remove(&h);
            assert!(had.is_some(), "invalidated kernel held nothing");
            let contents = Some(PageContents::default());
            if let Some(grant) = self.dir.inval_acked(PAGE, h, contents) {
                self.accept_grant(grant);
            }
            return;
        }
        if let Some(g) = self.pending_done.take() {
            // Requester confirms install.
            if let Some((req, step)) = self.dir.done(PAGE) {
                self.apply_step(req, step);
            }
            let _ = g;
        }
    }

    fn accept_grant(&mut self, g: Grant) {
        self.granted += 1;
        self.versions_seen.push(g.version);
        self.local.insert(g.req.origin, g.state);
        assert!(
            self.pending_done.is_none(),
            "two grants in flight for one page"
        );
        self.pending_done = Some(g);
        self.check_invariants();
    }

    fn check_invariants(&mut self) {
        // Single-writer: at most one kernel holds Exclusive.
        let writers: Vec<_> = self
            .local
            .iter()
            .filter(|(_, &s)| s == PageState::Exclusive)
            .collect();
        assert!(
            writers.len() <= 1,
            "multiple exclusive holders: {writers:?}"
        );
        // If someone holds Exclusive, nobody else holds anything.
        if writers.len() == 1 && self.local.len() > 1 {
            panic!("exclusive holder coexists with replicas: {:?}", self.local);
        }
        // Directory's view matches the simulated holders.
        if let Some(v) = self.dir.view(PAGE) {
            let dir_set: BTreeSet<KernelId> = v.copyset.iter().copied().collect();
            let sim_set: BTreeSet<KernelId> = self.local.keys().copied().collect();
            assert_eq!(dir_set, sim_set, "directory copyset diverged from holders");
        }
    }

    fn drain(&mut self) {
        let mut guard = 0;
        while self.busy() {
            self.deliver_one();
            guard += 1;
            assert!(guard < 10_000, "protocol did not drain (livelock)");
        }
    }
}

/// Random request streams from up to 6 kernels, delivered in order:
/// invariants hold at every grant, versions never decrease, and every
/// accepted request is eventually granted.
#[test]
fn directory_invariants_hold_under_random_traffic() {
    let mut rng = SimRng::new(0x5EED_4001);
    for _ in 0..512 {
        let stimuli: Vec<(u16, bool, u8)> = {
            let len = rng.range_u64(1, 200) as usize;
            (0..len)
                .map(|_| {
                    (
                        rng.range_u64(0, 6) as u16,
                        rng.chance(0.5),
                        rng.range_u64(0, 3) as u8,
                    )
                })
                .collect()
        };
        let mut h = Harness::new();
        let mut issued = 0usize;
        for (k, write, deliveries) in stimuli {
            h.request(KernelId(k), write);
            issued += 1; // upper bound; skipped requests don't grant
            for _ in 0..deliveries {
                h.deliver_one();
            }
        }
        h.drain();
        // The protocol drained and at least every non-skipped request
        // produced a grant (liveness); granted count is bounded by issues.
        assert!(h.granted <= issued);
        assert!(!h.busy());
        h.check_invariants();
    }
}

/// Alternating writers from random kernels: every grant is Exclusive,
/// version strictly increases with each ownership change.
#[test]
fn write_ping_pong_increments_versions() {
    let mut rng = SimRng::new(0x5EED_4002);
    for _ in 0..512 {
        let seq: Vec<u16> = {
            let len = rng.range_u64(2, 60) as usize;
            (0..len).map(|_| rng.range_u64(0, 4) as u16).collect()
        };
        let mut h = Harness::new();
        let mut last_version = None::<u64>;
        let mut last_writer = None::<u16>;
        for k in seq {
            if last_writer == Some(k) {
                continue; // holder would not fault
            }
            h.request(KernelId(k), true);
            h.drain();
            let v = h.dir.view(PAGE).expect("page tracked");
            if let Some(prev) = last_version {
                assert!(
                    v.version > prev || last_writer.is_none(),
                    "version did not advance on ownership change"
                );
            }
            last_version = Some(v.version);
            last_writer = Some(k);
            assert_eq!(v.copyset.len(), 1, "writer must be sole holder");
        }
    }
}

/// Readers after one writer: copyset grows, version stays put.
#[test]
fn read_sharing_grows_copyset_without_version_bumps() {
    for readers in 1u16..6 {
        let mut h = Harness::new();
        h.request(KernelId(0), true);
        h.drain();
        let v0 = h.dir.view(PAGE).expect("tracked").version;
        for r in 1..=readers {
            h.request(KernelId(r), false);
            h.drain();
        }
        let v = h.dir.view(PAGE).expect("tracked");
        assert_eq!(v.version, v0);
        assert_eq!(v.copyset.len() as u16, readers + 1);
    }
}
