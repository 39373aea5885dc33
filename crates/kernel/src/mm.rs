//! Address spaces: VMAs, page-protocol state, and page contents.
//!
//! Each kernel instance hosting threads of a distributed group holds an
//! [`Mm`] *replica*: the VMA layout (kept consistent by the protocol layer
//! in `popcorn-core`) plus whatever pages this kernel currently has copies
//! of. Page entries carry the single-writer/multiple-reader state the
//! consistency protocol manipulates:
//!
//! - absent — this kernel has no copy; any access faults;
//! - [`PageState::ReadShared`] — a read-only replica; writes fault
//!   (ownership upgrade);
//! - [`PageState::Exclusive`] — the sole writable copy.
//!
//! Word contents are stored sparsely so that page transfers can actually
//! carry data — letting the test suite verify *memory values*, not just
//! protocol bookkeeping, survive migration. They are kept per page, in the
//! form [`PageContents`] ships, so a page operation never scans the others.

use std::collections::BTreeMap;

use popcorn_sim::hash::FxHashMap;

use crate::types::{Errno, GroupId, PageNo, VAddr};

/// Base of the heap (`brk`) region.
pub const BRK_BASE: u64 = 0x0000_1000_0000;
/// Base of the mmap region (grows upward).
pub const MMAP_BASE: u64 = 0x7f00_0000_0000;
/// Exclusive upper bound of the mmap region.
pub const MMAP_LIMIT: u64 = 0x7fff_0000_0000;

/// Protocol state of a locally present page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Read-only replica; other kernels may hold replicas too.
    ReadShared,
    /// The single writable copy in the group.
    Exclusive,
}

/// Local bookkeeping for one present page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Protocol state.
    pub state: PageState,
    /// Version (incremented by the owner on each writable grant); used by
    /// the consistency protocol's sanity checks.
    pub version: u64,
}

/// Contents extracted from an evicted/transferred page.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageContents {
    /// Version at extraction.
    pub version: u64,
    /// Non-zero words within the page, as `(address, value)`, ascending by
    /// address.
    pub words: Vec<(u64, u64)>,
}

/// One mapped region (anonymous memory; the only kind the workloads need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First address.
    pub start: VAddr,
    /// Length in bytes (page multiple).
    pub len: u64,
}

impl Vma {
    /// Whether the region contains `addr`.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr.0 >= self.start.0 && addr.0 < self.start.0 + self.len
    }

    /// Pages spanned by the region.
    pub fn pages(&self) -> impl Iterator<Item = PageNo> {
        let first = self.start.0 >> 12;
        let last = (self.start.0 + self.len - 1) >> 12;
        (first..=last).map(PageNo)
    }
}

/// Outcome of checking whether a memory access may proceed locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessCheck {
    /// Permitted at the current page state.
    Ok,
    /// The page is absent or held at insufficient rights; the OS model must
    /// run its fault path.
    NeedPage {
        /// The faulting page.
        page: PageNo,
        /// Whether write rights are required.
        write: bool,
    },
    /// No VMA covers the address: a segmentation fault.
    NoVma,
}

/// An address-space replica.
///
/// # Example
///
/// ```
/// use popcorn_kernel::mm::{Mm, AccessCheck, PageState};
/// use popcorn_kernel::types::{GroupId, Tid, VAddr};
/// use popcorn_msg::KernelId;
///
/// let mut mm = Mm::new(GroupId(Tid::new(KernelId(0), 1)));
/// let addr = mm.map_anon(8192).unwrap();
/// // Freshly mapped: first access faults (demand paging).
/// assert!(matches!(mm.check_access(addr, false), AccessCheck::NeedPage { .. }));
/// mm.install_zero_page(addr.page(), PageState::Exclusive);
/// assert_eq!(mm.check_access(addr, true), AccessCheck::Ok);
/// mm.write_word(addr, 42);
/// assert_eq!(mm.read_word(addr), 42);
/// ```
#[derive(Debug, Clone)]
pub struct Mm {
    group: GroupId,
    vmas: BTreeMap<u64, Vma>,
    pages: FxHashMap<PageNo, PageInfo>,
    /// Each page's non-zero words, ascending by address.
    words: FxHashMap<PageNo, Vec<(u64, u64)>>,
    next_map: u64,
    brk: u64,
}

impl Mm {
    /// Creates an empty address space for `group`.
    pub fn new(group: GroupId) -> Self {
        Mm {
            group,
            vmas: BTreeMap::new(),
            pages: FxHashMap::default(),
            words: FxHashMap::default(),
            next_map: MMAP_BASE,
            brk: BRK_BASE,
        }
    }

    /// The owning thread group.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Creates a replica with the same VMA layout (and allocation cursors)
    /// but no resident pages — how a remote kernel joins a distributed
    /// address space before demand-fetching pages.
    pub fn replica_layout(&self) -> Mm {
        Mm {
            group: self.group,
            vmas: self.vmas.clone(),
            pages: FxHashMap::default(),
            words: FxHashMap::default(),
            next_map: self.next_map,
            brk: self.brk,
        }
    }

    /// The VMA covering `addr`, if any.
    pub fn vma_covering(&self, addr: VAddr) -> Option<&Vma> {
        self.vmas
            .range(..=addr.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(addr))
    }

    /// Number of VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Number of locally resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterates resident pages in deterministic (page-number) order.
    pub fn pages_sorted(&self) -> Vec<(PageNo, PageInfo)> {
        let mut v: Vec<_> = self.pages.iter().map(|(&p, &i)| (p, i)).collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }

    /// Maps `len` bytes (rounded up to pages) of anonymous memory.
    ///
    /// # Errors
    ///
    /// `Errno::Inval` for a zero length; `Errno::NoMem` if the mmap region
    /// is exhausted.
    pub fn map_anon(&mut self, len: u64) -> Result<VAddr, Errno> {
        if len == 0 {
            return Err(Errno::Inval);
        }
        let len = len.div_ceil(VAddr::PAGE_SIZE) * VAddr::PAGE_SIZE;
        if self.next_map + len > MMAP_LIMIT {
            return Err(Errno::NoMem);
        }
        let start = VAddr(self.next_map);
        self.next_map += len;
        self.vmas.insert(start.0, Vma { start, len });
        Ok(start)
    }

    /// Records a mapping decided elsewhere (VMA replication from the home
    /// kernel). Also advances the local allocation cursor past it so later
    /// local `map_anon` calls cannot collide.
    pub fn install_vma(&mut self, vma: Vma) {
        self.next_map = self.next_map.max(vma.start.0 + vma.len);
        self.vmas.insert(vma.start.0, vma);
    }

    /// Unmaps a range; it must exactly cover one or more whole VMAs (which
    /// is how the workloads use it). Returns the resident pages dropped —
    /// the set the OS model must TLB-shoot-down / remotely invalidate.
    ///
    /// # Errors
    ///
    /// `Errno::Inval` if the range does not exactly cover whole VMAs.
    pub fn unmap(&mut self, addr: VAddr, len: u64) -> Result<Vec<PageNo>, Errno> {
        if len == 0 || addr.page_offset() != 0 {
            return Err(Errno::Inval);
        }
        let end = addr.0 + len;
        // Collect VMAs wholly inside [addr, end); reject partial overlap.
        let mut covered = Vec::new();
        let mut cursor = addr.0;
        for (&start, vma) in self.vmas.range(addr.0..end) {
            if start != cursor || start + vma.len > end {
                return Err(Errno::Inval);
            }
            covered.push(start);
            cursor = start + vma.len;
        }
        if cursor != end || covered.is_empty() {
            return Err(Errno::Inval);
        }
        let mut dropped = Vec::new();
        for start in covered {
            let vma = self.vmas.remove(&start).expect("collected above");
            for page in vma.pages() {
                if self.pages.remove(&page).is_some() {
                    dropped.push(page);
                }
                self.words.remove(&page);
            }
        }
        Ok(dropped)
    }

    /// Removes a VMA by exact range without touching allocation cursors —
    /// the replica-side application of a remote unmap decision. Returns
    /// dropped resident pages.
    pub fn remove_vma(&mut self, start: VAddr, len: u64) -> Vec<PageNo> {
        // A replica may not have the VMA yet: treat as a no-op.
        self.unmap(start, len).unwrap_or_default()
    }

    /// Grows the heap by `grow` bytes, returning the old break.
    pub fn brk_grow(&mut self, grow: u64) -> VAddr {
        let old = self.brk;
        let new = old + grow.div_ceil(VAddr::PAGE_SIZE) * VAddr::PAGE_SIZE;
        self.brk = new;
        // The heap is one implicit VMA [BRK_BASE, brk).
        if new > BRK_BASE {
            self.vmas.insert(
                BRK_BASE,
                Vma {
                    start: VAddr(BRK_BASE),
                    len: new - BRK_BASE,
                },
            );
        }
        VAddr(old)
    }

    /// Current heap break.
    pub fn brk(&self) -> VAddr {
        VAddr(self.brk)
    }

    /// Checks whether an access may proceed at current local rights.
    pub fn check_access(&self, addr: VAddr, write: bool) -> AccessCheck {
        if self.vma_covering(addr).is_none() {
            return AccessCheck::NoVma;
        }
        let page = addr.page();
        match self.pages.get(&page) {
            Some(info) => {
                if write && info.state == PageState::ReadShared {
                    AccessCheck::NeedPage { page, write: true }
                } else {
                    AccessCheck::Ok
                }
            }
            None => AccessCheck::NeedPage { page, write },
        }
    }

    /// Local protocol state of a page, if resident.
    pub fn page_info(&self, page: PageNo) -> Option<PageInfo> {
        self.pages.get(&page).copied()
    }

    /// Installs a fresh zero-filled page (demand paging of anonymous
    /// memory) at the given state, version 0.
    pub fn install_zero_page(&mut self, page: PageNo, state: PageState) {
        self.pages.insert(page, PageInfo { state, version: 0 });
    }

    /// Installs a page received from another kernel, with its contents,
    /// replacing any words held for it.
    pub fn install_page(&mut self, page: PageNo, state: PageState, contents: PageContents) {
        let ws = &contents.words;
        debug_assert!(
            ws.iter().all(|&(a, v)| VAddr(a).page() == page && v != 0)
                && ws.windows(2).all(|w| w[0].0 < w[1].0),
            "contents must be non-zero words of {page}, ascending by address"
        );
        self.pages.insert(
            page,
            PageInfo {
                state,
                version: contents.version,
            },
        );
        self.words.insert(page, contents.words);
    }

    /// Downgrades or upgrades a resident page's state in place.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn set_page_state(&mut self, page: PageNo, state: PageState) {
        self.pages
            .get_mut(&page)
            .unwrap_or_else(|| panic!("{page} not resident"))
            .state = state;
    }

    /// Increments a resident page's version (owner-side, on write grant).
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn bump_page_version(&mut self, page: PageNo) -> u64 {
        let info = self
            .pages
            .get_mut(&page)
            .unwrap_or_else(|| panic!("{page} not resident"));
        info.version += 1;
        info.version
    }

    /// Extracts a snapshot of a resident page's contents (for transfer)
    /// without changing local state.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn snapshot_page(&self, page: PageNo) -> PageContents {
        let info = self
            .pages
            .get(&page)
            .unwrap_or_else(|| panic!("{page} not resident"));
        PageContents {
            version: info.version,
            words: self.words.get(&page).cloned().unwrap_or_default(),
        }
    }

    /// Drops a resident page (invalidation), returning its contents.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn evict_page(&mut self, page: PageNo) -> PageContents {
        let info = self
            .pages
            .remove(&page)
            .unwrap_or_else(|| panic!("{page} not resident"));
        PageContents {
            version: info.version,
            words: self.words.remove(&page).unwrap_or_default(),
        }
    }

    /// Applies a consistency-protocol grant: installs the page with the
    /// granted state/version, using `contents` when data was shipped. A
    /// `None`-contents grant on a resident page is an in-place ownership
    /// upgrade; on an absent page it is a zero-fill.
    pub fn apply_grant(
        &mut self,
        page: PageNo,
        state: PageState,
        version: u64,
        contents: Option<PageContents>,
    ) {
        match contents {
            Some(mut c) => {
                c.version = version;
                self.install_page(page, state, c);
            }
            None => {
                if let Some(info) = self.pages.get_mut(&page) {
                    info.state = state;
                    info.version = version;
                } else {
                    self.pages.insert(page, PageInfo { state, version });
                }
            }
        }
    }

    /// All VMAs in address order.
    pub fn vmas(&self) -> Vec<Vma> {
        self.vmas.values().copied().collect()
    }

    /// Reads a word (0 for never-written addresses — zero-fill semantics).
    /// The caller must have established access rights first.
    pub fn read_word(&self, addr: VAddr) -> u64 {
        let ws = self.words.get(&addr.page()).map_or(&[][..], Vec::as_slice);
        ws.binary_search_by_key(&addr.0, |&(a, _)| a)
            .map_or(0, |i| ws[i].1)
    }

    /// Writes a word. The caller must have established write rights first.
    pub fn write_word(&mut self, addr: VAddr, value: u64) {
        let ws = self.words.entry(addr.page()).or_default();
        // Zeros are never stored: writing 0 drops the word.
        match ws.binary_search_by_key(&addr.0, |&(a, _)| a) {
            Ok(i) if value == 0 => {
                ws.remove(i);
            }
            Ok(i) => ws[i].1 = value,
            Err(i) if value != 0 => ws.insert(i, (addr.0, value)),
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Tid;
    use popcorn_msg::KernelId;

    fn mm() -> Mm {
        Mm::new(GroupId(Tid::new(KernelId(0), 1)))
    }

    #[test]
    fn map_anon_rounds_to_pages_and_is_disjoint() {
        let mut m = mm();
        let a = m.map_anon(1).unwrap();
        let b = m.map_anon(4097).unwrap();
        assert_eq!(b.0 - a.0, 4096);
        let c = m.map_anon(100).unwrap();
        assert_eq!(c.0 - b.0, 8192);
        assert_eq!(m.vma_count(), 3);
    }

    #[test]
    fn map_anon_zero_rejected() {
        assert_eq!(mm().map_anon(0), Err(Errno::Inval));
    }

    #[test]
    fn vma_covering_finds_region() {
        let mut m = mm();
        let a = m.map_anon(8192).unwrap();
        assert!(m.vma_covering(a).is_some());
        assert!(m.vma_covering(a.add(8191)).is_some());
        assert!(m.vma_covering(a.add(8192)).is_none());
        assert!(m.vma_covering(VAddr(0x1000)).is_none());
    }

    #[test]
    fn fresh_mapping_faults_then_resolves() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        match m.check_access(a, false) {
            AccessCheck::NeedPage { page, write } => {
                assert_eq!(page, a.page());
                assert!(!write);
            }
            other => panic!("expected fault, got {other:?}"),
        }
        m.install_zero_page(a.page(), PageState::Exclusive);
        assert_eq!(m.check_access(a, true), AccessCheck::Ok);
    }

    #[test]
    fn read_shared_page_faults_on_write_only() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        m.install_zero_page(a.page(), PageState::ReadShared);
        assert_eq!(m.check_access(a, false), AccessCheck::Ok);
        assert_eq!(
            m.check_access(a, true),
            AccessCheck::NeedPage {
                page: a.page(),
                write: true
            }
        );
    }

    #[test]
    fn unmapped_address_is_no_vma() {
        let m = mm();
        assert_eq!(m.check_access(VAddr(0xdead_0000), true), AccessCheck::NoVma);
    }

    #[test]
    fn words_default_to_zero_and_roundtrip() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        m.install_zero_page(a.page(), PageState::Exclusive);
        assert_eq!(m.read_word(a), 0);
        m.write_word(a, 99);
        assert_eq!(m.read_word(a), 99);
        m.write_word(a, 0);
        assert_eq!(m.read_word(a), 0);
    }

    #[test]
    fn unmap_exact_range_drops_pages() {
        let mut m = mm();
        let a = m.map_anon(8192).unwrap();
        m.install_zero_page(a.page(), PageState::Exclusive);
        m.write_word(a, 5);
        let dropped = m.unmap(a, 8192).unwrap();
        assert_eq!(dropped, vec![a.page()]);
        assert_eq!(m.vma_count(), 0);
        assert_eq!(m.check_access(a, false), AccessCheck::NoVma);
    }

    #[test]
    fn unmap_two_adjacent_vmas_at_once() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        let _b = m.map_anon(4096).unwrap();
        assert!(m.unmap(a, 8192).is_ok());
        assert_eq!(m.vma_count(), 0);
    }

    #[test]
    fn unmap_partial_vma_rejected() {
        let mut m = mm();
        let a = m.map_anon(8192).unwrap();
        assert_eq!(m.unmap(a, 4096), Err(Errno::Inval));
        assert_eq!(m.unmap(a.add(1), 8192), Err(Errno::Inval));
        assert_eq!(m.unmap(a, 0), Err(Errno::Inval));
    }

    #[test]
    fn unmap_hole_rejected() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        let b = m.map_anon(4096).unwrap();
        m.unmap(a, 4096).unwrap();
        // Range covering the hole plus b is invalid.
        assert_eq!(m.unmap(a, 8192), Err(Errno::Inval));
        // b alone is fine.
        assert!(m.unmap(b, 4096).is_ok());
    }

    #[test]
    fn brk_grows_heap_vma() {
        let mut m = mm();
        let old = m.brk_grow(100);
        assert_eq!(old.0, BRK_BASE);
        assert_eq!(m.brk().0, BRK_BASE + 4096);
        assert!(m.vma_covering(VAddr(BRK_BASE)).is_some());
        m.brk_grow(4096);
        assert_eq!(m.brk().0, BRK_BASE + 8192);
        assert!(m.vma_covering(VAddr(BRK_BASE + 5000)).is_some());
    }

    #[test]
    fn replica_layout_copies_vmas_not_pages() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        m.install_zero_page(a.page(), PageState::Exclusive);
        m.write_word(a, 7);
        let r = m.replica_layout();
        assert_eq!(r.vma_count(), 1);
        assert_eq!(r.resident_pages(), 0);
        assert!(matches!(
            r.check_access(a, false),
            AccessCheck::NeedPage { .. }
        ));
    }

    #[test]
    fn replica_allocation_cursor_does_not_collide() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        let mut r = m.replica_layout();
        let b = r.map_anon(4096).unwrap();
        assert_ne!(a.page(), b.page());
        assert!(b.0 >= a.0 + 4096);
    }

    #[test]
    fn install_vma_advances_cursor() {
        let mut m = mm();
        let remote = Vma {
            start: VAddr(MMAP_BASE + 16 * 4096),
            len: 4096,
        };
        m.install_vma(remote);
        let local = m.map_anon(4096).unwrap();
        assert!(local.0 >= MMAP_BASE + 17 * 4096);
    }

    #[test]
    fn page_transfer_preserves_contents() {
        let mut src = mm();
        let a = src.map_anon(4096).unwrap();
        src.install_zero_page(a.page(), PageState::Exclusive);
        src.write_word(a, 11);
        src.write_word(a.add(8), 22);
        src.bump_page_version(a.page());
        let contents = src.evict_page(a.page());
        assert_eq!(src.resident_pages(), 0);

        let mut dst = src.replica_layout();
        dst.install_page(a.page(), PageState::Exclusive, contents);
        assert_eq!(dst.read_word(a), 11);
        assert_eq!(dst.read_word(a.add(8)), 22);
        assert_eq!(dst.page_info(a.page()).unwrap().version, 1);
    }

    #[test]
    fn snapshot_does_not_evict() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        m.install_zero_page(a.page(), PageState::Exclusive);
        m.write_word(a, 3);
        let snap = m.snapshot_page(a.page());
        assert_eq!(snap.words, vec![(a.0, 3)]);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_word(a), 3);
    }

    #[test]
    fn set_state_and_version_bump() {
        let mut m = mm();
        let a = m.map_anon(4096).unwrap();
        m.install_zero_page(a.page(), PageState::Exclusive);
        m.set_page_state(a.page(), PageState::ReadShared);
        assert_eq!(m.page_info(a.page()).unwrap().state, PageState::ReadShared);
        assert_eq!(m.bump_page_version(a.page()), 1);
        assert_eq!(m.bump_page_version(a.page()), 2);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evicting_absent_page_panics() {
        let mut m = mm();
        m.evict_page(PageNo(0x7f000));
    }

    #[test]
    fn pages_sorted_is_deterministic() {
        let mut m = mm();
        let a = m.map_anon(3 * 4096).unwrap();
        for i in [2u64, 0, 1] {
            m.install_zero_page(PageNo(a.page().0 + i), PageState::ReadShared);
        }
        let ps: Vec<u64> = m.pages_sorted().iter().map(|&(p, _)| p.0).collect();
        assert_eq!(ps, vec![a.page().0, a.page().0 + 1, a.page().0 + 2]);
    }
}
