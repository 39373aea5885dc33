//! Randomized property tests for the address-space replica: random
//! map/unmap/access sequences keep the VMA set, page residency and word
//! contents coherent. Driven by the deterministic [`SimRng`] (the build is
//! offline, so no external property-testing framework).

use std::collections::BTreeMap;

use popcorn_kernel::mm::{AccessCheck, Mm, PageContents, PageState, Vma};
use popcorn_kernel::types::{GroupId, PageNo, Tid, VAddr};
use popcorn_msg::KernelId;
use popcorn_sim::SimRng;

fn fresh() -> Mm {
    Mm::new(GroupId(Tid::new(KernelId(0), 1)))
}

/// A random address-space action.
#[derive(Debug, Clone, Copy)]
enum Action {
    Map {
        pages: u64,
    },
    UnmapNth {
        index: usize,
    },
    Write {
        region: usize,
        offset: u64,
        value: u64,
    },
    Read {
        region: usize,
        offset: u64,
    },
}

fn random_action(rng: &mut SimRng) -> Action {
    match rng.index(4) {
        0 => Action::Map {
            pages: rng.range_u64(1, 8),
        },
        1 => Action::UnmapNth {
            index: rng.index(8),
        },
        2 => Action::Write {
            region: rng.index(8),
            offset: rng.range_u64(0, 32) * 8,
            value: rng.range_u64(1, u64::MAX),
        },
        _ => Action::Read {
            region: rng.index(8),
            offset: rng.range_u64(0, 32) * 8,
        },
    }
}

/// A reference model (plain map of live regions and written words) stays
/// in agreement with the Mm through arbitrary action sequences.
#[test]
fn mm_agrees_with_reference_model() {
    let mut rng = SimRng::new(0x5EED_1001);
    for _ in 0..256 {
        let actions: Vec<Action> = {
            let len = rng.range_u64(1, 120) as usize;
            (0..len).map(|_| random_action(&mut rng)).collect()
        };
        let mut mm = fresh();
        let mut regions: Vec<(VAddr, u64)> = Vec::new(); // (start, len)
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for a in actions {
            match a {
                Action::Map { pages } => {
                    let len = pages * VAddr::PAGE_SIZE;
                    let addr = mm.map_anon(len).expect("address space is huge");
                    // New region must not overlap any live region.
                    for &(s, l) in &regions {
                        assert!(
                            addr.0 >= s.0 + l || addr.0 + len <= s.0,
                            "overlapping mapping"
                        );
                    }
                    regions.push((addr, len));
                }
                Action::UnmapNth { index } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions.remove(index % regions.len());
                    mm.unmap(start, len).expect("exact unmap succeeds");
                    model.retain(|&a, _| !(start.0..start.0 + len).contains(&a));
                    assert!(matches!(mm.check_access(start, false), AccessCheck::NoVma));
                }
                Action::Write {
                    region,
                    offset,
                    value,
                } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions[region % regions.len()];
                    let addr = VAddr(start.0 + offset % len);
                    // Fault in the page if needed (the OS model's job).
                    match mm.check_access(addr, true) {
                        AccessCheck::Ok => {}
                        AccessCheck::NeedPage { page, .. } => {
                            mm.install_zero_page(page, PageState::Exclusive);
                        }
                        AccessCheck::NoVma => panic!("write inside a live region had no vma"),
                    }
                    mm.write_word(addr, value);
                    model.insert(addr.0, value);
                }
                Action::Read { region, offset } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions[region % regions.len()];
                    let addr = VAddr(start.0 + offset % len);
                    match mm.check_access(addr, false) {
                        AccessCheck::Ok => {
                            let expect = model.get(&addr.0).copied().unwrap_or(0);
                            assert_eq!(mm.read_word(addr), expect);
                        }
                        AccessCheck::NeedPage { page, .. } => {
                            mm.install_zero_page(page, PageState::ReadShared);
                            // Zero-fill: the model must not have a value
                            // here (a write would have installed the page).
                            assert_eq!(model.get(&addr.0), None);
                            assert_eq!(mm.read_word(addr), 0);
                        }
                        AccessCheck::NoVma => panic!("read inside a live region had no vma"),
                    }
                }
            }
            assert_eq!(mm.vma_count(), regions.len());
        }
    }
}

/// Page transfer round-trips preserve arbitrary word sets exactly.
#[test]
fn page_transfer_roundtrip_is_lossless() {
    let mut rng = SimRng::new(0x5EED_1002);
    for _ in 0..256 {
        let mut words: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..rng.range_u64(0, 64) {
            words.insert(rng.range_u64(0, 512), rng.next_u64());
        }
        let mut src = fresh();
        let addr = src.map_anon(4096).unwrap();
        src.install_zero_page(addr.page(), PageState::Exclusive);
        for (&slot, &v) in &words {
            src.write_word(addr.add(slot * 8), v);
        }
        let contents = src.evict_page(addr.page());
        let mut dst = src.replica_layout();
        dst.install_page(addr.page(), PageState::Exclusive, contents);
        for (&slot, &v) in &words {
            assert_eq!(dst.read_word(addr.add(slot * 8)), v);
        }
        // Untouched slots read zero.
        for slot in 0..512u64 {
            if !words.contains_key(&slot) {
                assert_eq!(dst.read_word(addr.add(slot * 8)), 0);
            }
        }
    }
}

/// `replica_layout` + later home mappings never collide with existing
/// regions (cursor coherence).
#[test]
fn replica_cursors_never_collide() {
    let mut rng = SimRng::new(0x5EED_1003);
    for _ in 0..256 {
        let lens: Vec<u64> = {
            let len = rng.range_u64(1, 20) as usize;
            (0..len).map(|_| rng.range_u64(1, 5)).collect()
        };
        let mut home = fresh();
        let mut all: Vec<(u64, u64)> = Vec::new();
        for (i, pages) in lens.iter().enumerate() {
            let len = pages * VAddr::PAGE_SIZE;
            let a = home.map_anon(len).unwrap();
            all.push((a.0, len));
            if i == lens.len() / 2 {
                // Mid-way, fork a replica and keep mapping at home.
                let replica = home.replica_layout();
                assert_eq!(replica.vma_count(), home.vma_count());
            }
        }
        // All regions pairwise disjoint.
        for (i, &(s1, l1)) in all.iter().enumerate() {
            for &(s2, l2) in &all[i + 1..] {
                assert!(s1 + l1 <= s2 || s2 + l2 <= s1);
            }
        }
    }
}

/// A word slot inside some live region: region index, page within it and
/// one of 16 word slots spread over the page (so overwrites are common).
#[derive(Debug, Clone, Copy)]
struct Slot {
    region: usize,
    page: u64,
    word: u64,
}

/// A random action on the per-page word store.
#[derive(Debug, Clone, Copy)]
enum StoreAction {
    Map { pages: u64 },
    Unmap { region: usize },
    Write { slot: Slot, value: u64 },
    Evict { slot: Slot, reinstall: bool },
    Transfer { slot: Slot, exclusive: bool },
    Grant { slot: Slot, with_contents: bool },
}

fn random_slot(rng: &mut SimRng) -> Slot {
    Slot {
        region: rng.index(8),
        page: rng.range_u64(0, 8),
        word: rng.range_u64(0, 16) * 32,
    }
}

fn random_store_action(rng: &mut SimRng) -> StoreAction {
    let slot = random_slot(rng);
    match rng.index(8) {
        0 => StoreAction::Map {
            pages: rng.range_u64(1, 8),
        },
        1 => StoreAction::Unmap {
            region: rng.index(8),
        },
        2 => StoreAction::Evict {
            slot,
            reinstall: rng.chance(0.5),
        },
        3 => StoreAction::Transfer {
            slot,
            exclusive: rng.chance(0.5),
        },
        4 => StoreAction::Grant {
            slot,
            with_contents: rng.chance(0.5),
        },
        // Writes dominate so pages fill up; a quarter of them write 0.
        _ => StoreAction::Write {
            slot,
            value: if rng.chance(0.25) {
                0
            } else {
                rng.range_u64(1, u64::MAX)
            },
        },
    }
}

/// The address a slot names, or `None` when nothing is mapped.
fn slot_addr(regions: &[(VAddr, u64)], slot: Slot) -> Option<VAddr> {
    if regions.is_empty() {
        return None;
    }
    let (start, len) = regions[slot.region % regions.len()];
    let page = slot.page % (len / VAddr::PAGE_SIZE);
    Some(VAddr(start.0 + page * VAddr::PAGE_SIZE + slot.word * 8))
}

/// The reference model's words for one page, ascending by address.
fn model_page(model: &BTreeMap<u64, u64>, page: PageNo) -> Vec<(u64, u64)> {
    let base = page.base().0;
    model
        .range(base..base + VAddr::PAGE_SIZE)
        .map(|(&a, &v)| (a, v))
        .collect()
}

fn assert_page_reads_zero(mm: &Mm, page: PageNo) {
    for slot in 0..VAddr::PAGE_SIZE / 8 {
        assert_eq!(
            mm.read_word(page.base().add(slot * 8)),
            0,
            "{page} slot {slot}"
        );
    }
}

/// Every resident page's snapshot is sorted, zero-free, inside its page and
/// equal to the reference; together they hold every reference word.
fn assert_store_matches(mm: &Mm, model: &BTreeMap<u64, u64>) {
    let mut held = 0;
    for (page, _) in mm.pages_sorted() {
        let snap = mm.snapshot_page(page);
        assert!(
            snap.words.windows(2).all(|w| w[0].0 < w[1].0),
            "{page} snapshot not ascending: {:?}",
            snap.words
        );
        assert!(snap.words.iter().all(|&(_, v)| v != 0), "zero word stored");
        assert!(
            snap.words.iter().all(|&(a, _)| VAddr(a).page() == page),
            "word outside {page}"
        );
        assert_eq!(snap.words, model_page(model, page), "{page} contents");
        held += snap.words.len();
    }
    assert_eq!(held, model.len(), "reference words outside resident pages");
    for (&a, &v) in model {
        assert_eq!(mm.read_word(VAddr(a)), v);
    }
}

/// Differential test of the per-page word store against a flat reference
/// map, through writes (including zeros), evictions, transfers to a
/// replica and back, grants with and without shipped contents, and unmaps.
#[test]
fn word_store_agrees_with_flat_reference() {
    let mut rng = SimRng::new(0x5EED_1004);
    for _ in 0..256 {
        let len = rng.range_u64(1, 120) as usize;
        let actions: Vec<StoreAction> = (0..len).map(|_| random_store_action(&mut rng)).collect();
        let mut mm = fresh();
        let mut regions: Vec<(VAddr, u64)> = Vec::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for a in actions {
            match a {
                StoreAction::Map { pages } => {
                    let len = pages * VAddr::PAGE_SIZE;
                    regions.push((mm.map_anon(len).expect("address space is huge"), len));
                }
                StoreAction::Unmap { region } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions.remove(region % regions.len());
                    mm.unmap(start, len).expect("exact unmap succeeds");
                    let end = start.0 + len;
                    model.retain(|&a, _| !(start.0..end).contains(&a));
                    // Mapping the same range again yields zero-filled pages.
                    let mut again = mm.clone();
                    again.install_vma(Vma { start, len });
                    for page in (Vma { start, len }).pages() {
                        again.install_zero_page(page, PageState::Exclusive);
                        assert_page_reads_zero(&again, page);
                    }
                }
                StoreAction::Write { slot, value } => {
                    let Some(addr) = slot_addr(&regions, slot) else {
                        continue;
                    };
                    match mm.check_access(addr, true) {
                        AccessCheck::Ok => {}
                        AccessCheck::NeedPage { page, .. } => match mm.page_info(page) {
                            Some(_) => mm.set_page_state(page, PageState::Exclusive),
                            None => mm.install_zero_page(page, PageState::Exclusive),
                        },
                        AccessCheck::NoVma => panic!("write inside a live region had no vma"),
                    }
                    mm.write_word(addr, value);
                    if value == 0 {
                        model.remove(&addr.0);
                    } else {
                        model.insert(addr.0, value);
                    }
                }
                StoreAction::Evict { slot, reinstall } => {
                    let Some(page) = slot_addr(&regions, slot).map(VAddr::page) else {
                        continue;
                    };
                    if mm.page_info(page).is_none() {
                        continue;
                    }
                    let contents = mm.evict_page(page);
                    assert_eq!(contents.words, model_page(&model, page));
                    let base = page.base().0;
                    model.retain(|&a, _| !(base..base + VAddr::PAGE_SIZE).contains(&a));
                    if reinstall {
                        mm.install_zero_page(page, PageState::ReadShared);
                        assert_page_reads_zero(&mm, page);
                    }
                }
                StoreAction::Transfer { slot, exclusive } => {
                    let Some(page) = slot_addr(&regions, slot).map(VAddr::page) else {
                        continue;
                    };
                    if mm.page_info(page).is_none() {
                        continue;
                    }
                    let state = if exclusive {
                        PageState::Exclusive
                    } else {
                        PageState::ReadShared
                    };
                    // Ship the page to a fresh replica and back again.
                    let contents = mm.evict_page(page);
                    let mut dst = mm.replica_layout();
                    dst.install_page(page, state, contents);
                    assert_store_matches(&dst, &model_page(&model, page).into_iter().collect());
                    mm.install_page(page, state, dst.evict_page(page));
                }
                StoreAction::Grant {
                    slot,
                    with_contents,
                } => {
                    let Some(page) = slot_addr(&regions, slot).map(VAddr::page) else {
                        continue;
                    };
                    let version = rng.range_u64(0, 100);
                    if !with_contents {
                        // In-place upgrade if resident, zero-fill if absent:
                        // either way the words do not change.
                        mm.apply_grant(page, PageState::Exclusive, version, None);
                        continue;
                    }
                    let shipped: BTreeMap<u64, u64> = (0..rng.range_u64(0, 8))
                        .map(|_| {
                            let addr = page.base().add(rng.range_u64(0, 16) * 32 * 8);
                            (addr.0, rng.range_u64(1, u64::MAX))
                        })
                        .collect();
                    let base = page.base().0;
                    model.retain(|&a, _| !(base..base + VAddr::PAGE_SIZE).contains(&a));
                    model.extend(&shipped);
                    let contents = PageContents {
                        version: 0,
                        words: shipped.into_iter().collect(),
                    };
                    mm.apply_grant(page, PageState::ReadShared, version, Some(contents));
                    assert_eq!(mm.page_info(page).map(|i| i.version), Some(version));
                }
            }
            assert_store_matches(&mm, &model);
        }
    }
}
