//! Criterion benches for the address-space word store: the per-page
//! operations every remote fault, invalidation and grant performs on a
//! kernel's `Mm` replica.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use popcorn_kernel::mm::{Mm, PageState};
use popcorn_kernel::types::{GroupId, PageNo, Tid, VAddr};
use popcorn_msg::KernelId;

const PAGES: u64 = 64;
const WORDS_PER_PAGE: u64 = 16;

/// An address space with 64 resident pages of 16 non-zero words each
/// (1,024 words, the size of one kernel's replica on the benchmark's
/// `shared_pages` workload), and the page in its middle.
fn populated() -> (Mm, PageNo) {
    let mut mm = Mm::new(GroupId(Tid::new(KernelId(0), 1)));
    let start = mm.map_anon(PAGES * VAddr::PAGE_SIZE).unwrap();
    for p in 0..PAGES {
        let base = start.add(p * VAddr::PAGE_SIZE);
        mm.install_zero_page(base.page(), PageState::Exclusive);
        for w in 0..WORDS_PER_PAGE {
            mm.write_word(base.add(w * 8 * 31), p * WORDS_PER_PAGE + w + 1);
        }
    }
    (mm, start.add(PAGES / 2 * VAddr::PAGE_SIZE).page())
}

fn bench_page_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("mm/page_transfer_1k_words");

    let (mm, page) = populated();
    g.bench_function("snapshot", |b| {
        b.iter(|| black_box(mm.snapshot_page(black_box(page))))
    });

    let (mut mm, page) = populated();
    g.bench_function("evict_install", |b| {
        b.iter(|| {
            let contents = mm.evict_page(black_box(page));
            mm.install_page(page, PageState::Exclusive, contents);
        })
    });
    assert_eq!(mm.resident_pages() as u64, PAGES);
    g.finish();
}

criterion_group!(benches, bench_page_transfer);
criterion_main!(benches);
