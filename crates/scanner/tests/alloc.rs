//! An allocation ceiling per ingested scan record.
//!
//! At crawl scale the index holds 10⁵–10⁶ records, so what one record
//! costs to mint and to ingest is most of what the identify stage
//! allocates and holds. A counting global allocator measures
//! `synth_records` followed by `ScanIndex::build` and what the built
//! index keeps. A record that owns a heap object per field, a
//! lowercased copy of every text next to the records, or a `String` per
//! interned label pushes the counts over their ceilings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use filterwatch_scanner::{synth_records, ScanIndex};

/// Counts the current thread's allocations and reallocations, and the
/// bytes it has requested and not yet freed, so the test harness's
/// other threads do not add to either.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocations: u64, bytes: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only const-initialised thread-local `Cell`s, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, live requested bytes)` so far on this thread.
fn counts() -> (u64, i64) {
    (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

/// Records minted and ingested.
const RECORDS: usize = 10_000;

/// At most this many allocations per record, minting and ingest
/// together. A minted record is one allocation, its buffer; ingest adds
/// a quarter of one (arena growth, endpoint-set nodes, postings). A
/// second heap object per record, such as a `String` per interned
/// hostname, crosses the ceiling.
const ALLOCATIONS_PER_RECORD: f64 = 1.5;

/// At most this many requested bytes per record still held by the
/// built index.
const LIVE_BYTES_PER_RECORD: f64 = 600.0;

#[test]
fn minting_and_ingesting_a_record_stays_under_the_ceilings() {
    let (a0, b0) = counts();
    let records = synth_records(RECORDS, 5);
    let (a1, _) = counts();
    let index = ScanIndex::build(records);
    let (a2, b2) = counts();
    assert_eq!(index.len(), RECORDS);

    let per = |n: f64| n / RECORDS as f64;
    let (synth, build) = (per((a1 - a0) as f64), per((a2 - a1) as f64));
    let live = per((b2 - b0) as f64);
    assert!(
        synth + build <= ALLOCATIONS_PER_RECORD,
        "{:.2} allocations per record ({synth:.2} minting, {build:.2} ingest; \
         ceiling {ALLOCATIONS_PER_RECORD})",
        synth + build
    );
    assert!(
        live <= LIVE_BYTES_PER_RECORD,
        "the index holds {live:.0} requested bytes per record (ceiling {LIVE_BYTES_PER_RECORD})"
    );
    drop(index);
}
