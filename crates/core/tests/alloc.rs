//! An allocation ceiling per URL test.
//!
//! Characterize (§5) and confirm (§4.2) spend most of a campaign in
//! `MeasurementClient::test_url`: a field and a lab fetch through the
//! simulated Internet, then the block-page classifier over the field
//! copy. A counting global allocator measures one pass over the global
//! and local test lists on the paper world, after a warm-up pass has
//! created every telemetry series and cache entry. Copying a URL per
//! fetch, lowercasing a name per DNS lookup or building a string per
//! hop for the classifier pushes the count over the ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use filterwatch_core::{CampaignWorld, World};
use filterwatch_http::Url;
use filterwatch_urllists::TestList;

/// Counts the current thread's allocations and reallocations, so the
/// test harness's other threads do not add to the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// URLs per category in each list.
const PER_CATEGORY: usize = 2;

/// At most this many allocations per URL test, averaged over one ISP's
/// lists.
const CEILING: f64 = 48.0;

#[test]
fn url_tests_stay_under_the_allocation_ceiling() {
    let world = World::paper(5);
    for isp in ["etisalat", "du", "ooredoo"] {
        let country = world
            .net
            .network_by_name(isp)
            .expect("paper ISP")
            .country
            .as_str()
            .to_string();
        let urls: Vec<Url> = [
            TestList::global(PER_CATEGORY),
            TestList::local(&country, PER_CATEGORY),
        ]
        .iter()
        .flat_map(|list| &list.urls)
        .map(|u| Url::parse(&u.url).expect("list URL"))
        .collect();
        let client = world.client(isp);
        for url in &urls {
            client.test_url(&world.net, url);
        }

        let before = allocations();
        for url in &urls {
            client.test_url(&world.net, url);
        }
        let per_test = (allocations() - before) as f64 / urls.len() as f64;
        assert!(
            per_test <= CEILING,
            "{isp}: {per_test:.1} allocations per URL test over {} URLs (ceiling {CEILING})",
            urls.len()
        );
    }
}
