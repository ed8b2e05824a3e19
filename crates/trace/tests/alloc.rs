//! An allocation ceiling per recorded event.
//!
//! A recorded event costs its key list and its value buffer, plus its
//! share of the log's growth. A counting global allocator measures a
//! batch of fetch-shaped subtrees recorded the way the instrumented
//! sites record them: values passed as they are, never rendered to
//! strings first. Per-field strings, or a site that formats its values
//! before the call, push the count over the ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use filterwatch_trace::{StepKind, TraceHandle};

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

const SUBTREES: usize = 1_000;

/// url-test, fetch, dns, mb-hop, origin-reply and verdict.
const EVENTS_PER_SUBTREE: usize = 6;

/// At most this many allocations per recorded event.
const CEILING: f64 = 3.0;

#[test]
fn recorded_events_stay_under_the_allocation_ceiling() {
    let t = TraceHandle::enabled(5);
    let root = t.open(StepKind::Campaign, 0, &[("seed", &5)]);
    let urls: Vec<String> = (0..SUBTREES)
        .map(|i| format!("http://www.controlled-site-{i}.example/index.html"))
        .collect();
    let ip = Ipv4Addr::new(10, 0, 3, 7);

    let before = allocations();
    for (i, url) in urls.iter().enumerate() {
        let at = i as u64;
        let test = t.open(StepKind::UrlTest, at, &[("url", url)]);
        let fetch = t.open(
            StepKind::Fetch,
            at,
            &[("vantage", &"field@etisalat"), ("url", url)],
        );
        t.point(
            StepKind::Dns,
            at,
            &[
                ("host", &"www.controlled-site.example"),
                ("ip", &ip),
                ("outcome", &"ok"),
            ],
        );
        t.point(
            StepKind::MbHop,
            at,
            &[
                ("middlebox", &"netsweeper@etisalat"),
                ("action", &"respond"),
                ("status", &403u16),
            ],
        );
        t.point(StepKind::OriginReply, at, &[("status", &200u16)]);
        t.close(fetch, at + 1, &[("outcome", &403u16)]);
        t.point(
            StepKind::Verdict,
            at + 1,
            &[("verdict", &"blocked"), ("product", &"netsweeper")],
        );
        t.close(test, at + 1, &[]);
    }
    let spent = allocations() - before;

    t.close(root, SUBTREES as u64, &[]);
    let events = t.take();
    assert_eq!(events.len(), SUBTREES * EVENTS_PER_SUBTREE + 1);
    // Completion order: dns, mb-hop, origin-reply, then the fetch.
    let fetch = &events[3];
    assert_eq!(fetch.step, StepKind::Fetch);
    assert_eq!(fetch.field("url"), Some(urls[0].as_str()));
    assert_eq!(fetch.field("outcome"), Some("403"));
    let per_event = spent as f64 / (SUBTREES * EVENTS_PER_SUBTREE) as f64;
    assert!(
        per_event <= CEILING,
        "{per_event:.2} allocations per recorded event (ceiling {CEILING})"
    );
}
