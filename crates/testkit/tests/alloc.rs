//! An allocation ceiling per scale host of a generated world.
//!
//! A crawler-scale world adds 10⁴–10⁵ bystander hosts, so what one of
//! them costs to build is most of what `build_world` allocates. A
//! counting global allocator measures the same clean plan built with
//! and without `host_scale` hosts; the difference, per host, covers the
//! host record, its DNS name and the prefixes and ASes they sit in. A
//! formatted `String` per hostname or a heap key per DNS name pushes the
//! count over the ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use filterwatch_testkit::{build_world, plan_for_seed, FaultPlan};

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

/// Bystander hosts added to the scaled world.
const HOSTS: usize = 10_000;

/// At most this many allocations per scale host. A host costs two of
/// its own (its hostname list and the one name in it); its DNS name
/// lands in the zone's arena, and its AS, network and prefix, shared by
/// 32 hosts, add a fraction more. A `String` per DNS key or per
/// formatted hostname crosses the ceiling.
const ALLOCATIONS_PER_HOST: f64 = 2.5;

/// Allocations made building seed 5's clean plan with `host_scale`
/// bystander hosts.
fn allocations_building(host_scale: usize) -> u64 {
    let mut plan = plan_for_seed(5);
    plan.fault = FaultPlan::Clean;
    for d in &mut plan.deployments {
        d.flapping = None;
    }
    plan.host_scale = host_scale;
    let before = ALLOCATIONS.with(Cell::get);
    let gw = build_world(&plan);
    let after = ALLOCATIONS.with(Cell::get);
    assert!(gw.net.host_count() >= host_scale);
    drop(gw);
    after - before
}

#[test]
fn a_scale_host_stays_under_the_allocation_ceiling() {
    let base = allocations_building(0);
    let scaled = allocations_building(HOSTS);
    let per_host = (scaled - base) as f64 / HOSTS as f64;
    assert!(
        per_host <= ALLOCATIONS_PER_HOST,
        "{per_host:.2} allocations per scale host ({scaled} scaled, {base} unscaled; \
         ceiling {ALLOCATIONS_PER_HOST})"
    );
}
