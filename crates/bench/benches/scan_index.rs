//! Scan + index (the Figure 1 pipeline's front half). The keyword ×
//! ccTLD sweep over the built index is priced in `identify`.

use criterion::{criterion_group, criterion_main, Criterion};
use filterwatch_bench::bench_world;
use filterwatch_scanner::ScanEngine;

fn bench_scan(c: &mut Criterion) {
    let world = bench_world();

    // Scalability sweep (§7): scan cost vs number of filtered networks.
    for n in [8usize, 32, 128] {
        let synthetic = filterwatch_core::World::synthetic(1, n);
        c.bench_function(&format!("scan/synthetic-{n}-networks"), |b| {
            let engine = ScanEngine::new().with_threads(4);
            b.iter(|| engine.scan(&synthetic.net))
        });
    }

    c.bench_function("scan/full-sweep", |b| {
        let engine = ScanEngine::new().with_threads(4);
        b.iter(|| engine.scan(&world.net))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8));
    targets = bench_scan
}
criterion_main!(benches);
