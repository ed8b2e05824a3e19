//! The full Figure 1 identification pipeline (scan -> search -> validate
//! -> geolocate), plus the optimization rungs of the keyword × ccTLD
//! sweep recorded in `BENCH_identify.json`.
//!
//! Paper-world rungs (the pinned ~260-record index):
//!
//! 1. `sweep/naive` — the pre-optimization shape: one full-index pass
//!    per (keyword, country) pair, recompiling the pattern on every
//!    probe, no posting-list scoping;
//! 2. `sweep/automaton` — every keyword fused into one Aho-Corasick
//!    automaton, a repeat serial sweep: the plan cached on the index
//!    already holds every record's matches, so the sweep scans nothing
//!    and costs the scope union and the fold;
//! 3. `sweep/parallel` — the same repeat sweep at the default worker
//!    count (it scans nothing either).
//!
//! Shodan-scale rungs (a 10⁵-record synthetic corpus):
//!
//! 4. `sweep/first-parallel-100k` — the first sweep of an index at the
//!    default worker count: it compiles the plan and scans every
//!    record, the sweep a campaign runs once per index;
//! 5. `sweep/sharded-parallel-100k` — a repeat sweep over the cached
//!    plan. The name predates the deletion of the index's shards and
//!    stays so that the gate's baseline keeps its key;
//! 6. `ingest/full-rebuild-100k` — from-scratch index build over all
//!    10⁵ records: interning labels and posting each record, which
//!    already holds its searchable text in its own buffer;
//! 7. `ingest/delta-1pct-100k` — `apply_delta` carrying a 1% churn
//!    (500 appeared + 500 disappeared endpoints) into an existing
//!    index.
//!
//! The repeat-sweep rungs warm the index's sweep plan before the timed
//! region, so the automaton's compilation and the pass over every
//! record are excluded from their medians; `sweep/first-parallel-100k`
//! times exactly that work.

use std::collections::BTreeSet;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use filterwatch_bench::bench_world;
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_pattern::Pattern;
use filterwatch_scanner::{
    keywords, synth_churn, synth_records, ScanEngine, ScanIndex, ScanRecord,
};

/// The seed implementation of the whole keyword × ccTLD sweep, kept
/// here as the baseline rung: a full-index scan per (keyword, country)
/// pair, pattern recompiled per probe, no posting-list scoping. The
/// case-insensitive pattern reads each record's raw searchable text.
fn naive_sweep(index: &ScanIndex, cctlds: &[(String, String)]) -> usize {
    let mut total = 0;
    for product in keywords::KEYWORD_TABLE {
        for kw in product.keywords {
            let mut seen: BTreeSet<(u32, u16, String)> = BTreeSet::new();
            for (cc, tld) in cctlds {
                let pattern = Pattern::literal(kw);
                let suffix = format!(".{tld}");
                let scoped = |r: &ScanRecord| {
                    r.country() == Some(cc.as_str())
                        || r.hostnames()
                            .any(|h| h.to_ascii_lowercase().ends_with(&suffix))
                };
                for r in index.records() {
                    if pattern.is_match(r.searchable_text()) && scoped(r) {
                        seen.insert((r.ip().value(), r.port(), r.path().to_string()));
                    }
                }
            }
            total += seen.len();
        }
    }
    total
}

fn bench_identify(c: &mut Criterion) {
    let world = bench_world();
    let pipeline = IdentifyPipeline::new();

    c.bench_function("identify/full-pipeline", |b| {
        b.iter(|| pipeline.run(&world.net))
    });

    let index = ScanEngine::new().with_threads(4).scan(&world.net);
    c.bench_function("identify/search-validate-geolocate", |b| {
        b.iter(|| pipeline.run_on_index(&world.net, &index))
    });

    let cctlds: Vec<(String, String)> = world
        .net
        .registry()
        .countries()
        .map(|country| (country.code.as_str().to_string(), country.cctld.clone()))
        .collect();
    let pairs = || cctlds.iter().map(|(cc, tld)| (cc.as_str(), tld.as_str()));

    let mut group = c.benchmark_group("sweep");
    group.throughput(Throughput::Elements(index.len() as u64));
    group.bench_function("naive", |b| {
        b.iter(|| naive_sweep(black_box(&index), &cctlds))
    });
    // One untimed call compiles the fused automaton into the index's
    // sweep plan and scans every record; the timed region then measures
    // the repeat sweep, matching how repeat queries behave in production
    // (compilation and the full pass are paid once per index).
    index.search_products_with_threads(keywords::KEYWORD_TABLE, pairs(), 1);
    group.bench_function("automaton", |b| {
        b.iter(|| index.search_products_with_threads(keywords::KEYWORD_TABLE, pairs(), 1))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| index.search_products(keywords::KEYWORD_TABLE, pairs()))
    });

    // Shodan-scale: a 10^5-record synthetic corpus over the default
    // country pool (multi-label ccTLDs included, ~1 in 97 records
    // carrying a planted Table 2 keyword).
    let corpus = synth_records(100_000, 0x5ca1e);
    let big = ScanIndex::build(corpus.clone());
    let big_pairs = || filterwatch_scanner::SYNTH_COUNTRIES.iter().copied();
    group = c.benchmark_group("sweep");
    group.throughput(Throughput::Elements(big.len() as u64));
    // `big` has not swept yet, so each clone starts without a plan and
    // the timed sweep scans every record. The clone and its drop stay
    // outside the timed region.
    group.bench_function("first-parallel-100k", |b| {
        b.iter_batched(
            || big.clone(),
            |idx| {
                let hits = idx.search_products(keywords::KEYWORD_TABLE, big_pairs());
                (idx, hits)
            },
            BatchSize::LargeInput,
        )
    });
    big.search_products(keywords::KEYWORD_TABLE, big_pairs());
    group.bench_function("sharded-parallel-100k", |b| {
        b.iter(|| big.search_products(keywords::KEYWORD_TABLE, big_pairs()))
    });
    group.finish();

    // Incremental ingest vs rebuild at 1% churn (500 appeared + 500
    // disappeared endpoints). Setup — cloning the base records or the
    // built index — stays outside the timed region.
    let (adds, retirements) = synth_churn(&corpus, 500, 500, 0xc4u64);
    let mut ingest = c.benchmark_group("ingest");
    ingest.throughput(Throughput::Elements(big.len() as u64));
    ingest.bench_function("full-rebuild-100k", |b| {
        b.iter_batched(|| corpus.clone(), ScanIndex::build, BatchSize::LargeInput)
    });
    ingest.bench_function("delta-1pct-100k", |b| {
        b.iter_batched(
            // A built index carries Vec growth slack; clone() trims the
            // arenas to exact capacity, so restore the headroom in the
            // (untimed) setup rather than billing the delta for a
            // one-time full-arena copy no long-lived index ever pays.
            || {
                let mut idx = big.clone();
                idx.reserve(adds.len());
                (idx, adds.clone())
            },
            |(mut idx, adds)| {
                idx.apply_delta(adds, &retirements);
                idx
            },
            BatchSize::LargeInput,
        )
    });
    ingest.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(8));
    targets = bench_identify
}
criterion_main!(benches);
