//! Benchmarks of the Karp–Miller search under the different coverage
//! orders (the SP ablation at micro scale).

use criterion::{criterion_group, criterion_main, Criterion};
use verifas_core::{CandidateSource, CoverageKind, KarpMillerSearch, ProductSystem, SearchLimits};
use verifas_workloads::{generate_properties, order_fulfillment};

fn bench_search(c: &mut Criterion) {
    let spec = order_fulfillment();
    let property = &generate_properties(&spec, 2017)[1]; // G phi
    let product = ProductSystem::new(&spec, property, true).unwrap();
    let limits = SearchLimits {
        max_states: 20_000,
        max_millis: 10_000,
    };
    let mut group = c.benchmark_group("karp_miller_search");
    group.sample_size(10);
    for (name, coverage, source) in [
        (
            "subsumption+index",
            CoverageKind::Subsumption,
            CandidateSource::Postings,
        ),
        (
            "subsumption",
            CoverageKind::Subsumption,
            CandidateSource::Group,
        ),
        ("standard", CoverageKind::Standard, CandidateSource::Group),
        ("equality", CoverageKind::Equality, CandidateSource::Group),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut search = KarpMillerSearch::new(&product, coverage, source, limits);
                search.run()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
