//! Batched multi-property verification versus N independent one-shot runs.
//!
//! Two comparisons:
//!
//! * `setup/*` — what the session model amortizes: constructing the
//!   spec-side preprocessing (expression universe, compiled symbolic task,
//!   static-analysis graph) for twelve properties, once through a fresh
//!   `Engine` per property (the one-shot workflow) and once through a
//!   single `Engine` warming its shared cache.  The shared engine wins on
//!   any machine: it builds once and reuses eleven times.
//!
//! * `multi_property/*` — end-to-end verification of six benchmark
//!   properties of the order-fulfillment workflow: one-shot runs on a
//!   fresh `Engine` each versus `Engine::check_all`, which additionally
//!   fans the searches out across `available_parallelism` threads.  The
//!   search phase dominates end-to-end time, so on a single-core machine
//!   the two arms converge; with N cores `check_all` approaches the
//!   slowest single property instead of the sum.

use criterion::{criterion_group, criterion_main, Criterion};
use verifas_core::{Engine, SearchLimits, VerifierOptions};
use verifas_workloads::{generate, generate_properties, order_fulfillment, SyntheticParams};

fn options() -> VerifierOptions {
    VerifierOptions {
        limits: SearchLimits {
            max_states: 20_000,
            max_millis: 10_000,
        },
        ..VerifierOptions::default()
    }
}

fn bench_setup_amortization(c: &mut Criterion) {
    // A default-size synthetic spec (75 variables / 75 services) has a
    // preprocessing cost worth amortizing.
    let spec = generate(SyntheticParams::default(), 4).expect("seed 4 generates");
    let properties = generate_properties(&spec, 2017);
    let mut group = c.benchmark_group("setup");
    group.sample_size(20);
    group.bench_function("independent_engines", |b| {
        b.iter(|| {
            for property in &properties {
                let engine = Engine::load_with_options(spec.clone(), options()).unwrap();
                engine.warm(property).unwrap();
            }
        })
    });
    group.bench_function("engine_warm", |b| {
        b.iter(|| {
            let engine = Engine::load_with_options(spec.clone(), options()).unwrap();
            for property in &properties {
                engine.warm(property).unwrap();
            }
        })
    });
    group.finish();
}

fn bench_batched_vs_independent(c: &mut Criterion) {
    let spec = order_fulfillment();
    let properties: Vec<_> = generate_properties(&spec, 2017)
        .into_iter()
        .take(6)
        .collect();
    let mut group = c.benchmark_group("multi_property");
    group.sample_size(10);
    group.bench_function("independent_runs", |b| {
        b.iter(|| {
            for property in &properties {
                let engine = Engine::load_with_options(spec.clone(), options()).unwrap();
                let _ = engine.check(property).unwrap();
            }
        })
    });
    group.bench_function("engine_check_all", |b| {
        b.iter(|| {
            let engine = Engine::load_with_options(spec.clone(), options()).unwrap();
            for report in engine.check_all(&properties) {
                let _ = report.unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_setup_amortization,
    bench_batched_vs_independent
);
criterion_main!(benches);
