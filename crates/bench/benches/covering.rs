//! M1/M4 — covering checks (Definition 2) and the placement search
//! (Figure 5's "find the strongest covering filter").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use layercake_event::TypeRegistry;
use layercake_filter::{DestId, FilterTable};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_covers(c: &mut Criterion) {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(8);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: 512,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let subs = workload.subscriptions();
    let pairs: Vec<_> = subs.windows(2).map(|w| (&w[0], &w[1])).collect();
    let mut group = c.benchmark_group("filter_covers");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("pairwise", |b| {
        b.iter(|| {
            for (f, g) in &pairs {
                black_box(f.covers(black_box(g), &registry));
                black_box(g.covers(black_box(f), &registry));
            }
        });
    });
    group.finish();
}

fn bench_find_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_cover_in_table");
    for &n in &[100usize, 1_000] {
        let mut registry = TypeRegistry::new();
        let mut rng = StdRng::seed_from_u64(9);
        let workload = BiblioWorkload::new(
            BiblioConfig {
                subscriptions: n,
                ..BiblioConfig::default()
            },
            &mut registry,
            &mut rng,
        );
        let class = registry.class(workload.class()).unwrap().clone();
        let g = BiblioWorkload::stage_map();
        let mut table = FilterTable::default();
        for (i, f) in workload.subscriptions().iter().enumerate() {
            // Store stage-2 weakened forms, as a stage-2 broker would.
            table.insert(
                layercake_filter::weaken_to_stage(f, &class, &g, 2),
                DestId(i as u64),
            );
        }
        let probes: Vec<_> = workload.subscriptions().iter().take(64).cloned().collect();
        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                for p in &probes {
                    black_box(table.find_cover(black_box(p), &registry));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_covers, bench_find_cover);
criterion_main!(benches);
