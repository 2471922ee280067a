//! E7 — the Section 3.4 cost claim: filtering on extracted meta-data versus
//! deserializing the event object at every hop.
//!
//! The paper's argument for multi-stage filtering over typed events is that
//! "filtering performance can only be poor if at each filtering stage events
//! have to be deserialized and filtered by performing high-level code".
//! `meta_prefilter` is what our brokers do; `object_instantiate_and_filter`
//! is the strawman each hop would otherwise pay; `typed_end_to_end` measures
//! the full publish→deliver pipeline of the typed facade.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use layercake_core::EventSystem;
use layercake_event::{ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_workload::stock::{Stock, StockConfig, StockWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn encoded_quotes(n: usize) -> (TypeRegistry, ClassId, Vec<Envelope>) {
    let mut registry = TypeRegistry::new();
    let mut workload = StockWorkload::new(StockConfig::default(), &mut registry);
    let class = workload.class();
    let mut rng = StdRng::seed_from_u64(10);
    let envs: Vec<Envelope> = (0..n)
        .map(|i| {
            let q = workload.next_quote(&mut rng);
            Envelope::encode(class, EventSeq(i as u64), &q).expect("encode")
        })
        .collect();
    (registry, class, envs)
}

fn bench_per_hop_cost(c: &mut Criterion) {
    let (registry, class, envs) = encoded_quotes(1_024);
    let filter = Filter::for_class(class)
        .eq("symbol", "SYM000")
        .lt("price", 10.0);

    let mut group = c.benchmark_group("per_hop_filtering_cost");
    group.throughput(Throughput::Elements(envs.len() as u64));

    // What our brokers do: evaluate the weakened filter on the envelope's
    // meta-data; no typed object is built.
    group.bench_function("meta_prefilter", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for env in &envs {
                if filter.matches_envelope(black_box(env), &registry) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });

    // The strawman: rebuild the typed object at the hop and run
    // accessor-based filtering code.
    group.bench_function("object_instantiate_and_filter", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for env in &envs {
                let quote: Stock = black_box(env).decode().expect("meta-data rebuilds a Stock");
                if quote.symbol() == "SYM000" && *quote.price() < 10.0 {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("typed_end_to_end");
    group.sample_size(20);
    group.bench_function("publish_1000", |b| {
        b.iter_batched(
            || {
                let mut system = EventSystem::builder()
                    .levels(&[8, 2, 1])
                    .with_event::<Stock>()
                    .expect("register")
                    .build();
                system
                    .advertise::<Stock>(Some(StockWorkload::stage_map()))
                    .expect("advertise");
                for i in 0..50 {
                    system
                        .subscribe::<Stock>(|f| {
                            f.eq("symbol", StockWorkload::symbol_name(i))
                                .lt("price", 10.5)
                        })
                        .expect("subscribe");
                }
                let mut registry = TypeRegistry::new();
                let mut workload = StockWorkload::new(StockConfig::default(), &mut registry);
                let mut rng = StdRng::seed_from_u64(3);
                let quotes: Vec<Stock> =
                    (0..1_000).map(|_| workload.next_quote(&mut rng)).collect();
                (system, quotes)
            },
            |(mut system, quotes)| {
                for q in &quotes {
                    system.publish(black_box(q)).expect("publish");
                }
                system.settle();
                black_box(system.published())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_per_hop_cost, bench_end_to_end);
criterion_main!(benches);
