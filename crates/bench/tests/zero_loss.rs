//! Zero-loss suite: under *transient* link faults (drops, duplications,
//! jitter — no crashes), per-link reliability must deliver every matching
//! event exactly once after the faults heal. Unlike `tests/chaos.rs`,
//! which tolerates losing events that traversed a crashed broker, here
//! every sender's retransmission buffer survives, so nothing may be lost.

use std::sync::Arc;

use layercake_bench::link::{with_links, LinkConfig};
use layercake_event::{event_data, Advertisement, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_overlay::OverlayConfig;
use layercake_sim::{FaultPlan, SimDuration};
use layercake_workload::BiblioWorkload;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const TTL: u64 = 400;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn transient_link_faults_lose_nothing(
        seed in 0u64..1_000,
        drop_p in 0.0f64..=0.15,
        dup_p in 0.0f64..=0.1,
        jitter in 0u64..=3,
    ) {
        run_zero_loss(seed, drop_p, dup_p, jitter, false)?;
    }

    /// The same zero-loss guarantee must hold with the overload-protection
    /// layer switched on: under capacity, credit windows and bounded
    /// queues may delay events but never drop them, and the per-link
    /// dedup/ordering machinery survives credit stalls.
    #[test]
    fn flow_control_preserves_zero_loss_under_capacity(
        seed in 0u64..1_000,
        drop_p in 0.0f64..=0.15,
        dup_p in 0.0f64..=0.1,
        jitter in 0u64..=3,
    ) {
        run_zero_loss(seed, drop_p, dup_p, jitter, true)?;
    }
}

fn run_zero_loss(
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    jitter: u64,
    flow_control: bool,
) -> Result<(), TestCaseError> {
    {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = with_links(
            OverlayConfig {
                levels: vec![4, 2, 1],
                leases_enabled: true,
                ttl: SimDuration::from_ticks(TTL),
                seed,
                ..OverlayConfig::default()
            },
            LinkConfig {
                reliable: true,
                flow_control,
                // The egress queue must hold a full retransmission window
                // (`validate()` enforces window <= queue).
                queue_capacity: 256,
            },
            Arc::new(registry),
        )
        .unwrap();
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let subs: Vec<_> = (0..4)
            .map(|i| {
                sim.add_subscriber(
                    Filter::for_class(class)
                        .eq("year", 2000i64)
                        .eq("conference", "icdcs")
                        .eq("author", format!("a{i}")),
                )
                .expect("valid subscription")
            })
            .collect();
        sim.run_for(SimDuration::from_ticks(TTL / 2));

        sim.set_fault_seed(seed ^ 0x10_55);
        sim.set_default_fault_plan(Some(FaultPlan {
            drop_probability: drop_p,
            dup_probability: dup_p,
            max_jitter: SimDuration::from_ticks(jitter),
        }));

        // 25 events per subscriber while the links misbehave — well below
        // the retransmission window, so every loss stays recoverable.
        let mut published = Vec::new();
        let mut seq = 0u64;
        for round in 0..25 {
            let _ = round;
            for (i, _) in subs.iter().enumerate() {
                let data = event_data! {
                    "year" => 2000i64,
                    "conference" => "icdcs",
                    "author" => format!("a{i}"),
                    "title" => format!("t{seq}"),
                };
                sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), data));
                published.push((i, EventSeq(seq)));
                seq += 1;
            }
            sim.run_for(SimDuration::from_ticks(8));
        }

        // Heal, then push a few flusher events per subscriber so trailing
        // gaps on every link get exposed (gap detection is arrival-driven).
        sim.clear_fault_plans();
        for round in 0..3 {
            let _ = round;
            for (i, _) in subs.iter().enumerate() {
                let data = event_data! {
                    "year" => 2000i64,
                    "conference" => "icdcs",
                    "author" => format!("a{i}"),
                    "title" => format!("t{seq}"),
                };
                sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), data));
                published.push((i, EventSeq(seq)));
                seq += 1;
            }
            sim.run_for(SimDuration::from_ticks(2 * TTL));
        }

        // Zero loss, exactly once: every published event reached exactly
        // its subscriber, no duplicates recorded anywhere.
        for &(i, s) in &published {
            let count = sim.deliveries(subs[i]).iter().filter(|&&d| d == s).count();
            prop_assert_eq!(
                count,
                1,
                "event {:?} for sub {} delivered {} times (drop={}, dup={})",
                s,
                i,
                count,
                drop_p,
                dup_p
            );
        }
        let total: usize = subs.iter().map(|&h| sim.deliveries(h).len()).sum();
        prop_assert_eq!(total, published.len(), "no spurious deliveries");
    }
    Ok(())
}
