//! Cross-implementation consistency: the hierarchical overlay (the paper's
//! configuration) and the peer mesh (footnote 1) must deliver *identical*
//! event sets for the same subscriptions and the same stream — the routing
//! substrate must never change delivery semantics.

use std::sync::Arc;

use layercake_bench::mesh::{MeshConfig, MeshSim};
use layercake_event::{Advertisement, Envelope, EventSeq, TypeRegistry};
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn mesh_and_hierarchy_deliver_identically() {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(77);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: 40,
            conferences: 6,
            authors: 30,
            titles: 60,
            wildcard_rate: 0.15,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let class = workload.class();
    let registry = Arc::new(registry);
    let stream: Vec<Envelope> = (0..1_500).map(|s| workload.envelope(s, &mut rng)).collect();

    // Hierarchy run.
    let mut hier = OverlaySim::new(
        OverlayConfig {
            levels: vec![8, 2, 1],
            ..OverlayConfig::default()
        },
        Arc::clone(&registry),
    );
    hier.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    hier.settle();
    let hier_handles: Vec<_> = workload
        .subscriptions()
        .iter()
        .map(|f| {
            let h = hier.add_subscriber(f.clone()).unwrap();
            hier.settle();
            h
        })
        .collect();
    for e in &stream {
        hier.publish(e.clone());
    }
    hier.settle();

    // Mesh run: same subscriptions at random attachment points.
    let mut mesh = MeshSim::new(MeshConfig::star(11), Arc::clone(&registry));
    mesh.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    mesh.settle();
    let mut attach_rng = StdRng::seed_from_u64(5);
    let mesh_handles: Vec<_> = workload
        .subscriptions()
        .iter()
        .map(|f| {
            let at = attach_rng.gen_range(0..11);
            let h = mesh.add_subscriber_at(at, f.clone()).unwrap();
            mesh.settle();
            h
        })
        .collect();
    for e in &stream {
        let at = attach_rng.gen_range(0..11);
        mesh.publish_at(at, e.clone());
    }
    mesh.settle();

    let mut total = 0usize;
    for (hh, mh) in hier_handles.iter().zip(&mesh_handles) {
        let hier_set: Vec<EventSeq> = hier.deliveries(*hh).to_vec();
        let mut mesh_set: Vec<EventSeq> = mesh.deliveries(*mh).to_vec();
        mesh_set.sort();
        assert_eq!(hier_set, mesh_set, "substrates disagree on a subscription");
        total += hier_set.len();
    }
    assert!(total > 0, "the workload should produce deliveries");
}
