//! Peer mesh: multi-stage filtering without a hierarchy (the paper's
//! footnote 1), on a small research-lab scenario.
//!
//! Five departmental brokers form a line; readers subscribe at their local
//! broker and publications enter wherever their author sits. Filters weaken
//! with hop distance from each subscriber, so a paper announcement is
//! dropped as early as its attributes allow.
//!
//! Run with: `cargo run -p layercake-bench --example peer_mesh`

use std::sync::Arc;

use layercake_bench::mesh::{MeshConfig, MeshSim};
use layercake_event::{event_data, Advertisement, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_workload::BiblioWorkload;

fn main() {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let registry = Arc::new(registry);

    // A line of five peer brokers: CS — Math — Physics — Biology — Medicine.
    let mut mesh = MeshSim::new(MeshConfig::line(5), Arc::clone(&registry));
    mesh.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    mesh.settle();

    // A reader in CS (broker 0) wants 2002 ICDCS papers by Guerraoui;
    // a reader in Medicine (broker 4) wants anything from 2001.
    let cs_reader = mesh
        .add_subscriber_at(
            0,
            Filter::for_class(class)
                .eq("year", 2002)
                .eq("conference", "icdcs")
                .eq("author", "guerraoui"),
        )
        .expect("valid filter");
    let med_reader = mesh
        .add_subscriber_at(4, Filter::for_class(class).eq("year", 2001))
        .expect("valid filter");
    mesh.settle();

    // Publications enter at the authors' departments.
    let publish = |mesh: &mut MeshSim,
                   at: usize,
                   seq: u64,
                   year: i64,
                   conf: &str,
                   author: &str,
                   title: &str| {
        let meta = event_data! {
            "year" => year, "conference" => conf, "author" => author, "title" => title
        };
        mesh.publish_at(
            at,
            Envelope::from_meta(class, "Biblio", EventSeq(seq), meta),
        );
    };
    publish(
        &mut mesh,
        3,
        0,
        2002,
        "icdcs",
        "guerraoui",
        "tradeoffs in event systems",
    );
    publish(&mut mesh, 3, 1, 2002, "icdcs", "smith", "unrelated");
    publish(
        &mut mesh,
        1,
        2,
        2001,
        "sosp",
        "jones",
        "medical informatics",
    );
    publish(&mut mesh, 0, 3, 1999, "podc", "doe", "old news");
    mesh.settle();

    println!("CS reader received:       {:?}", mesh.deliveries(cs_reader));
    println!(
        "Medicine reader received: {:?}",
        mesh.deliveries(med_reader)
    );
    assert_eq!(mesh.deliveries(cs_reader), &[EventSeq(0)]);
    assert_eq!(mesh.deliveries(med_reader), &[EventSeq(2)]);

    println!("\nper-broker filtering work (note how events die early):");
    for i in 0..mesh.broker_count() {
        let rec = mesh.broker(i).record();
        println!(
            "  {}: received={} matched={} filters={}",
            rec.node, rec.received, rec.matched, rec.filters
        );
    }
    print!("\n{}", mesh.metrics().rlc_table());
}
