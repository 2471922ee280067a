//! E22 — subscription aggregation at the broker-table level: what does
//! the covering-based cover forest ([`AggTable`]) buy over the plain
//! [`FilterTable`] as Zipf-skewed subscription populations grow?
//!
//! The population is the E22 workload: `ZipfSubs` over the stock domain,
//! a pool of `groups × 8` distinct filters where within a group the
//! widest price ceiling covers every narrower one, drawn with Zipf
//! exponent 1.0 (the skew real subscription traces show). At each scale
//! (10k / 100k / 1M drawn subscriptions) both tables ingest the same
//! `<filter, dest>` sequence and the experiment measures:
//!
//!   · **table size**: live index entries (plain: distinct filters;
//!     aggregated: cover-forest roots) and covered bookkeeping pairs;
//!   · **insert / remove latency**: ns per subscription ingested, and ns
//!     per removal over a deterministic sample of the inserted pairs;
//!   · **match latency**: ns per event for a deterministic 256-event
//!     batch cycled `MATCH_ITERS` times (dest collection included — the
//!     aggregated table expands covered children at read time).
//!
//! Delivery identity is checked structurally: for every probe event, the
//! aggregated destination set, post-filtered by each destination's
//! *original* subscription filter (exactly what stage-0 re-filtering
//! does at the subscriber edge), must equal the plain set byte for byte.
//!
//! Shape checks (the binary exits non-zero on violation):
//!
//!   1. at every scale, aggregated live entries ≤ 0.5× the plain count;
//!   2. post-filtered delivery sets are identical at every scale;
//!   3. at 100k subscriptions and above, aggregated match latency is no
//!      worse than plain (10% tolerance for timer noise).
//!
//! Run with: `cargo run --release -p layercake-bench --bin
//! exp_aggregation [out_dir] [max_subs]` — `out_dir` (default
//! `docs/results`) receives `BENCH_aggregation.json`; `max_subs`
//! (default 1000000) caps the scale ladder (CI smoke passes 10000).

use std::time::Instant;

use layercake_event::{ClassId, EventData, TypeRegistry};
use layercake_filter::{AggTable, DestId, Filter, FilterTable};
use layercake_metrics::render_table;
use layercake_workload::{StockConfig, StockWorkload, SubsConfig, Zipf, ZipfSubs};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCALES: [usize; 3] = [10_000, 100_000, 1_000_000];
const BUCKETS: usize = 8;
const MATCH_ITERS: usize = 4_096;
const IDENTITY_EVENTS: usize = 64;
const REMOVE_SAMPLE: usize = 20_000;

/// One scale's measurements, kept for the JSON export and shape checks.
struct ScaleResult {
    subs: usize,
    pool: usize,
    plain_entries: usize,
    agg_entries: usize,
    agg_covered: usize,
    plain_insert_ns: f64,
    agg_insert_ns: f64,
    plain_match_ns: f64,
    agg_match_ns: f64,
    plain_remove_ns: f64,
    agg_remove_ns: f64,
}

/// The deterministic probe batch: symbols stride over every group, prices
/// sweep (0, 25) so each event admits some prefix of a group's ceilings.
fn event_batch(groups: usize, n: usize) -> Vec<EventData> {
    (0..n)
        .map(|j| {
            let group = (j * 7919) % groups;
            let price = ((j * 104_729) % 2_500) as f64 / 100.0;
            let mut meta = EventData::new();
            meta.insert("symbol", StockWorkload::symbol_name(group));
            meta.insert("price", price);
            meta
        })
        .collect()
}

fn run_scale(subs: usize, class: ClassId, registry: &TypeRegistry) -> ScaleResult {
    let groups = (subs / 100).max(10);
    let cfg = SubsConfig {
        groups,
        buckets: BUCKETS,
        skew: 1.0,
        seed: 22,
        ..SubsConfig::default()
    };
    let zipf = ZipfSubs::new(cfg, class);
    // The pool is small relative to the draw count; materialize it once
    // so both tables clone identical filters and post-filtering does not
    // rebuild one per destination. Ranks are drawn with the same sampler
    // `ZipfSubs` wraps, kept as indices so every destination's original
    // filter stays addressable for the identity check.
    let pool: Vec<Filter> = (0..zipf.population()).map(|r| zipf.filter_at(r)).collect();
    let sampler = Zipf::new(pool.len(), cfg.skew);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let draws: Vec<usize> = (0..subs).map(|_| sampler.sample(&mut rng)).collect();

    eprintln!(
        "E22: {subs} subscriptions over a {}-filter pool …",
        pool.len()
    );

    // ---- ingest -------------------------------------------------------
    let mut plain = FilterTable::default();
    let start = Instant::now();
    for (i, &rank) in draws.iter().enumerate() {
        plain.insert(pool[rank].clone(), DestId(i as u64));
    }
    let plain_insert_ns = start.elapsed().as_nanos() as f64 / subs as f64;

    let mut agg = AggTable::default();
    let start = Instant::now();
    for (i, &rank) in draws.iter().enumerate() {
        agg.insert(pool[rank].clone(), DestId(i as u64), registry);
    }
    let agg_insert_ns = start.elapsed().as_nanos() as f64 / subs as f64;

    let plain_entries = plain.filter_count();
    let agg_entries = agg.live_entries();
    let agg_covered = agg.covered_subs();
    assert_eq!(agg.subscription_count(), subs);

    // ---- delivery identity (post-filtered, as stage 0 does) -----------
    let probes = event_batch(groups, IDENTITY_EVENTS);
    let mut plain_out = Vec::new();
    let mut agg_out = Vec::new();
    for meta in &probes {
        plain.matches(class, meta, registry, &mut plain_out);
        agg.matches(class, meta, registry, &mut agg_out);
        agg_out.retain(|d| {
            let rank = draws[usize::try_from(d.0).expect("dest fits usize")];
            pool[rank].matches(class, meta, registry)
        });
        assert_eq!(
            plain_out, agg_out,
            "post-filtered aggregated delivery set diverged at {subs} subs"
        );
    }

    // ---- match latency ------------------------------------------------
    let batch = event_batch(groups, 256);
    let bench_match = |table: &mut dyn FnMut(&EventData, &mut Vec<DestId>)| -> f64 {
        let mut out = Vec::new();
        let mut total = 0usize;
        for meta in batch.iter().cycle().take(MATCH_ITERS / 8 + 1) {
            table(meta, &mut out); // warm-up
            total += out.len();
        }
        let start = Instant::now();
        for meta in batch.iter().cycle().take(MATCH_ITERS) {
            table(meta, &mut out);
            total += out.len();
        }
        let ns = start.elapsed().as_nanos() as f64 / MATCH_ITERS as f64;
        std::hint::black_box(total);
        ns
    };
    let plain_match_ns = bench_match(&mut |meta, out| plain.matches(class, meta, registry, out));
    let agg_match_ns = bench_match(&mut |meta, out| agg.matches(class, meta, registry, out));

    // ---- removal (destructive; last) ----------------------------------
    let stride = (subs / REMOVE_SAMPLE).max(1);
    let victims: Vec<(usize, DestId)> = draws
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, &rank)| (rank, DestId(i as u64)))
        .collect();
    let start = Instant::now();
    for &(rank, dest) in &victims {
        assert!(plain.remove(&pool[rank], dest), "plain pair existed");
    }
    let plain_remove_ns = start.elapsed().as_nanos() as f64 / victims.len() as f64;
    let start = Instant::now();
    for &(rank, dest) in &victims {
        let delta = agg.remove(&pool[rank], dest, registry);
        std::hint::black_box(&delta);
    }
    let agg_remove_ns = start.elapsed().as_nanos() as f64 / victims.len() as f64;
    assert_eq!(agg.subscription_count(), subs - victims.len());

    ScaleResult {
        subs,
        pool: pool.len(),
        plain_entries,
        agg_entries,
        agg_covered,
        plain_insert_ns,
        agg_insert_ns,
        plain_match_ns,
        agg_match_ns,
        plain_remove_ns,
        agg_remove_ns,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args.get(1).map_or("docs/results", String::as_str);
    let max_subs: usize = args.get(2).map_or(1_000_000, |s| {
        s.parse().expect("max_subs must be a positive integer")
    });
    let scales: Vec<usize> = SCALES.iter().copied().filter(|&s| s <= max_subs).collect();
    assert!(
        !scales.is_empty(),
        "max_subs below the smallest scale ({})",
        SCALES[0]
    );

    let mut registry = TypeRegistry::new();
    let stock = StockWorkload::new(StockConfig::default(), &mut registry);
    let class = stock.class();

    let results: Vec<ScaleResult> = scales
        .iter()
        .map(|&subs| run_scale(subs, class, &registry))
        .collect();

    // ---- report -------------------------------------------------------
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.subs.to_string(),
                r.pool.to_string(),
                r.plain_entries.to_string(),
                r.agg_entries.to_string(),
                format!("{:.3}", r.agg_entries as f64 / r.plain_entries as f64),
                r.agg_covered.to_string(),
                format!("{:.0}", r.plain_match_ns),
                format!("{:.0}", r.agg_match_ns),
            ]
        })
        .collect();
    println!("subscription aggregation, Zipf s=1.0 stock subscriptions:\n");
    println!(
        "{}",
        render_table(
            &[
                "subscriptions",
                "pool",
                "plain entries",
                "agg entries",
                "ratio",
                "covered",
                "plain ns/event",
                "agg ns/event",
            ],
            &rows
        )
    );
    let lat_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.subs.to_string(),
                format!("{:.0}", r.plain_insert_ns),
                format!("{:.0}", r.agg_insert_ns),
                format!("{:.0}", r.plain_remove_ns),
                format!("{:.0}", r.agg_remove_ns),
            ]
        })
        .collect();
    println!("churn cost, ns per operation:\n");
    println!(
        "{}",
        render_table(
            &[
                "subscriptions",
                "plain insert",
                "agg insert",
                "plain remove",
                "agg remove",
            ],
            &lat_rows
        )
    );
    println!(
        "reading guide: the aggregated table keeps one live entry per cover-forest\n\
         root, so the match index stays small as the population grows; covered\n\
         children are bookkeeping only and re-promote on root removal. Delivery\n\
         sets are verified identical after stage-0 post-filtering.\n"
    );

    // ---- machine-readable output --------------------------------------
    let scale_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"subs\": {}, \"pool\": {}, \"plain_entries\": {}, \
                 \"agg_entries\": {}, \"entry_ratio\": {:.4}, \"agg_covered\": {}, \
                 \"plain_insert_ns\": {:.1}, \"agg_insert_ns\": {:.1}, \
                 \"plain_remove_ns\": {:.1}, \"agg_remove_ns\": {:.1}, \
                 \"plain_match_ns\": {:.1}, \"agg_match_ns\": {:.1}}}",
                r.subs,
                r.pool,
                r.plain_entries,
                r.agg_entries,
                r.agg_entries as f64 / r.plain_entries as f64,
                r.agg_covered,
                r.plain_insert_ns,
                r.agg_insert_ns,
                r.plain_remove_ns,
                r.agg_remove_ns,
                r.plain_match_ns,
                r.agg_match_ns,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"E22\",\n  \"skew\": 1.0,\n  \"buckets\": {BUCKETS},\n  \
         \"match_iters\": {MATCH_ITERS},\n  \"scales\": [\n{}\n  ]\n}}\n",
        scale_json.join(",\n")
    );
    std::fs::create_dir_all(out_dir).expect("create out_dir");
    let path = format!("{out_dir}/BENCH_aggregation.json");
    std::fs::write(&path, &json).expect("write BENCH_aggregation.json");
    println!("wrote {path}");

    // ---- shape checks -------------------------------------------------
    for r in &results {
        assert!(
            r.agg_entries * 2 <= r.plain_entries,
            "aggregation must at least halve live entries at {} subs \
             ({} vs {})",
            r.subs,
            r.agg_entries,
            r.plain_entries
        );
        if r.subs >= 100_000 {
            assert!(
                r.agg_match_ns <= r.plain_match_ns * 1.10,
                "aggregated match latency regressed at {} subs \
                 (agg {:.0} ns, plain {:.0} ns)",
                r.subs,
                r.agg_match_ns,
                r.plain_match_ns
            );
        }
    }
    println!("shape checks passed.");
}
