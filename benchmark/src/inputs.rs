//! The four workloads: their sizes, their seeded inputs, and the oracle.
//!
//! Everything the system under test sees is made here from `--seed`:
//! which filters the subscribers hold, and which body event `seq` carries.
//! The body of an event is a pure function of `(seed, seq)`, so the
//! generator, the oracle and the layer replay agree on the inputs without
//! sharing a table of them.
//!
//! Rates are constants, at or below a quarter of the capacity measured when
//! the benchmark was written (see README.md, "Sizing"), and never adapted at
//! run time: parent and change see the same offered load.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sut::{symbol_name, Content, Domain, Filter, SubPool};

pub const WORKLOADS: [&str; 4] = ["fanout-mpsc", "match-zipf", "churn-mixed", "durable-tcp"];

/// Number of tapped single-filter subscribers every workload has; they are
/// the only source of latency samples.
pub const PROBES: usize = 4;
/// `add_subscriber_any` subscribers the Zipf population is spread over.
const ANY_SUBSCRIBERS: usize = 8;
const BUCKETS: usize = 8;
/// Batches of subscriptions `churn-mixed` places during the window.
pub const CHURN_BATCHES: usize = 10;
/// Above every ceiling of the subscription pool (ceilings reach 20).
const MISS_PRICE: f64 = 1000.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubRole {
    /// Tapped, single filter: feeds the latency collector.
    Probe,
    /// Durable, single filter (`durable-tcp` only).
    Durable,
    /// Untapped disjunction of many filters.
    Plain,
}

/// One subscriber: its role and its branches, as indices into
/// `Inputs::filters`.
pub struct SubSpec {
    pub role: SubRole,
    pub branches: Vec<usize>,
}

/// A share of the event mix: `percent` of events draw their body uniformly
/// from `contents[start..start + len]`.
struct MixPart {
    percent: u64,
    start: usize,
    len: usize,
}

pub struct Inputs {
    pub name: &'static str,
    pub domain: Domain,
    /// Length of an open-loop tick.
    pub tick: Duration,
    /// Events due per tick.
    pub per_tick: u64,
    /// Events per capacity burst.
    pub burst: u64,
    pub tcp: bool,
    pub durable: bool,
    /// Distinct event bodies.
    pub contents: Vec<Content>,
    /// Distinct filters.
    pub filters: Vec<Filter>,
    /// Subscribers placed during set-up, in placement order.
    pub initial: Vec<SubSpec>,
    /// Subscribers placed while the window runs, evenly spaced.
    pub churn: Vec<SubSpec>,
    mix: Vec<MixPart>,
    pub seed: u64,
}

/// SplitMix64: the stateless hash behind `content_of` and the schedule.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Builds workload `name` from `seed` at `1/divisor` of its size
    /// (`divisor` is 1 for measured runs, 20 for `--smoke`).
    pub fn build(name: &str, seed: u64, divisor: u64) -> Option<Self> {
        let d = divisor as usize;
        match name {
            "fanout-mpsc" => Some(Self::fanout(
                "fanout-mpsc",
                seed,
                50 / divisor,
                100_000 / divisor,
                false,
            )),
            "durable-tcp" => Some(Self::fanout("durable-tcp", seed, 1, 1_500 / divisor, true)),
            "match-zipf" => Some(Self::zipf(
                "match-zipf",
                seed,
                6_000 / d,
                0,
                30_000 / divisor,
                divisor,
            )),
            "churn-mixed" => Some(Self::zipf(
                "churn-mixed",
                seed,
                5_000 / d,
                (10 / d).max(1),
                30_000 / divisor,
                divisor,
            )),
            _ => None,
        }
    }

    /// `fanout-mpsc` and `durable-tcp`: four `symbol = SYMk` probes, every
    /// event matches exactly one; the durable variant adds four durable
    /// subscribers with the same filters and runs over TCP.
    fn fanout(name: &'static str, seed: u64, per_tick: u64, burst: u64, deployed: bool) -> Self {
        let domain = Domain::stock();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
        let filters: Vec<Filter> = (0..PROBES)
            .map(|k| domain.symbol_filter(&symbol_name(k)))
            .collect();
        let mut contents = Vec::new();
        for k in 0..PROBES {
            for _ in 0..256 {
                let price = f64::from(rng.gen_range(100..100_000u32)) / 100.0;
                contents.push(Content::new(&domain, symbol_name(k), price));
            }
        }
        let mut initial: Vec<SubSpec> = (0..PROBES)
            .map(|k| SubSpec {
                role: SubRole::Probe,
                branches: vec![k],
            })
            .collect();
        if deployed {
            initial.extend((0..PROBES).map(|k| SubSpec {
                role: SubRole::Durable,
                branches: vec![k],
            }));
        }
        let mix = vec![MixPart {
            percent: 100,
            start: 0,
            len: contents.len(),
        }];
        Self {
            name,
            domain,
            // The durable path sustains some 2 000 events/s: one event per
            // 2 ms tick is a quarter of that.
            tick: Duration::from_millis(if deployed { 2 } else { 1 }),
            per_tick: per_tick.max(1),
            burst,
            tcp: deployed,
            durable: deployed,
            contents,
            filters,
            initial,
            churn: Vec::new(),
            mix,
            seed,
        }
    }

    /// `match-zipf` and `churn-mixed`: `subs` Zipf-drawn `symbol = S ∧ price
    /// < c` subscriptions as branches of eight subscribers, plus the
    /// probes; `batch > 0` adds ten later subscribers of `batch` branches.
    /// The event mix: 90% carry a popular symbol with a price above every
    /// ceiling (forwarded by the root's symbol-only filters, rejected at
    /// stage 1 after the full match), 5% are aimed at the probes, 5% carry
    /// a popular symbol and a price some subscriptions admit.
    fn zipf(
        name: &'static str,
        seed: u64,
        subs: usize,
        batch: usize,
        burst: u64,
        divisor: u64,
    ) -> Self {
        let domain = Domain::stock();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x21BF);
        // The pool does not shrink with the initial population, so that
        // churn-mixed draws from the population match-zipf uses.
        let groups = (1000 / divisor as usize).max(10);
        let pool = SubPool::new(&domain, groups, BUCKETS, 1.0);
        let pool_size = groups * BUCKETS;
        let mut filters: Vec<Filter> = (0..pool_size).map(|r| pool.filter_at(r)).collect();
        let probe_symbol = |k: usize| format!("PROBE{k}");
        filters.extend((0..PROBES).map(|k| domain.symbol_filter(&probe_symbol(k))));

        let draw =
            |n: usize, rng: &mut StdRng| -> Vec<usize> { (0..n).map(|_| pool.draw(rng)).collect() };
        let mut initial: Vec<SubSpec> = Vec::new();
        let ranks = draw(subs, &mut rng);
        for chunk in ranks.chunks(subs.div_ceil(ANY_SUBSCRIBERS)) {
            initial.push(SubSpec {
                role: SubRole::Plain,
                branches: chunk.to_vec(),
            });
        }
        initial.extend((0..PROBES).map(|k| SubSpec {
            role: SubRole::Probe,
            branches: vec![pool_size + k],
        }));
        let churn = if batch == 0 {
            Vec::new()
        } else {
            (0..CHURN_BATCHES)
                .map(|_| SubSpec {
                    role: SubRole::Plain,
                    branches: draw(batch, &mut rng),
                })
                .collect()
        };

        // Event symbols follow the subscriptions' popularity: an event names
        // the group of a rank drawn from the same Zipf law. The bodies are
        // drawn once, not per seed: a pool this small drawn from a law this
        // skewed differs enough from draw to draw to move the wire bytes per
        // event by a tenth, and the seed already decides which subscriptions
        // exist and which body each event carries.
        let mut pool_rng = StdRng::seed_from_u64(0xB0D1E5);
        let mut contents = Vec::new();
        let mut part = |percent: u64, n: usize, make: &mut dyn FnMut(&mut StdRng) -> Content| {
            let start = contents.len();
            for _ in 0..n {
                contents.push(make(&mut pool_rng));
            }
            MixPart {
                percent,
                start,
                len: n,
            }
        };
        let cents =
            |rng: &mut StdRng, range: std::ops::Range<u32>| f64::from(rng.gen_range(range)) / 100.0;
        let mix = vec![
            part(90, 1024, &mut |rng| {
                let group = pool.group_of(pool.draw(rng));
                Content::new(
                    &domain,
                    symbol_name(group),
                    MISS_PRICE + cents(rng, 0..10_000),
                )
            }),
            part(5, 64, &mut |rng| {
                let k = rng.gen_range(0..PROBES);
                Content::new(&domain, probe_symbol(k), cents(rng, 100..2_000))
            }),
            part(5, 512, &mut |rng| {
                let group = pool.group_of(pool.draw(rng));
                Content::new(&domain, symbol_name(group), cents(rng, 1..2_000))
            }),
        ];
        Self {
            name,
            domain,
            tick: Duration::from_millis(1),
            per_tick: (20 / divisor).max(1),
            burst,
            tcp: false,
            durable: false,
            contents,
            filters,
            initial,
            churn,
            mix,
            seed,
        }
    }

    /// Index into `contents` of the body event `seq` carries.
    pub fn content_of(&self, seq: u64) -> usize {
        let h = mix64(self.seed ^ mix64(seq));
        let mut pct = h % 100;
        for part in &self.mix {
            if pct < part.percent {
                return part.start + ((h >> 32) as usize) % part.len;
            }
            pct -= part.percent;
        }
        unreachable!("mix shares add up to 100")
    }

    pub fn branches(&self, spec: &SubSpec) -> Vec<Filter> {
        spec.branches
            .iter()
            .map(|&f| self.filters[f].clone())
            .collect()
    }

    pub fn oracle(&self) -> Oracle<'_> {
        Oracle {
            inputs: self,
            rows: vec![None; self.filters.len()],
        }
    }
}

/// The reference: which events each subscriber must receive, from naive
/// `Filter::matches` over the generated inputs. Each distinct filter is
/// evaluated once per distinct body; subscribers and events expand the
/// result by multiplicity.
pub struct Oracle<'a> {
    inputs: &'a Inputs,
    /// Per distinct filter, lazily: does it match body `c`?
    rows: Vec<Option<Vec<bool>>>,
}

/// Differences between what a subscriber received and what it had to.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diff {
    pub expected: u64,
    pub missing: u64,
    pub duplicate: u64,
    pub unexpected: u64,
}

impl Diff {
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicate + self.unexpected
    }
}

impl Oracle<'_> {
    /// Which bodies match any branch of `spec`.
    pub fn accepts(&mut self, spec: &SubSpec) -> Vec<bool> {
        let inputs = self.inputs;
        let mut any = vec![false; inputs.contents.len()];
        for &f in &spec.branches {
            let row = self.rows[f].get_or_insert_with(|| {
                inputs
                    .contents
                    .iter()
                    .map(|c| inputs.domain.matches(&inputs.filters[f], c))
                    .collect()
            });
            for (a, &m) in any.iter_mut().zip(row.iter()) {
                *a |= m;
            }
        }
        any
    }

    /// Checks one subscriber's deliveries. Events `0..published` were
    /// published; the subscriber must have every matching one from
    /// `required_from` on, may have matching ones from `allowed_from` on
    /// (those published while it was being placed), and nothing else.
    pub fn check(
        &mut self,
        spec: &SubSpec,
        delivered: &[u64],
        published: u64,
        allowed_from: u64,
        required_from: u64,
    ) -> Diff {
        let accepts = self.accepts(spec);
        let mut got = delivered.to_vec();
        got.sort_unstable();
        let mut diff = Diff::default();
        let mut i = 0;
        for seq in 0..published {
            let matching = accepts[self.inputs.content_of(seq)];
            let required = matching && seq >= required_from;
            let allowed = matching && seq >= allowed_from;
            let mut copies = 0u64;
            while i < got.len() && got[i] == seq {
                copies += 1;
                i += 1;
            }
            diff.expected += u64::from(required);
            if copies == 0 {
                diff.missing += u64::from(required);
            } else if allowed {
                diff.duplicate += copies - 1;
            } else {
                diff.unexpected += copies;
            }
        }
        // Seqs that were never published.
        diff.unexpected += (got.len() - i) as u64;
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written case: two bodies, two filters, one subscriber on
    /// each, with the event → body mapping replaced by a fixed table.
    #[test]
    fn oracle_counts_missing_duplicate_and_unexpected() {
        let inputs = Inputs::build("fanout-mpsc", 1, 20).expect("known workload");
        let mut oracle = inputs.oracle();
        let spec = &inputs.initial[0];
        let accepts = oracle.accepts(spec);
        // Probe 0 holds `symbol = SYM000`: it accepts exactly the bodies
        // with that symbol.
        for (c, &a) in inputs.contents.iter().zip(&accepts) {
            assert_eq!(a, c.symbol == symbol_name(0));
        }
        let published = 200;
        let truth: Vec<u64> = (0..published)
            .filter(|&s| accepts[inputs.content_of(s)])
            .collect();
        assert!(truth.len() > 10, "the case needs some matching events");
        assert_eq!(
            oracle.check(spec, &truth, published, 0, 0),
            Diff {
                expected: truth.len() as u64,
                ..Diff::default()
            }
        );

        let non_matching = (0..published)
            .find(|&s| !accepts[inputs.content_of(s)])
            .expect("three in four");
        let mut wrong = truth[1..].to_vec(); // one missing
        wrong.push(truth[5]); // one duplicate
        wrong.push(non_matching); // one it should not have
        wrong.push(published + 7); // one that was never published
        let diff = oracle.check(spec, &wrong, published, 0, 0);
        assert_eq!((diff.missing, diff.duplicate, diff.unexpected), (1, 1, 2));
        assert_eq!(diff.failed(), 4);
    }

    #[test]
    fn late_subscribers_get_a_grace_window() {
        let inputs = Inputs::build("fanout-mpsc", 2, 20).expect("known workload");
        let mut oracle = inputs.oracle();
        let spec = &inputs.initial[1];
        let accepts = oracle.accepts(spec);
        let truth: Vec<u64> = (0..300)
            .filter(|&s| accepts[inputs.content_of(s)])
            .collect();
        // Placed while events 100..150 were published: anything before 100
        // is an error, 100..150 is optional, 150.. is required.
        let from_120: Vec<u64> = truth.iter().copied().filter(|&s| s >= 120).collect();
        assert_eq!(oracle.check(spec, &from_120, 300, 100, 150).failed(), 0);
        let from_160: Vec<u64> = truth.iter().copied().filter(|&s| s >= 160).collect();
        assert!(oracle.check(spec, &from_160, 300, 100, 150).missing > 0);
        let from_90: Vec<u64> = truth.iter().copied().filter(|&s| s >= 90).collect();
        assert!(oracle.check(spec, &from_90, 300, 100, 150).unexpected > 0);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::build("match-zipf", 7, 20).expect("known workload");
        let b = Inputs::build("match-zipf", 7, 20).expect("known workload");
        let c = Inputs::build("match-zipf", 8, 20).expect("known workload");
        let bodies = |i: &Inputs| (0..500).map(|s| i.content_of(s)).collect::<Vec<_>>();
        let subs = |i: &Inputs| {
            i.initial
                .iter()
                .map(|s| s.branches.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(&a), bodies(&b));
        assert_eq!(subs(&a), subs(&b));
        assert_ne!(bodies(&a), bodies(&c));
        assert_ne!(subs(&a), subs(&c));
        // The mix: about nine in ten events miss every ceiling.
        let misses = (0..10_000)
            .filter(|&s| a.contents[a.content_of(s)].price >= MISS_PRICE)
            .count();
        assert!(
            (8_800..9_200).contains(&misses),
            "{misses} of 10000 events miss"
        );
    }
}
