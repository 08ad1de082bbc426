//! Micro-benchmarks of the structures on the simulated critical path:
//! the region coherence array, the set-associative array behind every
//! cache, the memory system's event queue and the Figure-2 oracle.
//!
//! Every input stream is generated here from the run's seed; the library
//! code receives only the generated inputs. Each benchmark times
//! `REPS` passes over its stream, each pass after an untimed reset to
//! the same starting state, and reports the median host ns per operation.

use crate::clock::{median, ns};
use crate::Metric;
use cgct::{FillKind, RcaConfig, RegionCoherenceArray, RegionSnoopResponse};
use cgct_cache::{CacheConfig, LineSnoopResponse, RegionAddr, ReqKind, SetAssocArray};
use cgct_sim::{Cycle, EventQueue};
use std::hint::black_box;
use std::time::Instant;

/// Operations per timed pass.
const OPS: usize = 1 << 17;
/// Timed passes per benchmark; the median pass is reported.
const REPS: usize = 11;

const REQS: [ReqKind; 6] = [
    ReqKind::Read,
    ReqKind::ReadShared,
    ReqKind::ReadExclusive,
    ReqKind::Upgrade,
    ReqKind::Writeback,
    ReqKind::Dcbz,
];

/// A seeded input generator for the synthetic streams (SplitMix64).
/// It lives here, not in the library, so the library code receives only
/// the generated inputs.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Median ns per operation over `REPS` passes; `pass` is handed a fresh
/// state from `reset` and returns the host time of its timed part.
fn per_op<S>(mut reset: impl FnMut() -> S, mut pass: impl FnMut(&mut S) -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = reset();
            pass(&mut state) / OPS as f64
        })
        .collect();
    median(&samples)
}

/// Region addresses over 1.5x the RCA's 16K entries, so the stream mixes
/// hits, misses and evictions.
fn regions(rng: &mut SplitMix, entries: u64) -> Vec<RegionAddr> {
    (0..OPS)
        .map(|_| RegionAddr(rng.below(entries * 3 / 2)))
        .collect()
}

/// A paper-sized RCA (512 B regions, 8K sets x 2 ways) holding every
/// region of `fill`, with one cached line in every other one.
fn filled_rca(fill: &[RegionAddr]) -> RegionCoherenceArray {
    let mut rca = RegionCoherenceArray::new(RcaConfig::paper_default(512));
    for (i, &r) in fill.iter().enumerate() {
        rca.local_fill(r, FillKind::Exclusive, Some(RegionSnoopResponse::NONE), 0);
        if i % 2 == 0 {
            rca.line_cached(r);
        }
    }
    rca
}

fn rca(seed: u64) -> Vec<Metric> {
    let mut rng = SplitMix::new(seed ^ 0x5243_4100);
    let entries = RcaConfig::paper_default(512).entries() as u64;
    let fill = regions(&mut rng, entries);
    let fill = &fill[..entries as usize];
    let stream = regions(&mut rng, entries);
    let reqs: Vec<ReqKind> = (0..OPS).map(|_| REQS[rng.below(6) as usize]).collect();
    let fills: Vec<(FillKind, RegionSnoopResponse)> = (0..OPS)
        .map(|_| {
            let kind = if rng.below(2) == 0 {
                FillKind::Shared
            } else {
                FillKind::Exclusive
            };
            let response = RegionSnoopResponse {
                clean: rng.below(2) == 0,
                dirty: rng.below(4) == 0,
            };
            (kind, response)
        })
        .collect();
    let exclusive: Vec<bool> = (0..OPS).map(|_| rng.below(2) == 0).collect();

    let permission = per_op(
        || filled_rca(fill),
        |rca| {
            let t = Instant::now();
            for (&r, &q) in stream.iter().zip(&reqs) {
                black_box(rca.permission(r, q));
            }
            ns(t.elapsed())
        },
    );
    let local_fill = per_op(
        || filled_rca(fill),
        |rca| {
            let t = Instant::now();
            for (&r, &(kind, response)) in stream.iter().zip(&fills) {
                black_box(rca.local_fill(r, kind, Some(response), 0));
            }
            ns(t.elapsed())
        },
    );
    let external = per_op(
        || filled_rca(fill),
        |rca| {
            let t = Instant::now();
            for ((&r, &q), &x) in stream.iter().zip(&reqs).zip(&exclusive) {
                black_box(rca.external_request(r, q, x));
            }
            ns(t.elapsed())
        },
    );
    vec![
        Metric::new("rca.ns_per_permission", "ns", permission),
        Metric::new("rca.ns_per_local_fill", "ns", local_fill),
        Metric::new("rca.ns_per_external_request", "ns", external),
    ]
}

fn array(seed: u64) -> Vec<Metric> {
    let mut rng = SplitMix::new(seed ^ 0x4152_5241);
    let l2 = CacheConfig::paper_l2();
    let (sets, ways) = (l2.sets(), l2.ways);
    let capacity = (sets * ways) as u64;
    let keys: Vec<u64> = (0..OPS).map(|_| rng.below(capacity * 3 / 2)).collect();
    let warm: Vec<u64> = (0..capacity).map(|_| rng.below(capacity * 3 / 2)).collect();
    let warmed = || {
        let mut a: SetAssocArray<u64> = SetAssocArray::new(sets, ways);
        for &k in &warm {
            a.insert_lru(k, k);
        }
        a
    };
    let find = per_op(warmed, |a| {
        let t = Instant::now();
        for &k in &keys {
            black_box(a.access(k).is_some());
        }
        ns(t.elapsed())
    });
    let insert = per_op(warmed, |a| {
        let t = Instant::now();
        for &k in &keys {
            black_box(a.insert_lru(k, k));
        }
        ns(t.elapsed())
    });
    vec![
        Metric::new("array.ns_per_find", "ns", find),
        Metric::new("array.ns_per_insert", "ns", insert),
    ]
}

/// The completion-event queue's traffic on `scale64-dir`, as a traced
/// run of that workload measures it (its `event queue` line, seed 1):
/// an event finds 3,172 events pending on average when it is scheduled,
/// and waits 6,270 cycles on average before delivery.
const QUEUE_DEPTH: u64 = 3_172;
const QUEUE_MEAN_DELAY: u64 = 6_270;

fn event_queue(seed: u64) -> Vec<Metric> {
    let mut rng = SplitMix::new(seed ^ 0x4556_454e);
    // The public queue shows only how many events wait, not when each is
    // due, so the delays are uniform with the measured mean.
    let delays: Vec<u64> = (0..OPS)
        .map(|_| 1 + rng.below(2 * QUEUE_MEAN_DELAY - 1))
        .collect();
    let schedule_pop = per_op(
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            for (i, &d) in delays[..QUEUE_DEPTH as usize].iter().enumerate() {
                q.schedule(Cycle(d), i as u64);
            }
            q
        },
        |q| {
            let mut now = 0u64;
            let t = Instant::now();
            for (i, &d) in delays.iter().enumerate() {
                q.schedule(Cycle(now + d), i as u64);
                if let Some((at, payload)) = q.pop() {
                    now = at.0;
                    black_box(payload);
                }
            }
            ns(t.elapsed())
        },
    );
    vec![Metric::new("event.ns_per_schedule_pop", "ns", schedule_pop)]
}

fn oracle(seed: u64) -> Vec<Metric> {
    let mut rng = SplitMix::new(seed ^ 0x4f52_4143);
    let inputs: Vec<(ReqKind, LineSnoopResponse)> = (0..OPS)
        .map(|_| {
            let shared = rng.below(2) == 0;
            let response = LineSnoopResponse {
                shared,
                dirty: shared && rng.below(3) == 0,
                exclusive: shared && rng.below(4) == 0,
            };
            (REQS[rng.below(6) as usize], response)
        })
        .collect();
    let classify = per_op(
        || (),
        |_| {
            let t = Instant::now();
            for &(req, response) in &inputs {
                black_box(cgct_system::classify(black_box(req), black_box(response)));
            }
            ns(t.elapsed())
        },
    );
    vec![Metric::new("oracle.ns_per_classify", "ns", classify)]
}

/// Every micro-benchmark, seeded from the run's seed.
pub fn run(seed: u64) -> Vec<Metric> {
    let mut metrics = rca(seed);
    metrics.extend(array(seed));
    metrics.extend(event_queue(seed));
    metrics.extend(oracle(seed));
    metrics
}
