//! The model-checker workload: exhaustive exploration of two pinned
//! protocol configurations to their fixpoints.
//!
//! An operation is one exploration. The checker is exhaustive, so its
//! inputs are the configurations themselves; the seed only feeds a
//! traced run's simulation probe and micro-benchmarks.

use crate::clock::{median, ns, peak_rss_mb, rss_mb, secs, sum_of_medians, Tally};
use crate::{traced_outcome, Args, Checks, Metric, Outcome, TracedRound};
use cgct_sim::hash::StableHashSet;
use cgct_verify::model::{apply, enabled_events};
use cgct_verify::{explore, invariants, GlobalState, ModelConfig};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A configuration with the state and transition counts its fixpoint
/// must reach (the goldens `cgct-verify` regenerates).
struct Golden {
    label: &'static str,
    cfg: ModelConfig,
    states: u64,
    transitions: u64,
}

/// Snoop 3x2, the warm-up exploration of the set-up.
fn warmup_golden() -> Golden {
    Golden {
        label: "snoop 3x2",
        cfg: ModelConfig::default_3x2(),
        states: 4_947,
        transitions: 116_040,
    }
}

/// The measured explorations, largest first: `cgct-verify --protocol
/// dir-cgct` and `cgct-verify --nodes 4 --lines 2`.
fn measured_goldens() -> Vec<Golden> {
    vec![
        Golden {
            label: "dir-cgct 3x2",
            cfg: ModelConfig::directory_3x2(),
            states: 184_879,
            transitions: 4_496_964,
        },
        Golden {
            label: "snoop 4x2",
            cfg: ModelConfig {
                nodes: 4,
                ..ModelConfig::default_3x2()
            },
            states: 45_065,
            transitions: 1_422_368,
        },
    ]
}

/// Checks a finished exploration; returns whether every check passed.
fn check_exploration(
    g: &Golden,
    states: u64,
    transitions: u64,
    clean: bool,
    checks: &mut Checks,
) -> bool {
    let ok = checks.check("exploration_clean", clean, || {
        format!("{}: invariant violated", g.label)
    });
    ok & checks.check(
        "fixpoint_equals_golden",
        states == g.states && transitions == g.transitions,
        || {
            format!(
                "{}: {states} states / {transitions} transitions, golden {} / {}",
                g.label, g.states, g.transitions
            )
        },
    )
}

/// The set-up: build the configurations and explore the warm-up golden.
fn setup(checks: &mut Checks) -> (Vec<Golden>, bool) {
    let goldens = measured_goldens();
    let warm = warmup_golden();
    let r = explore(&warm.cfg);
    let ok = check_exploration(&warm, r.states, r.transitions, r.clean(), checks);
    (goldens, ok)
}

/// Set-ups timed per round. One set-up is a fraction of a second, so a
/// round repeats it and the set-up figure is the median of them all.
const SETUPS_PER_ROUND: usize = 5;

/// Untraced rounds, each the set-up followed by the measured
/// explorations, until `--seconds` have passed. Each exploration's time
/// is its median over the rounds, as in the simulation workloads.
pub fn run(args: &Args, checks: &mut Checks) -> Outcome {
    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut measured: Vec<Vec<f64>> = vec![Vec::new(); measured_goldens().len()];
    let mut work: Vec<u64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let mut goldens = Vec::new();
        for _ in 0..SETUPS_PER_ROUND {
            attempted += 1;
            let t = Instant::now();
            let (g, ok) = setup(checks);
            setups.push(secs(t));
            if !ok {
                failed += 1;
            }
            goldens = g;
        }
        let mut states = 0u64;
        for (i, g) in goldens.iter().enumerate() {
            attempted += 1;
            let t = Instant::now();
            let r = explore(&g.cfg);
            measured[i].push(secs(t));
            states += r.states;
            if !check_exploration(g, r.states, r.transitions, r.clean(), checks) {
                failed += 1;
            }
        }
        work.push(states);
        eprintln!(
            "round {}: measured {:.3} s",
            work.len(),
            measured.iter().map(|v| v[v.len() - 1]).sum::<f64>()
        );
        if secs(start) >= args.seconds {
            break;
        }
    }
    let setup_s = median(&setups);
    let measured_s = sum_of_medians(&measured);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("work_per_s", "1/s", work[0] as f64 / measured_s),
            Metric::new("wall_s", "s", setup_s + measured_s),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        ],
    }
}

/// Calls into each checker function and their host time.
#[derive(Default)]
struct Ledger {
    states: u64,
    transitions: u64,
    enabled: Tally,
    apply: Tally,
    encode: Tally,
    invariants: Tally,
    dedup: Tally,
}

/// Makes one call into a layer, timing it into `tally` when `TIMED`.
fn call<const TIMED: bool, R>(tally: &mut Tally, f: impl FnOnce() -> R) -> R {
    if TIMED {
        let t = Instant::now();
        let r = f();
        tally.add(t);
        r
    } else {
        f()
    }
}

/// Breadth-first search to the fixpoint over the checker's public
/// functions, timing each call when `TIMED`; the untimed instance is the
/// same search with its timers compiled out. It counts states and
/// transitions the way `explore` does. Returns whether every invariant
/// held.
fn bfs<const TIMED: bool>(cfg: &ModelConfig, l: &mut Ledger) -> bool {
    let mut seen: StableHashSet<u128> = StableHashSet::default();
    let mut queue: VecDeque<GlobalState> = VecDeque::new();
    let mut visit = |state: GlobalState, l: &mut Ledger, queue: &mut VecDeque<GlobalState>| {
        let key = call::<TIMED, _>(&mut l.encode, || state.encode());
        if !call::<TIMED, _>(&mut l.dedup, || seen.insert(key)) {
            return true;
        }
        l.states += 1;
        let clean = call::<TIMED, _>(&mut l.invariants, || invariants::check(&state).is_ok());
        queue.push_back(state);
        clean
    };
    if !visit(GlobalState::initial(cfg), l, &mut queue) {
        return false;
    }
    while let Some(state) = queue.pop_front() {
        let events = call::<TIMED, _>(&mut l.enabled, || enabled_events(cfg, &state));
        for event in events {
            l.transitions += 1;
            let next = call::<TIMED, _>(&mut l.apply, || apply(cfg, &state, event));
            if !visit(next, l, &mut queue) {
                return false;
            }
        }
    }
    true
}

/// Traced explorations: each golden is explored by `explore` (the
/// reference), then by the BFS with its timers compiled out and by the
/// timed BFS. A search whose counts differ from `explore`'s fails the
/// exploration. The tracing overhead is the timed over the untimed BFS,
/// the same search either way. The resident-set growth is the first
/// `explore`'s, so callers put the largest golden first.
fn trace_explorations(goldens: &[Golden], checks: &mut Checks) -> TracedRound {
    let mut l = Ledger::default();
    let (mut untimed, mut timed) = (Duration::ZERO, Duration::ZERO);
    let mut rss_growth = 0.0f64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for g in goldens {
        attempted += 1;
        let rss_before = rss_mb();
        let r = explore(&g.cfg);
        if attempted == 1 {
            rss_growth = peak_rss_mb() - rss_before;
        }
        let mut ok = check_exploration(g, r.states, r.transitions, r.clean(), checks);
        let expected = (r.states, r.transitions);
        drop(r);

        let mut bare = Ledger::default();
        let t = Instant::now();
        let bare_clean = bfs::<false>(&g.cfg, &mut bare);
        untimed += t.elapsed();
        let (states0, transitions0) = (l.states, l.transitions);
        let t = Instant::now();
        let clean = bfs::<true>(&g.cfg, &mut l);
        timed += t.elapsed();
        let (states, transitions) = (l.states - states0, l.transitions - transitions0);
        for (search, clean, counts) in [
            ("untimed", bare_clean, (bare.states, bare.transitions)),
            ("timed", clean, (states, transitions)),
        ] {
            ok &= checks.check(
                "traced_bfs_equals_explore",
                clean && counts == expected,
                || {
                    format!(
                        "{}: {search} BFS {} / {} (clean {clean}), explore {} / {}",
                        g.label, counts.0, counts.1, expected.0, expected.1
                    )
                },
            );
        }
        if !ok {
            failed += 1;
        }
    }
    TracedRound {
        attempted,
        failed,
        layer_metrics: layer_metrics(&l, rss_growth),
        overhead_ratio: ns(timed) / ns(untimed),
    }
}

/// One traced round of this workload. The simulation layers come from
/// the small probe cell of `sim::trace_probe`.
pub fn run_traced(args: &Args, checks: &mut Checks) -> Outcome {
    let own = trace_explorations(&measured_goldens(), checks);
    let probe = crate::sim::trace_probe(args.seed, checks);
    traced_outcome(own, probe, args.seed)
}

/// The checker layers for a workload that is not the checker's: one
/// traced exploration of the set-up golden (snoop 3x2).
pub fn trace_probe(checks: &mut Checks) -> TracedRound {
    trace_explorations(&[warmup_golden()], checks)
}

/// The checker's per-layer metrics.
fn layer_metrics(l: &Ledger, rss_growth_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("verify.states", "count", l.states as f64),
        Metric::new("verify.transitions", "count", l.transitions as f64),
        Metric::new(
            "verify.ns_per_enabled_events",
            "ns",
            l.enabled.ns_per_call(),
        ),
        Metric::new("verify.ns_per_apply", "ns", l.apply.ns_per_call()),
        Metric::new("verify.ns_per_encode", "ns", l.encode.ns_per_call()),
        Metric::new("verify.ns_per_invariants", "ns", l.invariants.ns_per_call()),
        Metric::new("verify.ns_per_dedup", "ns", l.dedup.ns_per_call()),
        Metric::new("verify.rss_growth_mb", "MB", rss_growth_mb),
    ]
}
