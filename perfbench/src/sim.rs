//! The simulation workloads: the paper's 4-node snooping SMP and the
//! 64-node directory and hierarchical machines.
//!
//! An operation is one cell: one benchmark on one machine, built, warmed
//! and measured. Untraced rounds time the library's own `Machine` loop.
//! The traced round drives each cell through a copy of that loop written
//! here, over the public `Core::tick` and `MemorySystem` seams, with
//! timing adapters on the `UopSource` and `MemoryInterface` boundaries;
//! its outcome must equal the untraced `Machine::run_warmed` result.

use crate::clock::{add, ns, peak_rss_mb, secs, sum_of_medians, Tally};
use crate::{traced_outcome, Args, Checks, Metric, Outcome, TracedRound};
use cgct_cache::Addr;
use cgct_cpu::{Core, MemoryInterface, Uop, UopSource};
use cgct_interconnect::{CoreId, Topology};
use cgct_sim::{Cycle, SeedSequence};
use cgct_system::{CoherenceMode, Machine, MemMetrics, MemorySystem, RunResult, SystemConfig};
use cgct_workloads::{BenchmarkSpec, WorkloadThread};
use std::time::{Duration, Instant};

/// One simulated machine running one benchmark.
pub struct Cell {
    label: String,
    cfg: SystemConfig,
    spec: BenchmarkSpec,
    warmup: u64,
    measure: u64,
}

/// The full evaluation plan's cycle cap: far above what any cell needs,
/// so a cell that reaches it is a fault, not a long run.
const MAX_CYCLES: u64 = 200_000_000;

const CGCT_512B: CoherenceMode = CoherenceMode::Cgct {
    region_bytes: 512,
    sets: 8192,
};

/// All nine Table-4 benchmarks under baseline and under CGCT (512 B
/// regions, 8K-set RCA) on the paper's 4-node bus, at the full plan's
/// 250k warm-up and 150k measured instructions per core.
pub fn smp4_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in cgct_workloads::all_benchmarks() {
        for mode in [CoherenceMode::Baseline, CGCT_512B] {
            cells.push(Cell {
                label: format!("smp4/{}/{}", spec.name, mode.label()),
                cfg: SystemConfig::paper_default(mode),
                spec: spec.clone(),
                warmup: 250_000,
                measure: 150_000,
            });
        }
    }
    cells
}

/// 64-node directory-with-RCA and clustered-hierarchy machines on two
/// benchmarks of the scalability sweep. The quotas are per core, so each
/// cell commits 64x as many instructions as one core's quota.
pub fn scale64_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for name in ["tpc-w", "barnes"] {
        let spec = cgct_workloads::by_name(name).expect("scalability benchmark exists");
        for mode in [
            CoherenceMode::DirectoryCgct {
                region_bytes: 512,
                sets: 8192,
            },
            CoherenceMode::Hierarchical {
                region_bytes: 512,
                sets: 8192,
            },
        ] {
            let mut cfg = SystemConfig::paper_default(mode);
            cfg.topology = Topology::for_cores(64);
            cells.push(Cell {
                label: format!("scale64/{name}/{}", mode.label()),
                cfg,
                spec: spec.clone(),
                warmup: 10_000,
                measure: 15_000,
            });
        }
    }
    cells
}

impl Cell {
    /// The library's machine for this cell, with every environment
    /// default pinned to the production loop: no tracing, no sanitizer,
    /// cycle skipping on, the single-threaded engine.
    fn machine(&self, seed: u64) -> Machine {
        let mut m = Machine::new(self.cfg.clone(), &self.spec, seed);
        m.set_trace(false);
        m.set_sanitize(false);
        m.set_cycle_skip(true);
        m.set_intra(None);
        m
    }

    fn cores(&self) -> usize {
        self.cfg.topology.total_cores()
    }
}

/// Checks one finished cell against properties every correct run has.
/// Returns whether every check passed.
fn check_cell(
    cell: &Cell,
    machine: &Machine,
    warm_truncated: bool,
    r: &RunResult,
    checks: &mut Checks,
) -> bool {
    let label = &cell.label;
    let mut ok = checks.check(
        "cell_not_truncated",
        !warm_truncated && !r.truncated,
        || format!("{label} hit the {}-cycle cap", MAX_CYCLES),
    );
    let width = cell.cfg.core.commit_width as u64;
    let quota_ok = r.committed_per_core.len() == cell.cores()
        && r.committed_per_core
            .iter()
            .all(|&c| c.abs_diff(cell.measure) < width);
    ok &= checks.check("commits_within_one_width_of_quota", quota_ok, || {
        format!(
            "{label}: per-core commits {:?}, quota {}, width {width}",
            r.committed_per_core, cell.measure
        )
    });
    let inv = machine.check_invariants();
    ok &= checks.check("machine_invariants", inv.is_ok(), || {
        format!("{label}: {}", inv.clone().err().unwrap_or_default())
    });
    let ids = counter_identities(cell.cfg.mode, &r.metrics);
    ok &= checks.check("counter_identities", ids.is_ok(), || {
        format!("{label}: {}", ids.clone().err().unwrap_or_default())
    });
    ok
}

/// The identities that follow from how `MemorySystem` records each
/// counter (`metrics.rs`): every request is counted once and takes
/// exactly one of three routes (broadcast, point-to-point, local).
fn counter_identities(mode: CoherenceMode, m: &MemMetrics) -> Result<(), String> {
    let routed = m.broadcasts + m.direct.total() + m.local.total();
    if m.requests.total() != routed {
        return Err(format!(
            "requests {} != broadcasts {} + direct {} + local {}",
            m.requests.total(),
            m.broadcasts,
            m.direct.total(),
            m.local.total()
        ));
    }
    for cat in cgct_system::RequestCategory::ALL {
        let (req, dir, loc, unn) = (
            m.requests.get(cat),
            m.direct.get(cat),
            m.local.get(cat),
            m.unnecessary.get(cat),
        );
        // What is left after the point-to-point and local routes is this
        // category's broadcasts; the oracle can only call those wasted.
        if dir + loc > req || unn > req - dir - loc {
            return Err(format!(
                "{cat:?}: requests {req}, direct {dir}, local {loc}, unnecessary {unn}"
            ));
        }
    }
    if m.l2_misses > m.l2_accesses || m.three_hop_transfers > m.cache_to_cache {
        return Err(format!(
            "l2 misses {} > accesses {}, or 3-hop {} > cache-to-cache {}",
            m.l2_misses, m.l2_accesses, m.three_hop_transfers, m.cache_to_cache
        ));
    }
    let directory = m.dir_lookups + m.dir_bypasses;
    let clustered = m.cluster_local_requests + m.cross_cluster_requests;
    // Directory machines have no bus: every home request that is not a
    // write-back either looks the directory up or bypasses the lookup.
    let home_consults = m.direct.total() - m.direct.writeback;
    let (direct, local) = (m.direct.total(), m.local.total());
    match mode {
        CoherenceMode::Baseline if direct + local + directory + clustered != 0 => Err(format!(
            "baseline routed direct {direct} / local {local} / directory {directory} / clustered {clustered}"
        )),
        CoherenceMode::Cgct { .. } if directory + clustered != 0 => Err(format!(
            "snooping CGCT counted directory {directory} / clustered {clustered}"
        )),
        CoherenceMode::DirectoryCgct { .. }
            if m.broadcasts + clustered != 0 || directory != home_consults =>
        {
            Err(format!(
                "dir-cgct: broadcasts {}, clustered {clustered}, lookups+bypasses {directory} vs non-writeback home requests {home_consults}",
                m.broadcasts
            ))
        }
        // Every broadcast-class request stays in its cluster or visits
        // another one.
        CoherenceMode::Hierarchical { .. } if clustered != m.broadcasts || directory != 0 => {
            Err(format!(
                "hier: cluster-local + cross-cluster {clustered} != broadcasts {}, directory {directory}",
                m.broadcasts
            ))
        }
        _ => Ok(()),
    }
}

/// Untraced rounds: every cell is built and warmed (the set-up), then
/// measured, until `--seconds` have passed. Host noise on a shared host
/// comes in bursts of a few seconds, so each cell's phases are taken as
/// their median over the rounds, and a round's figures are the sums of
/// those medians.
pub fn run(cells: &[Cell], args: &Args, checks: &mut Checks) -> Outcome {
    let start = Instant::now();
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut measured: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut work: Vec<u64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let mut round_work = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            attempted += 1;
            let t0 = Instant::now();
            let mut m = cell.machine(args.seed);
            let warm = m.run_warmed(cell.warmup, 0, MAX_CYCLES);
            let t1 = Instant::now();
            // `run` continues to the absolute commit target; the metrics
            // epoch set at the end of warm-up stays, so this is the
            // measured phase of `run_warmed(warmup, measure, cap)`.
            let r = m.run(cell.warmup + cell.measure, MAX_CYCLES);
            let t2 = Instant::now();
            setup[i].push((t1 - t0).as_secs_f64());
            measured[i].push((t2 - t1).as_secs_f64());
            round_work += r.committed;
            if !check_cell(cell, &m, warm.truncated, &r, checks) {
                failed += 1;
            }
        }
        work.push(round_work);
        let round = work.len() - 1;
        eprintln!(
            "round {}: set-up {:.3} s, measured {:.3} s",
            round + 1,
            setup.iter().map(|v| v[round]).sum::<f64>(),
            measured.iter().map(|v| v[round]).sum::<f64>()
        );
        if secs(start) >= args.seconds {
            break;
        }
    }
    checks.check(
        "rounds_repeat_exactly",
        work.iter().all(|&w| w == work[0]),
        || format!("committed instructions per round {work:?}"),
    );
    let measured_s = sum_of_medians(&measured);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("work_per_s", "1/s", work[0] as f64 / measured_s),
            Metric::new("wall_s", "s", sum_of_medians(&add(&setup, &measured))),
            Metric::new("setup_s", "s", sum_of_medians(&setup)),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        ],
    }
}

/// The four `MemorySystem` entry points a core calls.
#[derive(Default)]
struct MemTally {
    load: Tally,
    store: Tally,
    ifetch: Tally,
    dcbz: Tally,
    queue: QueueTraffic,
}

/// The completion-event queue's traffic as the public
/// `MemorySystem::events_pending` shows it. Only the cores' memory calls
/// schedule events and only `advance` delivers them, so the pending
/// count before and after a call gives the depth each of its events
/// found, and the pending count between two loop steps gives the
/// event-cycles spent waiting.
#[derive(Default)]
struct QueueTraffic {
    scheduled: u64,
    /// Sum over scheduled events of the pending count each found.
    depth_sum: u64,
    peak_depth: u64,
    /// Sum over loop steps of pending events x cycles to the next step.
    waiting_cycles: u64,
}

impl QueueTraffic {
    /// Records a memory call that moved the pending count from `before`
    /// to `after`.
    fn call(&mut self, before: usize, after: usize) {
        let (b, k) = (before as u64, after.saturating_sub(before) as u64);
        self.scheduled += k;
        self.depth_sum += k * b + k * k.saturating_sub(1) / 2;
        self.peak_depth = self.peak_depth.max(after as u64);
    }

    /// Mean pending count an event found when it was scheduled.
    fn mean_depth(&self) -> f64 {
        self.depth_sum as f64 / self.scheduled.max(1) as f64
    }

    /// Mean cycles from scheduling to delivery (Little's law: waiting
    /// event-cycles over events).
    fn mean_delay(&self) -> f64 {
        self.waiting_cycles as f64 / self.scheduled.max(1) as f64
    }
}

impl MemTally {
    fn time(&self) -> Duration {
        self.load.time + self.store.time + self.ifetch.time + self.dcbz.time
    }
}

/// Host time spent in each layer of one traced run, with the calls that
/// spent it.
#[derive(Default)]
struct Ledger {
    uop: Tally,
    tick: Tally,
    mem: MemTally,
    /// Traced run loops, warm-up and measured phase, machine build excluded.
    loop_time: Duration,
    /// Memory completion events delivered in both phases.
    mem_events: u64,
    /// Simulated cycles x cores, both phases.
    core_cycles: u64,
    /// Machine builds in the untraced reference runs.
    build_time: Duration,
    /// Untraced reference runs (build, warm-up, measured phase).
    untraced_time: Duration,
    /// Traced runs (build, warm-up, measured phase).
    traced_time: Duration,
}

/// `WorkloadThread` behind a timer on the `UopSource` boundary.
struct TimedSource<'a> {
    inner: &'a mut WorkloadThread,
    tally: &'a mut Tally,
}

impl UopSource for TimedSource<'_> {
    fn next_uop(&mut self) -> Uop {
        let t = Instant::now();
        let u = self.inner.next_uop();
        self.tally.add(t);
        u
    }
}

/// One core's port into the memory system behind a timer on the
/// `MemoryInterface` boundary (the library's own port, plus timing).
struct TimedPort<'a> {
    mem: &'a mut MemorySystem,
    core: CoreId,
    tally: &'a mut MemTally,
}

impl MemoryInterface for TimedPort<'_> {
    fn ifetch(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let pending = self.mem.events_pending();
        let t = Instant::now();
        let done = self.mem.ifetch(self.core, now, addr);
        self.tally.ifetch.add(t);
        self.tally.queue.call(pending, self.mem.events_pending());
        done
    }
    fn load(&mut self, now: Cycle, addr: Addr, store_intent: bool) -> Cycle {
        let pending = self.mem.events_pending();
        let t = Instant::now();
        let done = self.mem.load(self.core, now, addr, store_intent);
        self.tally.load.add(t);
        self.tally.queue.call(pending, self.mem.events_pending());
        done
    }
    fn store(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let pending = self.mem.events_pending();
        let t = Instant::now();
        let done = self.mem.store(self.core, now, addr);
        self.tally.store.add(t);
        self.tally.queue.call(pending, self.mem.events_pending());
        done
    }
    fn dcbz(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let pending = self.mem.events_pending();
        let t = Instant::now();
        let done = self.mem.dcbz(self.core, now, addr);
        self.tally.dcbz.add(t);
        self.tally.queue.call(pending, self.mem.events_pending());
        done
    }
}

/// A machine assembled from the library's parts exactly as
/// `Machine::new` assembles it, run by a copy of `Machine::run_until`.
struct TracedMachine {
    cores: Vec<Core>,
    threads: Vec<WorkloadThread>,
    mem: MemorySystem,
    wakeups: Vec<Cycle>,
    now: Cycle,
}

/// The architectural outcome compared between traced and untraced runs.
#[derive(Debug, PartialEq)]
struct CellOutcome {
    runtime_cycles: u64,
    committed_per_core: Vec<u64>,
    mem_events: u64,
    metrics: String,
    truncated: bool,
}

impl CellOutcome {
    fn of(r: &RunResult) -> Self {
        CellOutcome {
            runtime_cycles: r.runtime_cycles,
            committed_per_core: r.committed_per_core.clone(),
            mem_events: r.mem_events,
            // Every counter of `MemMetrics`, field by field.
            metrics: format!("{:?}", r.metrics),
            truncated: r.truncated,
        }
    }
}

impl TracedMachine {
    fn new(cell: &Cell, seed: u64) -> Self {
        let seq = SeedSequence::new(seed);
        let n = cell.cores();
        let mut mem = MemorySystem::new(cell.cfg.clone(), seq.stream(1000));
        mem.set_sanitize(false);
        TracedMachine {
            cores: (0..n).map(|_| Core::new(cell.cfg.core)).collect(),
            threads: (0..n)
                .map(|c| WorkloadThread::new(cell.spec.clone(), c, n, seq.stream(c as u64)))
                .collect(),
            mem,
            wakeups: vec![Cycle::ZERO; n],
            now: Cycle::ZERO,
        }
    }

    /// `Machine::run_until` with cycle skipping on, timing each tick and
    /// (through the adapters) each call the tick makes.
    fn run_until(&mut self, target: u64, ledger: &mut Ledger) -> bool {
        let n = self.cores.len();
        let mut unfinished: Vec<usize> = (0..n)
            .filter(|&i| self.cores[i].committed() < target)
            .collect();
        loop {
            if unfinished.is_empty() {
                return false;
            }
            if self.now.0 >= MAX_CYCLES {
                return true;
            }
            let mut earliest = u64::MAX;
            let now = self.now;
            unfinished.retain(|&i| {
                if self.wakeups[i] <= now {
                    let mut port = TimedPort {
                        mem: &mut self.mem,
                        core: CoreId(i),
                        tally: &mut ledger.mem,
                    };
                    let mut src = TimedSource {
                        inner: &mut self.threads[i],
                        tally: &mut ledger.uop,
                    };
                    let t = Instant::now();
                    let w = self.cores[i].tick(now, &mut port, &mut src);
                    ledger.tick.add(t);
                    self.wakeups[i] = w.0;
                    if self.cores[i].committed() >= target {
                        return false;
                    }
                }
                earliest = earliest.min(self.wakeups[i].0);
                true
            });
            let mut next = now.0 + 1;
            if earliest != u64::MAX && earliest > next {
                next = earliest;
            }
            if let Some(t) = self.mem.next_event_time() {
                next = next.min(t.0.max(now.0 + 1));
            }
            let next = next.min(MAX_CYCLES);
            ledger.mem.queue.waiting_cycles += self.mem.events_pending() as u64 * (next - now.0);
            self.now = Cycle(next);
            self.mem.advance(self.now);
        }
    }

    /// Warm-up, metrics reset, measured phase: `Machine::run_warmed`.
    fn run_warmed(&mut self, cell: &Cell, ledger: &mut Ledger) -> CellOutcome {
        let t = Instant::now();
        let mut truncated = self.run_until(cell.warmup, ledger);
        ledger.mem_events += self.mem.events_delivered();
        let epoch = self.now;
        self.mem.reset_metrics(epoch);
        let epoch_committed: Vec<u64> = self.cores.iter().map(|c| c.committed()).collect();
        truncated |= self.run_until(cell.warmup + cell.measure, ledger);
        ledger.loop_time += t.elapsed();
        ledger.mem_events += self.mem.events_delivered();
        ledger.core_cycles += self.now.0 * self.cores.len() as u64;
        let runtime = self.now.0 - epoch.0;
        let mut metrics = self.mem.metrics.clone();
        metrics.finish(Cycle(runtime));
        CellOutcome {
            runtime_cycles: runtime,
            committed_per_core: self
                .cores
                .iter()
                .zip(&epoch_committed)
                .map(|(c, e)| c.committed() - e)
                .collect(),
            mem_events: self.mem.events_delivered(),
            metrics: format!("{metrics:?}"),
            truncated,
        }
    }
}

/// Traced cells: each runs untraced through `Machine::run_warmed` (the
/// reference) and then through the traced loop. A cell whose traced
/// outcome differs from the reference fails.
fn trace_cells(cells: &[Cell], seed: u64, checks: &mut Checks) -> TracedRound {
    let mut ledger = Ledger::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for cell in cells {
        attempted += 1;
        let t0 = Instant::now();
        let mut m = cell.machine(seed);
        let t1 = Instant::now();
        let reference = m.run_warmed(cell.warmup, cell.measure, MAX_CYCLES);
        let t2 = Instant::now();
        ledger.build_time += t1 - t0;
        ledger.untraced_time += t2 - t0;
        let mut ok = check_cell(cell, &m, false, &reference, checks);
        drop(m);

        let t3 = Instant::now();
        let mut traced = TracedMachine::new(cell, seed);
        let outcome = traced.run_warmed(cell, &mut ledger);
        ledger.traced_time += t3.elapsed();
        let expected = CellOutcome::of(&reference);
        ok &= checks.check("traced_equals_untraced", outcome == expected, || {
            format!("{}: traced {outcome:?}\nuntraced {expected:?}", cell.label)
        });
        if !ok {
            failed += 1;
        }
    }
    let queue = &ledger.mem.queue;
    println!(
        "event queue: {} events scheduled, mean depth at schedule {:.1}, peak depth {}, mean delay {:.1} cycles",
        queue.scheduled,
        queue.mean_depth(),
        queue.peak_depth,
        queue.mean_delay()
    );
    TracedRound {
        attempted,
        failed,
        layer_metrics: layer_metrics(&ledger),
        overhead_ratio: ns(ledger.traced_time) / ns(ledger.untraced_time),
    }
}

/// One traced round of a simulation workload. The checker layers come
/// from `checker::trace_probe`, run first so that its resident-set growth
/// is its own.
pub fn run_traced(cells: &[Cell], args: &Args, checks: &mut Checks) -> Outcome {
    let probe = crate::checker::trace_probe(checks);
    let own = trace_cells(cells, args.seed, checks);
    traced_outcome(own, probe, args.seed)
}

/// The simulation layers for a workload that simulates no machine: one
/// traced CGCT cell of ocean on the paper machine, at 20k warm-up and 10k
/// measured instructions per core.
pub fn trace_probe(seed: u64, checks: &mut Checks) -> TracedRound {
    let spec = cgct_workloads::by_name("ocean").expect("ocean is a Table-4 benchmark");
    let probe = Cell {
        label: format!("probe/ocean/{}", CGCT_512B.label()),
        cfg: SystemConfig::paper_default(CGCT_512B),
        spec,
        warmup: 20_000,
        measure: 10_000,
    };
    trace_cells(&[probe], seed, checks)
}

/// The simulation layers' per-layer metrics.
fn layer_metrics(l: &Ledger) -> Vec<Metric> {
    let memsys = l.mem.time();
    let cpu_self = l.tick.time.saturating_sub(memsys + l.uop.time);
    let loop_self = l.loop_time.saturating_sub(l.tick.time);
    let share = |d: Duration| ns(d) / ns(l.loop_time);
    let untraced_run = l.untraced_time - l.build_time;
    vec![
        Metric::new("machine.build_s", "s", l.build_time.as_secs_f64()),
        Metric::new("workloads.uops", "count", l.uop.calls as f64),
        Metric::new("workloads.ns_per_uop", "ns", l.uop.ns_per_call()),
        Metric::new("cpu.ticks", "count", l.tick.calls as f64),
        Metric::new(
            "cpu.self_ns_per_tick",
            "ns",
            ns(cpu_self) / l.tick.calls.max(1) as f64,
        ),
        Metric::new(
            "cpu.ticks_per_core_cycle",
            "ratio",
            l.tick.calls as f64 / l.core_cycles.max(1) as f64,
        ),
        Metric::new("memsys.loads", "count", l.mem.load.calls as f64),
        Metric::new("memsys.stores", "count", l.mem.store.calls as f64),
        Metric::new("memsys.ifetches", "count", l.mem.ifetch.calls as f64),
        Metric::new("memsys.dcbzs", "count", l.mem.dcbz.calls as f64),
        Metric::new("memsys.ns_per_load", "ns", l.mem.load.ns_per_call()),
        Metric::new("memsys.ns_per_ifetch", "ns", l.mem.ifetch.ns_per_call()),
        Metric::new("memsys.ns_per_store", "ns", l.mem.store.ns_per_call()),
        Metric::new("memsys.ns_per_dcbz", "ns", l.mem.dcbz.ns_per_call()),
        Metric::new("loop.mem_events", "count", l.mem_events as f64),
        Metric::new("loop.self_s", "s", loop_self.as_secs_f64()),
        Metric::new(
            "loop.host_ns_per_mem_event",
            "ns",
            ns(untraced_run) / l.mem_events.max(1) as f64,
        ),
        Metric::new("workloads.self_share", "ratio", share(l.uop.time)),
        Metric::new("cpu.self_share", "ratio", share(cpu_self)),
        Metric::new("memsys.self_share", "ratio", share(memsys)),
        Metric::new("loop.self_share", "ratio", share(loop_self)),
    ]
}
