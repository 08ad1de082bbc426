//! Host-time benchmark of the CGCT simulator and model checker.
//!
//! ```text
//! perfbench --workload <smp4-paper|scale64-dir|verify-fixpoints>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded process per run. With `--trace 0` the run repeats
//! whole rounds of its workload for `--seconds` host seconds and reports
//! the end-to-end metrics; with `--trace 1` it drives the same work
//! through timing adapters in this package (never inside the library
//! crates) and reports the per-layer ledger. Every correctness check runs
//! outside the timed phases; its outcome is printed as a `check` line,
//! and the last line of standard output is the JSON result.
//!
//! See `README.md` beside this package for what each metric covers.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
// ^ clippy mirror of lint rule D001 (clippy.toml): host time is what this
// benchmark measures, so it reads the wall clock by design, like the
// bench harness in crates/bench.

mod checker;
mod clock;
mod micro;
mod sim;

use std::process::ExitCode;

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Tally of correctness checks: every check is counted, every failure
/// is printed with its context.
#[derive(Default)]
pub struct Checks {
    tallies: Vec<(&'static str, u64, u64)>,
}

impl Checks {
    /// Records one outcome of check `name`; `detail` is printed on failure.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let slot = match self.tallies.iter().position(|t| t.0 == name) {
            Some(i) => i,
            None => {
                self.tallies.push((name, 0, 0));
                self.tallies.len() - 1
            }
        };
        self.tallies[slot].1 += 1;
        if !ok {
            self.tallies[slot].2 += 1;
            println!("check {name} FAILED: {}", detail());
        }
        ok
    }

    fn print(&self) {
        for (name, total, failed) in &self.tallies {
            let verdict = if *failed == 0 { "ok" } else { "FAILED" };
            println!(
                "check {name}: {verdict} ({}/{total} passed)",
                total - failed
            );
        }
    }

    fn all_passed(&self) -> bool {
        !self.tallies.is_empty() && self.tallies.iter().all(|t| t.2 == 0)
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// One traced round: its operations, its per-layer metrics and its
/// traced-over-untraced host time.
pub struct TracedRound {
    pub attempted: u64,
    pub failed: u64,
    pub layer_metrics: Vec<Metric>,
    pub overhead_ratio: f64,
}

/// A traced run's result: the workload's own traced round, the probe
/// round that covers the other workload family's layers, and the
/// micro-benchmarks. The tracing overhead is the workload's own.
pub fn traced_outcome(own: TracedRound, probe: TracedRound, seed: u64) -> Outcome {
    let mut metrics = own.layer_metrics;
    metrics.extend(probe.layer_metrics);
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        own.overhead_ratio,
    ));
    metrics.extend(micro::run(seed));
    Outcome {
        attempted: own.attempted + probe.attempted,
        failed: own.failed + probe.failed,
        metrics,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <smp4-paper|scale64-dir|verify-fixpoints> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_result(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("smp4-paper", false) => sim::run(&sim::smp4_cells(), &args, &mut checks),
        ("smp4-paper", true) => sim::run_traced(&sim::smp4_cells(), &args, &mut checks),
        ("scale64-dir", false) => sim::run(&sim::scale64_cells(), &args, &mut checks),
        ("scale64-dir", true) => sim::run_traced(&sim::scale64_cells(), &args, &mut checks),
        ("verify-fixpoints", false) => checker::run(&args, &mut checks),
        ("verify-fixpoints", true) => checker::run_traced(&args, &mut checks),
        (other, _) => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    checks.print();
    let correct = checks.all_passed();
    println!("{}", json_result(correct, &outcome));
    if correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
