//! The hidden `worker` mode shared by every binary that runs sweeps.
//!
//! Under isolation (`--isolate` / `BGPSIM_ISOLATE=1`) the runner's
//! supervisor spawns `current_exe() worker` once per attempt, so every
//! binary that can isolate must answer to `worker` as its first
//! argument: `bgpsim` dispatches it explicitly, and the figure binaries
//! and `churn` reach it through [`BinOptions::parse`]
//! (crate::binopts::BinOptions::parse).

use std::io::{Read, Write};

use bgpsim_runner::supervisor::{decode_request, encode_failure, encode_success};
use bgpsim_sim::RunBudget;
use bgpsim_trace::failpoint::{self, FailpointAction};

use crate::scenario::ScenarioSpec;

/// The first argument that turns a binary into an isolated worker.
pub const WORKER_ARG: &str = "worker";

/// Executes exactly one scenario run: reads a supervisor request from
/// stdin, runs it in this process, and prints one verdict line on
/// stdout. A run that trips its budget is reported as a failure
/// verdict, not a crash — the supervisor owns the wall-clock watchdog,
/// so a nonzero exit means the worker itself died. Failpoint injection
/// reaches the child through the `worker_run` site (ctx `seed=N`).
pub fn run() {
    let mut input = String::new();
    if std::io::stdin().read_to_string(&mut input).is_err() {
        eprintln!("worker: cannot read request from stdin");
        std::process::exit(3);
    }
    let request = match decode_request(&input) {
        Ok(request) => request,
        Err(err) => {
            println!("{}", encode_failure("worker", &err));
            return;
        }
    };
    // Deterministic fault injection for crash-tolerance tests: Abort
    // dies inside check(), Err exits nonzero (spawn-then-die), Torn
    // truncates the verdict line (lost-result).
    let injected = failpoint::check("worker_run", &format!("seed={}", request.seed));
    if matches!(injected, Some(FailpointAction::Err)) {
        eprintln!("worker: injected failure (worker_run)");
        std::process::exit(3);
    }
    let scenario = match ScenarioSpec::from_canonical_json(&request.scenario) {
        Ok(scenario) => scenario,
        Err(err) => {
            println!("{}", encode_failure("worker", &err));
            return;
        }
    };
    let mut limit = RunBudget::unlimited();
    if let Some(n) = request.max_events {
        limit = limit.with_max_events(n);
    }
    match scenario.run_budgeted(&limit) {
        Ok(result) => {
            let counters = result.counters();
            let line = encode_success(&result.measurement.metrics, Some(&counters));
            if matches!(injected, Some(FailpointAction::Torn)) {
                let half = &line.as_bytes()[..line.len() / 2];
                let mut out = std::io::stdout();
                let _ = out.write_all(half);
                let _ = out.flush();
            } else {
                println!("{line}");
            }
        }
        Err(stopped) => {
            println!("{}", encode_failure(stopped.phase, &stopped.to_string()));
        }
    }
}
