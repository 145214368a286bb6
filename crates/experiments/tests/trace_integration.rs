//! End-to-end tracing: enabling the JSONL trace sink must not change
//! any result, and the emitted event stream must agree with the
//! metrics pipeline's loop census.
//!
//! Everything lives in one test function because the trace sink is
//! process-wide (`OnceLock`): the untraced batch must run before the
//! sink is installed, and no other test in this binary may install a
//! competing sink.

use std::collections::BTreeMap;

use bgpsim_experiments::runner::Runner;
use bgpsim_experiments::{EventKind, Scenario, TopologySpec};
use bgpsim_trace::RawEvent;

/// One scenario per distinct seed, so trace lines (keyed by seed) map
/// back to exactly one run. Seed 11 is the paper's smallest looping
/// case: a 3-node clique withdrawing its destination.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(TopologySpec::Clique(3), EventKind::TDown).with_seed(11),
        Scenario::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(12),
    ]
}

fn jobs() -> Vec<bgpsim_experiments::runner::Job> {
    scenarios().into_iter().map(Scenario::into_job).collect()
}

#[derive(Default, PartialEq, Eq, Debug)]
struct LoopCounts {
    onsets: u64,
    offsets: u64,
    summary_loops: Option<u64>,
}

#[test]
fn tracing_changes_nothing_and_jsonl_matches_metrics() {
    // Ground truth straight from the measurement pipeline.
    let mut expected: BTreeMap<u64, LoopCounts> = BTreeMap::new();
    let mut direct_metrics = Vec::new();
    for scenario in scenarios() {
        let seed = scenario.seed;
        let result = scenario.run();
        let census = &result.measurement.census;
        expected.insert(
            seed,
            LoopCounts {
                onsets: census.len() as u64,
                offsets: census.iter().filter(|l| l.resolved_at.is_some()).count() as u64,
                summary_loops: Some(census.len() as u64),
            },
        );
        direct_metrics.push(result.measurement.metrics);
    }
    assert!(
        expected.values().all(|c| c.onsets > 0),
        "both scenarios must loop transiently or the test is vacuous: {expected:?}"
    );

    // Untraced batch, before any sink exists.
    let untraced = Runner::new(2).run_jobs(jobs()).unwrap();
    assert_eq!(untraced, direct_metrics);

    // Install the process-wide JSONL sink and run the same batch.
    let trace_path = std::env::temp_dir().join(format!(
        "bgpsim-trace-integration-{}.jsonl",
        std::process::id()
    ));
    bgpsim_trace::install_jsonl(&trace_path).unwrap();
    let traced = Runner::new(2).run_jobs(jobs()).unwrap();
    assert_eq!(
        untraced, traced,
        "tracing must not perturb the simulation in any observable way"
    );
    bgpsim_trace::flush_global();

    // Every line is a well-formed event; loop lines reconcile with the
    // census, per seed.
    let content = std::fs::read_to_string(&trace_path).unwrap();
    let mut observed: BTreeMap<u64, LoopCounts> = BTreeMap::new();
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        let raw: RawEvent = serde_json::from_str(line).unwrap_or_else(|e| {
            panic!("trace line is not valid JSON ({e:?}): {line}");
        });
        let kind = raw.kind().expect("every event has a kind").to_string();
        let seed = raw
            .get("seed")
            .and_then(|v| v.as_u64())
            .expect("every event has a seed");
        assert!(raw.get("t").and_then(|v| v.as_u64()).is_some(), "{line}");
        assert!(
            expected.contains_key(&seed),
            "event attributed to an unknown seed: {line}"
        );
        *kinds.entry(kind.clone()).or_default() += 1;
        let counts = observed.entry(seed).or_default();
        match kind.as_str() {
            "loop_onset" => counts.onsets += 1,
            "loop_offset" => counts.offsets += 1,
            "run_summary" => {
                counts.summary_loops = Some(raw.get("loops").and_then(|v| v.as_u64()).unwrap());
                let wall_ms = raw.get("wall_ms").and_then(|v| v.as_u64()).unwrap();
                assert!(wall_ms > 0, "an executed run reports its wall time: {line}");
            }
            _ => {}
        }
    }
    assert_eq!(
        observed, expected,
        "loop events in the trace must match the loop census"
    );
    // The hot-path instrumentation actually fired.
    for kind in ["event_dispatch", "update_rx", "update_tx", "rib_change"] {
        assert!(
            kinds.get(kind).copied().unwrap_or(0) > 0,
            "expected {kind} events in the trace; got kinds {kinds:?}"
        );
    }
    assert_eq!(kinds.get("run_summary").copied(), Some(2));

    std::fs::remove_file(&trace_path).unwrap();
}
