//! One-call measurement pipeline.
//!
//! Runs the study's full measurement procedure on a completed
//! control-plane run as one streamed pass: the CBR fleet's send
//! instants, merged in time order ([`fleet_send_times`]), feed the
//! epoch sweep ([`sweep`]), and every fate folds into a [`FateTally`]
//! as it is sealed. No packet or fate is ever stored: besides the run
//! record, the pass keeps the epoch index, the sweep's snapshot and
//! fate table (sized by nodes and epochs), the packets in flight, and
//! the loop census.
//!
//! The replay and the loop census share one
//! [`EpochIndex`](bgpsim_dataplane::EpochIndex) built from
//! the run's FIB history: the census consumes the same delta stream
//! the sweep advances through, so the whole measurement makes a single
//! pass over the recorded history. The naive per-packet
//! [`walk_all`](bgpsim_dataplane::walk_all) is kept as the oracle and
//! cross-checked in tests and CI.

use bgpsim_core::Prefix;
use bgpsim_dataplane::{
    fleet_send_times, paper_sources, sweep, Launch, LoopRecord, ReplayStats, DEFAULT_TTL,
};
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::RunRecord;
use bgpsim_topology::NodeId;

use crate::churn::ChurnSummary;
use crate::loop_stats::{summarize, LoopCensusSummary};
use crate::report::{FateTally, PaperMetrics};

/// Everything measured about one run.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// The paper's four metrics (plus supporting counts).
    pub metrics: PaperMetrics,
    /// Every loop episode observed in the forwarding history.
    pub census: Vec<LoopRecord>,
    /// Aggregate loop statistics.
    pub census_summary: LoopCensusSummary,
    /// What the fault layer did to the run (all zeros when fault-free).
    pub churn: ChurnSummary,
    /// Replay-engine counters (packets, packets sealed at launch,
    /// boundary-crossing packets, epoch count).
    pub replay: ReplayStats,
}

/// Measures a completed run.
///
/// Traffic follows the paper's setup: every node except `destination`
/// sends 10 packets/s with a random phase (seeded by `traffic_seed`),
/// over the record's [`replay_window`](RunRecord::replay_window) — from
/// the failure instant until convergence ends, extended by one packet
/// lifetime so late loops are still sampled.
pub fn measure_run(
    record: &RunRecord,
    destination: NodeId,
    prefix: Prefix,
    traffic_seed: u64,
) -> RunMeasurement {
    let mut traffic_rng = SimRng::new(traffic_seed).fork(0xDA7A);
    let sources = paper_sources(record.node_count, destination, &mut traffic_rng);
    let (start, end) = record.replay_window();
    // The tag a launch carries to its fate is its send instant: all the
    // tally needs to place the packet in the convergence window.
    let launches = fleet_send_times(&sources, start, end).map(|(src, sent_at)| Launch {
        tag: sent_at,
        src,
        sent_at,
        ttl: DEFAULT_TTL,
    });
    let link_delay = SimDuration::from_millis(2);
    // One index serves both the packet replay and the loop census.
    let index = record.fib.epoch_index(prefix);
    let mut tally = FateTally::new(record);
    let replay = sweep(&index, launches, link_delay, |sent_at, fate| {
        tally.add(sent_at, &fate)
    });
    let metrics = tally.finish(record);
    let census = index.loop_census();
    let census_summary = summarize(&census);
    RunMeasurement {
        metrics,
        census,
        census_summary,
        churn: ChurnSummary::from_record(record),
        replay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::compute_metrics;
    use bgpsim_core::{BgpConfig, BgpMessage, FibEntry, Jitter};
    use bgpsim_dataplane::{generate_packets, walk_all, walk_indexed_batch};
    use bgpsim_netsim::time::SimTime;
    use bgpsim_sim::{ConvergenceExperiment, FailureEvent, UpdateSend};
    use bgpsim_topology::generators;
    use proptest::prelude::*;

    fn run_tdown_clique(n: usize, seed: u64) -> (RunRecord, RunMeasurement) {
        let g = generators::clique(n);
        let dest = NodeId::new(0);
        let prefix = Prefix::new(0);
        let record = ConvergenceExperiment::new(
            g,
            dest,
            FailureEvent::WithdrawPrefix {
                origin: dest,
                prefix,
            },
        )
        .with_config(BgpConfig::default().with_jitter(Jitter::SSFNET))
        .with_seed(seed)
        .run();
        let m = measure_run(&record, dest, prefix, seed);
        (record, m)
    }

    #[test]
    fn tdown_clique_shows_transient_loops() {
        // The paper's headline phenomenon: path-vector routing loops
        // during T_down convergence in a clique.
        let (record, m) = run_tdown_clique(8, 1);
        assert!(
            m.metrics.ttl_exhaustions > 0,
            "no loops observed in clique T_down"
        );
        assert!(m.metrics.packets_during_convergence > 0);
        assert!(m.metrics.looping_ratio > 0.0 && m.metrics.looping_ratio <= 1.0);
        let conv = record.convergence_time().unwrap();
        let looping = m.metrics.overall_looping_duration.unwrap();
        assert!(
            looping <= conv + SimDuration::from_secs(1),
            "looping duration {looping} cannot much exceed convergence {conv}"
        );
        // Loop census must agree that loops existed.
        assert!(m.census_summary.count > 0);
        assert!(m.census_summary.min_size >= 2);
        // After convergence, no loops remain (T_down: all routes gone).
        assert_eq!(m.census_summary.unresolved, 0);
    }

    #[test]
    fn no_loops_before_any_failure() {
        // A run with no failure: nothing to measure, nothing looping.
        let g = generators::clique(5);
        let mut net = bgpsim_sim::SimNetwork::new(
            &g,
            BgpConfig::default(),
            bgpsim_sim::SimParams::default(),
            2,
        );
        net.originate(NodeId::new(0), Prefix::new(0));
        net.run_to_quiescence(10_000_000);
        let record = net.into_record();
        let m = measure_run(&record, NodeId::new(0), Prefix::new(0), 2);
        assert_eq!(m.metrics.ttl_exhaustions, 0);
        assert_eq!(m.metrics.packets_during_convergence, 0);
        // Initial convergence of a clique creates no forwarding loops:
        // routes only ever improve from nothing.
        assert_eq!(m.census_summary.count, 0);
    }

    /// A run record over a random FIB history (per-node clocks, the
    /// loop-census proptests' scheme, here in milliseconds; a hop of 8
    /// or more withdraws the route), with the failure and the last
    /// update placed so the replay and convergence windows cut through
    /// the history.
    fn random_record(
        nodes: u32,
        raw: &[(u32, u32, u32)],
        fail_ms: u64,
        converged_after_ms: Option<u64>,
    ) -> RunRecord {
        let prefix = Prefix::new(0);
        let mut fib = bgpsim_dataplane::NetworkFib::new(nodes as usize);
        let mut clock = vec![0u64; nodes as usize];
        for &(node, dt, hop) in raw {
            let node = node % nodes;
            clock[node as usize] += u64::from(dt);
            // Mostly forwarding entries, so loops are common.
            let entry = match hop {
                h if h >= 8 => None,
                h if h % nodes == node => Some(FibEntry::Local),
                h => Some(FibEntry::Via(NodeId::new(h % nodes))),
            };
            let at = SimTime::from_millis(clock[node as usize]);
            fib.record(NodeId::new(node), prefix, at, entry);
        }
        let failure_at = SimTime::from_millis(fail_ms);
        let sends = converged_after_ms
            .map(|ms| UpdateSend {
                at: failure_at + SimDuration::from_millis(ms),
                from: NodeId::new(0),
                to: NodeId::new(1),
                withdraw: true,
                message: BgpMessage::withdraw(prefix),
            })
            .into_iter()
            .collect();
        RunRecord {
            node_count: nodes as usize,
            failure_at: Some(failure_at),
            sends,
            fib,
            ..RunRecord::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streamed measurement equals the batch path on random
        /// histories: the metrics of the materialized fleet's oracle
        /// fates, and the counters of `walk_indexed_batch` over it.
        #[test]
        fn streamed_measure_run_equals_batch_on_random_histories(
            raw in proptest::collection::vec((0u32..8, 0u32..100, 0u32..10), 8..60),
            nodes in 2u32..8,
            dest in 0u32..8,
            fail_ms in 0u64..600,
            converged_after_ms in proptest::option::of(0u64..1_500),
            seed in 0u64..1_000,
        ) {
            let record = random_record(nodes, &raw, fail_ms, converged_after_ms);
            let dest = NodeId::new(dest % nodes);
            let prefix = Prefix::new(0);
            let streamed = measure_run(&record, dest, prefix, seed);

            let mut rng = SimRng::new(seed).fork(0xDA7A);
            let sources = paper_sources(record.node_count, dest, &mut rng);
            let (start, end) = record.replay_window();
            let packets = generate_packets(&sources, prefix, DEFAULT_TTL, start, end);
            let delay = SimDuration::from_millis(2);
            let fates = walk_all(&record.fib, &packets, delay);
            prop_assert_eq!(streamed.metrics, compute_metrics(&record, &packets, &fates));
            let (_, stats) = walk_indexed_batch(&record.fib.epoch_index(prefix), &packets, delay);
            prop_assert_eq!(streamed.replay, stats);
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let (_, a) = run_tdown_clique(6, 5);
        let (_, b) = run_tdown_clique(6, 5);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.census, b.census);
    }
}
