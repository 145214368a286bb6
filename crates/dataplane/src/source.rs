//! Constant-bit-rate traffic sources.
//!
//! The study gives every non-destination AS a host sending a constant
//! 10 packets/s stream toward the destination (§4.1), deliberately slow
//! enough that congestion and queueing are negligible. Each source gets
//! a random phase offset so the fleet does not fire in lockstep.
//! [`fleet_send_times`] merges a whole fleet's send instants into one
//! time-ordered stream, which the replay consumes without ever holding
//! the run's packets.

use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;

/// A periodic packet source at one AS.
///
/// # Examples
///
/// ```
/// use bgpsim_dataplane::source::CbrSource;
/// use bgpsim_netsim::time::{SimDuration, SimTime};
/// use bgpsim_topology::NodeId;
///
/// let src = CbrSource::new(
///     NodeId::new(3),
///     SimDuration::from_millis(100),
///     SimDuration::from_millis(40),
/// );
/// let times: Vec<_> = src
///     .send_times(SimTime::ZERO, SimTime::from_millis(250))
///     .collect();
/// assert_eq!(times.len(), 3); // 40 ms, 140 ms, 240 ms
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbrSource {
    node: NodeId,
    interval: SimDuration,
    phase: SimDuration,
}

impl CbrSource {
    /// Creates a source at `node` emitting every `interval`, offset by
    /// `phase` from the window start.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `phase >= interval`.
    pub fn new(node: NodeId, interval: SimDuration, phase: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(
            phase < interval,
            "phase {phase} must be smaller than interval {interval}"
        );
        CbrSource {
            node,
            interval,
            phase,
        }
    }

    /// Creates a source with a random phase drawn from `rng`.
    pub fn with_random_phase(node: NodeId, interval: SimDuration, rng: &mut SimRng) -> Self {
        let phase = SimDuration::from_nanos(rng.index(interval.as_nanos() as usize) as u64);
        CbrSource::new(node, interval, phase)
    }

    /// The source's AS.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The inter-packet interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The send instants within `[start, end)`.
    pub fn send_times(&self, start: SimTime, end: SimTime) -> SendTimes {
        SendTimes {
            next: start + self.phase,
            interval: self.interval,
            end,
        }
    }
}

/// Iterator over a source's send instants. Created by
/// [`CbrSource::send_times`].
#[derive(Debug, Clone)]
pub struct SendTimes {
    next: SimTime,
    interval: SimDuration,
    end: SimTime,
}

impl Iterator for SendTimes {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.next >= self.end {
            return None;
        }
        let t = self.next;
        self.next = t + self.interval;
        Some(t)
    }
}

/// Every send instant of a fleet within `[start, end)`, merged into one
/// nondecreasing stream of `(source node, sent_at)` pairs.
///
/// The sources must share one interval (as [`paper_sources`] does).
/// Sorted once by phase, they then fire round by round: round `r` holds
/// the instants `start + r × interval + phase`, all inside
/// `[start + r × interval, start + (r + 1) × interval)` because every
/// phase is below the interval. So the stream costs `O(1)` per packet
/// and keeps only the sorted fleet, whatever the window's length. It
/// yields exactly the pairs of every source's
/// [`send_times`](CbrSource::send_times), in time order.
///
/// # Panics
///
/// Panics if the sources' intervals differ.
///
/// # Examples
///
/// ```
/// use bgpsim_dataplane::source::{fleet_send_times, CbrSource};
/// use bgpsim_netsim::time::{SimDuration, SimTime};
/// use bgpsim_topology::NodeId;
///
/// let interval = SimDuration::from_millis(100);
/// let fleet = [
///     CbrSource::new(NodeId::new(1), interval, SimDuration::from_millis(60)),
///     CbrSource::new(NodeId::new(2), interval, SimDuration::from_millis(10)),
/// ];
/// let ms: Vec<(u32, u64)> = fleet_send_times(&fleet, SimTime::ZERO, SimTime::from_millis(200))
///     .map(|(node, at)| (node.index() as u32, at.as_nanos() / 1_000_000))
///     .collect();
/// assert_eq!(ms, [(2, 10), (1, 60), (2, 110), (1, 160)]);
/// ```
pub fn fleet_send_times(sources: &[CbrSource], start: SimTime, end: SimTime) -> FleetSendTimes {
    let interval = sources.first().map_or(SimDuration::ZERO, |s| s.interval);
    assert!(
        sources.iter().all(|s| s.interval == interval),
        "a fleet stream needs one common interval"
    );
    let mut by_phase: Vec<(SimDuration, NodeId)> =
        sources.iter().map(|s| (s.phase, s.node)).collect();
    by_phase.sort_by_key(|&(phase, _)| phase);
    FleetSendTimes {
        by_phase,
        interval,
        round: start,
        next: 0,
        end,
    }
}

/// Iterator over a fleet's send instants in time order. Created by
/// [`fleet_send_times`].
#[derive(Debug, Clone)]
pub struct FleetSendTimes {
    /// `(phase, node)` per source, ascending by phase.
    by_phase: Vec<(SimDuration, NodeId)>,
    interval: SimDuration,
    /// Start of the current round.
    round: SimTime,
    /// The source of the current round that fires next.
    next: usize,
    end: SimTime,
}

impl Iterator for FleetSendTimes {
    type Item = (NodeId, SimTime);

    fn next(&mut self) -> Option<(NodeId, SimTime)> {
        let &(phase, node) = self.by_phase.get(self.next)?;
        let at = self.round + phase;
        // Every later instant, in this round or the next, is later
        // still: the stream is over (and stays over).
        if at >= self.end {
            return None;
        }
        self.next += 1;
        if self.next == self.by_phase.len() {
            self.next = 0;
            self.round += self.interval;
        }
        Some((node, at))
    }
}

/// Builds the study's standard source fleet: one 10 pkt/s source per
/// node except the destination, each with a random phase.
pub fn paper_sources(node_count: usize, destination: NodeId, rng: &mut SimRng) -> Vec<CbrSource> {
    let interval = SimDuration::from_millis(100);
    (0..node_count as u32)
        .map(NodeId::new)
        .filter(|&n| n != destination)
        .map(|n| CbrSource::with_random_phase(n, interval, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_times_are_periodic() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::ZERO,
        );
        let times: Vec<u64> = s
            .send_times(SimTime::from_secs(1), SimTime::from_millis(1350))
            .map(|t| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(times, vec![1000, 1100, 1200, 1300]);
    }

    #[test]
    fn empty_window_yields_nothing() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(50),
        );
        assert_eq!(s.send_times(SimTime::ZERO, SimTime::ZERO).count(), 0);
        assert_eq!(
            s.send_times(SimTime::ZERO, SimTime::from_millis(50))
                .count(),
            0,
            "phase pushes first packet past the window"
        );
    }

    #[test]
    fn rate_matches_window_length() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(7),
        );
        let count = s.send_times(SimTime::ZERO, SimTime::from_secs(10)).count();
        assert_eq!(count, 100, "10 pkt/s for 10 s");
    }

    #[test]
    #[should_panic(expected = "phase")]
    fn phase_must_be_less_than_interval() {
        let _ = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        );
    }

    #[test]
    fn random_phase_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let s = CbrSource::with_random_phase(
                NodeId::new(1),
                SimDuration::from_millis(100),
                &mut rng,
            );
            assert!(s.phase < s.interval);
        }
    }

    #[test]
    fn paper_fleet_excludes_destination() {
        let mut rng = SimRng::new(4);
        let fleet = paper_sources(10, NodeId::new(3), &mut rng);
        assert_eq!(fleet.len(), 9);
        assert!(fleet.iter().all(|s| s.node() != NodeId::new(3)));
        assert!(fleet
            .iter()
            .all(|s| s.interval() == SimDuration::from_millis(100)));
    }

    #[test]
    fn fleet_stream_stays_exhausted() {
        let fleet = paper_sources(6, NodeId::new(0), &mut SimRng::new(2));
        let mut stream = fleet_send_times(&fleet, SimTime::ZERO, SimTime::from_millis(50));
        let early = stream.by_ref().count();
        assert!(early < fleet.len());
        assert_eq!(stream.next(), None);
        assert_eq!(
            fleet_send_times(&[], SimTime::ZERO, SimTime::MAX).count(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "one common interval")]
    fn fleet_stream_needs_one_interval() {
        let fleet = [
            CbrSource::new(
                NodeId::new(1),
                SimDuration::from_millis(100),
                SimDuration::ZERO,
            ),
            CbrSource::new(
                NodeId::new(2),
                SimDuration::from_millis(50),
                SimDuration::ZERO,
            ),
        ];
        let _ = fleet_send_times(&fleet, SimTime::ZERO, SimTime::from_secs(1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The fleet stream is time-ordered and yields exactly the
        /// multiset of `(src, sent_at)` that `generate_packets`
        /// materializes: random phases, windows
        /// shorter than one interval, empty windows and `start == end`.
        #[test]
        fn fleet_stream_equals_per_source_times(
            interval in 1u64..200,
            phases in proptest::collection::vec(0u64..1_000, 0..12),
            start in 0u64..1_000,
            shape in 0u32..3,
            raw_len in 0u64..3_000,
            backwards in proptest::any::<bool>(),
        ) {
            // `start == end`, shorter than one interval, or several.
            let len = match shape {
                0 => 0,
                1 => raw_len % interval,
                _ => raw_len,
            };
            let interval_d = SimDuration::from_nanos(interval);
            let fleet: Vec<CbrSource> = phases
                .iter()
                .enumerate()
                .map(|(i, &ph)| {
                    CbrSource::new(NodeId::new(i as u32), interval_d, SimDuration::from_nanos(ph % interval))
                })
                .collect();
            let start = SimTime::from_nanos(start);
            let end = if backwards {
                SimTime::from_nanos(start.as_nanos().saturating_sub(len))
            } else {
                start + SimDuration::from_nanos(len)
            };
            let streamed: Vec<(NodeId, SimTime)> = fleet_send_times(&fleet, start, end).collect();
            proptest::prop_assert!(streamed.windows(2).all(|w| w[0].1 <= w[1].1));
            let prefix = bgpsim_core::Prefix::new(0);
            let mut expected: Vec<(NodeId, SimTime)> =
                crate::replay::generate_packets(&fleet, prefix, 128, start, end)
                    .iter()
                    .map(|p| (p.src, p.sent_at))
                    .collect();
            let mut streamed = streamed;
            expected.sort();
            streamed.sort();
            proptest::prop_assert_eq!(streamed, expected);
        }
    }

    #[test]
    fn deterministic_fleet_for_same_seed() {
        let a = paper_sources(8, NodeId::new(0), &mut SimRng::new(9));
        let b = paper_sources(8, NodeId::new(0), &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}
