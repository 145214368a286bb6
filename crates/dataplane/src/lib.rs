//! # bgpsim-dataplane
//!
//! The packet-forwarding plane for the `bgpsim` BGP route-looping study
//! (ICDCS 2004 reproduction): CBR traffic sources, time-indexed
//! forwarding tables, a hop-by-hop packet replay engine with TTL
//! accounting, and a forwarding-loop scanner.
//!
//! ## Design
//!
//! The study runs the data plane at a rate low enough that congestion
//! never occurs (§4.2), so packets never influence routing. That makes
//! the coupling one-directional: the control-plane simulation records
//! each node's FIB changes as a piecewise-constant history
//! ([`fib::NetworkFib`]), and packets are *replayed* against it
//! ([`replay::walk_packet`]) — hop timings, in-flight table changes and
//! TTL exhaustion all behave exactly as in a fully interleaved
//! simulation, at a fraction of the cost. The `bgpsim-sim` crate
//! contains an event-driven forwarder used to cross-validate the
//! equivalence.
//!
//! Production measurement replays whole fleets through the
//! [`epoch::EpochIndex`]: the prefix's FIB history is cut into
//! *epochs* at its change instants, and one live FIB snapshot sweeps
//! them in order. Each epoch's frozen forwarding graph gets a lazily
//! computed per-node fate table (delivered at distance `d`, no route
//! after `d` hops, or a tail into a cycle), so a packet costs `O(1)`
//! per epoch boundary it crosses rather than one lookup per hop
//! ([`replay::sweep`]). The sweep reads its packets as a time-ordered
//! launch stream ([`source::fleet_send_times`]) and hands each fate to
//! a sink as it is sealed, so measuring a run materializes neither
//! packets nor fates; the batch functions ([`replay::walk_indexed_batch`],
//! [`replay::walk_all_batched`]) wrap the same sweep for callers that
//! hold a packet slice. Fates are bit-identical to the per-packet walk
//! (property-tested); the same index hands its change stream to the
//! loop census ([`loopscan::loop_census_deltas`]) so one pass serves
//! both.
//!
//! ## Example
//!
//! ```
//! use bgpsim_dataplane::prelude::*;
//! use bgpsim_core::{FibEntry, Prefix};
//! use bgpsim_netsim::time::{SimDuration, SimTime};
//! use bgpsim_topology::NodeId;
//!
//! // A two-node forwarding loop (paper Figure 1(b)).
//! let p = Prefix::new(0);
//! let mut fib = NetworkFib::new(2);
//! fib.record(NodeId::new(0), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(1))));
//! fib.record(NodeId::new(1), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(0))));
//!
//! let pkt = Packet { id: 0, src: NodeId::new(0), prefix: p, ttl: DEFAULT_TTL, sent_at: SimTime::ZERO };
//! let fate = walk_packet(&fib, &pkt, SimDuration::from_millis(2));
//! assert!(fate.is_ttl_exhausted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod fib;
pub mod loopscan;
pub mod packet;
pub mod replay;
pub mod source;

pub use epoch::EpochIndex;
pub use fib::{FibDeltas, FibHistory, NetworkFib};
pub use loopscan::{find_loops, loop_census, loop_census_deltas, loop_census_full, LoopRecord};
pub use packet::{Packet, PacketFate, DEFAULT_TTL};
pub use replay::{
    generate_packets, sweep, walk_all, walk_all_batched, walk_all_batched_stats,
    walk_indexed_batch, walk_packet, walk_packet_traced, Launch, ReplayStats,
};
pub use source::{fleet_send_times, paper_sources, CbrSource};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::epoch::EpochIndex;
    pub use crate::fib::{FibDeltas, FibHistory, NetworkFib};
    pub use crate::loopscan::{
        find_loops, loop_census, loop_census_deltas, loop_census_full, LoopRecord,
    };
    pub use crate::packet::{Packet, PacketFate, DEFAULT_TTL};
    pub use crate::replay::{
        generate_packets, walk_all, walk_all_batched, walk_all_batched_stats, walk_indexed_batch,
        walk_packet, walk_packet_traced, Launch, ReplayStats,
    };
    pub use crate::source::{fleet_send_times, paper_sources, CbrSource};
}
