//! Packet replay against a forwarding history.
//!
//! [`walk_packet`] traces one packet hop by hop through the
//! time-indexed [`NetworkFib`]: at each AS it looks up the entry in
//! effect *at the packet's current time*, so forwarding-table changes
//! that happen while the packet is in flight are honored exactly as in
//! a fully interleaved event simulation (`bgpsim-sim` cross-checks
//! this equivalence).
//!
//! [`sweep`] is the production engine: it replays a stream of
//! [`Launch`]es epoch by epoch through a per-prefix [`EpochIndex`]'s
//! delta stream, keeping one live FIB snapshot and a lazily computed
//! per-epoch fate table (delivered at distance `d`, no route at a node
//! after `d` hops, or a tail of `d` hops into a cycle). A packet whose
//! fate instant precedes the next FIB change is resolved in `O(1)`;
//! one that outlives its epoch jumps to its first hop past the
//! boundary and is resolved again there, so the cost scales with epoch
//! crossings rather than hops. Each fate goes to a caller's sink as it
//! is sealed, and the sweep holds only the packets in flight, so a
//! streamed launch source ([`fleet_send_times`](crate::source::fleet_send_times))
//! replays a whole run in memory independent of its packet count.
//!
//! [`walk_indexed_batch`] and [`walk_all_batched`] are batch wrappers
//! over the same sweep: they sort a packet slice by launch epoch and
//! collect the fates in packet order. Fates are bit-identical to
//! per-packet [`walk_packet`] (property-tested here and in CI); the
//! naive walk is retained as the oracle.

use bgpsim_core::{FibEntry, Prefix};
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;

use crate::epoch::EpochIndex;
use crate::fib::{FibDeltas, NetworkFib};
use crate::packet::{Packet, PacketFate};

/// Per-hop record of a packet's trajectory (optional detailed output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The AS the packet was at.
    pub node: NodeId,
    /// The time it was there.
    pub at: SimTime,
}

/// Walks `packet` through `fib`, returning its fate.
///
/// Each hop costs `link_delay`; the TTL is decremented once per AS hop
/// (the paper's per-AS TTL model, §4.2).
///
/// # Examples
///
/// ```
/// use bgpsim_dataplane::fib::NetworkFib;
/// use bgpsim_dataplane::packet::{Packet, PacketFate, DEFAULT_TTL};
/// use bgpsim_dataplane::replay::walk_packet;
/// use bgpsim_core::{FibEntry, Prefix};
/// use bgpsim_netsim::time::{SimDuration, SimTime};
/// use bgpsim_topology::NodeId;
///
/// let p = Prefix::new(0);
/// let mut fib = NetworkFib::new(2);
/// fib.record(NodeId::new(0), p, SimTime::ZERO, Some(FibEntry::Local));
/// fib.record(NodeId::new(1), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(0))));
/// let pkt = Packet { id: 0, src: NodeId::new(1), prefix: p, ttl: DEFAULT_TTL, sent_at: SimTime::from_secs(1) };
/// let fate = walk_packet(&fib, &pkt, SimDuration::from_millis(2));
/// assert!(fate.is_delivered());
/// ```
pub fn walk_packet(fib: &NetworkFib, packet: &Packet, link_delay: SimDuration) -> PacketFate {
    walk_packet_traced(fib, packet, link_delay, None)
}

/// Like [`walk_packet`], but optionally records every hop into `trace`.
pub fn walk_packet_traced(
    fib: &NetworkFib,
    packet: &Packet,
    link_delay: SimDuration,
    mut trace: Option<&mut Vec<Hop>>,
) -> PacketFate {
    let mut node = packet.src;
    let mut at = packet.sent_at;
    let mut ttl = packet.ttl;
    if let Some(tr) = trace.as_deref_mut() {
        // A walk visits at most ttl + 1 nodes (one per TTL decrement
        // plus the fate node): reserve the bound once instead of
        // growing per hop.
        tr.reserve((packet.ttl as usize + 1).saturating_sub(tr.len()));
    }
    loop {
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(Hop { node, at });
        }
        match fib.lookup(node, packet.prefix, at) {
            Some(FibEntry::Local) => {
                return PacketFate::Delivered {
                    at,
                    hops: packet.ttl - ttl,
                }
            }
            None => return PacketFate::NoRoute { at, node },
            Some(FibEntry::Via(next)) => {
                if ttl == 0 {
                    return PacketFate::TtlExhausted { at, node };
                }
                ttl -= 1;
                at += link_delay;
                node = next;
            }
        }
    }
}

/// Walks a batch of packets and returns their fates in order.
///
/// This is the naive per-packet oracle: one independent time-indexed
/// FIB lookup per hop. Production measurement goes through
/// [`walk_all_batched`], which must (and is property-tested to)
/// produce identical fates.
pub fn walk_all(fib: &NetworkFib, packets: &[Packet], link_delay: SimDuration) -> Vec<PacketFate> {
    packets
        .iter()
        .map(|p| walk_packet(fib, p, link_delay))
        .collect()
}

/// Counters from one replay ([`sweep`], and the batch functions over
/// it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Packets replayed.
    pub packets: u64,
    /// Packets resolved at launch from their launch epoch's fate table
    /// (the fate instant precedes the next FIB change).
    pub memo_hits: u64,
    /// Packets that crossed at least one epoch boundary in flight
    /// (`packets - memo_hits`).
    pub walks: u64,
    /// Epoch boundaries (distinct FIB change instants) in the indexes
    /// the batch ran against.
    pub epochs: u64,
}

impl ReplayStats {
    /// Fraction of packets resolved at launch, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.packets as f64
        }
    }

    /// Folds another batch's counters into this one (all sums).
    pub fn merge(&mut self, other: &ReplayStats) {
        self.packets += other.packets;
        self.memo_hits += other.memo_hits;
        self.walks += other.walks;
        self.epochs += other.epochs;
    }
}

/// Batched replay: like [`walk_all`] (identical fates, in order), but
/// swept epoch by epoch through per-prefix [`EpochIndex`]es.
///
/// See [`walk_indexed_batch`] for the mechanics. Packets are grouped
/// by prefix and each group gets its own index; callers that already
/// built an index (one per run in `bgpsim-metrics`) should use
/// [`walk_indexed_batch`] directly.
pub fn walk_all_batched(
    fib: &NetworkFib,
    packets: &[Packet],
    link_delay: SimDuration,
) -> Vec<PacketFate> {
    walk_all_batched_stats(fib, packets, link_delay).0
}

/// [`walk_all_batched`] plus the batch's [`ReplayStats`].
pub fn walk_all_batched_stats(
    fib: &NetworkFib,
    packets: &[Packet],
    link_delay: SimDuration,
) -> (Vec<PacketFate>, ReplayStats) {
    let mut groups: std::collections::BTreeMap<Prefix, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, p) in packets.iter().enumerate() {
        groups.entry(p.prefix).or_default().push(i);
    }
    let mut fates: Vec<Option<PacketFate>> = vec![None; packets.len()];
    let mut stats = ReplayStats::default();
    for (prefix, group) in groups {
        let index = EpochIndex::build(fib, prefix);
        stats.merge(&sweep_batch(
            &index,
            packets,
            group.iter().copied(),
            link_delay,
            &mut fates,
        ));
    }
    let fates = fates
        .into_iter()
        .map(|f| f.expect("every packet is in exactly one prefix group"))
        .collect();
    (fates, stats)
}

/// Replays `packets` (all toward `index.prefix()`) against a prebuilt
/// [`EpochIndex`], returning fates in packet order plus the batch's
/// [`ReplayStats`].
///
/// Mechanics: one live FIB snapshot advances through the index's delta
/// stream, epoch by epoch; the `(node, epoch)` table is never read. In
/// each epoch the packets launched in it and those carried over from
/// earlier epochs are resolved from the epoch's fate table, computed
/// lazily per node. Inside a frozen forwarding graph a packet follows
/// its node's static path, so when its fate instant precedes the next
/// FIB change the fate is exactly what [`walk_packet`] would compute.
/// Otherwise the packet moves along the frozen path to its first hop at
/// or after the boundary and is carried to that hop's epoch.
pub fn walk_indexed_batch(
    index: &EpochIndex,
    packets: &[Packet],
    link_delay: SimDuration,
) -> (Vec<PacketFate>, ReplayStats) {
    debug_assert!(
        packets.iter().all(|p| p.prefix == index.prefix()),
        "every packet must target the indexed prefix"
    );
    let mut fates: Vec<Option<PacketFate>> = vec![None; packets.len()];
    let stats = sweep_batch(index, packets, 0..packets.len(), link_delay, &mut fates);
    let fates = fates
        .into_iter()
        .map(|f| f.expect("every packet was walked"))
        .collect();
    (fates, stats)
}

/// Where a packet standing at a node ends up inside one frozen epoch,
/// if the forwarding graph never changed again.
#[derive(Debug, Clone, Copy)]
enum NodeFate {
    /// Reaches the origin `d` hops downstream.
    Delivered { d: u32 },
    /// Dropped `d` hops downstream at `node`, which has no route.
    NoRoute { d: u32, node: NodeId },
    /// Enters a forwarding cycle after a tail of `d` hops. The cycle is
    /// `cycles[start..start + len]` in forwarding order, and the tail
    /// joins it at offset `pos`.
    Cycle {
        d: u32,
        start: u32,
        len: u32,
        pos: u32,
    },
    /// Scratch mark while a resolution walk is in progress: the node
    /// sits at this index of the walk's path.
    OnPath(u32),
}

impl NodeFate {
    /// The fate of a node that forwards to a node with fate `self`.
    fn upstream(self) -> NodeFate {
        match self {
            NodeFate::Delivered { d } => NodeFate::Delivered { d: d + 1 },
            NodeFate::NoRoute { d, node } => NodeFate::NoRoute { d: d + 1, node },
            NodeFate::Cycle { d, start, len, pos } => NodeFate::Cycle {
                d: d + 1,
                start,
                len,
                pos,
            },
            NodeFate::OnPath(_) => unreachable!("a path mark never leaves its resolution walk"),
        }
    }
}

/// The live FIB snapshot of the current epoch plus its lazily computed
/// per-node fate table. A node's fate is valid while its stamp equals
/// the epoch stamp; a snapshot change bumps the epoch stamp, which
/// invalidates every fate at once without touching the table.
struct EpochFates {
    snapshot: Vec<Option<FibEntry>>,
    fates: Vec<NodeFate>,
    stamps: Vec<u32>,
    stamp: u32,
    /// Every cycle resolved under the current stamp, back to back.
    cycles: Vec<NodeId>,
    /// Scratch: the resolution walk's path.
    path: Vec<NodeId>,
}

impl EpochFates {
    /// The all-`None` snapshot of epoch 0.
    fn new(node_count: usize) -> Self {
        EpochFates {
            snapshot: vec![None; node_count],
            fates: vec![NodeFate::Delivered { d: 0 }; node_count],
            stamps: vec![0; node_count],
            stamp: 1,
            cycles: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Applies one epoch's deltas to the snapshot, invalidating the
    /// fate table if any entry actually changed.
    fn apply(&mut self, deltas: &FibDeltas) {
        let mut changed = false;
        for &(node, entry) in deltas {
            let slot = &mut self.snapshot[node.index()];
            changed |= *slot != entry;
            *slot = entry;
        }
        if changed {
            self.stamp += 1;
            self.cycles.clear();
        }
    }

    /// The fate of `node` in the current snapshot, resolving it (and
    /// every node downstream of it) on first use.
    #[inline]
    fn fate(&mut self, node: NodeId) -> NodeFate {
        if self.stamps[node.index()] == self.stamp {
            return self.fates[node.index()];
        }
        self.resolve_fate(node)
    }

    /// [`fate`](Self::fate)'s slow path, kept out of line so the cached
    /// lookup inlines into the sweep.
    #[inline(never)]
    fn resolve_fate(&mut self, node: NodeId) -> NodeFate {
        self.path.clear();
        let mut u = node;
        let mut below = loop {
            let i = u.index();
            if self.stamps[i] == self.stamp {
                let NodeFate::OnPath(k) = self.fates[i] else {
                    break self.fates[i];
                };
                // The walk came back to its own path: path[k..] is a
                // cycle, entered at its first node.
                let start = self.cycles.len() as u32;
                let len = (self.path.len() - k as usize) as u32;
                for (pos, &w) in self.path[k as usize..].iter().enumerate() {
                    let pos = pos as u32;
                    self.fates[w.index()] = NodeFate::Cycle {
                        d: 0,
                        start,
                        len,
                        pos,
                    };
                    self.cycles.push(w);
                }
                self.path.truncate(k as usize);
                break self.fates[i];
            }
            self.stamps[i] = self.stamp;
            let end = match self.snapshot[i] {
                Some(FibEntry::Local) => NodeFate::Delivered { d: 0 },
                None => NodeFate::NoRoute { d: 0, node: u },
                Some(FibEntry::Via(next)) => {
                    self.fates[i] = NodeFate::OnPath(self.path.len() as u32);
                    self.path.push(u);
                    u = next;
                    continue;
                }
            };
            self.fates[i] = end;
            break end;
        };
        while let Some(w) = self.path.pop() {
            below = below.upstream();
            self.fates[w.index()] = below;
        }
        self.fates[node.index()]
    }

    /// The node `hops` hops downstream of `node` in the current
    /// snapshot. `node`'s fate must already be resolved, and `hops`
    /// must not run past a delivery or no-route node.
    fn node_at(&self, mut node: NodeId, mut hops: u32) -> NodeId {
        loop {
            match self.fates[node.index()] {
                NodeFate::Cycle { d, start, len, pos } if hops >= d => {
                    let offset = (u64::from(pos) + u64::from(hops - d)) % u64::from(len);
                    return self.cycles[start as usize + offset as usize];
                }
                _ if hops == 0 => return node,
                _ => match self.snapshot[node.index()] {
                    Some(FibEntry::Via(next)) => {
                        node = next;
                        hops -= 1;
                    }
                    _ => unreachable!("a hop count never runs past the end of a path"),
                },
            }
        }
    }
}

/// One packet entering [`sweep`]: it leaves `src` at `sent_at` with
/// `ttl` hops to live, and `tag` comes back with its fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch<T> {
    /// Identifies the packet to the fate sink.
    pub tag: T,
    /// The AS that sends the packet.
    pub src: NodeId,
    /// When the packet leaves the source.
    pub sent_at: SimTime,
    /// Initial TTL.
    pub ttl: u32,
}

/// A packet in flight: at `node` at time `at`, with `ttl` of its
/// `initial_ttl` left.
#[derive(Debug, Clone, Copy)]
struct Segment<T> {
    tag: T,
    node: NodeId,
    at: SimTime,
    ttl: u32,
    initial_ttl: u32,
}

/// Resolves `seg` against the current epoch, which ends just before
/// `end` (`None`: the last, unbounded epoch). Returns the fate if the
/// packet seals it inside the epoch; otherwise the packet follows the
/// frozen path up to its first hop at or after `end` and comes back as
/// the segment that starts there.
///
/// Forced inline: the sweep calls it from two loops, and as an
/// out-of-line call it costs the batch replay 20–35%.
#[inline(always)]
fn resolve<T>(
    table: &mut EpochFates,
    seg: Segment<T>,
    end: Option<SimTime>,
    link_delay: SimDuration,
) -> Result<PacketFate, Segment<T>> {
    // Inside a frozen graph the packet follows its node's static path:
    // it ends there unless the TTL runs out first, at the node `ttl`
    // hops down that path.
    let fate = table.fate(seg.node);
    let steps = match fate {
        NodeFate::Delivered { d } | NodeFate::NoRoute { d, .. } if d <= seg.ttl => d,
        _ => seg.ttl,
    };
    let at = seg.at + link_delay * u64::from(steps);
    // The last lookup happens at the fate instant; it must precede the
    // next change (a lookup exactly at the boundary already sees the
    // new epoch).
    if let Some(end) = end.filter(|&end| at >= end) {
        let hops = (end - seg.at).as_nanos().div_ceil(link_delay.as_nanos()) as u32;
        return Err(Segment {
            node: table.node_at(seg.node, hops),
            at: seg.at + link_delay * u64::from(hops),
            ttl: seg.ttl - hops,
            ..seg
        });
    }
    Ok(match fate {
        NodeFate::Delivered { d } if d <= seg.ttl => PacketFate::Delivered {
            at,
            hops: seg.initial_ttl - seg.ttl + d,
        },
        NodeFate::NoRoute { d, node } if d <= seg.ttl => PacketFate::NoRoute { at, node },
        _ => PacketFate::TtlExhausted {
            at,
            node: table.node_at(seg.node, seg.ttl),
        },
    })
}

/// The epoch in effect at `t` (the number of boundaries `<= t`),
/// galloping forward from `hint`. Consecutive hops and consecutive
/// packets of one source lie a few epochs apart, so the search is
/// usually a step or two.
fn epoch_from(boundaries: &[SimTime], hint: usize, t: SimTime) -> usize {
    if hint > 0 && boundaries[hint - 1] > t {
        return boundaries[..hint].partition_point(|&u| u <= t);
    }
    let rest = &boundaries[hint..];
    let mut bound = 1;
    while bound < rest.len() && rest[bound - 1] <= t {
        bound *= 2;
    }
    hint + rest[..bound.min(rest.len())].partition_point(|&u| u <= t)
}

/// Replays one prefix group (`group` = its packet indices, in any
/// order) through `index`: counting-sorts it by launch epoch, then
/// feeds it to [`sweep`], writing each fate into its packet's slot.
fn sweep_batch(
    index: &EpochIndex,
    packets: &[Packet],
    group: impl Iterator<Item = usize> + Clone,
    link_delay: SimDuration,
    fates: &mut [Option<PacketFate>],
) -> ReplayStats {
    let boundaries = index.boundaries();
    let epochs = boundaries.len() + 1;
    // The launches of epoch e are order[starts[e]..starts[e + 1]].
    let launch_epochs = || {
        group.clone().scan(0, |hint, i| {
            *hint = epoch_from(boundaries, *hint, packets[i].sent_at);
            Some((i, *hint))
        })
    };
    let mut starts = vec![0usize; epochs + 1];
    for (_, e) in launch_epochs() {
        starts[e + 1] += 1;
    }
    for e in 0..epochs {
        starts[e + 1] += starts[e];
    }
    let mut order = vec![0usize; starts[epochs]];
    for (i, e) in launch_epochs() {
        order[starts[e]] = i;
        starts[e] += 1;
    }
    let launches = order.into_iter().map(|i| Launch {
        tag: i,
        src: packets[i].src,
        sent_at: packets[i].sent_at,
        ttl: packets[i].ttl,
    });
    sweep(index, launches, link_delay, |i, fate| fates[i] = Some(fate))
}

/// Replays a stream of launches toward `index.prefix()` and hands each
/// packet's fate to `sink` with the packet's tag; returns the run's
/// [`ReplayStats`]. This is the one replay engine: the batch functions
/// above sort a packet slice into a launch stream and collect the
/// fates into a `Vec`, and streamed measurement (`bgpsim-metrics`)
/// feeds a CBR fleet straight in and folds the fates into counters, so
/// nothing it keeps grows with the packet count.
///
/// `launches` must come in nondecreasing launch epoch (a time-ordered
/// stream qualifies); the sweep reads it lazily, one launch ahead.
/// Fates arrive in epoch order, not launch order.
///
/// Epoch-major sweep: one live snapshot advances through the index's
/// delta stream. In each epoch every active segment — a packet
/// launched in it, or one carried over from an earlier epoch — is
/// resolved from the epoch's fate table in `O(1)` if its fate instant
/// precedes the next boundary; otherwise it jumps straight to its
/// first hop past the boundary and waits in that hop's epoch bucket.
/// Cost scales with epoch crossings, not hops, and the only state
/// beyond the snapshot is the packets in flight. The sweep ends once
/// the stream is exhausted and nothing is in flight.
///
/// # Panics
///
/// Panics if a launch's epoch precedes an earlier launch's.
pub fn sweep<T: Copy>(
    index: &EpochIndex,
    launches: impl IntoIterator<Item = Launch<T>>,
    link_delay: SimDuration,
    mut sink: impl FnMut(T, PacketFate),
) -> ReplayStats {
    let boundaries = index.boundaries();
    let deltas = index.deltas();
    let epochs = boundaries.len() + 1;
    let mut stats = ReplayStats {
        epochs: boundaries.len() as u64,
        ..ReplayStats::default()
    };
    let mut launches = launches.into_iter();
    let mut next = launches.next();

    let mut table = EpochFates::new(index.node_count());
    // carried[e]: in-flight segments whose next hop falls in epoch e.
    let mut carried: Vec<Vec<Segment<T>>> = vec![Vec::new(); epochs];
    let mut in_flight = 0usize;
    for epoch in 0..epochs {
        if epoch > 0 {
            table.apply(&deltas[epoch - 1].1);
        }
        if in_flight == 0 && next.is_none() {
            break;
        }
        let end = boundaries.get(epoch).copied();
        // Launches arrive in epoch order, so the ones before the end of
        // this epoch are exactly the ones launched in it.
        while let Some(launch) = next.take_if(|l| end.is_none_or(|end| l.sent_at < end)) {
            assert!(
                epoch == 0 || boundaries[epoch - 1] <= launch.sent_at,
                "launches must come in nondecreasing epoch order"
            );
            next = launches.next();
            stats.packets += 1;
            let seg = Segment {
                tag: launch.tag,
                node: launch.src,
                at: launch.sent_at,
                ttl: launch.ttl,
                initial_ttl: launch.ttl,
            };
            match resolve(&mut table, seg, end, link_delay) {
                Ok(fate) => {
                    stats.memo_hits += 1;
                    sink(seg.tag, fate);
                }
                Err(seg) => {
                    stats.walks += 1;
                    in_flight += 1;
                    carried[epoch_from(boundaries, epoch + 1, seg.at)].push(seg);
                }
            }
        }
        for seg in std::mem::take(&mut carried[epoch]) {
            match resolve(&mut table, seg, end, link_delay) {
                Ok(fate) => {
                    in_flight -= 1;
                    sink(seg.tag, fate);
                }
                Err(seg) => carried[epoch_from(boundaries, epoch + 1, seg.at)].push(seg),
            }
        }
    }
    stats
}

/// Generates the packets sent by `sources` in `[start, end)` toward
/// `prefix`, ids assigned in deterministic (source-major) order.
pub fn generate_packets(
    sources: &[crate::source::CbrSource],
    prefix: Prefix,
    ttl: u32,
    start: SimTime,
    end: SimTime,
) -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut id = 0u64;
    for src in sources {
        for sent_at in src.send_times(start, end) {
            packets.push(Packet {
                id,
                src: src.node(),
                prefix,
                ttl,
                sent_at,
            });
            id += 1;
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::DEFAULT_TTL;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn p() -> Prefix {
        Prefix::new(0)
    }

    fn d2() -> SimDuration {
        SimDuration::from_millis(2)
    }

    fn pkt(src: u32, at: SimTime) -> Packet {
        Packet {
            id: 0,
            src: n(src),
            prefix: p(),
            ttl: DEFAULT_TTL,
            sent_at: at,
        }
    }

    /// A 3-node chain 2 → 1 → 0 with stable routes.
    fn chain_fib() -> NetworkFib {
        let mut fib = NetworkFib::new(3);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(1), p(), SimTime::ZERO, Some(FibEntry::Via(n(0))));
        fib.record(n(2), p(), SimTime::ZERO, Some(FibEntry::Via(n(1))));
        fib
    }

    #[test]
    fn delivery_counts_hops_and_delay() {
        let fib = chain_fib();
        let fate = walk_packet(&fib, &pkt(2, SimTime::from_secs(1)), d2());
        match fate {
            PacketFate::Delivered { at, hops } => {
                assert_eq!(hops, 2);
                assert_eq!(at, SimTime::from_millis(1004));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn no_route_drops_at_first_routeless_node() {
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_secs(5), None);
        let fate = walk_packet(&fib, &pkt(2, SimTime::from_secs(6)), d2());
        match fate {
            PacketFate::NoRoute { node, .. } => assert_eq!(node, n(1)),
            other => panic!("expected no-route, got {other:?}"),
        }
    }

    #[test]
    fn two_node_loop_exhausts_ttl_at_256ms() {
        // The paper's Figure 1(b): 5 → 6 and 6 → 5.
        let mut fib = NetworkFib::new(7);
        fib.record(n(5), p(), SimTime::ZERO, Some(FibEntry::Via(n(6))));
        fib.record(n(6), p(), SimTime::ZERO, Some(FibEntry::Via(n(5))));
        let fate = walk_packet(&fib, &pkt(5, SimTime::from_secs(1)), d2());
        match fate {
            PacketFate::TtlExhausted { at, node } => {
                // 128 hops × 2 ms = 256 ms after send.
                assert_eq!(at, SimTime::from_millis(1256));
                assert!(node == n(5) || node == n(6));
            }
            other => panic!("expected TTL exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn packet_escapes_loop_that_resolves_in_flight() {
        // Loop 5↔6 forms at t=0 and resolves at t=1.1: node 6 switches
        // to a working path via 0. A packet sent at t=1 loops briefly,
        // then escapes and is delivered — the "packets which encountered
        // and escaped a loop" case.
        let mut fib = NetworkFib::new(7);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(5), p(), SimTime::ZERO, Some(FibEntry::Via(n(6))));
        fib.record(n(6), p(), SimTime::ZERO, Some(FibEntry::Via(n(5))));
        fib.record(
            n(6),
            p(),
            SimTime::from_millis(1100),
            Some(FibEntry::Via(n(0))),
        );
        let fate = walk_packet(&fib, &pkt(5, SimTime::from_secs(1)), d2());
        assert!(fate.is_delivered(), "got {fate:?}");
        if let PacketFate::Delivered { hops, .. } = fate {
            assert!(hops > 2, "must have circulated before escaping");
        }
    }

    #[test]
    fn source_with_no_route_drops_immediately() {
        let fib = NetworkFib::new(3);
        let fate = walk_packet(&fib, &pkt(2, SimTime::ZERO), d2());
        match fate {
            PacketFate::NoRoute { node, at } => {
                assert_eq!(node, n(2));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected no-route, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_trajectory() {
        let fib = chain_fib();
        let mut trace = Vec::new();
        let _ = walk_packet_traced(&fib, &pkt(2, SimTime::ZERO), d2(), Some(&mut trace));
        let nodes: Vec<NodeId> = trace.iter().map(|h| h.node).collect();
        assert_eq!(nodes, vec![n(2), n(1), n(0)]);
        assert_eq!(trace[1].at, SimTime::from_millis(2));
    }

    #[test]
    fn zero_ttl_exhausts_before_any_hop() {
        let fib = chain_fib();
        let packet = Packet {
            ttl: 0,
            ..pkt(2, SimTime::ZERO)
        };
        assert!(walk_packet(&fib, &packet, d2()).is_ttl_exhausted());
    }

    #[test]
    fn generate_packets_is_deterministic_and_ordered() {
        use crate::source::CbrSource;
        let sources = vec![
            CbrSource::new(n(1), SimDuration::from_millis(100), SimDuration::ZERO),
            CbrSource::new(
                n(2),
                SimDuration::from_millis(100),
                SimDuration::from_millis(50),
            ),
        ];
        let pkts = generate_packets(
            &sources,
            p(),
            DEFAULT_TTL,
            SimTime::ZERO,
            SimTime::from_millis(300),
        );
        assert_eq!(pkts.len(), 6);
        // Ids are unique and source-major.
        let ids: Vec<u64> = pkts.iter().map(|pk| pk.id).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        assert!(pkts[..3].iter().all(|pk| pk.src == n(1)));
        assert!(pkts[3..].iter().all(|pk| pk.src == n(2)));
    }

    #[test]
    fn walk_all_matches_individual_walks() {
        let fib = chain_fib();
        let packets = vec![pkt(2, SimTime::ZERO), pkt(1, SimTime::from_secs(1))];
        let fates = walk_all(&fib, &packets, d2());
        assert_eq!(fates.len(), 2);
        assert_eq!(fates[0], walk_packet(&fib, &packets[0], d2()));
        assert_eq!(fates[1], walk_packet(&fib, &packets[1], d2()));
    }

    #[test]
    fn batched_matches_naive_on_chain() {
        let fib = chain_fib();
        let packets = vec![
            pkt(2, SimTime::ZERO),
            pkt(1, SimTime::from_secs(1)),
            pkt(2, SimTime::from_secs(2)),
        ];
        assert_eq!(
            walk_all_batched(&fib, &packets, d2()),
            walk_all(&fib, &packets, d2())
        );
    }

    #[test]
    fn stable_chain_resolves_every_packet_at_launch() {
        // Same source, stable FIB: every packet's fate comes straight
        // from its launch epoch's fate table, bit-identical to the
        // naive walk, and none crosses a boundary.
        let fib = chain_fib();
        let packets: Vec<Packet> = (0..50)
            .map(|i| pkt(2, SimTime::from_millis(10 * i)))
            .collect();
        let (fates, stats) = walk_all_batched_stats(&fib, &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert_eq!(stats.packets, 50);
        assert_eq!(stats.walks, 0);
        assert_eq!(stats.memo_hits, 50);
        assert!((stats.hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn packet_crossing_a_boundary_counts_as_a_walk() {
        // Node 1 loses its route at t=100ms. A packet sent just before
        // the boundary crosses it in flight, so its launch epoch cannot
        // seal its fate: it must be carried into the next epoch.
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_millis(100), None);
        let packets = vec![
            pkt(2, SimTime::ZERO),             // delivered at launch
            pkt(2, SimTime::from_millis(99)),  // crosses boundary mid-walk
            pkt(2, SimTime::from_millis(200)), // post-boundary epoch
        ];
        let (fates, stats) = walk_all_batched_stats(&fib, &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert!(fates[0].is_delivered());
        assert!(matches!(fates[1], PacketFate::NoRoute { .. }));
        assert!(matches!(fates[2], PacketFate::NoRoute { .. }));
        // Only the packet sent at 99 ms crosses a boundary.
        assert_eq!(stats.memo_hits, 2);
        assert_eq!(stats.walks, 1);
    }

    #[test]
    fn batched_preserves_input_order_across_unsorted_sends() {
        // Fates come back in packet order even though the batch is
        // internally processed in send-time order.
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_secs(5), None);
        let packets = vec![
            pkt(2, SimTime::from_secs(6)), // late packet first in input
            pkt(2, SimTime::ZERO),
            pkt(1, SimTime::from_secs(7)),
        ];
        let fates = walk_all_batched(&fib, &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert!(matches!(fates[0], PacketFate::NoRoute { node, .. } if node == n(1)));
        assert!(fates[1].is_delivered());
        assert!(matches!(fates[2], PacketFate::NoRoute { node, .. } if node == n(1)));
    }

    #[test]
    fn batched_groups_multiple_prefixes() {
        let p1 = Prefix::new(1);
        let mut fib = chain_fib();
        // Prefix 1 has the reverse orientation: 0 → 1 → 2 (local at 2).
        fib.record(n(2), p1, SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(1), p1, SimTime::ZERO, Some(FibEntry::Via(n(2))));
        fib.record(n(0), p1, SimTime::ZERO, Some(FibEntry::Via(n(1))));
        let packets = vec![
            pkt(2, SimTime::ZERO),
            Packet {
                prefix: p1,
                ..pkt(0, SimTime::ZERO)
            },
        ];
        assert_eq!(
            walk_all_batched(&fib, &packets, d2()),
            walk_all(&fib, &packets, d2())
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let fib = chain_fib();
        let (fates, stats) = walk_all_batched_stats(&fib, &[], d2());
        assert!(fates.is_empty());
        assert_eq!(stats, ReplayStats::default());
    }

    #[test]
    fn replay_stats_merge_sums() {
        let mut a = ReplayStats {
            packets: 10,
            memo_hits: 4,
            walks: 6,
            epochs: 3,
        };
        let b = ReplayStats {
            packets: 2,
            memo_hits: 1,
            walks: 1,
            epochs: 5,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ReplayStats {
                packets: 12,
                memo_hits: 5,
                walks: 7,
                epochs: 8,
            }
        );
        assert_eq!(ReplayStats::default().hit_rate(), 0.0);
    }

    /// Builds a random FIB history from `(node, dt, hop)` triples using
    /// per-node clocks (each history time-ordered, global interleaving
    /// arbitrary) — the same scheme as the loop-census proptests.
    fn random_fib(nodes: u32, raw: &[(u32, u32, Option<u32>)]) -> NetworkFib {
        let mut fib = NetworkFib::new(nodes as usize);
        let mut clock = vec![0u64; nodes as usize];
        for &(node, dt, hop) in raw {
            let node = node % nodes;
            let t = clock[node as usize] + u64::from(dt);
            clock[node as usize] = t;
            let entry = match hop.map(|h| h % nodes) {
                Some(h) if h != node => Some(FibEntry::Via(n(h))),
                Some(_) => Some(FibEntry::Local),
                None => None,
            };
            fib.record(n(node), p(), SimTime::from_nanos(t), entry);
        }
        fib
    }

    /// Asserts that the batched replay's fates equal the naive
    /// oracle's and that its counters account for every packet once.
    fn check_against_oracle(
        fib: &NetworkFib,
        packets: &[Packet],
        delay: SimDuration,
    ) -> Result<(), TestCaseError> {
        let (batched, stats) = walk_all_batched_stats(fib, packets, delay);
        prop_assert_eq!(batched, walk_all(fib, packets, delay));
        prop_assert_eq!(stats.packets, packets.len() as u64);
        prop_assert_eq!(stats.walks + stats.memo_hits, stats.packets);
        Ok(())
    }

    /// Maps raw `(src, sent_at, ttl)` triples into packets. Nanosecond
    /// send times against a 2 ns link delay and tiny TTLs make walks
    /// routinely straddle epoch boundaries, stressing the carry-over of
    /// in-flight packets.
    fn random_packets(nodes: u32, raw: &[(u32, u64, u32)]) -> Vec<Packet> {
        raw.iter()
            .enumerate()
            .map(|(id, &(src, sent_at, ttl))| Packet {
                id: id as u64,
                src: n(src % nodes),
                prefix: p(),
                ttl,
                sent_at: SimTime::from_nanos(sent_at),
            })
            .collect()
    }

    /// Streams `packets` through [`sweep`] in send-time order (tag =
    /// packet index) and checks that every packet gets exactly the
    /// oracle's fate and that the counters equal the batch wrapper's.
    fn check_streamed_against_batch(
        fib: &NetworkFib,
        packets: &[Packet],
        delay: SimDuration,
    ) -> Result<(), TestCaseError> {
        let index = EpochIndex::build(fib, p());
        let mut order: Vec<usize> = (0..packets.len()).collect();
        order.sort_by_key(|&i| packets[i].sent_at);
        let launches = order.iter().map(|&i| Launch {
            tag: i,
            src: packets[i].src,
            sent_at: packets[i].sent_at,
            ttl: packets[i].ttl,
        });
        let mut streamed: Vec<Option<PacketFate>> = vec![None; packets.len()];
        let stats = sweep(&index, launches, delay, |i, fate| {
            assert!(streamed[i].replace(fate).is_none(), "one fate per packet");
        });
        let streamed: Vec<PacketFate> = streamed
            .into_iter()
            .map(|f| f.expect("every launch gets a fate"))
            .collect();
        prop_assert_eq!(streamed, walk_all(fib, packets, delay));
        prop_assert_eq!(stats, walk_indexed_batch(&index, packets, delay).1);
        Ok(())
    }

    #[test]
    #[should_panic(expected = "nondecreasing epoch order")]
    fn sweep_rejects_launches_out_of_epoch_order() {
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_secs(5), None);
        let index = EpochIndex::build(&fib, p());
        let launch = |secs| Launch {
            tag: (),
            src: n(2),
            sent_at: SimTime::from_secs(secs),
            ttl: DEFAULT_TTL,
        };
        sweep(&index, [launch(6), launch(1)], d2(), |(), _| {});
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streamed sweep (time-ordered launches, fates to a sink)
        /// gives every packet the oracle's fate and the batch
        /// wrapper's counters, on random histories and on epochs
        /// shorter than a hop.
        #[test]
        fn streamed_sweep_equals_batch_on_random_histories(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..200, 0u32..40), 0..40),
            nodes in 2u32..8,
            delay in 1u64..12,
        ) {
            let fib = random_fib(nodes, &raw);
            let packets = random_packets(nodes, &pkts);
            check_streamed_against_batch(&fib, &packets, SimDuration::from_nanos(delay))?;
        }

        /// Tentpole invariant (satellite b): the batched replay is
        /// fate-for-fate bit-identical to the naive per-packet oracle
        /// on random histories and random unsorted packet fleets.
        #[test]
        fn batched_equals_naive_on_random_histories(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..200, 0u32..12), 0..40),
            nodes in 2u32..8,
        ) {
            let fib = random_fib(nodes, &raw);
            let packets = random_packets(nodes, &pkts);
            let delay = SimDuration::from_nanos(2);
            let naive = walk_all(&fib, &packets, delay);
            let (batched, stats) = walk_all_batched_stats(&fib, &packets, delay);
            prop_assert_eq!(&batched, &naive);
            prop_assert_eq!(stats.packets, packets.len() as u64);
            prop_assert_eq!(stats.walks + stats.memo_hits, stats.packets);
        }

        /// The sparse epoch-table layout replays identically to the
        /// dense one (the dense/sparse switch is purely a space trade).
        #[test]
        fn sparse_index_replays_like_dense(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..200, 0u32..12), 0..40),
            nodes in 2u32..8,
        ) {
            let fib = random_fib(nodes, &raw);
            let packets = random_packets(nodes, &pkts);
            let delay = SimDuration::from_nanos(2);
            let dense = EpochIndex::build(&fib, p());
            // A zero cell cap forces the sparse per-node layout.
            let sparse = EpochIndex::build_with_cap(&fib, p(), 0);
            prop_assert!(dense.is_dense());
            prop_assert!(!sparse.is_dense());
            let (df, ds) = walk_indexed_batch(&dense, &packets, delay);
            let (sf, ss) = walk_indexed_batch(&sparse, &packets, delay);
            prop_assert_eq!(&df, &sf);
            prop_assert_eq!(ds, ss);
            prop_assert_eq!(df, walk_all(&fib, &packets, delay));
        }

        /// Epochs shorter than the link delay: a single hop skips
        /// several boundaries, so carried packets land epochs ahead.
        #[test]
        fn hops_skipping_several_boundaries_match_oracle(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..3, proptest::option::of(0u32..8)), 0..80),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..150, 0u32..40), 0..40),
            nodes in 2u32..8,
            delay in 3u64..12,
        ) {
            let fib = random_fib(nodes, &raw);
            let packets = random_packets(nodes, &pkts);
            check_against_oracle(&fib, &packets, SimDuration::from_nanos(delay))?;
        }

        /// Packets trapped in cycles of length 2–8 behind tails of up
        /// to 5 hops, with TTLs of 0–300: the exhaustion node comes
        /// from the cycle arithmetic. The cycle optionally breaks
        /// mid-replay (one cycle node turns toward the origin), so
        /// trapped packets escape and are delivered.
        #[test]
        fn cycle_exhaustion_matches_oracle(
            len in 2u32..9,
            tail in 0u32..6,
            entry in 0u32..8,
            breaks_at in proptest::option::of(0u64..400),
            pkts in proptest::collection::vec(
                (0u32..14, 0u64..600, 0u32..301), 1..40),
        ) {
            // Node 0 originates; cycle nodes 1..=len; tail nodes after.
            let nodes = 1 + len + tail;
            let mut fib = NetworkFib::new(nodes as usize);
            fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
            for i in 0..len {
                let next = 1 + (i + 1) % len;
                fib.record(n(1 + i), p(), SimTime::ZERO, Some(FibEntry::Via(n(next))));
            }
            for j in 0..tail {
                let next = if j == 0 { 1 + entry % len } else { len + j };
                fib.record(n(1 + len + j), p(), SimTime::ZERO, Some(FibEntry::Via(n(next))));
            }
            if let Some(at) = breaks_at {
                fib.record(n(1), p(), SimTime::from_nanos(at), Some(FibEntry::Via(n(0))));
            }
            let packets = random_packets(nodes, &pkts);
            check_against_oracle(&fib, &packets, SimDuration::from_nanos(2))?;
        }

        /// Delivered paths longer than the TTL: a chain of up to 60
        /// hops with TTLs of 0–80, plus random rewirings in flight, so
        /// the exhaustion node lies part-way down a delivering path.
        #[test]
        fn long_delivered_paths_match_oracle(
            len in 2u32..61,
            rewires in proptest::collection::vec(
                (1u32..61, 0u64..200, 0u32..61), 0..6),
            pkts in proptest::collection::vec(
                (0u32..61, 0u64..300, 0u32..81), 1..40),
        ) {
            let mut fib = NetworkFib::new(len as usize);
            fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
            for i in 1..len {
                fib.record(n(i), p(), SimTime::ZERO, Some(FibEntry::Via(n(i - 1))));
            }
            let mut rewires: Vec<(u32, u64, u32)> = rewires
                .into_iter()
                .map(|(node, at, to)| (node % len, at, to % len))
                .filter(|&(node, _, to)| node != 0 && node != to)
                .collect();
            rewires.sort_by_key(|&(_, at, _)| at);
            for (node, at, to) in rewires {
                fib.record(n(node), p(), SimTime::from_nanos(at), Some(FibEntry::Via(n(to))));
            }
            let packets = random_packets(len, &pkts);
            check_against_oracle(&fib, &packets, SimDuration::from_nanos(2))?;
        }

        /// Duplicate and unsorted send times: packets share a handful
        /// of launch instants (some exactly on a boundary) and arrive
        /// in arbitrary order; fates still come back in input order.
        #[test]
        fn duplicate_unsorted_send_times_match_oracle(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..6, 0u32..20), 0..60),
            nodes in 2u32..8,
        ) {
            let fib = random_fib(nodes, &raw);
            let pkts: Vec<(u32, u64, u32)> = pkts
                .into_iter()
                .map(|(src, slot, ttl)| (src, slot * 16, ttl))
                .collect();
            let packets = random_packets(nodes, &pkts);
            check_against_oracle(&fib, &packets, SimDuration::from_nanos(2))?;
        }
    }
}
