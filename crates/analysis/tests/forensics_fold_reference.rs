//! Differential test of the forensics fold: the collector and tree pass
//! as they stood when every table was a SipHash map, kept here as a
//! reference, against `ForensicsReport`'s fold of sorted per-pair
//! failure lists and node/packet-indexed tables. Both must produce the
//! same report (or the same error) on any event stream: random streams
//! whose failure events arrive out of slot order, with duplicate and
//! orphan copies, injections and coverage marks, and traces of real
//! engine runs.

use ldcf_analysis::attribution::{attribute_hop, merge_failures, Cause, DelayAttribution};
use ldcf_analysis::forensics::{NodeForensics, PathHop};
use ldcf_analysis::{ForensicsError, ForensicsReport, PacketForensics, Via, Violation};
use ldcf_core::fdl::{blocking_depth, m_of};
use ldcf_net::{NodeId, PacketId, SOURCE};
use ldcf_obs::SimEvent;
use std::collections::HashMap;

/// One node's working schedule, rebuilt from `schedule_slot` events.
#[derive(Clone, Debug)]
struct ScheduleInfo {
    period: u32,
    active: Vec<bool>,
}

impl ScheduleInfo {
    fn is_active(&self, slot: u64) -> bool {
        self.active[(slot % self.period as u64) as usize]
    }
}

/// Streaming pass 1 of the forensic reconstruction: absorbs events one
/// at a time into the static/dynamic tables the tree pass needs. Peak
/// memory is bounded by the *reconstruction state* (schedules, fresh
/// edges, failure slots) — never by the raw event stream, which is why
/// `ForensicsReport::from_source` can digest traces far larger than
/// RAM.
#[derive(Debug, Default)]
struct Collector {
    schedules: Vec<Option<ScheduleInfo>>,
    pushed_at: HashMap<PacketId, u64>,
    covered: HashMap<PacketId, (u64, NodeId)>,
    last_fresh: HashMap<PacketId, NodeId>,
    /// Fresh-copy edges in stream order: (packet, child, parent, slot, via).
    edges: Vec<(PacketId, NodeId, NodeId, u64, Via)>,
    /// Failed/deferred attempts aimed at (receiver, packet) per slot.
    failures: HashMap<(u32, PacketId, u64), Cause>,
    /// Slots each (node, packet) was served: committed, deferred or
    /// mistimed transmission attempts carrying the packet.
    serves: HashMap<(u32, PacketId), Vec<u64>>,
    dup_delivered: u64,
    dup_overheard: u64,
    max_packet: Option<PacketId>,
    oracle: bool,
    /// Per-packet flood origin; defaults to the source for packets
    /// without an explicit injection event. An injection precedes the
    /// packet's first transmission in stream order, so the map is
    /// complete by the time a push could be recorded.
    origins: HashMap<PacketId, NodeId>,
}

impl Collector {
    fn fail(&mut self, r: NodeId, p: PacketId, s: u64, cause: Cause) {
        self.failures
            .entry((r.0, p, s))
            .and_modify(|c| *c = merge_failures(*c, cause))
            .or_insert(cause);
    }

    fn absorb(&mut self, ev: &SimEvent) -> Result<(), ForensicsError> {
        if let Some(p) = ev.packet_id() {
            self.max_packet = Some(self.max_packet.map_or(p, |m| m.max(p)));
        }
        match *ev {
            SimEvent::ScheduleSlot {
                node,
                period,
                offset,
                ..
            } => {
                let i = node.index();
                if i >= self.schedules.len() {
                    self.schedules.resize_with(i + 1, || None);
                }
                let info = self.schedules[i].get_or_insert_with(|| ScheduleInfo {
                    period,
                    active: vec![false; period as usize],
                });
                if info.period != period || offset >= period {
                    return Err(ForensicsError(format!(
                        "inconsistent schedule_slot for node {node}: period {period}, offset {offset}"
                    )));
                }
                info.active[offset as usize] = true;
            }
            SimEvent::TxAttempt {
                slot,
                sender,
                packet,
                bypass_mac,
                ..
            } => {
                self.oracle |= bypass_mac;
                if sender == self.origins.get(&packet).copied().unwrap_or(SOURCE) {
                    self.pushed_at.entry(packet).or_insert(slot);
                }
                self.serves
                    .entry((sender.0, packet))
                    .or_default()
                    .push(slot);
            }
            SimEvent::Mistimed {
                slot,
                sender,
                receiver,
                packet,
            } => {
                self.serves
                    .entry((sender.0, packet))
                    .or_default()
                    .push(slot);
                self.fail(receiver, packet, slot, Cause::LinkLoss);
            }
            SimEvent::Deferred {
                slot,
                sender,
                receiver,
                packet,
            } => {
                self.serves
                    .entry((sender.0, packet))
                    .or_default()
                    .push(slot);
                self.fail(receiver, packet, slot, Cause::BusyDefer);
            }
            SimEvent::LinkLoss {
                slot,
                receiver,
                packet,
                ..
            } => self.fail(receiver, packet, slot, Cause::LinkLoss),
            SimEvent::Collision {
                slot,
                receiver,
                packet,
                ..
            } => self.fail(receiver, packet, slot, Cause::Collision),
            SimEvent::ReceiverBusy {
                slot,
                receiver,
                packet,
                ..
            } => self.fail(receiver, packet, slot, Cause::BusyDefer),
            SimEvent::Delivered {
                slot,
                sender,
                receiver,
                packet,
                fresh,
            } => {
                if fresh {
                    self.edges
                        .push((packet, receiver, sender, slot, Via::Delivery));
                    self.last_fresh.insert(packet, receiver);
                } else {
                    self.dup_delivered += 1;
                }
            }
            SimEvent::Overheard {
                slot,
                sender,
                receiver,
                packet,
                fresh,
            } => {
                if fresh {
                    self.edges
                        .push((packet, receiver, sender, slot, Via::Overhear));
                    self.last_fresh.insert(packet, receiver);
                } else {
                    self.dup_overheard += 1;
                }
            }
            SimEvent::CoverageReached { slot, packet, .. } => {
                // The engine emits this right after the fresh copy
                // that crossed the target, so the last fresh
                // receiver of the packet is the covering node.
                let who = self.last_fresh.get(&packet).copied().ok_or_else(|| {
                    ForensicsError(format!(
                        "coverage_reached for packet {packet} with no prior fresh copy"
                    ))
                })?;
                self.covered.entry(packet).or_insert((slot, who));
            }
            // Fault-injection annotations: BurstLoss is tagged onto
            // a LinkLoss already attributed above; churn and retry
            // events carry no delay attribution of their own (and
            // churn traces are rejected later for their schedule
            // changes anyway).
            SimEvent::BurstLoss { .. }
            | SimEvent::NodeCrashed { .. }
            | SimEvent::NodeRecovered { .. }
            | SimEvent::SourceRetry { .. } => {}
            SimEvent::PacketInjected { node, packet, .. } => {
                self.origins.insert(packet, node);
            }
            SimEvent::SlotEnd { .. } => {}
        }
        Ok(())
    }
}

fn from_collector(collector: Collector) -> Result<ForensicsReport, ForensicsError> {
    let Collector {
        schedules,
        pushed_at,
        covered,
        last_fresh: _,
        edges,
        failures,
        serves,
        dup_delivered,
        dup_overheard,
        max_packet,
        oracle,
        origins,
    } = collector;

    if schedules.is_empty() {
        return Err(ForensicsError(
            "trace has no schedule_slot events — it predates forensic tracing; \
             re-generate it with --trace-events"
                .into(),
        ));
    }
    let schedules: Vec<ScheduleInfo> = schedules
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.ok_or_else(|| ForensicsError(format!("node {i} has no schedule_slot events")))
        })
        .collect::<Result<_, _>>()?;
    let n_nodes = schedules.len();
    let n_sensors = n_nodes.saturating_sub(1);
    let m = m_of(n_sensors as u64);
    let bound = blocking_depth(n_sensors as u64);

    // FCFS arrival order per node, across packets (the queues are
    // shared): position of each (node, packet) in the node's fresh
    // arrival sequence.
    let mut arrival_pos: HashMap<(u32, PacketId), usize> = HashMap::new();
    let mut arrival_list: HashMap<u32, Vec<PacketId>> = HashMap::new();
    for &(p, child, _, _, _) in &edges {
        let list = arrival_list.entry(child.0).or_default();
        arrival_pos.entry((child.0, p)).or_insert_with(|| {
            list.push(p);
            list.len() - 1
        });
    }

    // --- pass 2: per-packet trees, attribution, blocking ------------
    let n_packets = max_packet.map_or(0, |p| p as usize + 1);
    let mut violations: Vec<Violation> = Vec::new();
    let mut advisories: Vec<String> = Vec::new();
    let mut packets: Vec<PacketForensics> = Vec::with_capacity(n_packets);

    for p in 0..n_packets as PacketId {
        let origin = origins.get(&p).copied().unwrap_or(SOURCE);
        let pushed = match pushed_at.get(&p) {
            Some(&s) => s,
            None => {
                // Never pushed: nothing to attribute. A fresh copy
                // without a push would be an incoherent trace.
                if edges.iter().any(|&(ep, ..)| ep == p) {
                    return Err(ForensicsError(format!(
                        "packet {p} has fresh copies but no transmission from its origin {origin}"
                    )));
                }
                packets.push(PacketForensics {
                    packet: p,
                    origin,
                    pushed_at: 0,
                    covered_at: None,
                    nodes: Vec::new(),
                    attribution: DelayAttribution::default(),
                    coverage_attribution: None,
                    critical_path: Vec::new(),
                    tree_depth: 0,
                    max_blocking: 0,
                });
                continue;
            }
        };

        let mut informed: HashMap<u32, usize> = HashMap::new();
        let mut nodes: Vec<NodeForensics> = Vec::new();
        let mut pkt_attr = DelayAttribution::default();
        let mut tree_depth = 0u32;
        let mut max_blocking = 0u32;

        for &(ep, child, parent, slot, via) in &edges {
            if ep != p {
                continue;
            }
            if informed.contains_key(&child.0) {
                violations.push(Violation::DuplicateParent {
                    packet: p,
                    node: child,
                    slot,
                });
                continue;
            }
            let (parent_ready, parent_depth, parent_attr) = if parent == origin {
                (pushed, 0, DelayAttribution::default())
            } else {
                match informed.get(&parent.0) {
                    Some(&pi) if nodes[pi].informed_at < slot => (
                        nodes[pi].informed_at,
                        nodes[pi].depth,
                        nodes[pi].attribution,
                    ),
                    _ => {
                        violations.push(Violation::OrphanNode {
                            packet: p,
                            node: child,
                            parent,
                            slot,
                        });
                        continue;
                    }
                }
            };
            let sched = schedules.get(child.index()).ok_or_else(|| {
                ForensicsError(format!("node {child} informed but has no schedule"))
            })?;
            let hop = attribute_hop(
                parent_ready,
                slot,
                |s| sched.is_active(s),
                |s| failures.get(&(child.0, p, s)).copied(),
            );
            let mut attribution = parent_attr;
            attribution.merge(&hop);
            let delay = slot.saturating_sub(pushed);
            if attribution.total() != delay {
                violations.push(Violation::AttributionMismatch {
                    packet: p,
                    node: child,
                    attributed: attribution.total(),
                    delay,
                });
            }

            // Corollary 1: FCFS-earlier packets this relay served
            // strictly between p's arrival (end of `slot`) and its
            // first service of p. Hard on oracle runs — the bound
            // belongs to the paper's structured pipeline — advisory
            // under heuristic MACs (see module docs).
            let blocking = serves.get(&(child.0, p)).map(|ss| {
                let first_serve = ss.iter().copied().min().expect("non-empty");
                let my_pos = arrival_pos[&(child.0, p)];
                let depth = arrival_list[&child.0][..my_pos]
                    .iter()
                    .filter(|&&q| {
                        q != p
                            && serves
                                .get(&(child.0, q))
                                .is_some_and(|qs| qs.iter().any(|&s| s > slot && s < first_serve))
                    })
                    .count() as u32;
                if depth > bound {
                    if oracle {
                        violations.push(Violation::BlockingDepthExceeded {
                            packet: p,
                            node: child,
                            depth,
                            bound,
                        });
                    } else {
                        advisories.push(format!(
                            "packet {p}: relay {child} blocked by {depth} packets — \
                             Corollary 1's pipeline bound m - 1 = {bound} holds for the \
                             oracle schedule; heuristic MAC relays can exceed it"
                        ));
                    }
                }
                depth
            });

            let depth = parent_depth + 1;
            tree_depth = tree_depth.max(depth);
            max_blocking = max_blocking.max(blocking.unwrap_or(0));
            pkt_attr.merge(&attribution);
            informed.insert(child.0, nodes.len());
            nodes.push(NodeForensics {
                node: child,
                parent,
                via,
                informed_at: slot,
                depth,
                delay,
                attribution,
                blocking,
            });
        }

        // Critical path: source-rooted chain of the covering node.
        let covered_entry = covered.get(&p).copied();
        let mut critical_path = Vec::new();
        let mut coverage_attribution = None;
        if let Some((_, cnode)) = covered_entry {
            let mut cursor = Some(cnode);
            while let Some(n) = cursor {
                match informed.get(&n.0) {
                    Some(&i) => {
                        let nf = &nodes[i];
                        critical_path.push(PathHop {
                            node: nf.node,
                            slot: nf.informed_at,
                            via: nf.via,
                        });
                        cursor = (nf.parent != origin).then_some(nf.parent);
                    }
                    None => {
                        // Chain broken — already reported as an
                        // OrphanNode/DuplicateParent violation.
                        critical_path.clear();
                        cursor = None;
                    }
                }
                if critical_path.len() > n_nodes {
                    critical_path.clear();
                    break;
                }
            }
            critical_path.reverse();
            coverage_attribution = informed.get(&cnode.0).map(|&i| nodes[i].attribution);
        }

        if tree_depth > m {
            advisories.push(format!(
                "packet {p}: tree depth {tree_depth} exceeds the compact-model m = {m} \
                 (expected on real topologies whose diameter beats the complete-graph model)"
            ));
        }

        packets.push(PacketForensics {
            packet: p,
            origin,
            pushed_at: pushed,
            covered_at: covered_entry.map(|(s, _)| s),
            nodes,
            attribution: pkt_attr,
            coverage_attribution,
            critical_path,
            tree_depth,
            max_blocking,
        });
    }

    // --- aggregates --------------------------------------------------
    let mut totals = DelayAttribution::default();
    let mut coverage_totals = DelayAttribution::default();
    let mut delays: Vec<u64> = Vec::new();
    let mut max_tree_depth = 0;
    let mut max_blocking = 0;
    for pf in &packets {
        totals.merge(&pf.attribution);
        if let Some(ca) = &pf.coverage_attribution {
            coverage_totals.merge(ca);
        }
        if let Some(d) = pf.flooding_delay() {
            delays.push(d);
        }
        max_tree_depth = max_tree_depth.max(pf.tree_depth);
        max_blocking = max_blocking.max(pf.max_blocking);
    }
    let mean_flooding_delay =
        (!delays.is_empty()).then(|| delays.iter().sum::<u64>() as f64 / delays.len() as f64);

    Ok(ForensicsReport {
        n_nodes,
        n_sensors,
        m,
        blocking_bound: bound,
        oracle,
        packets,
        totals,
        coverage_totals,
        mean_flooding_delay,
        max_tree_depth,
        max_blocking,
        duplicate_deliveries: dup_delivered,
        duplicate_overhears: dup_overheard,
        violations,
        advisories,
    })
}

/// The reference fold of an in-memory stream.
fn reference(events: &[SimEvent]) -> Result<ForensicsReport, ForensicsError> {
    let mut c = Collector::default();
    for ev in events {
        c.absorb(ev)?;
    }
    from_collector(c)
}

use ldcf_net::{LinkQuality, Topology};
use ldcf_protocols::{Dbao, OpportunisticFlooding, Opt};
use ldcf_sim::{Engine, FloodingProtocol, SimConfig, VecObserver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Both folds of `events`, held equal. Returns whether the stream gave a
/// report (rather than an error).
fn assert_same(events: &[SimEvent]) -> bool {
    match (reference(events), ForensicsReport::from_events(events)) {
        (Ok(want), Ok(got)) => {
            assert_eq!(got.to_json_pretty(), want.to_json_pretty());
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.summary(usize::MAX), want.summary(usize::MAX));
            true
        }
        (Err(want), Err(got)) => {
            assert_eq!(got, want);
            false
        }
        (want, got) => panic!("reference {want:?}\nfold {got:?}"),
    }
}

/// A flood-shaped random stream: schedules, then per packet a push and
/// a random informing tree, with serves, failures (at random slots, so
/// out of order), duplicates, injections and coverage marks scattered
/// through it, and a few events swapped out of place.
fn random_stream(seed: u64) -> Vec<SimEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..9u32);
    let node = |rng: &mut StdRng| NodeId(rng.random_range(0..n));
    let mut events = Vec::new();
    for v in 0..n {
        if v + 1 < n && rng.random_range(0..50u8) == 0 {
            // A node without a schedule: an error. (Not the last one,
            // which would leave the source alone: a panic in the
            // reference, an error in the fold.)
            continue;
        }
        let period = rng.random_range(1..6u32);
        let mut offsets: Vec<u32> = (0..period).filter(|_| rng.random_bool(0.5)).collect();
        if offsets.is_empty() {
            offsets.push(rng.random_range(0..period));
        }
        for offset in offsets {
            events.push(SimEvent::ScheduleSlot {
                slot: 0,
                node: NodeId(v),
                period,
                offset,
            });
        }
    }
    let packets = rng.random_range(1..5u32);
    let mut body = Vec::new();
    for p in 0..packets {
        let origin = if rng.random_bool(0.2) {
            let o = node(&mut rng);
            body.push(SimEvent::PacketInjected {
                slot: 0,
                node: o,
                packet: p,
            });
            o
        } else {
            SOURCE
        };
        let mut slot = rng.random_range(0..10u64);
        if rng.random_range(0..20u8) != 0 {
            body.push(SimEvent::TxAttempt {
                slot,
                sender: origin,
                receiver: node(&mut rng),
                packet: p,
                bypass_mac: rng.random_bool(0.3),
            });
        }
        let mut informed = vec![origin];
        for _ in 0..rng.random_range(0..2 * n as usize) {
            slot += rng.random_range(0..6u64);
            let parent = informed[rng.random_range(0..informed.len())];
            let child = node(&mut rng);
            let fresh = rng.random_range(0..8u8) != 0;
            body.push(SimEvent::TxAttempt {
                slot,
                sender: parent,
                receiver: child,
                packet: p,
                bypass_mac: false,
            });
            let (sender, receiver, packet) = (parent, child, p);
            body.push(if rng.random_bool(0.8) {
                SimEvent::Delivered {
                    slot,
                    sender,
                    receiver,
                    packet,
                    fresh,
                }
            } else {
                SimEvent::Overheard {
                    slot,
                    sender,
                    receiver,
                    packet,
                    fresh,
                }
            });
            if fresh {
                informed.push(child);
                if rng.random_range(0..6u8) == 0 {
                    body.push(SimEvent::CoverageReached {
                        slot,
                        packet: p,
                        holders: informed.len() as u32,
                    });
                }
            }
        }
    }
    for _ in 0..rng.random_range(0..60usize) {
        let (slot, sender, receiver) = (rng.random_range(0..60u64), node(&mut rng), node(&mut rng));
        let packet = rng.random_range(0..packets);
        let ev = match rng.random_range(0..9u8) {
            0 => SimEvent::LinkLoss {
                slot,
                sender,
                receiver,
                packet,
            },
            1 => SimEvent::Collision {
                slot,
                sender,
                receiver,
                packet,
            },
            2 => SimEvent::ReceiverBusy {
                slot,
                sender,
                receiver,
                packet,
            },
            3 => SimEvent::Mistimed {
                slot,
                sender,
                receiver,
                packet,
            },
            4 => SimEvent::Deferred {
                slot,
                sender,
                receiver,
                packet,
            },
            5 => SimEvent::BurstLoss {
                slot,
                sender,
                receiver,
                packet,
            },
            6 => SimEvent::TxAttempt {
                slot,
                sender,
                receiver,
                packet,
                bypass_mac: false,
            },
            7 => SimEvent::SlotEnd {
                slot,
                queued: 0,
                active_nodes: n,
            },
            _ => SimEvent::SourceRetry { slot, packet },
        };
        let at = rng.random_range(0..=body.len());
        body.insert(at, ev);
    }
    if !body.is_empty() {
        for _ in 0..rng.random_range(0..3usize) {
            let (a, b) = (
                rng.random_range(0..body.len()),
                rng.random_range(0..body.len()),
            );
            body.swap(a, b);
        }
    }
    events.extend(body);
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn fold_matches_reference_on_random_streams(seed in any::<u64>()) {
        assert_same(&random_stream(seed));
    }
}

#[test]
fn random_streams_mostly_give_reports() {
    // Errors compare too, but the property means little unless most
    // streams reach the tree pass.
    let reports = (0..500u64)
        .filter(|&s| assert_same(&random_stream(s)))
        .count();
    assert!(reports > 250, "{reports} of 500 streams gave a report");
}

fn engine_trace<P: FloodingProtocol>(protocol: P, seed: u64) -> Vec<SimEvent> {
    let cfg = SimConfig {
        period: 5,
        active_per_period: 1,
        n_packets: 6,
        coverage: 1.0,
        max_slots: 50_000,
        seed,
        mistiming_prob: 0.05,
    };
    let engine = Engine::new(Topology::grid(5, 5, LinkQuality::new(0.7)), cfg, protocol)
        .with_observer(VecObserver::default());
    engine.run_traced().2.events
}

#[test]
fn fold_matches_reference_on_engine_traces() {
    for seed in 1..4 {
        assert!(assert_same(&engine_trace(Opt::new(), seed)));
        assert!(assert_same(&engine_trace(Dbao::new(), seed)));
        assert!(assert_same(&engine_trace(
            OpportunisticFlooding::new(),
            seed
        )));
    }
}
