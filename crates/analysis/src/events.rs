//! Replay of slot-level event streams (`ldcf-obs` JSONL traces).
//!
//! [`ReplayReport`] reconstructs the per-packet lifecycle and the
//! aggregate counters of a simulation run purely from its event stream,
//! using the same first-occurrence rules as the engine's `SimReport`:
//!
//! * `pushed_at[p]` — slot of the first `TxAttempt` by the source for
//!   packet `p` (mistimed source transmissions never reach the MAC, so
//!   they do not push).
//! * `covered_at[p]` — slot of the `CoverageReached` event (emitted
//!   exactly once per packet).
//! * `transmissions` — committed `TxAttempt`s plus `Mistimed` ones;
//!   `transmission_failures` — `LinkLoss + Collision + ReceiverBusy +
//!   Mistimed`; `overhears` counts only *fresh* overheard copies.
//!
//! On a complete trace, [`ReplayReport::mean_flooding_delay`] equals
//! `SimReport::mean_flooding_delay()` exactly — that identity is the
//! correctness contract of the tracing pipeline (checked end-to-end in
//! `ldcf-bench`'s replay tests).

use ldcf_net::{NodeId, SOURCE};
use ldcf_obs::SimEvent;

/// Per-packet lifecycle reconstructed from an event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketReplay {
    /// Slot of the source's first committed transmission of the packet.
    pub pushed_at: Option<u64>,
    /// Slot at which the packet reached its coverage target.
    pub covered_at: Option<u64>,
    /// Fresh dedicated deliveries.
    pub deliveries: u32,
    /// Fresh overheard copies.
    pub overhears: u32,
    /// Failed intended transmissions (loss + collision + busy + mistimed).
    pub failures: u32,
}

impl PacketReplay {
    /// Flooding delay in slots (push → coverage); `None` if either end
    /// of the interval is missing. Mirrors `PacketStats::flooding_delay`.
    pub fn flooding_delay(&self) -> Option<u64> {
        Some(self.covered_at?.saturating_sub(self.pushed_at?))
    }
}

/// Aggregate counters and per-packet records recomputed from events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayReport {
    /// Per-packet records, indexed by sequence number.
    pub packets: Vec<PacketReplay>,
    /// Slots replayed (`SlotEnd` count).
    pub slots_elapsed: u64,
    /// Committed transmissions plus mistimed ones.
    pub transmissions: u64,
    /// Loss + collision + receiver-busy + mistimed.
    pub transmission_failures: u64,
    /// Failures that were collisions specifically.
    pub collisions: u64,
    /// Fresh overheard receptions.
    pub overhears: u64,
    /// CSMA deferrals.
    pub deferrals: u64,
    /// Mistimed-rendezvous transmissions.
    pub mistimed: u64,
}

/// Incremental [`ReplayReport`] aggregation: absorbs one event at a
/// time, so arbitrarily long traces replay in constant memory (plus the
/// per-packet table). [`ReplayReport::from_source`] drives it over any
/// fallible event iterator.
#[derive(Clone, Debug, Default)]
pub struct ReplayBuilder {
    report: ReplayReport,
    // Per-packet flood origin: the default source unless the trace
    // carries an explicit `packet_injected` (multi-source/periodic
    // workloads). A packet's push slot is its origin's first attempt.
    origins: std::collections::HashMap<ldcf_net::PacketId, NodeId>,
}

impl ReplayBuilder {
    /// Fold one event into the running aggregates.
    pub fn absorb(&mut self, ev: &SimEvent) {
        let r = &mut self.report;
        let origins = &mut self.origins;
        {
            match *ev {
                SimEvent::TxAttempt {
                    slot,
                    sender,
                    packet,
                    ..
                } => {
                    r.transmissions += 1;
                    let origin = origins.get(&packet).copied().unwrap_or(SOURCE);
                    let st = r.packet_mut(packet);
                    if sender == origin && st.pushed_at.is_none() {
                        st.pushed_at = Some(slot);
                    }
                }
                SimEvent::Delivered { packet, fresh, .. } => {
                    if fresh {
                        r.packet_mut(packet).deliveries += 1;
                    }
                }
                SimEvent::Overheard { packet, fresh, .. } => {
                    if fresh {
                        r.overhears += 1;
                        r.packet_mut(packet).overhears += 1;
                    }
                }
                SimEvent::LinkLoss { packet, .. } | SimEvent::ReceiverBusy { packet, .. } => {
                    r.transmission_failures += 1;
                    r.packet_mut(packet).failures += 1;
                }
                SimEvent::Collision { packet, .. } => {
                    r.transmission_failures += 1;
                    r.collisions += 1;
                    r.packet_mut(packet).failures += 1;
                }
                SimEvent::Mistimed { packet, .. } => {
                    r.transmissions += 1;
                    r.transmission_failures += 1;
                    r.mistimed += 1;
                    r.packet_mut(packet).failures += 1;
                }
                SimEvent::Deferred { .. } => r.deferrals += 1,
                SimEvent::CoverageReached { slot, packet, .. } => {
                    let st = r.packet_mut(packet);
                    if st.covered_at.is_none() {
                        st.covered_at = Some(slot);
                    }
                }
                SimEvent::SlotEnd { .. } => r.slots_elapsed += 1,
                // Fault-injection annotations: a BurstLoss rides with a
                // LinkLoss already counted, and churn/retry events have
                // no SimReport counterpart in this replay.
                SimEvent::BurstLoss { .. }
                | SimEvent::NodeCrashed { .. }
                | SimEvent::NodeRecovered { .. }
                | SimEvent::SourceRetry { .. } => {}
                // Static schedule metadata; no counter corresponds.
                SimEvent::ScheduleSlot { .. } => {}
                SimEvent::PacketInjected { node, packet, .. } => {
                    origins.insert(packet, node);
                    r.packet_mut(packet);
                }
            }
        }
    }

    /// The finished report.
    pub fn finish(self) -> ReplayReport {
        self.report
    }
}

impl ReplayReport {
    /// Replay an event stream. The packet table is sized by the largest
    /// packet id seen, so partial traces replay to partial reports.
    pub fn from_events(events: &[SimEvent]) -> Self {
        let mut b = ReplayBuilder::default();
        for ev in events {
            b.absorb(ev);
        }
        b.finish()
    }

    /// Replay any fallible event stream (a [`ldcf_obs::JsonlReader`], a
    /// binary-trace iterator, ...) without ever materialising the full
    /// event vector.
    pub fn from_source<I, E>(events: I) -> Result<Self, E>
    where
        I: IntoIterator<Item = Result<SimEvent, E>>,
    {
        let mut b = ReplayBuilder::default();
        for ev in events {
            b.absorb(&ev?);
        }
        Ok(b.finish())
    }

    fn packet_mut(&mut self, packet: u32) -> &mut PacketReplay {
        let i = packet as usize;
        if i >= self.packets.len() {
            self.packets.resize(i + 1, PacketReplay::default());
        }
        &mut self.packets[i]
    }

    /// Mean flooding delay over covered packets; `None` if none covered.
    /// Bit-for-bit the same arithmetic as `SimReport::mean_flooding_delay`
    /// (sum of integer delays divided by count), so a full trace replays
    /// to the exact same figure.
    pub fn mean_flooding_delay(&self) -> Option<f64> {
        let delays: Vec<u64> = self
            .packets
            .iter()
            .filter_map(|p| p.flooding_delay())
            .collect();
        (!delays.is_empty()).then(|| delays.iter().sum::<u64>() as f64 / delays.len() as f64)
    }

    /// Fraction of packets that reached coverage.
    pub fn coverage_success_rate(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        self.packets
            .iter()
            .filter(|p| p.covered_at.is_some())
            .count() as f64
            / self.packets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::NodeId;

    fn tx(slot: u64, sender: u32, packet: u32) -> SimEvent {
        SimEvent::TxAttempt {
            slot,
            sender: NodeId(sender),
            receiver: NodeId(sender + 1),
            packet,
            bypass_mac: false,
        }
    }

    #[test]
    fn push_is_first_source_tx_only() {
        let events = [
            tx(3, 1, 0), // relay transmission: not a push
            tx(5, 0, 0), // source: push at 5
            tx(9, 0, 0), // repeat: ignored
            SimEvent::CoverageReached {
                slot: 105,
                packet: 0,
                holders: 4,
            },
        ];
        let r = ReplayReport::from_events(&events);
        assert_eq!(r.packets[0].pushed_at, Some(5));
        assert_eq!(r.packets[0].covered_at, Some(105));
        assert_eq!(r.packets[0].flooding_delay(), Some(100));
        assert_eq!(r.mean_flooding_delay(), Some(100.0));
        assert_eq!(r.transmissions, 3);
    }

    #[test]
    fn mistimed_counts_as_transmission_and_failure_but_not_push() {
        let events = [
            SimEvent::Mistimed {
                slot: 2,
                sender: NodeId(0),
                receiver: NodeId(1),
                packet: 0,
            },
            tx(7, 0, 0),
        ];
        let r = ReplayReport::from_events(&events);
        assert_eq!(
            r.packets[0].pushed_at,
            Some(7),
            "mistimed tx never reaches the MAC"
        );
        assert_eq!(r.transmissions, 2);
        assert_eq!(r.transmission_failures, 1);
        assert_eq!(r.mistimed, 1);
    }

    #[test]
    fn only_fresh_copies_count() {
        let dup = |fresh| SimEvent::Overheard {
            slot: 4,
            sender: NodeId(1),
            receiver: NodeId(2),
            packet: 0,
            fresh,
        };
        let r = ReplayReport::from_events(&[dup(true), dup(false)]);
        assert_eq!(r.overhears, 1);
        assert_eq!(r.packets[0].overhears, 1);
    }

    #[test]
    fn slot_end_drives_slots_elapsed() {
        let events: Vec<SimEvent> = (0..5)
            .map(|s| SimEvent::SlotEnd {
                slot: s,
                queued: 0,
                active_nodes: 1,
            })
            .collect();
        let r = ReplayReport::from_events(&events);
        assert_eq!(r.slots_elapsed, 5);
        assert!(r.packets.is_empty());
        assert_eq!(r.mean_flooding_delay(), None);
    }

    #[test]
    fn jsonl_roundtrip_replays() {
        let events = [
            tx(1, 0, 0),
            SimEvent::CoverageReached {
                slot: 11,
                packet: 0,
                holders: 3,
            },
        ];
        let mut text = Vec::new();
        for e in &events {
            e.write_jsonl(&mut text);
            text.push(b'\n');
        }
        let r = ReplayReport::from_source(ldcf_obs::JsonlReader::new(&text[..])).unwrap();
        assert_eq!(r, ReplayReport::from_events(&events));
        assert_eq!(r.mean_flooding_delay(), Some(10.0));
    }
}
