//! Per-run statistics: per-packet delays, coverage, failures, traffic.
//!
//! The paper's metrics (§V-B): *flooding delay* is "the average time
//! consumed by each packet from the time it has been pushed into the
//! network until it reaches 99 % sensors in the network"; Fig. 11 counts
//! *transmission failures* as the energy-relevant loss metric.

use ldcf_net::PacketId;
use serde::{Deserialize, Serialize};

/// Lifecycle record of one flooded packet.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PacketStats {
    /// Sequence number.
    pub packet: PacketId,
    /// Slot at which the source made the packet available.
    pub injected_at: u64,
    /// Slot of the source's first transmission of this packet
    /// ("pushed into the network"); `None` if never transmitted.
    pub pushed_at: Option<u64>,
    /// Slot at which the packet reached the coverage target; `None` if
    /// the run ended first.
    pub covered_at: Option<u64>,
    /// Sensors (excluding source) holding the packet at run end.
    pub final_holders: u32,
    /// Successful dedicated receptions of this packet.
    pub deliveries: u32,
    /// Overheard receptions of this packet.
    pub overhears: u32,
    /// Failed intended transmissions (loss + collision + busy).
    pub failures: u32,
}

impl PacketStats {
    fn new(packet: PacketId, injected_at: u64) -> Self {
        Self {
            packet,
            injected_at,
            pushed_at: None,
            covered_at: None,
            final_holders: 0,
            deliveries: 0,
            overhears: 0,
            failures: 0,
        }
    }

    /// Flooding delay in slots (push → coverage), the paper's Fig. 9/10
    /// metric. `None` if the packet was never pushed or never covered.
    pub fn flooding_delay(&self) -> Option<u64> {
        Some(self.covered_at?.saturating_sub(self.pushed_at?))
    }
}

/// Aggregated result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// Protocol name.
    pub protocol: String,
    /// Number of nominal sensors `N`.
    pub n_sensors: usize,
    /// Duty ratio used.
    pub duty_ratio: f64,
    /// Per-packet records, indexed by sequence number.
    pub packets: Vec<PacketStats>,
    /// Slots simulated.
    pub slots_elapsed: u64,
    /// Total committed transmissions.
    pub transmissions: u64,
    /// Total transmission failures (loss + collision + receiver-busy),
    /// the paper's Fig. 11 metric.
    pub transmission_failures: u64,
    /// Failures that were collisions specifically.
    pub collisions: u64,
    /// Deliveries that arrived via overhearing.
    pub overhears: u64,
    /// CSMA deferrals (carrier sense suppressed a would-be sender).
    pub deferrals: u64,
    /// Transmissions lost to residual local-synchronisation error
    /// (mistimed rendezvous; see `SimConfig::mistiming_prob`) or to
    /// injected clock drift.
    pub mistimed: u64,
    /// Injected node crashes (fault injection; 0 in fault-free runs).
    #[serde(default)]
    pub node_crashes: u64,
    /// Injected node recoveries (fault injection).
    #[serde(default)]
    pub node_recoveries: u64,
    /// Source-side re-queues of packets orphaned by crashes.
    #[serde(default)]
    pub source_retries: u64,
}

impl SimReport {
    /// Create an empty report for `m` packets.
    pub fn new(protocol: &str, n_sensors: usize, duty_ratio: f64, m: u32) -> Self {
        Self {
            protocol: protocol.to_string(),
            n_sensors,
            duty_ratio,
            packets: (0..m).map(|p| PacketStats::new(p, 0)).collect(),
            slots_elapsed: 0,
            transmissions: 0,
            transmission_failures: 0,
            collisions: 0,
            overhears: 0,
            deferrals: 0,
            mistimed: 0,
            node_crashes: 0,
            node_recoveries: 0,
            source_retries: 0,
        }
    }

    /// Record the injection slot of a packet.
    pub fn record_injection(&mut self, p: PacketId, slot: u64) {
        self.packets[p as usize].injected_at = slot;
    }

    /// Record the source's first transmission of a packet.
    pub fn record_push(&mut self, p: PacketId, slot: u64) {
        let st = &mut self.packets[p as usize];
        if st.pushed_at.is_none() {
            st.pushed_at = Some(slot);
        }
    }

    /// Record that the packet reached the coverage target.
    pub fn record_coverage(&mut self, p: PacketId, slot: u64) {
        let st = &mut self.packets[p as usize];
        if st.covered_at.is_none() {
            st.covered_at = Some(slot);
        }
    }

    /// Whether every packet has reached its coverage target.
    pub fn all_covered(&self) -> bool {
        self.packets.iter().all(|p| p.covered_at.is_some())
    }

    /// Mean flooding delay (push → coverage) over covered packets, the
    /// paper's headline metric. `None` if no packet was covered.
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

    #[test]
    fn delays_compose() {
        let mut r = SimReport::new("test", 10, 0.05, 2);
        r.record_injection(0, 0);
        r.record_push(0, 5);
        r.record_coverage(0, 105);
        let p = &r.packets[0];
        assert_eq!(p.flooding_delay(), Some(100));
        assert_eq!(r.packets[1].flooding_delay(), None);
        assert!(!r.all_covered());
        assert_eq!(r.mean_flooding_delay(), Some(100.0));
        assert!((r.coverage_success_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn push_and_coverage_record_only_once() {
        let mut r = SimReport::new("test", 10, 0.05, 1);
        r.record_push(0, 5);
        r.record_push(0, 9);
        r.record_coverage(0, 20);
        r.record_coverage(0, 30);
        assert_eq!(r.packets[0].pushed_at, Some(5));
        assert_eq!(r.packets[0].covered_at, Some(20));
    }

    #[test]
    fn empty_report_has_no_delay() {
        let r = SimReport::new("x", 5, 0.1, 3);
        assert_eq!(r.mean_flooding_delay(), None);
        assert_eq!(r.coverage_success_rate(), 0.0);
    }
}
