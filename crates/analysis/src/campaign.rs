//! Campaign aggregation: joining simulated cells against the paper's
//! delay-limit theory, with streaming per-group statistics.
//!
//! The campaign runner (`ldcf-bench`) executes one simulation per
//! matrix cell (protocol × duty × seed) and summarises each into a
//! [`CellSummary`]. This module owns the *analysis* half: the theory
//! prediction for a cell's operating point (Theorem 1's `E[FDL]` at the
//! duty-equivalent period), the per-(protocol, duty) [`GroupStats`]
//! accumulators ([`OnlineStats`] moments plus a log-bucketed
//! [`StreamingHistogram`] for quantiles), the seed-paired
//! [`PairedStats`] protocol comparisons, and the [`CampaignStats`]
//! grid tying them together.
//!
//! Everything here streams: a cell is folded into O(1)-sized
//! accumulators and dropped, so thousand-seed campaigns use memory
//! independent of the seed count. Accumulators [`merge`]
//! (`CampaignStats::merge`) associatively; folding per-shard partials
//! in a fixed shard order makes every derived byte — `campaign.md`,
//! `campaign-stats.md`, the `statistics` block of `campaign.json` —
//! independent of the rayon worker count.
//!
//! The theory join deliberately uses the *duty-equivalent* period
//! `T_eff = round(1/duty)`: the theory's schedule model is one active
//! slot per period, so a node at duty `d` wakes as often as a
//! single-slot node with period `1/d`, whatever its actual `(T, active)`
//! decomposition. This keeps heterogeneous-period cells comparable to
//! homogeneous ones on the same row.

use crate::stats::{sign_test_two_sided, OnlineStats};
use ldcf_core::fdl;
use ldcf_obs::StreamingHistogram;
use serde::{Deserialize, Serialize, Value};

/// One executed campaign cell, as the runner summarises it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Protocol name (runner vocabulary, e.g. `"opt"`, `"dbao"`, `"of"`).
    pub protocol: String,
    /// Duty ratio of the cell.
    pub duty: f64,
    /// Schedule/MAC seed of the cell.
    pub seed: u64,
    /// Sensor count of the scenario topology (excludes the source).
    pub n_sensors: u64,
    /// Packets flooded.
    pub packets: u32,
    /// Mean flooding delay over covered packets, in slots.
    pub mean_fdl: Option<f64>,
    /// Fraction of packets that reached the coverage target.
    pub coverage_rate: f64,
    /// Committed transmissions.
    pub transmissions: u64,
    /// Radio-active slots summed over nodes (the energy ledger's
    /// currency: wake slots + transmission slots).
    pub energy_active: u64,
    /// Slots the cell ran for.
    pub slots_elapsed: u64,
}

/// Duty-equivalent period `T_eff = round(1/duty)` (min 1).
fn t_eff(duty: f64) -> u32 {
    (1.0 / duty).round().max(1.0) as u32
}

/// Theorem 1's `E[FDL]` at a cell's operating point, in slots, using
/// the duty-equivalent period.
pub fn predicted_fdl(packets: u32, n_sensors: u64, duty: f64) -> f64 {
    fdl::fdl_expected(packets, n_sensors, t_eff(duty))
}

/// Theorem 2's `(lower, upper)` bounds at the same operating point.
pub fn predicted_fdl_bounds(packets: u32, n_sensors: u64, duty: f64) -> (f64, f64) {
    fdl::fdl_theorem2_bounds(packets, n_sensors, duty_period(duty))
}

/// Public alias of [`t_eff`] for callers that need the joined period.
pub fn duty_period(duty: f64) -> u32 {
    t_eff(duty)
}

/// Streaming statistics of one (protocol, duty) group, folded over
/// seeds. O(1) memory: four moment accumulators, one fixed-size
/// histogram, and counters.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupStats {
    /// Protocol name.
    pub protocol: String,
    /// Duty ratio.
    pub duty: f64,
    /// Cells folded into this group (covered or not).
    pub cells: u64,
    /// Mean flooding delay over seeds — covered cells only.
    pub fdl: OnlineStats,
    /// Log-bucketed histogram of the cells' mean FDLs (rounded to
    /// whole slots), for p50/p95 without storing samples.
    pub fdl_hist: StreamingHistogram,
    /// Coverage success rate over all cells.
    pub coverage: OnlineStats,
    /// Committed transmissions over all cells.
    pub transmissions: OnlineStats,
    /// Radio-active slots over all cells.
    pub energy: OnlineStats,
    /// Cells whose mean FDL exceeded Theorem 2's hard worst case
    /// `T · FWL` — each one is a per-cell bound violation.
    pub worst_case_violations: u64,
    /// Packets per cell (from the first folded cell; a campaign's
    /// workload is homogeneous).
    packets: u32,
    /// Sensors per cell (ditto).
    n_sensors: u64,
}

/// Distribution-level theory conformance of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conformance {
    /// Theorem 1's predicted mean lies inside the group's 95 % CI.
    pub theorem1_in_ci: bool,
    /// The 95 % CI overlaps Theorem 2's `[lower, upper]` band.
    pub theorem2_ci_overlap: bool,
    /// Cells that individually exceeded the hard worst case.
    pub worst_case_violations: u64,
}

impl GroupStats {
    /// An empty group for `(protocol, duty)`.
    pub fn new(protocol: &str, duty: f64) -> Self {
        Self {
            protocol: protocol.to_string(),
            duty,
            cells: 0,
            fdl: OnlineStats::new(),
            fdl_hist: StreamingHistogram::new(),
            coverage: OnlineStats::new(),
            transmissions: OnlineStats::new(),
            energy: OnlineStats::new(),
            worst_case_violations: 0,
            packets: 0,
            n_sensors: 0,
        }
    }

    /// Fold one cell in and drop it.
    pub fn record(&mut self, c: &CellSummary) {
        if self.cells == 0 {
            self.packets = c.packets;
            self.n_sensors = c.n_sensors;
        }
        self.cells += 1;
        self.coverage.record(c.coverage_rate);
        self.transmissions.record(c.transmissions as f64);
        self.energy.record(c.energy_active as f64);
        if let Some(f) = c.mean_fdl {
            self.fdl.record(f);
            self.fdl_hist.record(f.round() as u64);
            let wc = fdl::fdl_worst_case(c.packets, c.n_sensors, t_eff(c.duty)) as f64;
            if f > wc {
                self.worst_case_violations += 1;
            }
        }
    }

    /// Fold another partial of the *same* group in.
    pub fn merge(&mut self, other: &Self) {
        if other.cells == 0 {
            return;
        }
        if self.cells == 0 {
            self.packets = other.packets;
            self.n_sensors = other.n_sensors;
        }
        self.cells += other.cells;
        self.fdl.merge(&other.fdl);
        self.fdl_hist.merge(&other.fdl_hist);
        self.coverage.merge(&other.coverage);
        self.transmissions.merge(&other.transmissions);
        self.energy.merge(&other.energy);
        self.worst_case_violations += other.worst_case_violations;
    }

    /// Theorem 1 prediction for this group's operating point (`None`
    /// before any cell is folded).
    pub fn predicted(&self) -> Option<f64> {
        (self.cells > 0).then(|| predicted_fdl(self.packets, self.n_sensors, self.duty))
    }

    /// Theorem 2 bounds for this group's operating point.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        (self.cells > 0).then(|| predicted_fdl_bounds(self.packets, self.n_sensors, self.duty))
    }

    /// Simulated over predicted mean delay.
    pub fn ratio(&self) -> Option<f64> {
        let pred = self.predicted()?;
        (self.fdl.count > 0).then(|| self.fdl.mean / pred)
    }

    /// Distribution-level conformance verdict. `None` until the group
    /// holds at least two covered cells (one sample pins no CI).
    pub fn conformance(&self) -> Option<Conformance> {
        let (lo, hi) = self.fdl.ci95()?;
        let pred = self.predicted()?;
        let (blo, bhi) = self.bounds()?;
        Some(Conformance {
            theorem1_in_ci: lo <= pred && pred <= hi,
            theorem2_ci_overlap: lo <= bhi && blo <= hi,
            worst_case_violations: self.worst_case_violations,
        })
    }
}

/// Seed-paired comparison of two protocols at one duty: both protocols
/// ran the *same* seeds, so their per-seed delay difference cancels
/// schedule luck. Folds the mean difference (with CI) and the
/// sign-flip counts for the exact sign test.
#[derive(Clone, Debug, PartialEq)]
pub struct PairedStats {
    /// First protocol (the minuend).
    pub protocol_a: String,
    /// Second protocol (the subtrahend).
    pub protocol_b: String,
    /// Duty ratio.
    pub duty: f64,
    /// Per-seed `FDL_a − FDL_b`, over seeds where both covered.
    pub diff: OnlineStats,
    /// Seeds where `a` was strictly slower.
    pub pos: u64,
    /// Seeds where `a` was strictly faster.
    pub neg: u64,
    /// Exact ties.
    pub ties: u64,
}

impl PairedStats {
    /// An empty pair for `(a, b)` at `duty`.
    pub fn new(protocol_a: &str, protocol_b: &str, duty: f64) -> Self {
        Self {
            protocol_a: protocol_a.to_string(),
            protocol_b: protocol_b.to_string(),
            duty,
            diff: OnlineStats::new(),
            pos: 0,
            neg: 0,
            ties: 0,
        }
    }

    /// Fold one common seed in. Skips the seed unless both cells
    /// covered (an uncovered cell has no delay to difference).
    pub fn record_pair(&mut self, a: &CellSummary, b: &CellSummary) {
        debug_assert_eq!(a.seed, b.seed, "paired cells must share a seed");
        let (Some(fa), Some(fb)) = (a.mean_fdl, b.mean_fdl) else {
            return;
        };
        let d = fa - fb;
        self.diff.record(d);
        if d > 0.0 {
            self.pos += 1;
        } else if d < 0.0 {
            self.neg += 1;
        } else {
            self.ties += 1;
        }
    }

    /// Fold another partial of the same pair in.
    pub fn merge(&mut self, other: &Self) {
        self.diff.merge(&other.diff);
        self.pos += other.pos;
        self.neg += other.neg;
        self.ties += other.ties;
    }

    /// Exact two-sided sign-test p-value over the non-tied seeds.
    pub fn sign_p(&self) -> Option<f64> {
        sign_test_two_sided(self.pos, self.neg)
    }

    /// Whether the sign test rejects "no difference" at α = 0.05.
    pub fn significant(&self) -> Option<bool> {
        self.sign_p().map(|p| p < 0.05)
    }
}

/// The full campaign grid: one [`GroupStats`] per (protocol, duty) in
/// matrix order (protocols outer), one [`PairedStats`] per unordered
/// protocol pair per duty. Partials of the same shape merge
/// element-wise, which is what the runner's shard reducer exploits.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignStats {
    /// Matrix protocols, in spec order.
    pub protocols: Vec<String>,
    /// Matrix duties, in spec order.
    pub duties: Vec<f64>,
    /// Seeds per cell in the matrix.
    pub seeds: u64,
    /// `protocols.len() × duties.len()` groups, protocol-outer.
    pub groups: Vec<GroupStats>,
    /// One entry per protocol pair `(i < j)` per duty, pair-outer.
    pub pairs: Vec<PairedStats>,
}

impl CampaignStats {
    /// An empty grid for the given matrix axes.
    pub fn new(protocols: &[String], duties: &[f64], seeds: u64) -> Self {
        let mut groups = Vec::with_capacity(protocols.len() * duties.len());
        for p in protocols {
            for &d in duties {
                groups.push(GroupStats::new(p, d));
            }
        }
        let mut pairs = Vec::new();
        for i in 0..protocols.len() {
            for j in i + 1..protocols.len() {
                for &d in duties {
                    pairs.push(PairedStats::new(&protocols[i], &protocols[j], d));
                }
            }
        }
        Self {
            protocols: protocols.to_vec(),
            duties: duties.to_vec(),
            seeds,
            groups,
            pairs,
        }
    }

    /// Index of the `(protocol, duty)` group.
    pub fn group_index(&self, p_idx: usize, d_idx: usize) -> usize {
        p_idx * self.duties.len() + d_idx
    }

    /// Index of the `(a < b, duty)` pair entry.
    fn pair_index(&self, a: usize, b: usize, d_idx: usize) -> usize {
        debug_assert!(a < b && b < self.protocols.len());
        // Pairs before (a, ·): sum of (P−1−i) for i < a.
        let p = self.protocols.len();
        let before = a * (2 * p - a - 1) / 2;
        (before + (b - a - 1)) * self.duties.len() + d_idx
    }

    /// Fold one seed's row of cells — `row[p_idx]` is protocol
    /// `protocols[p_idx]` at `duties[d_idx]`, `None` if the cell is
    /// unavailable — into the groups and every both-present pair.
    pub fn record_row(&mut self, d_idx: usize, row: &[Option<CellSummary>]) {
        assert_eq!(row.len(), self.protocols.len());
        for (p_idx, cell) in row.iter().enumerate() {
            if let Some(c) = cell {
                let g = self.group_index(p_idx, d_idx);
                self.groups[g].record(c);
            }
        }
        for a in 0..row.len() {
            for b in a + 1..row.len() {
                if let (Some(ca), Some(cb)) = (&row[a], &row[b]) {
                    let idx = self.pair_index(a, b, d_idx);
                    self.pairs[idx].record_pair(ca, cb);
                }
            }
        }
    }

    /// Merge a same-shape partial in, element-wise.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.protocols, other.protocols, "mismatched partials");
        assert_eq!(self.duties.len(), other.duties.len());
        for (g, o) in self.groups.iter_mut().zip(&other.groups) {
            g.merge(o);
        }
        for (p, o) in self.pairs.iter_mut().zip(&other.pairs) {
            p.merge(o);
        }
    }

    /// Render the classic campaign table joining simulated against
    /// predicted `E[FDL]` per (protocol, duty) group. Groups no cell
    /// reached are skipped.
    pub fn campaign_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| protocol | duty | cells | sim E[FDL] | predicted E[FDL] | sim/pred | coverage | mean tx |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for g in self.groups.iter().filter(|g| g.cells > 0) {
            let sim = if g.fdl.count > 0 {
                format!("{:.1}", g.fdl.mean)
            } else {
                "—".into()
            };
            let ratio = g.ratio().map_or("—".to_string(), |x| format!("{x:.2}"));
            out.push_str(&format!(
                "| {} | {:.3} | {} | {} | {:.1} | {} | {:.2} | {:.1} |\n",
                g.protocol,
                g.duty,
                g.cells,
                sim,
                g.predicted().expect("cells > 0"),
                ratio,
                g.coverage.mean,
                g.transmissions.mean,
            ));
        }
        out
    }

    /// Render the statistics tables (the body of `campaign-stats.md`):
    /// per-group 95 % confidence intervals with the Theorem 1/2
    /// conformance verdicts, then the seed-paired protocol comparisons.
    pub fn stats_markdown(&self) -> String {
        let fmt_ci = |ci: Option<(f64, f64)>| {
            ci.map_or("—".to_string(), |(lo, hi)| format!("[{lo:.2}, {hi:.2}]"))
        };
        let mut out = String::new();
        out.push_str("## Per-group statistics (95% CI over seeds)\n\n");
        out.push_str(
            "| protocol | duty | cells | covered | E[FDL] | 95% CI | p50 | p95 | T1 pred | in CI | T2 bounds | CI∩T2 | WC viol |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for g in self.groups.iter().filter(|g| g.cells > 0) {
            let mean = if g.fdl.count > 0 {
                format!("{:.2}", g.fdl.mean)
            } else {
                "—".into()
            };
            let quant = |q: Option<u64>| q.map_or("—".to_string(), |v| v.to_string());
            let (blo, bhi) = g.bounds().expect("cells > 0");
            let verdict = |b: bool| if b { "yes" } else { "NO" };
            let (t1, t2) = g.conformance().map_or(("—", "—"), |c| {
                (verdict(c.theorem1_in_ci), verdict(c.theorem2_ci_overlap))
            });
            out.push_str(&format!(
                "| {} | {:.3} | {} | {} | {} | {} | {} | {} | {:.1} | {} | [{:.1}, {:.1}] | {} | {} |\n",
                g.protocol,
                g.duty,
                g.cells,
                g.fdl.count,
                mean,
                fmt_ci(g.fdl.ci95()),
                quant(g.fdl_hist.p50()),
                quant(g.fdl_hist.p95()),
                g.predicted().expect("cells > 0"),
                t1,
                blo,
                bhi,
                t2,
                g.worst_case_violations,
            ));
        }
        out.push_str("\n## Per-group resources (mean, 95% CI over seeds)\n\n");
        out.push_str(
            "| protocol | duty | coverage | 95% CI | energy (active slots) | 95% CI | tx | 95% CI |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for g in self.groups.iter().filter(|g| g.cells > 0) {
            out.push_str(&format!(
                "| {} | {:.3} | {:.4} | {} | {:.1} | {} | {:.1} | {} |\n",
                g.protocol,
                g.duty,
                g.coverage.mean,
                fmt_ci(g.coverage.ci95()),
                g.energy.mean,
                fmt_ci(g.energy.ci95()),
                g.transmissions.mean,
                fmt_ci(g.transmissions.ci95()),
            ));
        }
        if !self.pairs.is_empty() {
            out.push_str("\n## Paired protocol comparisons (common seeds)\n\n");
            out.push_str(
                "| duty | Δ = A − B | n | mean Δ FDL | 95% CI | + / − / = | sign p | significant |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|---|\n");
            for p in &self.pairs {
                let n = p.diff.count;
                let mean = if n > 0 {
                    format!("{:.2}", p.diff.mean)
                } else {
                    "—".into()
                };
                let sig = p.significant().map_or("—".to_string(), |s| {
                    (if s { "yes" } else { "no" }).to_string()
                });
                let pval = p.sign_p().map_or("—".to_string(), |v| format!("{v:.4}"));
                out.push_str(&format!(
                    "| {:.3} | {} − {} | {} | {} | {} | {} / {} / {} | {} | {} |\n",
                    p.duty,
                    p.protocol_a,
                    p.protocol_b,
                    n,
                    mean,
                    fmt_ci(p.diff.ci95()),
                    p.pos,
                    p.neg,
                    p.ties,
                    pval,
                    sig,
                ));
            }
        }
        out
    }

    /// The `statistics` block of `campaign.json`.
    pub fn to_value(&self) -> Value {
        let stat_value = |s: &OnlineStats| {
            let mut fields = vec![("count".to_string(), Value::UInt(s.count))];
            if s.count > 0 {
                fields.push(("mean".into(), Value::Float(s.mean)));
                fields.push(("min".into(), Value::Float(s.min)));
                fields.push(("max".into(), Value::Float(s.max)));
            }
            if let Some(sd) = s.std_dev() {
                fields.push(("std_dev".into(), Value::Float(sd)));
            }
            if let Some((lo, hi)) = s.ci95() {
                fields.push((
                    "ci95".into(),
                    Value::Array(vec![Value::Float(lo), Value::Float(hi)]),
                ));
            }
            Value::Object(fields)
        };
        let groups = self
            .groups
            .iter()
            .filter(|g| g.cells > 0)
            .map(|g| {
                let mut fields = vec![
                    ("protocol".to_string(), Value::Str(g.protocol.clone())),
                    ("duty".into(), Value::Float(g.duty)),
                    ("cells".into(), Value::UInt(g.cells)),
                    ("fdl".into(), stat_value(&g.fdl)),
                    ("fdl_p50".into(), Value::UInt(g.fdl_hist.p50().unwrap_or(0))),
                    ("fdl_p95".into(), Value::UInt(g.fdl_hist.p95().unwrap_or(0))),
                    ("coverage".into(), stat_value(&g.coverage)),
                    ("transmissions".into(), stat_value(&g.transmissions)),
                    ("energy_active".into(), stat_value(&g.energy)),
                ];
                let (blo, bhi) = g.bounds().expect("cells > 0");
                let mut theory = vec![
                    (
                        "predicted".to_string(),
                        Value::Float(g.predicted().expect("cells > 0")),
                    ),
                    ("lower".into(), Value::Float(blo)),
                    ("upper".into(), Value::Float(bhi)),
                    (
                        "worst_case_violations".into(),
                        Value::UInt(g.worst_case_violations),
                    ),
                ];
                if let Some(c) = g.conformance() {
                    theory.push(("theorem1_in_ci".into(), Value::Bool(c.theorem1_in_ci)));
                    theory.push((
                        "theorem2_ci_overlap".into(),
                        Value::Bool(c.theorem2_ci_overlap),
                    ));
                }
                fields.push(("theory".into(), Value::Object(theory)));
                Value::Object(fields)
            })
            .collect();
        let paired = self
            .pairs
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("protocol_a".to_string(), Value::Str(p.protocol_a.clone())),
                    ("protocol_b".into(), Value::Str(p.protocol_b.clone())),
                    ("duty".into(), Value::Float(p.duty)),
                    ("diff".into(), stat_value(&p.diff)),
                    ("pos".into(), Value::UInt(p.pos)),
                    ("neg".into(), Value::UInt(p.neg)),
                    ("ties".into(), Value::UInt(p.ties)),
                ];
                if let Some(pv) = p.sign_p() {
                    fields.push(("sign_p".into(), Value::Float(pv)));
                    fields.push((
                        "significant".into(),
                        Value::Bool(p.significant().expect("sign_p is Some")),
                    ));
                }
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![
            (
                "estimator".into(),
                Value::Str(
                    "mean ± t·SEM (95% CI, Student-t); quantiles from a log-bucketed \
                     streaming histogram (≤ 12.5% relative error); paired sign test \
                     exact two-sided at p = 0.5"
                        .into(),
                ),
            ),
            ("groups".into(), Value::Array(groups)),
            ("paired".into(), Value::Array(paired)),
        ])
    }

    /// Theorem conformance violations suitable for a CI gate: per-cell
    /// hard worst-case excesses, and group CIs lying wholly **above**
    /// Theorem 2's upper bound. The theorems bound the flooding delay
    /// *limit* from above — `FWL` is a worst-network waiting profile —
    /// so a dense deployment legitimately floods faster than the band's
    /// lower edge; only exceeding the upper side contradicts the paper.
    /// (Theorem 1's point prediction staying inside the CI, and full
    /// band overlap, are reported but not gated: at thousand-seed
    /// sample sizes the CI is tight enough that any model
    /// simplification fails them — callers decide whether to enforce
    /// more.)
    pub fn gate_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for g in self.groups.iter().filter(|g| g.cells > 0) {
            if g.worst_case_violations > 0 {
                out.push(format!(
                    "{} duty {:.3}: {} cell(s) exceed the Theorem 2 hard worst case",
                    g.protocol, g.duty, g.worst_case_violations
                ));
            }
            if let (Some((ci_lo, _)), Some((_, upper))) = (g.fdl.ci95(), g.bounds()) {
                if ci_lo > upper {
                    out.push(format!(
                        "{} duty {:.3}: 95% CI lies above the Theorem 2 upper bound",
                        g.protocol, g.duty
                    ));
                }
            }
        }
        out
    }
}

/// Build a [`CampaignStats`] from an in-memory cell list, discovering
/// the matrix axes in first-appearance order and pairing cells of the
/// same (duty, seed) across protocols. Convenience for tests and small
/// batches — the campaign runner folds shard partials instead (same
/// arithmetic, fixed order, O(1) memory).
pub fn stats_of_cells(cells: &[CellSummary]) -> CampaignStats {
    let mut protocols: Vec<String> = Vec::new();
    let mut duties: Vec<f64> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    for c in cells {
        if !protocols.contains(&c.protocol) {
            protocols.push(c.protocol.clone());
        }
        if !duties.iter().any(|d| d.to_bits() == c.duty.to_bits()) {
            duties.push(c.duty);
        }
        if !seeds.contains(&c.seed) {
            seeds.push(c.seed);
        }
    }
    let mut stats = CampaignStats::new(&protocols, &duties, seeds.len() as u64);
    for (d_idx, duty) in duties.iter().enumerate() {
        for seed in &seeds {
            let row: Vec<Option<CellSummary>> = protocols
                .iter()
                .map(|p| {
                    cells
                        .iter()
                        .find(|c| {
                            c.protocol == *p
                                && c.duty.to_bits() == duty.to_bits()
                                && c.seed == *seed
                        })
                        .cloned()
                })
                .collect();
            stats.record_row(d_idx, &row);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(protocol: &str, duty: f64, seed: u64, fdl: Option<f64>) -> CellSummary {
        CellSummary {
            protocol: protocol.into(),
            duty,
            seed,
            n_sensors: 29,
            packets: 8,
            mean_fdl: fdl,
            coverage_rate: if fdl.is_some() { 1.0 } else { 0.0 },
            transmissions: 100,
            energy_active: 2500,
            slots_elapsed: 5000,
        }
    }

    #[test]
    fn predicted_uses_duty_equivalent_period() {
        // duty 0.05 → T_eff 20; Theorem 1 with M=8 ≥ m=⌈log2(30)⌉=5:
        // E[FDL] = T(m + M/2 - 1) = 20 × 8 = 160.
        assert_eq!(predicted_fdl(8, 29, 0.05), 160.0);
        let (lo, hi) = predicted_fdl_bounds(8, 29, 0.05);
        assert!(lo <= 160.0 && 160.0 <= hi);
        assert_eq!(duty_period(0.05), 20);
    }

    #[test]
    fn groups_aggregate_over_seeds_in_matrix_order() {
        let cells = [
            cell("of", 0.05, 1, Some(100.0)),
            cell("of", 0.05, 2, Some(140.0)),
            cell("dbao", 0.05, 1, Some(300.0)),
            cell("of", 0.10, 1, Some(60.0)),
        ];
        let stats = stats_of_cells(&cells);
        assert_eq!(stats.protocols, ["of", "dbao"]);
        let of_05 = &stats.groups[stats.group_index(0, 0)];
        assert_eq!(of_05.cells, 2);
        assert_eq!(of_05.fdl.mean, 120.0);
        assert!((of_05.ratio().unwrap() - 120.0 / 160.0).abs() < 1e-12);
        let dbao_05 = &stats.groups[stats.group_index(1, 0)];
        assert_eq!(dbao_05.cells, 1);
        let table = stats.campaign_table();
        assert!(table.contains("| of | 0.050 | 2 |"), "table:\n{table}");
        assert!(table.contains("| dbao | 0.050 | 1 |"));
    }

    #[test]
    fn uncovered_cells_leave_fdl_blank_but_count() {
        let cells = [cell("of", 0.05, 1, None), cell("of", 0.05, 2, Some(80.0))];
        let stats = stats_of_cells(&cells);
        let g = &stats.groups[0];
        assert_eq!(g.cells, 2);
        assert_eq!(g.fdl.count, 1, "mean over covered cells only");
        assert_eq!(g.fdl.mean, 80.0);
        assert_eq!(g.coverage.mean, 0.5);
        let table = stats.campaign_table();
        assert!(table.contains("| of | 0.050 | 2 |"), "table:\n{table}");
    }

    #[test]
    fn paired_stats_difference_common_seeds_only() {
        // opt beats of on seeds 1 and 2; seed 3 is uncovered for of.
        let cells = [
            cell("opt", 0.05, 1, Some(90.0)),
            cell("opt", 0.05, 2, Some(100.0)),
            cell("opt", 0.05, 3, Some(95.0)),
            cell("of", 0.05, 1, Some(120.0)),
            cell("of", 0.05, 2, Some(100.0)),
            cell("of", 0.05, 3, None),
        ];
        let stats = stats_of_cells(&cells);
        assert_eq!(stats.pairs.len(), 1);
        let p = &stats.pairs[0];
        assert_eq!(
            (p.protocol_a.as_str(), p.protocol_b.as_str()),
            ("opt", "of")
        );
        assert_eq!(p.diff.count, 2, "seed 3 has no pair");
        assert_eq!(p.diff.mean, -15.0);
        assert_eq!((p.pos, p.neg, p.ties), (0, 1, 1));
        assert_eq!(p.sign_p(), Some(1.0), "one flip decides nothing");
    }

    #[test]
    fn merged_partials_match_a_single_fold() {
        let protocols = ["opt".to_string(), "of".to_string()];
        let duties = [0.05];
        let rows: Vec<[Option<CellSummary>; 2]> = (1..=40)
            .map(|s| {
                [
                    Some(cell("opt", 0.05, s, Some(80.0 + s as f64))),
                    Some(cell("of", 0.05, s, Some(90.0 + (s % 7) as f64))),
                ]
            })
            .collect();
        let mut whole = CampaignStats::new(&protocols, &duties, 40);
        for row in &rows {
            whole.record_row(0, &row[..]);
        }
        let mut merged = CampaignStats::new(&protocols, &duties, 40);
        for chunk in rows.chunks(9) {
            let mut part = CampaignStats::new(&protocols, &duties, 40);
            for row in chunk {
                part.record_row(0, &row[..]);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.groups[0].cells, whole.groups[0].cells);
        assert_eq!(merged.groups[0].fdl_hist, whole.groups[0].fdl_hist);
        assert!((merged.groups[0].fdl.mean - whole.groups[0].fdl.mean).abs() < 1e-9);
        assert_eq!(merged.pairs[0].pos, whole.pairs[0].pos);
        assert!((merged.pairs[0].diff.m2 - whole.pairs[0].diff.m2).abs() < 1e-6);
    }

    #[test]
    fn conformance_flags_worst_case_and_band_misses() {
        // In-band group: delays right at the prediction.
        let good = stats_of_cells(&[
            cell("opt", 0.05, 1, Some(158.0)),
            cell("opt", 0.05, 2, Some(162.0)),
        ]);
        let c = good.groups[0].conformance().unwrap();
        assert!(c.theorem1_in_ci);
        assert!(c.theorem2_ci_overlap);
        assert_eq!(c.worst_case_violations, 0);
        assert!(good.gate_violations().is_empty());

        // A delay beyond T·FWL = hard worst case (T_eff=20, M=8, N=29:
        // FWL = 2m+M−2 = 16 → 320 slots).
        let bad = stats_of_cells(&[
            cell("opt", 0.05, 1, Some(500.0)),
            cell("opt", 0.05, 2, Some(510.0)),
        ]);
        assert_eq!(bad.groups[0].worst_case_violations, 2);
        let v = bad.gate_violations();
        assert!(
            v.iter().any(|s| s.contains("hard worst case")),
            "violations: {v:?}"
        );
        assert!(v
            .iter()
            .any(|s| s.contains("above the Theorem 2 upper bound")));

        // Beating the band from below (a dense network flooding faster
        // than the worst-network profile) is NOT a gate violation, even
        // though the overlap verdict reports the miss.
        let fast = stats_of_cells(&[
            cell("opt", 0.05, 1, Some(50.0)),
            cell("opt", 0.05, 2, Some(52.0)),
        ]);
        assert!(!fast.groups[0].conformance().unwrap().theorem2_ci_overlap);
        assert!(fast.gate_violations().is_empty());
    }

    #[test]
    fn statistics_block_has_groups_theory_and_pairs() {
        let cells = [
            cell("opt", 0.05, 1, Some(100.0)),
            cell("opt", 0.05, 2, Some(110.0)),
            cell("of", 0.05, 1, Some(130.0)),
            cell("of", 0.05, 2, Some(125.0)),
        ];
        let stats = stats_of_cells(&cells);
        let v = stats.to_value();
        let groups = match v.get("groups") {
            Some(Value::Array(a)) => a,
            other => panic!("groups: {other:?}"),
        };
        assert_eq!(groups.len(), 2);
        let g0 = &groups[0];
        assert_eq!(g0.get("protocol").unwrap().as_str(), Some("opt"));
        assert_eq!(g0.get("cells").unwrap().as_u64(), Some(2));
        let fdl = g0.get("fdl").unwrap();
        assert_eq!(fdl.get("count").unwrap().as_u64(), Some(2));
        assert!(fdl.get("ci95").is_some());
        let theory = g0.get("theory").unwrap();
        assert_eq!(theory.get("predicted").unwrap().as_f64(), Some(160.0));
        assert!(theory.get("theorem1_in_ci").is_some());
        let paired = match v.get("paired") {
            Some(Value::Array(a)) => a,
            other => panic!("paired: {other:?}"),
        };
        assert_eq!(paired.len(), 1);
        assert_eq!(paired[0].get("pos").unwrap().as_u64(), Some(0));
        assert_eq!(paired[0].get("neg").unwrap().as_u64(), Some(2));
        // The markdown renders without panicking and names the tables.
        let md = stats.stats_markdown();
        assert!(md.contains("## Per-group statistics"));
        assert!(md.contains("## Paired protocol comparisons"));
    }

    #[test]
    fn pair_index_covers_every_unordered_pair_once() {
        let protocols: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let duties = [0.1, 0.2];
        let stats = CampaignStats::new(&protocols, &duties, 1);
        assert_eq!(stats.pairs.len(), 6 * 2);
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..4 {
            for b in a + 1..4 {
                for (d, duty) in duties.iter().enumerate() {
                    let idx = stats.pair_index(a, b, d);
                    assert!(seen.insert(idx), "index {idx} reused");
                    assert_eq!(stats.pairs[idx].protocol_a, protocols[a]);
                    assert_eq!(stats.pairs[idx].protocol_b, protocols[b]);
                    assert_eq!(stats.pairs[idx].duty.to_bits(), duty.to_bits());
                }
            }
        }
        assert_eq!(seen.len(), stats.pairs.len());
    }

    #[test]
    fn cell_summary_roundtrips_through_serde() {
        let c = cell("opt", 0.05, 3, Some(42.5));
        let json = serde_json::to_string_pretty(&c).unwrap();
        let back: CellSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        let none = cell("opt", 0.05, 3, None);
        let back: CellSummary =
            serde_json::from_str(&serde_json::to_string_pretty(&none).unwrap()).unwrap();
        assert_eq!(back, none);
    }
}
