//! One function per paper artefact (table/figure).
//!
//! | function | paper artefact |
//! |---|---|
//! | [`table1`] | Table I — waitings of packets |
//! | [`fig3`] | Fig. 3 — Algorithm 1 worked example |
//! | [`fig5`] | Fig. 5 — Theorem 1 delay limit vs `M` |
//! | [`fig6`] | Fig. 6 — Theorem 2 bounds vs `M` |
//! | [`fig7`] | Fig. 7 — link-loss delay prediction |
//! | [`fig9`] | Fig. 9 — per-packet delay (OPT/DBAO/OF) |
//! | [`fig10_fig11`] | Figs. 10 & 11 — delay and failures vs duty cycle |
//! | [`ablation_overhearing`] | DBAO ± overhearing |
//! | [`ablation_opportunistic`] | OF ± opportunistic forwards |
//! | [`ablation_policy`] | Algorithm 1 newest- vs oldest-first |
//! | [`lifetime_gain`] | §V-C2 — lifetime vs delay trade-off |
//! | [`theorem1_check`] | Lemma 3 / Theorem 1 empirical check |

use crate::options::ExpOptions;
use crate::runner::{ProtocolKind, RunRequest, Runner};
use ldcf_analysis::{Series, Table};
use ldcf_core::algorithm1::MatrixFlood;
use ldcf_core::{fdl, link_loss, tradeoff::DutyCycleAdvisor};
use ldcf_sim::energy::{idle_lifetime_slots, EnergyModel};
use ldcf_sim::SimConfig;
use rayon::prelude::*;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Analytical artefacts (no simulation needed)
// ---------------------------------------------------------------------

/// Table I: waitings of packets, both branches (`M < m` and `M >= m`).
/// `N = 1024` (so `m = 11`) unless overridden.
pub fn table1(n: u64) -> String {
    let m = fdl::m_of(n);
    let mut out = String::new();
    writeln!(out, "Table I — waitings of packets (N = {n}, m = {m})").unwrap();
    writeln!(out, "| branch | p | W_p |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    let m_small = m - 2; // an M < m example
    for (p, w) in fdl::waiting_table(m_small, n) {
        writeln!(out, "| M={m_small} (< m) | {p} | {w} |").unwrap();
    }
    let m_large = m + 4; // an M >= m example
    for (p, w) in fdl::waiting_table(m_large, n) {
        writeln!(out, "| M={m_large} (>= m) | {p} | {w} |").unwrap();
    }
    out
}

/// Fig. 3: the worked Algorithm 1 example (`N = 4`, `M = 2`) — prints the
/// possession matrices at the start of each compact slot, as in the
/// paper's matrix-based illustration.
pub fn fig3() -> String {
    let mut alg = MatrixFlood::new(4, 2);
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 3 — Algorithm 1 on N = 4, M = 2 (rows: nodes 0..4; cols: packets)"
    )
    .unwrap();
    for c in 0..4u32 {
        writeln!(out, "c = {c}:").unwrap();
        for node in 0..5 {
            let row: Vec<u8> = (0..2).map(|p| alg.has(node, p) as u8).collect();
            writeln!(out, "  node {node}: {row:?}").unwrap();
        }
        let txs = alg.step();
        for t in &txs {
            writeln!(out, "  tx: {} -> {} (packet {})", t.from, t.to, t.packet).unwrap();
        }
    }
    out
}

/// Fig. 5: Theorem 1's flooding delay limit vs `M`.
///
/// Returns `(left, right)` panels: left sweeps the duty ratio at
/// `N = 1024` (10 %, 20 %, 100 %); right sweeps `N` (256, 1024, 4096) at
/// `T = 5`.
pub fn fig5() -> (Table, Table) {
    let ms: Vec<u32> = (1..=20).collect();
    let left = Table::new(
        "M",
        [
            ("Duty Ratio=10%", 10u32),
            ("Duty Ratio=20%", 5),
            ("Duty Ratio=100%", 1),
        ]
        .iter()
        .map(|&(name, t)| {
            let mut s = Series::new(name);
            for &m in &ms {
                s.push(m as f64, fdl::fdl_expected(m, 1024, t));
            }
            s
        })
        .collect(),
    );
    let right = Table::new(
        "M",
        [("N=256", 256u64), ("N=1024", 1024), ("N=4096", 4096)]
            .iter()
            .map(|&(name, n)| {
                let mut s = Series::new(name);
                for &m in &ms {
                    s.push(m as f64, fdl::fdl_expected(m, n, 5));
                }
                s
            })
            .collect(),
    );
    (left, right)
}

/// Fig. 6: Theorem 2's lower/upper bounds vs `M` for `N ∈ {256, 1024}`,
/// `T = 5`.
pub fn fig6() -> Table {
    let ms: Vec<u32> = (2..=20).collect();
    let mut series = Vec::new();
    for &n in &[256u64, 1024] {
        let mut lo = Series::new(format!("N={n} Lower Bound"));
        let mut hi = Series::new(format!("N={n} Upper Bound"));
        for &m in &ms {
            let (l, h) = fdl::fdl_theorem2_bounds(m, n, 5);
            lo.push(m as f64, l);
            hi.push(m as f64, h);
        }
        series.push(lo);
        series.push(hi);
    }
    Table::new("M", series)
}

/// Fig. 7: the link-loss delay prediction over duty cycles 2–20 % for
/// link qualities 50–80 % (`k = 2, 1.67, 1.42, 1.25`), network size `n`.
pub fn fig7(n: u64) -> Table {
    let duties: Vec<f64> = (1..=10).map(|i| 0.02 * i as f64).collect();
    let series = [
        (0.8, "k=1.25 (80%)"),
        (0.7, "k=1.42 (70%)"),
        (0.6, "k=1.67 (60%)"),
        (0.5, "k=2 (50%)"),
    ]
    .iter()
    .map(|&(q, name)| {
        let mut s = Series::new(name);
        for &d in &duties {
            s.push(d * 100.0, link_loss::fig7_delay(n, d, q));
        }
        s
    })
    .collect();
    Table::new("Duty Cycle (%)", series)
}

// ---------------------------------------------------------------------
// Trace-driven artefacts (Figs. 9-11)
// ---------------------------------------------------------------------

fn sim_config(opts: &ExpOptions, duty: f64, seed: u64) -> SimConfig {
    // Exact duty cycles: a fixed period of 100 slots with
    // `round(duty * 100)` random active slots, so the 2–20 % sweep (and
    // the 5 % default) hits every grid point exactly — single-slot
    // schedules can only express duties of the form 1/T, which collapses
    // 16 % and 18 % onto T = 6.
    let period = 100;
    SimConfig {
        period,
        active_per_period: ((duty * period as f64).round() as u32).max(1),
        n_packets: opts.m,
        coverage: opts.coverage,
        max_slots: opts.max_slots,
        seed,
        mistiming_prob: 0.0,
    }
}

/// Fig. 9: per-packet flooding delay at duty 5 % for OPT/DBAO/OF,
/// averaged over `opts.seeds`. Expected shape: delay grows with packet
/// index while the pipeline fills, then plateaus (the bounded blocking
/// effect of Corollary 1); OPT < DBAO < OF throughout.
pub fn fig9(runner: &Runner, opts: &ExpOptions) -> Table {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let series: Vec<Series> = ProtocolKind::paper_set()
        .par_iter()
        .map(|&kind| {
            let mut totals = vec![0.0f64; opts.m as usize];
            for &seed in &opts.seeds {
                let cfg = sim_config(opts, 0.05, seed);
                let report = runner.run(RunRequest::new(&topo, &cfg, kind)).report;
                for (p, st) in report.packets.iter().enumerate() {
                    totals[p] += st.flooding_delay().unwrap_or(0) as f64;
                }
            }
            let mut s = Series::new(kind.name());
            for (p, t) in totals.iter().enumerate() {
                s.push(p as f64, t / opts.seeds.len() as f64);
            }
            s
        })
        .collect();
    Table::new("Packet Index", series)
}

/// Rows of one protocol's duty sweep: `(duty, mean delay, mean failures)`.
type SweepRows = Vec<(f64, f64, f64)>;

/// One duty-cycle sweep: `(mean delay, failures)` per (protocol, duty),
/// averaged over seeds. Backbone of Figs. 10 and 11.
fn duty_sweep(runner: &Runner, opts: &ExpOptions) -> Vec<(ProtocolKind, SweepRows)> {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    ProtocolKind::paper_set()
        .par_iter()
        .map(|&kind| {
            let rows: Vec<(f64, f64, f64)> = opts
                .duties
                .par_iter()
                .map(|&duty| {
                    let mut delay = 0.0;
                    let mut fails = 0.0;
                    for &seed in &opts.seeds {
                        let cfg = sim_config(opts, duty, seed);
                        let report = runner.run(RunRequest::new(&topo, &cfg, kind)).report;
                        delay += report.mean_flooding_delay().unwrap_or(f64::NAN);
                        fails += report.transmission_failures as f64;
                    }
                    let k = opts.seeds.len() as f64;
                    (duty, delay / k, fails / k)
                })
                .collect();
            (kind, rows)
        })
        .collect()
}

/// Figs. 10 and 11 share one sweep; this returns `(fig10, fig11)`.
///
/// Fig. 10 shape: delay decays hyperbolically in the duty cycle,
/// OPT < DBAO < OF, and the §IV-B analytic prediction sits below all
/// three. Fig. 11 shape: failures roughly flat in duty, OPT < DBAO < OF.
pub fn fig10_fig11(runner: &Runner, opts: &ExpOptions) -> (Table, Table) {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let n = topo.n_sensors() as u64;
    let mean_q = topo.mean_link_quality().expect("trace has links");
    let sweep = duty_sweep(runner, opts);

    let mut delay_series: Vec<Series> = Vec::new();
    let mut fail_series: Vec<Series> = Vec::new();
    for (kind, rows) in &sweep {
        let mut ds = Series::new(kind.name());
        let mut fs = Series::new(kind.name());
        for &(duty, delay, fails) in rows {
            ds.push(duty * 100.0, delay);
            fs.push(duty * 100.0, fails);
        }
        delay_series.push(ds);
        fail_series.push(fs);
    }
    let mut bound = Series::new("Predicted Lower Bound");
    for &duty in &opts.duties {
        bound.push(
            duty * 100.0,
            link_loss::predicted_lower_bound(n, duty, mean_q),
        );
    }
    delay_series.push(bound);
    (
        Table::new("Duty Cycle (%)", delay_series),
        Table::new("Duty Cycle (%)", fail_series),
    )
}

// ---------------------------------------------------------------------
// Ablations and extensions
// ---------------------------------------------------------------------

/// DBAO with and without overhearing at duty 5 %: overhearing should cut
/// both delay and transmissions.
pub fn ablation_overhearing(runner: &Runner, opts: &ExpOptions) -> Table {
    ablation(
        runner,
        opts,
        ProtocolKind::Dbao,
        ProtocolKind::DbaoNoOverhear,
    )
}

/// OF with and without opportunistic forwards at duty 5 %: the extra
/// delivery chances should cut delay on the lossy trace.
pub fn ablation_opportunistic(runner: &Runner, opts: &ExpOptions) -> Table {
    ablation(runner, opts, ProtocolKind::Of, ProtocolKind::OfPureTree)
}

fn ablation(runner: &Runner, opts: &ExpOptions, a: ProtocolKind, b: ProtocolKind) -> Table {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let series: Vec<Series> = [a, b]
        .par_iter()
        .map(|&kind| {
            let mut delay = Series::new(format!("{} delay", kind.name()));
            for &seed in &opts.seeds {
                let cfg = sim_config(opts, 0.05, seed);
                let report = runner.run(RunRequest::new(&topo, &cfg, kind)).report;
                delay.push(
                    seed as f64,
                    report.mean_flooding_delay().unwrap_or(f64::NAN),
                );
            }
            delay
        })
        .collect();
    Table::new("seed", series)
}

/// §V-C2's joint claim: lifetime rises ~linearly as duty falls while
/// delay rises much faster, so the *networking gain* collapses at
/// extreme duty cycles. One row per duty cycle: lifetime (normalized),
/// predicted delay, gain, plus the advisor's verdict.
pub fn lifetime_gain(n: u64, mean_q: f64) -> String {
    let advisor = DutyCycleAdvisor::new(n, mean_q);
    let model = EnergyModel::default();
    let mut out = String::new();
    writeln!(
        out,
        "| duty (%) | idle lifetime (slots/unit) | predicted delay | gain |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for i in 1..=10 {
        let duty = 0.02 * i as f64;
        writeln!(
            out,
            "| {:.0} | {:.0} | {:.1} | {:.4} |",
            duty * 100.0,
            idle_lifetime_slots(&model, duty, 1000.0),
            advisor.delay(duty),
            advisor.gain(duty),
        )
        .unwrap();
    }
    let (best, gain) = advisor.best_duty(&DutyCycleAdvisor::default_grid());
    writeln!(
        out,
        "\nAdvisor optimum: duty {:.0}% (gain {:.4})",
        best * 100.0,
        gain
    )
    .unwrap();
    out
}

/// Algorithm 1 relay-policy ablation (§IV-A-1): newest-first (the
/// paper's choice) vs oldest-first across `(N, M)`. Oldest-first either
/// stalls ("-") or takes more compact slots — why the policy matters.
pub fn ablation_policy() -> String {
    use ldcf_core::algorithm1::RelayPolicy;
    let mut out = String::new();
    writeln!(
        out,
        "| N | M | newest-first slots | oldest-first slots | Lemma 3 |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|").unwrap();
    for &(n, m) in &[(16usize, 6u32), (32, 8), (64, 10), (128, 12), (256, 16)] {
        let newest = MatrixFlood::new(n, m).run().compact_slots;
        let oldest = MatrixFlood::new(n, m)
            .with_policy(RelayPolicy::OldestFirst)
            .try_run()
            .map(|r| r.compact_slots.to_string())
            .unwrap_or_else(|| "stalled".into());
        writeln!(
            out,
            "| {n} | {m} | {newest} | {oldest} | {} |",
            fdl::lemma3_compact_slots(m, n as u64)
        )
        .unwrap();
    }
    out
}

/// Empirical check of Theorem 1 via Algorithm 1: compare the compact-slot
/// count of `MatrixFlood` against `M + m - 1` (Lemma 3) and the expected
/// `E[FDL]` against the closed form, for a range of `(N, M)`.
pub fn theorem1_check() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "| N | M | compact slots (sim) | M+m-1 (Lemma 3) | E[FDL] T=20 (Thm 1) |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|").unwrap();
    for &n in &[16usize, 64, 256, 1024] {
        for &m in &[1u32, 5, 10, 20] {
            let report = MatrixFlood::new(n, m).run();
            writeln!(
                out,
                "| {n} | {m} | {} | {} | {:.0} |",
                report.compact_slots,
                fdl::lemma3_compact_slots(m, n as u64),
                fdl::fdl_expected(m, n as u64, 20),
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_has_knee_and_duty_ordering() {
        let (left, right) = fig5();
        // Left: lower duty ratio curves sit higher.
        let at_m10 = |s: &Series| s.points[9].1;
        assert!(at_m10(&left.series[0]) > at_m10(&left.series[1]));
        assert!(at_m10(&left.series[1]) > at_m10(&left.series[2]));
        // Right: larger N sits higher.
        assert!(at_m10(&right.series[2]) > at_m10(&right.series[0]));
        // All curves are increasing in M.
        for s in left.series.iter().chain(&right.series) {
            assert!(s.is_non_decreasing(), "{} must grow with M", s.name);
        }
    }

    #[test]
    fn fig6_bounds_are_ordered() {
        let t = fig6();
        // series: [256 lo, 256 hi, 1024 lo, 1024 hi]
        for i in 0..t.series[0].points.len() {
            assert!(t.series[0].points[i].1 <= t.series[1].points[i].1);
            assert!(t.series[2].points[i].1 <= t.series[3].points[i].1);
        }
    }

    #[test]
    fn fig7_ordering() {
        let t = fig7(298);
        // Higher k (worse quality) curves sit higher at every duty.
        for i in 0..t.series[0].points.len() {
            let ys: Vec<f64> = t.series.iter().map(|s| s.points[i].1).collect();
            assert!(ys.windows(2).all(|w| w[0] < w[1]), "k ordering at col {i}");
        }
        // Delay falls as duty rises.
        for s in &t.series {
            assert!(s.is_non_increasing(), "{} must fall with duty", s.name);
        }
    }

    #[test]
    fn table1_mentions_both_branches() {
        let s = table1(1024);
        assert!(s.contains("M=9 (< m)"));
        assert!(s.contains("M=15 (>= m)"));
    }

    #[test]
    fn fig3_prints_transmissions() {
        let s = fig3();
        assert!(s.contains("tx: 0 -> 1 (packet 0)"));
        assert!(s.contains("c = 3"));
    }

    #[test]
    fn theorem1_check_agrees_with_lemma3() {
        let s = theorem1_check();
        // Every row's simulated count equals the Lemma 3 value — checked
        // numerically in ldcf-core tests; here, spot-check formatting.
        assert!(s.contains("| 16 | 1 |"));
    }

    #[test]
    fn lifetime_gain_reports_interior_optimum() {
        let s = lifetime_gain(298, 0.75);
        assert!(s.contains("Advisor optimum"));
    }
}
