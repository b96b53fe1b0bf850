//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <artefact> [--quick] [--out DIR] [--trace-events DIR]
//!             [--profile]
//! experiments forensics --trace FILE [--out DIR]
//! experiments trace info --trace FILE [--min-ratio R]
//! experiments trace export --trace FILE [--out FILE]
//! experiments trace query --trace FILE --slot A..B [--node N] [--packet P]
//! experiments campaign --spec FILE [--quick] [--out DIR] [--no-progress]
//! experiments serve --data DIR [--addr HOST:PORT] [--jobs N]
//!             [--allow-remote-shutdown] [--no-progress]
//! experiments submit --server ADDR --spec FILE [--quick] [--wait]
//! experiments status --server ADDR [--id JOB]
//! experiments fetch --server ADDR --id JOB [--artefact NAME] [--out DIR]
//! experiments cancel --server ADDR --id JOB
//!
//! artefacts:
//!   table1 | fig3 | fig5 | fig6 | fig7            (analytical, instant)
//!   fig9 | fig10 | fig11                          (trace-driven sims)
//!   ablation-overhearing | ablation-opportunistic (ablations)
//!   lifetime-gain | theorem1-check                (extensions)
//!   resilience                                    (fault-injection campaign)
//!   forensics                                     (trace post-mortem)
//!   trace                                         (trace file tooling: info/export/query)
//!   analytical                                    (all instant artefacts)
//!   all                                           (everything)
//! ```
//!
//! `--quick` shrinks the trace-driven runs (fewer packets/seeds, coarser
//! duty grid) so the full suite completes in minutes on one core.
//! `--out DIR` additionally writes each artefact to `DIR/<name>.md`,
//! with a provenance manifest beside it (`DIR/<name>.manifest.json`:
//! protocols, config, seeds, sims, slots, wall clock, slots/sec).
//! `--trace-events DIR` streams every flood's slot-level events to one
//! columnar binary file per run (`<stem>.events.bin`, with a seekable
//! slot index) and records the sink's event/byte totals in each
//! artefact manifest; `trace export` turns such a file into JSONL.
//! That trace is the run's one record: `forensics` and `trace query`
//! read per-packet delays, coverage growth and per-node load from it.
//! `--profile` on a generic artefact attaches the engine phase profiler
//! to every simulation and prints a per-phase cost summary to stderr —
//! the artefact bytes themselves must not change (CI diffs them against
//! the pinned baselines with profiling on).
//! Every simulation runs on the event-driven engine, which jumps over
//! provably dead slots instead of stepping them (see EXPERIMENTS.md
//! "Engines").
//!
//! `forensics` replays one trace (a `--trace-events` file or its JSONL
//! export; the format is sniffed from the leading bytes) through
//! `ldcf_analysis::ForensicsReport`: it reconstructs each packet's
//! dissemination tree, attributes every node's flooding delay to five
//! causes, extracts critical paths, and checks the run against the
//! paper's theory (exact attribution sums, spanning trees, Corollary 1
//! blocking bounds). The trace is streamed — memory stays bounded by
//! the derived per-packet state, not the event count. It prints a human
//! summary, writes `DIR/<stem>.forensics.json` under `--out`, and exits
//! non-zero if any hard theory check fails — CI runs it on every quick
//! fig9 trace and on its exported JSONL twin.
//!
//! `trace` is the trace-file toolbox: `info` prints event counts, slot
//! span, byte sizes and the binary-vs-JSONL compression ratio (and
//! gates on `--min-ratio` for CI); `export` converts a binary trace to
//! JSONL byte-identical to what a `JsonlSink` observing the same run
//! writes; `query` streams the events in a slot range (binary traces
//! seek via the trailing index), optionally filtered to one node or
//! packet.
//!
//! `serve` turns the campaign runner into a long-lived HTTP job server
//! over `--data DIR` (one job directory per spec digest; see
//! EXPERIMENTS.md "Campaign service"), and `submit`/`status`/`fetch`/
//! `cancel` are its thin clients. The server resumes interrupted
//! campaigns on restart and dedupes re-submitted specs by digest, so
//! the artefacts it serves are byte-identical to direct
//! `experiments campaign` runs.

use ldcf_bench::{experiments, CampaignOptions, ExpOptions, Runner, WorkLedger};
use ldcf_obs::RunManifest;
use serde::Value;
use std::path::{Path, PathBuf};

/// Stdout for everything an artefact prints. A reader that closes the
/// pipe early (`experiments … | head`) ends the process quietly with
/// status 0 instead of a panic.
struct Stdout;

impl Stdout {
    fn check<T>(result: std::io::Result<T>) -> std::io::Result<T> {
        match result {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            result => result,
        }
    }
}

impl std::io::Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Self::check(std::io::stdout().write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Self::check(std::io::stdout().flush())
    }
}

/// `print!` through [`Stdout`]; any other write error exits 1.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = std::io::Write::write_fmt(&mut Stdout, format_args!($($arg)*)) {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    };
}

/// `println!` through [`Stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

struct Cli {
    artefact: String,
    /// Second positional for `trace`: `info`, `export` or `query`.
    action: Option<String>,
    opts: ExpOptions,
    quick: bool,
    out: Option<PathBuf>,
    trace_events: Option<PathBuf>,
    trace: Option<PathBuf>,
    spec: Option<PathBuf>,
    digest: bool,
    profile: bool,
    no_progress: bool,
    min_ratio: Option<f64>,
    slot: Option<String>,
    node: Option<u32>,
    packet: Option<u32>,
    data: Option<PathBuf>,
    addr: Option<String>,
    jobs: Option<usize>,
    server: Option<String>,
    id: Option<String>,
    /// `--artefact NAME` for `fetch` (the positional `artefact` field
    /// above is the subcommand name).
    artefact_name: Option<String>,
    wait: bool,
    allow_remote_shutdown: bool,
    from: Option<PathBuf>,
    gate: bool,
}

/// The flags each subcommand accepts. Everything not listed here is a
/// usage error for that subcommand: a `--quick` passed to `forensics`
/// or a `--trace` passed to `fig9` used to be silently swallowed (or,
/// worse, a leading flag became the artefact name), which made typo'd
/// CI invocations look green while running the wrong thing.
fn allowed_flags(artefact: &str) -> &'static [&'static str] {
    match artefact {
        "forensics" => &["--trace", "--out"],
        "trace" => &[
            "--trace",
            "--out",
            "--min-ratio",
            "--slot",
            "--node",
            "--packet",
        ],
        "campaign" => &["--spec", "--quick", "--out", "--digest", "--no-progress"],
        "stats" => &["--spec", "--quick", "--from", "--out", "--gate"],
        "serve" => &[
            "--data",
            "--addr",
            "--jobs",
            "--allow-remote-shutdown",
            "--no-progress",
        ],
        "submit" => &["--server", "--spec", "--quick", "--wait"],
        "status" => &["--server", "--id"],
        "fetch" => &["--server", "--id", "--artefact", "--out"],
        "cancel" => &["--server", "--id"],
        _ => &["--quick", "--out", "--trace-events", "--profile"],
    }
}

fn parse_args() -> Cli {
    let mut artefact: Option<String> = None;
    let mut action: Option<String> = None;
    let mut quick = false;
    let mut out = None;
    let mut trace = None;
    let mut spec = None;
    let mut digest = false;
    let mut profile = false;
    let mut no_progress = false;
    let mut trace_events = None;
    let mut min_ratio = None;
    let mut slot = None;
    let mut node = None;
    let mut packet = None;
    let mut data = None;
    let mut addr = None;
    let mut jobs = None;
    let mut server = None;
    let mut id = None;
    let mut artefact_name = None;
    let mut wait = false;
    let mut allow_remote_shutdown = false;
    let mut from = None;
    let mut gate = false;
    let mut seen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--help" | "-h" => usage(""),
            "--quick" => quick = true,
            "--digest" => digest = true,
            "--profile" => profile = true,
            "--no-progress" => no_progress = true,
            "--out" => out = Some(PathBuf::from(value("a directory"))),
            "--trace" => trace = Some(PathBuf::from(value("a file"))),
            "--spec" => spec = Some(PathBuf::from(value("a file"))),
            "--trace-events" => trace_events = Some(PathBuf::from(value("a directory"))),
            "--min-ratio" => {
                let r = value("a ratio");
                min_ratio = Some(
                    r.parse::<f64>()
                        .ok()
                        .filter(|r| *r > 0.0)
                        .unwrap_or_else(|| {
                            usage(&format!("--min-ratio wants a positive number, got {r:?}"))
                        }),
                );
            }
            "--slot" => slot = Some(value("a range A..B")),
            "--data" => data = Some(PathBuf::from(value("a directory"))),
            "--addr" => addr = Some(value("host:port")),
            "--jobs" => {
                let n = value("a count");
                jobs = Some(
                    n.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| {
                            usage(&format!("--jobs wants a positive integer, got {n:?}"))
                        }),
                );
            }
            "--server" => server = Some(value("host:port")),
            "--id" => id = Some(value("a job id")),
            "--artefact" => artefact_name = Some(value("an artefact name")),
            "--wait" => wait = true,
            "--allow-remote-shutdown" => allow_remote_shutdown = true,
            "--from" => from = Some(PathBuf::from(value("a directory"))),
            "--gate" => gate = true,
            "--node" => {
                let n = value("a node id");
                node = Some(
                    n.parse::<u32>()
                        .unwrap_or_else(|_| usage(&format!("--node wants a node id, got {n:?}"))),
                );
            }
            "--packet" => {
                let p = value("a packet id");
                packet =
                    Some(p.parse::<u32>().unwrap_or_else(|_| {
                        usage(&format!("--packet wants a packet id, got {p:?}"))
                    }));
            }
            other if other.starts_with('-') => {
                usage(&format!("unknown flag '{other}'"));
            }
            other if artefact.is_none() => {
                artefact = Some(other.to_string());
                continue;
            }
            other if artefact.as_deref() == Some("trace") && action.is_none() => {
                action = Some(other.to_string());
                continue;
            }
            other => usage(&format!("unexpected argument '{other}'")),
        }
        seen.push(a);
    }
    let artefact = artefact.unwrap_or_else(|| usage("missing artefact name"));
    let allowed = allowed_flags(&artefact);
    for flag in &seen {
        if !allowed.contains(&flag.as_str()) {
            usage(&format!("flag '{flag}' is not valid for '{artefact}'"));
        }
    }
    Cli {
        artefact,
        action,
        opts: if quick {
            ExpOptions::quick()
        } else {
            ExpOptions::full()
        },
        quick,
        out,
        trace_events,
        trace,
        spec,
        digest,
        profile,
        no_progress,
        min_ratio,
        slot,
        node,
        packet,
        data,
        addr,
        jobs,
        server,
        id,
        artefact_name,
        wait,
        allow_remote_shutdown,
        from,
        gate,
    }
}

impl Cli {
    /// A fresh runner for one artefact, configured from the flags.
    fn runner(&self) -> Runner {
        let mut runner = Runner::default();
        if let Some(dir) = &self.trace_events {
            runner = runner
                .with_event_tracing(dir)
                .unwrap_or_else(|e| usage(&format!("--trace-events: {e}")));
        }
        if self.profile {
            runner = runner.with_profiling();
        }
        runner
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments <artefact> [--quick] [--out DIR] [--trace-events DIR] [--profile]\n\
         \u{20}      experiments forensics --trace FILE [--out DIR]\n\
         \u{20}      experiments trace info --trace FILE [--min-ratio R]\n\
         \u{20}      experiments trace export --trace FILE [--out FILE]\n\
         \u{20}      experiments trace query --trace FILE --slot A..B [--node N] [--packet P]\n\
         \u{20}      experiments campaign --spec FILE [--quick] [--out DIR] [--no-progress]\n\
         \u{20}      experiments campaign --spec FILE --digest\n\
         \u{20}      experiments stats --spec FILE --from DIR [--quick] [--out DIR] [--gate]\n\
         \u{20}      experiments serve --data DIR [--addr HOST:PORT] [--jobs N] [--allow-remote-shutdown] [--no-progress]\n\
         \u{20}      experiments submit --server ADDR --spec FILE [--quick] [--wait]\n\
         \u{20}      experiments status --server ADDR [--id JOB]\n\
         \u{20}      experiments fetch --server ADDR --id JOB [--artefact NAME] [--out DIR]\n\
         \u{20}      experiments cancel --server ADDR --id JOB\n\
         artefacts: table1 fig3 fig5 fig6 fig7 fig9 fig10 fig11\n\
         \u{20}          ablation-overhearing ablation-opportunistic ablation-policy\n\
         \u{20}          lifetime-gain theorem1-check resilience\n\
         \u{20}          forensics trace campaign stats analytical all\n\
         \u{20}          serve submit status fetch cancel"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The `forensics` artefact: stream one trace (either format) through
/// the forensics collector, print the summary, optionally write the
/// JSON report, and exit non-zero on any hard theory violation.
fn run_forensics(cli: &Cli) -> ! {
    let trace = cli
        .trace
        .as_ref()
        .unwrap_or_else(|| usage("forensics needs --trace FILE"));
    let source = ldcf_analysis::EventSource::open(trace)
        .unwrap_or_else(|e| usage(&format!("--trace {}: {e}", trace.display())));
    let report = match ldcf_analysis::ForensicsReport::from_source(source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    outln!("{}", report.summary(5));
    if let Some(dir) = &cli.out {
        let stem = trace
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
            .trim_end_matches(".events");
        write_out(
            dir,
            &format!("{stem}.forensics.json"),
            report.to_json_pretty() + "\n",
        );
    }
    if report.is_clean() {
        std::process::exit(0);
    }
    eprintln!(
        "forensics: {} theory violation(s) — see summary above",
        report.violations.len()
    );
    std::process::exit(1);
}

/// The `trace` artefact: file-level tooling over event traces.
/// `info` measures (and optionally gates) the binary compression ratio,
/// `export` converts binary → JSONL byte-identically to a direct JSONL
/// run, `query` streams a slot range using the binary index when the
/// input has one.
fn run_trace(cli: &Cli) -> ! {
    use ldcf_bench::trace_cmd;

    let action = cli
        .action
        .as_deref()
        .unwrap_or_else(|| usage("trace needs an action: info, export or query"));
    let trace = cli
        .trace
        .as_ref()
        .unwrap_or_else(|| usage("trace needs --trace FILE"));
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };
    match action {
        "info" => {
            let info = trace_cmd::info(trace).unwrap_or_else(|e| fail(e));
            out!("{}", info.render(trace));
            if let Some(min) = cli.min_ratio {
                if info.ratio() < min {
                    eprintln!(
                        "trace info: compression ratio {:.2}x below --min-ratio {min}",
                        info.ratio()
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "trace info: ratio gate passed ({:.2}x >= {min}x)",
                    info.ratio()
                );
            }
        }
        "export" => {
            let out = cli
                .out
                .clone()
                .unwrap_or_else(|| trace_cmd::default_export_path(trace));
            let (events, bytes) = trace_cmd::export(trace, &out).unwrap_or_else(|e| fail(e));
            eprintln!(
                "trace export: {} -> {} ({events} events, {bytes} bytes)",
                trace.display(),
                out.display()
            );
        }
        "query" => {
            let range = cli
                .slot
                .as_deref()
                .unwrap_or_else(|| usage("trace query needs --slot A..B"));
            let range = trace_cmd::parse_slot_range(range).unwrap_or_else(|e| usage(&e));
            let mut out = std::io::BufWriter::new(Stdout);
            let stats = trace_cmd::query(trace, range, cli.node, cli.packet, &mut out)
                .unwrap_or_else(|e| fail(e));
            use std::io::Write;
            out.flush().unwrap_or_else(|e| fail(e.to_string()));
            drop(out);
            if stats.frames_total > 0 {
                eprintln!(
                    "trace query: {} event(s), decoded {}/{} frames via index",
                    stats.matched, stats.frames_scanned, stats.frames_total
                );
            } else {
                eprintln!("trace query: {} event(s) (full jsonl scan)", stats.matched);
            }
        }
        other => usage(&format!(
            "unknown trace action '{other}' (expected info, export or query)"
        )),
    }
    std::process::exit(0);
}

/// The `campaign` subcommand: parse a scenario spec, then either print
/// its generator digest (`--digest`, the CI golden gate) or run/resume
/// the campaign into `--out` and print the aggregated table.
fn run_campaign_cmd(cli: &Cli) -> ! {
    use ldcf_scenarios::{BuiltScenario, ScenarioSpec};

    let spec_path = cli
        .spec
        .as_ref()
        .unwrap_or_else(|| usage("campaign needs --spec FILE"));
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| usage(&format!("--spec {}: {e}", spec_path.display())));
    let spec = match ScenarioSpec::from_toml_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", spec_path.display());
            std::process::exit(2);
        }
    };

    if cli.digest {
        // Digest of the *full* matrix even under --quick: the golden
        // file pins one digest per spec, not one per truncation level.
        let built = match BuiltScenario::build(spec) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {}: {e}", spec_path.display());
                std::process::exit(2);
            }
        };
        outln!("{}  {}", built.digest(), built.spec.name);
        std::process::exit(0);
    }

    let out = cli.out.clone().unwrap_or_else(|| PathBuf::from("."));
    let t0 = std::time::Instant::now();
    let opts = CampaignOptions {
        quick: cli.quick,
        progress: !cli.no_progress,
        ..CampaignOptions::default()
    };
    let outcome = match ldcf_bench::run_campaign_with(spec, &out, opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let wall = t0.elapsed();
    outln!("{}", outcome.markdown);

    ldcf_bench::campaign::write_manifest(&out, &outcome.manifest(wall.as_millis() as u64))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "[campaign-{}] done in {wall:?} — {}/{} cells run, {} resumed, digest {}",
        outcome.name, outcome.cells_run, outcome.cells_total, outcome.cells_resumed, outcome.digest
    );
    std::process::exit(0);
}

/// The `stats` subcommand: recompute a campaign's statistics from an
/// existing checkpoint directory (no simulation), print the tables,
/// optionally write `campaign-stats.md` / `campaign-stats.json` to
/// `--out`, and with `--gate` exit 1 when the theory-conformance gate
/// (Theorem 2 band / hard worst case) is violated.
fn run_stats_cmd(cli: &Cli) -> ! {
    use ldcf_scenarios::ScenarioSpec;

    let spec_path = cli
        .spec
        .as_ref()
        .unwrap_or_else(|| usage("stats needs --spec FILE"));
    let from = cli
        .from
        .as_ref()
        .unwrap_or_else(|| usage("stats needs --from DIR (a campaign output directory)"));
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| usage(&format!("--spec {}: {e}", spec_path.display())));
    let spec = match ScenarioSpec::from_toml_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", spec_path.display());
            std::process::exit(2);
        }
    };
    let outcome = match ldcf_bench::campaign::recompute_stats(spec, cli.quick, from) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    outln!("{}", outcome.markdown);
    if let Some(dir) = &cli.out {
        write_out(dir, "campaign-stats.md", &outcome.markdown);
        write_out(dir, "campaign-stats.json", outcome.to_json_pretty());
    }
    if cli.gate {
        let violations = outcome.stats.gate_violations();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("stats gate: {v}");
            }
            eprintln!(
                "stats gate: {} theory-conformance violation(s) for {}",
                violations.len(),
                outcome.name
            );
            std::process::exit(1);
        }
        eprintln!(
            "stats gate: all groups conform to the Theorem 2 band for {}",
            outcome.name
        );
    }
    std::process::exit(0);
}

/// The campaign-service subcommands (`serve` and its thin clients).
/// Flag validation happens here — missing required flags exit 2 like
/// every other usage error; server-side failures exit 1.
fn run_service_cmd(cli: &Cli) -> ! {
    use ldcf_bench::service_cli;

    let server = || -> &str {
        cli.server
            .as_deref()
            .unwrap_or_else(|| usage(&format!("{} needs --server ADDR", cli.artefact)))
    };
    let job_id = || -> &str {
        cli.id
            .as_deref()
            .unwrap_or_else(|| usage(&format!("{} needs --id JOB", cli.artefact)))
    };
    let result = match cli.artefact.as_str() {
        "serve" => {
            let data = cli
                .data
                .as_ref()
                .unwrap_or_else(|| usage("serve needs --data DIR"));
            std::fs::create_dir_all(data)
                .unwrap_or_else(|e| usage(&format!("--data {}: {e}", data.display())));
            service_cli::serve(
                data,
                cli.addr.as_deref().unwrap_or("127.0.0.1:0"),
                cli.jobs.unwrap_or(2),
                cli.allow_remote_shutdown,
                !cli.no_progress,
            )
        }
        "submit" => {
            let spec = cli
                .spec
                .as_ref()
                .unwrap_or_else(|| usage("submit needs --spec FILE"));
            service_cli::submit(server(), spec, cli.quick, cli.wait)
        }
        "status" => service_cli::status(server(), cli.id.as_deref()),
        "fetch" => service_cli::fetch(
            server(),
            job_id(),
            cli.artefact_name.as_deref(),
            cli.out.as_deref(),
        ),
        "cancel" => service_cli::cancel(server(), job_id()),
        other => usage(&format!("unknown service subcommand '{other}'")),
    };
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Markdown table followed by its ASCII chart (fenced for markdown).
fn with_chart(table: &ldcf_analysis::Table) -> String {
    format!(
        "{}\n```text\n{}```\n",
        table.to_markdown(),
        table.to_chart()
    )
}

fn emit(out: &Option<PathBuf>, name: &str, body: &str) {
    outln!("\n## {name}\n\n{body}");
    if let Some(dir) = out {
        write_out(dir, &format!("{name}.md"), body);
    }
}

/// Write `name` into the `--out` directory `dir`, creating it first. An
/// IO failure is a usage error naming the path (exit 2), not a panic.
fn write_out(dir: &Path, name: &str, contents: impl AsRef<[u8]>) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        usage(&format!("--out {}: {e}", path.display()));
    }
}

/// The experiment options as a JSON value for the manifest, or `Null`
/// for artefacts that ran no simulations.
fn opts_value(opts: &ExpOptions, ledger: &WorkLedger) -> Value {
    if ledger.sims == 0 {
        return Value::Null;
    }
    Value::Object(vec![
        ("trace_seed".into(), Value::UInt(opts.trace_seed)),
        ("m".into(), Value::UInt(opts.m as u64)),
        (
            "duties".into(),
            Value::Array(opts.duties.iter().map(|&d| Value::Float(d)).collect()),
        ),
        ("coverage".into(), Value::Float(opts.coverage)),
        ("max_slots".into(), Value::UInt(opts.max_slots)),
    ])
}

/// With `--profile` on a generic artefact: print where the artefact's
/// simulation time went, from the profile its runner merged. Stderr
/// only — artefact bytes stay profiling-invariant.
fn report_profile(name: &str, runner: &Runner) {
    let prof = runner.profile();
    if prof.slots() == 0 {
        return;
    }
    let total = prof.slot_total_ns().max(1);
    let mut shares: Vec<(ldcf_sim::Phase, u64)> = ldcf_sim::Phase::ALL
        .iter()
        .map(|&p| (p, prof.phase_total_ns(p)))
        .collect();
    shares.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let top: Vec<String> = shares
        .iter()
        .take(3)
        .map(|&(p, ns)| format!("{} {:.0}%", p.name(), 100.0 * ns as f64 / total as f64))
        .collect();
    eprintln!(
        "[{name} profile] {} slots, slot p50 {} ns / p95 {} ns — {}",
        prof.slots(),
        prof.slot_hist().p50().unwrap_or(0),
        prof.slot_hist().p95().unwrap_or(0),
        top.join(", ")
    );
}

fn main() {
    let cli = parse_args();
    if cli.artefact == "forensics" {
        run_forensics(&cli);
    }
    if cli.artefact == "trace" {
        run_trace(&cli);
    }
    if cli.artefact == "campaign" {
        run_campaign_cmd(&cli);
    }
    if cli.artefact == "stats" {
        run_stats_cmd(&cli);
    }
    if matches!(
        cli.artefact.as_str(),
        "serve" | "submit" | "status" | "fetch" | "cancel"
    ) {
        run_service_cmd(&cli);
    }
    let names: Vec<&str> = match cli.artefact.as_str() {
        "analytical" => vec![
            "table1",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "theorem1-check",
            "lifetime-gain",
            "ablation-policy",
        ],
        "all" => vec![
            "table1",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "theorem1-check",
            "lifetime-gain",
            "fig9",
            "fig10",
            "fig11",
            "ablation-overhearing",
            "ablation-opportunistic",
            "ablation-policy",
            "resilience",
        ],
        single => vec![single],
    };

    // fig10 and fig11 share one sweep: compute lazily, cache. The shared
    // ledger/wall-clock is billed to whichever of the two runs first.
    let mut sweep_cache: Option<(String, String)> = None;
    let mut fig10_11 = |runner: &Runner, opts: &ExpOptions| -> (String, String) {
        if sweep_cache.is_none() {
            let (f10, f11) = experiments::fig10_fig11(runner, opts);
            sweep_cache = Some((with_chart(&f10), with_chart(&f11)));
        }
        sweep_cache.clone().expect("just set")
    };

    for name in names {
        let runner = cli.runner();
        let t0 = std::time::Instant::now();
        let body = match name {
            "table1" => experiments::table1(1024),
            "fig3" => experiments::fig3(),
            "fig5" => {
                let (l, r) = experiments::fig5();
                format!(
                    "Left panel (N = 1024):\n\n{}\nRight panel (T = 5):\n\n{}",
                    with_chart(&l),
                    with_chart(&r)
                )
            }
            "fig6" => with_chart(&experiments::fig6()),
            "fig7" => with_chart(&experiments::fig7(298)),
            "fig9" => with_chart(&experiments::fig9(&runner, &cli.opts)),
            "fig10" => fig10_11(&runner, &cli.opts).0,
            "fig11" => fig10_11(&runner, &cli.opts).1,
            "ablation-overhearing" => {
                experiments::ablation_overhearing(&runner, &cli.opts).to_markdown()
            }
            "ablation-opportunistic" => {
                experiments::ablation_opportunistic(&runner, &cli.opts).to_markdown()
            }
            "lifetime-gain" => experiments::lifetime_gain(298, 0.75),
            "theorem1-check" => experiments::theorem1_check(),
            "ablation-policy" => experiments::ablation_policy(),
            "resilience" => ldcf_bench::resilience::resilience(&runner, &cli.opts, cli.quick),
            other => usage(&format!("unknown artefact '{other}'")),
        };
        let wall = t0.elapsed();
        emit(&cli.out, name, &body);

        let ledger = runner.ledger();
        let mut manifest = RunManifest::new(
            name,
            ledger.protocols.iter().map(|p| p.to_string()).collect(),
            opts_value(&cli.opts, &ledger),
            ledger.seeds.iter().copied().collect(),
            cli.quick,
            ledger.sims,
            ledger.slots,
            wall.as_millis() as u64,
        );
        if cli.trace_events.is_some() {
            manifest = manifest.with_trace_stats("bin", ledger.trace_events, ledger.trace_bytes);
        }
        if let Some(dir) = &cli.out {
            write_out(
                dir,
                &format!("{name}.manifest.json"),
                manifest.to_json_pretty() + "\n",
            );
        }
        if ledger.sims > 0 {
            eprintln!(
                "[{name}] done in {wall:?} — {} sims, {} slots, {:.0} slots/s",
                ledger.sims, ledger.slots, manifest.slots_per_sec
            );
        } else {
            eprintln!("[{name}] done in {wall:?}");
        }
        if cli.profile {
            report_profile(name, &runner);
        }
    }
}
