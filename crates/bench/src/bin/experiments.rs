//! Experiment harness: regenerates every table and figure of the paper,
//! and fronts the campaign runner, the trace tooling and the campaign
//! service.
//!
//! [`usage`] prints the command lines. [`SUBCOMMANDS`] declares each
//! subcommand's flags, and [`ARTEFACTS`] each paper artefact with its
//! group; [`parse`] checks a command line against both before any
//! handler runs, so a flag of one subcommand passed to another is a
//! usage error instead of being silently ignored.
//!
//! Every simulation runs on the event-driven engine, which jumps over
//! provably dead slots instead of stepping them (see EXPERIMENTS.md
//! "Engines"). The campaign service (`serve` and its thin clients) is
//! described in EXPERIMENTS.md "Campaign service".

use ldcf_bench::{experiments, CampaignOptions, ExpOptions, Runner, WorkLedger};
use ldcf_obs::RunManifest;
use serde::Value;
use std::fmt::Display;
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
            fail(1, format!("writing to stdout: {e}"));
        }
    };
}

/// `println!` through [`Stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// A subcommand: its name, its handler, and every flag it accepts,
/// written as [`usage`] writes them (see [`declared`]). The `trace`
/// actions are subcommands of their own, named `trace <action>`.
struct Subcommand {
    name: &'static str,
    flags: &'static str,
    run: fn(&Args),
}

impl Subcommand {
    /// The declared flag `name` and, if it takes a value, its placeholder.
    fn flag(&self, name: &str) -> Option<(&'static str, Option<&'static str>)> {
        declared(self.flags).find(|(flag, _)| *flag == name)
    }
}

/// The flags in usage syntax: each `--flag`, with the placeholder that
/// follows it when it takes a value. Other words are skipped.
fn declared(usage: &str) -> impl Iterator<Item = (&str, Option<&str>)> {
    let mut words = usage.split_whitespace().peekable();
    std::iter::from_fn(move || {
        let flag = words.find(|w| w.starts_with("--"))?;
        Some((flag, words.next_if(|w| !w.starts_with("--"))))
    })
}

/// The artefact runs share one entry, named by the placeholder the
/// usage text gives them.
const ARTEFACT_RUN: &str = "<artefact>";

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: ARTEFACT_RUN,
        flags: "--quick --out DIR --trace-events DIR --profile",
        run: run_artefacts,
    },
    Subcommand {
        name: "forensics",
        flags: "--trace FILE --out DIR",
        run: run_forensics,
    },
    Subcommand {
        name: "trace info",
        flags: "--trace FILE",
        run: run_trace_info,
    },
    Subcommand {
        name: "trace export",
        flags: "--trace FILE --out FILE",
        run: run_trace_export,
    },
    Subcommand {
        name: "trace query",
        flags: "--trace FILE --slot A..B --node N --packet P",
        run: run_trace_query,
    },
    Subcommand {
        name: "campaign",
        flags: "--spec FILE --quick --out DIR --no-progress",
        run: run_campaign_cmd,
    },
    Subcommand {
        name: "stats",
        flags: "--spec FILE --from DIR --quick --out DIR --gate",
        run: run_stats_cmd,
    },
    Subcommand {
        name: "serve",
        flags: "--data DIR --addr HOST:PORT --jobs N --allow-remote-shutdown --no-progress",
        run: run_service_cmd,
    },
    Subcommand {
        name: "submit",
        flags: "--server ADDR --spec FILE --quick --wait",
        run: run_service_cmd,
    },
    Subcommand {
        name: "status",
        flags: "--server ADDR --id JOB",
        run: run_service_cmd,
    },
    Subcommand {
        name: "fetch",
        flags: "--server ADDR --id JOB --artefact NAME --out DIR",
        run: run_service_cmd,
    },
    Subcommand {
        name: "cancel",
        flags: "--server ADDR --id JOB",
        run: run_service_cmd,
    },
];

/// Which group an artefact belongs to: `analytical` runs the
/// [`Group::Analytical`] ones, `all` runs every artefact.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    /// Closed-form or instant: no trace-driven simulation.
    Analytical,
    /// Trace-driven simulations, sized by `--quick`.
    Simulated,
}

/// An artefact: its name, its group, and how it renders (markdown).
/// The table's order is the order `all` and `analytical` run in.
type Artefact = (&'static str, Group, fn(&mut Render) -> String);

const ARTEFACTS: &[Artefact] = &[
    ("table1", Group::Analytical, |_| experiments::table1(1024)),
    ("fig3", Group::Analytical, |_| experiments::fig3()),
    ("fig5", Group::Analytical, |_| fig5()),
    ("fig6", Group::Analytical, |_| {
        with_chart(&experiments::fig6())
    }),
    ("fig7", Group::Analytical, |_| {
        with_chart(&experiments::fig7(298))
    }),
    ("theorem1-check", Group::Analytical, |_| {
        experiments::theorem1_check()
    }),
    ("lifetime-gain", Group::Analytical, |_| {
        experiments::lifetime_gain(298, 0.75)
    }),
    ("fig9", Group::Simulated, |r| {
        with_chart(&experiments::fig9(r.runner, r.opts))
    }),
    ("fig10", Group::Simulated, |r| r.fig10_11().0.clone()),
    ("fig11", Group::Simulated, |r| r.fig10_11().1.clone()),
    ("ablation-overhearing", Group::Simulated, |r| {
        experiments::ablation_overhearing(r.runner, r.opts).to_markdown()
    }),
    ("ablation-opportunistic", Group::Simulated, |r| {
        experiments::ablation_opportunistic(r.runner, r.opts).to_markdown()
    }),
    ("ablation-policy", Group::Analytical, |_| {
        experiments::ablation_policy()
    }),
    ("resilience", Group::Simulated, |r| {
        ldcf_bench::resilience::resilience(r.runner, r.opts, r.quick)
    }),
];

/// The artefacts a run name selects: one artefact, a group, or none.
fn select(name: &str) -> Vec<&'static Artefact> {
    ARTEFACTS
        .iter()
        .filter(|(artefact, group, _)| match name {
            "all" => true,
            "analytical" => *group == Group::Analytical,
            _ => *artefact == name,
        })
        .collect()
}

/// The command lines, one per subcommand (and per `trace` action). The
/// flags each line names are exactly those its [`SUBCOMMANDS`] entry
/// declares.
const USAGE: &str = "\
experiments <artefact> [--quick] [--out DIR] [--trace-events DIR] [--profile]
experiments forensics --trace FILE [--out DIR]
experiments trace info --trace FILE
experiments trace export --trace FILE [--out FILE]
experiments trace query --trace FILE --slot A..B [--node N] [--packet P]
experiments campaign --spec FILE [--quick] [--out DIR] [--no-progress]
experiments stats --spec FILE --from DIR [--quick] [--out DIR] [--gate]
experiments serve --data DIR [--addr HOST:PORT] [--jobs N] [--allow-remote-shutdown] [--no-progress]
experiments submit --server ADDR --spec FILE [--quick] [--wait]
experiments status --server ADDR [--id JOB]
experiments fetch --server ADDR --id JOB [--artefact NAME] [--out DIR]
experiments cancel --server ADDR --id JOB";

/// Print `err` (if any) and the usage text to stderr, then exit: 0 for
/// `--help`, 2 for a usage error.
fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    for (i, line) in USAGE.lines().enumerate() {
        eprintln!("{} {line}", if i == 0 { "usage:" } else { "      " });
    }
    let names = |group| {
        let names: Vec<&str> = ARTEFACTS
            .iter()
            .filter(|a| a.1 == group)
            .map(|a| a.0)
            .collect();
        names.join(" ")
    };
    eprintln!("analytical artefacts: {}", names(Group::Analytical));
    eprintln!("simulated artefacts:  {}", names(Group::Simulated));
    eprintln!("artefact groups:      analytical all");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Print `error: {msg}` to stderr and exit with `code`: 2 for input the
/// command cannot use, 1 for a failure while running it.
fn fail(code: i32, msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// A command line checked against [`SUBCOMMANDS`]: the subcommand and
/// the flags given, in order.
struct Args {
    cmd: &'static Subcommand,
    /// The first positional as given: an artefact, a group or a
    /// subcommand name.
    name: String,
    flags: Vec<(&'static str, Option<String>)>,
}

/// The `trace` actions: the second words of the `trace <action>`
/// subcommands.
fn trace_actions() -> String {
    let actions: Vec<&str> = SUBCOMMANDS
        .iter()
        .filter_map(|cmd| cmd.name.strip_prefix("trace "))
        .collect();
    actions.join(", ")
}

/// Parse the arguments after the program name. A flag no subcommand
/// declares, a missing value, an unknown name or `trace` action, or a
/// flag the named subcommand does not declare is an error; `Err("")`
/// asks for help.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut name: Option<String> = None;
    let mut action = None;
    let mut flags = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            return Err(String::new());
        }
        if arg.starts_with('-') {
            let (flag, placeholder) = SUBCOMMANDS
                .iter()
                .find_map(|cmd| cmd.flag(&arg))
                .ok_or_else(|| format!("unknown flag '{arg}'"))?;
            let value = match placeholder {
                Some(_) => Some(argv.next().ok_or(format!("{flag} needs a value"))?),
                None => None,
            };
            flags.push((flag, value));
        } else if name.is_none() {
            name = Some(arg);
        } else if name.as_deref() == Some("trace") && action.is_none() {
            action = Some(arg);
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    let name = name.ok_or("missing artefact name")?;
    let key = match (name.as_str(), &action) {
        ("trace", None) => return Err(format!("trace needs an action: {}", trace_actions())),
        ("trace", Some(action)) => format!("trace {action}"),
        _ => name.clone(),
    };
    let cmd = SUBCOMMANDS
        .iter()
        .find(|cmd| match cmd.name {
            ARTEFACT_RUN => !select(&key).is_empty(),
            subcommand => subcommand == key,
        })
        .ok_or_else(|| match &action {
            Some(action) => format!(
                "unknown trace action '{action}' (expected {})",
                trace_actions()
            ),
            None => format!("unknown artefact '{name}'"),
        })?;
    if let Some((flag, _)) = flags.iter().find(|(flag, _)| cmd.flag(flag).is_none()) {
        return Err(format!("flag '{flag}' is not valid for '{key}'"));
    }
    Ok(Args { cmd, name, flags })
}

impl Args {
    /// The last occurrence of `flag`, which the subcommand must declare.
    fn last(&self, flag: &str) -> Option<&(&'static str, Option<String>)> {
        debug_assert!(
            self.cmd.flag(flag).is_some(),
            "{flag} is not declared for {}",
            self.cmd.name
        );
        self.flags.iter().rev().find(|(given, _)| *given == flag)
    }

    /// Whether a flag was given.
    fn has(&self, flag: &str) -> bool {
        self.last(flag).is_some()
    }

    /// The value given for `flag` (a repeated flag's last value wins).
    fn value(&self, flag: &str) -> Option<&str> {
        self.last(flag)?.1.as_deref()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value of a flag the subcommand cannot run without; its
    /// absence is a usage error naming the flag and its placeholder.
    fn required(&self, flag: &str) -> &str {
        self.value(flag).unwrap_or_else(|| {
            let placeholder = self.cmd.flag(flag).and_then(|f| f.1).unwrap_or("");
            usage(&format!("{} needs {flag} {placeholder}", self.name))
        })
    }

    /// The value of `flag` parsed as `T` and accepted by `ok`; any other
    /// value is a usage error saying what the flag `wants`.
    fn parsed<T: std::str::FromStr>(
        &self,
        flag: &str,
        wants: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let value = self.value(flag)?;
        let parsed = value.parse().ok().filter(|v| ok(v));
        Some(parsed.unwrap_or_else(|| usage(&format!("{flag} wants {wants}, got {value:?}"))))
    }
}

/// The `forensics` artefact: stream one trace (a `--trace-events` file
/// or its JSONL export; the format is sniffed from the leading bytes)
/// through `ldcf_analysis::ForensicsReport`, which reconstructs each
/// packet's dissemination tree, attributes every node's flooding delay
/// to five causes, extracts critical paths and checks the run against
/// the paper's theory. Prints the summary, optionally writes
/// `DIR/<stem>.forensics.json`, and exits 1 on any hard theory
/// violation.
fn run_forensics(args: &Args) {
    let trace = Path::new(args.required("--trace"));
    let out = args.path("--out");
    let source = ldcf_analysis::EventSource::open(trace)
        .unwrap_or_else(|e| usage(&format!("--trace {}: {e}", trace.display())));
    let report = ldcf_analysis::ForensicsReport::from_source(source).unwrap_or_else(|e| fail(2, e));
    outln!("{}", report.summary(5));
    if let Some(dir) = &out {
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
    if !report.is_clean() {
        eprintln!(
            "forensics: {} theory violation(s) — see summary above",
            report.violations.len()
        );
        std::process::exit(1);
    }
}

/// `trace info`: event counts, slot span, byte sizes and the binary
/// compression ratio of a trace. (`cargo test` holds the pinned traces
/// to a ratio of at least 4, in `crates/bench/tests/pins.rs`.)
fn run_trace_info(args: &Args) {
    let trace = Path::new(args.required("--trace"));
    let info = ldcf_bench::trace_cmd::info(trace).unwrap_or_else(|e| fail(2, e));
    out!("{}", info.render(trace));
}

/// `trace export`: binary → JSONL, byte-identical to a direct JSONL run.
fn run_trace_export(args: &Args) {
    use ldcf_bench::trace_cmd;

    let trace = Path::new(args.required("--trace"));
    let out = args
        .path("--out")
        .unwrap_or_else(|| trace_cmd::default_export_path(trace));
    let (events, bytes) = trace_cmd::export(trace, &out).unwrap_or_else(|e| fail(2, e));
    eprintln!(
        "trace export: {} -> {} ({events} events, {bytes} bytes)",
        trace.display(),
        out.display()
    );
}

/// `trace query`: stream a slot range, seeking via the binary index
/// when the input has one, optionally filtered to one node or packet.
fn run_trace_query(args: &Args) {
    use ldcf_bench::trace_cmd;

    let trace = Path::new(args.required("--trace"));
    let node = args.parsed("--node", "a node id", |_: &u32| true);
    let packet = args.parsed("--packet", "a packet id", |_: &u32| true);
    let range = args
        .value("--slot")
        .unwrap_or_else(|| usage("trace query needs --slot A..B"));
    let range = trace_cmd::parse_slot_range(range).unwrap_or_else(|e| usage(&e));
    let mut out = std::io::BufWriter::new(Stdout);
    let stats =
        trace_cmd::query(trace, range, node, packet, &mut out).unwrap_or_else(|e| fail(2, e));
    std::io::Write::flush(&mut out).unwrap_or_else(|e| fail(2, e));
    if stats.frames_total > 0 {
        eprintln!(
            "trace query: {} event(s), decoded {}/{} frames via index",
            stats.matched, stats.frames_scanned, stats.frames_total
        );
    } else {
        eprintln!("trace query: {} event(s) (full jsonl scan)", stats.matched);
    }
}

/// The scenario spec named by `--spec`: an unreadable file or a spec
/// that does not parse exits 2, naming the file.
fn load_spec(args: &Args) -> ldcf_scenarios::ScenarioSpec {
    let path = Path::new(args.required("--spec"));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("--spec {}: {e}", path.display())));
    match ldcf_scenarios::ScenarioSpec::from_toml_str(&text) {
        Ok(spec) => spec,
        Err(e) => fail(2, format!("{}: {e}", path.display())),
    }
}

/// The `campaign` subcommand: parse a scenario spec, run/resume the
/// campaign into `--out` and print the aggregated table. The generator
/// digests of the committed specs are pinned in
/// `crates/bench/baselines/scenarios.sha256`, which `cargo test` checks
/// (`crates/bench/tests/pins.rs`).
fn run_campaign_cmd(args: &Args) {
    let spec = load_spec(args);
    let out = args.path("--out").unwrap_or_else(|| PathBuf::from("."));
    // An `--out` that cannot be a directory is a usage error, like
    // every other `--out` and `serve --data`.
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| usage(&format!("--out {}: {e}", out.display())));
    let t0 = std::time::Instant::now();
    let opts = CampaignOptions {
        quick: args.has("--quick"),
        progress: !args.has("--no-progress"),
        ..CampaignOptions::default()
    };
    let outcome = ldcf_bench::run_campaign_with(spec, &out, opts).unwrap_or_else(|e| fail(1, e));
    let wall = t0.elapsed();
    outln!("{}", outcome.markdown);

    ldcf_bench::campaign::write_manifest(&out, &outcome.manifest(wall.as_millis() as u64))
        .unwrap_or_else(|e| fail(1, e));
    eprintln!(
        "[campaign-{}] done in {wall:?} — {}/{} cells run, {} resumed, digest {}",
        outcome.name, outcome.cells_run, outcome.cells_total, outcome.cells_resumed, outcome.digest
    );
}

/// The `stats` subcommand: recompute a campaign's statistics from an
/// existing checkpoint directory (no simulation), print the tables,
/// optionally write `campaign-stats.md` / `campaign-stats.json` to
/// `--out`, and with `--gate` exit 1 when the theory-conformance gate
/// (Theorem 2 band / hard worst case) is violated.
fn run_stats_cmd(args: &Args) {
    let spec = load_spec(args);
    let from = Path::new(args.required("--from"));
    let outcome = ldcf_bench::campaign::recompute_stats(spec, args.has("--quick"), from)
        .unwrap_or_else(|e| fail(1, e));
    outln!("{}", outcome.markdown);
    if let Some(dir) = args.path("--out") {
        write_out(&dir, "campaign-stats.md", &outcome.markdown);
        write_out(&dir, "campaign-stats.json", outcome.to_json_pretty());
    }
    if args.has("--gate") {
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
}

/// The campaign-service subcommands: `serve` runs the campaign runner
/// as a long-lived HTTP job server over `--data DIR` (one job directory
/// per spec digest; interrupted campaigns resume on restart), and
/// `submit`/`status`/`fetch`/`cancel` are its thin clients. Missing
/// flags, and a `--data` or `--out` that cannot be a directory, exit 2
/// like every other usage error; server-side and transport failures
/// exit 1.
fn run_service_cmd(args: &Args) {
    use ldcf_bench::service_cli;

    let result = match args.name.as_str() {
        "serve" => {
            let data = Path::new(args.required("--data"));
            let jobs = args.parsed("--jobs", "a positive integer", |&n: &usize| n >= 1);
            std::fs::create_dir_all(data)
                .unwrap_or_else(|e| usage(&format!("--data {}: {e}", data.display())));
            service_cli::serve(
                data,
                args.value("--addr").unwrap_or("127.0.0.1:0"),
                jobs.unwrap_or(2),
                args.has("--allow-remote-shutdown"),
                !args.has("--no-progress"),
            )
        }
        "submit" => {
            let server = args.required("--server");
            let spec = Path::new(args.required("--spec"));
            service_cli::submit(server, spec, args.has("--quick"), args.has("--wait"))
        }
        "status" => service_cli::status(args.required("--server"), args.value("--id")),
        "fetch" => {
            let (server, id) = (args.required("--server"), args.required("--id"));
            let out = args.path("--out");
            if let Some(dir) = &out {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| usage(&format!("--out {}: {e}", dir.display())));
            }
            service_cli::fetch(server, id, args.value("--artefact"), out.as_deref())
        }
        "cancel" => service_cli::cancel(args.required("--server"), args.required("--id")),
        other => unreachable!("'{other}' is not a service subcommand"),
    };
    result.unwrap_or_else(|e| fail(1, e));
}

/// Markdown table followed by its ASCII chart (fenced for markdown).
fn with_chart(table: &ldcf_analysis::Table) -> String {
    format!(
        "{}\n```text\n{}```\n",
        table.to_markdown(),
        table.to_chart()
    )
}

/// Fig. 5's two panels.
fn fig5() -> String {
    let (left, right) = experiments::fig5();
    format!(
        "Left panel (N = 1024):\n\n{}\nRight panel (T = 5):\n\n{}",
        with_chart(&left),
        with_chart(&right)
    )
}

/// What an artefact renders with: its own runner, the sweep options,
/// and the Fig. 10/11 sweep the two figures share. The sweep runs
/// once, on the runner of whichever of the two renders first, whose
/// ledger bills it.
struct Render<'a> {
    runner: &'a Runner,
    opts: &'a ExpOptions,
    quick: bool,
    fig10_11: &'a mut Option<(String, String)>,
}

impl Render<'_> {
    fn fig10_11(&mut self) -> &(String, String) {
        let (runner, opts) = (self.runner, self.opts);
        self.fig10_11.get_or_insert_with(|| {
            let (f10, f11) = experiments::fig10_fig11(runner, opts);
            (with_chart(&f10), with_chart(&f11))
        })
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

/// An artefact run (one artefact or a group of them): print each
/// artefact's markdown, and under `--out DIR` write it to
/// `DIR/<name>.md` beside a provenance manifest
/// (`DIR/<name>.manifest.json`: protocols, config, seeds, sims, slots,
/// wall clock, slots/sec). `--quick` shrinks the trace-driven runs
/// (fewer packets/seeds, coarser duty grid). `--trace-events DIR`
/// streams every flood's slot-level events to one binary file per run
/// (`<stem>.events.bin`, with a seekable slot index), the run's one
/// record, and books the sink's totals in the manifest. `--profile`
/// attaches the engine phase profiler to every simulation and prints a
/// per-phase summary to stderr; the artefact bytes must not change
/// (`cargo test` compares fig9 and resilience, run with profiling on,
/// against the pinned baselines in `crates/bench/tests/pins.rs`). A
/// trace file that cannot be written exits 2, naming it.
fn run_artefacts(args: &Args) {
    let quick = args.has("--quick");
    let opts = if quick {
        ExpOptions::quick()
    } else {
        ExpOptions::full()
    };
    let out = args.path("--out");
    let trace_events = args.path("--trace-events");
    let profile = args.has("--profile");
    let mut fig10_11 = None;
    for (name, _, render) in select(&args.name) {
        // A fresh runner per artefact: its ledger holds only its runs.
        let mut runner = Runner::default();
        if let Some(dir) = &trace_events {
            runner = runner
                .with_event_tracing(dir)
                .unwrap_or_else(|e| usage(&format!("--trace-events: {e}")));
        }
        if profile {
            runner = runner.with_profiling();
        }
        let t0 = std::time::Instant::now();
        let body = render(&mut Render {
            runner: &runner,
            opts: &opts,
            quick,
            fig10_11: &mut fig10_11,
        });
        let wall = t0.elapsed();
        let ledger = runner.ledger();
        if let Some(e) = &ledger.trace_error {
            usage(&format!("--trace-events {e}"));
        }
        outln!("\n## {name}\n\n{body}");
        if let Some(dir) = &out {
            write_out(dir, &format!("{name}.md"), &body);
        }

        let mut manifest = RunManifest::new(
            name,
            ledger.protocols.iter().map(|p| p.to_string()).collect(),
            opts_value(&opts, &ledger),
            ledger.seeds.iter().copied().collect(),
            quick,
            ledger.sims,
            ledger.slots,
            wall.as_millis() as u64,
        );
        if trace_events.is_some() {
            manifest = manifest.with_trace_stats("bin", ledger.trace_events, ledger.trace_bytes);
        }
        if let Some(dir) = &out {
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
        if profile {
            report_profile(name, &runner);
        }
    }
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    (args.cmd.run)(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `experiments` command line in a script or document: the
    /// words after each `./target/release/experiments` or
    /// `--bin experiments --`, with `\` continuations joined. Comment
    /// lines are skipped.
    fn invocations(text: &str) -> Vec<Vec<String>> {
        let joined = text.replace("\\\n", " ");
        let mut found = Vec::new();
        for line in joined.lines().filter(|l| !l.trim_start().starts_with('#')) {
            for marker in ["./target/release/experiments ", "--bin experiments -- "] {
                for (at, _) in line.match_indices(marker) {
                    found.push(shell_words(&line[at + marker.len()..]));
                }
            }
        }
        found
    }

    /// The words of a shell command up to its first unquoted operator
    /// or comment, with quotes removed; the descriptor number of a
    /// redirection such as `2>` is dropped with it.
    fn shell_words(cmd: &str) -> Vec<String> {
        let mut words = Vec::new();
        let mut word = String::new();
        let mut quote = None;
        for c in cmd.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '"' | '\'') => quote = Some(c),
                (None, c) if c.is_whitespace() => {
                    if !word.is_empty() {
                        words.push(std::mem::take(&mut word));
                    }
                }
                (None, '#') if word.is_empty() => break,
                (None, '|' | '&' | ';' | '<' | '>' | ')') => {
                    if word.chars().all(|c| c.is_ascii_digit()) {
                        word.clear();
                    }
                    break;
                }
                (None, c) => word.push(c),
            }
        }
        if !word.is_empty() {
            words.push(word);
        }
        words
    }

    #[test]
    fn every_invocation_in_ci_and_the_readme_parses() {
        let sources = [
            ("ci.sh", include_str!("../../../../ci.sh")),
            (
                "ci.yml",
                include_str!("../../../../.github/workflows/ci.yml"),
            ),
            (
                "nightly.yml",
                include_str!("../../../../.github/workflows/nightly.yml"),
            ),
            ("README.md", include_str!("../../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../../EXPERIMENTS.md")),
            (
                "SKILL.md",
                include_str!("../../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        let mut checked = 0;
        for (file, text) in sources {
            for words in invocations(text) {
                let line = words.join(" ");
                if let Err(e) = parse(words) {
                    panic!("{file}: `experiments {line}` does not parse: {e}");
                }
                checked += 1;
            }
        }
        // The extractor itself must keep finding the command lines
        // (30 today: README 13, EXPERIMENTS.md 7, nightly.yml 5,
        // SKILL.md 5; ci.sh runs no `experiments` command).
        assert!(checked >= 30, "only {checked} invocations found");
    }

    #[test]
    fn usage_names_exactly_the_declared_flags() {
        for cmd in SUBCOMMANDS {
            let mut named: Vec<String> = Vec::new();
            let words = cmd.name.split_whitespace();
            for line in USAGE.lines() {
                let line_words = line.split_whitespace().skip(1).take(words.clone().count());
                if !line_words.eq(words.clone()) {
                    continue;
                }
                for (flag, placeholder) in declared(&line.replace(['[', ']'], "")) {
                    let flag = format!("{flag} {}", placeholder.unwrap_or_default());
                    if !named.contains(&flag) {
                        named.push(flag);
                    }
                }
            }
            let mut table: Vec<String> = declared(cmd.flags)
                .map(|(flag, placeholder)| format!("{flag} {}", placeholder.unwrap_or_default()))
                .collect();
            named.sort();
            table.sort();
            assert_eq!(named, table, "usage of '{}'", cmd.name);
        }
    }

    #[test]
    fn a_flag_takes_a_value_everywhere_or_nowhere() {
        // `parse` reads a flag's value before it knows the subcommand.
        for cmd in SUBCOMMANDS {
            for (flag, placeholder) in declared(cmd.flags) {
                for other in SUBCOMMANDS.iter().filter_map(|other| other.flag(flag)) {
                    assert_eq!(placeholder.is_some(), other.1.is_some(), "{flag}");
                }
            }
        }
    }

    #[test]
    fn groups_run_in_table_order() {
        let names = |group| select(group).iter().map(|a| a.0).collect::<Vec<_>>();
        assert_eq!(
            names("analytical"),
            [
                "table1",
                "fig3",
                "fig5",
                "fig6",
                "fig7",
                "theorem1-check",
                "lifetime-gain",
                "ablation-policy"
            ]
        );
        assert_eq!(names("all").len(), ARTEFACTS.len());
        assert_eq!(names("fig9"), ["fig9"]);
        assert!(names("<artefact>").is_empty());
    }

    #[test]
    fn parse_resolves_names_and_flags_against_the_tables() {
        let parse = |line: &str| parse(line.split_whitespace().map(String::from));
        let args = parse("--quick fig9 --out a --out b").unwrap();
        assert_eq!(args.cmd.name, ARTEFACT_RUN);
        assert_eq!(args.value("--out"), Some("b"));
        assert!(args.has("--quick"));
        let args = parse("trace query --trace t.bin --slot 0..9").unwrap();
        assert_eq!(
            (args.cmd.name, args.name.as_str()),
            ("trace query", "trace")
        );
        assert_eq!(
            parse("trace export --trace t.bin --slot 1..2")
                .err()
                .unwrap(),
            "flag '--slot' is not valid for 'trace export'"
        );
        assert_eq!(
            parse("<artefact>").err().unwrap(),
            "unknown artefact '<artefact>'"
        );
        assert_eq!(parse("fig3 --help").err().unwrap(), "");
        assert_eq!(
            parse("stats --wait").err().unwrap(),
            "flag '--wait' is not valid for 'stats'"
        );
    }
}
