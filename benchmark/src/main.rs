//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]
//! ```
//!
//! With one `--workload`, the workload runs in this process: it prints
//! `workload metric value unit` lines, writes `<out>/<workload>.json`
//! (and `<out>/spans-<workload>.json` when traced), and prints the
//! result object as its last line. With none or several, each workload
//! runs in a child process of its own, one after another, and this
//! process relays their output.

use ldcf_benchmark::metrics::result_line;
use ldcf_benchmark::{default_out, run, spans, RunOpts, Size, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Measurement window unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workloads: Vec<Workload>,
    opts: RunOpts,
}

fn usage(msg: &str) -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "{msg}\nusage: ldcf-benchmark [--workload NAME]... [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--out DIR]\nworkloads: {}",
        names.join(" ")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        size: Size::Full,
        out: default_out(),
    };
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads.push(
                    Workload::from_name(&name)
                        .ok_or_else(|| usage(&format!("unknown workload {name:?}")))?,
                );
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| usage("--seed takes a whole number"))?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| usage("--seconds takes a positive number"))?
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                }
            }
            "--traced" => opts.traced = true,
            "--out" => opts.out = PathBuf::from(value()?),
            _ => return Err(usage(&format!("unknown argument {flag:?}"))),
        }
    }
    Ok(Args { workloads, opts })
}

/// Run one workload here; the result line is printed last.
fn run_here(workload: Workload, opts: &RunOpts) -> Result<(), String> {
    let result = run(workload, opts)?;
    let metrics = result.values.resolve(opts.traced)?;
    for &(name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", workload.name());
    }
    for f in &result.checks.failures {
        eprintln!("{}: check failed: {f}", workload.name());
    }
    let doc = ldcf_benchmark::results_value(workload, opts, &result, &metrics);
    let write = |name: String, text: String| {
        let path = opts.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        format!("{}.json", workload.name()),
        serde_json::to_string_pretty(&doc).expect("results serialize") + "\n",
    )?;
    if opts.traced {
        write(
            format!("spans-{}.json", workload.name()),
            spans::to_json(&result.spans),
        )?;
    }
    println!(
        "{}",
        result_line(
            result.checks.failed == 0,
            result.checks.attempted.max(1),
            result.checks.failed,
            &metrics
        )
    );
    Ok(())
}

/// Run each workload in a child process of this binary, one at a time.
/// Fails if a child printed no result.
fn run_children(workloads: &[Workload], opts: &RunOpts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for w in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out);
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {} exited with {status}", w.name()));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workloads.as_slice() {
        [one] => run_here(*one, &args.opts),
        [] => run_children(&Workload::ALL, &args.opts),
        many => run_children(many, &args.opts),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ldcf-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
