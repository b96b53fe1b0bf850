#!/usr/bin/env bash
# Local CI: the exact checks .github/workflows/ci.yml runs, split into
# named stages so the workflow's parallel jobs and a developer's shell
# invoke the same code.
#
#   ./ci.sh                 # every stage, in order
#   ./ci.sh list            # print the stage names, one per line
#   ./ci.sh fmt clippy      # just those stages, in the given order
#   ./ci.sh quick           # every stage except clippy (fast pre-push)
#
# Stages (./ci.sh list is authoritative):
#
#   fmt            cargo fmt --check (workspace + benchmark/)
#   clippy         cargo clippy -D warnings (workspace + benchmark/)
#   shellcheck     shellcheck ci.sh (skips when the tool is absent)
#   build          cargo build --workspace --release
#   test           cargo test --workspace
#   examples       run every example once (release, small arguments)
#   alloc-gate     hot-path allocation gate
#   artefacts      fig9/10/11 + resilience + OF/DBAO ablation byte-identity
#                  vs pinned baselines; binary traces exported to JSONL
#                  and checked against the pinned trace hashes
#   forensics      theory checks over every fig9 trace (+ faulted),
#                  binary vs exported-JSONL report identity, ratio
#   digests        scenario generator digests vs scenarios.sha256
#   campaign       demo campaign: run twice, byte-identity + resume;
#                  campaign-nightly (mixed periods) vs its pinned tables
#   stats          stats-quick campaign: rerun + checkpoint-recompute
#                  byte-identity of campaign-stats.md / campaign.json
#   service        campaign job server smoke (submit/fetch/dedupe)
#   benchmark      benchmark/ harness tests + test-size workloads
#                  (outcome digests vs benchmark/expected.json)
#
# Per-stage wall-clock durations are printed to stderr at the end, and
# appended as a markdown table to $GITHUB_STEP_SUMMARY when that is set
# (i.e. under GitHub Actions).
#
# Stages that need ./target/release/experiments build it on demand, so
# `./ci.sh stats` works from a clean checkout; CI jobs run `build`
# first to front-load the compile into its own timed stage.

set -euo pipefail
cd "$(dirname "$0")"

STAGES=(fmt clippy shellcheck build test examples alloc-gate artefacts
    forensics digests campaign stats service benchmark)

ART_DIR="$(mktemp -d)"
SRV_PID=""
cleanup() {
    if [[ -n "$SRV_PID" ]] && kill -0 "$SRV_PID" 2> /dev/null; then
        kill "$SRV_PID" 2> /dev/null || true
        wait "$SRV_PID" 2> /dev/null || true
    fi
    rm -rf "$ART_DIR"
}
trap cleanup EXIT

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

# Build the experiments binary if a stage runs without `build` first.
ensure_built() {
    [[ -x target/release/experiments ]] \
        || cargo build --release -p ldcf-bench --bins
}

# benchmark/ is a package of its own, outside the workspace, so the
# workspace invocations never see it: fmt and clippy name it explicitly.
stage_fmt() {
    step "cargo fmt --check"
    cargo fmt --all -- --check
    cargo fmt --manifest-path benchmark/Cargo.toml -- --check
}

stage_clippy() {
    step "cargo clippy (workspace, all targets, -D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
    step "cargo clippy (benchmark/, all targets, -D warnings)"
    cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
}

stage_shellcheck() {
    step "shellcheck ci.sh"
    if command -v shellcheck > /dev/null 2>&1; then
        shellcheck ci.sh
        echo "ci.sh shellcheck-clean"
    else
        echo "shellcheck not installed — skipping (CI installs it)"
    fi
}

stage_build() {
    step "cargo build --release"
    cargo build --workspace --release
}

stage_test() {
    step "cargo test"
    cargo test -q --workspace
}

# `cargo test` compiles the examples but never runs them, and
# sync_sensitivity is the only program that drives the clock model.
stage_examples() {
    step "run every example once (release, small arguments)"
    cargo build --release --examples
    local src ex args
    for src in examples/*.rs; do
        ex="$(basename "$src" .rs)"
        case "$ex" in
            greenorbs_flood) args=(10) ;;
            scale_check) args=(opt 5) ;;
            *) args=() ;;
        esac
        echo "example: $ex ${args[*]}"
        "./target/release/examples/$ex" "${args[@]}" > /dev/null
    done
}

stage_alloc_gate() {
    step "allocation gate (hot path must not touch the heap)"
    cargo test -q -p ldcf-bench --test alloc_gate
}

stage_artefacts() {
    step "regenerate fig9 + resilience (--quick, --profile), fig10/fig11 and the OF/DBAO ablations, and gate byte-identity vs pinned baselines"
    ensure_built
    # Run with the phase profiler ON: telemetry must be observational
    # only, so even instrumented runs reproduce every pinned byte.
    ./target/release/experiments fig9 --quick --profile --out "$ART_DIR" \
        --trace-events "$ART_DIR/traces" > /dev/null
    ./target/release/experiments resilience --quick --profile --out "$ART_DIR" \
        --trace-events "$ART_DIR/traces" > /dev/null
    export_traces
    # The ablations hold OF's pure-tree mode and DBAO without
    # overhearing to pinned bytes too; fig10/fig11 hold all three
    # protocols across four duties.
    ./target/release/experiments ablation-opportunistic --quick --out "$ART_DIR" > /dev/null
    ./target/release/experiments ablation-overhearing --quick --out "$ART_DIR" > /dev/null
    ./target/release/experiments fig10 --quick --out "$ART_DIR" > /dev/null
    ./target/release/experiments fig11 --quick --out "$ART_DIR" > /dev/null
    # Performance work must not move a single byte of any artefact:
    # tables and event traces are diffed against
    # crates/bench/baselines/quick/, which the slot-stepped oracle
    # produced — so this stage also holds the event engine (the only
    # runtime path) to byte identity with it. Runs write binary traces;
    # the pins are of their JSONL exports. (Wall-clock telemetry —
    # heartbeat *-telemetry.jsonl, profile reports — is deliberately
    # outside this contract and never diffed.)
    diff -u crates/bench/baselines/quick/fig9.md "$ART_DIR/fig9.md"
    diff -u crates/bench/baselines/quick/fig10.md "$ART_DIR/fig10.md"
    diff -u crates/bench/baselines/quick/fig11.md "$ART_DIR/fig11.md"
    diff -u crates/bench/baselines/quick/resilience.md "$ART_DIR/resilience.md"
    for table in ablation-opportunistic ablation-overhearing; do
        diff -u "crates/bench/baselines/quick/$table.md" "$ART_DIR/$table.md"
    done
    (cd "$ART_DIR/traces" \
        && sha256sum --check --quiet "$OLDPWD/crates/bench/baselines/quick/traces.sha256")
    echo "byte-identical (with profiling enabled)"
}

# Export every binary trace to its JSONL twin beside it.
export_traces() {
    for bin in "$ART_DIR"/traces/*.events.bin; do
        ./target/release/experiments trace export --trace "$bin" 2> /dev/null
    done
}

stage_forensics() {
    step "flood forensics (fig9 --quick + burst+drift faulted traces: theory checks, bin vs JSONL, ratio)"
    ensure_built
    if ! ls "$ART_DIR"/traces/*.events.jsonl > /dev/null 2>&1; then
        ./target/release/experiments fig9 --quick --out "$ART_DIR" \
            --trace-events "$ART_DIR/traces" > /dev/null
        ./target/release/experiments resilience --quick --out "$ART_DIR" \
            --trace-events "$ART_DIR/traces" > /dev/null
        export_traces
    fi
    # Each fig9 trace, and the isolation table's burst+drift trace
    # (static schedules, so it must replay cleanly through the hard
    # checks), must (a) pass forensics, (b) compress at least 4x over
    # JSONL, and (c) write a JSON report identical to the one forensics
    # writes from its exported JSONL twin: the binary and JSONL decoders
    # agree end to end.
    for bin in "$ART_DIR"/traces/*-s[0-9].events.bin \
        "$ART_DIR/traces/dbao-p100-a5-m30-s1-fbd.events.bin"; do
        echo "forensics: $(basename "$bin")"
        ./target/release/experiments forensics --trace "$bin" \
            --out "$ART_DIR/forensics-bin" | grep -v '^  note:'
        ./target/release/experiments forensics --trace "${bin%.bin}.jsonl" \
            --out "$ART_DIR/forensics-jsonl" > /dev/null
        ./target/release/experiments trace info --trace "$bin" --min-ratio 4 > /dev/null
    done
    diff -r "$ART_DIR/forensics-bin" "$ART_DIR/forensics-jsonl"
    echo "forensics clean; binary traces compress >= 4x and replay identically" \
        "to their JSONL twins"
}

stage_digests() {
    step "scenario golden gates (generator digests vs scenarios.sha256)"
    ensure_built
    # Any drift in a topology/link/schedule generator or its RNG stream
    # changes a spec's digest and fails this diff.
    for spec in scenarios/*.toml; do
        ./target/release/experiments campaign --spec "$spec" --digest
    done > "$ART_DIR/scenarios.sha256"
    diff -u crates/bench/baselines/scenarios.sha256 "$ART_DIR/scenarios.sha256"
    echo "scenario digests pinned"
}

stage_campaign() {
    step "demo campaign (--quick): run twice, gate byte-identity + resume"
    ensure_built
    # camp1 exercises the heartbeat (progress on, the default); camp2
    # the --no-progress path. campaign-telemetry.jsonl is wall-clock
    # data and deliberately outside the determinism contract: byte-diffs
    # compare campaign.md / campaign.json / campaign-stats.md only and
    # never *-telemetry.jsonl.
    ./target/release/experiments campaign --spec scenarios/demo-quick.toml \
        --quick --out "$ART_DIR/camp1" > /dev/null 2> /dev/null
    ./target/release/experiments campaign --spec scenarios/demo-quick.toml \
        --quick --no-progress --out "$ART_DIR/camp2" > /dev/null
    diff -u "$ART_DIR/camp1/campaign.md" "$ART_DIR/camp2/campaign.md"
    diff -u "$ART_DIR/camp1/campaign.json" "$ART_DIR/camp2/campaign.json"
    diff -u "$ART_DIR/camp1/campaign-stats.md" "$ART_DIR/camp2/campaign-stats.md"
    # The heartbeat must have logged start + 6 cells + done for camp1.
    [[ "$(wc -l < "$ART_DIR/camp1/campaign-telemetry.jsonl")" -eq 8 ]] \
        || { echo "heartbeat telemetry FAILED"; exit 1; }
    # Resume: a third run over camp1's checkpoints must simulate nothing
    # and still emit the same bytes.
    ./target/release/experiments campaign --spec scenarios/demo-quick.toml \
        --quick --out "$ART_DIR/camp1" 2>&1 > /dev/null \
        | grep -q '0/6 cells run, 6 resumed' || { echo "resume FAILED"; exit 1; }
    diff -u "$ART_DIR/camp1/campaign.md" "$ART_DIR/camp2/campaign.md"
    # The one mixed-period spec (periods 10, 20, 40): its wake calendar
    # spans their LCM, and its quick tables are pinned.
    ./target/release/experiments campaign --spec scenarios/campaign-nightly.toml \
        --quick --no-progress --out "$ART_DIR/nightly" > /dev/null
    for f in campaign.md campaign.json; do
        diff -u "crates/bench/baselines/quick/campaign-nightly/$f" "$ART_DIR/nightly/$f"
    done
    echo "campaign deterministic + resumable (telemetry ignored by diffs); nightly pinned"
}

stage_stats() {
    step "stats campaign (1000 seeds/cell): rerun + recompute byte-identity"
    ensure_built
    # The streaming reducer's contract at the scale it exists for:
    # scenarios/stats-quick.toml runs 500 seeds per cell x 2 protocols
    # in O(groups) memory, twice, and every statistics byte must match.
    # (Worker-count invariance of the same bytes is enforced by the
    # crates/bench integration tests, which pin the rayon thread limit.)
    ./target/release/experiments campaign --spec scenarios/stats-quick.toml \
        --no-progress --out "$ART_DIR/stats1" > /dev/null
    ./target/release/experiments campaign --spec scenarios/stats-quick.toml \
        --no-progress --out "$ART_DIR/stats2" > /dev/null
    diff -u "$ART_DIR/stats1/campaign-stats.md" "$ART_DIR/stats2/campaign-stats.md"
    diff -u "$ART_DIR/stats1/campaign.json" "$ART_DIR/stats2/campaign.json"
    # `experiments stats` over the checkpoints must replay the exact
    # fold: same campaign-stats.md bytes without simulating anything.
    ./target/release/experiments stats --spec scenarios/stats-quick.toml \
        --from "$ART_DIR/stats1" --out "$ART_DIR/stats-re" > /dev/null
    diff -u "$ART_DIR/stats1/campaign-stats.md" "$ART_DIR/stats-re/campaign-stats.md"
    echo "thousand-seed statistics byte-stable across rerun + recompute"
}

stage_service() {
    step "campaign service smoke (serve → submit → fetch → dedupe → graceful shutdown)"
    ensure_built
    # The job server must hand back exactly the bytes a direct CLI run
    # produces, dedupe a re-submitted spec, and exit 0 on SIGTERM with
    # nothing torn. The EXIT trap owns cleanup: if any check below
    # fails, the server is killed there instead of leaking.
    ./target/release/experiments campaign --spec scenarios/demo-quick.toml \
        --quick --no-progress --out "$ART_DIR/svc-ref" > /dev/null
    SRV_DATA="$ART_DIR/service-data"
    ./target/release/experiments serve --data "$SRV_DATA" --addr 127.0.0.1:0 \
        --jobs 1 --no-progress 2> "$ART_DIR/serve.log" &
    SRV_PID=$!
    for _ in $(seq 1 100); do [[ -s "$SRV_DATA/endpoint" ]] && break; sleep 0.1; done
    SRV_ADDR="$(cat "$SRV_DATA/endpoint")"
    JOB_ID="$(./target/release/experiments submit --server "$SRV_ADDR" \
        --spec scenarios/demo-quick.toml --quick --wait 2> /dev/null)"
    ./target/release/experiments fetch --server "$SRV_ADDR" --id "$JOB_ID" \
        --out "$ART_DIR/fetched" 2> /dev/null
    diff -u "$ART_DIR/svc-ref/campaign.json" "$ART_DIR/fetched/campaign.json"
    ./target/release/experiments submit --server "$SRV_ADDR" \
        --spec scenarios/demo-quick.toml --quick 2>&1 > /dev/null \
        | grep -q 'deduplicated' || { echo "dedupe FAILED"; exit 1; }
    kill -TERM "$SRV_PID"
    # A shutdown that never wakes the blocked accept must fail the
    # stage, not hang the job: a watchdog kills the server after 30 s.
    (
        trap 'kill "$nap" 2> /dev/null; exit 0' TERM
        sleep 30 &
        nap=$!
        wait "$nap"
        kill -KILL "$SRV_PID" 2> /dev/null
    ) &
    WATCHDOG=$!
    SRV_STATUS=0
    wait "$SRV_PID" || SRV_STATUS=$?
    kill "$WATCHDOG" 2> /dev/null || true
    wait "$WATCHDOG" 2> /dev/null || true
    SRV_PID=""
    if [[ "$SRV_STATUS" -ne 0 ]]; then
        echo "server did not exit 0 within 30 s of SIGTERM (status $SRV_STATUS)"
        exit 1
    fi
    echo "service smoke: byte-identical fetch + dedupe + graceful shutdown"
}

stage_benchmark() {
    step "benchmark harness tests + test-size workloads (pinned outcome digests)"
    # The benchmark is a package of its own (own workspace and lock
    # file), so the workspace stages above never build or test it.
    cargo test -q --manifest-path benchmark/Cargo.toml
}

run_stage() {
    local name="$1" fn start elapsed
    fn="stage_${name//-/_}"
    if ! declare -F "$fn" > /dev/null; then
        echo "error: unknown stage '$name' (try: ./ci.sh list)" >&2
        exit 2
    fi
    start=$SECONDS
    "$fn"
    elapsed=$((SECONDS - start))
    TIMING_NAMES+=("$name")
    TIMING_SECS+=("$elapsed")
}

report_timings() {
    [[ ${#TIMING_NAMES[@]} -gt 0 ]] || return 0
    {
        printf '\nstage durations:\n'
        for i in "${!TIMING_NAMES[@]}"; do
            printf '  %-14s %4ss\n' "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}"
        done
    } >&2
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        {
            printf '### ci.sh stage durations\n\n'
            printf '| stage | seconds |\n|---|---|\n'
            for i in "${!TIMING_NAMES[@]}"; do
                printf '| %s | %s |\n' "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}"
            done
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

TIMING_NAMES=()
TIMING_SECS=()

if [[ "${1:-}" == "list" ]]; then
    printf '%s\n' "${STAGES[@]}"
    exit 0
fi

if [[ $# -eq 0 ]]; then
    SELECTED=("${STAGES[@]}")
elif [[ "$1" == "quick" && $# -eq 1 ]]; then
    SELECTED=()
    for s in "${STAGES[@]}"; do [[ "$s" == "clippy" ]] || SELECTED+=("$s"); done
else
    SELECTED=("$@")
fi

for s in "${SELECTED[@]}"; do
    run_stage "$s"
done
report_timings

step "OK"
