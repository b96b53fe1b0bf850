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
#   test           cargo test --workspace: unit, integration and property
#                  tests, the allocation gate, and the byte contract
#                  (crates/bench/tests/pins.rs: the pinned --quick tables,
#                  trace hashes, scenario digests and campaign tables)
#   examples       run every example once (release, small arguments)
#   benchmark      benchmark/ harness tests + test-size workloads
#                  (outcome digests vs benchmark/expected.json)
#
# Per-stage wall-clock durations are printed to stderr at the end, and
# appended as a markdown table to $GITHUB_STEP_SUMMARY when that is set
# (i.e. under GitHub Actions).

set -euo pipefail
cd "$(dirname "$0")"

STAGES=(fmt clippy shellcheck build test examples benchmark)

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

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

stage_benchmark() {
    step "benchmark harness tests + test-size workloads (pinned outcome digests)"
    # The benchmark is a package of its own (own workspace and lock
    # file), so the workspace stages above never build or test it.
    cargo test -q --manifest-path benchmark/Cargo.toml
}

run_stage() {
    local name="$1" fn start elapsed
    fn="stage_$name"
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
