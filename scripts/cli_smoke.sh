#!/usr/bin/env bash
# CLI surface smoke for `hetero-train`: every engine × algorithm the usage
# text advertises must exit 0 and print JSON that parses — and so must a
# real-sim run on both engines, whose ~0.25 %-dense data is below the
# dense/CSR crossover and so trains CSR rows, one real-sim run at the
# paper's full width on each engine and one 2 %-scale w8a sim run, all
# timed; what it does not advertise must be refused with exit 2 and a
# message naming what is accepted. Nothing else in CI runs the binary
# outside the kill-and-resume job, which is how usage text, parser and
# `AlgorithmKind` once drifted apart.
#
# Usage: scripts/cli_smoke.sh   (from anywhere in the repo)
set -u -o pipefail
cd "$(dirname "$0")/.."

cargo build --release -p hetero-sgd -p hetero-bench \
    --bin hetero-train --bin table2_datasets || exit 1
bin=./target/release/hetero-train
common=(--scale 0.001 --width 16 --budget 0.05 --json)
fail=0

# expect_refused <stderr needle> <args...>: exit 2, needle on stderr. The
# args come after `common`, so a bad `--scale` or `--budget` is the one
# the binary reads.
expect_refused() {
    local needle="$1" err code
    shift
    err=$("$bin" "${common[@]}" "$@" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ] || ! grep -qF -- "$needle" <<<"$err"; then
        echo "FAIL: '$*' should exit 2 naming '$needle' (exit $code): $err"
        fail=1
    fi
}

# expect_json <args...>: exit 0, stdout parses as JSON.
expect_json() {
    if ! "$bin" "$@" "${common[@]}" 2>/dev/null | python3 -m json.tool >/dev/null; then
        echo "FAIL: '$*' did not exit 0 with valid JSON"
        fail=1
    fi
}

for engine in sim threads; do
    for algo in hogwild-cpu minibatch-gpu tensorflow cpu-gpu adaptive; do
        if [ "$engine/$algo" = threads/tensorflow ]; then
            expect_refused "simulation-only" --engine threads --algorithm tensorflow
        else
            expect_json --engine "$engine" --algorithm "$algo"
        fi
    done
    for algo in cpu-gpu hogwild-cpu; do
        expect_json --engine "$engine" --algorithm "$algo" --dataset real-sim
    done
done
# real-sim at the paper's full shape (72 309 × 20 958, 0.25 % dense), with
# its own arguments: the stand-in is drawn in O(stored entries), so this
# takes about 0.4 s on a 2-vCPU host; drawn per (row, feature) it took
# 4.4 s there, so `timeout 3` fails the step if the draw slows back down.
# Its stderr stays in the log.
if ! timeout 3 "$bin" --dataset real-sim --scale 1 --engine sim --budget 0.001 --json \
    | python3 -m json.tool >/dev/null; then
    echo "FAIL: full-width real-sim did not exit 0 with valid JSON within 3 s"
    fail=1
fi
# The same full-width real-sim on the threaded engine: the one CI run of
# the evaluator's tiled read of layer 0 at the width it exists for (20 958
# features), scoring the shared model where it lives. About 0.6 s on a
# 2-vCPU host; when the coordinator let evals slower than their interval
# follow each other without reading the workers' reports, this run
# evaluated for minutes, so `timeout 5` fails the step if that comes back.
if ! timeout 5 "$bin" --dataset real-sim --scale 1 --engine threads --budget 0.05 --json \
    | python3 -m json.tool >/dev/null; then
    echo "FAIL: full-width threaded real-sim did not exit 0 with valid JSON within 5 s"
    fail=1
fi
# w8a on the simulator at 2 % scale, with its own arguments: every step
# and eval runs on the simulator's one thread, about 1.2 s on a 2-vCPU host
# with the sim modelling that host's 2 lanes and the GPU batch capped at an
# eighth of the 4 096-row task (1.3–1.7 s when it could grow to the whole
# 995-row dataset). With each GEMM
# fanned out to threads spawned per call it took 6.6–12 s there, so
# `timeout 6` fails the step if a per-call fan-out comes back. Its stderr
# stays in the log.
if ! timeout 6 "$bin" --engine sim --dataset w8a --scale 0.02 --budget 0.2 --json \
    | python3 -m json.tool >/dev/null; then
    echo "FAIL: sim w8a at 2 % scale did not exit 0 with valid JSON within 6 s"
    fail=1
fi
# A GPU batch below the lower threshold's floor of 16 is both thresholds.
expect_json --gpu-batch 8
# Both engines run on the same CPU lanes, and the stderr header names them.
lanes() { "$bin" "$@" "${common[@]}" 2>&1 >/dev/null | grep -o '[0-9]* CPU lanes'; }
sim_lanes=$(lanes --engine sim)
threads_lanes=$(lanes --engine threads)
if [ -z "$sim_lanes" ] || [ "$sim_lanes" != "$threads_lanes" ]; then
    echo "FAIL: sim ran on '$sim_lanes', threads on '$threads_lanes'"
    fail=1
fi
expect_refused "expected sim|threads" --engine ps
# A scale outside (0, 1] is refused, not clamped; a NaN or infinite
# budget, which never ends a sim run, is refused by the config check.
for scale in nan 0 5; do
    expect_refused "scale must be in (0, 1]" --scale "$scale"
done
for budget in nan inf; do
    expect_refused "time budget" --budget "$budget"
done
# The CLI and the figure harness train one task: the CLI's header starts
# with the task line the harness prints for the same dataset and scale.
task_line=$(env -u HETERO_WIDTH HETERO_SCALE=0.001 ./target/release/table2_datasets 2>&1 >/dev/null \
    | grep '^w8a: ')
header=$("$bin" --dataset w8a --scale 0.001 --budget 0.001 --json 2>&1 >/dev/null | head -n 1)
if [ -z "$task_line" ] || [[ "$header" != "$task_line |"* ]]; then
    echo "FAIL: CLI header '$header' does not start with the harness's task line '$task_line'"
    fail=1
fi
# The harness refuses a bad scale the way the CLI does.
err=$(HETERO_SCALE=nan ./target/release/table2_datasets 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 2 ] || ! grep -qF "HETERO_SCALE: scale must be in (0, 1]" <<<"$err"; then
    echo "FAIL: HETERO_SCALE=nan should exit 2 naming the scale (exit $code): $err"
    fail=1
fi
expect_refused "expected hogwild-cpu|minibatch-gpu|tensorflow|cpu-gpu|adaptive" --algorithm omnivore

[ "$fail" -eq 0 ] && echo "OK: hetero-train CLI surface"
exit "$fail"
