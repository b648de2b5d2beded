#!/usr/bin/env bash
# CLI surface smoke for `hetero-train`: every engine × algorithm the usage
# text advertises must exit 0 and print JSON that parses — and so must the
# `--sparse` path (the one whose start-up runs a second thread) on both
# engines; what it does not advertise must be refused with exit 2 and a
# message naming what is accepted. Nothing else in CI runs the binary
# outside the kill-and-resume job, which is how usage text, parser and
# `AlgorithmKind` once drifted apart.
#
# Usage: scripts/cli_smoke.sh   (from anywhere in the repo)
set -u -o pipefail
cd "$(dirname "$0")/.."

cargo build --release --bin hetero-train || exit 1
bin=./target/release/hetero-train
common=(--scale 0.001 --width 16 --budget 0.05 --json)
fail=0

# expect_refused <stderr needle> <args...>: exit 2, needle on stderr.
expect_refused() {
    local needle="$1" err code
    shift
    err=$("$bin" "$@" "${common[@]}" 2>&1 >/dev/null)
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
        expect_json --engine "$engine" --algorithm "$algo" --dataset real-sim --sparse
    done
done
expect_refused "expected sim|threads" --engine ps
expect_refused "expected hogwild-cpu|minibatch-gpu|tensorflow|cpu-gpu|adaptive" --algorithm omnivore

[ "$fail" -eq 0 ] && echo "OK: hetero-train CLI surface"
exit "$fail"
