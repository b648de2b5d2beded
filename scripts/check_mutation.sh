#!/usr/bin/env bash
# Mutation checks: seeded concurrency bugs the loom suites must catch.
#
# The publish edge in crates/mq/src/queue.rs has two halves:
#   - the producer's `next`-pointer store must be `Release` (PUBLISH_ORD);
#   - the consumer's `next`-pointer load in `pop` must be `Acquire`
#     (CONSUME_ORD).
# Building with `--cfg hetero_weak_publish` / `--cfg hetero_weak_consume`
# weakens the respective side to `Relaxed`. In crates/nn/src/shared.rs a
# merger must own a stripe before adding into it; `--cfg
# hetero_unguarded_merge` lets it take every stripe without looking. This
# script asserts that:
#   1. the loom suites pass as written, and
#   2. each suite FAILS under its mutation the way the bug would show (a
#      data-race report for the queue, both two-merger models losing an
#      update for the shared model),
# i.e. the model checker genuinely guards the edge.
#
# Usage: scripts/check_mutation.sh   (from anywhere in the repo)
set -u
cd "$(dirname "$0")/.."

log="target/weak_ordering_test.log"
mkdir -p target

queue="-p hetero-mq --features loom --test loom_queue"
shared="-p hetero-nn --features loom --test loom_shared"

echo "[1/4] baseline: loom queue and shared-model suites must pass as written"
# shellcheck disable=SC2086
if ! { cargo test $queue -q && cargo test $shared -q; } >"$log" 2>&1; then
    echo "FAIL: baseline loom suite is red"
    tail -40 "$log"
    exit 1
fi

# check_mutation <cfg> <description> <step> <suite> <must-appear-in-log>...
check_mutation() {
    local cfg="$1" desc="$2" step="$3" suite="$4"
    shift 4
    echo "[$step/4] mutation: suite must FAIL with $desc"
    # shellcheck disable=SC2086
    if RUSTFLAGS="--cfg $cfg" cargo test $suite -q >"$log" 2>&1; then
        echo "FAIL: $desc mutation was NOT caught"
        exit 1
    fi
    for expect in "$@"; do
        if ! grep -q "$expect" "$log"; then
            echo "FAIL: suite failed under $cfg, but without '$expect'"
            tail -40 "$log"
            exit 1
        fi
    done
    echo "  caught: $desc ($*)"
}

check_mutation hetero_weak_publish "publish store weakened Release->Relaxed" 2 \
    "$queue" "data race"
check_mutation hetero_weak_consume "consume load weakened Acquire->Relaxed" 3 \
    "$queue" "data race"
# Both two-merger models must go red, each with its own lost update.
check_mutation hetero_unguarded_merge "mergers not owning their stripes" 4 \
    "$shared" "CAS merge lost an update" "stripe-owned merge lost an update"

echo "OK: all three seeded mutations are caught by the loom suites"
