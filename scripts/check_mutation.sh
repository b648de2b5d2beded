#!/usr/bin/env bash
# Mutation checks for the queue's publish/consume orderings.
#
# The publish edge in crates/mq/src/queue.rs has two halves:
#   - the producer's `next`-pointer store must be `Release` (PUBLISH_ORD);
#   - the consumer's `next`-pointer load in `pop` must be `Acquire`
#     (CONSUME_ORD).
# Building with `--cfg hetero_weak_publish` / `--cfg hetero_weak_consume`
# weakens the respective side to `Relaxed` — seeded bugs. This script asserts
# that:
#   1. the loom suite passes with the correct orderings, and
#   2. the loom suite FAILS (with a data-race report) under each mutation,
# i.e. the model checker genuinely guards both halves of the edge.
#
# Usage: scripts/check_mutation.sh   (from anywhere in the repo)
set -u
cd "$(dirname "$0")/.."

log="target/weak_ordering_test.log"
mkdir -p target

echo "[1/3] baseline: loom queue suite must pass with correct orderings"
if ! cargo test -p hetero-mq --features loom --test loom_queue -q >"$log" 2>&1; then
    echo "FAIL: baseline loom suite is red"
    tail -40 "$log"
    exit 1
fi

check_mutation() {
    local cfg="$1" desc="$2" step="$3"
    echo "[$step/3] mutation: suite must FAIL with $desc"
    if RUSTFLAGS="--cfg $cfg" \
        cargo test -p hetero-mq --features loom --test loom_queue -q >"$log" 2>&1; then
        echo "FAIL: $desc mutation was NOT caught"
        exit 1
    fi
    if ! grep -q "data race" "$log"; then
        echo "FAIL: suite failed under $cfg, but not with a data-race report"
        tail -40 "$log"
        exit 1
    fi
    echo "  caught: $desc (data race reported)"
}

check_mutation hetero_weak_publish "publish store weakened Release->Relaxed" 2
check_mutation hetero_weak_consume "consume load weakened Acquire->Relaxed" 3

echo "OK: both queue ordering mutations are caught by the loom suite"
