#!/usr/bin/env bash
# Mutation checks: seeded concurrency bugs the loom suites must catch, and
# seeded bookkeeping bugs the coordinator's model test must catch.
#
# The publish edge in crates/mq/src/queue.rs has two halves:
#   - the producer's `next`-pointer store must be `Release` (PUBLISH_ORD);
#   - the consumer's `next`-pointer load in `pop` must be `Acquire`
#     (CONSUME_ORD).
# Building with `--cfg hetero_weak_publish` / `--cfg hetero_weak_consume`
# weakens the respective side to `Relaxed`. In crates/nn/src/shared.rs a
# merger must own a stripe before adding into it; `--cfg
# hetero_unguarded_merge` lets it take every stripe without looking. In
# crates/core/src/coordinator.rs a worker's window of dispatched ranges is a
# FIFO that a completion pops the front of and a retirement re-queues whole;
# `--cfg hetero_completed_pops_back` pops the newest range instead, `--cfg
# hetero_retire_front_only` forgets the parked ones. And `Coordinator::credit`
# is Algorithm 2's one `t·β` site; `--cfg hetero_credit_ignores_beta` credits
# every worker its raw update count. In crates/nn/src/sparse_input.rs a CSR
# backward scatters straight into the stored gradient after re-zeroing the
# rows its previous support left behind (every row after a dense gradient);
# `--cfg hetero_stale_l0_rows` skips that re-zero. In
# crates/core/src/engine_sim.rs a run of k simulated Hogwild lanes is one
# gradient applied at k times one lane's step; `--cfg hetero_wave_unscaled`
# drops the k. This script asserts that:
#   1. the suites pass as written, and
#   2. each suite FAILS under its mutation the way the bug would show (a
#      data-race report for the queue, both two-merger models losing an
#      update for the shared model, the coordinator disagreeing with its
#      reference model about the window / the re-queue / the credit, a
#      reused workspace's gradient differing from a fresh one's, a wave
#      differing from its lanes applied one by one),
# i.e. the checker genuinely guards the edge.
#
# Usage: scripts/check_mutation.sh   (from anywhere in the repo)
set -u
cd "$(dirname "$0")/.."

log="target/weak_ordering_test.log"
mkdir -p target

queue="-p hetero-mq --features loom --test loom_queue"
shared="-p hetero-nn --features loom --test loom_shared"
model="-p hetero-core --lib coordinator_matches_the_reference_model"
support="-p hetero-nn --lib sparse_input::tests"
wave="-p hetero-core --lib a_wave_is_the_sum_of_its_lanes"

echo "[1/9] baseline: loom queue, shared-model, coordinator-model, sparse-support and sim-wave suites must pass as written"
# shellcheck disable=SC2086
if ! { cargo test $queue -q && cargo test $shared -q && cargo test $model -q \
    && cargo test $support -q && cargo test $wave -q; } >"$log" 2>&1; then
    echo "FAIL: baseline suite is red"
    tail -40 "$log"
    exit 1
fi

# check_mutation <cfg> <description> <step> <suite> <must-appear-in-log>...
check_mutation() {
    local cfg="$1" desc="$2" step="$3" suite="$4"
    shift 4
    echo "[$step/9] mutation: suite must FAIL with $desc"
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

# A window served out of order trips the id check in `completed`; a
# retirement that forgets the parked range leaves the re-queue short of the
# reference's.
check_mutation hetero_completed_pops_back "completed popping the back of the window" 5 \
    "$model" "the front of its window was"
check_mutation hetero_retire_front_only "retire re-queueing only the front range" 6 \
    "$model" "co.requeue == &model.requeue"
# Crediting a CPU batch t instead of t·β leaves worker 0's count off the
# reference's (the model test runs at β = 0.5).
check_mutation hetero_credit_ignores_beta "a CPU batch credited without beta" 7 \
    "$model" "updates differ from the t"
# Stale rows survive into the next CSR gradient: after another CSR batch,
# and after a dense one.
check_mutation hetero_stale_l0_rows "a CSR backward not re-zeroing the previous support" 8 \
    "$support" "reused_workspace_rezeroes_previous_active_rows" \
    "dense_then_sparse_on_one_workspace_is_exact"
# A run applied at one lane's step moves the model less than its lanes did.
check_mutation hetero_wave_unscaled "a run of simulated lanes applied without its lane count" 9 \
    "$wave" "wave differs from its lanes"

echo "OK: all eight seeded mutations are caught"
