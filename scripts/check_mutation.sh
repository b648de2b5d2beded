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
# every worker its raw update count. In crates/core/src/adaptive.rs a worker
# behind every other one gets a smaller batch and one ahead a larger, which
# is what bounds the update gap; `--cfg hetero_resize_inverted` swaps the
# two. `Coordinator::run` tops every window up after a fault, so a retired
# worker's ranges reach an idle survivor; `--cfg hetero_no_top_up_on_fault`
# skips that. In crates/nn/src/sparse_input.rs a CSR
# backward scatters straight into the stored gradient after re-zeroing the
# rows its previous support left behind, and crates/nn/src/workspace.rs
# zeroes every row a dense gradient left before a CSR one; `--cfg
# hetero_stale_l0_rows` skips both. In
# crates/core/src/engine_sim.rs a run of k simulated Hogwild lanes is one
# gradient applied at k times one lane's step; `--cfg hetero_wave_unscaled`
# drops the k. In crates/tensor/src/simd.rs the AVX2 draw of the initial
# weights' normal stream rounds every polynomial step twice, as its portable
# twin does; `--cfg hetero_init_fma` fuses them with `_mm256_fmadd_ps`. In
# crates/core/src/coordinator.rs the run skeleton records the initial point
# of a fresh run only — a resumed run's curve came back with its
# checkpoint; `--cfg hetero_point_on_resume` records one on a resumed run
# too. In crates/data/src/dataset.rs a CSR row densified into a reused batch
# buffer first clears the row; `--cfg hetero_densify_stale` skips that, so
# a row keeps the previous batch's entries. In
# crates/core/src/engine_threads.rs a GPU step reserves its device bytes on
# the device ledger before it runs, which is where an injected OOM reaches
# it; `--cfg hetero_gpu_no_reserve` skips the reservation. In
# crates/core/src/lane.rs a run trains CSR rows when its data is below the
# dense/CSR crossover; `--cfg hetero_format_ignores_density` trains every
# run dense. In crates/data/src/synth.rs a sparse row is walked by geometric
# gaps, every feature independently active; `--cfg hetero_synth_gap_skips_one`
# steps past the feature after each active one. In crates/core/src/lane.rs a
# Hogbatch CPU batch is shared out to ⌈len/sub⌉ lanes, the last one short;
# `--cfg hetero_split_drops_short_lane` counts ⌊len/sub⌋, so the short lane
# never trains. In crates/nn/src/sparse_input.rs a threaded CSR step reads
# its batch's support a block of layer-0 rows at a time, beside one read of
# every stripe from layer 0's bias on; `--cfg
# hetero_support_read_skips_tail` skips that tail read. The same step
# scatters and writes each block of its layer-0 gradient in turn, the last
# one partial; `--cfg hetero_l0_block_skips_last` never writes that
# partial block. Its forward — every CSR forward, the simulator's and the
# evaluator's too — adds layer 0 in the same blocks; `--cfg
# hetero_l0_forward_skips_last` drops that partial block. In
# crates/tensor/src/simd.rs the AVX-512 GEMM tile stores an edge tile's
# `nr` columns through a lane mask; `--cfg hetero_avx512_edge_mask` drops
# its last column (checked only on a host with AVX-512, the one place the
# tile runs). This script asserts that:
#   1. the suites pass as written, and
#   2. each suite FAILS under its mutation the way the bug would show (a
#      data-race report for the queue, both two-merger models losing an
#      update for the shared model, the coordinator disagreeing with its
#      reference model about the window / the re-queue / the credit / the
#      batch size, a scripted run ending with ranges never trained, a
#      gradient at a read or a reused workspace's differing from a fresh
#      two-buffer one's, a wave differing from its lanes applied one by
#      one, the two dispatch levels
#      drawing different initial weights, a resumed simulation's loss curve
#      differing from the uninterrupted one's, a dense run's loss curve
#      depending on whether its data is stored dense or as CSR, an
#      injected GPU OOM that never halves a batch, sparse data trained
#      dense, generated data with no two neighbouring features active, lane
#      shares that leave the end of a batch untrained, a threaded CSR step
#      differing from the full-snapshot step — its tail unread, or its last
#      partial block unwritten — a forward-only eval differing from the
#      row form's, a GEMM at the AVX-512 level diverging from the reference
#      at a tile edge),
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
run="-p hetero-core --lib coordinator::tests::run_"
support="-p hetero-nn --lib sparse_input::tests"
wave="-p hetero-core --lib a_wave_is_the_sum_of_its_lanes"
init="-p hetero-tensor --test proptest_simd normal_fill"
resume="-p hetero-core --lib checkpointed_run_is_untouched_and_resume_is_bit_identical"
store="-p hetero-core --lib training_does_not_depend_on_the_store"
oom="-p hetero-core --test fault_tolerance oom_retry_halves_batch_and_clamps_controller"
format="-p hetero-core --lib the_format_follows_the_density"
synth="-p hetero-data --lib synth::tests"
split="-p hetero-core --lib lane_split_shares_tile_the_batch"
read="-p hetero-core --lib a_sparse_step_on_the_shared_model_is_bit_identical_to_a_full_snapshot_step"
block="-p hetero-nn --lib sparse_input::csr_step"
eval="-p hetero-nn --lib sparse_input::csr_step"
tile="-p hetero-tensor --test proptest_simd every_tile_boundary_matches_reference"

echo "[1/22] baseline: loom queue, shared-model, coordinator-model, event-loop, sparse-support, sim-wave, init-stream, sim-resume, store, GPU-OOM, input-format, generator-law, lane-split, CSR-step, block-edge, block-eval and tile-boundary suites must pass as written"
# shellcheck disable=SC2086
if ! { cargo test $queue -q && cargo test $shared -q && cargo test $model -q \
    && cargo test $run -q && cargo test $support -q && cargo test $wave -q \
    && cargo test $init -q && cargo test $resume -q && cargo test $store -q \
    && cargo test $oom -q && cargo test $format -q && cargo test $synth -q \
    && cargo test $split -q && cargo test $read -q && cargo test $block -q \
    && cargo test $eval -q && cargo test $tile -q; } >"$log" 2>&1; then
    echo "FAIL: baseline suite is red"
    tail -40 "$log"
    exit 1
fi

# check_mutation <cfg> <description> <step> <suite> <must-appear-in-log>...
check_mutation() {
    local cfg="$1" desc="$2" step="$3" suite="$4"
    shift 4
    echo "[$step/22] mutation: suite must FAIL with $desc"
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
# A resize in the wrong direction hands out a batch Algorithm 2 did not pick.
check_mutation hetero_resize_inverted "Algorithm 2's resize inverted" 8 \
    "$model" "differs from Algorithm 2"
# A fault that tops nobody up strands the dead worker's ranges once every
# survivor has run out of work.
check_mutation hetero_no_top_up_on_fault "a retired worker's ranges left for the next report" 9 \
    "$run" "served ranges never trained" "run_hands_a_dead_workers_range_to_an_idle_survivor"
# Stale rows survive into the next CSR gradient: after another CSR batch
# or a dense one.
check_mutation hetero_stale_l0_rows "a CSR gradient not zeroing the previous support" 10 \
    "$support" "reused_workspace_rezeroes_previous_active_rows" \
    "dense_then_sparse_on_one_workspace_is_exact"
# A run applied at one lane's step moves the model less than its lanes did.
check_mutation hetero_wave_unscaled "a run of simulated lanes applied without its lane count" 11 \
    "$wave" "wave differs from its lanes"
# A fused AVX2 polynomial step rounds once where the portable twin rounds
# twice, so the two levels stop drawing the same initial weights.
check_mutation hetero_init_fma "an AVX2 normal draw fusing its polynomial steps" 12 \
    "$init" "normal_fill_bit_exact_across_levels"
# An initial point recorded on a resumed run is one point the uninterrupted
# run never had.
check_mutation hetero_point_on_resume "an initial point recorded on a resumed run" 13 \
    "$resume" "checkpointed_run_is_untouched_and_resume_is_bit_identical"
# A densified CSR row that keeps the previous batch's entries trains a
# dense run on other data than the same rows stored dense.
check_mutation hetero_densify_stale "a CSR row densified into an uncleared buffer" 14 \
    "$store" "training_does_not_depend_on_the_store" "sparse run: false"
# A GPU step that reserves nothing never meets the injected OOM, so no batch
# is halved and nothing is re-queued.
check_mutation hetero_gpu_no_reserve "a GPU step skipping its device reservation" 15 \
    "$oom" "oom_retry_halves_batch_and_clamps_controller" "no requeue recorded"
# A run that ignores its data's density trains w8a-like data dense, so the
# dense-stored 4 % dataset makes no start-up CSR copy.
check_mutation hetero_format_ignores_density "every run trained dense whatever its density" 16 \
    "$format" "the_format_follows_the_density" "one start-up copy"
# A gap walk that steps past the feature after every active one never
# stores two neighbouring features, far below the density² pair rate.
check_mutation hetero_synth_gap_skips_one "a gap walk skipping the feature after each active one" 17 \
    "$synth" "adjacent_active_pairs_are_independent" "adjacent active pairs"
# A split that drops the short last lane leaves the end of the batch
# untrained, so the shares stop tiling it.
check_mutation hetero_split_drops_short_lane "a lane split dropping the short last lane" 18 \
    "$split" "lane_split_shares_tile_the_batch" "shares do not tile"

# A CSR step that skips its tail read — layer 0's bias and the later
# layers — trains on zeros there, so its update differs from the
# full-snapshot step's.
check_mutation hetero_support_read_skips_tail "a CSR step skipping its tail read" 19 \
    "$read" "a_sparse_step_on_the_shared_model_is_bit_identical_to_a_full_snapshot_step" "features, rows"

# A CSR step that never writes its last partial block of layer-0 gradient
# rows leaves those parameters where the full-snapshot step moves them.
check_mutation hetero_l0_block_skips_last "a CSR step never writing its last partial block" 20 \
    "$block" "a_csr_step_is_the_step_it_replaces_at_every_block_edge" "parameters"

# A forward that drops its last partial block of support rows leaves those
# features out of the pre-activations, so a forward-only eval stops being
# the row form.
check_mutation hetero_l0_forward_skips_last "a CSR step's forward dropping its last partial block" 21 \
    "$eval" "a_real_sim_shaped_batch_steps_and_scores_bit_identically" "eval, batch 0, call 0: layer 0 differs"

# An edge tile that drops its last column leaves it NaN (β = 0) or stale,
# so the walk's AVX-512 run stops matching the reference there.
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    check_mutation hetero_avx512_edge_mask "an AVX-512 GEMM tile dropping its last edge column" 22 \
        "$tile" "every_tile_boundary_matches_reference" "diverged at Avx512"
    echo "OK: all twenty-one seeded mutations are caught"
else
    echo "[22/22] skipped: this host has no AVX-512, where the zmm tile never runs"
    echo "OK: all twenty seeded mutations that can run on this host are caught"
fi
