#!/bin/sh
# snapshot_smoke.sh DIR — end-to-end smoke of persistent index
# snapshots.
#
# Phase 1 (batch): generate a dataset, build once with -snapshot-save,
# then assert the saved file is self-describing and exact:
#
#   1. ipscope-snapshot -verify accepts it (decode∘encode fixed point);
#   2. ipscope-snapshot -summary and a -snapshot-load -dump-summary are
#      both byte-identical to the building process's own summary.
#
# (Every endpoint of a node started from a saved snapshot is checked
# against its index in-process: internal/node's TestServeBatch.)
#
# Phase 2 (live restart): two block-partitioned shards follow a paced
# dataset file, checkpointing every epoch into -snapshot-dir. Shard 1 is
# kill -9'd mid-stream and restarted from its checkpoint directory; it
# must log "resumed from snapshot" (no full replay), catch back up, and
# after end of stream the routed cluster summary must byte-equal
# (modulo the epoch field) a batch -dump-summary over the same dataset.
# Retention must hold: at most -snapshot-keep checkpoints per shard.
name=snapshot-smoke
. "$(dirname "$0")/lib.sh"

shard0_addr=127.0.0.1:19481
shard1_addr=127.0.0.1:19482
router_addr=127.0.0.1:19483
base="http://$router_addr"

# --- Phase 1: batch save → verify → load → serve ---------------------

"$bin/ipscope-gen" $gen_flags -dataset "$dir/snap.obs"
"$bin/ipscope-serve" -dataset "$dir/snap.obs" -snapshot-save "$dir/snap.ipsnap" \
    -dump-summary >"$dir/build-summary.json" 2>/dev/null

"$bin/ipscope-snapshot" -verify "$dir/snap.ipsnap"

"$bin/ipscope-snapshot" -summary "$dir/snap.ipsnap" >"$dir/tool-summary.json"
cmp "$dir/tool-summary.json" "$dir/build-summary.json" \
    || fail "ipscope-snapshot -summary differs from the building process"

"$bin/ipscope-serve" -snapshot-load "$dir/snap.ipsnap" \
    -dump-summary >"$dir/load-summary.json" 2>/dev/null
cmp "$dir/load-summary.json" "$dir/build-summary.json" \
    || fail "-snapshot-load summary differs from the build that saved it"

echo "$name: batch save/load round-trip byte-equal"

# --- Phase 2: live shards, kill -9, restart from -snapshot-dir -------

"$bin/ipscope-gen" $gen_flags -dataset "$dir/live.obs" -day-delay 60ms 2>"$dir/gen.log" &
gen_pid=$!

start_shard() { # index addr
    "$bin/ipscope-serve" -follow "$dir/live.obs" -follow-poll 20ms \
        -shard-index "$1" -shard-count 2 -snapshot-dir "$dir/snapdir$1" \
        -listen "$2" 2>>"$dir/shard$1.log" &
}
start_shard 0 "$shard0_addr"; shard0_pid=$!
start_shard 1 "$shard1_addr"; shard1_pid=$!
trap 'kill "$shard0_pid" "$shard1_pid" "${router_pid:-}" "$gen_pid" 2>/dev/null || true' EXIT INT TERM

wait_http "$shard0_addr" "shard 0" "$dir/shard0.log"
wait_http "$shard1_addr" "shard 1" "$dir/shard1.log"

"$bin/ipscope-router" -shards "http://$shard0_addr,http://$shard1_addr" \
    -listen "$router_addr" 2>"$dir/router.log" &
router_pid=$!
wait_http "$router_addr" "router" "$dir/router.log"

# Let shard 1 publish (and checkpoint) a few epochs, then kill it hard
# mid-stream — no graceful shutdown, the checkpoint on disk is all the
# restart gets.
poll 200 0.1 "shard 1 never reached epoch 3" epoch_reached "$shard1_addr" 3 \
    || { cat "$dir/shard1.log"; exit 1; }
kill -9 "$shard1_pid" 2>/dev/null
wait "$shard1_pid" 2>/dev/null || true
echo "$name: shard 1 killed mid-stream"

start_shard 1 "$shard1_addr"; shard1_pid=$!
wait_http "$shard1_addr" "restarted shard 1" "$dir/shard1.log"
grep -q "resumed from snapshot" "$dir/shard1.log" \
    || { cat "$dir/shard1.log"; fail "restarted shard 1 did not resume from its checkpoint"; }
echo "$name: shard 1 resumed: $(grep 'resumed from snapshot' "$dir/shard1.log" | tail -1)"

wait "$gen_pid"

# After end of stream the restarted cluster must converge on the batch
# summary over the same dataset — the restart lost nothing.
"$bin/ipscope-serve" -dataset "$dir/live.obs" -dump-summary >"$dir/batch-summary.json" 2>/dev/null
poll 50 0.2 "routed summary never converged on the batch summary after restart" \
    summary_is "$base" "$dir/batch-summary.json" "$dir/routed-summary.json" || {
    diff "$dir/routed-summary.json" "$dir/batch-summary.json" || true
    exit 1
}
echo "$name: routed /v1/summary byte-equals batch dump-summary after kill -9 restart"

# Retention: each shard's checkpoint directory is bounded by the default
# -snapshot-keep (3), and the newest checkpoint is itself verifiable.
for s in 0 1; do
    n=$(ls "$dir/snapdir$s"/snap-*.ipsnap | wc -l)
    [ "$n" -ge 1 ] && [ "$n" -le 3 ] || fail "shard $s retains $n checkpoints, want 1..3"
done
newest=$(ls "$dir/snapdir0"/snap-*.ipsnap | sort | tail -1)
"$bin/ipscope-snapshot" -verify "$newest"
echo "$name: checkpoint retention bounded; newest checkpoint verifies"
