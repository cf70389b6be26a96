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
# dataset file, checkpointing every epoch into -snapshot-dir (a base
# image now and then, a journal record otherwise). Shard 1 is kill -9'd
# mid-stream, while its last durable epoch is a journal record, and
# restarted from its checkpoint directory; it must log "resumed from
# snapshot" at exactly the epoch ipscope-snapshot DIR says the directory
# holds (no full replay, nothing durable lost), catch back up, and after
# end of stream the routed cluster summary must byte-equal (modulo the
# epoch field) a batch -dump-summary over the same dataset. Retention
# must hold: at most -snapshot-keep base images per shard, and the whole
# directory verifies.
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
# mid-stream — no graceful shutdown, the directory on disk is all the
# restart gets. It is frozen first, so that the kill provably lands after
# a journaled epoch: the directory's last line names the epoch a restart
# resumes at and the base image it starts from.
resume_line() { "$bin/ipscope-snapshot" "$dir/snapdir1" | tail -1; }
journaled() { # the durable epoch is past its base image's: a journal record
    kill -STOP "$shard1_pid"
    _line=$(resume_line)
    _epoch=$(echo "$_line" | sed -n 's/.*resumes at epoch \([0-9]*\) .*/\1/p')
    _base=$(echo "$_line" | sed -n 's/.*snap-0*\([0-9]*\)\.ipsnap.*/\1/p')
    [ -n "$_epoch" ] && [ "$_epoch" -ge 3 ] && [ "$_epoch" -gt "$_base" ] && return 0
    kill -CONT "$shard1_pid"
    return 1
}
poll 200 0.1 "shard 1 never had a journaled epoch >= 3 durable" journaled \
    || { cat "$dir/shard1.log"; exit 1; }
kill -9 "$shard1_pid" 2>/dev/null
wait "$shard1_pid" 2>/dev/null || true
durable=$(resume_line | sed -n 's/.*resumes at epoch \([0-9]*\) .*/\1/p')
echo "$name: shard 1 killed mid-stream; its directory holds epoch $durable: $(resume_line)"

start_shard 1 "$shard1_addr"; shard1_pid=$!
wait_http "$shard1_addr" "restarted shard 1" "$dir/shard1.log"
grep -q "resumed from snapshot .*: epoch $durable," "$dir/shard1.log" \
    || { cat "$dir/shard1.log"; fail "restarted shard 1 did not resume at the durable epoch $durable"; }
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
# -snapshot-keep (3) base images, and every image and journal in it
# verifies.
for s in 0 1; do
    n=$(ls "$dir/snapdir$s"/snap-*.ipsnap | wc -l)
    [ "$n" -ge 1 ] && [ "$n" -le 3 ] || fail "shard $s retains $n base images, want 1..3"
    "$bin/ipscope-snapshot" -verify "$dir/snapdir$s" >"$dir/verify$s.txt" \
        || { cat "$dir/verify$s.txt"; fail "shard $s's checkpoint directory does not verify"; }
done
echo "$name: checkpoint retention bounded; both directories verify: $(tail -2 "$dir/verify1.txt" | head -1)"
