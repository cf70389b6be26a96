#!/bin/sh
# cluster_smoke.sh DIR — end-to-end smoke of the sharded serving
# cluster.
#
# Generates a dataset, starts two block-partitioned ipscope-serve
# shards plus an ipscope-router in front of them, and asserts:
#
#   1. the routed /v1/summary is byte-identical (modulo the epoch
#      field) to a single-node `ipscope-serve -dataset ... -dump-summary`
#      over the same dataset — the cross-shard merge is exact;
#   2. point lookups owned by each shard answer 200 through the router;
#   3. after killing one shard, reads of its range the router has not
#      cached answer 503 (the block it has cached keeps answering 200)
#      while the other shard's blocks keep answering 200, and the
#      router's /v1/healthz degrades to status 503.
#
# Expects $DIR/ipscope-gen, $DIR/ipscope-serve and $DIR/ipscope-router
# to be prebuilt (the Makefile's cluster-smoke target does this).
set -eu

dir=${1:?usage: cluster_smoke.sh DIR}
shard0_addr=127.0.0.1:19471
shard1_addr=127.0.0.1:19472
router_addr=127.0.0.1:19473
base="http://$router_addr"
gen_flags="-seed 5 -ases 24 -blocks-per-as 6 -days 56"

fetch() { curl -fsS --max-time 5 "$1"; }
status_of() { curl -s -o /dev/null -w '%{http_code}' --max-time 5 "$1"; }

"$dir/ipscope-gen" $gen_flags -dataset "$dir/cluster.obs"

"$dir/ipscope-serve" -dataset "$dir/cluster.obs" -shard-index 0 -shard-count 2 \
    -listen "$shard0_addr" 2>"$dir/shard0.log" &
shard0_pid=$!
"$dir/ipscope-serve" -dataset "$dir/cluster.obs" -shard-index 1 -shard-count 2 \
    -listen "$shard1_addr" 2>"$dir/shard1.log" &
shard1_pid=$!
trap 'kill "$shard0_pid" "$shard1_pid" "${router_pid:-}" 2>/dev/null || true' EXIT INT TERM

for shard in "$shard0_addr" "$shard1_addr"; do
    i=0
    until fetch "http://$shard/v1/healthz" >/dev/null 2>&1; do
        i=$((i+1))
        [ "$i" -le 100 ] || { echo "cluster-smoke: shard $shard never came up"; cat "$dir"/shard*.log; exit 1; }
        sleep 0.2
    done
done

"$dir/ipscope-router" -shards "http://$shard0_addr,http://$shard1_addr" \
    -listen "$router_addr" 2>"$dir/router.log" &
router_pid=$!
i=0
until fetch "$base/v1/healthz" >/dev/null 2>&1; do
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "cluster-smoke: router never came up"; cat "$dir/router.log"; exit 1; }
    sleep 0.2
done

# 0. Healthz reports per-range rollups (R=1: one range per shard).
fetch "$base/v1/healthz" | grep -q '"rangeStates"' \
    || { echo "cluster-smoke: healthz lacks rangeStates"; fetch "$base/v1/healthz"; exit 1; }
echo "cluster-smoke: healthz reports per-range rangeStates"

# 1. Routed summary must byte-equal the single-node batch summary.
"$dir/ipscope-serve" -dataset "$dir/cluster.obs" -dump-summary >"$dir/batch-summary.json" 2>/dev/null
fetch "$base/v1/summary" | sed 's/"epoch":[0-9]*,//' >"$dir/routed-summary.json"
if ! cmp -s "$dir/routed-summary.json" "$dir/batch-summary.json"; then
    echo "cluster-smoke: routed /v1/summary differs from single-node dump-summary"
    diff "$dir/routed-summary.json" "$dir/batch-summary.json" || true
    exit 1
fi
echo "cluster-smoke: routed /v1/summary byte-equals single-node summary"

# 2. A block owned by each shard answers through the router.
b0=$(fetch "http://$shard0_addr/v1/cluster/info" | sed -n 's/.*"firstActive":"\([^"]*\)".*/\1/p')
b1=$(fetch "http://$shard1_addr/v1/cluster/info" | sed -n 's/.*"firstActive":"\([^"]*\)".*/\1/p')
[ -n "$b0" ] && [ -n "$b1" ] || { echo "cluster-smoke: a shard reports no active blocks"; exit 1; }
fetch "$base/v1/block/$b0" >/dev/null
fetch "$base/v1/block/$b1" >/dev/null
echo "cluster-smoke: routed lookups for $b0 (shard 0) and $b1 (shard 1) answered 200"

# 3. Degraded mode: kill shard 1; its blocks 503, shard 0 keeps serving.
kill "$shard1_pid"
wait "$shard1_pid" 2>/dev/null || true

# The router answered $b1 above and cached it: a hit is exact bytes and
# keeps answering whatever the shard's health. A read of the dead
# shard's range it has not cached is what degrades.
code=$(status_of "$base/v1/block/$b1")
[ "$code" = "200" ] || { echo "cluster-smoke: dead shard's cached block answered $code, want 200"; exit 1; }
code=$(status_of "$base/v1/addr/${b1%/24}")
[ "$code" = "503" ] || { echo "cluster-smoke: dead shard's uncached address answered $code, want 503"; exit 1; }
code=$(status_of "$base/v1/block/$b0")
[ "$code" = "200" ] || { echo "cluster-smoke: live shard's block answered $code, want 200"; exit 1; }
code=$(status_of "$base/v1/healthz")
[ "$code" = "503" ] || { echo "cluster-smoke: degraded healthz answered $code, want 503"; exit 1; }
curl -s --max-time 5 "$base/v1/healthz" | grep -q '"status":"degraded"' \
    || { echo "cluster-smoke: healthz body does not report degraded"; exit 1; }

echo "cluster-smoke: one-shard-down degrades only its blocks; healthz reports degraded"
