#!/bin/sh
# cluster_smoke.sh DIR [http|rpc] — end-to-end smoke of the sharded
# serving cluster, over either shard transport.
#
# Generates a dataset, starts two block-partitioned ipscope-serve
# shards plus an ipscope-router in front of them, and asserts:
#
#   0. with rpc: the router upgraded every shard connection (visible as
#      "transport":"rpc" per shard in the router's /v1/healthz);
#   1. the routed /v1/summary is byte-identical (modulo the epoch
#      field) to a single-node `ipscope-serve -dataset ... -dump-summary`
#      over the same dataset — the cross-shard merge is exact;
#   2. point lookups owned by each shard answer 200 through the router;
#   3. after killing one shard, reads of its range the router has not
#      cached answer 503 (the block it has cached keeps answering 200)
#      while the other shard's blocks keep answering 200, and the
#      router's /v1/healthz degrades to status 503 — identically over
#      both transports.
transport=${2:-http}
name=cluster-smoke serve_flags="" router_flags=""
if [ "$transport" = rpc ]; then
    # The router learns each shard's RPC address from its cluster info,
    # so an ephemeral port will do.
    name=rpc-smoke serve_flags="-rpc-listen 127.0.0.1:0" router_flags="-transport rpc"
fi
. "$(dirname "$0")/lib.sh"

shard0_addr=127.0.0.1:19471
shard1_addr=127.0.0.1:19472
router_addr=127.0.0.1:19473
base="http://$router_addr"

"$bin/ipscope-gen" $gen_flags -dataset "$dir/cluster.obs"
trap 'kill "${shard0_pid:-}" "${shard1_pid:-}" "${router_pid:-}" 2>/dev/null || true' EXIT INT TERM
start_fleet "$dir/cluster.obs" "$shard0_addr" "$shard1_addr" "$router_addr" "$serve_flags" "$router_flags"

# Healthz reports per-range rollups (R=1: one range per shard).
fetch "$base/v1/healthz" | grep -q '"rangeStates"' \
    || { fetch "$base/v1/healthz"; fail "healthz lacks rangeStates"; }
echo "$name: healthz reports per-range rangeStates"

# 0. Every shard connection speaks the transport asked for.
n=$(fetch "$base/v1/healthz" | grep -o "\"transport\":\"$transport\"" | wc -l)
[ "$n" -eq 2 ] || { fetch "$base/v1/healthz"; fail "$n of 2 shards speak $transport"; }
echo "$name: both shard connections speak $transport"

# 1. Routed summary must byte-equal the single-node batch summary.
"$bin/ipscope-serve" -dataset "$dir/cluster.obs" -dump-summary >"$dir/batch-summary.json" 2>/dev/null
summary_is "$base" "$dir/batch-summary.json" "$dir/routed-summary.json" || {
    diff "$dir/routed-summary.json" "$dir/batch-summary.json" || true
    fail "routed /v1/summary differs from single-node dump-summary"
}
echo "$name: routed /v1/summary over $transport byte-equals single-node summary"

# 2. A block owned by each shard answers through the router.
b0=$(fetch "http://$shard0_addr/v1/cluster/info" | sed -n 's/.*"firstActive":"\([^"]*\)".*/\1/p')
b1=$(fetch "http://$shard1_addr/v1/cluster/info" | sed -n 's/.*"firstActive":"\([^"]*\)".*/\1/p')
[ -n "$b0" ] && [ -n "$b1" ] || fail "a shard reports no active blocks"
fetch "$base/v1/block/$b0" >/dev/null
fetch "$base/v1/block/$b1" >/dev/null
echo "$name: routed lookups for $b0 (shard 0) and $b1 (shard 1) answered 200"

# 3. Degraded mode: kill shard 1; its blocks 503, shard 0 keeps serving.
kill "$shard1_pid"
wait "$shard1_pid" 2>/dev/null || true

# The router answered $b1 above and cached it: a hit is exact bytes and
# keeps answering whatever the shard's health. A read of the dead
# shard's range it has not cached is what degrades.
code=$(status_of "$base/v1/block/$b1")
[ "$code" = "200" ] || fail "dead shard's cached block answered $code, want 200"
code=$(status_of "$base/v1/addr/${b1%/24}")
[ "$code" = "503" ] || fail "dead shard's uncached address answered $code, want 503"
code=$(status_of "$base/v1/block/$b0")
[ "$code" = "200" ] || fail "live shard's block answered $code, want 200"
code=$(status_of "$base/v1/healthz")
[ "$code" = "503" ] || fail "degraded healthz answered $code, want 503"
curl -s --max-time 5 "$base/v1/healthz" | grep -q '"status":"degraded"' \
    || fail "healthz body does not report degraded"

echo "$name: one-shard-down degrades only its blocks; healthz reports degraded"
