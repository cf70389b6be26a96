#!/bin/sh
# loadgen_smoke.sh DIR — deterministic load test of the read path.
#
# Generates a dataset, then drives ipscope-loadgen twice with the same
# seed: against a single ipscope-serve node and against a router+2-shard
# cluster over the same data. Asserts:
#
#   1. the workload is deterministic — both runs (and any rerun) print
#      the same workload hash for the seed;
#   2. zero hard errors (transport failures or 5xx) in either topology
#      across every phase (steady/burst/herd/storm);
#   3. both runs see a warm cache — the node's, and the router's own
#      response cache in front of the shards (hit ratio > 50%: the
#      zipfian mix concentrates on a hot set by design).
#
# Latency percentiles are written as a markdown SLO table to
# $DIR/loadgen.md (appended to the CI job summary, warn-only — shared
# runners are too noisy to gate on wall-clock).
#
# Expects $DIR/ipscope-gen, $DIR/ipscope-serve, $DIR/ipscope-router and
# $DIR/ipscope-loadgen to be prebuilt (the Makefile's loadgen-smoke
# target does this).
set -eu

dir=${1:?usage: loadgen_smoke.sh DIR}
serve_addr=127.0.0.1:19481
shard0_addr=127.0.0.1:19482
shard1_addr=127.0.0.1:19483
router_addr=127.0.0.1:19484
world_flags="-seed 5 -ases 24 -blocks-per-as 6"
lg_flags="$world_flags -requests 4000 -concurrency 8 -slo-p99 250ms"

fetch() { curl -fsS --max-time 5 "$1"; }

"$dir/ipscope-gen" $world_flags -days 56 -dataset "$dir/loadgen.obs"

# --- single node ------------------------------------------------------
"$dir/ipscope-serve" -dataset "$dir/loadgen.obs" -listen "$serve_addr" \
    2>"$dir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" "${shard0_pid:-}" "${shard1_pid:-}" "${router_pid:-}" 2>/dev/null || true' EXIT INT TERM

if ! "$dir/ipscope-loadgen" -target "http://$serve_addr" $lg_flags \
    -json -md "$dir/single.md" >"$dir/single.json" 2>"$dir/single.log"; then
    echo "loadgen-smoke: single-node run failed"
    cat "$dir/single.log" "$dir/serve.log" 2>/dev/null || true
    exit 1
fi

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true

# --- router + 2 shards ------------------------------------------------
"$dir/ipscope-serve" -dataset "$dir/loadgen.obs" -shard-index 0 -shard-count 2 \
    -listen "$shard0_addr" 2>"$dir/shard0.log" &
shard0_pid=$!
"$dir/ipscope-serve" -dataset "$dir/loadgen.obs" -shard-index 1 -shard-count 2 \
    -listen "$shard1_addr" 2>"$dir/shard1.log" &
shard1_pid=$!
for shard in "$shard0_addr" "$shard1_addr"; do
    i=0
    until fetch "http://$shard/v1/healthz" >/dev/null 2>&1; do
        i=$((i+1))
        [ "$i" -le 100 ] || { echo "loadgen-smoke: shard $shard never came up"; cat "$dir"/shard*.log; exit 1; }
        sleep 0.2
    done
done
"$dir/ipscope-router" -shards "http://$shard0_addr,http://$shard1_addr" \
    -listen "$router_addr" 2>"$dir/router.log" &
router_pid=$!

if ! "$dir/ipscope-loadgen" -target "http://$router_addr" $lg_flags \
    -json -md "$dir/cluster.md" >"$dir/cluster.json" 2>"$dir/cluster.log"; then
    echo "loadgen-smoke: cluster run failed"
    cat "$dir/cluster.log" "$dir/router.log" 2>/dev/null || true
    exit 1
fi

# --- assertions -------------------------------------------------------
hash_of() { sed -n 's/.*"workloadHash":"\([^"]*\)".*/\1/p' "$1"; }
field_of() { sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1" | head -1; }

h1=$(hash_of "$dir/single.json"); h2=$(hash_of "$dir/cluster.json")
[ -n "$h1" ] && [ "$h1" = "$h2" ] \
    || { echo "loadgen-smoke: workload hash differs across runs ($h1 vs $h2) — generator not deterministic"; exit 1; }
echo "loadgen-smoke: workload deterministic (hash $h1) across single-node and cluster runs"

for run in single cluster; do
    errs=$(field_of "$dir/$run.json" errors)
    [ "$errs" = "0" ] || { echo "loadgen-smoke: $run run reported $errs hard errors"; cat "$dir/$run.log"; exit 1; }
done
echo "loadgen-smoke: zero hard errors in both topologies"

for run in single cluster; do
    hit=$(field_of "$dir/$run.json" hitRate)
    case "$hit" in
        0.[56789]*|1|1.*) echo "loadgen-smoke: $run run cache hit rate $hit" ;;
        *) echo "loadgen-smoke: $run run hit rate $hit, want > 0.5"; exit 1 ;;
    esac
done

# The combined SLO table (warn-only; consumed by the CI job summary).
{
    echo "## loadgen SLO (warn-only)"
    cat "$dir/single.md"
    cat "$dir/cluster.md"
} >"$dir/loadgen.md"
echo "loadgen-smoke: SLO table written to $dir/loadgen.md"
