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
# $DIR/loadgen-smoke/loadgen.md (appended to the CI job summary,
# warn-only — shared runners are too noisy to gate on wall-clock).
name=loadgen-smoke
. "$(dirname "$0")/lib.sh"

serve_addr=127.0.0.1:19481
shard0_addr=127.0.0.1:19482
shard1_addr=127.0.0.1:19483
router_addr=127.0.0.1:19484
lg_flags="$world_flags -requests 4000 -concurrency 8 -slo-p99 250ms"

"$bin/ipscope-gen" $gen_flags -dataset "$dir/loadgen.obs"

# run_loadgen RUN TARGET LOG...: one seeded run against TARGET, its
# report in RUN.json and RUN.md.
run_loadgen() {
    _run=$1 _target=$2
    shift 2
    "$bin/ipscope-loadgen" -target "http://$_target" $lg_flags \
        -json -md "$dir/$_run.md" >"$dir/$_run.json" 2>"$dir/$_run.log" || {
        cat "$dir/$_run.log" "$@" 2>/dev/null || true
        fail "$_run run failed"
    }
}

# --- single node ------------------------------------------------------
"$bin/ipscope-serve" -dataset "$dir/loadgen.obs" -listen "$serve_addr" 2>"$dir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" "${shard0_pid:-}" "${shard1_pid:-}" "${router_pid:-}" 2>/dev/null || true' EXIT INT TERM
run_loadgen single "$serve_addr" "$dir/serve.log"
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true

# --- router + 2 shards ------------------------------------------------
start_fleet "$dir/loadgen.obs" "$shard0_addr" "$shard1_addr" "$router_addr"
run_loadgen cluster "$router_addr" "$dir/router.log"

# --- assertions -------------------------------------------------------
h1=$(hash_of "$dir/single.json"); h2=$(hash_of "$dir/cluster.json")
[ -n "$h1" ] && [ "$h1" = "$h2" ] \
    || fail "workload hash differs across runs ($h1 vs $h2) — generator not deterministic"
echo "$name: workload deterministic (hash $h1) across single-node and cluster runs"

for run in single cluster; do
    errs=$(field_of "$dir/$run.json" errors)
    [ "$errs" = "0" ] || { cat "$dir/$run.log"; fail "$run run reported $errs hard errors"; }
done
echo "$name: zero hard errors in both topologies"

for run in single cluster; do
    hit=$(field_of "$dir/$run.json" hitRate)
    case "$hit" in
        0.[56789]*|1|1.*) echo "$name: $run run cache hit rate $hit" ;;
        *) fail "$run run hit rate $hit, want > 0.5" ;;
    esac
done

# The combined SLO table (warn-only; consumed by the CI job summary).
{
    echo "## loadgen SLO (warn-only)"
    cat "$dir/single.md"
    cat "$dir/cluster.md"
} >"$dir/loadgen.md"
echo "$name: SLO table written to $dir/loadgen.md"
