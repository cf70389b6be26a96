#!/bin/sh
# chaos_smoke.sh DIR — replica-failover chaos test of the serving
# cluster.
#
# Generates a dataset, records a single-node loadgen baseline, then
# starts an R=2 fleet (2 ranges x 2 replicas = 4 ipscope-serve
# processes) behind an ipscope-router -replicas 2 and asserts:
#
#   1. the router's /v1/healthz reports per-range rangeStates;
#   2. with one replica of range 0 kill -9'd before the run and one
#      replica of range 1 kill -9'd while loadgen is driving traffic,
#      the run completes with ZERO hard errors (transport failures or
#      5xx) and the same workload hash as the single-node baseline —
#      failover is invisible to clients;
#   3. healthz stays 200 "ok" (not degraded) with the survivors, and
#      reports both ranges "partial";
#   4. restarting the killed replicas at their original addresses
#      returns healthz to all-"ok" — the operator probe actively
#      re-admits replicas out of backoff.
name=chaos-smoke
. "$(dirname "$0")/lib.sh"

r0a_addr=127.0.0.1:19491   # range 0, replica 0
r1a_addr=127.0.0.1:19492   # range 1, replica 0
r0b_addr=127.0.0.1:19493   # range 0, replica 1
r1b_addr=127.0.0.1:19494   # range 1, replica 1
router_addr=127.0.0.1:19495
single_addr=127.0.0.1:19496
base="http://$router_addr"
lg_flags="$world_flags -requests 6000 -concurrency 8"

"$bin/ipscope-gen" $gen_flags -dataset "$dir/chaos.obs"

# --- single-node baseline --------------------------------------------
"$bin/ipscope-serve" -dataset "$dir/chaos.obs" -listen "$single_addr" 2>"$dir/single.log" &
single_pid=$!
trap 'kill -9 ${single_pid:-} ${r0a_pid:-} ${r1a_pid:-} ${r0b_pid:-} ${r1b_pid:-} ${router_pid:-} 2>/dev/null || true' EXIT INT TERM

"$bin/ipscope-loadgen" -target "http://$single_addr" $lg_flags \
    -json >"$dir/single.json" 2>"$dir/single-lg.log" || {
    cat "$dir/single-lg.log" "$dir/single.log" 2>/dev/null || true
    fail "single-node baseline run failed"
}
kill "$single_pid"
wait "$single_pid" 2>/dev/null || true
single_pid=

# --- R=2 fleet: 2 ranges x 2 replicas --------------------------------
start_replica() { # addr shard replica logname -> pid on stdout
    # stdout must not be the command-substitution pipe, or $(...) would
    # wait for the server to exit.
    "$bin/ipscope-serve" -dataset "$dir/chaos.obs" \
        -shard-index "$2" -shard-count 2 -replica "$3" \
        -listen "$1" >/dev/null 2>"$dir/$4.log" &
    echo $!
}
r0a_pid=$(start_replica "$r0a_addr" 0 0 r0a)
r1a_pid=$(start_replica "$r1a_addr" 1 0 r1a)
r0b_pid=$(start_replica "$r0b_addr" 0 1 r0b)
r1b_pid=$(start_replica "$r1b_addr" 1 1 r1b)
for replica in "$r0a_addr" "$r1a_addr" "$r0b_addr" "$r1b_addr"; do
    wait_http "$replica" "replica $replica" "$dir"/r[01][ab].log
done

"$bin/ipscope-router" \
    -shards "http://$r0a_addr,http://$r1a_addr,http://$r0b_addr,http://$r1b_addr" \
    -replicas 2 -listen "$router_addr" 2>"$dir/router.log" &
router_pid=$!
wait_http "$router_addr" "router" "$dir/router.log"

# 1. The replicated fleet's healthz reports per-range rollups.
fetch "$base/v1/healthz" | grep -q '"rangeStates"' \
    || { fetch "$base/v1/healthz"; fail "healthz lacks rangeStates"; }
echo "$name: 2x2 fleet up; healthz reports rangeStates"

# 2. Chaos: kill -9 one replica of range 0 up front, then one replica
# of range 1 while loadgen is mid-run. Different replica positions, so
# both failover directions are exercised.
kill -9 "$r0a_pid"
wait "$r0a_pid" 2>/dev/null || true
r0a_pid=

"$bin/ipscope-loadgen" -target "$base" $lg_flags \
    -json >"$dir/chaos.json" 2>"$dir/chaos-lg.log" &
lg_pid=$!
sleep 0.3
kill -9 "$r1b_pid"
wait "$r1b_pid" 2>/dev/null || true
r1b_pid=

wait "$lg_pid" || {
    cat "$dir/chaos-lg.log" "$dir/router.log" 2>/dev/null || true
    fail "loadgen failed against the degraded fleet"
}

errs=$(field_of "$dir/chaos.json" errors)
[ "$errs" = "0" ] || { cat "$dir/chaos-lg.log"; fail "$errs hard errors with replicas dying mid-run, want 0"; }
h1=$(hash_of "$dir/single.json"); h2=$(hash_of "$dir/chaos.json")
[ -n "$h1" ] && [ "$h1" = "$h2" ] || fail "workload hash differs ($h1 vs $h2)"
echo "$name: zero hard errors and workload hash $h1 with one replica of each range kill -9'd"

# 3. Survivors keep the fleet healthy: 200 "ok", both ranges partial.
body=$(fetch "$base/v1/healthz") || fail "healthz not 200 with one replica of each range dead"
echo "$body" | grep -q '"status":"ok"' || fail "healthz status not ok with survivors: $body"
partials=$(echo "$body" | grep -o '"status":"partial"' | wc -l)
[ "$partials" -eq 2 ] || fail "$partials partial ranges, want 2: $body"
echo "$name: healthz stays ok (not degraded); both ranges report partial"

# 4. Restart the killed replicas at their original addresses; the
# operator healthz probe re-admits them and every range returns to ok.
r0a_pid=$(start_replica "$r0a_addr" 0 0 r0a-revived)
r1b_pid=$(start_replica "$r1b_addr" 1 1 r1b-revived)
all_ok() {
    body=$(curl -s --max-time 5 "$base/v1/healthz") \
        && echo "$body" | grep -q '"status":"ok"' \
        && ! echo "$body" | grep -q '"status":"partial"' \
        && ! echo "$body" | grep -q '"status":"unreachable"'
}
poll 150 0.2 "revived replicas never re-admitted" all_ok || { curl -s --max-time 5 "$base/v1/healthz"; exit 1; }
echo "$name: restarted replicas re-admitted; healthz back to all-ok"
