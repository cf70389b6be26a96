#!/bin/sh
# fleet_smoke.sh SMOKE_DIR WORLD_FLAGS GEN_FLAGS — the serving fleet as
# real processes (binaries from make smoke-bin), checking only what needs
# one: flags, log lines, exit codes, kill -9. What the fleet answers is
# held in-process (TestFleetResume, TestClusterEquivalence,
# TestReplicaFailover). ipscope-gen writes a paced dataset and streams it
# (-connect) to a standalone -obs-listen node; four -follow replicas
# (2 ranges x R=2, -rpc-listen, -snapshot-dir) tail the file behind
# ipscope-router -replicas 2 -transport rpc, each on 127.0.0.1:0 with
# its address read from its log. Steps 1-5 below say what they assert;
# the loadgen SLO table is left in SMOKE_DIR/fleet-smoke/loadgen.md.
set -eu
bin=${1:?usage: $0 SMOKE_DIR WORLD_FLAGS GEN_FLAGS} world=${2:?} gen_flags=${3:?}
dir=$bin/fleet-smoke
rm -rf "$dir" && mkdir -p "$dir"
pids=""
trap 'kill -9 $pids 2>/dev/null || true' EXIT
trap 'exit 1' INT TERM

say() { echo "fleet-smoke: $*"; }
fail() { echo "fleet-smoke: $*" >&2; exit 1; }
poll() { # TRIES WHAT CMD...: retry CMD every 0.1 s; after TRIES, fail saying WHAT
    _tries=$1 _what=$2 && shift 2
    until "$@" >/dev/null 2>&1; do
        _tries=$((_tries - 1)) && [ "$_tries" -gt 0 ] || fail "$_what"
        sleep 0.1
    done
}
logged() { # LOG TEXT: wait for LOG to say "TEXT<address>"; print the address
    poll 100 "$1 never said '$2'" grep -q "$2" "$1"
    sed -n "s|.*$2\([0-9.:]*\).*|\1|p" "$1" | head -1
}
run() { _log=$1; shift; "$@" 2>"$dir/$_log.log" & pids="$pids $!"; } # LOG CMD...: in the background; $! is its pid
replica() { # P LOG [HTTP RPC]: process P (range P%2, replica P/2), on fresh ports or at the ones given
    run "$2" "$bin/ipscope-serve" -follow "$dir/live.obs" -snapshot-dir "$dir/snap$1" \
        -shard-index $(($1 % 2)) -shard-count 2 -replica $(($1 / 2)) \
        -listen "${3:-127.0.0.1:0}" -rpc-listen "${4:-127.0.0.1:0}"
}
restart() { replica "$1" "r$1-restarted" "$(logged "$dir/r$1.log" "serving on http://")" "$(logged "$dir/r$1.log" "rpc on ")"; }
healthz() { curl -fsS --max-time 5 "http://$router/v1/healthz"; }
summary_is() { # ADDR NAME: ADDR's /v1/summary, epoch aside, is the batch dump
    curl -fsS --max-time 5 "http://$1/v1/summary" | sed 's/"epoch":[0-9]*,//' >"$dir/$2.json" &&
        cmp -s "$dir/$2.json" "$dir/batch.json"
}

run standalone "$bin/ipscope-serve" -obs-listen 127.0.0.1:0 -listen 127.0.0.1:0; standalone_pid=$!
standalone=$(logged "$dir/standalone.log" "serving on http://")
run gen "$bin/ipscope-gen" $gen_flags -dataset "$dir/live.obs" -day-delay 50ms \
    -connect "$(logged "$dir/standalone.log" "stream on ")"; gen_pid=$!
replica 0 r0; pid0=$!; replica 1 r1; pid1=$!
replica 2 r2; pid2=$!; replica 3 r3; pid3=$!
urls=""
for p in 0 1 2 3; do urls="$urls${urls:+,}http://$(logged "$dir/r$p.log" "serving on http://")"; done
run router "$bin/ipscope-router" -shards "$urls" -replicas 2 -transport rpc -listen 127.0.0.1:0; router_pid=$!
router=$(logged "$dir/router.log" "routing 2 range(s) x 2 replica(s) on http://")
[ "$(healthz | grep -o '"transport":"rpc"' | wc -l)" -eq 4 ] || fail "not every replica is on rpc: $(healthz)"
say "2 ranges x 2 replicas behind the router on http://$router, all over rpc"

# 1. A range-1 replica is kill -9'd mid-stream while its last durable
# epoch is a journal record (it is frozen while its directory is read),
# and resumes at that epoch when restarted at the same addresses.
resume_line() { "$bin/ipscope-snapshot" "$dir/snap1" | tail -1; }
journaled() { # the durable epoch is past its base image's: a journal record
    kill -STOP "$pid1"
    _line=$(resume_line)
    _epoch=$(echo "$_line" | sed -n 's/.*resumes at epoch \([0-9]*\) .*/\1/p')
    _base=$(echo "$_line" | sed -n 's/.*snap-0*\([0-9]*\)\.ipsnap.*/\1/p')
    [ -n "$_epoch" ] && [ "$_epoch" -ge 3 ] && [ "$_epoch" -gt "$_base" ] && return 0
    kill -CONT "$pid1" && return 1
}
poll 200 "replica 1 never had a journaled epoch >= 3 durable" journaled
kill -9 "$pid1" && wait "$pid1" 2>/dev/null || true
durable=$(resume_line | sed -n 's/.*resumes at epoch \([0-9]*\) .*/\1/p')
kill -0 "$gen_pid" 2>/dev/null || fail "the stream ended before the kill"
restart 1; pid1=$!
poll 100 "replica 1 did not resume at the durable epoch $durable" \
    grep -q "resumed from snapshot .*: epoch $durable," "$dir/r1-restarted.log"
say "replica 1 kill -9'd at durable epoch $durable (a journal record) and resumed there"

# 2. After the stream, the routed and the standalone /v1/summary, and
# ipscope-snapshot -summary of a -snapshot-save file, equal -dump-summary.
wait "$gen_pid"
"$bin/ipscope-serve" -dataset "$dir/live.obs" -snapshot-save "$dir/batch.ipsnap" -dump-summary \
    >"$dir/batch.json" 2>"$dir/batch.log"
"$bin/ipscope-snapshot" -summary "$dir/batch.ipsnap" | cmp -s - "$dir/batch.json" ||
    fail "ipscope-snapshot -summary differs from -dump-summary"
poll 100 "routed /v1/summary never equalled -dump-summary" summary_is "$router" routed
poll 100 "the standalone /v1/summary never equalled -dump-summary" summary_is "$standalone" standalone
say "routed and standalone /v1/summary equal -dump-summary and ipscope-snapshot -summary"

# 3. A range-0 replica is kill -9'd under ipscope-loadgen: no hard error (it would exit
# non-zero), hit rate > 0.5, healthz 200 "ok" with one "partial" range.
run loadgen "$bin/ipscope-loadgen" -target "http://$router" $world -requests 6000 -concurrency 8 \
    -slo-p99 250ms -json -md "$dir/loadgen.md" >"$dir/loadgen.json"; lg_pid=$!
poll 100 "loadgen never found the router healthy" grep -q "healthy" "$dir/loadgen.log"
sleep 0.1
kill -0 "$lg_pid" 2>/dev/null || fail "loadgen finished before the kill"
kill -9 "$pid2" && wait "$pid2" 2>/dev/null || true
wait "$lg_pid" || { cat "$dir/loadgen.log" >&2; fail "loadgen failed with a replica dying mid-run"; }
hits=$(sed -n 's/.*"hitRate":\([0-9.]*\).*/\1/p' "$dir/loadgen.json")
case $hits in 0.[5-9]* | 1 | 1.*) ;; *) fail "cache hit rate $hits, want > 0.5" ;; esac
body=$(healthz) || fail "healthz not 200 with one replica dead"
case $body in '{"status":"ok"'*) ;; *) fail "healthz not ok with a replica dead: $body" ;; esac
[ "$(echo "$body" | grep -o '"status":"partial"' | wc -l)" -eq 1 ] || fail "want one partial range: $body"
say "loadgen: 0 hard errors, hit rate $hits with replica 2 kill -9'd; one range partial"

# 4. Restarted, it is re-admitted: healthz all "ok".
restart 2; pid2=$!
all_ok() { _b=$(healthz) && ! echo "$_b" | grep -q -e '"status":"partial"' -e '"status":"unreachable"'; }
poll 150 "restarted replica 2 never re-admitted" all_ok
say "replica 2 restarted and re-admitted; healthz all ok"

# 5. Every process exits 0 on SIGTERM; every checkpoint directory then
# verifies and keeps at most -snapshot-keep (3) base images.
up="$router_pid $pid0 $pid1 $pid2 $pid3 $standalone_pid"
kill -TERM $up
for pid in $up; do wait "$pid" || fail "process $pid exited $? on SIGTERM"; done
for p in 0 1 2 3; do
    n=$(ls "$dir/snap$p"/snap-*.ipsnap | wc -l)
    [ "$n" -ge 1 ] && [ "$n" -le 3 ] || fail "replica $p keeps $n base images, want 1..3"
    "$bin/ipscope-snapshot" -verify "$dir/snap$p" >"$dir/verify$p.txt" ||
        { cat "$dir/verify$p.txt" >&2; fail "replica $p's checkpoint directory does not verify"; }
done
say "every process exited 0 on SIGTERM; 4 checkpoint directories verify, <= 3 base images each"
