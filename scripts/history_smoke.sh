#!/bin/sh
# history_smoke.sh DIR — end-to-end smoke of the live serving pipeline
# and its historical-epoch layer.
#
# Starts ipscope-serve in -obs-listen live mode with -retain-epochs,
# streams a paced simulation into it with ipscope-gen -connect
# (persisting the same stream to a dataset file), and asserts:
#
#   1. the /v1/healthz epoch advances while the stream is in flight (the
#      server re-publishes snapshots without restarting), and an as-of
#      query (?epoch=N) then answers byte-identically to the response
#      captured when epoch N was current — time travel is exact;
#   2. /v1/delta between two retained epochs answers 200 with a
#      non-empty diff across a publish swap;
#   3. at end of stream, /v1/summary is byte-identical (modulo the epoch
#      field) to a batch `ipscope-serve -dataset ... -dump-summary` over
#      the persisted dataset — the incremental and monolithic index
#      builds agree;
#   4. once the ring has evicted an epoch, asking for it 404s with the
#      documented not-retained body naming the retained range, and
#      /v1/healthz agrees with that range.
name=history-smoke
. "$(dirname "$0")/lib.sh"

obs_addr=127.0.0.1:19461
http_addr=127.0.0.1:19462
base="http://$http_addr"
retain=3

"$bin/ipscope-serve" -obs-listen "$obs_addr" -listen "$http_addr" -publish-every 7 \
    -retain-epochs "$retain" 2>"$dir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT INT TERM
# The HTTP endpoint is up (serving "warming") before the first epoch.
wait_http "$http_addr" "server" "$dir/serve.log"

"$bin/ipscope-gen" $gen_flags -connect "$obs_addr" -dataset "$dir/live.obs" -day-delay 15ms \
    2>"$dir/gen.log" &
gen_pid=$!

# Wait for the first epoch, then capture /v1/summary while it is the
# live answer. The capture may have raced a publish; its epoch field
# names the epoch it actually answered for.
poll 200 0.1 "first epoch never published" epoch_reached "$http_addr" 1
fetch "$base/v1/summary" >"$dir/summary-live.json"
captured_epoch=$(sed -n 's/.*"epoch":\([0-9]*\).*/\1/p' "$dir/summary-live.json")

# 1. The epoch must advance mid-stream; then time-travel back: the as-of
# body must byte-equal the live capture.
poll 200 0.1 "epoch never advanced past $captured_epoch" epoch_reached "$http_addr" $((captured_epoch+1))
echo "$name: epoch advanced $captured_epoch -> $(epoch_of "$http_addr") mid-stream"
fetch "$base/v1/summary?epoch=$captured_epoch" >"$dir/summary-asof.json"
cmp -s "$dir/summary-live.json" "$dir/summary-asof.json" || {
    diff "$dir/summary-live.json" "$dir/summary-asof.json" || true
    fail "as-of summary at epoch $captured_epoch differs from the live capture"
}
echo "$name: ?epoch=$captured_epoch byte-equals the response captured live"

# 2. Delta across the swap: from the captured epoch to the current one.
to=$(epoch_of "$http_addr")
fetch "$base/v1/delta?from=$captured_epoch&to=$to" >"$dir/delta.json"
grep -q '"fromEpoch":'"$captured_epoch" "$dir/delta.json" \
    || { cat "$dir/delta.json"; fail "delta body lacks fromEpoch $captured_epoch"; }
grep -q '"changedBlocks":' "$dir/delta.json" \
    || { cat "$dir/delta.json"; fail "delta body has no changedBlocks"; }
echo "$name: /v1/delta?from=$captured_epoch&to=$to answered a structured diff"

# Movement series covers the retained window.
fetch "$base/v1/movement" >"$dir/movement.json"
grep -q '"series":' "$dir/movement.json" \
    || { cat "$dir/movement.json"; fail "movement body has no series"; }

wait "$gen_pid"

# 3. After end of stream the final epoch folds in the trailing
# aggregates; its summary must match the batch index over the persisted
# dataset.
"$bin/ipscope-serve" -dataset "$dir/live.obs" -dump-summary >"$dir/batch-summary.json" 2>/dev/null
poll 50 0.2 "live summary never converged on the batch summary" \
    summary_is "$base" "$dir/batch-summary.json" "$dir/live-summary.json" || {
    diff "$dir/live-summary.json" "$dir/batch-summary.json" || true
    exit 1
}
newest=$(epoch_of "$http_addr")
echo "$name: final epoch $newest; live /v1/summary matches batch dump-summary"

# 4. Eviction: with N epochs retained and more than N published, epoch 1
# must be gone.
oldest=$(fetch "$base/v1/healthz" | sed -n 's/.*"oldestEpoch":\([0-9]*\).*/\1/p')
[ -n "$oldest" ] && [ "$oldest" -gt 1 ] || fail "epoch 1 never left the ring (oldest '${oldest:-none}')"
status=$(curl -s --max-time 5 -o "$dir/evicted.json" -w '%{http_code}' "$base/v1/summary?epoch=1")
[ "$status" = "404" ] || { cat "$dir/evicted.json"; fail "evicted epoch answered status $status, want 404"; }
want="{\"error\":\"epoch 1 not retained (retained epochs $oldest..$newest)\",\"oldestEpoch\":$oldest,\"newestEpoch\":$newest}"
got=$(cat "$dir/evicted.json")
[ "$got" = "$want" ] || {
    echo " got:  $got"
    echo " want: $want"
    fail "evicted-epoch body mismatch"
}
echo "$name: evicted epoch 1 404s with the documented body; retained $oldest..$newest"
