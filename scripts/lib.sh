# lib.sh — what every smoke script shares. Source it after setting
# $name, the prefix of the script's messages, with the smoke directory
# (holding the prebuilt ipscope-* binaries; the Makefile's smoke-bin
# target builds them) as $1:
#
#   name=cluster-smoke; . "$(dirname "$0")/lib.sh"
#
# It leaves $bin (that directory) and $dir (a fresh workspace under it,
# named after the script) behind.
set -eu

bin=${1:?usage: $0 SMOKE_DIR}
dir=$bin/$name
rm -rf "$dir" && mkdir -p "$dir"

world_flags="-seed 5 -ases 24 -blocks-per-as 6"
gen_flags="$world_flags -days 56"

fetch() { curl -fsS --max-time 5 "$1"; }
status_of() { curl -s -o /dev/null -w '%{http_code}' --max-time 5 "$1"; }
fail() { echo "$name: $*"; exit 1; }

# field_of FILE KEY: the first number under "KEY" in a JSON file;
# hash_of FILE: a loadgen report's workload hash.
field_of() { sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1" | head -1; }
hash_of() { sed -n 's/.*"workloadHash":"\([^"]*\)".*/\1/p' "$1"; }

# epoch_of ADDR: the epoch the server's healthz reports.
epoch_of() { fetch "http://$1/v1/healthz" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p'; }

# poll TRIES SLEEP WHAT CMD...: the one bounded wait. Retries CMD every
# SLEEP seconds until it succeeds; after TRIES failures it says WHAT and
# returns 1 (which ends a script that does not handle it).
poll() {
    _tries=$1 _sleep=$2 _what=$3
    shift 3
    _i=0
    until "$@" >/dev/null 2>&1; do
        _i=$((_i+1))
        [ "$_i" -lt "$_tries" ] || { echo "$name: $_what"; return 1; }
        sleep "$_sleep"
    done
}

# wait_http ADDR WHAT LOG...: wait for a server's healthz to answer;
# show its logs if it never does.
wait_http() {
    _addr=$1 _who=$2
    shift 2
    poll 100 0.2 "$_who never came up" fetch "http://$_addr/v1/healthz" || { cat "$@"; exit 1; }
}

# epoch_reached ADDR N: the server at ADDR serves epoch N or later.
epoch_reached() { _e=$(epoch_of "$1") && [ -n "$_e" ] && [ "$_e" -ge "$2" ]; }

# summary_is BASE BATCH OUT: BASE's /v1/summary, epoch field aside,
# byte-equals the -dump-summary output in BATCH (the copy lands in OUT).
summary_is() { fetch "$1/v1/summary" | sed 's/"epoch":[0-9]*,//' >"$3" && cmp -s "$3" "$2"; }

# start_fleet DATASET SHARD0 SHARD1 ROUTER [SERVE_FLAGS [ROUTER_FLAGS]]:
# two block-partitioned batch shards over DATASET and a router in front,
# all up when it returns. Sets shard0_pid, shard1_pid and router_pid.
start_fleet() {
    "$bin/ipscope-serve" -dataset "$1" -shard-index 0 -shard-count 2 -listen "$2" ${5:-} \
        2>"$dir/shard0.log" &
    shard0_pid=$!
    "$bin/ipscope-serve" -dataset "$1" -shard-index 1 -shard-count 2 -listen "$3" ${5:-} \
        2>"$dir/shard1.log" &
    shard1_pid=$!
    wait_http "$2" "shard 0" "$dir/shard0.log"
    wait_http "$3" "shard 1" "$dir/shard1.log"
    "$bin/ipscope-router" -shards "http://$2,http://$3" -listen "$4" ${6:-} 2>"$dir/router.log" &
    router_pid=$!
    wait_http "$4" "router" "$dir/router.log"
}
