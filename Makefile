# The same targets CI runs, so humans and the pipeline never diverge.
GO ?= go
STATICCHECK ?= staticcheck
STATICCHECK_VERSION = 2024.1.1
SMOKE_DIR ?= .pipeline-smoke
SERVE_SMOKE_DIR ?= .serve-smoke
LIVE_SMOKE_DIR ?= .live-smoke
CLUSTER_SMOKE_DIR ?= .cluster-smoke
RPC_SMOKE_DIR ?= .rpc-smoke
SNAPSHOT_SMOKE_DIR ?= .snapshot-smoke
HISTORY_SMOKE_DIR ?= .history-smoke
LOADGEN_SMOKE_DIR ?= .loadgen-smoke
CHAOS_SMOKE_DIR ?= .chaos-smoke
SMOKE_FLAGS = -seed 5 -ases 24 -blocks-per-as 6 -days 56

.PHONY: all build vet vet-386 fmt-check lint test bench-harness race bench bench-smoke fuzz-smoke pipeline-smoke serve-smoke live-smoke cluster-smoke rpc-smoke snapshot-smoke history-smoke loadgen-smoke chaos-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The binary codecs convert untrusted u32/u64 counts to int: type-check
# them where int is 32 bits, so the narrow case at least compiles.
vet-386:
	GOARCH=386 $(GO) vet ./internal/binenc ./internal/obs ./internal/rpc ./internal/query

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond vet (checks pinned by staticcheck.conf). CI
# installs the pinned version; locally, install with:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
lint:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; \
	}
	$(STATICCHECK) ./...

test:
	$(GO) test ./...

# The benchmark harness is a nested module (benchmark/go.mod), which
# `go test ./...` does not descend into: vet and test it here, so a
# signature change that breaks it fails CI instead of the next benchmark
# run (< 5 s, spawns no process).
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The parallel engine makes the race detector non-negotiable.
race:
	$(GO) test -race ./...

# Full benchmark run (the paper's tables/figures + ablations).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One-iteration benchmark smoke: proves every benchmark still runs (the
# JSON event stream is a CI artifact; the perf record is benchmark/'s).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -json . > BENCH_ci.json
	@grep -c '"Action":"output"' BENCH_ci.json >/dev/null && echo "BENCH_ci.json written"

# End-to-end smoke of the observation pipeline: gen streams a dataset
# over a pipe into collect, collect persists it canonically, report
# analyzes the store — and the result must be byte-identical to a
# direct in-process run on the same seed.
pipeline-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/ipscope-gen $(SMOKE_FLAGS) -dataset - \
		| $(GO) run ./cmd/ipscope-collect -ingest - -store $(SMOKE_DIR)/world.obs
	$(GO) run ./cmd/ipscope-report -dataset $(SMOKE_DIR)/world.obs -o $(SMOKE_DIR)/report-dataset.txt
	$(GO) run ./cmd/ipscope-report $(SMOKE_FLAGS) -o $(SMOKE_DIR)/report-direct.txt
	cmp $(SMOKE_DIR)/report-direct.txt $(SMOKE_DIR)/report-dataset.txt
	@echo "pipeline-smoke: reports byte-identical"

# End-to-end smoke of the serving layer: gen builds a small dataset,
# ipscope-serve compiles it into a query index, and -selfcheck probes
# every /v1 endpoint over real HTTP, verifying the JSON fields against
# the index (which the serve test suite proves field-identical to the
# batch report on the same dataset).
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR) && mkdir -p $(SERVE_SMOKE_DIR)
	$(GO) run ./cmd/ipscope-gen $(SMOKE_FLAGS) -dataset $(SERVE_SMOKE_DIR)/serve.obs
	$(GO) run ./cmd/ipscope-serve -dataset $(SERVE_SMOKE_DIR)/serve.obs -selfcheck
	@echo "serve-smoke: all endpoints verified"

# Short fuzzing passes over the binary decoders: proves FuzzDec (the
# shared internal/binenc kernel), FuzzDecode (dataset codec),
# FuzzRPCDecode (shard↔router RPC codec) and FuzzSnapshotDecode
# (persistent index snapshots) still run and gives the mutator a brief
# shot at fresh corpus.
fuzz-smoke:
	$(GO) test ./internal/binenc -run='^$$' -fuzz='^FuzzDec$$' -fuzztime=10s
	$(GO) test ./internal/obs -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s
	$(GO) test ./internal/rpc -run='^$$' -fuzz='^FuzzRPCDecode$$' -fuzztime=10s
	$(GO) test ./internal/query -run='^$$' -fuzz='^FuzzSnapshotDecode$$' -fuzztime=10s

# End-to-end smoke of the live serving pipeline: ipscope-gen -connect
# streams a paced simulation into ipscope-serve -obs-listen, the
# /v1/healthz epoch must advance mid-stream, and the final /v1/summary
# must match a batch -dump-summary over the persisted dataset.
live-smoke:
	rm -rf $(LIVE_SMOKE_DIR) && mkdir -p $(LIVE_SMOKE_DIR)
	$(GO) build -o $(LIVE_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(LIVE_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	sh scripts/live_smoke.sh $(LIVE_SMOKE_DIR)

# Historical-epoch smoke: live stream with -retain-epochs, time-travel
# byte-equality, /v1/delta across a swap, eviction 404 body.
history-smoke:
	rm -rf $(HISTORY_SMOKE_DIR) && mkdir -p $(HISTORY_SMOKE_DIR)
	$(GO) build -o $(HISTORY_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(HISTORY_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	sh scripts/history_smoke.sh $(HISTORY_SMOKE_DIR)

# End-to-end smoke of the sharded serving cluster: two block-partitioned
# shards plus a scatter-gather router; the routed /v1/summary must
# byte-equal the single-node batch summary, and killing one shard must
# degrade only its blocks (see scripts/cluster_smoke.sh).
cluster-smoke:
	rm -rf $(CLUSTER_SMOKE_DIR) && mkdir -p $(CLUSTER_SMOKE_DIR)
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/ipscope-router ./cmd/ipscope-router
	sh scripts/cluster_smoke.sh $(CLUSTER_SMOKE_DIR)

# End-to-end smoke of the binary RPC shard transport: the same cluster
# topology with shards on -rpc-listen and the router on -transport=rpc;
# the routed summary must byte-equal the batch summary, and a killed
# shard must degrade exactly as over HTTP (see scripts/rpc_smoke.sh).
rpc-smoke:
	rm -rf $(RPC_SMOKE_DIR) && mkdir -p $(RPC_SMOKE_DIR)
	$(GO) build -o $(RPC_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(RPC_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	$(GO) build -o $(RPC_SMOKE_DIR)/ipscope-router ./cmd/ipscope-router
	sh scripts/rpc_smoke.sh $(RPC_SMOKE_DIR)

# End-to-end smoke of persistent index snapshots: batch
# save→verify→load→serve must byte-equal the build that saved it, and a
# kill -9'd live shard must restart from its -snapshot-dir checkpoint,
# catch up, and converge the routed cluster summary on the batch one
# (see scripts/snapshot_smoke.sh).
snapshot-smoke:
	rm -rf $(SNAPSHOT_SMOKE_DIR) && mkdir -p $(SNAPSHOT_SMOKE_DIR)
	$(GO) build -o $(SNAPSHOT_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(SNAPSHOT_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	$(GO) build -o $(SNAPSHOT_SMOKE_DIR)/ipscope-router ./cmd/ipscope-router
	$(GO) build -o $(SNAPSHOT_SMOKE_DIR)/ipscope-snapshot ./cmd/ipscope-snapshot
	sh scripts/snapshot_smoke.sh $(SNAPSHOT_SMOKE_DIR)

# Deterministic load test of the read path: ipscope-loadgen drives a
# single serve node and a router+2-shard cluster with the same seeded
# workload (zipfian mix, burst, thundering herd, epoch storm); both runs
# must print the same workload hash with zero hard errors, and the
# latency percentiles land in a warn-only SLO table
# (see scripts/loadgen_smoke.sh).
loadgen-smoke:
	rm -rf $(LOADGEN_SMOKE_DIR) && mkdir -p $(LOADGEN_SMOKE_DIR)
	$(GO) build -o $(LOADGEN_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(LOADGEN_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	$(GO) build -o $(LOADGEN_SMOKE_DIR)/ipscope-router ./cmd/ipscope-router
	$(GO) build -o $(LOADGEN_SMOKE_DIR)/ipscope-loadgen ./cmd/ipscope-loadgen
	sh scripts/loadgen_smoke.sh $(LOADGEN_SMOKE_DIR)

# Replica-failover chaos test: an R=2 fleet (2 ranges x 2 replicas)
# behind ipscope-router -replicas 2; one replica of each range is
# kill -9'd (one before, one while ipscope-loadgen drives traffic) and
# the run must finish with zero hard errors and the single-node
# workload hash; restarted replicas must be re-admitted and healthz
# return to all-ok (see scripts/chaos_smoke.sh).
chaos-smoke:
	rm -rf $(CHAOS_SMOKE_DIR) && mkdir -p $(CHAOS_SMOKE_DIR)
	$(GO) build -o $(CHAOS_SMOKE_DIR)/ipscope-gen ./cmd/ipscope-gen
	$(GO) build -o $(CHAOS_SMOKE_DIR)/ipscope-serve ./cmd/ipscope-serve
	$(GO) build -o $(CHAOS_SMOKE_DIR)/ipscope-router ./cmd/ipscope-router
	$(GO) build -o $(CHAOS_SMOKE_DIR)/ipscope-loadgen ./cmd/ipscope-loadgen
	sh scripts/chaos_smoke.sh $(CHAOS_SMOKE_DIR)

ci: build vet vet-386 fmt-check test bench-harness race bench-smoke fuzz-smoke pipeline-smoke serve-smoke live-smoke cluster-smoke rpc-smoke snapshot-smoke history-smoke loadgen-smoke chaos-smoke
