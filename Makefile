# The same targets CI runs, so humans and the pipeline never diverge.
GO ?= go
STATICCHECK ?= staticcheck
STATICCHECK_VERSION = 2024.1.1
# One directory for every smoke target: the binaries, built once, and a
# workspace per smoke under it.
SMOKE_DIR ?= .smoke
# The smoke world: ipscope-loadgen takes SMOKE_WORLD, the rest SMOKE_FLAGS.
SMOKE_WORLD = -seed 5 -ases 24 -blocks-per-as 6
SMOKE_FLAGS = $(SMOKE_WORLD) -days 56
SMOKES = pipeline-smoke fleet-smoke

.PHONY: all build vet vet-386 fmt-check lint test bench-harness race bench bench-smoke fuzz-smoke smoke-bin $(SMOKES) ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The binary codecs (and the checkpoint journal's record decoder) convert
# untrusted u32/u64 counts to int: type-check them where int is 32 bits,
# so the narrow case at least compiles.
vet-386:
	GOARCH=386 $(GO) vet ./internal/binenc ./internal/obs ./internal/rpc ./internal/query ./internal/node

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

smoke-bin:
	mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/ ./cmd/...

# The serving fleet over real processes: 2 ranges x 2 live replicas +
# router, kill -9 and resume, loadgen (SLO table), re-admission. It
# checks what only a process shows; the Go tests hold the answers.
fleet-smoke: smoke-bin
	sh scripts/fleet_smoke.sh $(SMOKE_DIR) "$(SMOKE_WORLD)" "$(SMOKE_FLAGS)"

# The observation pipeline: gen streams a dataset over a pipe into
# report, which must print byte-identically to a direct in-process run
# on the same seed; then the replay scenarios (-window-days,
# -vantage-frac) over the stored dataset against the direct run.
pipeline-smoke: D = $(SMOKE_DIR)/pipeline-smoke
pipeline-smoke: smoke-bin
	rm -rf $(D) && mkdir -p $(D)
	$(SMOKE_DIR)/ipscope-gen $(SMOKE_FLAGS) -dataset - \
		| $(SMOKE_DIR)/ipscope-report -dataset - -o $(D)/report-dataset.txt
	$(SMOKE_DIR)/ipscope-report $(SMOKE_FLAGS) -o $(D)/report-direct.txt
	cmp $(D)/report-direct.txt $(D)/report-dataset.txt
	$(SMOKE_DIR)/ipscope-gen $(SMOKE_FLAGS) -dataset $(D)/world.obs
	for s in "-window-days 28" "-vantage-frac 0.5"; do \
		$(SMOKE_DIR)/ipscope-report $(SMOKE_FLAGS) $$s -o $(D)/scenario-direct.txt && \
		$(SMOKE_DIR)/ipscope-report $(SMOKE_FLAGS) $$s -dataset $(D)/world.obs -o $(D)/scenario-dataset.txt && \
		cmp $(D)/scenario-direct.txt $(D)/scenario-dataset.txt || exit 1; \
	done
	@echo "pipeline-smoke: reports byte-identical (default, -window-days 28, -vantage-frac 0.5)"

# Short fuzzing passes over the binary decoders and the rDNS tagger:
# proves FuzzDec (the shared internal/binenc kernel), FuzzDecode
# (dataset codec), FuzzRPCDecode (shard↔router RPC codec),
# FuzzSnapshotDecode (persistent index snapshots), FuzzJournalDecode
# (checkpoint journals) and FuzzClassifyZone (the one-name-per-variant
# tagger against the every-name reference) still run and gives the
# mutator a brief shot at fresh corpus.
fuzz-smoke:
	$(GO) test ./internal/binenc -run='^$$' -fuzz='^FuzzDec$$' -fuzztime=10s
	$(GO) test ./internal/obs -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s
	$(GO) test ./internal/rpc -run='^$$' -fuzz='^FuzzRPCDecode$$' -fuzztime=10s
	$(GO) test ./internal/query -run='^$$' -fuzz='^FuzzSnapshotDecode$$' -fuzztime=10s
	$(GO) test ./internal/node -run='^$$' -fuzz='^FuzzJournalDecode$$' -fuzztime=10s
	$(GO) test ./internal/rdns -run='^$$' -fuzz='^FuzzClassifyZone$$' -fuzztime=10s

ci: build vet vet-386 fmt-check test bench-harness race bench-smoke fuzz-smoke $(SMOKES)
