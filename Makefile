# coordbot build/test/experiment targets.

GO ?= go

.PHONY: all build check fmt vet test test-race check-bench check-deps check-surface bench bench-e2e bench-adjacency bench-community bench-signals bench-ingest fuzz experiments examples clean

all: build check

# The gate PRs must pass: formatting and static checks plus the full
# suite under the race detector (the daemon's ingest/survey concurrency
# depends on it), the benchmark's module, which the root ./... does not
# reach, the product path's import boundary, and the exported surface.
check: fmt vet test-race check-bench check-deps check-surface

build:
	$(GO) build ./...

# Every tracked Go file, bench/ included, must be gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench/ is its own module: an API slip there shows up here, not first
# in a benchmark run.
check-bench:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# In-process parallelism is goroutines over shared memory; rank/message
# semantics live only in internal/ygmnet + internal/distrank. The daemon
# and the batch pipeline must not link either.
check-deps:
	@if $(GO) list -deps ./cmd/coordbotd ./internal/detectd ./internal/pipeline | grep -E '^coordbot/internal/(ygmnet|distrank)$$'; then \
		echo "check-deps: the product path imports a message runtime (above)" >&2; exit 1; \
	fi

# The exported surface as a checked file: api/surface.txt lists every
# exported identifier of internal/ and every cmd/ flag with its non-test
# users (bench/ included). Fails when an identifier has no user and no
# surface:keep reason, or when the committed file is stale.
check-surface:
	$(GO) run ./tools/surface > api/surface.txt && git diff --exit-code -- api/surface.txt

# Short fuzz of the edge-key codec, the open-addressed edge table vs a
# map reference model, the sharded-vs-map adjacency and connected
# components equivalence, the
# patched-vs-rebuilt oriented CSR, the archive reader vs its
# encoding/json reference, the interner's flat table vs a map and slice
# reference model, the sliding window's flat lease table vs a
# map reference model, the archive timestamp's digit fast path vs the
# strconv path behind it, the JSON scanner's two entry points (One vs
# Reset+Next) and its word-at-a-time string scan vs the byte loop on
# arbitrary bytes, the binary ingest frame decoder on
# arbitrary bytes and its Encoder round trip, the run-sharing Step-3
# kernel (EvaluateAll) vs the single-triplet Evaluate, the ygmnet
# transport's frame reader on arbitrary bytes, and the daemon's census
# endpoints on arbitrary query strings (no 5xx, every 4xx names a
# parameter, every score body consistent with itself; seed corpora also
# run under plain `make test`).
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/graph/ -fuzz FuzzPackEdge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/ -fuzz FuzzEdgeTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/ -fuzz FuzzBuildAdjacency -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tripoll/ -fuzz FuzzOrientedPatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pushshift/ -fuzz FuzzRead -fuzztime $(FUZZTIME)
	$(GO) test ./internal/interner/ -fuzz FuzzInterner -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream/ -fuzz FuzzLeaseTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzLenientTS -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzScanner -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzFrameScanner -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hypergraph/ -fuzz FuzzEvaluateAll -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ygmnet/ -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/detectd/ -fuzz FuzzReadQuery -fuzztime $(FUZZTIME)

# Captures for the repo-root result files.
test-output:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench-output:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

bench:
	$(GO) test -bench=. -benchmem .

# One traced end-to-end run of the offline workload (BENCHMARK.json's
# entry point; everything it writes stays under bench/out).
bench-e2e:
	bash bench/run.sh --workload batch-archive --seed 1 --seconds 20 --trace 1

# Patched-vs-rebuilt oriented adjacency maintenance across dirty
# fractions; writes the JSON report and enforces the >=3x floor at <=1%
# dirty (several minutes on the 80k-author corpus).
bench-adjacency:
	BENCH_ADJACENCY_OUT=BENCH_adjacency.json $(GO) test -run TestWriteAdjacencyBench -v -timeout 60m .

# Warm-vs-cold community clustering of the pruned graph across churn
# fractions; writes the JSON report and enforces the >=3x floor at <=1%
# dirty (several minutes on the 80k-author corpus).
bench-community:
	BENCH_COMMUNITY_OUT=BENCH_community.json $(GO) test -run TestWriteCommunityBench -v -timeout 60m .

# Multi-signal vs single-signal ingest and projection throughput on the
# multi-signal campaign corpus; writes the JSON report and enforces the
# <=2x-per-added-signal throughput bar on both paths.
bench-signals:
	BENCH_SIGNALS_OUT=BENCH_signals.json $(GO) test -run TestWriteSignalsBench -v -timeout 60m .

# End-to-end ingest fast path (wire decode + batch intern + projector
# apply) in both wire formats; writes the JSON report and enforces <=0.4
# heap allocations per comment.
bench-ingest:
	BENCH_INGEST_OUT=BENCH_ingest.json $(GO) test -run TestWriteIngestBench -v -timeout 60m .

# Full-scale reproduction of every paper artifact (~10 min).
experiments:
	$(GO) run ./cmd/experiments -scale 1.0 -out results

# Each example must exit 0 and print its verdict line (fixed string).
example = out=$$($(GO) run ./examples/$(1)) && printf '%s\n' "$$out" && \
	printf '%s\n' "$$out" | grep -qF -- '$(2)' || \
	{ echo "examples: $(1) failed or did not print: $(2)" >&2; exit 1; }

examples:
	@$(call example,quickstart,P=1.000 R=0.818)
	@$(call example,gpt2net,30/30 members are planted GPT-2 bots)
	@$(call example,sharereshare,reshare: density 0.91)
	@$(call example,windowsweep,n=145270)
	@$(call example,refine,[ring_000 ring_001 ring_002 ring_003 ring_004 ring_005])
	@$(call example,baselinecompare,benign cohort members flagged: 6/6)
	@$(call example,distributed,P=1.000 R=0.818)
	@$(call example,daemon,live score for the cast: min weight 32)

clean:
	rm -rf results test_output.txt bench_output.txt
