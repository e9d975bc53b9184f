GO ?= go

.PHONY: all build test race vet fmt lint unused speclint synth fuzz paper specrun-smoke perf-test examples pairs profile benchcheck ci

all: build

build:
	$(GO) build ./...

# test is tier-1. It includes TestPaperClaims, every shape EXPERIMENTS.md
# claims as a predicate over full-scale cells (~20 s on two CPUs), the goldens
# in bench/golden, and TestSerialParallelIdentical, which holds every
# experiment's text and JSON byte-identical at -parallel 1 and 4.
test:
	$(GO) test ./...

# race is the invariant DESIGN.md documents: the -short suite (the long sweeps
# skip themselves) under the race detector.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the Go static analyzers: go vet always, staticcheck when it is on
# PATH. The `lint` job of .github/workflows/ci.yml installs a pinned
# staticcheck and then calls this target; anywhere the tool is missing (the
# build container has neither it nor a network to fetch it) the step is
# skipped with a note rather than failing.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (the lint job in .github/workflows/ci.yml runs it)"; \
	fi

# unused fails on every exported function or method of an internal package
# that nothing outside that package refers to (production code, another
# package's tests, bench/perf, cmd or examples), and on every unexported
# declaration or struct field of one that nothing reads; a method that
# implements an interface is exempt. It is the root package's
# TestNoUnusedExports, a go/parser + go/types scan of the whole tree, so it
# needs no download.
unused:
	$(GO) test -count=1 -run '^TestNoUnusedExports$$' .

# speclint runs the shadow-text verifier over every benchmark app's
# transformed binary; a nonzero exit means a transform invariant does not hold.
speclint:
	$(GO) run ./cmd/spechint -app all -lint
	$(GO) run ./cmd/spechint -app all -lint -no-stack-opt

# synth synthesizes static hints for every benchmark app and audits them
# against a dynamic static-mode run; an unconsumed hint is a nonzero exit.
synth:
	$(GO) run ./cmd/spechint -app all -synthesize

# fuzz runs the native fuzz targets for a short budget each: fault
# containment (core), counted-loop summarisation against the stepping
# interpreter (vm), generated file content against its materialised model
# (workload), scan-loop kernels against the stepping interpreter (vm), then a
# disk's service order against its naive model (disk).
fuzz:
	$(GO) test -fuzz=FuzzRun -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzCountedLoop -fuzztime=10s -run '^$$' ./internal/vm
	$(GO) test -fuzz=FuzzFileContent -fuzztime=10s -run '^$$' ./internal/workload
	$(GO) test -fuzz=FuzzScanLoop -fuzztime=10s -run '^$$' ./internal/vm
	$(GO) test -fuzz=FuzzDiskOrder -fuzztime=10s -run '^$$' ./internal/disk

# paper regenerates the paper canon: every registry experiment at full scale,
# one file per experiment, bench/paper/NAME.txt, holding exactly the report
# text tipbench prints under its "==== NAME ====" header (the wall-clock
# "(NAME in Xs)" footer dropped). Every measured table in EXPERIMENTS.md is a
# fenced quote of one of these files, held byte-equal by TestPaperCanon; `go
# test ./internal/bench -run PaperCanon -update` rewrites the fences from the
# files. CI runs this target and fails if the committed canon differs. 37 s
# median wall (six runs, 32-50 s) and ~1 GB peak RSS on a 2-CPU box, each
# configuration simulated once (DESIGN.md); the raw output stays in
# .bench_build/.
paper:
	@mkdir -p .bench_build
	$(GO) run ./cmd/tipbench -exp all -scale full > .bench_build/paper.out
	rm -f bench/paper/*.txt
	awk '/^==== .* ====$$/ { f = "bench/paper/" $$2 ".txt"; next } \
		/^\(/ { if (f) close(f); f = ""; next } \
		f { print > f }' .bench_build/paper.out

# specrun-smoke drives a built specrun (exit codes need a real process: `go
# run` collapses every nonzero child status to 1) over examples/progs/seqsum.s,
# whose ten inputs it generates once. A captured trace replays to exit 0 or 4
# (a replay program exits with its read digest), never a tool error; a
# malformed trace is exit 1 naming its line; with its inputs missing the
# program ends on the failed open (exit 4) well within a deadline. The traced
# run and the multi sweep export well-formed trace JSON with no dropped event,
# and the stall buckets sum to the elapsed cycles exactly. The inputs and the
# binary stay in .bench_build/; cap.trace, trace.json, metrics.json, run.json
# and multi-trace.json are written here for CI to upload.
specrun-smoke:
	@mkdir -p .bench_build/seqsum/data .bench_build/seqsum/empty
	$(GO) build -o .bench_build/specrun ./cmd/specrun
	for i in 0 1 2 3 4 5 6 7 8 9; do \
		head -c $$((20000 + i * 1000)) /dev/zero | tr '\0' x > .bench_build/seqsum/data/part$$i; done
	.bench_build/specrun -file examples/progs/seqsum.s -dir .bench_build/seqsum -q -capture cap.trace
	rc=0; .bench_build/specrun -trace-file cap.trace -mode spec -q || rc=$$?; test $$rc -eq 0 -o $$rc -eq 4
	printf 'open a\nread 0\nclose\n' > .bench_build/seqsum/bad.trace
	rc=0; .bench_build/specrun -trace-file .bench_build/seqsum/bad.trace 2> .bench_build/seqsum/bad.err || rc=$$?; \
		test $$rc -eq 1 && grep -q 'trace: line 2:' .bench_build/seqsum/bad.err
	rc=0; .bench_build/specrun -file examples/progs/seqsum.s -dir .bench_build/seqsum/empty -q -deadline 100000000 || rc=$$?; \
		test $$rc -eq 4
	.bench_build/specrun -file examples/progs/seqsum.s -dir .bench_build/seqsum -mode spec -q -json \
		-trace-json trace.json -metrics-json metrics.json > run.json
	jq -e '.traceEvents | length > 0' trace.json
	jq -e '[.traceEvents[] | select(.ph == "X")] | length > 0' trace.json
	jq -e '.otherData.dropped_events == 0' trace.json
	jq -e '.points | length > 0' metrics.json
	jq -e '(.stats.Buckets | .Compute + .SpecOverhead + .HintedStall + .UnhintedStall + .FaultStall + .SchedWait) == (.stats.Elapsed | tonumber)' run.json
	$(GO) run ./cmd/tipbench -exp multi -scale test -trace-json multi-trace.json
	jq -e '.traceEvents | length > 0' multi-trace.json

# perf-test builds and tests the nested benchmark module (bench/perf imports
# internal/bench but `go build ./...` does not descend into it), so a change
# that breaks the frozen benchmark fails here, not in the next bench run.
perf-test:
	cd bench/perf && $(GO) build -o /dev/null . && $(GO) test .

# pairs runs N alternating parent/change pairs of benchmark workload W (the
# parent is PARENT's committed tree, the change this checkout as it stands) and
# prints each side's median and quartiles per end-to-end metric, the pairs won,
# and whether every virt_* was exactly equal: `make pairs W=replay_modern
# PARENT=HEAD~1 [SEED=1] [N=10]`. It edits nothing under bench/perf.
SEED ?= 1
N ?= 10
pairs:
	@bash scripts/pairs.sh "$(W)" "$(PARENT)" $(SEED) $(N)

# profile CPU-profiles the root benchmarks matching B and prints the top of
# the profile: `make profile B='Cluster/capacity/N=256'`. The profile and the
# test binary pprof reads it with stay in .bench_build/.
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(B)' -o .bench_build/bench.test -cpuprofile .bench_build/cpu.prof .
	$(GO) tool pprof -top .bench_build/bench.test .bench_build/cpu.prof

# benchcheck runs every Go benchmark of the module once, so that a change that
# breaks one (BenchmarkSoloHinted and BenchmarkCluster read tip.PumpWork) fails
# here rather than in the next profile. It times nothing worth keeping.
benchcheck:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# examples runs every program under examples/ (tier-1 only compiles them;
# each is a complete core.New(...).Run() walkthrough that panics or exits
# nonzero if its run fails) and stops at the first nonzero exit.
examples:
	@set -e; for p in $$($(GO) list ./examples/...); do \
		echo "== $$p"; $(GO) run $$p > /dev/null; done

# ci runs what the three jobs of .github/workflows/ci.yml run: the ci job's
# steps, lint (go vet and staticcheck) and race.
ci: lint fmt unused build test race speclint synth paper specrun-smoke perf-test benchcheck examples fuzz
