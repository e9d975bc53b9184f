GO ?= go

.PHONY: all build test race vet fmt lint unused speclint synth fuzz smoke perf-test examples pairs profile ci

all: build

build:
	$(GO) build ./...

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
# package's tests, bench/perf, cmd or examples); a method that implements an
# interface is exempt. It is the root package's TestNoUnusedExports, a
# go/parser + go/types scan of the whole tree, so it needs no download.
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
# (workload), then scan-loop kernels against the stepping interpreter (vm).
fuzz:
	$(GO) test -fuzz=FuzzRun -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzCountedLoop -fuzztime=10s -run '^$$' ./internal/vm
	$(GO) test -fuzz=FuzzFileContent -fuzztime=10s -run '^$$' ./internal/workload
	$(GO) test -fuzz=FuzzScanLoop -fuzztime=10s -run '^$$' ./internal/vm

# smoke-F runs sweep family F (any tipbench experiment with a -json report)
# at test scale at -parallel 1 and 4, demands byte-identical JSON at both
# widths (speed's JSON is wall-clock, so it is exempt), then checks the
# family's invariants — conservation, bucket sums, arm and round-trip checks —
# from bench/smoke/F.jq. CI calls these targets: there is one copy of each
# smoke. Scratch output stays out of git (BENCH_*.json is ignored).
SMOKES = smoke-multi smoke-faults smoke-cluster smoke-overload smoke-speed smoke-replay

smoke: $(SMOKES)

smoke-%:
	$(GO) run ./cmd/tipbench -exp $* -scale test -parallel 1 -json BENCH_$*_test.json
	$(GO) run ./cmd/tipbench -exp $* -scale test -parallel 4 -json BENCH_$*_test.p4.json
	[ $* = speed ] || diff -u BENCH_$*_test.json BENCH_$*_test.p4.json
	jq -e -f bench/smoke/$*.jq BENCH_$*_test.json

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

# examples runs every program under examples/ (tier-1 only compiles them;
# each is a complete core.New(...).Run() walkthrough that panics or exits
# nonzero if its run fails) and stops at the first nonzero exit.
examples:
	@set -e; for p in $$($(GO) list ./examples/...); do \
		echo "== $$p"; $(GO) run $$p > /dev/null; done

ci: lint fmt unused build test race speclint synth smoke perf-test examples fuzz
