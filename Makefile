# HydraDB development entry points. CI (.github/workflows/ci.yml) runs the
# same targets; keeping them here means a laptop run and a CI run cannot
# drift apart.

GO        ?= go
FUZZTIME  ?= 20s

.PHONY: all build vet test race lint lint-budget lint-budget-write lint-sarif lint-spec deep-lint kill-matrix fuzz-smoke debug-test bench-smoke chaos-smoke sim-smoke cover ci

all: build test

# The darwin vet keeps the !linux no-op of the huge-page advice compiling.
build:
	$(GO) build ./...
	$(GO) build -tags hydradebug ./...
	GOOS=darwin $(GO) vet ./internal/arena ./internal/hashtable ./internal/kv

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector complements hydralint's static shard-exclusivity check:
# the linter proves no locks/goroutines exist on the hot path, the race
# detector proves the remaining sharing (mailbox words, guardian words,
# conns snapshots) is correctly synchronized.
race:
	$(GO) test -race ./...

# Static invariants (clock discipline, shard exclusivity, atomic-word
# hygiene, error discipline, the protocolspec checks). Non-zero exit on any
# unsuppressed finding. Allocation budgets, cache-line layouts and goroutine
# stop paths are pinned by tests, -race and hydradebug instead.
lint:
	$(GO) run ./cmd/hydralint ./...

# lint plus the suppression ratchet: fails when the repo-wide count of
# ignore directives exceeds the checked-in baseline
# (.hydralint-budget). Raising the budget is a reviewed change to that file;
# lowering it is `make lint-budget-write`.
lint-budget:
	$(GO) run ./cmd/hydralint -budget .hydralint-budget ./...

lint-budget-write:
	$(GO) run ./cmd/hydralint -budget-write .hydralint-budget ./...

# Machine-readable findings for code-scanning upload (written even when clean).
lint-sarif:
	$(GO) run ./cmd/hydralint -sarif hydralint.sarif ./...

# The declarative-spec loop (DESIGN.md §16): the spec engine's self-tests
# (seeded-bug fixtures, the publication-order golden, README table sync)
# and the kill matrix's drift checks (every mutant's old text still occurs
# exactly once, and every non-meta check of the registry is aimed at by a
# mutant; seconds, unlike `make kill-matrix`).
lint-spec:
	$(GO) test -count=1 -run 'Spec|Golden|ReadmeSync' ./cmd/hydralint
	$(GO) test -count=1 -tags killmatrix -run 'TestKillMatrixMutants' ./cmd/hydralint

# Nightly lint (.github/workflows/nightly.yml): the budgeted lint, the
# SARIF log and the spec self-tests in one target.
deep-lint: lint-budget lint-sarif lint-spec

# The kill matrix (DESIGN.md §11): 64 one-site semantic mutants of the data
# path, each run against build, vet, every hydralint check, the package
# tests, the rest of tier-1, -race, hydradebug and (for the control-plane
# packages) the chaos smoke; the table of first and sole killers is
# rewritten into KILLMATRIX.md. About 85 minutes on a 2-core host, so it is
# not part of ci.
kill-matrix:
	$(GO) test -tags killmatrix -run 'TestKillMatrix$$' -count=1 -timeout 0 -v ./cmd/hydralint

# Short fuzz pass over the wire codecs, the client pointer cache (against a
# map model, across grows and epoch drops) and the stage rig's lfmap; go test
# -fuzz accepts only one package per invocation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzBucketEncodeDecode -fuzztime=$(FUZZTIME) ./internal/hashtable
	$(GO) test -run='^$$' -fuzz=FuzzMessageRoundTrip -fuzztime=$(FUZZTIME) ./internal/message
	$(GO) test -run='^$$' -fuzz=FuzzMailboxRing -fuzztime=$(FUZZTIME) ./internal/message
	$(GO) test -run='^$$' -fuzz=FuzzPtrCacheAgainstModel -fuzztime=$(FUZZTIME) ./internal/client
	$(GO) test -run='^$$' -fuzz=FuzzMapAgainstModel -fuzztime=$(FUZZTIME) ./internal/lfmap

# The yardstick's own checks (benchmark/, a nested module that `go test
# ./...` does not reach): vet plus its smoke tests, which run every
# workload briefly untraced and traced and check that every workload
# BENCHMARK.json names exists with the same description. A root-module
# change that breaks benchmark/ fails here rather than when the benchmark
# next runs. The last line only keeps the fabric's parallel-read benchmark
# compiling; a fixed count times nothing (RunParallel then refills its
# shared iteration counter almost every op), so measure it with the default
# -benchtime. The store's uniform 1 M-key GET benchmark runs once to keep
# its setup working; compare it across builds with a larger -benchtime.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...
	$(GO) test -run '^$$' -bench Parallel -benchtime 1000x -cpu 1,2 ./internal/rdma
	$(GO) test -run '^$$' -bench StoreGetUniform -benchtime 1000x ./internal/kv

# Runtime sanitizers: goroutine-ownership assertions, arena double-free /
# use-after-free canaries, guardian-word validation at the fabric boundary.
debug-test:
	$(GO) test -tags hydradebug ./...

# Chaos smoke (DESIGN.md §10): every scenario — crash-primary,
# partition-secondary, leader-kill, stop-drain — under seeded link faults
# and scripted node failures, each run checked for per-key linearizability,
# lost acked writes and leaked goroutines; then the armed seeded-bug
# self-test, which must exit non-zero or the oracle is blind. Bounded seeds
# keep the pass in seconds; a failing run prints a one-line schedule for
# `hydrachaos -replay`.
CHAOSSEEDS   ?= 3
CHAOSTIMEOUT ?= 600
chaos-smoke:
	timeout $(CHAOSTIMEOUT) $(GO) run ./cmd/hydrachaos -seed 1 -seeds $(CHAOSSEEDS) -clients 3 -ops 100 -keys 16
	! timeout $(CHAOSTIMEOUT) $(GO) run ./cmd/hydrachaos -scenario crash-primary -bug -clients 2 -ops 60 -keys 8

# Fleet-simulator smoke (DESIGN.md §15): every named scenario at smoke
# scale with its invariant checks, then the armed seeded-bug self-test,
# which must exit non-zero or the scenario checkers are blind. `timeout`
# backstops an event-loop regression turning the bounded run into a hang.
# SIMJSON captures the canonical results (CI uploads it as an artifact).
SIMTIMEOUT ?= 300
SIMJSON    ?= sim-results.json
sim-smoke:
	timeout $(SIMTIMEOUT) $(GO) run ./cmd/hydrasim -scenario all -scale smoke -seed 1 -json $(SIMJSON) > /dev/null
	! timeout $(SIMTIMEOUT) $(GO) run ./cmd/hydrasim -scenario promotion-storm -scale smoke -seed 1 -bug stuck-promotion -json /dev/null > /dev/null 2>&1

# Per-package statement coverage, so the HA packages' verification gain is
# visible at a glance.
cover:
	$(GO) test -cover ./... | grep -v "no test files"

ci: build vet lint-budget lint-spec test race debug-test bench-smoke fuzz-smoke chaos-smoke sim-smoke
