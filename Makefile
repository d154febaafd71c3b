# Verification gates (see ROADMAP.md).
#
# verify       tier-1: build + full test suite + flmlint
# lint         fail if gofmt -l lists any tracked Go file, then build the
#              flmlint vettool and run it over every package via
#              `go vet -vettool` (per-package result caching); the four
#              analyzers machine-check determinism, fingerprint
#              coverage, zero-cost observability, and buffer ownership
#              (see internal/lint)
# verify-race  extended: vet + race-enabled tests; FLM_WORKERS forces the
#              parallel sweep path so the race detector sees real
#              concurrency even on single-core runners
# cache-warm   the cross-process reuse smoke: run the full experiment
#              suite twice against one FLM_CACHE_DIR, require the second
#              run's report byte-identical to the first and its disk
#              hit-rate (disk hits / L1 misses) to clear a pinned floor
# chaos        the CI smoke run: randomized adversaries, pinned seed
# chaos-async  the adversarial-asynchrony smoke: delay schedules plus
#              initially-dead faults, pinned to its own seed/trial pair
# trace-smoke  run E1-E7 under -trace, fold the JSONL with flm stats, and
#              fail if the summary comes out empty, its chain section
#              lists fewer than the 13 theorem families of Theorems 1-6,
#              or it lists other than 20 timedsim.execute spans (E7's
#              five Theorem 8 proofs, each one covering run and three
#              Lemma 9 re-executions) — the end-to-end check on the
#              observability layer
# trace-diff   the behavioral regression gate: a fresh deterministic E1
#              trace (cache off, one worker) must diff clean against the
#              committed reference (-notiming: wall-time shares are
#              machine noise), and the committed regressed fixture must
#              trip the exit-3 gate — proving the gate both passes good
#              traces and fails bad ones

GO ?= go
FLMLINT ?= bin/flmlint
RACE_WORKERS ?= 4
CHAOS_SEED ?= 1
CHAOS_TRIALS ?= 64
ASYNC_CHAOS_SEED ?= 7
ASYNC_CHAOS_TRIALS ?= 48
TRACE_FILE ?= /tmp/flm-trace-smoke.jsonl
CACHE_WARM_DIR ?= /tmp/flm-cache-warm
CACHE_WARM_MIN_RATE ?= 100
TRACE_REF ?= cmd/flm/testdata/e1_reference_trace.jsonl
TRACE_REGRESSED ?= cmd/flm/testdata/e1_regressed_trace.jsonl
TRACE_DIFF_FILE ?= /tmp/flm-trace-diff.jsonl
TRACE_DIFF_THRESHOLD ?= 5

.PHONY: verify verify-race lint cache-warm chaos chaos-async trace-smoke trace-diff

verify: lint
	$(GO) build ./...
	$(GO) test ./...

# gofmt reads the tracked files only, so build output under the
# git-ignored .bench_build/ never counts. The vettool is rebuilt every
# time (it is one small package; go build is a no-op when nothing
# changed) so `make lint` can never run a stale binary. go vet hashes
# the binary into its action IDs, so per-package results are cached
# across runs until the analyzers change.
lint:
	@files=$$(git ls-files '*.go') || exit 1; \
	unformatted=$$(gofmt -l $$files) || exit 1; \
	test -z "$$unformatted" || { echo "lint: gofmt -l lists unformatted files:" >&2; echo "$$unformatted" >&2; exit 1; }
	@mkdir -p $(dir $(FLMLINT))
	$(GO) build -o $(FLMLINT) ./cmd/flmlint
	$(GO) vet -vettool=$(FLMLINT) ./...

verify-race: verify
	$(GO) vet ./...
	FLM_WORKERS=$(RACE_WORKERS) $(GO) test -race ./...

# Both runs are cold processes (go run spawns a fresh binary); only the
# blob store under CACHE_WARM_DIR carries state across. The diff proves
# disk-served results are byte-identical; the -mindiskrate gate (exit 3
# below the floor) proves the second run actually came off disk rather
# than recomputing.
cache-warm:
	rm -rf $(CACHE_WARM_DIR)
	FLM_CACHE_DIR=$(CACHE_WARM_DIR) $(GO) run ./cmd/flm all > $(CACHE_WARM_DIR).cold.txt
	FLM_CACHE_DIR=$(CACHE_WARM_DIR) $(GO) run ./cmd/flm all -trace $(CACHE_WARM_DIR).jsonl > $(CACHE_WARM_DIR).warm.txt
	diff $(CACHE_WARM_DIR).cold.txt $(CACHE_WARM_DIR).warm.txt
	$(GO) run ./cmd/flm stats -mindiskrate $(CACHE_WARM_MIN_RATE) $(CACHE_WARM_DIR).jsonl > $(CACHE_WARM_DIR).stats.txt
	@tail -1 $(CACHE_WARM_DIR).stats.txt

chaos:
	$(GO) run ./cmd/flm chaos -seed $(CHAOS_SEED) -trials $(CHAOS_TRIALS)

chaos-async:
	$(GO) run ./cmd/flm chaos -async -deadset -seed $(ASYNC_CHAOS_SEED) -trials $(ASYNC_CHAOS_TRIALS)

trace-smoke:
	$(GO) run ./cmd/flm run -trace $(TRACE_FILE) E1 E2 E3 E4 E5 E6 E7 > /dev/null
	$(GO) run ./cmd/flm stats $(TRACE_FILE) | tee $(TRACE_FILE).stats.txt
	@grep -q "hit rate" $(TRACE_FILE).stats.txt || { echo "trace-smoke: no cache summary in flm stats output" >&2; exit 1; }
	@grep -q "core.chain.link" $(TRACE_FILE).stats.txt || { echo "trace-smoke: no chain-link spans in flm stats output" >&2; exit 1; }
	@families=$$(grep -c ' chain(s), ' $(TRACE_FILE).stats.txt); \
	test "$$families" -eq 13 || { echo "trace-smoke: the chain section lists $$families theorem families, want 13" >&2; exit 1; }
	@spans=$$(awk '$$1 == "timedsim.execute" { print $$2; exit }' $(TRACE_FILE).stats.txt); \
	test "$$spans" = 20 || { echo "trace-smoke: flm stats lists '$$spans' timedsim.execute spans, want 20" >&2; exit 1; }

# The fresh trace is produced under the same pinned conditions as the
# committed reference (caches off, one worker) so every compared family
# — counters, span counts, cache rates, traffic — is deterministic;
# -notiming drops the wall-time-share family, which is machine noise.
trace-diff:
	$(GO) build -o bin/flm ./cmd/flm
	FLM_RUNCACHE=off FLM_CACHE_DIR=off FLM_WORKERS=1 bin/flm run -trace $(TRACE_DIFF_FILE) E1 > /dev/null
	bin/flm stats -diff $(TRACE_DIFF_FILE) $(TRACE_DIFF_FILE)
	bin/flm stats -diff -notiming -threshold $(TRACE_DIFF_THRESHOLD) $(TRACE_REF) $(TRACE_DIFF_FILE)
	@bin/flm stats -diff -notiming $(TRACE_REF) $(TRACE_REGRESSED) > $(TRACE_DIFF_FILE).gate.txt; \
	status=$$?; \
	test $$status -eq 3 || { echo "trace-diff: injected regression exited $$status, want 3" >&2; cat $(TRACE_DIFF_FILE).gate.txt >&2; exit 1; }; \
	echo "trace-diff: injected regression tripped the exit-3 gate as expected"
