# Tier-1 verify is `make build test`; `make check` is the tier-2
# pre-merge gate (vet + dtnlint + race + fuzz corpora, see
# scripts/check.sh and DESIGN.md "Determinism contract").

GO ?= go
CMDS := dtnsim nclstat experiments tracegen dtnlint benchjson obsdump dtnserved dtnload

.PHONY: build test check smoke serve-smoke crash-smoke fuzz lint lint-fix-check bench bench-suite clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) run ./cmd/dtnlint -tests ./...

# Stale-suppression sweep: fail when a //lint:allow directive no longer
# suppresses anything, so fixed violations shed their annotations.
lint-fix-check:
	$(GO) run ./cmd/dtnlint -tests -stale-allows ./...

check:
	./scripts/check.sh

# CI-style smoke: every cmd/ binary must build and serve its --help.
smoke:
	@mkdir -p bin
	@for c in $(CMDS); do \
		$(GO) build -o bin/$$c ./cmd/$$c || exit 1; \
		./bin/$$c --help >/dev/null 2>&1 || { echo "smoke: $$c --help failed"; exit 1; }; \
		echo "smoke: $$c ok"; \
	done

# End-to-end service gate: dtnserved on an ephemeral port driven by
# dtnload — live publish/query with exact /metrics bookkeeping, then a
# batch replay whose /report must byte-match dtnsim -report-json.
serve-smoke:
	./scripts/serve_smoke.sh

# Durability gate: kill -9 a WAL-journaling dtnserved mid-load, restart
# it from the log, and require byte-identical /report + /v1/status
# against an uninterrupted run; plus the overload-shedding cell.
crash-smoke:
	./scripts/crash_smoke.sh

# The full benchmark suite, shared by bench and bench-suite: the
# pooled event-loop microbenchmarks and the city-scale streaming replay
# with its peak-RSS gate (internal/sim), the end-to-end replay-bound
# single-scheme run (internal/experiment), the knowledge pipeline
# benches including the CSR city build (internal/knowledge), and the
# PR 2 comparison benches for continuity.
BENCH_CMDS = $(GO) test ./internal/sim -run '^$$' -bench Replay -benchmem; \
	$(GO) test ./internal/experiment -run '^$$' -bench Replay -benchtime 1x -benchmem; \
	$(GO) test ./internal/knowledge -run '^$$' -bench . -benchtime 2x -benchmem; \
	$(GO) test ./internal/experiment -run '^$$' -bench RunComparison -benchtime 1x -benchmem;

# The suite summarized as JSON on stdout, with the speedup of one
# shared knowledge provider over per-scheme pipelines. Redirect it to
# record a trend point: make -s bench > BENCH_prN.json.
bench:
	@{ $(BENCH_CMDS) } | $(GO) run ./cmd/benchjson \
	     -ratio run_comparison_speedup=RunComparisonIsolated/RunComparison

# The raw `go test -bench` transcript of the suite, run in the current
# directory's tree. The bench gate in scripts/check.sh runs this
# Makefile's suite in the change's tree and in the parent's
# (make -C <tree> -f <this Makefile> bench-suite).
bench-suite:
	@$(BENCH_CMDS)

fuzz:
	CHECK_FUZZ_TIME=$${CHECK_FUZZ_TIME:-30s} ./scripts/check.sh

clean:
	rm -rf bin
