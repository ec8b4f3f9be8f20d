#!/usr/bin/env bash
# Tier-2 pre-merge gate: everything the determinism contract depends on.
#
#   go vet            — stock correctness vet
#   bench module      — vet and short-test the nested bench/ module
#                       (its own go.mod, so ./... above never builds it)
#   gofmt -l          — formatting of every non-generated Go file
#   dtnlint           — the determinism + concurrency-readiness lint
#                       suite (see DESIGN.md "Static analysis"),
#                       including the stale //lint:allow sweep
#   go test -race     — full test suite with the race detector, which
#                       also exercises the parallel-sweep determinism
#                       regression test under racing workers
#   fuzz corpora      — replays the checked-in fuzz seed corpora as
#                       unit tests (short mode)
#   bench gate        — the benchmark suite on this tree and on its
#                       base revision, same machine, paired
#
# Set CHECK_FUZZ_TIME (e.g. CHECK_FUZZ_TIME=30s) to additionally run
# each fuzz target for that long.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

# bench/ is a nested module: neither ./... pattern here reaches it, so
# an API change that breaks dtnbench would otherwise surface only when
# the benchmark runs.
echo "== bench module: go vet + go test -short"
go -C bench vet ./...
go -C bench test -short ./...

# Formatting: every hand-written Go file must be gofmt-clean. Generated
# files (the standard "// Code generated ... DO NOT EDIT." header) and
# the benchmark's build tree are skipped.
echo "== gofmt -l"
mapfile -t unformatted < <(find . \( -path ./.git -o -path ./.bench_build \) -prune -o \
    -name '*.go' -type f -print0 | xargs -0 -r grep -L '^// Code generated .* DO NOT EDIT\.$' |
    xargs -r gofmt -l)
if [[ ${#unformatted[@]} -gt 0 ]]; then
    printf 'check: not gofmt-clean: %s\n' "${unformatted[@]}" >&2
    exit 1
fi

echo "== dtnlint ./..."
go run ./cmd/dtnlint ./...

# The determinism-sensitive packages declare themselves with a
# //dtn:determinism package-doc marker; discover the set from the
# markers instead of hand-maintaining a list here (the marker set is
# itself pinned to analysis.DeterministicPackages by
# TestDeterminismMarkerMatchesScope, so neither can drift silently).
# Lint them explicitly with in-package tests so a scope regression in
# the analyzer list cannot hide them.
echo "== dtnlint -tests (determinism-sensitive packages, marker-discovered)"
mapfile -t det_pkgs < <(grep -rl --include='*.go' --exclude='*_test.go' \
    '^//dtn:determinism\( \|$\)' internal | xargs -r -n1 dirname | sort -u | sed 's|^|./|')
if [[ ${#det_pkgs[@]} -eq 0 ]]; then
    echo "check: no //dtn:determinism packages discovered" >&2
    exit 1
fi
if ! printf '%s\n' "${det_pkgs[@]}" | grep -qx './internal/sim'; then
    echo "check: marker discovery missed ./internal/sim" >&2
    exit 1
fi
go run ./cmd/dtnlint -tests "${det_pkgs[@]}"

# Stale-suppression sweep: a //lint:allow whose violation is gone must
# be deleted, or dead directives accumulate and hide future findings.
echo "== dtnlint -tests -stale-allows ./..."
make --no-print-directory lint-fix-check

echo "== go test -race ./..."
go test -race ./...

# The fault engine runs churn goroutine-free on the event heap, but its
# recovery paths (CloseNode, buffer wipe, re-replication) cut across
# scheme and driver state; race-test the package explicitly so a later
# parallelization cannot slip by.
echo "== go test -race ./internal/fault/..."
go test -race -count=1 ./internal/fault/...

echo "== fuzz seed corpora (short mode)"
go test -count=1 -run '^Fuzz' ./internal/trace ./internal/knapsack ./internal/sim \
    ./internal/obs ./internal/analysis ./internal/wal ./internal/mathx ./internal/graph \
    ./internal/scheme ./internal/provenance ./cmd/dtnserved

# Run-trace byte identity: record the same Infocom05 run twice and
# require identical bytes — the determinism guarantee DESIGN.md's
# "Observability" section documents. T_L=12h so queries are actually
# issued and the trace carries provenance spans: the identity check
# then also pins the span encoding, and the grep asserts the spans are
# really there (an empty-workload run would pass cmp vacuously).
# Set CHECK_SKIP_TRACE_ID=1 to skip.
if [[ -z "${CHECK_SKIP_TRACE_ID:-}" ]]; then
    echo "== run-trace byte identity (Infocom05 x2, span-bearing)"
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    go run ./cmd/dtnsim -trace Infocom05 -scheme Intentional -tl 12h \
        -report-json -trace-out "$tmpdir/t1.ndjson" > "$tmpdir/t1.json"
    go run ./cmd/dtnsim -trace Infocom05 -scheme Intentional -tl 12h \
        -report-json -trace-out "$tmpdir/t2.ndjson" > "$tmpdir/t2.json"
    cmp "$tmpdir/t1.json" "$tmpdir/t2.json"
    cmp "$tmpdir/t1.ndjson" "$tmpdir/t2.ndjson"
    grep -q '"k":"span"' "$tmpdir/t1.ndjson" || {
        echo "check: no span events in the Infocom05 run-trace" >&2; exit 1; }
    echo "trace byte identity: OK ($(wc -l < "$tmpdir/t1.ndjson") lines, spans present)"
    # The deliver spans are the trace's one record of answered queries:
    # one per query the report counts satisfied.
    delivers=$(grep -c '"op":"deliver"' "$tmpdir/t1.ndjson" || true)
    satisfied=$(sed -n 's/^ *"QueriesSatisfied": *\([0-9]*\),$/\1/p' "$tmpdir/t1.json")
    [[ -n "$satisfied" && "$delivers" == "$satisfied" ]] || {
        echo "check: $delivers deliver spans, report says ${satisfied:-?} queries satisfied" >&2; exit 1; }
    echo "trace answers match report: OK ($delivers deliver spans)"

    # Same guarantee under fault injection: a seeded churn + failover run
    # must replay its failure timeline byte-for-byte.
    echo "== faulted run-trace byte identity (Infocom05 + churn x2)"
    go run ./cmd/dtnsim -trace Infocom05 -scheme Intentional -tl 3h \
        -fault-churn 2 -fault-downtime 2h -retry 20m -ncl-failover \
        -invariants -trace-out "$tmpdir/f1.ndjson" >/dev/null
    go run ./cmd/dtnsim -trace Infocom05 -scheme Intentional -tl 3h \
        -fault-churn 2 -fault-downtime 2h -retry 20m -ncl-failover \
        -invariants -trace-out "$tmpdir/f2.ndjson" >/dev/null
    cmp "$tmpdir/f1.ndjson" "$tmpdir/f2.ndjson"
    echo "faulted trace byte identity: OK ($(wc -l < "$tmpdir/f1.ndjson") lines)"

    # Streaming replay byte identity: the same preset replayed through
    # the chunked file reader (-stream feeds both the contact driver and
    # the knowledge build from the file) must produce the report and
    # run-trace of the in-memory replay above (t1) byte for byte.
    echo "== streamed replay byte identity (Infocom05 chunked vs in-memory)"
    go run ./cmd/tracegen -preset Infocom05 -format chunked \
        -o "$tmpdir/infocom05.dtnc" 2>/dev/null
    go run ./cmd/dtnsim -tracefile "$tmpdir/infocom05.dtnc" -format chunked -stream \
        -scheme Intentional -tl 12h \
        -report-json -trace-out "$tmpdir/str.ndjson" > "$tmpdir/str.json"
    cmp "$tmpdir/t1.json" "$tmpdir/str.json"
    cmp "$tmpdir/t1.ndjson" "$tmpdir/str.ndjson"
    echo "streamed replay byte identity: OK ($(wc -l < "$tmpdir/str.ndjson") lines)"
fi

# Service smoke: dtnserved + dtnload end to end — live bookkeeping
# exactness and the batch /report byte-identity against dtnsim.
# Set CHECK_SKIP_SERVE=1 to skip.
if [[ -z "${CHECK_SKIP_SERVE:-}" ]]; then
    echo "== serve-smoke (dtnserved + dtnload)"
    ./scripts/serve_smoke.sh
fi

# Crash recovery: kill -9 a WAL-journaling dtnserved mid-load, restart
# it from the log, and require the final /report and /v1/status to
# byte-match an uninterrupted reference run; plus the overload cell
# (shed 429s, retried to an exact -verify). Set CHECK_SKIP_CRASH=1 to
# skip.
if [[ -z "${CHECK_SKIP_CRASH:-}" ]]; then
    echo "== crash-smoke (WAL kill -9 recovery + overload shedding)"
    ./scripts/crash_smoke.sh
fi

# Benchmark gate, same machine and parent-relative: export the base
# revision under .bench_build, run this checkout's suite (make
# bench-suite) in both trees for five rounds that alternate which side
# goes first, and let benchjson -parent compare the per-bench medians.
# A bench fails when it runs below 0.75x the base's speed by more than
# the base's own interquartile range, so a 1.5x slowdown trips it; a
# FAIL line (the CityScaleReplay peak-RSS cap, a failed build) fails it
# too. Benches only the base runs are reported as retired, only the
# change runs as new. The base is CHECK_BENCH_BASE, by default HEAD
# when the working tree has changes and HEAD~1 when it is clean. Set
# CHECK_SKIP_BENCH=1 to skip on very slow machines.
if [[ -z "${CHECK_SKIP_BENCH:-}" ]]; then
    base=${CHECK_BENCH_BASE:-}
    if [[ -z "$base" ]]; then
        base=HEAD~1
        [[ -n "$(git status --porcelain)" ]] && base=HEAD
    fi
    gate=.bench_build/gate
    echo "== bench gate: this tree vs $base ($(git rev-parse --short "$base")), 5 rounds"
    rm -rf "$gate"
    mkdir -p "$gate/base"
    git archive --format=tar "$base" | tar -x -C "$gate/base"
    : > "$gate/base.txt"
    : > "$gate/change.txt"
    for round in 1 2 3 4 5; do
        sides=(base change)
        (( round % 2 == 0 )) && sides=(change base)
        for side in "${sides[@]}"; do
            tree=.
            [[ $side == base ]] && tree=$gate/base
            echo "bench gate: round $round: $side"
            # A failing base is the base's problem: its missing benches
            # show as new. A failing change fails the gate.
            make --no-print-directory -s -C "$tree" -f "$PWD/Makefile" bench-suite >> "$gate/$side.txt" ||
                [[ $side == base ]]
        done
    done
    go run ./cmd/benchjson -o "$gate/gate.json" -parent "$gate/base.txt" "$gate/change.txt"
fi

if [[ -n "${CHECK_FUZZ_TIME:-}" ]]; then
    echo "== fuzzing for ${CHECK_FUZZ_TIME} per target"
    targets=(
        "./internal/trace FuzzRead"
        "./internal/trace FuzzReadCSV"
        "./internal/trace FuzzReadONE"
        "./internal/trace FuzzReadChunked"
        "./internal/knapsack FuzzSolve"
        "./internal/knapsack FuzzProbabilisticSelect"
        "./internal/mathx FuzzHypoexpCDF"
        "./internal/sim FuzzEventHeapOrdering"
        "./internal/graph FuzzPathsInto"
        "./internal/scheme FuzzQueryStore"
        "./internal/obs FuzzEncodeEvent"
        "./internal/obs FuzzEncodeSpan"
        "./internal/provenance FuzzTracer"
        "./internal/analysis FuzzParseMarker"
        "./internal/analysis FuzzParseAllow"
        "./internal/wal FuzzReadWAL"
        "./cmd/dtnserved FuzzServeRequests"
    )
    for entry in "${targets[@]}"; do
        read -r pkg fn <<<"$entry"
        go test -count=1 -run "^$fn\$" -fuzz "^$fn\$" -fuzztime "$CHECK_FUZZ_TIME" "$pkg"
    done
fi

echo "check: OK"
