# Developer workflow for the GCX reproduction. CI runs the same steps
# (.github/workflows/ci.yml), so a green `make check bench` locally
# predicts a green pipeline.

GO ?= go

.PHONY: all build test race check lint bench bench-json benchstat loadtest fuzz-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build race lint
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

# lint runs the repo's architectural passes (internal/lint): the
# tokenizer import boundary, the cancellation-polling contract, the
# observability naming/logging conventions (obsnames), the cursor-only
# byte path (hotbytes) and the dead-export scan (unusedexport).
# staticcheck and govulncheck ride along warn-only when installed —
# the build container has no module proxy, so they cannot be hard
# dependencies.
lint:
	$(GO) run ./cmd/gcxlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./... \
		|| echo "warning: staticcheck reported issues (non-blocking)" >&2; \
	else echo "staticcheck not installed; skipping (non-blocking)" >&2; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./... \
		|| echo "warning: govulncheck reported issues (non-blocking)" >&2; \
	else echo "govulncheck not installed; skipping (non-blocking)" >&2; fi

# bench regenerates the committed BENCH_gcx.json perf baseline (also
# wired as `go generate ./...`): the XML cells plus the NDJSON cells
# (gcxbench runs J1,J2,J3 by default). Keep the matrix small enough for
# CI; widen locally with e.g. `go run ./cmd/gcxbench -sizes 1,5 -reps 5`.
bench:
	$(GO) run ./cmd/gcxbench -sizes 1 -queries Q1,Q6,Q8,Q9,Q13 -engines gcx -reps 15 -json BENCH_gcx.json

# bench-json measures only the NDJSON cells (DESIGN.md §8) — a quick
# look at the JSON front end's throughput without the XML matrix. The
# output file is informational, not the committed baseline.
bench-json:
	$(GO) run ./cmd/gcxbench -sizes 1 -queries "" -ndjson-queries J1,J2,J3 -engines gcx -reps 3 -json BENCH_gcx.ndjson.json

# benchstat compares a fresh run against the committed baseline
# (requires golang.org/x/perf's benchstat on PATH or via `go run`).
benchstat:
	$(GO) run ./cmd/gcxbench -sizes 1 -queries Q1,Q6,Q8,Q9,Q13 -engines gcx -reps 3 -json /tmp/BENCH_gcx.new.json
	@command -v jq >/dev/null || { echo "jq required" >&2; exit 1; }
	jq -r '.entries[].gobench' BENCH_gcx.json > /tmp/bench_old.txt
	jq -r '.entries[].gobench' /tmp/BENCH_gcx.new.json > /tmp/bench_new.txt
	-$(GO) run golang.org/x/perf/cmd/benchstat@latest /tmp/bench_old.txt /tmp/bench_new.txt

# loadtest regenerates the committed BENCH_gcxd.json serving-path
# baseline: gcxload drives an in-process gcxd over the default
# query×shards catalog and writes client-observed p50/p95/p99 latency,
# throughput and error rate per cell (DESIGN.md §11). CI runs a shorter
# window (see ci.yml); widen locally with e.g. -duration 10s -c 8.
loadtest:
	$(GO) run ./cmd/gcxload -duration 2s -warmup 500ms -json BENCH_gcxd.json

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzTokenizer -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzSplitter -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzSkipSubtree -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzJSONTokenizer -fuzztime 10s ./internal/jsontok
	$(GO) test -run xxx -fuzz FuzzJSONSkipSubtree -fuzztime 10s ./internal/jsontok
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 10s ./internal/xqparse
	$(GO) test -run xxx -fuzz FuzzStreamBound -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzJoinKeys -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzCursor -fuzztime 10s ./internal/cursor
	$(GO) test -run xxx -fuzz FuzzBytesReaderParity -fuzztime 10s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzJSONBytesReaderParity -fuzztime 10s ./internal/jsontok
