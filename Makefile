# Standard entry points; `make ci` is what the workflow runs on every
# push, `make fuzz` is the scheduled deep run, `make bench-gate` is the
# pull-request performance gate (the change against its merge-base).

.PHONY: build vet test short race engine bench bench-gate chaos ci fuzz soak serve lint watch parity e2e trace-counters trace-allocs

# Per-target budget for the native fuzz engines in `make fuzz`.
FUZZTIME ?= 60s
# Number of generated chains the nightly differential sweep checks (plus a
# tenth as many landscape populations through the label layers).
ORACLE_SWEEP ?= 500
# Extra corpus seeds for the nightly chaos sweep (0 = pinned seeds only).
CHAOS_SWEEP ?= 0
# Extra timeline seeds for the nightly watch sweep (0 = pinned seeds only).
WATCH_SWEEP ?= 0
# Fresh corpus seeds for the nightly interpreter-parity widening.
INTERP_SWEEP ?= 100
# Path for the watch sweep's per-cell follower stats JSON (empty = none).
WATCH_REPORT ?=
# Extra flags for the end-to-end benchmark (`make e2e E2E_ARGS='-seconds 2'`).
E2E_ARGS ?=
# Corpus size for the streaming soak and its asserted peak-heap ceiling.
# A 1M run measures ~0.6 GiB peak heap; the 2 GiB ceiling leaves headroom
# for GC pacing noise while still catching per-contract retention leaks.
SOAK_CONTRACTS ?= 1000000
SOAK_MAX_HEAP_MB ?= 2048

build:
	go build ./...

vet:
	go vet ./...

# Custom vet passes. readerpanic enforces the chain.Reader error
# contract: every Reader read must run under chain.CaptureReadError.
lint:
	go run ./cmd/readerpanic .

test:
	go test ./...

# Tier-1 gate: small fixed corpora only, wide sweeps skipped.
short:
	go test -short ./...

race:
	go test -race -short ./...

# Streaming-engine gate: the tests whose outcome depends on how the
# scheduler interleaves the workers (one address per turn, window bound,
# ordered emission, cancel, goroutine accounting, FuzzStreamWindow's
# seeds), on goroutines sharing a
# per-bytecode record (concurrent artifact fill, LRU eviction, the probe's
# halt, the verdict swapped out by Invalidate under concurrent duplicates),
# on followers racing to run a clone family's leader check, or on callers
# sharing a detector (single calls against the stream, eight goroutines of
# single calls, two streams at once), repeated under the race detector.
# -race reports neither a hang nor a leak: the timeout does.
engine:
	go test -race -count=10 -timeout 10m -run 'Stream|Engine|Tracker|Window|Artifact|LRU|Halt|Structural|Verdict|Invalidate|Record' ./internal/proxion

bench:
	go test -run '^$$' -bench . -benchmem ./...

# Performance gate: the working tree against its merge-base with
# origin/main in three alternated bench/e2e pairs of two seconds a
# workload (proxbench ab); non-zero exit on a metric worse than its
# BENCHMARK.json bound, a wrong answer or a failed operation. The table
# is written to BENCH_ab.json.
bench-gate:
	base=$$(git merge-base HEAD origin/main) && \
		go run ./cmd/proxbench ab -pairs 3 -out BENCH_ab.json $$base -- -seconds 2

# End-to-end + per-layer ruler (BENCHMARK.json's command): all six
# workloads, every answer checked against the generators' labels; exits
# non-zero on a wrong answer. CI runs it at `-seconds 2` as a correctness
# smoke only — timings belong to the benchmark driver, not to CI.
e2e:
	go run ./bench/e2e $(E2E_ARGS)

# Traced counters: the count-unit lines of one traced bench/e2e walk,
# sorted, as "workload metric value". Diff two builds' outputs to show a
# change moved no counter. The per-operation allocation averages
# (*_allocs*) are left out: proxion.check_cold_allocs, evm.call_allocs and
# static.analyze_allocs differ between two runs of the same build.
trace-counters:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		go run ./bench/e2e -trace 1 -seed 3 -out "$$dir" > "$$dir/trace.txt" && \
		awk '$$4 == "count" && $$2 !~ /allocs/ { print $$1, $$2, $$3 }' "$$dir/trace.txt" | sort

# Traced allocations: the *_allocs* rows (allocations per operation of a
# layer: evm.call_allocs, pair.analyze_allocs, proxion.check_cold_allocs,
# ...) of the same traced walk as trace-counters, sorted, as "workload
# metric value". Run it on two builds for a per-layer before and after;
# the averages move a little between two runs of one build.
trace-allocs:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		go run ./bench/e2e -trace 1 -seed 3 -out "$$dir" > "$$dir/trace.txt" && \
		awk '$$4 == "count" && $$2 ~ /allocs/ { print $$1, $$2, $$3 }' "$$dir/trace.txt" | sort

# Service gate: the proxiond stack (verdict store + serve layer) under the
# race detector — crash/restart recovery, K-concurrent coalescing, the
# matrix over the concurrency bound, a stuck analysis stalling nobody, a
# panicking one releasing its waiters, Close draining what is in flight,
# the in-process loadtest, and the bytes on the wire: TestGoldenBodies
# holds the /v1/verdict, /v1/collisions, /v1/static, /v1/verdicts and
# /v1/scan bodies of `proxiond -contracts 300 -seed 7`, and the store it
# writes, to internal/serve/testdata/golden (`-update` rewrites it).
# LOADTEST_REPORT (a path) makes the loadtest write its p50/p99 JSON
# artifact; the nightly job raises LOADTEST_REQUESTS/LOADTEST_CONCURRENCY.
serve:
	LOADTEST_REPORT=$(LOADTEST_REPORT) go test -race ./internal/store ./internal/serve/... -count=1 -timeout 20m

# Chaos matrix under the race detector: every fault profile x pinned seed
# through the whole pipeline, plus the fault-parity oracle layers and the
# resilient-client concurrency tests. CHAOS_SWEEP=N adds N fresh seeds.
chaos:
	CHAOS_SWEEP=$(CHAOS_SWEEP) go test -race ./internal/faultchain -count=1 -timeout 30m
	go test -race ./internal/gen/oracle -run 'Fault|MinimizeFaultSchedule' -count=1 -timeout 30m

# Live-following gate under the race detector: the chain follower
# replayed block-by-block over scripted upgrade timelines — parity vs
# cold end-state analysis (clean and under chaos), the landscape-scale
# surgical-invalidation proof, the reorg/beacon/restart edge cases, the
# hand-built proxies whose kept or dropped verdicts must match a cold
# analysis, and proxwatch's event log and stats held to their goldens.
# The detector's and the server's own invalidation tests (what Invalidate
# keeps and drops, duplicates analyzed while slots and beacons are
# rewritten, an upgrade racing an in-flight lookup) already run under
# -race in `make engine` and `make serve`.
# WATCH_SWEEP=N adds N fresh timeline seeds; WATCH_REPORT (a path) makes
# the sweep write its per-cell follower stats JSON artifact.
watch:
	WATCH_SWEEP=$(WATCH_SWEEP) WATCH_REPORT=$(WATCH_REPORT) go test -race ./internal/watch ./cmd/proxwatch -count=1 -timeout 30m

# Interpreter lockstep gate under the race detector: the shipped
# pre-decoded EVM loop and the reference loop kept in internal/evm's tests,
# executed against identical state and diffed on every observable —
# structlog traces, call trees, outputs, gas, and state-mutation order —
# over hand-written control-flow idioms, boundary sweeps, halted runs and
# the full generator taxonomy. INTERP_SWEEP=N widens the corpus sweep with
# N fresh seeds.
parity:
	INTERP_SWEEP=$(INTERP_SWEEP) go test -race ./internal/evm \
		-run 'Parity|Halt' -count=1 -timeout 30m

# Bounded-memory streaming soak: one long stream-landscape run (default
# 1M contracts, ~6 minutes) with per-item latency percentiles and peak
# heap/RSS in the report; exits non-zero if peak heap crosses the
# ceiling. The nightly job runs this; pull requests run bench-gate.
soak:
	go run ./cmd/proxbench soak -contracts $(SOAK_CONTRACTS) \
		-max-heap-mb $(SOAK_MAX_HEAP_MB) -out BENCH_soak.json

ci: build vet race

# Deep verification: the wide differential-oracle sweep over freshly
# generated chains, and the interpreter lockstep over the same chains, then
# every native fuzz target (each seeded from the generator's corpus) for
# FUZZTIME apiece.
fuzz:
	ORACLE_SWEEP=$(ORACLE_SWEEP) go test ./internal/gen/oracle -run TestOracleSweep -count=1 -timeout 30m
	ORACLE_SWEEP=$(ORACLE_SWEEP) INTERP_SWEEP=0 go test ./internal/evm -run TestInterpParitySweep -count=1 -timeout 30m
	go test ./internal/gen/oracle -run '^$$' -fuzz FuzzGeneratorOracle -fuzztime $(FUZZTIME)
	go test ./internal/evm -run '^$$' -fuzz FuzzGeneratorInterpParity -fuzztime $(FUZZTIME)
	go test ./internal/gen/oracle -run '^$$' -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)
	go test ./internal/u256 -run '^$$' -fuzz FuzzU256VsBigInt -fuzztime $(FUZZTIME)
	go test ./internal/keccak -run '^$$' -fuzz FuzzKeccakParity -fuzztime $(FUZZTIME)
	go test ./internal/evm -run '^$$' -fuzz FuzzExecuteArbitraryBytecode -fuzztime $(FUZZTIME)
	go test ./internal/evm -run '^$$' -fuzz FuzzProxyProbe -fuzztime $(FUZZTIME)
	go test ./internal/evm -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	go test ./internal/evm -run '^$$' -fuzz FuzzInterpParity -fuzztime $(FUZZTIME)
	go test ./internal/evm -run '^$$' -fuzz FuzzHaltParity -fuzztime $(FUZZTIME)
	go test ./internal/disasm -run '^$$' -fuzz FuzzDisassemble -fuzztime $(FUZZTIME)
	go test ./internal/static -run '^$$' -fuzz FuzzStaticAnalyze -fuzztime $(FUZZTIME)
	go test ./internal/static -run '^$$' -fuzz FuzzFamilyKey -fuzztime $(FUZZTIME)
	go test ./internal/proxion -run '^$$' -fuzz FuzzTemplatePromotion -fuzztime $(FUZZTIME)
	go test ./internal/proxion -run '^$$' -fuzz FuzzSlicerMatchesReference -fuzztime $(FUZZTIME)
	go test ./internal/proxion -run '^$$' -fuzz FuzzStreamWindow -fuzztime $(FUZZTIME)
	go test ./internal/serve -run '^$$' -fuzz FuzzVerdictJSON -fuzztime $(FUZZTIME)
