# Mirrors .github/workflows/ci.yml: each target is one CI job, so a green
# `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test placebench-test race fuzz bench bench-gate fmt vet serve-smoke chaos-smoke slo-smoke shard-smoke learn-smoke learn-shard-smoke trace-overhead ci

build:
	$(GO) build ./...

test: placebench-test
	$(GO) test ./...

## placebench-test: the benchmark module's own unit tests. placebench is a
## separate module (replace adrias => ../), so the root ./... never reaches
## it; the unit-test CI job runs this as its own step.
placebench-test:
	cd placebench && $(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: the hand-rolled JSON codec against encoding/json — the fast
## request parser and the response encoder, FUZZTIME (default 30s) each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParsePlaceRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzAppendPlaceResponse$$' -fuzztime=$(FUZZTIME) ./internal/serve

## bench: one iteration of the CI smoke benchmarks (full suite: make bench BENCH=.)
BENCH ?= ^(BenchmarkTable1SystemState|BenchmarkPerfFitWorkers)$$
bench:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchtime=1x .

## bench-gate: the quantized-fast-path gate — batch-8 quant vs float
## benchmarks at one core plus the decision-flip contract replay; writes
## BENCH_quantfast.json and fails on >0 allocs/op, flip rate > 1%, or a
## serve speedup below 1.5x. Tunables: FLIP_BUDGET, MIN_SPEEDUP, BENCHTIME.
bench-gate:
	./scripts/bench_gate.sh

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

## serve-smoke: end-to-end smoke of the placement service (adrias-serve +
## load generator): train fast models, serve, 100 requests, observability
## scrapes (/metrics, /debug/traces, /debug/decisions, pprof), clean drain.
serve-smoke:
	./scripts/serve_smoke.sh

## chaos-smoke: end-to-end chaos test of the graceful-degradation layer:
## serve with a deterministic fault schedule armed, sustain load through the
## adrias-bench chaos harness, require the circuit breaker to trip and
## recover with valid fallback placements throughout.
chaos-smoke:
	./scripts/chaos_smoke.sh

## slo-smoke: end-to-end smoke of the SLO/alerting layer: serve with a
## fault schedule, tightened burn-rate windows, and the wide-event JSONL
## log armed; require downgrade-rate to page and clear on /debug/slo
## (bench -assert-slo), the transition pair on /metrics, and committed
## admissions in the wide-event ring and log file.
slo-smoke:
	./scripts/slo_smoke.sh

## shard-smoke: end-to-end smoke of the scale-out placement tier: 4 replica
## deciders over a 2-node rack with a chaos schedule armed, concurrent
## deploying load, per-node occupancy on /metrics, consistent
## commit-conflict accounting, cross-rack placements in the audit log.
shard-smoke:
	./scripts/shard_smoke.sh

## learn-smoke: end-to-end smoke of the online learning loop: serve with
## -learn and a drifting ambient ramp, deploy placements so outcomes join
## back, require drift → retrain → shadow win → audited hot swap.
learn-smoke:
	./scripts/learn_smoke.sh

## learn-shard-smoke: end-to-end smoke of generation-aware shards: serve
## with -learn AND -replicas 4 -nodes 2, induce drift, and require the
## promoted generation to reach every replica decider within one batch.
learn-shard-smoke:
	./scripts/learn_shard_smoke.sh

## trace-overhead: gate span recording on the batch-8 placement path at
## ≤ MAX_OVERHEAD_PCT (default 5) percent over the untraced baseline.
trace-overhead:
	./scripts/trace_overhead.sh

ci: build fmt vet test race fuzz bench bench-gate serve-smoke chaos-smoke slo-smoke shard-smoke learn-smoke learn-shard-smoke trace-overhead
