#!/bin/sh
# Tier-1 gate (same steps as `make check`): vet, build, race-enabled
# tests. Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# Bounds-check-elimination gate: the marked lane kernels (mt fillSeg /
# fill521, normal ICDFFPGAFill, gamma candidateBlockDense) must compile
# with zero surviving IsInBounds/IsSliceInBounds checks — the fused
# pipe's single-core throughput depends on it.
echo "== bounds-check elimination in marked kernel regions"
sh scripts/bce_check.sh

# Fused-vs-dataflow equivalence under the race detector: the Fused
# path (Engine.RunChunk) shares sync.Pool scratch across work-item
# goroutines and Engine.Run's Listing 1 dataflow runs its
# GammaRNG/Transfer processes concurrently, so the one
# bitwise-equivalence proof between them (plus the kernel-level
# block-vs-gated oracles, and the check that Run really issues bursts
# through its streams) must also hold with full synchronization checking
# (already part of the tree-wide -race run above, but named here so a
# narrowed test filter can never drop it).
echo "== Fused-vs-dataflow & block-compute equivalence under -race"
go test -race -run 'TestFusedRunEquivalence|TestRunIsListing1Dataflow|TestBlockCompute|TestBatchedTransport|TestCycleBlock|TestFillUint32|TestPropertyFillInterleaving' \
    ./internal/core ./internal/rng/gamma ./internal/rng/mt

# Fused-path, gamma→loss pipe and golden-corpus checks under the race
# detector: the Fused path writes candidate blocks straight into the
# shared device buffer, and the gamma→loss pipe batches the creditrisk
# sector draws, so their bitwise proofs (Run's dataflow vs Fused
# RunChunk, gated vs piped draws, lane block phase vs gated walk) and the
# absolute golden digests (every generate entry point including
# Session.EnqueueGamma, SimulateMC losses, the serve X-Decwi-Sha256
# header) must also hold with full synchronization checking.
echo "== fused-pipe, gamma→loss pipe & golden corpus under -race"
go test -race -count=1 \
    -run 'TestFused|TestPropertyFused|TestRunItemPartBlockEquivalence|TestPipe|TestConsumeBlock|TestGolden|TestServerGoldenDigest' \
    ./internal/core ./internal/rng/gamma ./internal/serve .

# Serve fast-lane correctness under the race detector: cache semantics
# (eviction, per-tenant accounting, hit-after-evict), singleflight
# lifecycle (coalesce, waiter-cancel survival, last-waiter abort),
# fast-path admission, digest-at-completion stability, and the
# cached-vs-fresh byte equality of the HTTP replay tests. Named so a
# narrowed filter can never drop the determinism-safety proof the
# cache's correctness rests on.
echo "== serve fast lane (cache, singleflight, fast path) under -race"
go test -race -count=1 \
    -run 'TestResultCache|TestSchedulerCache|TestSchedulerSingleflight|TestSchedulerFastPath|TestResultDigest|TestServerReplayDeterminism|TestServerResultDigestStability' \
    ./internal/serve

# Observability correctness under the race detector: flight-recorder
# ring wrap and slow/failed-job pinning under churn, per-lane span
# trees over HTTP, concurrent Submit vs /debug/jobs reads, the SLO
# burn-rate plane (degradation + recovery), and the chunk-span hook in
# the parallel scheduler. Named so a narrowed filter can never drop
# the tracing plane's consistency proofs.
echo "== job tracing, flight recorder & SLO plane under -race"
go test -race -count=1 \
    -run 'TestFlight|TestTrace|TestChrome|TestCheck|TestSLO|TestDebugJobs|TestTracing|TestGenerateParallelChunkSpans|TestHealthAndSLOHooks' \
    ./internal/telemetry/flight ./internal/telemetry/slo \
    ./internal/telemetry/metricsrv ./internal/serve .

# Jump-ahead correctness under the race detector: the property suite
# (Jump(a+b) == Jump(a);Jump(b), Jump ≡ n×Advance, golden vectors, the
# FuzzJumpAdditive seed corpus) plus the stream-seek and substream
# equivalences. Named so a narrowed filter can never drop the
# bitwise-exactness proof of the only seek path.
echo "== jump-ahead & substream equivalence under -race"
go test -race -count=1 \
    -run 'TestJump|FuzzJumpAdditive|TestOffset|TestCheckpoint|TestDecorrelate|TestGenerateParallelStreamOffset|TestRunItemPart|TestSubstream' \
    ./internal/rng/mt ./internal/rng ./internal/rng/gamma ./internal/core .

# CreditRisk+ Monte-Carlo under the race detector: the squeeze-first
# Poisson sampler against its exact-exp Knuth oracle (value and words
# consumed, plus the FuzzPoisson seed corpus) and the absolute MC and
# HTTP risk-report digests. Named so a narrowed filter can never drop
# the proof that the fast loss loop draws the old loop's bytes.
echo "== Poisson sampler & risk goldens under -race"
go test -race -count=1 \
    -run 'TestPoisson|FuzzPoisson|TestGoldenSimulateMC|TestServerGoldenRisk' \
    ./internal/creditrisk ./internal/serve .

# Fuzz smoke of the only seek path: ten seconds of coverage-guided
# inputs for Jump(a);Jump(b) == Jump(a+b) and Jump(n) == n×Advance on
# both twister parameter sets (one worker, to stay small).
echo "== FuzzJumpAdditive smoke (10s)"
go test -run '^$' -fuzz '^FuzzJumpAdditive$' -fuzztime 10s -parallel 1 ./internal/rng/mt

# Fuzz smoke of the Poisson sampler: ten seconds of arbitrary seeds and
# intensities, each draw equal to the exact-exp Knuth oracle in value
# and words consumed (one worker, to stay small).
echo "== FuzzPoisson smoke (10s)"
go test -run '^$' -fuzz '^FuzzPoisson$' -fuzztime 10s -parallel 1 ./internal/creditrisk

# Allocation gates (meaningful only without -race, whose instrumentation
# allocates): the steady-state block loops must not allocate at all, and
# neither may a histogram Record on the telemetry hot path.
echo "== zero-allocation gates (steady-state block loops, histogram Record)"
go test -run 'TestSteadyStateBlockZeroAllocs|TestFillUint32ZeroAlloc|TestFillNormalZeroAlloc' \
    ./internal/rng/gamma ./internal/rng/mt ./internal/rng/normal
go test -run 'TestHistogramRecordZeroAlloc' ./internal/telemetry

# Parallel-equivalence suite under both a single-core and a multicore
# scheduler: GOMAXPROCS=1 exercises the sequential claim order,
# GOMAXPROCS=4 multiplexes the work-stealing cursor so the race
# detector sees real chunk-claim interleavings. Both must reproduce
# the sequential bytes (the GenerateParallel == Generate contract).
echo "== parallel equivalence under GOMAXPROCS=1 and GOMAXPROCS=4 (-race)"
GOMAXPROCS=1 go test -race -count=1 \
    -run 'TestGenerateParallel|TestRunChunk|TestNormalize' . ./internal/core
GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestGenerateParallel|TestRunChunk|TestNormalize' . ./internal/core

# Golden bytes through the CLI: decwi-gammagen's payload for one
# replay tuple at stream offset 4099 must hash to the committed golden
# digest on a single-core and a multicore scheduler. This is the
# end-to-end, absolute form of the byte contract.
echo "== gammagen golden bytes (offset 4099, GOMAXPROCS 1 and 4)"
sh scripts/golden_check.sh

# Benchmark smoke run: one iteration each, so the burst-transport,
# sharded-generation, compute-path and CreditRisk+ benchmarks can never
# silently rot.
echo "== bench smoke (BenchmarkBatchedStream, BenchmarkGenerateParallel, BenchmarkBlockCompute, BenchmarkPortfolioRisk, BenchmarkSimulateMC, BenchmarkHistogramRecord)"
go test -run '^$' -bench BenchmarkBatchedStream -benchtime 1x ./internal/hls
go test -run '^$' -bench BenchmarkGenerateParallel -benchtime 1x .
go test -run '^$' -bench BenchmarkBlockCompute -benchtime 1x .
go test -run '^$' -bench '^BenchmarkPortfolioRisk$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkSimulateMC$' -benchtime 1x ./internal/creditrisk
go test -run '^$' -bench BenchmarkHistogramRecord -benchtime 1x ./internal/telemetry

# Live metrics smoke: scrape a running decwi-gammagen -http server and
# validate the exposition with the in-repo checker.
echo "== live metrics smoke (decwi-gammagen -http + decwi-promcheck)"
sh scripts/metrics_smoke.sh

# Service smoke: boot decwi-served on ephemeral ports, prove replay
# determinism over HTTP, run a risk batch with the per-phase breakdown,
# validate the live metrics plane and the /debug/jobs trace surface,
# render a job trace to Chrome trace_event form, require a clean
# SIGTERM drain, and prove /healthz degrades under an injected slow
# executor.
echo "== service smoke (decwi-served + decwi-loadgen + decwi-promcheck + decwi-trace)"
sh scripts/serve_smoke.sh

# Tracing non-perturbation: the cache-hot fast lane with the flight
# recorder and SLO plane on must hold ≥ 0.90x the tracing-off
# throughput (TRACE_OVERHEAD_MIN_RATIO overrides).
echo "== tracing-overhead gate (flight recorder on vs off, cache-hot lane)"
sh scripts/trace_overhead.sh

# Baseline-diff smoke: the self-compare must always be delta-free and
# must satisfy the static substreams-vs-sharded bound, so the comparer
# itself can never silently rot; the BENCH_7 -> BENCH_8 cross-PR diff
# is informational (different machines, different trees).
echo "== bench_compare smoke (self-diff + informational cross-baseline diff)"
sh scripts/bench_compare.sh BENCH_8.json BENCH_8.json
BENCH_COMPARE_WARN_ONLY=1 sh scripts/bench_compare.sh BENCH_7.json BENCH_8.json

echo "tier-1 gate: OK"
