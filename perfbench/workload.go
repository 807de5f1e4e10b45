package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/decwi/decwi/internal/serve"
)

// job is one unit of work a workload submits: the replay tuple, when it
// is due, and the SHA-256 its result must have. want is filled at set-up
// from the library (decwi.Generate or decwi.PortfolioRisk), never from
// the server.
type job struct {
	spec serve.JobSpec
	due  time.Duration // offset from the start of the timed phase
	want string        // expected payload SHA-256, hex
}

// units is the job's size in the unit its throughput metric counts:
// gamma values for generate jobs, Monte-Carlo scenarios for risk jobs.
func (j *job) units() int64 {
	if j.spec.Kind == serve.KindRisk {
		return j.spec.Scenarios
	}
	return j.spec.Scenarios * int64(j.spec.Sectors)
}

// workload is a generated input set. For serve-* the jobs are the
// open-loop arrival schedule; for bulk they are one cycle of the fixed
// job list the closed loop repeats.
type workload struct {
	name string
	jobs []job
	// limit is the per-job latency limit goodput_ratio counts against.
	limit time.Duration
	// prewarm are tuples set-up puts in the server's result cache
	// before timing starts.
	prewarm []job
	// library (serve-* only) are the tuples of the library passes around the
	// served load, for seq_values_per_s and risk_scenarios_per_s.
	library []job
}

// Workload shapes; README.md gives the reasons.
const (
	bulkScenarios    = 131072 // per sector: 8 × 131072 ≈ 1M values per job
	bulkSectors      = 8
	bulkRiskObligors = 200
	bulkRiskScen     = 20000

	serveSectors    = 4
	coldRate        = 50.0 // jobs/s, Poisson: 1000 jobs in a 20 s run
	coldMinValues   = 4096
	coldMaxValues   = 262144 // straddles the 65536-value fast-path threshold
	coldRiskEvery   = 8
	coldRiskMinScen = 500
	coldRiskMaxScen = 4000
	riskObligors    = 50

	hotRate     = 200.0 // jobs/s, Poisson
	hotPoolGen  = 32    // 32 × 160 KiB stays under the 16 MiB per-tenant cache cap
	hotPoolRisk = 4
	hotFresh    = 4 // least popular generate tuples, first requested mid-run
	hotValues   = 40000
	hotRiskScen = 2000
)

// shrink divides job sizes and open-loop rates. Benchmark runs use
// fullSize; the self-tests use tinySize, so a one-second run fits in its
// second even on a loaded machine or under the race detector.
type shrink struct {
	size int64
	rate float64
}

var (
	fullSize = shrink{size: 1, rate: 1}
	tinySize = shrink{size: 64, rate: 8}
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"bulk", "serve-cold", "serve-hot"}

// buildWorkload makes the named workload's inputs from seed alone.
func buildWorkload(name string, seed uint64, seconds int, sh shrink) (*workload, error) {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	switch name {
	case "bulk":
		return bulkWorkload(r, sh), nil
	case "serve-cold":
		return withLibraryJobs(r, coldWorkload(r, seconds, sh)), nil
	case "serve-hot":
		return withLibraryJobs(r, hotWorkload(r, seconds, sh)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// spreadVariances returns n sector variances stratified over [0.5, 2.5],
// so each sector runs the gamma rejection loop at a different rate.
func spreadVariances(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = 0.5 + 2.0*(float64(k)+r.Float64())/float64(n)
	}
	return v
}

func genSpec(r *rand.Rand, config int, values int64, sectors int) serve.JobSpec {
	return serve.JobSpec{
		Kind:      serve.KindGenerate,
		Config:    config,
		Seed:      r.Uint64()>>1 | 1,
		Scenarios: max(1, values/int64(sectors)),
		Sectors:   sectors,
		Variances: spreadVariances(r, sectors),
		Workers:   runtime.GOMAXPROCS(0),
		Tenant:    "bench",
	}
}

// riskSpec is a fully specified risk tuple: every field Validate would
// default is set, so the spec the server stores is the one sent.
func riskSpec(r *rand.Rand, config int, scenarios int64, obligors, sectors int) serve.JobSpec {
	return serve.JobSpec{
		Kind:      serve.KindRisk,
		Config:    config,
		Seed:      r.Uint64()>>1 | 1,
		Scenarios: max(1, scenarios),
		Sectors:   sectors,
		Variance:  1.39,
		Workers:   1,
		Obligors:  obligors,
		PD:        0.02,
		Exposure:  100,
		Tenant:    "bench",
	}
}

func bulkWorkload(r *rand.Rand, sh shrink) *workload {
	w := &workload{name: "bulk", limit: 2 * time.Second}
	for c := 1; c <= 4; c++ {
		w.jobs = append(w.jobs, job{spec: genSpec(r, c, bulkScenarios*bulkSectors/sh.size, bulkSectors)})
	}
	w.jobs = append(w.jobs, job{spec: riskSpec(r, 2, bulkRiskScen/sh.size, bulkRiskObligors, bulkSectors)})
	return w
}

// Library pass tuples: one generate tuple (4 sectors × 16384 scenarios)
// and one risk tuple (2000 scenarios) per configuration, the same shape
// on every seed, so the pass's rate does not depend on which sizes and
// configurations a seed happened to draw.
const (
	libraryScenarios     = 16384
	libraryRiskScenarios = 2000
)

// withLibraryJobs adds the library pass's tuples to a serve workload.
func withLibraryJobs(r *rand.Rand, w *workload) *workload {
	for c := 1; c <= 4; c++ {
		w.library = append(w.library,
			job{spec: genSpec(r, c, libraryScenarios*serveSectors, serveSectors)},
			job{spec: riskSpec(r, c, libraryRiskScenarios, riskObligors, serveSectors)})
	}
	return w
}

// stratified returns n values u_i in (0,1), one from each stratum
// [k/n, (k+1)/n), in random order: a sample whose empirical distribution
// barely moves between seeds, so run-to-run spread measures the system
// rather than the draw.
func stratified(r *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i, k := range r.Perm(n) {
		u[i] = (float64(k) + r.Float64()) / float64(n)
	}
	return u
}

// arrivals returns n Poisson arrival offsets at rate jobs/s, with
// stratified exponential gaps.
func arrivals(r *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i, u := range stratified(r, n) {
		due[i] = time.Duration(t * float64(time.Second))
		t += -math.Log(1-u) / rate
	}
	return due
}

// logUniform maps u in (0,1) onto [lo, hi] log-uniformly.
func logUniform(u float64, lo, hi int64) int64 {
	return int64(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), u)))
}

func coldWorkload(r *rand.Rand, seconds int, sh shrink) *workload {
	rate := coldRate / sh.rate
	n := max(8, int(rate*float64(seconds)))
	w := &workload{name: "serve-cold", limit: 250 * time.Millisecond}
	due := arrivals(r, n, rate)
	size := stratified(r, n)
	configs := r.Perm(n)
	kinds := r.Perm(n)
	for i := range n {
		c := 1 + configs[i]%4
		var spec serve.JobSpec
		if kinds[i]%coldRiskEvery == 0 {
			spec = riskSpec(r, c, logUniform(size[i], coldRiskMinScen, coldRiskMaxScen)/sh.size, riskObligors, serveSectors)
		} else {
			spec = genSpec(r, c, logUniform(size[i], coldMinValues, coldMaxValues)/sh.size, serveSectors)
		}
		w.jobs = append(w.jobs, job{spec: spec, due: due[i]})
	}
	return w
}

func hotWorkload(r *rand.Rand, seconds int, sh shrink) *workload {
	w := &workload{name: "serve-hot", limit: 50 * time.Millisecond}
	// Popularity rank k has Zipf weight 1/(k+1). The warm generate
	// tuples take the top ranks, the risk tuples the next ones, and the
	// hotFresh least popular generate tuples start out uncached.
	var gen, pool []serve.JobSpec
	for i := range hotPoolGen {
		gen = append(gen, genSpec(r, 1+i%4, hotValues/sh.size, serveSectors))
	}
	r.Shuffle(len(gen), func(i, j int) { gen[i], gen[j] = gen[j], gen[i] })
	pool = append(pool, gen[:hotPoolGen-hotFresh]...)
	for i := range hotPoolRisk {
		pool = append(pool, riskSpec(r, 1+i%4, hotRiskScen/sh.size, riskObligors, serveSectors))
	}
	pool = append(pool, gen[hotPoolGen-hotFresh:]...)
	fresh := len(pool) - hotFresh
	for _, spec := range pool[:fresh] {
		w.prewarm = append(w.prewarm, job{spec: spec})
	}

	// Draw counts are fixed by rank, so every seed has the same
	// popularity curve; each tuple appears at least once.
	rate := hotRate / sh.rate
	n := max(2*len(pool), int(rate*float64(seconds)))
	weights := make([]float64, len(pool))
	for k := range weights {
		weights[k] = 1 / float64(k+1)
	}
	total := sum(weights)
	var picks []int
	for k, wt := range weights {
		for range max(1, int(math.Round(wt/total*float64(n-hotFresh)))) {
			picks = append(picks, k)
		}
	}
	r.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })

	// A fresh tuple's first submission arrives as an identical pair
	// with one due time: the second finds the first in flight and
	// coalesces onto its engine run.
	seen := make([]bool, len(pool))
	due := arrivals(r, len(picks), rate)
	for i, k := range picks {
		w.jobs = append(w.jobs, job{spec: pool[k], due: due[i]})
		if k >= fresh && !seen[k] {
			seen[k] = true
			w.jobs = append(w.jobs, job{spec: pool[k], due: due[i]})
		}
	}
	return w
}
