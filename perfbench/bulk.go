package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/serve"
)

// setupBulk computes the expected outputs of the fixed job list through
// the library, setupRepeats times (once when traced); setup_s is the
// median, the first timed from the start of the run.
func setupBulk(o *options, w *workload, r *report) (*expected, error) {
	reps := setupRepeats
	if o.trace {
		reps = 1
	}
	var (
		ex    *expected
		err   error
		times []float64
	)
	for i := range reps {
		t0 := time.Now()
		if i == 0 {
			t0 = o.start
		}
		if ex, err = expectWorkload(w); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.setN("setup_s", median(times), len(times))
	return ex, nil
}

// runBulk is the library batch: a closed loop, one caller, repeating
// the fixed job cycle until the run's time is up. Each generate spec
// runs through GenerateParallel (Workers = GOMAXPROCS) and through
// Generate; each risk spec through PortfolioRisk. Only whole cycles
// run, so every configuration is equally represented.
func runBulk(ctx context.Context, o *options, w *workload, r *report) error {
	ex, err := setupBulk(o, w, r)
	if err != nil {
		return err
	}
	r.failed += ksCheck(ex, r)

	// Throughput is taken per cycle — every configuration and the risk
	// job once — and reported as the median cycle, so a burst of host
	// contention moves one cycle, not the figure.
	var parRates, seqRates, riskRates, lat []float64
	good, parJobs, jobs := 0, 0, 0
	check := func(what string, j *job, got string) bool {
		r.attempted++
		jobs++
		if got != j.want {
			r.fail("%s Config%d seed %d: sha256 %.12s, library %.12s", what, j.spec.Config, j.spec.Seed, got, j.want)
			return false
		}
		r.combined = append(r.combined, got)
		return true
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(parRates) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		var parS, parVals, seqS, seqVals, riskS, riskScen float64
		for i := range w.jobs {
			j := &w.jobs[i]
			c := decwi.ConfigID(j.spec.Config)
			if j.spec.Kind == serve.KindRisk {
				p, err := portfolio(&j.spec)
				if err != nil {
					return err
				}
				t0 := time.Now()
				rep, err := decwi.PortfolioRisk(p, c, int(j.spec.Scenarios), j.spec.BandUnit, j.spec.Seed)
				d := time.Since(t0)
				if err != nil {
					return err
				}
				b, err := json.Marshal(rep)
				if err != nil {
					return err
				}
				if check("PortfolioRisk", j, digestBytes(b)) {
					riskS += d.Seconds()
					riskScen += float64(j.spec.Scenarios)
				}
				continue
			}
			parJobs++
			t0 := time.Now()
			pr, err := decwi.GenerateParallelContext(ctx, c, parallelOptions(&j.spec, runtime.GOMAXPROCS(0)))
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if check("GenerateParallel", j, digestValues(pr.Values)) {
				parS += d.Seconds()
				parVals += float64(j.units())
				lat = append(lat, d.Seconds()*1e3)
				if d <= w.limit {
					good++
				}
			}
			pr = nil

			t0 = time.Now()
			gr, err := decwi.Generate(c, generateOptions(&j.spec))
			d = time.Since(t0)
			if err != nil {
				return err
			}
			if check("Generate", j, digestValues(gr.Values)) {
				seqS += d.Seconds()
				seqVals += float64(j.units())
			}
		}
		parRates = append(parRates, ratio(parVals, parS))
		seqRates = append(seqRates, ratio(seqVals, seqS))
		riskRates = append(riskRates, ratio(riskScen, riskS))
	}
	cycles := len(parRates)
	r.setN("values_per_s", median(parRates), cycles)
	r.setN("seq_values_per_s", median(seqRates), cycles)
	r.setN("risk_scenarios_per_s", median(riskRates), cycles)
	// The job latencies fall in one group per configuration, and the
	// run-wide median would sit on the gap between two groups; each
	// cycle's median (between its Config2 and Config3 jobs) is taken
	// instead, and the median over cycles reported.
	r.setN("latency_p50_ms", windowed(lat, max(1, len(lat)/cycles), 0.50), len(lat))
	r.setN("latency_p99_ms", percentile(lat, 0.99), len(lat))
	r.setN("goodput_ratio", ratio(float64(good), float64(parJobs)), parJobs)
	r.notef("%d cycles, %d library jobs; GenerateParallel p50 %.2f ms p99 %.2f ms over %d jobs",
		cycles, jobs, percentile(lat, 0.5), percentile(lat, 0.99), len(lat))
	if len(lat) < windowJobs {
		r.notef("bulk latency_p99_ms rests on %d jobs: fewer than ten lie beyond it", len(lat))
	}
	return nil
}

// traceBulk is bulk's traced run: the kernel ladder over the job list,
// the risk pair, and the job cycle served three times through the serve
// ladder by one closed-loop caller.
func traceBulk(ctx context.Context, o *options, w *workload, r *report) error {
	ex, err := setupBulk(o, w, r)
	if err != nil {
		return err
	}
	r.failed += ksCheck(ex, r)
	if err := kernelLadder(ctx, w.jobs, 1<<62, r); err != nil {
		return err
	}
	if err := riskLadder(w.jobs, r); err != nil {
		return err
	}
	served := &workload{name: w.name, limit: w.limit}
	for range 3 {
		served.jobs = append(served.jobs, w.jobs...)
	}
	kept, err := serveLadder(ctx, o, served, true, 1, r)
	if err != nil {
		return fmt.Errorf("serve ladder: %w", err)
	}
	return writeTraces(o, kept, r)
}
