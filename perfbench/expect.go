package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/serve"
)

// digestValues is the SHA-256 of values in the server's wire format
// (little-endian IEEE-754 float32, device layout), streamed through a
// fixed buffer so a large job is never encoded whole.
func digestValues(values []float32) string {
	h := sha256.New()
	var buf [64 << 10]byte
	for len(values) > 0 {
		n := min(len(values), len(buf)/4)
		for i, v := range values[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		h.Write(buf[:4*n])
		values = values[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func generateOptions(spec *serve.JobSpec) decwi.GenerateOptions {
	return decwi.GenerateOptions{
		Scenarios: spec.Scenarios,
		Sectors:   spec.Sectors,
		Variance:  spec.Variance,
		Variances: spec.Variances,
		Seed:      spec.Seed,
	}
}

func parallelOptions(spec *serve.JobSpec, workers int) decwi.ParallelOptions {
	return decwi.ParallelOptions{GenerateOptions: generateOptions(spec), Workers: workers}
}

func portfolio(spec *serve.JobSpec) (*decwi.Portfolio, error) {
	return decwi.NewUniformPortfolio(spec.Sectors, spec.Variance, spec.Obligors, spec.PD, spec.Exposure)
}

// riskDigest runs a risk spec through the library and returns the
// SHA-256 of the report's JSON — the exact bytes the server serves.
func riskDigest(spec *serve.JobSpec) (string, error) {
	p, err := portfolio(spec)
	if err != nil {
		return "", err
	}
	rep, err := decwi.PortfolioRisk(p, decwi.ConfigID(spec.Config), int(spec.Scenarios), spec.BandUnit, spec.Seed)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// sectorVariance is the variance sector k of a generate spec runs at,
// with the library's default for a spec that names none.
func sectorVariance(spec *serve.JobSpec, k int) float64 {
	switch {
	case spec.Variances != nil:
		return spec.Variances[k]
	case spec.Variance != 0:
		return spec.Variance
	}
	return 1.39
}

// specKey identifies a replay tuple (the job list of serve-hot repeats
// tuples; each is computed once).
func specKey(spec *serve.JobSpec) string {
	b, _ := json.Marshal(spec) // a JobSpec always marshals
	return string(b)
}

// expected is the outcome of one pass that computes every job's
// expected digest through the library.
type expected struct {
	genRates     []float64 // decwi.Generate values/s, one per call
	riskRates    []float64 // decwi.PortfolioRisk scenarios/s, one per call
	ksSample     map[int][]float32
	ksVariance   map[int]float64
	digestsByKey map[string]string
}

// expectDigests fills want for every job from the library, one distinct
// tuple at a time on GOMAXPROCS goroutines. It keeps sector 0 of the
// first generate job of each configuration for the KS check.
func expectDigests(jobs []job) (*expected, error) {
	var keys []string
	specs := map[string]*serve.JobSpec{}
	ksKey := map[int]string{} // the first generate tuple of each configuration
	for i := range jobs {
		spec := &jobs[i].spec
		k := specKey(spec)
		if _, ok := specs[k]; !ok {
			specs[k] = spec
			keys = append(keys, k)
		}
		if _, ok := ksKey[spec.Config]; !ok && spec.Kind == serve.KindGenerate {
			ksKey[spec.Config] = k
		}
	}
	ex := &expected{
		ksSample:     map[int][]float32{},
		ksVariance:   map[int]float64{},
		digestsByKey: make(map[string]string, len(keys)),
	}
	var (
		mu       sync.Mutex
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if next >= len(keys) || firstErr != nil {
				mu.Unlock()
				return
			}
			k := keys[next]
			next++
			mu.Unlock()
			spec := specs[k]
			var (
				sum    string
				err    error
				sample []float32
			)
			if spec.Kind == serve.KindRisk {
				sum, err = riskDigest(spec)
			} else {
				var res *decwi.GenerateResult
				res, err = decwi.Generate(decwi.ConfigID(spec.Config), generateOptions(spec))
				if err == nil {
					sum = digestValues(res.Values)
					if ksKey[spec.Config] == k {
						sample = res.Sector(0)
						sample = sample[:min(len(sample), ksValues)]
					}
				}
			}
			mu.Lock()
			switch {
			case err != nil:
				firstErr = fmt.Errorf("expected output of %s: %w", k, err)
			case sample != nil:
				ex.ksSample[spec.Config] = sample
				ex.ksVariance[spec.Config] = sectorVariance(spec, 0)
			}
			ex.digestsByKey[k] = sum
			mu.Unlock()
		}
	}
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go work()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range jobs {
		jobs[i].want = ex.digestsByKey[specKey(&jobs[i].spec)]
	}
	return ex, nil
}

// expectWorkload computes the expected outputs of the workload's jobs,
// the tuples it prewarms and its library-pass tuples.
func expectWorkload(w *workload) (*expected, error) {
	ex, err := expectDigests(append(w.jobs, w.library...))
	if err != nil {
		return nil, err
	}
	for _, js := range [][]job{w.jobs, w.prewarm, w.library} {
		for i := range js {
			js[i].want = ex.digestsByKey[specKey(&js[i].spec)]
		}
	}
	return ex, nil
}

// ksValues caps the KS sample: the check guards against a broken
// generator, and a fixed size keeps its power the same on every
// workload.
const ksValues = 20000

// ksCheck runs one decwi.ValidateGamma KS test per configuration on the
// kept samples and returns the configurations that failed.
func ksCheck(ex *expected, r *report) (failed int) {
	for c := 1; c <= 4; c++ {
		sample, ok := ex.ksSample[c]
		if !ok {
			continue
		}
		d, p, err := decwi.ValidateGamma(sample, ex.ksVariance[c])
		switch {
		case err != nil:
			r.notef("KS Config%d: %v", c, err)
			failed++
		case p < 1e-4:
			r.notef("KS Config%d: D=%.5f p=%.3g on %d values — FAILED", c, d, p, len(sample))
			failed++
		default:
			r.notef("KS Config%d: D=%.5f p=%.3g on %d values", c, d, p, len(sample))
		}
	}
	return failed
}
