package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// setupRepeats is how many complete set-ups a run makes; setup_s is
// their median and the last one's state is what the run uses.
const setupRepeats = 3

// libraryPass is one stretch of library calls on the workload's library
// tuples, outside the served load so it perturbs nothing: for a tenth of
// the run it repeats a cycle of decwi.Generate on each generate tuple
// and decwi.PortfolioRisk on each risk tuple, verifying each output, and
// adds each cycle's Generate and PortfolioRisk rates to gen and risk.
// Rates are per cycle, every configuration once, so the median cycle
// does not fall between two configurations' speeds. runServe makes one
// pass before the served load and one after, so a stretch of host
// contention at either end moves half the samples.
func libraryPass(o *options, w *workload, gen, risk *[]float64, r *report) {
	end := time.Now().Add(time.Duration(o.seconds) * time.Second / 10)
	for cycles := 0; cycles < 2 || time.Now().Before(end); cycles++ {
		var genS, genVals, riskS, riskScen float64
		for i := range w.library {
			j := &w.library[i]
			r.attempted++
			t0 := time.Now()
			var got string
			var err error
			if j.spec.Kind == serve.KindRisk {
				got, err = riskDigest(&j.spec)
			} else {
				var res *decwi.GenerateResult
				if res, err = decwi.Generate(decwi.ConfigID(j.spec.Config), generateOptions(&j.spec)); err == nil {
					got = digestValues(res.Values)
				}
			}
			d := time.Since(t0).Seconds()
			switch {
			case err != nil || got != j.want:
				r.fail("library pass %s Config%d seed %d: sha256 %.12s, want %.12s (%v)", j.spec.Kind, j.spec.Config, j.spec.Seed, got, j.want, err)
			case j.spec.Kind == serve.KindRisk:
				riskS, riskScen = riskS+d, riskScen+float64(j.spec.Scenarios)
			default:
				genS, genVals = genS+d, genVals+float64(j.units())
			}
		}
		*gen = append(*gen, ratio(genVals, genS))
		*risk = append(*risk, ratio(riskScen, riskS))
	}
}

// setupServe brings a server up, computes every job's expected output
// through the library and warms the server, setupRepeats times. The
// first set-up is timed from the start of the run.
func setupServe(ctx context.Context, o *options, w *workload, r *report) (*server, *expected, error) {
	var (
		srv   *server
		ex    *expected
		times []float64
	)
	reps := setupRepeats
	if o.trace {
		reps = 1
	}
	for i := range reps {
		t0 := time.Now()
		if i == 0 {
			t0 = o.start
		}
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, nil, err
			}
		}
		srv = startServer(serverConfig(0))
		var err error
		ex, err = expectWorkload(w)
		if err == nil {
			err = srv.warmUp(ctx, w)
		}
		if err != nil {
			return nil, nil, errors.Join(err, srv.close())
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.setN("setup_s", median(times), len(times))
	return srv, ex, nil
}

// httpPass plays the schedule over HTTP against srv.
func httpPass(ctx context.Context, o *options, srv *server, w *workload, closed bool, workers int) ([]outcome, time.Duration) {
	return loadgen(ctx, w.jobs, workers, closed, func(ctx context.Context, i int, out *outcome) (time.Time, error) {
		t, err := srv.runHTTP(ctx, &w.jobs[i], i == o.corrupt)
		out.http = t
		return t.verified, err
	})
}

// windowJobs is the fewest jobs a latency window holds: ten lie beyond
// its p99.
const windowJobs = 1000

// windowed splits per-job values, in schedule order, into consecutive
// windows of at least size jobs (one window when there are fewer) and
// returns the median over windows of each window's q-percentile. On a
// long run this is the typical window's percentile: a second of host
// contention moves one window, not the figure.
func windowed(xs []float64, size int, q float64) float64 {
	n := max(1, len(xs)/size)
	per := make([]float64, n)
	for k := range n {
		lo, hi := k*len(xs)/n, (k+1)*len(xs)/n
		per[k] = percentile(xs[lo:hi], q)
	}
	return median(per)
}

// account counts a pass's outcomes into the report: failures, the
// combined digest, values served, latency percentiles and goodput. A
// failed job counts against goodput and has no latency.
func account(w *workload, outs []outcome, wall time.Duration, r *report) (lat []float64) {
	var served float64
	good := 0
	for i := range outs {
		o := &outs[i]
		r.attempted++
		if o.err != nil {
			r.fail("job %d (%s Config%d seed %d): %v", i, w.jobs[i].spec.Kind, w.jobs[i].spec.Config, w.jobs[i].spec.Seed, o.err)
			continue
		}
		r.combined = append(r.combined, w.jobs[i].want)
		if w.jobs[i].spec.Kind == serve.KindGenerate {
			served += float64(w.jobs[i].units())
		}
		lat = append(lat, o.latency.Seconds()*1e3)
		if o.latency <= w.limit {
			good++
		}
	}
	r.setN("values_per_s", ratio(served, wall.Seconds()), len(lat))
	r.setN("latency_p50_ms", windowed(lat, windowJobs, 0.50), len(lat))
	r.setN("latency_p99_ms", windowed(lat, windowJobs, 0.99), len(lat))
	r.setN("goodput_ratio", ratio(float64(good), float64(len(outs))), len(outs))
	r.notef("latency windows: %d of ≥%d jobs; whole run p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f ms",
		max(1, len(lat)/windowJobs), min(len(lat), windowJobs), percentile(lat, 0.5), percentile(lat, 0.9),
		percentile(lat, 0.99), percentile(lat, 0.999))
	return lat
}

func lags(outs []outcome) []float64 {
	l := make([]float64, len(outs))
	for i := range outs {
		l[i] = outs[i].lag.Seconds() * 1e3
	}
	return l
}

// checkLag marks the run invalid when the open-loop generator fell
// behind its own schedule: when one job in ten was sent later than the
// latency_p50_ms bound's share of the workload's latency limit, the
// offered load was not the one the schedule states.
func checkLag(w *workload, outs []outcome, r *report) {
	m, _ := lookupMetric("latency_p50_ms")
	limit := m.Bound * w.limit.Seconds() * 1e3
	l := lags(outs)
	lag := percentile(l, 0.9)
	r.notef("loadgen send lag p50 %.3f p90 %.3f p99 %.3f ms (p90 limit %.3f ms)",
		percentile(l, 0.5), lag, percentile(l, 0.99), limit)
	if lag > limit {
		r.invalid = fmt.Sprintf("load generator fell behind: send lag p90 %.3f ms > %.3f ms", lag, limit)
	}
}

// runServe is the end-to-end serve-* run: set-up, then the open-loop
// schedule over HTTP with tracing off.
func runServe(ctx context.Context, o *options, w *workload, r *report) error {
	srv, ex, err := setupServe(ctx, o, w, r)
	if err != nil {
		return err
	}
	r.failed += ksCheck(ex, r)
	var gen, risk []float64
	libraryPass(o, w, &gen, &risk, r)
	outs, wall := httpPass(ctx, o, srv, w, false, clientConns())
	if err := srv.close(); err != nil {
		return err
	}
	libraryPass(o, w, &gen, &risk, r)
	r.setN("seq_values_per_s", median(gen), len(gen))
	r.setN("risk_scenarios_per_s", median(risk), len(risk))
	lat := account(w, outs, wall, r)
	checkLag(w, outs, r)
	r.notef("%d jobs over %.2f s, %d verified", len(outs), wall.Seconds(), len(lat))
	return nil
}

// schedTiming is one job's in-process scheduler breakdown.
type schedTiming struct {
	dur       time.Duration // Submit → Done
	queueWait time.Duration
	lane      string
}

// directPass runs every distinct job once straight into the library —
// GenerateParallelContext or PortfolioRisk — and returns each tuple's
// call time in ms.
func directPass(ctx context.Context, jobs []job, r *report) (map[string]float64, error) {
	ms := map[string]float64{}
	for i := range jobs {
		j := &jobs[i]
		k := specKey(&j.spec)
		if _, ok := ms[k]; ok {
			continue
		}
		t0 := time.Now()
		var got string
		if j.spec.Kind == serve.KindRisk {
			d, err := riskDigest(&j.spec)
			if err != nil {
				return nil, err
			}
			ms[k] = time.Since(t0).Seconds() * 1e3
			got = d
		} else {
			res, err := decwi.GenerateParallelContext(ctx, decwi.ConfigID(j.spec.Config), parallelOptions(&j.spec, j.spec.Workers))
			if err != nil {
				return nil, err
			}
			ms[k] = time.Since(t0).Seconds() * 1e3
			got = digestValues(res.Values)
		}
		if got != j.want {
			r.fail("direct Config%d seed %d: sha256 %.12s, library %.12s", j.spec.Config, j.spec.Seed, got, j.want)
		}
	}
	return ms, nil
}

// schedPass plays the schedule through an in-process Scheduler:
// Submit, wait on Done, check the digest the scheduler computed.
func schedPass(ctx context.Context, w *workload, closed bool, workers int) ([]outcome, error) {
	sched := serve.New(serverConfig(0))
	for i := range w.prewarm {
		if jb, err := sched.Submit(w.prewarm[i].spec); err == nil {
			<-jb.Done()
			sched.Remove(jb.ID)
		}
	}
	outs, _ := loadgen(ctx, w.jobs, workers, closed, func(ctx context.Context, i int, o *outcome) (time.Time, error) {
		j := &w.jobs[i]
		t0 := time.Now()
		jb, err := sched.Submit(j.spec)
		if err != nil {
			return time.Time{}, err
		}
		select {
		case <-jb.Done():
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		}
		st := jb.Status()
		done := time.Now()
		sched.Remove(jb.ID)
		if st.State != serve.StateDone || st.SHA256 != j.want {
			return done, fmt.Errorf("scheduler job %s: state %s, sha256 %.12s, library %.12s", jb.ID, st.State, st.SHA256, j.want)
		}
		o.sched = schedTiming{dur: done.Sub(t0), queueWait: time.Duration(st.QueueWaitUS) * time.Microsecond, lane: st.Lane}
		return done, nil
	})
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return outs, sched.Drain(dctx)
}

// spanNames are the serve spans whose self time the traced run reports.
var spanNames = []string{"validate", "cache-lookup", "quota", "enqueue", "queue-wait", "engine-run", "digest", "stream-out"}

// selfTimes adds each span's self time — its duration minus the part of
// it its children cover — to into, by span name.
func selfTimes(tr flight.TraceJSON, into map[string][]float64) {
	for _, s := range tr.Spans {
		if s.EndUS < 0 {
			continue
		}
		// Children are recorded in start order; merge their clipped
		// intervals left to right.
		covered, reach := int64(0), s.StartUS
		for _, c := range tr.Spans {
			if c.Parent != s.ID || c.EndUS < 0 {
				continue
			}
			lo, hi := max(c.StartUS, reach), min(c.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		into[s.Name] = append(into[s.Name], float64(s.EndUS-s.StartUS-covered))
	}
}

// maxKeptTraces bounds how many span trees a traced run keeps in memory
// and writes out at the end.
const maxKeptTraces = 2000

// serveLadder runs a workload's schedule three ways — straight into the
// library (a), through the in-process scheduler (b), over HTTP with the
// flight recorder on (c) — plus over HTTP untraced (d), the end-to-end
// path, for the tracing overhead. (c)−(b) is the HTTP cost, (b)−(a) the
// scheduler cost.
func serveLadder(ctx context.Context, o *options, w *workload, closed bool, workers int, r *report) ([]flight.TraceJSON, error) {
	direct, err := directPass(ctx, w.jobs, r)
	if err != nil {
		return nil, fmt.Errorf("direct pass: %w", err)
	}

	bOuts, err := schedPass(ctx, w, closed, workers)
	if err != nil {
		return nil, fmt.Errorf("scheduler pass: %w", err)
	}
	var jobMS, overMS, waitMS []float64
	lanes := map[string]int{}
	for i := range bOuts {
		b := &bOuts[i]
		if b.err != nil {
			r.fail("scheduler pass job %d: %v", i, b.err)
			continue
		}
		d := b.sched.dur.Seconds() * 1e3
		jobMS = append(jobMS, d)
		overMS = append(overMS, d-direct[specKey(&w.jobs[i].spec)])
		waitMS = append(waitMS, b.sched.queueWait.Seconds()*1e3)
		lanes[b.sched.lane]++
	}
	r.setN("sched.job_ms_p50", percentile(jobMS, 0.5), len(jobMS))
	r.setN("sched.overhead_ms_p50", percentile(overMS, 0.5), len(overMS))
	r.setN("sched.queue_wait_ms_p99", percentile(waitMS, 0.99), len(waitMS))
	for _, l := range []string{"fast-path", "queued", "cache-hit", "coalesced"} {
		r.setN("sched.lane_share."+l, ratio(float64(lanes[l]), float64(len(jobMS))), len(jobMS))
	}

	// (c) HTTP, flight recorder on, its ring large enough to keep every
	// job; the span trees are read back after the pass, so reading them
	// costs the timed jobs nothing.
	srv := startServer(serverConfig(len(w.jobs) + len(w.prewarm) + 16))
	if err := srv.warmUp(ctx, w); err != nil {
		return nil, errors.Join(err, srv.close())
	}
	cOuts, _ := httpPass(ctx, o, srv, w, closed, workers)
	var kept []flight.TraceJSON
	self := map[string][]float64{}
	for i := range cOuts {
		if cOuts[i].err != nil {
			continue
		}
		tr, err := srv.debugTrace(ctx, cOuts[i].http.id)
		if err != nil {
			return nil, errors.Join(err, srv.close())
		}
		selfTimes(tr, self)
		if len(kept) < maxKeptTraces {
			kept = append(kept, tr)
		}
	}
	traceErr := srv.close()
	var sub, await, down, del, httpOver, cLat []float64
	for i := range cOuts {
		c := &cOuts[i]
		if c.err != nil {
			r.fail("traced HTTP pass job %d: %v", i, c.err)
			continue
		}
		sub = append(sub, c.http.submit.Seconds()*1e3)
		await = append(await, c.http.await.Seconds()*1e3)
		down = append(down, c.http.download.Seconds()*1e3)
		del = append(del, c.http.del.Seconds()*1e3)
		cLat = append(cLat, c.latency.Seconds()*1e3)
		if bOuts[i].err == nil {
			httpMS := c.http.verified.Sub(c.start).Seconds() * 1e3
			httpOver = append(httpOver, httpMS-bOuts[i].sched.dur.Seconds()*1e3)
		}
	}
	r.setN("http.submit_ms_p50", percentile(sub, 0.5), len(sub))
	r.setN("http.await_ms_p50", percentile(await, 0.5), len(await))
	r.setN("http.download_ms_p50", percentile(down, 0.5), len(down))
	r.setN("http.delete_ms_p50", percentile(del, 0.5), len(del))
	r.setN("http.overhead_ms_p50", percentile(httpOver, 0.5), len(httpOver))
	for _, name := range spanNames {
		r.setN("span."+name+"_us_p50", percentile(self[name], 0.5), len(self[name]))
	}

	// (d) HTTP untraced: the end-to-end configuration.
	srv = startServer(serverConfig(0))
	if err := srv.warmUp(ctx, w); err != nil {
		return nil, errors.Join(err, srv.close())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dOuts, _ := httpPass(ctx, o, srv, w, closed, workers)
	runtime.ReadMemStats(&m1)
	if err := srv.close(); err != nil {
		traceErr = errors.Join(traceErr, err)
	}
	var dLat []float64
	hits := 0
	for i := range dOuts {
		d := &dOuts[i]
		if d.err != nil {
			r.fail("untraced HTTP pass job %d: %v", i, d.err)
			continue
		}
		dLat = append(dLat, d.latency.Seconds()*1e3)
		if d.http.lane == "cache-hit" {
			hits++
		}
	}
	n := float64(len(dOuts))
	r.setN("sched.cache_hit_ratio", ratio(float64(hits), n), len(dOuts))
	r.setN("http.alloc_bytes_per_job", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), n), len(dOuts))
	r.setN("gc.cycles_per_job", ratio(float64(m1.NumGC-m0.NumGC), n), len(dOuts))
	r.setN("loadgen.lag_ms_p99", percentile(lags(dOuts), 0.99), len(dOuts))
	r.setN("trace.overhead_ratio", ratio(percentile(cLat, 0.5), percentile(dLat, 0.5)), len(cLat))
	r.attempted += len(bOuts) + len(cOuts) + len(dOuts)

	r.notef("serve ladder p50 per job: (a) library %.3f ms, (b) scheduler %.3f ms [+%.3f], (c) HTTP traced [+%.3f over (b)], (d) HTTP untraced latency %.3f ms; trace overhead ×%.3f",
		percentile(values(direct), 0.5), percentile(jobMS, 0.5), percentile(overMS, 0.5),
		percentile(httpOver, 0.5), percentile(dLat, 0.5), ratio(percentile(cLat, 0.5), percentile(dLat, 0.5)))
	r.notef("lanes (b): fast-path %d, queued %d, cache-hit %d, coalesced %d of %d",
		lanes["fast-path"], lanes["queued"], lanes["cache-hit"], lanes["coalesced"], len(jobMS))
	return kept, traceErr
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// traceServe is a serve-* traced run: set-up once, the kernel ladder
// over the workload's own jobs, then the serve ladder.
func traceServe(ctx context.Context, o *options, w *workload, r *report) error {
	srv, ex, err := setupServe(ctx, o, w, r)
	if err != nil {
		return err
	}
	if err := srv.close(); err != nil {
		return err
	}
	r.failed += ksCheck(ex, r)
	if err := kernelLadder(ctx, w.jobs, ladderValues/o.shrink.size, r); err != nil {
		return err
	}
	if err := riskLadder(w.jobs, r); err != nil {
		return err
	}
	kept, err := serveLadder(ctx, o, w, false, clientConns(), r)
	if err != nil {
		return err
	}
	return writeTraces(o, kept, r)
}

// writeTraces writes the span trees the traced run kept in memory.
func writeTraces(o *options, kept []flight.TraceJSON, r *report) error {
	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(kept)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	r.notef("span trees: %d written to %s", len(kept), path)
	return nil
}
