package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/serve"
	"github.com/decwi/decwi/internal/telemetry/flight"
)

// server is decwi-served's handler behind an in-process httptest
// listener, with a client limited to nproc connections.
// clientConns is the client's connection cap: one per CPU.
func clientConns() int { return runtime.NumCPU() }

type server struct {
	sched *serve.Scheduler
	ts    *httptest.Server
	tr    *http.Transport
	hc    *http.Client
}

// serverConfig is decwi-served's default configuration (64 MiB cache,
// dedup on, fast path at 65536 values, two executors, quotas off) with
// logging off. traceRing > 0 turns the flight recorder on with a ring of
// that many traces; 0 leaves tracing off.
func serverConfig(traceRing int) serve.Config {
	cfg := serve.Config{FastPathValues: 65536}
	if traceRing > 0 {
		cfg.Flight = flight.New(traceRing, 64, 250*time.Millisecond)
	}
	return cfg
}

func startServer(cfg serve.Config) *server {
	sched := serve.New(cfg)
	ts := httptest.NewServer(serve.NewServer(sched).Handler())
	tr := &http.Transport{
		MaxConnsPerHost:     clientConns(),
		MaxIdleConnsPerHost: clientConns(),
		DisableCompression:  true,
	}
	return &server{sched: sched, ts: ts, tr: tr, hc: &http.Client{Transport: tr}}
}

// close stops the listener, drains the scheduler and drops the client's
// connections; every goroutine either side started has ended on return.
func (s *server) close() error {
	s.tr.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.sched.Drain(ctx)
}

// httpTiming is one job's client-side breakdown.
type httpTiming struct {
	submit, await, download, del time.Duration
	verified                     time.Time // the verified download completed
	id, lane                     string
}

// downloadBuf is the reusable copy buffer for payload hashing.
var downloadBuf = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// flipFirst flips one bit of the first byte it passes through: the
// self-test's stand-in for a payload corrupted on the wire.
type flipFirst struct {
	r    io.Reader
	done bool
}

func (f *flipFirst) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && !f.done {
		p[0] ^= 0x01
		f.done = true
	}
	return n, err
}

func (s *server) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return s.hc.Do(req)
}

// decodeStatus reads a JobStatus body and closes it.
func decodeStatus(resp *http.Response, want int) (serve.JobStatus, error) {
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the message only decorates the error
		return st, fmt.Errorf("HTTP %d (want %d): %s", resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode job status: %w", err)
	}
	return st, nil
}

// runHTTP drives one job through the public API: POST, long-poll the
// status, download and verify the payload against both the server's
// X-Decwi-Sha256 and the library's digest, then DELETE. A refused
// submission (429/503) or any mismatch is an error.
func (s *server) runHTTP(ctx context.Context, j *job, corrupt bool) (httpTiming, error) {
	var t httpTiming
	body, err := json.Marshal(j.spec)
	if err != nil {
		return t, err
	}
	path := "/v1/generate"
	if j.spec.Kind == serve.KindRisk {
		path = "/v1/risk"
	}
	t0 := time.Now()
	resp, err := s.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	st, err := decodeStatus(resp, http.StatusAccepted)
	if err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	t.submit, t.id = t1.Sub(t0), st.ID

	resp, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"?wait=60s", nil)
	if err != nil {
		return t, fmt.Errorf("await %s: %w", st.ID, err)
	}
	if st, err = decodeStatus(resp, http.StatusOK); err != nil {
		return t, fmt.Errorf("await %s: %w", t.id, err)
	}
	if st.State != serve.StateDone {
		return t, fmt.Errorf("await %s: state %s (%s)", t.id, st.State, st.Error)
	}
	t2 := time.Now()
	t.await, t.lane = t2.Sub(t1), st.Lane

	resp, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+t.id+"/result", nil)
	if err != nil {
		return t, fmt.Errorf("download %s: %w", t.id, err)
	}
	got, err := hashBody(resp, corrupt)
	if err != nil {
		return t, fmt.Errorf("download %s: %w", t.id, err)
	}
	if hdr := resp.Header.Get("X-Decwi-Sha256"); got != hdr || got != j.want {
		return t, fmt.Errorf("download %s: payload sha256 %.12s, header %.12s, library %.12s", t.id, got, hdr, j.want)
	}
	t.verified = time.Now()
	t.download = t.verified.Sub(t2)

	resp, err = s.do(ctx, http.MethodDelete, "/v1/jobs/"+t.id, nil)
	if err != nil {
		return t, fmt.Errorf("delete %s: %w", t.id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return t, fmt.Errorf("delete %s: HTTP %d", t.id, resp.StatusCode)
	}
	t.del = time.Since(t.verified)
	return t, nil
}

func hashBody(resp *http.Response, corrupt bool) (string, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var rd io.Reader = resp.Body
	if corrupt {
		rd = &flipFirst{r: rd}
	}
	h := sha256.New()
	buf := downloadBuf.Get().(*[]byte)
	defer downloadBuf.Put(buf)
	if _, err := io.CopyBuffer(h, rd, *buf); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// debugTrace reads one job's span tree from the flight recorder.
func (s *server) debugTrace(ctx context.Context, id string) (flight.TraceJSON, error) {
	var tr flight.TraceJSON
	resp, err := s.do(ctx, http.MethodGet, "/debug/jobs/"+id, nil)
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tr, fmt.Errorf("debug trace %s: HTTP %d", id, resp.StatusCode)
	}
	return tr, json.NewDecoder(resp.Body).Decode(&tr)
}

// warmUp sends a few jobs outside every workload's tuple space, so
// connections, pools and lazily built tables exist before timing, then
// puts the workload's prewarm tuples in the result cache.
func (s *server) warmUp(ctx context.Context, w *workload) error {
	warm := []serve.JobSpec{
		{Kind: serve.KindGenerate, Config: 2, Seed: 7, Scenarios: 2048, Sectors: 4, Workers: 1, Tenant: "warm"},
		{Kind: serve.KindGenerate, Config: 3, Seed: 7, Scenarios: 32768, Sectors: 4, Workers: 2, Tenant: "warm"},
		{Kind: serve.KindRisk, Config: 4, Seed: 7, Scenarios: 200, Sectors: 4, Variance: 1.39, Workers: 1,
			Obligors: 10, PD: 0.02, Exposure: 100, Tenant: "warm"},
	}
	for i := range warm {
		j := job{spec: warm[i]}
		var err error
		if warm[i].Kind == serve.KindRisk {
			j.want, err = riskDigest(&warm[i])
		} else {
			var res *decwi.GenerateResult
			if res, err = decwi.Generate(decwi.ConfigID(warm[i].Config), generateOptions(&warm[i])); err == nil {
				j.want = digestValues(res.Values)
			}
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if _, err := s.runHTTP(ctx, &j, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for i := range w.prewarm {
		if _, err := s.runHTTP(ctx, &w.prewarm[i], false); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	return nil
}

// outcome is one job's result in a pass.
type outcome struct {
	err     error
	start   time.Time     // when the generator actually sent it
	lag     time.Duration // start − due
	latency time.Duration // due (or an idle worker's wake-up) → verified result
	http    httpTiming
	sched   schedTiming
}

// jobRunner executes job i and returns when its result is verified;
// done is the verification instant.
type jobRunner func(ctx context.Context, i int, o *outcome) (done time.Time, err error)

// loadgen plays the schedule with `workers` client goroutines. Open
// loop: job i is due at start+jobs[i].due whatever the system did
// before. When every worker is still busy with earlier jobs at that
// time, the job waits and its latency runs from the due time, so a stall
// is charged to every job it delays. When a worker is idle, it sleeps
// until the due time and the job is timed from the wake-up: the timer's
// own lateness (up to milliseconds on a virtual machine whose idle vCPUs
// are descheduled) is the generator's error, reported as send lag, not
// the system's latency. Closed loop (closed=true): each job is due when
// a worker becomes free. It returns per-job outcomes and the wall time
// from the start to the last verified result.
func loadgen(ctx context.Context, jobs []job, workers int, closed bool, run jobRunner) ([]outcome, time.Duration) {
	outs := make([]outcome, len(jobs))
	var (
		next atomic.Int64
		last atomic.Int64 // latest completion, ns since start
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				o := &outs[i]
				due := start.Add(jobs[i].due)
				from := due
				if closed {
					due, from = time.Now(), time.Now()
				} else if d := time.Until(due); d > 0 {
					// An idle worker's late wake-up is the generator's
					// error, not a wait the system imposed: it counts as
					// lag, and the job is timed from the wake-up.
					time.Sleep(d)
					from = time.Now()
				}
				o.start = time.Now()
				o.lag = o.start.Sub(due)
				done, err := run(ctx, i, o)
				if err != nil {
					o.err = err
					done = time.Now()
				}
				o.latency = done.Sub(from)
				for {
					cur, end := last.Load(), int64(done.Sub(start))
					if end <= cur || last.CompareAndSwap(cur, end) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range outs {
			if outs[i].start.IsZero() {
				outs[i].err = err // never sent
			}
		}
	}
	return outs, time.Duration(last.Load())
}
