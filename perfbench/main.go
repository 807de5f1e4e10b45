// Command perfbench is the decwi benchmark: one command that runs a
// named workload through the library's and the server's public entry
// points, verifies every output, and prints each metric by name with its
// unit. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory explains them.
//
//	perfbench --workload bulk|serve-cold|serve-hot|all --seed N --seconds S --trace 0|1
//	perfbench compare --base DIR --change DIR
//
// The last line of standard output is the run's JSON result:
// {"correct", "attempted", "failed", "metrics"}. The same result, with
// provenance, goes to a file in --out. The exit status is 0 only for a
// valid run whose every output verified.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// options is one run's configuration. shrink and corrupt exist for the
// self-tests only: shrink makes a tiny run, corrupt names a job whose
// downloaded payload gets one flipped bit.
type options struct {
	workload string
	// start is when this workload's run began: process start, or for
	// the later workloads of --workload all, the end of the previous one.
	start   time.Time
	seed    uint64
	seconds int
	trace   bool
	outDir  string
	shrink  shrink
	corrupt int
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{shrink: fullSize, corrupt: -1}
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v, or all of them in turn", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench", "results"), "directory for result and span files (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be ≥ 1\n")
		return 2
	}
	o.trace = *traceFlag == 1
	o.start = processStart
	if o.workload != "all" {
		return execute(ctx, &o, stdout, stderr)
	}
	code := 0
	for i, wl := range workloadNames {
		wo := o
		wo.workload = wl
		if i > 0 {
			wo.start = time.Now()
			// Writing 5 to clear_refs resets VmHWM, so peak_rss_mb is
			// this workload's own peak.
			if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
				fmt.Fprintf(stderr, "perfbench: peak_rss_mb of %s includes earlier workloads: %v\n", wl, err)
			}
		}
		code = max(code, execute(ctx, &wo, stdout, stderr))
	}
	return code
}

// result is the JSON the last line of standard output carries.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultFile is what --out receives: the result plus everything needed
// to trust and compare it.
type resultFile struct {
	result
	Ungated        map[string]value `json:"ungated,omitempty"`
	Provenance     provenance       `json:"provenance"`
	FailRatio      float64          `json:"fail_ratio"`
	Samples        map[string]int   `json:"samples"`
	CombinedDigest string           `json:"combined_digest"`
	Notes          []string         `json:"notes"`
}

func execute(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	w, err := buildWorkload(o.workload, o.seed, o.seconds, o.shrink)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	r := newReport()
	switch {
	case w.name == "bulk" && o.trace:
		err = traceBulk(ctx, o, w, r)
	case w.name == "bulk":
		err = runBulk(ctx, o, w, r)
	case o.trace:
		err = traceServe(ctx, o, w, r)
	default:
		err = runServe(ctx, o, w, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		r.set("peak_rss_mb", rss)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	metrics := map[string]value{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", w.name, m.Name)
			return 1
		}
		metrics[m.Name] = v
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	var extra map[string]value
	if !o.trace {
		extra = map[string]value{}
		for _, m := range ungated {
			extra[m.Name] = r.metrics[m.Name]
		}
	}
	file := resultFile{
		result:         res,
		Ungated:        extra,
		Provenance:     collectProvenance(ctx, o),
		FailRatio:      ratio(float64(r.failed), float64(r.attempted)),
		Samples:        r.samples,
		CombinedDigest: r.combinedDigest(),
		Notes:          r.notes,
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	printMetrics(stdout, w.name+" metrics", want, r)
	if !o.trace {
		printMetrics(stdout, "reported, not gated", ungated, r)
	}
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d failed of %d attempted)\n", file.FailRatio, r.failed, r.attempted)
	if len(r.combined) > 0 {
		fmt.Fprintf(stdout, "combined digest %s over %d verified jobs\n", file.CombinedDigest, len(r.combined))
	}
	fmt.Fprintf(stdout, "provenance %s\n", file.Provenance)
	if r.invalid != "" {
		fmt.Fprintf(stderr, "perfbench: run invalid, not reported: %s\n", r.invalid)
		return 1
	}
	if err := writeResult(o, &file); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed verification\n", r.failed, r.attempted)
		return 1
	}
	return 0
}

func printMetrics(out io.Writer, title string, tab []metric, r *report) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range tab {
		v := r.metrics[m.Name]
		line := fmt.Sprintf("  %-36s %16.6g %-14s", m.Name, v.Value, v.Unit)
		if n, ok := r.samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%-6d", n)
		}
		if m.Layer != "" {
			line += fmt.Sprintf(" [%s → %s]", m.Layer, m.Moves)
		}
		fmt.Fprintln(out, line)
	}
}

func writeResult(o *options, f *resultFile) error {
	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%s.json", o.workload, mode, o.seed, time.Now().UTC().Format("20060102T150405.000000000"))
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, name), append(b, '\n'), 0o644)
}
