package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain judges a change against its parent from two directories
// of end-to-end result files, written by interleaved runs (parent,
// change, parent, …) with the same seeds on both sides. For every
// workload × end-to-end metric it prints each side's median and
// quartiles, the pairs the change won, and a verdict:
//
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither side), and the medians differ by
//     more than the parent's interquartile range;
//   - unresolved: either side's spread (IQR over median) is wider than
//     the metric's bound, unless every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - no-worse: otherwise.
//
// It exits 1 when any row is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "directory of the parent's result files")
	change := fs.String("change", "", "directory of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *change == "" {
		fmt.Fprintln(stderr, "perfbench compare: --base and --change are required")
		return 2
	}
	b, err := loadResults(*base)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	c, err := loadResults(*change)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	rows := compareResults(b, c)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: no workload has results on both sides")
		return 1
	}
	fmt.Fprintf(stdout, "%-11s %-21s %31s %31s %8s %7s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict")
	worse := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-11s %-21s %11.5g [%8.4g, %8.4g] %11.5g [%8.4g, %8.4g] %+7.2f%% %3d/%-3d  %s\n",
			r.workload, r.metric, r.base[1], r.base[0], r.base[2], r.change[1], r.change[0], r.change[2],
			100*r.delta, r.won, r.pairs, r.verdict)
		worse = worse || r.verdict == "worse"
	}
	if worse {
		return 1
	}
	return 0
}

// loadResults reads every end-to-end result file in dir, oldest first
// (file names carry the UTC timestamp).
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-e2e-seed*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

type compareRow struct {
	workload, metric string
	base, change     [3]float64 // q1, median, q3
	delta            float64    // relative median change, positive = better
	won, pairs       int
	verdict          string
}

func compareResults(base, change []resultFile) []compareRow {
	var rows []compareRow
	for _, wl := range workloadNames {
		b, c := byWorkload(base, wl), byWorkload(change, wl)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range endToEnd {
			rows = append(rows, compareMetric(wl, m, b, c))
		}
	}
	return rows
}

func byWorkload(fs []resultFile, wl string) []resultFile {
	var out []resultFile
	for _, f := range fs {
		if f.Provenance.Workload == wl && !f.Provenance.Trace {
			out = append(out, f)
		}
	}
	return out
}

func compareMetric(wl string, m metric, base, change []resultFile) compareRow {
	row := compareRow{workload: wl, metric: m.Name}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	var bv, cv []float64
	for _, f := range base {
		bv = append(bv, f.Metrics[m.Name].Value)
	}
	for _, f := range change {
		cv = append(cv, f.Metrics[m.Name].Value)
	}
	// Pair runs by seed, in run order within a seed.
	used := make([]bool, len(change))
	for _, fb := range base {
		for i, fc := range change {
			if used[i] || fc.Provenance.Seed != fb.Provenance.Seed {
				continue
			}
			used[i] = true
			row.pairs++
			if d := sign * (fc.Metrics[m.Name].Value - fb.Metrics[m.Name].Value); d > 0 {
				row.won++
			}
			break
		}
	}
	q1b, mb, q3b := quartiles(bv)
	q1c, mc, q3c := quartiles(cv)
	row.base = [3]float64{q1b, mb, q3b}
	row.change = [3]float64{q1c, mc, q3c}
	row.delta = sign * ratio(mc-mb, mb)
	spread := math.Max(ratio(q3b-q1b, math.Abs(mb)), ratio(q3c-q1c, math.Abs(mc)))
	allBetter := true
	for _, x := range cv {
		for _, y := range bv {
			if sign*(x-y) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case row.pairs >= 10 && 10*row.won >= 9*row.pairs && row.delta > 0 && math.Abs(mc-mb) > q3b-q1b:
		row.verdict = "improved"
	case spread > m.Bound && !allBetter:
		row.verdict = "unresolved"
	case row.delta < -m.Bound:
		row.verdict = "worse"
	default:
		row.verdict = "no-worse"
	}
	return row
}
