package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, want)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, want)
		}
	}
}

// runTiny runs one workload at tinySize for one second and returns the
// exit status and the parsed result line.
func runTiny(t *testing.T, workload string, trace bool, corrupt int) (int, result, string) {
	t.Helper()
	o := &options{workload: workload, start: time.Now(), seed: 3, seconds: 1, trace: trace, outDir: t.TempDir(), shrink: tinySize, corrupt: corrupt}
	var stdout, stderr bytes.Buffer
	code := execute(context.Background(), o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			code, res, stderr := runTiny(t, wl, trace, -1)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", wl, trace, code, res, stderr)
			}
			tab := endToEnd
			if trace {
				tab = perLayer
			}
			if len(res.Metrics) != len(tab) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(tab))
			}
			for _, m := range tab {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, m.Name, v, m.Unit)
				}
			}
		}
	}
}

func TestCorruptPayloadFails(t *testing.T) {
	code, res, _ := runTiny(t, "serve-cold", false, 0)
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("one flipped byte: exit %d, result correct=%v failed=%d; want a nonzero exit and one failure", code, res.Correct, res.Failed)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := buildWorkload(wl, 9, 2, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(wl, 9, 2, fullSize)
		c, _ := buildWorkload(wl, 10, 2, fullSize)
		ja, _ := json.Marshal(jobSpecs(a))
		jb, _ := json.Marshal(jobSpecs(b))
		jc, _ := json.Marshal(jobSpecs(c))
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: seed 9 made two different job lists", wl)
		}
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 9 and 10 made the same job list", wl)
		}
	}
}

func jobSpecs(w *workload) []any {
	var out []any
	for _, j := range w.jobs {
		out = append(out, j.spec, j.due)
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed uint64, v float64) resultFile {
		var f resultFile
		f.Provenance.Workload = "bulk"
		f.Provenance.Seed = seed
		f.Metrics = map[string]value{"values_per_s": {Value: v}}
		return f
	}
	side := func(vals ...float64) []resultFile {
		var out []resultFile
		for i, v := range vals {
			out = append(out, mk(uint64(i), v))
		}
		return out
	}
	m, _ := lookupMetric("values_per_s")
	base := side(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		change []resultFile
		want   string
	}{
		{side(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{side(99, 101, 100, 100, 99, 101, 100, 99, 101, 100), "no-worse"},
		{side(50, 51, 49, 50, 52, 48, 50, 51, 49, 50), "worse"},
		{side(50, 150, 60, 140, 70, 130, 55, 145, 65, 135), "unresolved"},
	}
	for _, c := range cases {
		if got := compareMetric("bulk", m, base, c.change).verdict; got != c.want {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
}
