package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// value is one metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's figures, checks and notes.
type report struct {
	metrics   map[string]value
	samples   map[string]int // sample count behind a figure, where one applies
	attempted int
	failed    int
	invalid   string // non-empty: the run measured nothing trustworthy
	notes     []string
	combined  []string // per-job verified digests, in job order
}

func newReport() *report {
	return &report{metrics: map[string]value{}, samples: map[string]int{}}
}

// set records a figure under a name from the metric tables; an unknown
// name is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	m, ok := lookupMetric(name)
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.metrics[name] = value{Value: v, Unit: m.Unit}
}

func (r *report) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// combinedDigest folds every verified job digest, in job order, into
// one: two runs of the same workload and seed, on any commit, must print
// the same value.
func (r *report) combinedDigest() string {
	h := sha256.New()
	for _, d := range r.combined {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
