package rng_test

import (
	"testing"

	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/stats"
)

func TestSubstreamKeyDerivation(t *testing.T) {
	seen := map[uint64]int{}
	for part := 0; part < 64; part++ {
		k := rng.SubstreamKey(0xDEADBEEF, part)
		if k == 0 {
			t.Fatalf("zero key for part %d", part)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("parts %d and %d share key %#x", prev, part, k)
		}
		seen[k] = part
	}
	if rng.SubstreamKey(1, 0) == rng.SubstreamKey(2, 0) {
		t.Fatal("distinct masters share part-0 keys")
	}
	// Keys must not collide with the seed stream of the same master.
	seeds := rng.StreamSeeds(0xDEADBEEF, 64)
	for i, s := range seeds {
		if _, dup := seen[s]; dup {
			t.Fatalf("seed %d collides with a substream key", i)
		}
	}
}

// TestDecorrelatedSubstreamsStatistics is the tentpole validation of the
// decorrelation layer: substreams carved from ONE seed via Jump +
// Decorrelate must individually pass the existing uniformity machinery
// (KS, χ²) and jointly pass the new inter-stream cross-correlation and
// collision diagnostics.
func TestDecorrelatedSubstreamsStatistics(t *testing.T) {
	const parts, n = 4, 8192
	streams := make([][]uint32, parts)
	for part := 0; part < parts; part++ {
		c := mt.NewMT19937(0xFACade)
		c.Jump(rng.SubstreamSeek(part))
		c.Decorrelate(rng.SubstreamKey(0xFACade, part))
		buf := make([]uint32, n)
		c.FillUint32(buf)
		streams[part] = buf
	}

	for part, ws := range streams {
		// Per-stream marginal uniformity: KS against U(0,1)…
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = rng.U32ToFloat64Open(w)
		}
		ks := stats.KSTestOneSample(xs, func(x float64) float64 {
			switch {
			case x < 0:
				return 0
			case x > 1:
				return 1
			}
			return x
		})
		if ks.PValue < 0.001 {
			t.Fatalf("substream %d fails KS uniformity: D=%.4f p=%.5f", part, ks.D, ks.PValue)
		}
		// …and χ² over 64 equiprobable bins.
		obs := make([]int, 64)
		exp := make([]float64, 64)
		for _, w := range ws {
			obs[w>>26]++
		}
		for i := range exp {
			exp[i] = float64(len(ws)) / 64
		}
		chi, err := stats.Chi2GoodnessOfFit(obs, exp)
		if err != nil {
			t.Fatal(err)
		}
		if chi.PValue < 0.001 {
			t.Fatalf("substream %d fails χ² uniformity: stat=%.2f p=%.5f", part, chi.Stat, chi.PValue)
		}
	}

	// Pairwise independence: cross-correlation + birthday collisions.
	for i := 0; i < parts; i++ {
		for j := i + 1; j < parts; j++ {
			if err := stats.CheckDecorrelated(streams[i], streams[j], 32, 0.08, 20); err != nil {
				t.Fatalf("substreams %d/%d not decorrelated: %v", i, j, err)
			}
		}
	}

	// Negative control: without the scrambler, overlapping lanes of the
	// same walk must be caught by the same diagnostics.
	a := mt.NewMT19937(0xFACade)
	b := mt.NewMT19937(0xFACade)
	b.Jump(64) // mostly-overlapping windows of one stream
	bufA := make([]uint32, n)
	bufB := make([]uint32, n)
	a.FillUint32(bufA)
	b.FillUint32(bufB)
	if err := stats.CheckDecorrelated(bufA, bufB, 96, 0.08, 20); err == nil {
		t.Fatal("overlapping undecorrelated lanes passed the independence check")
	}
}
