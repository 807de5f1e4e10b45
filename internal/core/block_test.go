package core

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestBlockComputeEquivalence pins the compute axis: the block compute
// path (bulk Mersenne-Twister fills + batched normal/gamma kernels, run
// by Fused) produces output bitwise-identical to the cycle-exact gated
// one-word path (run by Hardware), for every Table I config plus the
// ziggurat extension at a fixed seed — with a non-zero BreakID so the
// delayed-exit overshoot semantics are exercised across the bulk/tail
// boundary. Scenarios is sized so each work-item runs several full bulk
// chunks per sector plus a gated tail.
func TestBlockComputeEquivalence(t *testing.T) {
	cases := append(tableIConfigs[:len(tableIConfigs):len(tableIConfigs)], struct {
		name      string
		transform normal.Kind
		params    mt.Params
	}{"Ziggurat-MT19937", normal.Ziggurat, mt.MT19937Params})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Transform: tc.transform, MTParams: tc.params,
				WorkItems: 2, Scenarios: 2000, Sectors: 3,
				SectorVariances: []float64{0.5, 1.39, 4.0},
				Seed:            0xDECB10C5,
				BreakID:         2,
			}
			gated := runMode(t, cfg, true)
			block := runMode(t, cfg, false)
			if len(gated.Data) != len(block.Data) {
				t.Fatalf("length mismatch: gated %d, block %d", len(gated.Data), len(block.Data))
			}
			for i := range gated.Data {
				if gated.Data[i] != block.Data[i] {
					t.Fatalf("Data[%d]: gated %x, block %x", i, gated.Data[i], block.Data[i])
				}
			}
			// The block path must also report the identical pipeline
			// telemetry: same cycle counts, acceptances and overshoot.
			for w := range gated.PerWI {
				g, b := gated.PerWI[w], block.PerWI[w]
				if g.Cycles != b.Cycles || g.Accepted != b.Accepted || g.Overshoot != b.Overshoot {
					t.Fatalf("work-item %d stats: gated {cycles %d accepted %d overshoot %d}, block {%d %d %d}",
						w, g.Cycles, g.Accepted, g.Overshoot, b.Cycles, b.Accepted, b.Overshoot)
				}
			}
		})
	}
}

// TestBlockComputeTinyQuota covers the degenerate splits of the compute
// axis: quotas below one chunk (pure gated tail), quotas of exactly one
// chunk (quota lands on a chunk boundary, exercising the quotaAt =
// last-trip case when all attempts accept — and the tail overshoot path
// either way), and zero scenarios for trailing work-items.
func TestBlockComputeTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 3, 255, 256, 257, 512} {
		cfg := Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			WorkItems: 3, Scenarios: scenarios, Sectors: 2,
			SectorVariance: 0.9, Seed: 31, BreakID: 1,
		}
		g, b := runMode(t, cfg, true).Data, runMode(t, cfg, false).Data
		for i := range g {
			if g[i] != b[i] {
				t.Fatalf("scenarios=%d Data[%d]: gated %x, block %x", scenarios, i, g[i], b[i])
			}
		}
	}
}
