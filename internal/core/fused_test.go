package core

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// tableIConfigs are the four kernel builds of Table I.
var tableIConfigs = []struct {
	name      string
	transform normal.Kind
	params    mt.Params
}{
	{"Config1-MB-MT19937", normal.MarsagliaBray, mt.MT19937Params},
	{"Config2-MB-MT521", normal.MarsagliaBray, mt.MT521Params},
	{"Config3-ICDF-MT19937", normal.ICDFCUDA, mt.MT19937Params},
	{"Config4-ICDF-MT521", normal.ICDFCUDA, mt.MT521Params},
}

// runPath runs e on Run's Listing 1 dataflow (hardware) or on the Fused
// path: RunChunk over every work-item into a RunResult laid out as Run
// lays out its own.
func runPath(e *Engine, hardware bool) (*RunResult, error) {
	if hardware {
		return e.Run()
	}
	cfg := e.Config()
	res := &RunResult{
		Data:         make([]float32, cfg.Scenarios*int64(cfg.Sectors)),
		BlockOffsets: e.BlockOffsets(),
		PerWI:        make([]WorkItemStats, cfg.WorkItems),
		cfg:          cfg,
	}
	if err := e.RunChunk(nil, res.Data, 0, cfg.WorkItems, res.PerWI); err != nil {
		return nil, err
	}
	return res, nil
}

// runMode builds cfg's engine and runs it through runPath.
func runMode(t *testing.T, cfg Config, hardware bool) *RunResult {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPath(e, hardware)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFusedRunEquivalence is the engine's one execution-path invariant:
// the Fused path (RunChunk's block compute — bulk Mersenne-Twister fills
// and batched normal/gamma kernels — writing candidate blocks straight
// into the device buffer) produces output bitwise-identical to Run
// (Listing 1's dataflow: gated
// one-word compute every pipeline iteration, one GammaRNG and one
// Transfer process per work-item joined by an hls::stream moving
// 512-bit batches). Because the two differ on both the compute and the
// transport axis, one comparison covers both. The table spans every
// Table I config plus the ziggurat extension, BreakID 0 and 2 (the
// delayed-exit overshoot crossing the bulk/tail boundary), per-sector
// variances and an uneven work-item split with several bulk chunks plus
// a gated tail per sector; the stream FIFO is shallower than a burst.
func TestFusedRunEquivalence(t *testing.T) {
	cases := append(tableIConfigs[:len(tableIConfigs):len(tableIConfigs)], struct {
		name      string
		transform normal.Kind
		params    mt.Params
	}{"Ziggurat-MT19937", normal.Ziggurat, mt.MT19937Params})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, breakID := range []int{0, 2} {
				cfg := Config{
					Transform: tc.transform, MTParams: tc.params,
					WorkItems: 3, Scenarios: 2501, Sectors: 3,
					SectorVariances: []float64{0.5, 1.39, 4.0},
					Seed:            0xF05EDB17,
					StreamDepth:     8,
					BreakID:         breakID,
				}
				hw := runMode(t, cfg, true)
				fused := runMode(t, cfg, false)
				if len(hw.Data) != len(fused.Data) {
					t.Fatalf("BreakID=%d: length mismatch: hardware %d, fused %d", breakID, len(hw.Data), len(fused.Data))
				}
				for i := range hw.Data {
					if hw.Data[i] != fused.Data[i] {
						t.Fatalf("BreakID=%d Data[%d]: hardware %x, fused %x", breakID, i, hw.Data[i], fused.Data[i])
					}
				}
				// The pipeline-side telemetry is path-independent; only
				// the stream-side stats (Bursts, FlushedWords,
				// StreamHigh) exist solely on the Hardware path.
				for w := range hw.PerWI {
					h, f := hw.PerWI[w], fused.PerWI[w]
					if h.Cycles != f.Cycles || h.Accepted != f.Accepted || h.Overshoot != f.Overshoot || h.Scenarios != f.Scenarios {
						t.Fatalf("BreakID=%d work-item %d stats: hardware {cycles %d accepted %d overshoot %d}, fused {%d %d %d}",
							breakID, w, h.Cycles, h.Accepted, h.Overshoot, f.Cycles, f.Accepted, f.Overshoot)
					}
					if h.Bursts == 0 {
						t.Fatalf("BreakID=%d work-item %d: Hardware path formed no bursts", breakID, w)
					}
					if f.Bursts != 0 {
						t.Fatalf("BreakID=%d work-item %d: Fused path reported %d bursts; it has no stream", breakID, w, f.Bursts)
					}
				}
			}
		})
	}
}

// TestFusedRunTinyQuota drives the adversarial splits through both
// paths: quotas below one candidate block (pure gated tail), quotas
// landing exactly on a block boundary (the quotaAt = last-trip case
// when every attempt accepts), single-scenario runs where some
// work-items receive nothing, all with delayed exit enabled.
func TestFusedRunTinyQuota(t *testing.T) {
	for _, scenarios := range []int64{1, 3, 255, 256, 257, 513} {
		cfg := Config{
			Transform: normal.ICDFCUDA, MTParams: mt.MT521Params,
			WorkItems: 3, Scenarios: scenarios, Sectors: 2,
			SectorVariance: 0.9, Seed: 47, BreakID: 1,
		}
		h, f := runMode(t, cfg, true).Data, runMode(t, cfg, false).Data
		for i := range h {
			if h[i] != f[i] {
				t.Fatalf("scenarios=%d Data[%d]: hardware %x, fused %x", scenarios, i, h[i], f[i])
			}
		}
	}
}

// TestBlockComputeDeterminism: two Fused runs at one seed agree — the
// sync.Pool scratch and generator reuse introduces no cross-run state.
func TestBlockComputeDeterminism(t *testing.T) {
	cfg := Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
		WorkItems: 4, Scenarios: 3000, Sectors: 2,
		SectorVariance: 1.39, Seed: 7,
	}
	a, b := runMode(t, cfg, false).Data, runMode(t, cfg, false).Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Data[%d] differs across identical Fused runs", i)
		}
	}
}

// TestBatchedTransportDeterminism: two Hardware runs at the same seed
// are identical — the concurrently scheduled dataflow processes and
// their 512-bit stream batches introduce no scheduling-dependent state.
func TestBatchedTransportDeterminism(t *testing.T) {
	cfg := Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
		WorkItems: 4, Scenarios: 256, Sectors: 2,
		SectorVariance: 1.39, Seed: 42,
	}
	a, b := runMode(t, cfg, true).Data, runMode(t, cfg, true).Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Data[%d] differs across identical Hardware runs", i)
		}
	}
}

// TestFusedTelemetryCounters: the Fused path accounts for its direct
// writes — every block landing in the device buffer bumps
// engine.fused-blocks and every value engine.fused-direct, and together
// with the gated tails the direct writes never exceed the output total.
// The Hardware run must not create fused counters at all.
func TestFusedTelemetryCounters(t *testing.T) {
	run := func(hardware bool) (int64, int64, []string) {
		rec := telemetry.New(64)
		runMode(t, Config{
			Transform: normal.MarsagliaBray, MTParams: mt.MT521Params,
			WorkItems: 2, Scenarios: 2000, Sectors: 2,
			SectorVariance: 1.39, Seed: 5, Telemetry: rec,
		}, hardware)
		var blocks, direct int64
		var names []string
		for _, c := range rec.Counters() {
			names = append(names, c.Name())
			switch {
			case strings.HasPrefix(c.Name(), "engine.fused-blocks"):
				blocks += c.Value()
			case strings.HasPrefix(c.Name(), "engine.fused-direct"):
				direct += c.Value()
			}
		}
		return blocks, direct, names
	}
	blocks, direct, _ := run(false)
	if blocks == 0 || direct == 0 {
		t.Fatalf("fused run recorded %d blocks / %d direct values, want both non-zero", blocks, direct)
	}
	if total := int64(2000 * 2); direct > total {
		t.Fatalf("fused-direct %d exceeds output total %d", direct, total)
	}
	if blocks, direct, names := run(true); blocks != 0 || direct != 0 {
		t.Fatalf("Hardware run created fused counters (%d blocks, %d direct): %v", blocks, direct, names)
	}
}

// TestPropertyFusedEquivalence is the testing/quick sweep over the
// execution-path axis: any small configuration — random transform,
// workload, split, seed and BreakID — produces the same bytes on the
// Hardware and the Fused path.
func TestPropertyFusedEquivalence(t *testing.T) {
	kinds := []normal.Kind{normal.MarsagliaBray, normal.ICDFCUDA, normal.Ziggurat}
	f := func(scenRaw uint16, secRaw, wiRaw, kindRaw uint8, seed uint64) bool {
		cfg := Config{
			Transform:      kinds[int(kindRaw)%len(kinds)],
			MTParams:       mt.MT521Params,
			WorkItems:      int(wiRaw%4) + 1,
			Scenarios:      int64(scenRaw%1200) + 1,
			Sectors:        int(secRaw%3) + 1,
			SectorVariance: 1.39, Seed: seed,
			BreakID: int(seed % 3),
		}
		h, f := runMode(t, cfg, true).Data, runMode(t, cfg, false).Data
		for i := range h {
			if h[i] != f[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
