package core

import (
	"fmt"
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/telemetry"
)

// TestTelemetryDoesNotPerturbRNG is the guard promised in Config.Telemetry's
// doc: attaching a live recorder observes the run but must never change
// the generated data. The gating discipline of Section II-E makes the
// output exquisitely sensitive to any extra RNG consumption, so a
// telemetry hook that drew a random number — or reordered the gated
// stream advances — would show up here as a value-level diff.
func TestTelemetryDoesNotPerturbRNG(t *testing.T) {
	base := Config{
		Transform: normal.ICDFFPGA, MTParams: mt.MT521Params,
		WorkItems: 4, Scenarios: 2000, Sectors: 2,
		SectorVariance: 1.39, Seed: 99,
	}

	run := func(rec *telemetry.Recorder, hardware bool) *RunResult {
		cfg := base
		cfg.Telemetry = rec
		return runMode(t, cfg, hardware)
	}

	// Both execution paths must be telemetry-transparent: Run's gated
	// compute because any hook drawing a word would shift
	// the stream, the Fused path's block compute additionally because
	// its per-chunk counter bookkeeping reads the generator's counters
	// mid-sector.
	for _, hardware := range []bool{true, false} {
		plain := run(nil, hardware)
		traced := run(telemetry.New(1<<12), hardware)

		if len(plain.Data) != len(traced.Data) {
			t.Fatalf("hardware=%v: data length changed under telemetry: %d vs %d", hardware, len(plain.Data), len(traced.Data))
		}
		for i := range plain.Data {
			if plain.Data[i] != traced.Data[i] {
				t.Fatalf("hardware=%v: value %d perturbed by telemetry: %v (off) vs %v (on)", hardware, i, plain.Data[i], traced.Data[i])
			}
		}
	}
}

// TestTelemetryCountersPopulated verifies the engine actually records the
// per-work-item attribution counters the stall report ranks — in
// particular the Mersenne-Twister feed-stream hold counts and the gamma
// rejection-loop retries.
func TestTelemetryCountersPopulated(t *testing.T) {
	rec := telemetry.New(1 << 12)
	eng, err := NewEngine(Config{
		Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
		WorkItems: 2, Scenarios: 1000, Sectors: 1,
		SectorVariance: 1.39, Seed: 5, Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]*telemetry.Counter{}
	for _, c := range rec.Counters() {
		byName[c.Name()] = c
	}
	for _, name := range []string{
		"engine.cycles[0]", "engine.accepted[0]",
		"mtfeed.mt1-hold[0]", "mtfeed.mt2-hold[0]",
		"rejection.gamma-loop[0]", "rejection.normal-transform[0]",
		"membus.bursts[0]",
	} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("counter %q not recorded (have %d counters)", name, len(byName))
		}
		if c.Value() < 0 {
			t.Fatalf("counter %q negative: %d", name, c.Value())
		}
	}
	// Marsaglia-Bray rejects at the transform level, so both the
	// transform-rejection and MT1-hold counters must be strictly positive.
	if byName["rejection.normal-transform[0]"].Value() == 0 {
		t.Fatal("Marsaglia-Bray run recorded zero transform rejections")
	}
	if byName["mtfeed.mt1-hold[0]"].Value() == 0 {
		t.Fatal("Marsaglia-Bray run recorded zero MT1 hold cycles")
	}
	if byName["engine.cycles[0]"].Value() <= byName["engine.accepted[0]"].Value() {
		t.Fatal("cycles should exceed accepted under rejection")
	}
}

// TestTelemetryBlockCounters verifies the Fused path's block compute
// publishes its bulk-fill accounting: the number of CycleBlock batches
// and the total Mersenne-Twister words those batches consumed. The word
// count must cover at least the always-enabled MT0 draws of every bulk
// cycle, and the counters must vanish on Run's dataflow, whose compute
// is the gated one-word loop.
func TestTelemetryBlockCounters(t *testing.T) {
	run := func(hardware bool) map[string]*telemetry.Counter {
		rec := telemetry.New(1 << 12)
		runMode(t, Config{
			Transform: normal.MarsagliaBray, MTParams: mt.MT19937Params,
			WorkItems: 2, Scenarios: 4000, Sectors: 2,
			SectorVariance: 1.39, Seed: 5, Telemetry: rec,
		}, hardware)
		byName := map[string]*telemetry.Counter{}
		for _, c := range rec.Counters() {
			byName[c.Name()] = c
		}
		return byName
	}

	block := run(false)
	for wid := 0; wid < 2; wid++ {
		fills := block[fmt.Sprintf("rng.gamma[%d].block-fills", wid)]
		words := block[fmt.Sprintf("rng.gamma[%d].block-words", wid)]
		if fills.Value() == 0 {
			t.Fatalf("work-item %d: no block fills recorded on the block path", wid)
		}
		perAttempt := int64(normal.MarsagliaBray.UniformsPerCandidate())
		if min := fills.Value() * 256 * perAttempt; words.Value() < min {
			t.Fatalf("work-item %d: block-words %d below the MT0 floor %d for %d fills",
				wid, words.Value(), min, fills.Value())
		}
	}

	hw := run(true)
	for wid := 0; wid < 2; wid++ {
		if c, ok := hw[fmt.Sprintf("rng.gamma[%d].block-fills", wid)]; ok && c.Value() != 0 {
			t.Fatalf("work-item %d: Hardware run recorded %d block fills", wid, c.Value())
		}
	}
}
