package gamma

import (
	"testing"

	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
)

// TestJumpStreamsMatchesAdvanceStreams: the O(log n) generator seek must
// land every one of the four gated twisters bitwise where the sequential
// walk lands it, and the gamma outputs that follow must be identical.
func TestJumpStreamsMatchesAdvanceStreams(t *testing.T) {
	for _, mtp := range []mt.Params{mt.MT19937Params, mt.MT521Params} {
		jumped := NewGenerator(normal.MarsagliaBray, mtp, MustFromVariance(1.39), 777)
		stepped := NewGenerator(normal.MarsagliaBray, mtp, MustFromVariance(1.39), 777)
		const n = 100003
		jumped.JumpStreams(n)
		stepped.AdvanceStreams(n)
		jo, so := jumped.StreamOffsets(), stepped.StreamOffsets()
		if jo != so {
			t.Fatalf("N=%d: stream offsets diverge: %v vs %v", mtp.N, jo, so)
		}
		if jo != [4]uint64{n, n, n, n} {
			t.Fatalf("N=%d: offsets after seek = %v", mtp.N, jo)
		}
		got := 0
		for cycle := 0; cycle < 4096 && got < 64; cycle++ {
			a := jumped.CycleStep()
			b := stepped.CycleStep()
			if a != b {
				t.Fatalf("N=%d: cycle %d after seek: %+v vs %+v", mtp.N, cycle, a, b)
			}
			if a.Valid {
				got++
			}
		}
		if got < 64 {
			t.Fatalf("N=%d: only %d accepted outputs in 4096 cycles", mtp.N, got)
		}
	}
}

// AdvanceStreams is the sequential O(n) equivalent of JumpStreams, the
// reference oracle the jump is checked against.
func (g *Generator) AdvanceStreams(n uint64) {
	for i := uint64(0); i < n; i++ {
		g.mt0a.Advance()
		g.mt0b.Advance()
		g.mt1.Advance()
		g.mt2.Advance()
	}
}

// TestReseedDetachesSubstreamState: pooled generators are recycled via
// Reseed; any jump offset or decorrelation key from a previous run must
// vanish, restoring NewGenerator-equivalence.
func TestReseedDetachesSubstreamState(t *testing.T) {
	used := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 5)
	used.JumpStreams(1 << 20)
	used.DecorrelateStreams(0xBEEF)
	used.Reseed(42)

	fresh := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 42)
	if used.StreamOffsets() != ([4]uint64{}) {
		t.Fatalf("offsets survive Reseed: %v", used.StreamOffsets())
	}
	for cycle := 0; cycle < 512; cycle++ {
		a := used.CycleStep()
		b := fresh.CycleStep()
		if a != b {
			t.Fatalf("cycle %d: reseeded generator diverges from fresh one", cycle)
		}
	}
}

// TestDecorrelateStreamsChangesOutputs: distinct keys must give distinct
// (but per-key deterministic) gamma streams, and key 0 must restore the
// canonical stream when no words were consumed in between.
func TestDecorrelateStreamsChangesOutputs(t *testing.T) {
	collect := func(key uint64) []float32 {
		g := NewGenerator(normal.MarsagliaBray, mt.MT521Params, MustFromVariance(1.39), 9)
		g.DecorrelateStreams(key)
		var out []float32
		for cycle := 0; cycle < 4096 && len(out) < 128; cycle++ {
			if r := g.CycleStep(); r.Valid {
				out = append(out, r.Gamma)
			}
		}
		return out
	}
	plain := collect(0)
	k1 := collect(0x1111)
	k1again := collect(0x1111)
	k2 := collect(0x2222)
	if len(plain) < 128 || len(k1) < 128 || len(k2) < 128 {
		t.Fatalf("short collections: %d/%d/%d", len(plain), len(k1), len(k2))
	}
	same := func(a, b []float32) int {
		n := 0
		for i := range a {
			if a[i] == b[i] {
				n++
			}
		}
		return n
	}
	if got := same(k1, k1again); got != len(k1) {
		t.Fatalf("keyed stream not deterministic: %d/%d equal", got, len(k1))
	}
	if got := same(plain, k1); got > 4 {
		t.Fatalf("key 0x1111 barely changes the stream: %d/%d equal", got, len(k1))
	}
	if got := same(k1, k2); got > 4 {
		t.Fatalf("keys 0x1111/0x2222 nearly coincide: %d/%d equal", got, len(k1))
	}
}
