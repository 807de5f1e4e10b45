package mt

import "testing"

// FuzzJumpAdditive fuzzes the engine's only stream-seek path. For both
// twister parameter sets and an arbitrary seed it asserts that jumps
// compose additively — Jump(a);Jump(b) lands bitwise on Jump(a+b) — and
// that Jump(n) equals n sequential Advance calls for n < 4096, which
// spans the small-jump stepping path and, for MT19937 (4N = 2496), the
// polynomial path. a and b are halved so a+b never wraps the 64-bit
// position counter. The seed corpus lives in testdata/fuzz.
func FuzzJumpAdditive(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, a, b uint64, n uint16) {
		a, b = a>>1, b>>1
		steps := uint64(n % 4096)
		for _, ps := range jumpParamSets {
			split := New(ps.p, seed)
			whole := split.Clone()
			split.Jump(a)
			split.Jump(b)
			whole.Jump(a + b)
			if !statesEqual(split, whole) {
				t.Fatalf("%s seed %d: Jump(%d);Jump(%d) differs from Jump(%d)", ps.name, seed, a, b, a+b)
			}

			jumped := New(ps.p, seed)
			stepped := jumped.Clone()
			jumped.Jump(steps)
			for i := uint64(0); i < steps; i++ {
				stepped.Advance()
			}
			if !statesEqual(jumped, stepped) {
				t.Fatalf("%s seed %d: Jump(%d) differs from %d Advance calls", ps.name, seed, steps, steps)
			}
		}
	})
}
