// Package mt implements the Mersenne-Twister family used by the case
// study: the classic MT19937 (period 2^19937−1, 624 words of state) and a
// small dynamic-creation-style twister MT521 (period 2^521−1, 17 words),
// matching Table I of the paper. Both are exposed through a shared
// generalized-feedback-shift-register core, and both support the paper's
// "adapted" operation mode (Listing 3): the output word is computed on
// every cycle, but the internal state is consumed only when an external
// enable flag allows it.
//
// The generators support two consumption disciplines over the same
// state recurrence:
//
//   - One word at a time (Peek/Advance/Next): the hardware formulation.
//     The design the paper describes produces exactly one tempered word
//     per clock cycle, and the Peek/Advance split needed by the gated
//     mode falls out naturally. The FPGA co-simulation depends on these
//     Listing-3 semantics being cycle-exact.
//   - In bulk (FillUint32): the classic block-MT formulation that
//     regenerates runs of the state array in place and tempers into the
//     caller's buffer. This is the host-side compute path: it produces
//     the bitwise-identical word stream with none of the per-call
//     Peek-cache branching, and interleaves freely with the one-word
//     calls.
package mt

import "fmt"

// Params describes a Mersenne-Twister instance in the Matsumoto-Nishimura
// parameterization (w = 32 throughout this package).
type Params struct {
	// N is the degree of recurrence: the number of 32-bit state words.
	N int
	// M is the middle offset of the recurrence, 1 <= M < N.
	M int
	// R is the separation point of one word: the twist combines the
	// upper w-R bits of x[k] with the lower R bits of x[k+1]. The period
	// is 2^(N*32-R) − 1 when the characteristic polynomial is primitive.
	R uint
	// A is the bottom row of the twist matrix (applied when the
	// combined word is odd).
	A uint32
	// Tempering parameters (u, s, b, t, c, l in the original paper).
	TemperU uint
	TemperS uint
	TemperB uint32
	TemperT uint
	TemperC uint32
	TemperL uint
	// InitF is the multiplier of the Knuth-style state initializer.
	InitF uint32
}

// MT19937Params is the canonical parameter set of Matsumoto & Nishimura
// (1998): period 2^19937−1, 623-dimensional equidistribution at 32-bit
// accuracy.
var MT19937Params = Params{
	N: 624, M: 397, R: 31, A: 0x9908B0DF,
	TemperU: 11,
	TemperS: 7, TemperB: 0x9D2C5680,
	TemperT: 15, TemperC: 0xEFC60000,
	TemperL: 18,
	InitF:   1812433253,
}

// MT521Params is a small-period twister in the style of Matsumoto &
// Nishimura's dynamic creation (DC) of Mersenne-Twisters, with N=17 state
// words and period 2^521−1 (R = 17*32 − 521 = 23), matching the
// "Exponent 521 / 17 states" rows of Table I. The twist and tempering
// constants are a representative DC-style assignment (DC searches these
// per stream id); primitivity of the characteristic polynomial cannot be
// re-verified offline, so the test suite instead validates the generator
// empirically (equidistribution, serial correlation, full-period sanity on
// a scaled-down sibling).
var MT521Params = Params{
	N: 17, M: 8, R: 23, A: 0xE4BD75F5,
	TemperU: 12,
	TemperS: 7, TemperB: 0x655E5280,
	TemperT: 15, TemperC: 0xFFD58000,
	TemperL: 18,
	InitF:   1812433253,
}

// Core is a one-word-at-a-time Mersenne-Twister engine. It implements
// rng.Source32 and rng.Peeker32. The zero value is not usable;
// construct with New or the MT19937/MT521 helpers.
type Core struct {
	p          Params
	state      []uint32
	idx        int
	upperMask  uint32
	lowerMask  uint32
	haveCached bool
	cached     uint32 // tempered output for the current index (Peek cache)
	// offset counts state words consumed since the last (re)seed; it is
	// what Jump fast-forwards and what checkpoint/resume round-trips
	// (see jump.go).
	offset uint64
	// scramble, when nonzero, is the key of the stateless per-position
	// output scrambler applied on top of tempering (Decorrelate).
	scramble uint64
}

// New returns a Core with the given parameters, seeded with seed. It
// panics if R or a tempering shift is 32 or more: the block kernels
// mask their shift counts to 0..31 so the compiler can drop Go's
// oversized-shift guard, and only below 32 does that mask leave the
// word stream equal to the one-word path's.
func New(p Params, seed uint64) *Core {
	if p.R >= 32 || p.TemperU >= 32 || p.TemperS >= 32 || p.TemperT >= 32 || p.TemperL >= 32 {
		panic(fmt.Sprintf("mt: R and tempering shifts must be < 32, got R=%d u=%d s=%d t=%d l=%d",
			p.R, p.TemperU, p.TemperS, p.TemperT, p.TemperL))
	}
	c := &Core{p: p, state: make([]uint32, p.N)}
	c.lowerMask = (uint32(1) << p.R) - 1
	c.upperMask = ^c.lowerMask
	c.Seed(seed)
	return c
}

// NewMT19937 returns the classic big twister.
func NewMT19937(seed uint64) *Core { return New(MT19937Params, seed) }

// NewMT521 returns the 17-state small twister of Table I.
func NewMT521(seed uint64) *Core { return New(MT521Params, seed) }

// Seed re-initializes the state with the Knuth-style recurrence used by
// the 2002 reference implementation, folding all 64 seed bits in.
func (c *Core) Seed(seed uint64) {
	s := uint32(seed) ^ uint32(seed>>32)*2654435761
	if s == 0 {
		s = 19650218
	}
	c.state[0] = s
	for i := 1; i < c.p.N; i++ {
		c.state[i] = c.p.InitF*(c.state[i-1]^(c.state[i-1]>>30)) + uint32(i)
	}
	c.idx = 0
	c.haveCached = false
	// Discard one full state block so that closely related seeds
	// decorrelate before the first word is consumed.
	for i := 0; i < c.p.N; i++ {
		c.Advance()
	}
	// A reseeded core starts a canonical stream: position zero, no
	// scrambler. This keeps pooled generators (core.getGenerator) clean —
	// Jump/Decorrelate on one run can never leak into the next.
	c.offset = 0
	c.scramble = 0
}

// SeedRef initializes the state exactly like init_genrand of the 2002
// reference implementation (32-bit seed, no decorrelation discard), so
// that outputs can be compared against published MT19937 test vectors.
func (c *Core) SeedRef(s uint32) {
	c.state[0] = s
	for i := 1; i < c.p.N; i++ {
		c.state[i] = c.p.InitF*(c.state[i-1]^(c.state[i-1]>>30)) + uint32(i)
	}
	c.idx = 0
	c.haveCached = false
	c.offset = 0
	c.scramble = 0
}

// twist computes the next state word at the current index without storing
// it.
func (c *Core) twist() uint32 {
	n, m := c.p.N, c.p.M
	y := (c.state[c.idx] & c.upperMask) | (c.state[(c.idx+1)%n] & c.lowerMask)
	x := c.state[(c.idx+m)%n] ^ (y >> 1)
	if y&1 != 0 {
		x ^= c.p.A
	}
	return x
}

// temper applies the output tempering transform.
func (c *Core) temper(x uint32) uint32 {
	x ^= x >> c.p.TemperU
	x ^= (x << c.p.TemperS) & c.p.TemperB
	x ^= (x << c.p.TemperT) & c.p.TemperC
	x ^= x >> c.p.TemperL
	return x
}

// Peek returns the tempered word the next Uint32 would produce, without
// consuming state. In the hardware analogy this is the combinational
// output of the twister block, which is valid on every cycle.
func (c *Core) Peek() uint32 {
	if !c.haveCached {
		c.cached = c.temper(c.twist())
		if c.scramble != 0 {
			c.cached ^= scramble32(c.scramble, c.offset)
		}
		c.haveCached = true
	}
	return c.cached
}

// Advance consumes the current word: it commits the twisted state word and
// moves the index forward, invalidating the Peek cache. This corresponds
// to the enabled state-index increment in Listing 3.
func (c *Core) Advance() {
	c.state[c.idx] = c.twist()
	c.idx = (c.idx + 1) % c.p.N
	c.haveCached = false
	c.offset++
}

// Uint32 consumes and returns the next word (rng.Source32).
func (c *Core) Uint32() uint32 {
	v := c.Peek()
	c.Advance()
	return v
}

// Next implements rng.GatedSource32: it returns the current output word
// and consumes it only when enable is true. A pipelined loop can therefore
// call Next on every iteration — keeping the initiation interval at one —
// while logically stalling the stream during rejected iterations.
func (c *Core) Next(enable bool) uint32 {
	v := c.Peek()
	if enable {
		c.Advance()
	}
	return v
}

// FillUint32 writes len(dst) tempered words into dst — the block-MT
// formulation: contiguous runs of the state array are regenerated in
// place and tempered out in tight loops, with the twist's two wrapping
// taps handled by segment bounds instead of per-word modulo arithmetic.
//
// The output is bitwise-identical to len(dst) successive Uint32 calls
// (the incremental recurrence commits exactly the same mixed old/new
// state words a whole-block regeneration does), so Fill and the one-word
// calls interleave freely: a pending Peek cache is drained first, and
// after a Fill the gated Next(enable=false) re-reads the following word
// exactly as it would have on the one-word path. FillUint32 never
// allocates.
func (c *Core) FillUint32(dst []uint32) {
	if len(dst) == 0 {
		return
	}
	off0 := c.offset
	k := 0
	if c.haveCached {
		dst[0] = c.cached // already scrambled by Peek when a key is set
		c.Advance()
		k = 1
	}
	scrambleFrom := k
	n, m := c.p.N, c.p.M
	st := c.state
	up, lo, a := c.upperMask, c.lowerMask, c.p.A
	tu, ts, tb := c.p.TemperU, c.p.TemperS, c.p.TemperB
	tt, tc, tl := c.p.TemperT, c.p.TemperC, c.p.TemperL
	i := c.idx
	for k < len(dst) {
		// Whole-block fast path for the small twister: at a block
		// boundary with a full block of demand left, regenerate and
		// temper all 17 words through the fully unrolled kernel.
		if i == 0 && n == 17 && m == 8 && len(dst)-k >= 17 {
			fill521(dst[k:], st, up, lo, a, tu, ts, tb, tt, tc, tl)
			k += 17
			continue
		}
		end := i + (len(dst) - k)
		if end > n {
			end = n
		}
		// Segment 1: neither tap wraps (i+1 < n and i+m < n).
		s1 := n - m
		if s1 > end {
			s1 = end
		}
		if i < s1 {
			cnt := s1 - i
			fillSeg(dst[k:k+cnt], st[i:s1], st[i+1:s1+1], st[i+m:s1+m], up, lo, a, tu, ts, tb, tt, tc, tl)
			k += cnt
			i = s1
		}
		// Segment 2: the middle tap wraps into this block's fresh words.
		s2 := n - 1
		if s2 > end {
			s2 = end
		}
		if i < s2 {
			cnt := s2 - i
			fillSeg(dst[k:k+cnt], st[i:s2], st[i+1:s2+1], st[i+m-n:s2+m-n], up, lo, a, tu, ts, tb, tt, tc, tl)
			k += cnt
			i = s2
		}
		// Segment 3: the final word of the block, both taps wrapped.
		if i == n-1 && i < end {
			y := (st[n-1] & up) | (st[0] & lo)
			x := st[m-1] ^ (y >> 1)
			if y&1 != 0 {
				x ^= a
			}
			st[n-1] = x
			x ^= x >> tu
			x ^= (x << ts) & tb
			x ^= (x << tt) & tc
			x ^= x >> tl
			dst[k] = x
			k++
			i = 0
		}
	}
	c.idx = i
	c.offset = off0 + uint64(len(dst))
	if c.scramble != 0 {
		for j := scrambleFrom; j < len(dst); j++ {
			dst[j] ^= scramble32(c.scramble, off0+uint64(j))
		}
	}
}

// fillSeg regenerates and tempers one contiguous twist segment: for each
// j it combines cur[j]'s upper bits with nxt[j]'s lower bits, twists
// against tap[j], writes the new state word back to cur[j] and emits the
// tempered word into o[j]. nxt is cur shifted by one, and in segment 2
// tap aliases state words freshly written earlier in the same pass; the
// strictly increasing write order keeps both reads correct, exactly as in
// the scalar formulation. The twist conditional is branch-free (the A row
// is masked in with -(y&1), a full-width 0/1 mask — the twist bit is an
// unpredictable random bit, so a branch here mispredicts half the time),
// and the loop runs as 8-wide unrolled lanes over len-pinned subslices so
// the compiler eliminates every bounds check (scripts/bce_check.sh).
func fillSeg(o, cur, nxt, tap []uint32, up, lo, a uint32, tu, ts uint, tb uint32, tt uint, tc uint32, tl uint) {
	tu, ts, tt, tl = tu&31, ts&31, tt&31, tl&31 // no-op (New checks < 32); drops the oversized-shift guard
	// bce:begin fillSeg twist+temper lanes
	// The redundant slice-length terms in the loop condition and the tail
	// guard are what let the prove pass drop every bounds check: each
	// [:8:8] reslice and constant-index access below is then statically
	// in range (verified by scripts/bce_check.sh). All four slices have
	// length n by construction, so neither guard ever alters behavior.
	for len(o) >= 8 && len(cur) >= 8 && len(nxt) >= 8 && len(tap) >= 8 {
		o8 := o[:8:8]
		c8 := cur[:8:8]
		n8 := nxt[:8:8]
		t8 := tap[:8:8]
		y0 := (c8[0] & up) | (n8[0] & lo)
		x0 := t8[0] ^ (y0 >> 1) ^ (a & -(y0 & 1))
		c8[0] = x0
		x0 ^= x0 >> tu
		x0 ^= (x0 << ts) & tb
		x0 ^= (x0 << tt) & tc
		x0 ^= x0 >> tl
		o8[0] = x0
		y1 := (c8[1] & up) | (n8[1] & lo)
		x1 := t8[1] ^ (y1 >> 1) ^ (a & -(y1 & 1))
		c8[1] = x1
		x1 ^= x1 >> tu
		x1 ^= (x1 << ts) & tb
		x1 ^= (x1 << tt) & tc
		x1 ^= x1 >> tl
		o8[1] = x1
		y2 := (c8[2] & up) | (n8[2] & lo)
		x2 := t8[2] ^ (y2 >> 1) ^ (a & -(y2 & 1))
		c8[2] = x2
		x2 ^= x2 >> tu
		x2 ^= (x2 << ts) & tb
		x2 ^= (x2 << tt) & tc
		x2 ^= x2 >> tl
		o8[2] = x2
		y3 := (c8[3] & up) | (n8[3] & lo)
		x3 := t8[3] ^ (y3 >> 1) ^ (a & -(y3 & 1))
		c8[3] = x3
		x3 ^= x3 >> tu
		x3 ^= (x3 << ts) & tb
		x3 ^= (x3 << tt) & tc
		x3 ^= x3 >> tl
		o8[3] = x3
		y4 := (c8[4] & up) | (n8[4] & lo)
		x4 := t8[4] ^ (y4 >> 1) ^ (a & -(y4 & 1))
		c8[4] = x4
		x4 ^= x4 >> tu
		x4 ^= (x4 << ts) & tb
		x4 ^= (x4 << tt) & tc
		x4 ^= x4 >> tl
		o8[4] = x4
		y5 := (c8[5] & up) | (n8[5] & lo)
		x5 := t8[5] ^ (y5 >> 1) ^ (a & -(y5 & 1))
		c8[5] = x5
		x5 ^= x5 >> tu
		x5 ^= (x5 << ts) & tb
		x5 ^= (x5 << tt) & tc
		x5 ^= x5 >> tl
		o8[5] = x5
		y6 := (c8[6] & up) | (n8[6] & lo)
		x6 := t8[6] ^ (y6 >> 1) ^ (a & -(y6 & 1))
		c8[6] = x6
		x6 ^= x6 >> tu
		x6 ^= (x6 << ts) & tb
		x6 ^= (x6 << tt) & tc
		x6 ^= x6 >> tl
		o8[6] = x6
		y7 := (c8[7] & up) | (n8[7] & lo)
		x7 := t8[7] ^ (y7 >> 1) ^ (a & -(y7 & 1))
		c8[7] = x7
		x7 ^= x7 >> tu
		x7 ^= (x7 << ts) & tb
		x7 ^= (x7 << tt) & tc
		x7 ^= x7 >> tl
		o8[7] = x7
		o, cur, nxt, tap = o[8:], cur[8:], nxt[8:], tap[8:]
	}
	m := len(o)
	if m > len(cur) || m > len(nxt) || m > len(tap) {
		return
	}
	cur = cur[:m]
	nxt = nxt[:m]
	tap = tap[:m]
	for j := range o {
		y := (cur[j] & up) | (nxt[j] & lo)
		x := tap[j] ^ (y >> 1) ^ (a & -(y & 1))
		cur[j] = x
		x ^= x >> tu
		x ^= (x << ts) & tb
		x ^= (x << tt) & tc
		x ^= x >> tl
		o[j] = x
	}
	// bce:end
}

// StateLen returns the number of 32-bit state words (624 or 17 for the
// paper's two variants); the platform performance models use it to cost
// state storage traffic.
func (c *Core) StateLen() int { return c.p.N }

// Params returns the parameter set of this core.
func (c *Core) Params() Params { return c.p }

// Clone returns an independent deep copy in the same state, used by the
// lockstep simulator to replay identical streams across execution models.
func (c *Core) Clone() *Core {
	n := &Core{p: c.p, idx: c.idx, upperMask: c.upperMask, lowerMask: c.lowerMask,
		haveCached: c.haveCached, cached: c.cached, offset: c.offset, scramble: c.scramble}
	n.state = append([]uint32(nil), c.state...)
	return n
}

// fill521 regenerates and tempers exactly one full MT521 state block:
// N=17 words with M=8, every index a constant so the whole
// twist+temper datapath is branch-free straight-line code with zero
// bounds checks (scripts/bce_check.sh) — the small-state analogue of
// fillSeg, whose 8-wide lanes degenerate to the scalar tail on MT521's
// 9- and 7-word segments. Write order is strictly increasing, so the
// seg2/seg3 taps read the fresh words exactly as the recurrence
// demands.
func fill521(o, st []uint32, up, lo, a uint32, tu, ts uint, tb uint32, tt uint, tc uint32, tl uint) {
	if len(o) < 17 || len(st) < 17 {
		return
	}
	o = o[:17:17]
	st = st[:17:17]
	tu, ts, tt, tl = tu&31, ts&31, tt&31, tl&31 // no-op (New checks < 32); drops the oversized-shift guard
	var y, x uint32
	// bce:begin fill521 twist+temper block
	y = (st[0] & up) | (st[1] & lo)
	x = st[8] ^ (y >> 1) ^ (a & -(y & 1))
	st[0] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[0] = x
	y = (st[1] & up) | (st[2] & lo)
	x = st[9] ^ (y >> 1) ^ (a & -(y & 1))
	st[1] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[1] = x
	y = (st[2] & up) | (st[3] & lo)
	x = st[10] ^ (y >> 1) ^ (a & -(y & 1))
	st[2] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[2] = x
	y = (st[3] & up) | (st[4] & lo)
	x = st[11] ^ (y >> 1) ^ (a & -(y & 1))
	st[3] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[3] = x
	y = (st[4] & up) | (st[5] & lo)
	x = st[12] ^ (y >> 1) ^ (a & -(y & 1))
	st[4] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[4] = x
	y = (st[5] & up) | (st[6] & lo)
	x = st[13] ^ (y >> 1) ^ (a & -(y & 1))
	st[5] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[5] = x
	y = (st[6] & up) | (st[7] & lo)
	x = st[14] ^ (y >> 1) ^ (a & -(y & 1))
	st[6] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[6] = x
	y = (st[7] & up) | (st[8] & lo)
	x = st[15] ^ (y >> 1) ^ (a & -(y & 1))
	st[7] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[7] = x
	y = (st[8] & up) | (st[9] & lo)
	x = st[16] ^ (y >> 1) ^ (a & -(y & 1))
	st[8] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[8] = x
	y = (st[9] & up) | (st[10] & lo)
	x = st[0] ^ (y >> 1) ^ (a & -(y & 1))
	st[9] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[9] = x
	y = (st[10] & up) | (st[11] & lo)
	x = st[1] ^ (y >> 1) ^ (a & -(y & 1))
	st[10] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[10] = x
	y = (st[11] & up) | (st[12] & lo)
	x = st[2] ^ (y >> 1) ^ (a & -(y & 1))
	st[11] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[11] = x
	y = (st[12] & up) | (st[13] & lo)
	x = st[3] ^ (y >> 1) ^ (a & -(y & 1))
	st[12] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[12] = x
	y = (st[13] & up) | (st[14] & lo)
	x = st[4] ^ (y >> 1) ^ (a & -(y & 1))
	st[13] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[13] = x
	y = (st[14] & up) | (st[15] & lo)
	x = st[5] ^ (y >> 1) ^ (a & -(y & 1))
	st[14] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[14] = x
	y = (st[15] & up) | (st[16] & lo)
	x = st[6] ^ (y >> 1) ^ (a & -(y & 1))
	st[15] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[15] = x
	y = (st[16] & up) | (st[0] & lo)
	x = st[7] ^ (y >> 1) ^ (a & -(y & 1))
	st[16] = x
	x ^= x >> tu
	x ^= (x << ts) & tb
	x ^= (x << tt) & tc
	x ^= x >> tl
	o[16] = x
	// bce:end
}
