package rng

// substream.go — the substream layout over seekable generators.
// Generators whose transition is F2-linear (the Mersenne-Twister cores in
// rng/mt) can fast-forward in O(log n), which turns a single seeded
// recurrence into an addressable family of substreams: a (seed, offset)
// pair is a complete O(1)-sized checkpoint, and widely spaced offsets
// carve one period into independent lanes. The package keeps only the
// lane spacing and key derivation here so it stays free of a dependency
// on any concrete generator.

// SubstreamStride is the default spacing between sibling substreams of
// one seed: 2^44 words. A work-item that consumes a word per clock at
// 300 MHz needs over 16 hours to cross one stride, so substreams carved
// at this spacing never overlap in practice while staying far below the
// 2^521−1 period of even the small Table-I twister.
const SubstreamStride uint64 = 1 << 44

// SubstreamSeek returns the stream offset of substream part under the
// default stride layout.
func SubstreamSeek(part int) uint64 {
	return uint64(part) * SubstreamStride
}

// SubstreamKey derives the decorrelation key for substream part of a
// master key: a SplitMix64 walk indexed by part, with the same zero
// avoidance as StreamSeeds. Key derivation is deliberately distinct from
// seed derivation so a substream's scrambler can never collide with a
// sibling work-item's seed.
func SubstreamKey(master uint64, part int) uint64 {
	sm := NewSplitMix64(master ^ 0xA5A5A5A55A5A5A5A)
	var k uint64
	for i := 0; i <= part; i++ {
		k = sm.Next()
	}
	if k == 0 {
		k = 0x5DEECE66D
	}
	return k
}
