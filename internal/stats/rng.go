// Package stats provides the deterministic statistical substrate used
// throughout the Cookie Monster reproduction: seeded random number streams,
// the samplers needed by the DP mechanisms and synthetic dataset generators,
// and the summary statistics (means, quantiles, empirical CDFs, RMSRE)
// reported by the experiment harnesses.
//
// Everything in this package is deterministic given a seed, so every
// experiment in the repository is exactly reproducible run-to-run.
package stats

import (
	"encoding/binary"
	"hash/fnv"
)

// RNG is a deterministic pseudo-random number generator based on the
// SplitMix64 / xoshiro256** construction. It is not safe for concurrent use;
// derive independent streams with Split or Stream instead of sharing one.
//
// We implement the generator ourselves (rather than using math/rand's global
// state) so that experiments can derive stable, named sub-streams: the
// dataset generator, the noise sampler and the workload driver each get
// their own stream and remain reproducible even if one of them changes how
// many variates it draws.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which is the
// recommended way to initialize xoshiro state (it guarantees a non-zero,
// well-mixed state even for small seeds).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Stream derives an independent generator identified by name from a base
// seed. Two streams with different names are statistically independent;
// the same (seed, name) pair always yields the same stream.
func Stream(seed uint64, name string) *RNG {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(name))
	return NewRNG(h.Sum64())
}

// State returns the generator's internal state, for checkpointing. A
// generator restored with SetState continues the exact variate sequence this
// one would have produced — the property crash recovery relies on to keep
// noise streams bit-identical across a restart.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// returned by State. It panics on the all-zero state, which xoshiro256**
// cannot escape (and which State never returns).
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("stats: all-zero RNG state")
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's unbiased bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
