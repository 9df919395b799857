// Package rng provides deterministic random number generation for the
// simulator and the scanners.
//
// Everything in this repository that needs randomness draws it from a named
// Stream derived from a 64-bit seed and a purpose string. Two runs with the
// same seed produce bit-identical worlds, scans and experiment outputs, which
// is what makes the reproduction harness meaningful.
//
// The core generator is xoshiro256**, seeded through splitmix64 as its
// authors recommend. Stateless helpers (Hash64, Mix) are used where the
// simulation needs a *function* of (entity, time) rather than a sequence,
// e.g. per-scan responsiveness draws that must not depend on probe order.
package rng

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// SplitMix64 advances the splitmix64 state and returns the next value.
// It is used for seeding and as a cheap one-shot mixer.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix returns a well-mixed function of its inputs. It is the stateless
// workhorse behind hash-based simulation draws.
func Mix(vs ...uint64) uint64 {
	return MixPrefix(vs...).Sum()
}

// MixState is Mix stopped part-way through its inputs:
// MixPrefix(a, b).Add(c).Sum() == Mix(a, b, c). Hot loops that hash many
// tuples sharing their leading words — the 16 slot draws of one APD
// candidate, the loss draws of one scan target — absorb the shared words
// once and resume from the saved state.
type MixState uint64

// MixPrefix absorbs the leading inputs of a Mix.
func MixPrefix(vs ...uint64) MixState {
	h := MixState(0x51_7c_c1_b7_27_22_0a_95)
	for _, v := range vs {
		h = h.Add(v)
	}
	return h
}

// Add absorbs one more input.
func (h MixState) Add(v uint64) MixState {
	x := uint64(h) ^ v
	x *= 0x9e3779b97f4a7c15
	x = bits.RotateLeft64(x, 29)
	x *= 0xbf58476d1ce4e5b9
	return MixState(x)
}

// Sum finalizes the state into Mix's result.
func (h MixState) Sum() uint64 {
	x := uint64(h)
	x ^= x >> 32
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}

// HashString hashes a string with FNV-1a, widened through Mix.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Mix(h)
}

// HashBytes hashes a byte slice with FNV-1a, widened through Mix.
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return Mix(h)
}

// Stream is a xoshiro256** generator. The zero value is not valid; use
// NewStream or Derive.
type Stream struct {
	s [4]uint64
}

// NewStream returns a Stream seeded from seed and a purpose label.
// Distinct purposes yield statistically independent streams.
func NewStream(seed uint64, purpose string) *Stream {
	st := NewStreamSeed(seed ^ HashString(purpose))
	return &st
}

// NewStreamSeed returns a Stream seeded directly:
// NewStream(seed, purpose) draws identically to
// NewStreamSeed(seed ^ HashString(purpose)). It returns a value, so hot
// paths that derive one short-lived stream per entity (the alias
// detector's per-slot draws) can hoist the label hash and keep the
// generator on the stack.
func NewStreamSeed(seed uint64) Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not be seeded with all zeros.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// Derive returns a new independent Stream keyed by additional values,
// without disturbing the parent stream's state.
func (r *Stream) Derive(vs ...uint64) *Stream {
	seed := Mix(append([]uint64{r.s[0], r.s[1], r.s[2], r.s[3]}, vs...)...)
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = SplitMix64(&sm)
	}
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return &st
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless method.
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a normally distributed float64 (mean 0, stddev 1)
// using the Marsaglia polar method.
func (r *Stream) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes a slice in place using swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fill fills b with pseudo-random bytes.
func (r *Stream) Fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.Uint64())
		b = b[8:]
	}
	if len(b) > 0 {
		v := r.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}
