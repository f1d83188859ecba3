package mem

// PRNG is a deterministic SplitMix64 generator. Every source of randomness in
// the simulator flows through one of these, seeded from workload names, so a
// given configuration always produces the same result.
type PRNG struct {
	state uint64
}

// NewPRNG returns a generator seeded with seed (0 is remapped so the stream
// is never degenerate).
func NewPRNG(seed uint64) *PRNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &PRNG{state: seed}
}

// Uint64 returns the next 64-bit value.
func (p *PRNG) Uint64() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("mem: PRNG.Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability prob.
func (p *PRNG) Bool(prob float64) bool {
	return p.Float64() < prob
}

// HashString folds a string into a 64-bit seed (FNV-1a).
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is a single-round finalizer usable as a cheap hash of one value.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
