package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every stochastic decision in the simulator draws from an
// RNG seeded from the run configuration, so identical configurations
// replay identical simulations.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent seed and the label. Used to give each simulated
// thread its own stream without cross-coupling.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

// Zipf draws from a bounded Zipf-like distribution over [0, n) with skew
// s. s <= 0 degenerates to uniform (one Intn draw). Larger s concentrates
// mass on small indices, which workload synthesis uses to create hot sets.
// It inverts the CDF of the continuous density (1+x)^-s on [0, n-1] at
// one Float64 draw and truncates the result to an index. Zipf evaluates
// two transcendentals per draw; ZipfGen draws the identical stream for a
// fixed (n, s) at a fraction of the cost.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	u := r.Float64()
	if s == 1 {
		// F(x) = ln(1+x)/ln(n)
		x := math.Exp(u*math.Log(float64(n))) - 1
		i := int(x)
		if i >= n {
			i = n - 1
		}
		return i
	}
	// F(x) = ((1+x)^(1-s)-1)/(n^(1-s)-1) for s != 1.
	p := 1 - s
	x := math.Pow(u*(math.Pow(float64(n), p)-1)+1, 1/p) - 1
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
