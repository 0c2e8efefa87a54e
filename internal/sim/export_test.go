package sim

// Test access to the guide table internals.

// NewZipfGenTable returns a ZipfGen for (n, s) with its own guide table,
// bypassing the process memo, or without one when the key has none.
func NewZipfGenTable(n int, s float64) ZipfGen {
	z := newZipfGen(n, s)
	if z.hasTable() {
		z.tab = z.buildTable()
	}
	return z
}

// Table returns z's guide table (nil when it has none) and its bucket
// shift: k>>shift is k's bucket.
func (z *ZipfGen) Table() ([]uint16, uint) { return z.tab, z.shift }

// RNGYielding returns a generator whose next Uint64 is v, by inverting
// one splitmix64 step.
func RNGYielding(v uint64) *RNG {
	z := unshift(v, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return &RNG{state: unshift(z, 30) - 0x9e3779b97f4a7c15}
}

// unshift inverts y = x ^ x>>s.
func unshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// inverse returns the multiplicative inverse of odd c modulo 2^64.
func inverse(c uint64) uint64 {
	x := c // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		x *= 2 - c*x
	}
	return x
}
