package sim

import (
	"math"
	"math/bits"
	"sync"
)

// ZipfGen is RNG.Zipf with the per-(n, s) work done once. For a fixed
// (n, s), math.Log(n) and math.Pow(n, 1-s) never change, and most draws
// land in a bucket of a guide table whose every uniform maps to the same
// index, so Draw returns that entry without evaluating Pow or Exp. Draw
// consumes the same single uniform from the RNG as RNG.Zipf and,
// wherever the index is in doubt, evaluates the identical floating-point
// expression (same operations on the same rounded intermediates). So for
// any generator state Draw and Zipf return the same index and leave the
// stream in the same state, and workload synthesis stays bit-identical
// (TestZipfGenMatchesZipf, TestZipfTableExact).
//
// # The guide table
//
// Draw forms k = Uint64()>>11, so u = k/2^53 exactly as Float64 forms
// it, and the top bits of k pick a bucket. A bucket's entry is built by
// evaluating the expression at the bucket's first and last k, x0 and
// x1, and widening them to x0-m0 and x1+m1 with m = zipfMargin·(|x|+1).
// The entry is an index only when both widened ends truncate and clamp
// to the same index; otherwise it is zipfMiss and Draw falls through to
// the expression.
//
// Why a hit is exact: with the stored constants held fixed, the
// expression's exact-arithmetic value g(u) is nondecreasing in u for
// every s > 0. For s < 1 the base u·powT+1 rises and is raised to
// 1/(1-s) > 0; for s > 1 the base falls toward n^(1-s) > 0 and is
// raised to 1/(1-s) < 0; for s == 1, exp(u·ln n) rises. The computed
// value x(k) differs from g by at most gain()·2^-53 relative to
// y = x+1: the rounding of the product and the sum, amplified by the
// exponent 1/(1-s) and by how close the base comes to 0, plus the error
// of Pow or Exp itself. Tables are built only where that bound is below
// zipfMaxGain·2^-53 ≈ 4.5e-13, over a thousand times inside zipfMargin.
// So for every k in a bucket, x(k) lies in [x0-m0, x1+m1], and truncating
// and clamping is monotone, so x(k) maps to the entry. The bound rules
// out s within about 1e-3 of 1 (where 1/(1-s) amplifies without bound)
// and large skews over large n (where the base nears 0); those keys, and
// n <= 1 and s <= 0, draw without a table.
type ZipfGen struct {
	n    int
	s    float64
	logN float64 // s == 1: ln n
	powT float64 // s != 1: n^(1-s) - 1
	invP float64 // s != 1: 1/(1-s)

	// tab is the guide table, nil when the key has none or the memo is
	// full. Entry k>>shift is the index for every k in its bucket, or
	// zipfMiss. Tables are shared and read-only.
	tab   []uint16
	shift uint
}

const (
	// zipfMiss marks a bucket whose k values map to more than one index,
	// or to an index too large for an entry.
	zipfMiss = math.MaxUint16
	// zipfMargin widens a bucket's end values, relative to x+1.
	zipfMargin = 1e-9
	// zipfMaxGain caps gain(): tables exist only for keys whose
	// worst-case rounding error, gain()·2^-53 relative to x+1, stays
	// over a thousand times inside zipfMargin.
	zipfMaxGain = 4096
	// zipfMemoBytes caps the bytes of guide tables the process keeps.
	// A key that would pass it draws without a table.
	zipfMemoBytes = 8 << 20
)

// NewZipfGen precomputes a sampler equivalent to Zipf(n, s). The guide
// table for (n, s) is built once per process and shared (zipfTables).
func NewZipfGen(n int, s float64) ZipfGen {
	z := newZipfGen(n, s)
	z.tab = zipfTables.get(&z)
	return z
}

// newZipfGen precomputes the constants of Zipf(n, s), without a table.
func newZipfGen(n int, s float64) ZipfGen {
	z := ZipfGen{n: n, s: s}
	if n <= 1 || s <= 0 {
		return z
	}
	z.shift = 53 - uint(min(max(bits.Len(uint(n))+2, 6), 14))
	if s == 1 {
		z.logN = math.Log(float64(n))
		return z
	}
	p := 1 - s
	z.powT = math.Pow(float64(n), p) - 1
	z.invP = 1 / p
	return z
}

// Draw returns the next Zipf index, advancing r exactly as Zipf(n, s)
// would.
func (z *ZipfGen) Draw(r *RNG) int {
	if z.tab != nil {
		k := r.Uint64() >> 11
		if i := z.tab[k>>z.shift]; i != zipfMiss {
			return int(i)
		}
		return z.miss(k)
	}
	if z.n <= 1 {
		return 0
	}
	if z.s <= 0 {
		return r.Intn(z.n)
	}
	return z.index(z.x(r.Uint64() >> 11))
}

// x evaluates RNG.Zipf's expression at u = k/2^53, the uniform Float64
// forms from the same k.
func (z *ZipfGen) x(k uint64) float64 {
	u := float64(k) / (1 << 53)
	if z.s == 1 {
		return math.Exp(u*z.logN) - 1
	}
	return math.Pow(u*z.powT+1, z.invP) - 1
}

// miss is the index for a k whose bucket has no entry. For s != 1 it
// first evaluates y = exp(ln(base)/(1-s)), which costs a third of Pow:
// Log and Exp are accurate to about an ulp and |ln y| <= ln n, so this y
// is within a few hundred ulps of the true power, as Pow's result is
// (gain), and both lie far inside the margin. Where the widened value
// settles on one index it is Pow's index too; otherwise, within the
// margin of an index boundary, miss evaluates Pow itself.
func (z *ZipfGen) miss(k uint64) int {
	if z.s != 1 {
		u := float64(k) / (1 << 53)
		x := math.Exp(z.invP*math.Log(u*z.powT+1)) - 1
		if i := z.lower(x); i == z.upper(x) {
			return i
		}
	}
	return z.index(z.x(k))
}

// lower and upper are the indices of x widened down and up by the
// margin, zipfMargin·(|x|+1).
func (z *ZipfGen) lower(x float64) int { return z.index(x - zipfMargin*(math.Abs(x)+1)) }
func (z *ZipfGen) upper(x float64) int { return z.index(x + zipfMargin*(math.Abs(x)+1)) }

// index truncates x to an index in [0, n).
func (z *ZipfGen) index(x float64) int {
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// gain bounds the relative error of a computed x+1, in units of 2^-53:
// for s == 1, the rounding of u·ln n amplified by Exp; for s != 1, the
// rounding of the base relative to its smallest value, amplified by
// |1/(1-s)|, plus Pow's own error, which grows with |1/(1-s)| through
// its repeated squaring. Each term is rounded up generously.
func (z *ZipfGen) gain() float64 {
	if z.s == 1 {
		return 2*z.logN + 8
	}
	a := math.Abs(z.invP)
	base := min(1, z.powT+1) // smallest u·powT+1 over u in [0, 1)
	return a*(1+1/base) + 2*a + 128
}

// hasTable reports whether (n, s) gets a guide table.
func (z *ZipfGen) hasTable() bool {
	return z.n > 1 && z.s > 0 && z.gain() <= zipfMaxGain
}

// buildTable evaluates every bucket's ends (see ZipfGen).
func (z *ZipfGen) buildTable() []uint16 {
	tab := make([]uint16, 1<<(53-z.shift))
	width := uint64(1)<<z.shift - 1
	for b := range tab {
		k0 := uint64(b) << z.shift
		lo, hi := z.lower(z.x(k0)), z.upper(z.x(k0+width))
		if lo == hi && lo < zipfMiss {
			tab[b] = uint16(lo)
		} else {
			tab[b] = zipfMiss
		}
	}
	return tab
}

// ZipfKey is the (n, s) pair a ZipfGen draws for. A guide table is a
// pure function of its key.
type ZipfKey struct {
	N int
	S float64
}

// tableMemo is the process-wide store of guide tables, capped at a
// fixed byte budget. A published table is never written again, so
// ZipfGens read it without locking. Two goroutines may build the same
// table at once; both build identical tables and the first to publish
// wins, so which one a ZipfGen holds never changes a draw.
type tableMemo struct {
	mu    sync.Mutex
	tabs  map[ZipfKey][]uint16
	bytes int
	cap   int
}

var zipfTables = tableMemo{cap: zipfMemoBytes}

// get returns the table for z's key, building and publishing it on first
// use, or nil when the key has no table or the memo has no room for it.
func (m *tableMemo) get(z *ZipfGen) []uint16 {
	if !z.hasTable() {
		return nil
	}
	key := ZipfKey{z.n, z.s}
	size := 2 << (53 - z.shift)
	m.mu.Lock()
	tab, ok := m.tabs[key]
	full := m.bytes+size > m.cap
	m.mu.Unlock()
	if ok || full {
		return tab
	}
	tab = z.buildTable()
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.tabs[key]; ok {
		return prev
	}
	if m.bytes+size > m.cap {
		return nil
	}
	if m.tabs == nil {
		m.tabs = make(map[ZipfKey][]uint16)
	}
	m.tabs[key] = tab
	m.bytes += size
	return tab
}
