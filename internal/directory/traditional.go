package directory

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coher"
)

// Traditional is the baseline sparse directory: a tagged set-associative
// cache of directory entries managed with 1-bit NRU (Table I). With
// replacement disabled it becomes the simpler structure ZeroDEV uses
// (§III-C4): a new entry takes an invalid way or is refused, so an entry
// disturbs at most one location during its lifetime.
type Traditional struct {
	arr         *cache.Array[coher.Entry]
	replDisable bool
	name        string
	// scratch backs the single-victim slice Store returns, so the
	// baseline's hottest eviction path performs no heap allocation. Per
	// the Directory contract, the slice is valid only until the next
	// Store on this directory.
	scratch [1]Victim
	// live/peak track occupancy incrementally (measurement-only, like
	// Unbounded's shadow tracking; excluded from AppendState).
	live, peak int
}

// NewTraditional builds a sparse directory with the given entry count
// and associativity, using NRU replacement as in the paper's baseline.
func NewTraditional(entries, ways int) (*Traditional, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("directory: bad geometry entries=%d ways=%d", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("directory: set count %d not a power of two", sets)
	}
	return &Traditional{
		arr:  cache.New[coher.Entry](cache.Geometry{Sets: sets, Ways: ways}, cache.NRU),
		name: fmt.Sprintf("Sparse(%d×%d,NRU)", sets, ways),
	}, nil
}

// NewReplacementDisabled builds the replacement-disabled sparse
// directory of the ZeroDEV design.
func NewReplacementDisabled(entries, ways int) (*Traditional, error) {
	d, err := NewTraditional(entries, ways)
	if err != nil {
		return nil, err
	}
	d.replDisable = true
	d.name = fmt.Sprintf("SparseNoRepl(%d×%d)", entries/ways, ways)
	return d, nil
}

// MustTraditional panics on construction error.
func MustTraditional(entries, ways int) *Traditional {
	d, err := NewTraditional(entries, ways)
	if err != nil {
		panic(err)
	}
	return d
}

// MustReplacementDisabled panics on construction error.
func MustReplacementDisabled(entries, ways int) *Traditional {
	d, err := NewReplacementDisabled(entries, ways)
	if err != nil {
		panic(err)
	}
	return d
}

// Lookup implements Directory.
func (d *Traditional) Lookup(addr coher.Addr) (coher.Entry, bool) {
	set, way, ok := d.arr.Lookup(uint64(addr))
	if !ok {
		return coher.Entry{}, false
	}
	return *d.arr.Payload(set, way), true
}

// Store implements Directory.
func (d *Traditional) Store(addr coher.Addr, e coher.Entry) ([]Victim, bool) {
	set, way, ok := d.arr.Lookup(uint64(addr))
	if !e.Live() {
		if ok {
			d.arr.Invalidate(set, way)
			d.live--
		}
		return nil, true
	}
	if ok {
		*d.arr.Payload(set, way) = e
		d.arr.Touch(set, way)
		return nil, true
	}
	if w, free := d.arr.FreeWay(set); free {
		d.arr.Insert(set, w, uint64(addr), e)
		d.allocated()
		return nil, true
	}
	if d.replDisable {
		return nil, false
	}
	w := d.arr.Victim(set)
	d.scratch[0] = Victim{
		Addr:  coher.Addr(d.arr.AddrOf(set, w)),
		Entry: *d.arr.Payload(set, w),
	}
	// Replacement: one live entry out, one in — occupancy unchanged.
	d.arr.Insert(set, w, uint64(addr), e)
	return d.scratch[:], true
}

func (d *Traditional) allocated() {
	d.live++
	if d.live > d.peak {
		d.peak = d.live
	}
}

// Free implements Directory.
func (d *Traditional) Free(addr coher.Addr) {
	if set, way, ok := d.arr.Lookup(uint64(addr)); ok {
		d.arr.Invalidate(set, way)
		d.live--
	}
}

// Peak reports the high-water mark of live entries — the directory
// occupancy surface the backend comparison figures report.
func (d *Traditional) Peak() int { return d.peak }

// SetFull reports whether allocating addr would conflict: addr is
// absent from the directory and its set has no free way. The
// phase-priority backend consults it at admission time to decide
// whether a request pays the NACK/retry ladder.
func (d *Traditional) SetFull(addr coher.Addr) bool {
	if _, _, ok := d.arr.Lookup(uint64(addr)); ok {
		return false
	}
	set := d.arr.SetIndex(uint64(addr))
	_, free := d.arr.FreeWay(set)
	return !free
}

// EvictVictim forcibly evicts the replacement victim of addr's set and
// returns it — the phase-priority escalation path, which victimizes a
// live entry after the NACK budget is spent even on a
// replacement-disabled directory. ok is false when the set has a free
// way or already tracks addr (no eviction needed). The returned victim
// aliases the Store scratch slot and is valid until the next Store.
func (d *Traditional) EvictVictim(addr coher.Addr) (Victim, bool) {
	if _, _, ok := d.arr.Lookup(uint64(addr)); ok {
		return Victim{}, false
	}
	set := d.arr.SetIndex(uint64(addr))
	if _, free := d.arr.FreeWay(set); free {
		return Victim{}, false
	}
	w := d.arr.Victim(set)
	v := Victim{
		Addr:  coher.Addr(d.arr.AddrOf(set, w)),
		Entry: *d.arr.Payload(set, w),
	}
	d.arr.Invalidate(set, w)
	d.live--
	return v, true
}

// Touch implements Directory.
func (d *Traditional) Touch(addr coher.Addr) {
	if set, way, ok := d.arr.Lookup(uint64(addr)); ok {
		d.arr.Touch(set, way)
	}
}

// Occupancy implements Directory.
func (d *Traditional) Occupancy() (int, int) {
	return d.arr.CountValid(), d.arr.Geometry().Blocks()
}

// Name implements Directory.
func (d *Traditional) Name() string { return d.name }

// AppendState implements Stater: the underlying array's tags, NRU
// reference bits, and canonical entry encodings. Reference bits matter
// for the NRU baseline (they steer future victim choices); for the
// replacement-disabled variant they are inert but still deterministic.
func (d *Traditional) AppendState(buf []byte) []byte {
	return d.arr.AppendState(buf, func(b []byte, e *coher.Entry) []byte {
		return e.AppendCanonical(b)
	})
}
