package main

import "time"

// The reference host is a shared VM whose speed drifts by 1.3x and more
// within minutes, as neighbours load the machine: far more than the
// bound a regression is judged by. The untraced passes therefore time a
// fixed probe kernel beside every cell and scale each cell's host times
// to the speed the probe reports, so two runs taken minutes apart
// compare as if the host had held still. The probe is benchmark code:
// no change to the program moves it.
//
// The kernel is a small cache model of its own: a set-associative tag
// array with true LRU over a 4 MiB address space, and a hash-map lookup
// on every miss. Like the simulator, it spends its time in branches and
// in loads from a few MiB of tables, so neighbours slow the two alike.
const (
	probeSets       = 4096
	probeWays       = 8
	probeMapEntries = 50000
	// probeIters is one probe unit: about 4 ms on the reference host.
	probeIters = 40000
	// refProbeNs is one probe unit's time on the reference host (a
	// 2-vCPU Intel Xeon VM) when its neighbours are quiet. Scaled times
	// read as that host would run the grid at that speed. On another
	// host the scaled times differ from raw ones by a constant factor.
	refProbeNs = 3.0e6
	// refsPerProbeUnit sets how much probing each cell gets: one unit
	// per this many simulated references, so the probe costs about a
	// tenth of the run on every grid.
	refsPerProbeUnit = 40000
)

type speedProbe struct {
	tags [probeSets][probeWays]uint64
	lru  [probeSets][probeWays]uint8
	m    map[uint64]uint32
	x    uint64
	hits uint64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{m: make(map[uint64]uint32, probeMapEntries), x: 88172645463325252}
	for i := range p.lru {
		for w := range p.lru[i] {
			p.lru[i][w] = uint8(w)
		}
	}
	for i := 0; i < probeMapEntries; i++ {
		p.m[uint64(i)*2654435761] = uint32(i)
	}
	p.measure(8) // fault the tables in and warm the caches
	return p
}

// measure runs units probe units and returns the host ns per unit.
func (p *speedProbe) measure(units int) float64 {
	t0 := time.Now()
	for i := 0; i < units*probeIters; i++ {
		p.access()
	}
	return float64(time.Since(t0)) / float64(units)
}

func (p *speedProbe) access() {
	p.x ^= p.x << 13
	p.x ^= p.x >> 7
	p.x ^= p.x << 17
	addr := p.x % (1 << 22)
	set := &p.tags[(addr>>6)%probeSets]
	lru := &p.lru[(addr>>6)%probeSets]
	tag := addr >> 18
	way := -1
	for w := range set {
		if set[w] == tag {
			way = w
			break
		}
	}
	if way < 0 {
		for w := range lru {
			if lru[w] == probeWays-1 {
				way = w
			}
		}
		set[way] = tag
		if _, ok := p.m[(p.x%probeMapEntries)*2654435761]; ok {
			p.hits++
		}
	}
	age := lru[way]
	for w := range lru {
		if lru[w] < age {
			lru[w]++
		}
	}
	lru[way] = 0
}

// probeUnits is how many probe units follow cell c.
func probeUnits(c cell) int {
	return max(1, c.streams.cores*c.streams.accesses/refsPerProbeUnit)
}
