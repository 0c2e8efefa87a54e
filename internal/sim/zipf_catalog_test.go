package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestZipfTableExact checks the guide table against RNG.Zipf for every
// (n, s) the workload catalog draws from at scales 1, 8, 32 and 128:
// code, shared, private and migratory regions, including xalancbmk's
// 0.35 skew and the server skews 1.25 and 1.5. For every bucket it
// draws at the first and last k and at their neighbours, so each bucket
// boundary is crossed by k±1, then compares random states. Each check
// positions an RNG so its next Uint64 carries k in its top 53 bits.
func TestZipfTableExact(t *testing.T) {
	scales, random := []int{1, 8, 32, 128}, 20000
	if testing.Short() {
		scales, random = []int{32}, 2000
	}
	seen := map[sim.ZipfKey]bool{}
	for _, scale := range scales {
		for _, p := range workload.All() {
			for _, key := range p.ZipfKeys(scale) {
				if seen[key] {
					continue
				}
				seen[key] = true
				z := sim.NewZipfGenTable(key.N, key.S)
				tab, shift := z.Table()
				if tab == nil {
					t.Errorf("%s scale %d: n=%d s=%v has no table", p.Name, scale, key.N, key.S)
					continue
				}
				check := func(v uint64) {
					want := sim.RNGYielding(v).Zipf(key.N, key.S)
					if got := z.Draw(sim.RNGYielding(v)); got != want {
						t.Fatalf("n=%d s=%v k=%#x: Draw=%d Zipf=%d", key.N, key.S, v>>11, got, want)
					}
				}
				last := uint64(1)<<shift - 1
				for b := range tab {
					k0 := uint64(b) << shift
					for _, k := range []uint64{k0, k0 + 1, k0 + last - 1, k0 + last} {
						check(k<<11 | k&0x7ff) // low bits must not matter
					}
				}
				r := sim.NewRNG(uint64(key.N))
				for i := 0; i < random; i++ {
					check(r.Uint64())
				}
			}
		}
	}
	if len(seen) < 50 {
		t.Fatalf("only %d catalog keys checked", len(seen))
	}
}
