package workload

import (
	"testing"

	"repro/internal/coher"
	"repro/internal/cpu"
)

func TestCatalogComplete(t *testing.T) {
	wantCounts := map[string]int{
		"PARSEC":   10,
		"SPLASH2X": 9,
		"SPECOMP":  6,
		"FFTW":     1,
		"CPU2017":  36,
		"SERVER":   7,
	}
	for suite, want := range wantCounts {
		apps := Suite(suite)
		if len(apps) != want {
			t.Errorf("%s has %d apps, want %d", suite, len(apps), want)
		}
		for _, p := range apps {
			if p.PrivateBlocks <= 0 || p.CodeBlocks <= 0 || p.GapMean <= 0 {
				t.Errorf("%s/%s has degenerate parameters: %+v", suite, p.Name, p)
			}
		}
	}
	if len(All()) != 10+9+6+1+36+7 {
		t.Fatalf("All() = %d profiles", len(All()))
	}
	if _, err := Get("no-such-app"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestPaperHighlightsPresent(t *testing.T) {
	// Applications the paper calls out by name must exist with the
	// behaviours DESIGN.md assigns them.
	fq := MustGet("freqmine")
	if fq.Migratory < 0.2 {
		t.Fatal("freqmine must be migratory-heavy (forwarded-request behaviour)")
	}
	xa := MustGet("xalancbmk")
	if xa.PrivateBlocks < 8*16384 {
		t.Fatal("xalancbmk must have a large private footprint (directory pressure)")
	}
	fftw := MustGet("FFTW")
	if fftw.SharedFrac > 0.01 {
		t.Fatal("FFTW sharing must be negligible")
	}
}

func TestDeterminism(t *testing.T) {
	p := MustGet("canneal")
	a := Threads(p, 4, 1000, 8, 42)
	b := Threads(p, 4, 1000, 8, 42)
	for th := 0; th < 4; th++ {
		for {
			x, okx := a[th].Next()
			y, oky := b[th].Next()
			if okx != oky {
				t.Fatal("stream lengths differ")
			}
			if !okx {
				break
			}
			if x != y {
				t.Fatalf("thread %d diverged: %+v vs %+v", th, x, y)
			}
		}
	}
	// A different seed diverges.
	c := Threads(p, 4, 1000, 8, 43)
	d := Threads(p, 4, 1000, 8, 42)
	same := true
	for i := 0; i < 100; i++ {
		x, _ := c[0].Next()
		y, _ := d[0].Next()
		if x != y {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// footprint walks a stream and reports the address regions touched.
func footprint(s cpu.Stream) (n int, addrs map[coher.Addr]bool) {
	addrs = map[coher.Addr]bool{}
	for {
		a, ok := s.Next()
		if !ok {
			return n, addrs
		}
		n++
		addrs[a.Addr] = true
	}
}

func TestThreadsShareRegions(t *testing.T) {
	p := MustGet("ocean_cp")
	streams := Threads(p, 2, 5000, 8, 1)
	_, a0 := footprint(streams[0])
	_, a1 := footprint(streams[1])
	common := 0
	for addr := range a0 {
		if a1[addr] {
			common++
		}
	}
	if common == 0 {
		t.Fatal("threads of one process must share addresses")
	}
}

func TestRateIsDisjoint(t *testing.T) {
	p := MustGet("mcf")
	streams := Rate(p, 2, 5000, 8, 1)
	_, a0 := footprint(streams[0])
	_, a1 := footprint(streams[1])
	for addr := range a0 {
		if a1[addr] {
			t.Fatalf("rate copies share address %#x", uint64(addr))
		}
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	p := MustGet("canneal")
	_, big := footprint(Threads(p, 1, 20000, 1, 1)[0])
	_, small := footprint(Threads(p, 1, 20000, 16, 1)[0])
	if len(small) >= len(big) {
		t.Fatalf("scale 16 footprint (%d) not smaller than scale 1 (%d)", len(small), len(big))
	}
}

func TestHetMixes(t *testing.T) {
	mixes := HetMixes(36, 8)
	if len(mixes) != 36 {
		t.Fatalf("%d mixes", len(mixes))
	}
	counts := map[string]int{}
	for _, m := range mixes {
		if len(m) != 8 {
			t.Fatalf("mix width %d", len(m))
		}
		for _, p := range m {
			counts[p.Name]++
		}
	}
	// Equal representation: every CPU2017 app appears with frequency
	// 36*8/36 = 8.
	for name, c := range counts {
		if c != 8 {
			t.Fatalf("app %s appears %d times, want 8 (equal representation)", name, c)
		}
	}
	// Mixes are pairwise distinct and never repeat an app internally.
	seen := map[string]bool{}
	for _, m := range mixes {
		key := ""
		inMix := map[string]bool{}
		for _, p := range m {
			key += p.Name + "|"
			if inMix[p.Name] {
				t.Fatalf("mix repeats application %s", p.Name)
			}
			inMix[p.Name] = true
		}
		if seen[key] {
			t.Fatalf("duplicate mix %s", key)
		}
		seen[key] = true
	}
}

func TestMigratoryQueuesStores(t *testing.T) {
	p := MustGet("freqmine")
	s := Threads(p, 1, 20000, 8, 1)[0]
	loads := map[coher.Addr]bool{}
	rmw := 0
	var prev *cpu.Access
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if prev != nil && prev.Kind == cpu.Load && a.Kind == cpu.Store && a.Addr == prev.Addr {
			rmw++
		}
		cp := a
		prev = &cp
		if a.Kind == cpu.Load {
			loads[a.Addr] = true
		}
	}
	if rmw == 0 {
		t.Fatal("migratory read-modify-write pairs missing")
	}
}

// BenchmarkGenNext measures one thread's stream generator per access at
// the benchmark grid's scale (32): canneal as threads, freqmine for the
// migratory read-modify-write path, and mcf as a rate copy. Stream
// construction is outside the timed loop.
func BenchmarkGenNext(b *testing.B) {
	for _, c := range []struct {
		app  string
		rate bool
	}{{"canneal", false}, {"freqmine", false}, {"mcf", true}} {
		b.Run(c.app, func(b *testing.B) {
			build := Threads
			if c.rate {
				build = Rate
			}
			s := build(MustGet(c.app), 8, b.N, 32, 1)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Next(); !ok {
					b.Fatal("stream ended early")
				}
			}
		})
	}
}
