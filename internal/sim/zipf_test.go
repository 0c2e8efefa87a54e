package sim

import (
	"sync"
	"testing"
)

// drawsMatch checks that z.Draw and RNG.Zipf agree over draws from the
// same random state and leave the stream in the same state.
func drawsMatch(t *testing.T, z *ZipfGen, seed uint64, draws int) {
	t.Helper()
	ra, rb := NewRNG(seed), NewRNG(seed)
	for i := 0; i < draws; i++ {
		if want, got := ra.Zipf(z.n, z.s), z.Draw(rb); got != want {
			t.Fatalf("n=%d s=%v draw %d: Draw=%d Zipf=%d", z.n, z.s, i, got, want)
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatalf("n=%d s=%v: streams diverged", z.n, z.s)
	}
}

// TestRNGYielding pins the test helper the table tests build on.
func TestRNGYielding(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		v := r.Uint64()
		if got := RNGYielding(v).Uint64(); got != v {
			t.Fatalf("RNGYielding(%#x).Uint64() = %#x", v, got)
		}
	}
}

// TestZipfTablelessKeys covers the keys that draw without a guide table:
// n <= 1, s <= 0, s within about 1e-3 of 1, and a large skew over a
// large n, where rounding error could approach the margin.
func TestZipfTablelessKeys(t *testing.T) {
	for _, k := range []struct {
		n int
		s float64
	}{{0, 1.2}, {1, 0.5}, {4096, 0}, {4096, -1}, {4096, 0.9995}, {4096, 1.0005}, {196608, 2.5}} {
		z := newZipfGen(k.n, k.s)
		if z.hasTable() {
			t.Fatalf("n=%d s=%v has a table, want none", k.n, k.s)
		}
		if z = NewZipfGen(k.n, k.s); z.tab != nil {
			t.Fatalf("n=%d s=%v: NewZipfGen attached a table", k.n, k.s)
		}
		drawsMatch(t, &z, 0xbead, 20000)
	}
	// s == 1 exactly uses Exp, whose error ln n does not amplify much.
	if z := newZipfGen(4096, 1); !z.hasTable() {
		t.Fatal("n=4096 s=1 has no table")
	}
}

// TestZipfMemoCap: the memo publishes tables until its byte cap, then
// hands out none, and the table-less sampler still draws Zipf's stream.
func TestZipfMemoCap(t *testing.T) {
	a, b := newZipfGen(4096, 1.2), newZipfGen(4096, 0.8) // 32 KB tables
	m := tableMemo{cap: 40 << 10}
	if a.tab = m.get(&a); a.tab == nil {
		t.Fatal("first table refused under the cap")
	}
	if again := newZipfGen(4096, 1.2); &m.get(&again)[0] != &a.tab[0] {
		t.Fatal("memo rebuilt a published table")
	}
	if b.tab = m.get(&b); b.tab != nil || m.bytes != 32<<10 {
		t.Fatalf("second table published past the cap (memo holds %d bytes)", m.bytes)
	}
	drawsMatch(t, &a, 3, 20000)
	drawsMatch(t, &b, 3, 20000)
}

// TestZipfMemoConcurrent: NewZipfGen calls racing on one key draw
// identical streams (run under -race, it also checks the memo's
// publication).
func TestZipfMemoConcurrent(t *testing.T) {
	const workers, draws = 8, 5000
	out := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := NewZipfGen(12345, 0.777)
			r := NewRNG(7)
			for i := 0; i < draws; i++ {
				out[w] = append(out[w], z.Draw(r))
			}
		}()
	}
	wg.Wait()
	r := NewRNG(7)
	for i := 0; i < draws; i++ {
		want := r.Zipf(12345, 0.777)
		for w := range out {
			if out[w][i] != want {
				t.Fatalf("worker %d draw %d = %d, want %d", w, i, out[w][i], want)
			}
		}
	}
}

// BenchmarkZipfDraw measures one draw for a head-heavy key (code region,
// s = 1.3, where the table covers most draws) and a tail-heavy one
// (xalancbmk's private region at scale 32, s = 0.35, where a third of
// draws miss the table).
func BenchmarkZipfDraw(b *testing.B) {
	for _, k := range []struct {
		name string
		n    int
		s    float64
	}{{"head", 128, 1.3}, {"tail", 5632, 0.35}} {
		b.Run(k.name, func(b *testing.B) {
			z := NewZipfGen(k.n, k.s)
			r := NewRNG(1)
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += z.Draw(r)
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
