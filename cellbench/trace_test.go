package main

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/directory"
)

// TestWrappersTransparent runs one cell per backend, plus the smallest
// multi-socket rung, wrapped and unwrapped: the simulated outputs must
// be identical, and the traced run must have timed every layer the
// cell reaches.
func TestWrappersTransparent(t *testing.T) {
	bw, err := backendWrites()
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := scaleLadder()
	if err != nil {
		t.Fatal(err)
	}
	cells := bw.cells[:len(backend.All())] // freqmine under every backend
	cells = append(cells, ladder.cells[0])
	for _, c := range cells {
		plain := runCell(c, 7, nil)
		tr := newTracer()
		traced := runCell(c, 7, tr)
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: untraced err %v, traced err %v", c.name, plain.err, traced.err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: wrapping changed the simulated outputs", c.name)
		}
		for _, l := range []layer{lWorkload, lCPU, lCore, lDirectory, lHome} {
			if tr.calls[l] == 0 {
				t.Errorf("%s: layer %s never entered", c.name, layerNames[l])
			}
		}
		if got, want := tr.calls[lCPU], plain.refs+uint64(c.streams.cores); got != want {
			t.Errorf("%s: %d timed steps, want one per reference plus one per core (%d)", c.name, got, want)
		}
	}
}

// TestWrapDirMethodSets checks that the timed directory answers every
// type assertion the program makes exactly as the directory it wraps.
func TestWrapDirMethodSets(t *testing.T) {
	for _, d := range []directory.Directory{directory.NoDir{}, directory.MustTraditional(64, 8)} {
		w := wrapDir(newTracer(), d)
		same := func(name string, probe func(directory.Directory) bool) {
			if probe(d) != probe(w) {
				t.Errorf("%s: %s answers %v wrapped, %v unwrapped", d.Name(), name, probe(w), probe(d))
			}
		}
		same("Stater", func(x directory.Directory) bool { _, ok := x.(directory.Stater); return ok })
		same("ConflictDirectory", func(x directory.Directory) bool { _, ok := x.(core.ConflictDirectory); return ok })
		same("Peak", func(x directory.Directory) bool { _, ok := x.(interface{ Peak() int }); return ok })
		same("PeakOverflow", func(x directory.Directory) bool { _, ok := x.(interface{ PeakOverflow() int }); return ok })
	}
}
