package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
)

func tinyOptions() Options {
	return Options{Scale: 32, Accesses: 4000, Seed: 1, Quick: true}
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig12",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"fig24", "fig25", "fig26", "fig27",
		"claims", "energy", "multisocket",
		"ablation-repl", "ablation-llcrepl", "ablation-backing", "ablation-prefetch", "compress",
	}
	have := map[string]bool{}
	for _, e := range List() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, err := Get("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentsSmoke runs a representative subset end to end at a
// tiny scale; each must produce a table and no error.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := tinyOptions()
	for _, id := range []string{"fig4", "fig5", "fig17", "fig19", "claims"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(o, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if !strings.Contains(out, "==") || len(out) < 50 {
			t.Fatalf("%s produced no table:\n%s", id, out)
		}
	}
}

func TestSuiteAppsQuickSubset(t *testing.T) {
	o := tinyOptions()
	for _, suite := range allSuites {
		apps := suiteApps(o, suite)
		if len(apps) == 0 {
			t.Fatalf("quick subset for %s empty", suite)
		}
		full := suiteApps(Options{}, suite)
		if len(apps) > len(full) {
			t.Fatalf("quick subset larger than full for %s", suite)
		}
	}
}

func TestGroupUnits(t *testing.T) {
	o := tinyOptions()
	units := groupUnits(o, "CPU-HET")
	if len(units) != hetMixCount(o) {
		t.Fatalf("het units = %d", len(units))
	}
	if units[0].mt {
		t.Fatal("het mixes use weighted speedup, not parallel")
	}
	pu := groupUnits(o, "PARSEC")
	if len(pu) == 0 || !pu[0].mt {
		t.Fatal("PARSEC units must be multithreaded")
	}
	streams := pu[0].make(8)
	if len(streams) != 8 {
		t.Fatalf("unit produced %d streams", len(streams))
	}
}

// TestValidateScale is the -scale refusal table: a scale must be a
// power of two, and must leave every cache of both presets (TableI and
// Server128) at least one whole set. 64 is the largest buildable scale
// (a 32 KB 8-way L1 shrinks to one set); 128 and 4096 are refused with
// config.ErrScaleTooLarge before any cell runs, instead of panicking
// inside cache construction in every cell.
func TestValidateScale(t *testing.T) {
	for _, tc := range []struct {
		scale   int
		wantErr error // nil = accept
		wantMsg string
	}{
		{scale: 1},
		{scale: 32},
		{scale: 64},
		{scale: 0, wantMsg: "power of two"},
		{scale: 3, wantMsg: "power of two"},
		{scale: 128, wantErr: config.ErrScaleTooLarge, wantMsg: "-scale 128"},
		{scale: 4096, wantErr: config.ErrScaleTooLarge, wantMsg: "-scale 4096"},
	} {
		o := DefaultOptions()
		o.Scale = tc.scale
		err := o.Validate()
		switch {
		case tc.wantErr == nil && tc.wantMsg == "":
			if err != nil {
				t.Errorf("scale %d: Validate rejected a buildable scale: %v", tc.scale, err)
			}
		case err == nil:
			t.Errorf("scale %d: Validate accepted it", tc.scale)
		case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
			t.Errorf("scale %d: err = %v, want errors.Is(err, %v)", tc.scale, err, tc.wantErr)
		case !strings.Contains(err.Error(), tc.wantMsg):
			t.Errorf("scale %d: err = %q, want substring %q", tc.scale, err, tc.wantMsg)
		}
	}
}
