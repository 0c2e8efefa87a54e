package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares got against testdata/<name>.golden, rewriting the file
// under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/zerodev -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run `go test ./cmd/zerodev -update` after intended changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestListGolden pins the `zerodev list` output: the experiment registry
// and its titles are part of the CLI surface.
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	writeList(&buf)
	golden(t, "list", buf.Bytes())
}

// TestUsageGolden pins the usage line, which is built from the same
// subcommand table realMain dispatches on.
func TestUsageGolden(t *testing.T) {
	var buf bytes.Buffer
	writeUsage(&buf)
	golden(t, "usage", buf.Bytes())
}

// TestAuditListGolden pins the `zerodev audit -list` output: the
// injector kinds, their default rates, and the campaign cells are part
// of the CLI surface (and of the fault model documented in DESIGN.md).
func TestAuditListGolden(t *testing.T) {
	var buf bytes.Buffer
	faults.WriteList(&buf)
	golden(t, "audit_list", buf.Bytes())
}

// TestListBackendsGolden pins the `zerodev run -list-backends` output:
// backend names and their guarantee flags are the contract the
// -backend flags, mcheck, and the conformance suite key off.
func TestListBackendsGolden(t *testing.T) {
	var buf bytes.Buffer
	backend.WriteList(&buf)
	golden(t, "list_backends", buf.Bytes())
}

// TestRunExperimentGolden pins the full table output of one quick
// experiment at a fixed seed and scale, catching accidental changes to
// either the simulator's numbers or the report formatting. It runs
// through Execute with several workers, so it also re-checks that the
// CLI path's output is scheduling-independent.
func TestRunExperimentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e, err := harness.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	o := harness.Options{Scale: 32, Accesses: 4000, Seed: 1, Quick: true, Workers: 4}
	var buf bytes.Buffer
	if _, err := e.Execute(context.Background(), o, &buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "fig4_quick", buf.Bytes())
}

// TestRunRefusesUnbuildableScale drives `run -scale 128 -quick fig18`:
// the scale leaves the 32 KB 8-way L1 without a whole set, so the run
// must exit 2 at validation, before any cell runs, and leave no crash
// bundle (or any other results/ file) behind.
func TestRunRefusesUnbuildableScale(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := runCmd(context.Background(), []string{"-scale", "128", "-quick", "-quiet", "fig18"}); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "results")); !os.IsNotExist(err) {
		t.Fatalf("refused run left results/ behind (stat err = %v)", err)
	}
}
