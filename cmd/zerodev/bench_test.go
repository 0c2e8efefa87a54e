package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline marshals a benchFile to a temp path for compareBench.
func writeBaseline(t *testing.T, bf benchFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	b, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchWith(fig18Ns int64) benchFile {
	return benchFile{
		Version: BenchFileVersion,
		Results: []benchEntry{{Experiment: "fig18", Workers: 1, NsPerOp: fig18Ns}},
	}
}

// TestCompareBench pins the regression gate's failure modes: a missing
// baseline and a schema-version mismatch fail with their named errors
// (not a generic message a CI job could mistake for a regression), a
// within-limit measurement passes, and a real regression fails with
// neither named error.
func TestCompareBench(t *testing.T) {
	cur := benchWith(1_000_000)
	for _, tc := range []struct {
		name     string
		baseline func(t *testing.T) string
		wantErr  error  // errors.Is target; nil = expect success
		wantMsg  string // substring of a non-nil error, when wantErr is nil
	}{
		{
			name:     "baseline missing",
			baseline: func(t *testing.T) string { return filepath.Join(t.TempDir(), "nope.json") },
			wantErr:  ErrBaselineMissing,
		},
		{
			name: "baseline version mismatch",
			baseline: func(t *testing.T) string {
				bf := benchWith(1_000_000)
				bf.Version = BenchFileVersion - 1
				return writeBaseline(t, bf)
			},
			wantErr: ErrBaselineVersion,
		},
		{
			name:     "within limit",
			baseline: func(t *testing.T) string { return writeBaseline(t, benchWith(900_000)) },
		},
		{
			name:     "regression beyond limit",
			baseline: func(t *testing.T) string { return writeBaseline(t, benchWith(500_000)) },
			wantMsg:  "fig18 regressed",
		},
		{
			name: "baseline lacks serial fig18",
			baseline: func(t *testing.T) string {
				bf := benchWith(1_000_000)
				bf.Results[0].Workers = 2
				return writeBaseline(t, bf)
			},
			wantMsg: "serial fig18 entry",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBench(io.Discard, cur, tc.baseline(t), 0.20)
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is(err, %v)", err, tc.wantErr)
				}
			case tc.wantMsg != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantMsg)
				}
				if errors.Is(err, ErrBaselineMissing) || errors.Is(err, ErrBaselineVersion) {
					t.Fatalf("regression error %v must not match the baseline-setup errors", err)
				}
			default:
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
			}
		})
	}
}

// TestFindEntry pins that lookups match on worker count and that a
// repeated identity resolves to its first row.
func TestFindEntry(t *testing.T) {
	bf := benchFile{Results: []benchEntry{
		{Experiment: "multisocket", Workers: 1, NsPerOp: 10},
		{Experiment: "multisocket", Workers: 1, NsPerOp: 20},
	}}
	if e := bf.find("multisocket", 1); e == nil || e.NsPerOp != 10 {
		t.Fatalf("serial entry = %+v, want the first row (ns_per_op 10)", e)
	}
	if e := bf.find("multisocket", 2); e != nil {
		t.Fatalf("workers=2 entry = %+v, want nil", e)
	}
}

// TestFindEntryBackendAxis pins that backend-tagged entries are
// distinct rows — and invisible to the untagged lookups the regression
// gate and pre-backend baselines use, which is what makes the
// per-backend additions non-breaking.
func TestFindEntryBackendAxis(t *testing.T) {
	bf := benchFile{Results: []benchEntry{
		{Experiment: "figbackends", Backend: "zerodev", Workers: 1, NsPerOp: 10},
		{Experiment: "figbackends", Backend: "dls", Workers: 1, NsPerOp: 20},
	}}
	if e := bf.findBackend("figbackends", "dls", 1); e == nil || e.NsPerOp != 20 {
		t.Fatalf("dls entry = %+v, want ns_per_op 20", e)
	}
	if e := bf.find("figbackends", 1); e != nil {
		t.Fatalf("untagged lookup matched a backend-tagged entry: %+v", e)
	}
	// A backend-tagged current file still satisfies an old untagged
	// baseline: the gate's fig18 lookup ignores the new rows.
	cur := benchWith(1_000_000)
	cur.Results = append(cur.Results, bf.Results...)
	if err := compareBench(io.Discard, cur, writeBaseline(t, benchWith(1_000_000)), 0.20); err != nil {
		t.Fatalf("backend-tagged entries broke comparison against an untagged baseline: %v", err)
	}
}

// TestCompareBenchCommittedBaseline runs the gate against the committed
// BENCH_7.json, which the nightly job compares against. That file holds
// rows measured under a since-removed intra-run scheduler; they decode
// as extra fig18/multisocket workers=1 rows after the serial ones. The
// gate must use the first (serial) fig18 row, 2194190343 ns/op, and
// report every (experiment, backend, workers) identity exactly once.
func TestCompareBenchCommittedBaseline(t *testing.T) {
	const path = "../../BENCH_7.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cur benchFile
	if err := json.Unmarshal(raw, &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Version != BenchFileVersion {
		t.Fatalf("%s is version %d, this build writes %d", path, cur.Version, BenchFileVersion)
	}
	fig18 := cur.find("fig18", 1)
	if fig18 == nil || fig18.NsPerOp != 2194190343 {
		t.Fatalf("serial fig18 row = %+v, want ns_per_op 2194190343", fig18)
	}

	// 2.60e9 is within 20% of the serial row (limit 2.633e9) but not of
	// the later 2090205339 row (limit 2.508e9), so passing here proves
	// the gate read the serial row.
	fig18.NsPerOp = 2_600_000_000
	var out bytes.Buffer
	if err := compareBench(&out, cur, path, 0.20); err != nil {
		t.Fatalf("gate against the serial row: %v", err)
	}
	fig18.NsPerOp = 2_640_000_000
	if err := compareBench(io.Discard, cur, path, 0.20); err == nil || !strings.Contains(err.Error(), "2194190343") {
		t.Fatalf("err = %v, want a fig18 regression against baseline 2194190343", err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	seen := map[string]bool{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 4 {
			t.Fatalf("malformed report line %q", l)
		}
		id := strings.Join(f[2:len(f)-1], " ")
		if seen[id] {
			t.Fatalf("identity %q reported twice:\n%s", id, out.String())
		}
		seen[id] = true
		if id == "fig18 workers=1" && f[len(f)-1] != "+18.5%" {
			t.Fatalf("fig18 line %q: want +18.5%% against the serial row", l)
		}
	}
	if !seen["fig18 workers=1"] || len(seen) != 10 {
		t.Fatalf("reported %d identities, want 10 including fig18:\n%s", len(seen), out.String())
	}
}
