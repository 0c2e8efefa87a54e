package core_test

import (
	"strings"
	"testing"

	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/llc"
)

// Table tests for core.LocateEntry: every location a live entry can
// legally occupy, plus the illegal multi-location states its error path
// reports. The legal states are reached through real protocol flows;
// the illegal ones are staged by poking a second copy of the entry into
// another structure, which is exactly what a housing bug would produce.
func TestLocateEntry(t *testing.T) {
	const X = coher.Addr(0x40)

	type result struct {
		where string
		state coher.DirState
		err   string // substring of the expected error; "" = no error
	}
	cases := []struct {
		name  string
		spec  core.SystemSpec
		setup func(t *testing.T, sys *core.System, sc []*script)
		want  result
	}{
		{
			name: "untracked",
			spec: tinySpec(func() directory.Directory { return directory.NoDir{} },
				true, core.SpillAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {},
			want:  result{where: ""},
		},
		{
			name: "directory",
			spec: tinySpec(func() directory.Directory { return directory.MustReplacementDisabled(2, 2) },
				true, core.SpillAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
			},
			want: result{where: core.LocDirectory, state: coher.DirOwned},
		},
		{
			name: "llc-spilled",
			spec: tinySpec(func() directory.Directory { return directory.NoDir{} },
				true, core.SpillAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
			},
			want: result{where: core.LocLLCSpilled, state: coher.DirOwned},
		},
		{
			name: "llc-fused",
			spec: tinySpec(func() directory.Directory { return directory.NoDir{} },
				true, core.FuseAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
			},
			want: result{where: core.LocLLCFused, state: coher.DirOwned},
		},
		{
			name: "home-memory",
			spec: tinySpec(func() directory.Directory { return directory.NoDir{} },
				true, core.SpillAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
				if !sys.Engine.ForceDEWriteback(0, X) {
					t.Fatal("ForceDEWriteback found no housed entry")
				}
			},
			want: result{where: core.LocHomeMemory, state: coher.DirOwned},
		},
		{
			name: "dup-directory-and-llc-spilled",
			spec: tinySpec(func() directory.Directory { return directory.MustReplacementDisabled(2, 2) },
				true, core.SpillAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
				l := sys.Engine.LLC()
				l.InsertSpilled(X, l.Probe(X), coher.Entry{State: coher.DirOwned, Owner: 0})
			},
			want: result{err: "tracked in both directory and LLC-spilled"},
		},
		{
			name: "dup-directory-and-home-memory",
			spec: tinySpec(func() directory.Directory { return directory.MustReplacementDisabled(2, 2) },
				true, core.SpillAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
				if err := sys.Home.Mem().WriteSegment(X, 0, coher.Entry{State: coher.DirOwned, Owner: 0}); err != nil {
					t.Fatal(err)
				}
			},
			want: result{err: "tracked in both directory and home-memory"},
		},
		{
			name: "dup-llc-fused-and-home-memory",
			spec: tinySpec(func() directory.Directory { return directory.NoDir{} },
				true, core.FuseAll, llc.DataLRU, llc.NonInclusive),
			setup: func(t *testing.T, sys *core.System, sc []*script) {
				storeFrom(sys, sc, 0, X)
				if err := sys.Home.Mem().WriteSegment(X, 0, coher.Entry{State: coher.DirOwned, Owner: 0}); err != nil {
					t.Fatal(err)
				}
			},
			want: result{err: "tracked in both LLC-fused and home-memory"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, sc := microSystem(tc.spec)
			tc.setup(t, sys, sc)
			ent, where, err := sys.Engine.LocateEntry(X)
			if tc.want.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want.err) {
					t.Fatalf("err = %v, want substring %q", err, tc.want.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if where != tc.want.where {
				t.Fatalf("where = %q, want %q", where, tc.want.where)
			}
			if where != "" && ent.State != tc.want.state {
				t.Fatalf("entry state = %v, want %v", ent.State, tc.want.state)
			}
		})
	}
}

// storeFrom drives one store access through a scripted core, giving it
// the block in M and creating a live directory entry.
func storeFrom(sys *core.System, sc []*script, c int, addr coher.Addr) {
	sc[c].store(addr)
	sys.Cores[c].Step()
}
