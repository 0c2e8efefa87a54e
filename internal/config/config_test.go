package config

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/llc"
)

// TestTableIPreset pins the preset to the paper's Table I at scale 1.
func TestTableIPreset(t *testing.T) {
	p := TableI(1)
	if p.Cores != 8 {
		t.Fatalf("cores = %d", p.Cores)
	}
	if p.LLCBytes != 8<<20 || p.LLCWays != 16 || p.LLCBanks != 8 {
		t.Fatalf("LLC = %d/%d/%d", p.LLCBytes, p.LLCWays, p.LLCBanks)
	}
	if p.CPU.L2Bytes != 256<<10 || p.CPU.L1Bytes != 32<<10 {
		t.Fatalf("private caches = %d/%d", p.CPU.L2Bytes, p.CPU.L1Bytes)
	}
	if p.DRAMChannels != 2 || p.DirWays != 8 {
		t.Fatalf("dram=%d dirways=%d", p.DRAMChannels, p.DirWays)
	}
	// 1x sizing: one directory entry per aggregate private L2 block.
	if got := p.AggregateL2Blocks(); got != 32768 {
		t.Fatalf("aggregate L2 blocks = %d", got)
	}
	if got := p.DirEntries(1); got != 32768 {
		t.Fatalf("1x entries = %d", got)
	}
	if got := p.DirEntries(1.0 / 8); got != 4096 {
		t.Fatalf("1/8x entries = %d", got)
	}
	// The paper's observation (§III-B): a 1x directory holds entries for
	// 25% of the LLC blocks (4:1 LLC:aggregate-L2 capacity ratio).
	if p.DirEntries(1)*4 != p.LLCBytes/64 {
		t.Fatalf("1x directory is not 25%% of LLC blocks")
	}
}

func TestServer128Preset(t *testing.T) {
	p := Server128(1)
	if p.Cores != 128 || p.LLCBytes != 32<<20 || p.CPU.L2Bytes != 128<<10 || p.DRAMChannels != 8 {
		t.Fatalf("preset = %+v", p)
	}
}

func TestSpecBuilders(t *testing.T) {
	p := TableI(8)
	specs := map[string]core.SystemSpec{
		"baseline":  p.Baseline(1, llc.NonInclusive),
		"unbounded": p.Unbounded(llc.NonInclusive),
		"zerodev":   p.ZeroDEV(1.0/8, core.FPSS, llc.DataLRU, llc.NonInclusive),
		"nodir":     p.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive),
		"secdir":    p.SecDir(1, llc.NonInclusive),
		"mgd":       p.MgD(1.0/8, llc.NonInclusive),
	}
	for name, s := range specs {
		d := s.Dir()
		if d == nil {
			t.Fatalf("%s: nil directory", name)
		}
		if name == "nodir" {
			if _, ok := d.(directory.NoDir); !ok {
				t.Fatalf("nodir built %T", d)
			}
		}
		if s.Cores != 8 || s.LLCBytes != 1<<20 {
			t.Fatalf("%s: spec fields wrong: %+v", name, s)
		}
	}
	if !specs["zerodev"].ZeroDEV || specs["baseline"].ZeroDEV {
		t.Fatal("ZeroDEV flag wrong")
	}
}

func TestScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two scale must panic")
		}
	}()
	TableI(3)
}

// TestPresetValidateGeometry pins where each cache geometry runs out of
// sets: every preset builds at scale 64, and the L1 (and, further out,
// the LLC bank split) is refused by name beyond it.
func TestPresetValidateGeometry(t *testing.T) {
	for _, p := range []Preset{TableI(64), Server128(64), wideServer(16, 64)} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s at scale 64: %v", p.Name, err)
		}
	}
	for _, p := range []Preset{TableI(128), Server128(128), TableI(4096), Server128(4096)} {
		if err := p.Validate(); !errors.Is(err, ErrScaleTooLarge) {
			t.Errorf("%s at scale %d: err = %v, want ErrScaleTooLarge", p.Name, p.Scale, err)
		}
	}
	// A preset whose private caches still fit but whose LLC banks do not.
	p := TableI(64)
	p.LLCBanks = 3
	if err := p.Validate(); !errors.Is(err, ErrScaleTooLarge) {
		t.Errorf("LLC split over 3 banks: err = %v, want ErrScaleTooLarge", err)
	}
}

// TestPresetValidateWays pins the associativity bound: a 64-way LLC is
// accepted, a 65-way one is refused with cache.ErrTooManyWays rather
// than reported as a scale problem.
func TestPresetValidateWays(t *testing.T) {
	for _, tc := range []struct {
		ways int
		ok   bool
	}{{64, true}, {65, false}} {
		p := TableI(1)
		p.LLCWays = tc.ways
		err := p.Validate()
		if tc.ok && err != nil {
			t.Errorf("%d-way LLC: %v", tc.ways, err)
		}
		if !tc.ok && (!errors.Is(err, cache.ErrTooManyWays) || errors.Is(err, ErrScaleTooLarge)) {
			t.Errorf("%d-way LLC: err = %v, want cache.ErrTooManyWays", tc.ways, err)
		}
	}
}
