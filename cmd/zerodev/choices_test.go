package main

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llc"
)

// TestSingleRejectsUnknownChoices: single must refuse an unknown -mode,
// -policy or -config, or a bad -ratio, by name and with exit 2, instead
// of running some default in its place.
func TestSingleRejectsUnknownChoices(t *testing.T) {
	pre := config.TableI(32)
	for _, c := range []struct {
		name              string
		cfg, policy, mode string
		ratio             float64
		want              error
		wantPolicy        core.DEPolicy
		wantMode          llc.Mode
	}{
		{name: "defaults", cfg: "zerodev", policy: "fpss", mode: "noninclusive", wantPolicy: core.FPSS, wantMode: llc.NonInclusive},
		{name: "case-insensitive", cfg: "ZeroDEV", policy: "FuseAll", mode: "EPD", wantPolicy: core.FuseAll, wantMode: llc.EPD},
		{name: "bogus mode", cfg: "zerodev", policy: "fpss", mode: "bogus", want: errUnknownChoice},
		{name: "bogus policy", cfg: "zerodev", policy: "nope", mode: "noninclusive", want: errUnknownChoice},
		{name: "bogus config", cfg: "zerodevv", policy: "fpss", mode: "noninclusive", want: errUnknownChoice},
		{name: "negative ratio", cfg: "zerodev", policy: "fpss", mode: "noninclusive", ratio: -0.5, want: errBadRatio},
		{name: "NaN ratio", cfg: "baseline", policy: "fpss", mode: "noninclusive", ratio: math.NaN(), want: errBadRatio},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := singleSpec(pre, c.cfg, c.ratio, c.policy, c.mode)
			if !errors.Is(err, c.want) {
				t.Fatalf("singleSpec error = %v, want %v", err, c.want)
			}
			if c.want == nil {
				if spec.Policy != c.wantPolicy || spec.Mode != c.wantMode {
					t.Fatalf("spec policy/mode = %v/%v, want %v/%v", spec.Policy, spec.Mode, c.wantPolicy, c.wantMode)
				}
				return
			}
			args := []string{"-scale", "32", "-accesses", "100", "-config", c.cfg, "-policy", c.policy, "-mode", c.mode}
			if c.ratio != 0 {
				args = append(args, "-ratio", strconv.FormatFloat(c.ratio, 'g', -1, 64))
			}
			if code := singleCmd(append(args, "canneal")); code != 2 {
				t.Fatalf("single %v exit = %d, want 2", args, code)
			}
		})
	}
}

// TestCompareRejectsBadConfigs: compare must refuse ratios with trailing
// junk, non-numeric, negative or NaN ratios, unknown kinds and unknown
// modes with exit 2, before simulating anything.
func TestCompareRejectsBadConfigs(t *testing.T) {
	pre := config.TableI(32)
	for _, c := range []struct {
		name, configs, mode string
		want                error
		specs               int
	}{
		{name: "defaults", configs: "baseline:1,zerodev:0", mode: "noninclusive", specs: 2},
		{name: "spaces and missing ratio", configs: " zerodev:0.125 ,unbounded", mode: "inclusive", specs: 2},
		{name: "non-numeric ratio", configs: "baseline:abc", mode: "noninclusive", want: errBadRatio},
		{name: "trailing junk", configs: "zerodev:0.5x", mode: "noninclusive", want: errBadRatio},
		{name: "negative ratio", configs: "baseline:1,secdir:-1", mode: "noninclusive", want: errBadRatio},
		{name: "NaN ratio", configs: "mgd:NaN", mode: "noninclusive", want: errBadRatio},
		{name: "infinite ratio", configs: "mgd:+Inf", mode: "noninclusive", want: errBadRatio},
		{name: "unknown kind", configs: "baseline:1,zerodeb:0", mode: "noninclusive", want: errUnknownChoice},
		{name: "unknown mode", configs: "baseline:1", mode: "exclusive", want: errUnknownChoice},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, specs, err := compareSpecs(pre, c.configs, c.mode)
			if !errors.Is(err, c.want) {
				t.Fatalf("compareSpecs error = %v, want %v", err, c.want)
			}
			if c.want == nil {
				if len(specs) != c.specs {
					t.Fatalf("got %d specs, want %d", len(specs), c.specs)
				}
				return
			}
			args := []string{"-scale", "32", "-accesses", "100", "-workers", "1", "-configs", c.configs, "-mode", c.mode, "canneal"}
			if code := compareCmd(context.Background(), args); code != 2 {
				t.Fatalf("compare %v exit = %d, want 2", args, code)
			}
		})
	}
}
