package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/llc"
)

// Flag values single and compare refuse with exit 2.
var (
	// errUnknownChoice: a -mode, -policy, -config or config kind that
	// names no known choice.
	errUnknownChoice = errors.New("unknown choice")
	// errBadRatio: a directory ratio that is not a finite, non-negative
	// number.
	errBadRatio = errors.New("bad ratio")
)

var (
	llcModes   = map[string]llc.Mode{"noninclusive": llc.NonInclusive, "epd": llc.EPD, "inclusive": llc.Inclusive}
	dePolicies = map[string]core.DEPolicy{"spillall": core.SpillAll, "fpss": core.FPSS, "fuseall": core.FuseAll}
)

// choose looks name up in choices, ignoring case. An unknown name is an
// errUnknownChoice that lists the accepted ones.
func choose[V any](what, name string, choices map[string]V) (V, error) {
	v, ok := choices[strings.ToLower(name)]
	if !ok {
		names := make([]string, 0, len(choices))
		for k := range choices {
			names = append(names, k)
		}
		sort.Strings(names)
		return v, fmt.Errorf("%w: %s %q (want %s)", errUnknownChoice, what, name, strings.Join(names, " | "))
	}
	return v, nil
}

// checkRatio rejects a negative, NaN or infinite directory ratio.
func checkRatio(r float64) error {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("%w: %v (want a finite number >= 0)", errBadRatio, r)
	}
	return nil
}

// parseRatio parses the ratio of a compare config. The whole string must
// be the number; an empty one is 0.
func parseRatio(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not a number", errBadRatio, s)
	}
	return r, checkRatio(r)
}
