package main

import (
	"os"
	"strings"
)

// rdtsc reads the time-stamp counter without serializing. Unlike the
// fenced read behind time.Now, it does not wait for the simulator's
// in-flight loads, so a timed call costs about the same inside the
// program as in the calibration loop.
func rdtsc() uint64

// tscUsable reports whether the counter ticks at a constant rate on
// every CPU, so tick differences convert to host time.
func tscUsable() bool {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			f := " " + v + " "
			return strings.Contains(f, " constant_tsc ") && strings.Contains(f, " nonstop_tsc ")
		}
	}
	return false
}
