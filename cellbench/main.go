// Command cellbench is the repo benchmark: it simulates a fixed grid of
// cells (one system simulated to completion each) for a workload, times
// them with tracing off, checks every cell, and prints the end-to-end
// metrics. With -trace 1 it alternates that with passes in which every
// layer seam is wrapped and timed, prints the per-layer metrics instead
// and writes the spans under .bench_build/cellbench. Run it from the
// repo root through run.py, which builds it; NOTES.md describes the
// metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", fmt.Sprintf("grid to run, one of %v", workloads))
	seed := flag.Uint64("seed", 1, "workload synthesis seed")
	seconds := flag.Float64("seconds", 10, "host seconds to spend measuring")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "cellbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "cellbench: -seconds must be positive")
		return 2
	}
	g, err := buildGrid(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		return 2
	}
	if *cpuProfile != "" {
		stop, err := startProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cellbench:", err)
			return 1
		}
		defer stop()
	}

	// hostInfo holds only strings and finite numbers: Marshal cannot fail.
	line, _ := json.Marshal(fingerprint(g))
	fmt.Printf("host: %s\n", line)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceFlag == 0 {
		res = measure(g, *seed, budget)
	} else {
		spans := filepath.Join(".bench_build", "cellbench", fmt.Sprintf("spans-%s-%d.json", g.name, *seed))
		res, err = measureTraced(g, *seed, budget, spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cellbench:", err)
			return 1
		}
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "cellbench: FAIL", e)
	}
	fmt.Printf("digest %s %x\n", g.name, res.digest[:8])
	out, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// startProfile starts a CPU profile into path; stop ends it and reports
// a failed write on standard error.
func startProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cellbench: writing profile:", err)
		}
	}, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	report report
	digest [sha256.Size]byte
	errs   []error
}

// pass is one run of the whole grid.
type pass struct {
	traced bool
	cells  []cellResult
	// speed is the host's speed during each cell, relative to the
	// reference host (speed.go); untraced passes only.
	speed []float64
}

// runPass runs the grid untraced. The speed probe runs before the first
// cell and after every cell, and each cell's speed is the mean of the
// two probes around it.
func runPass(g grid, seed uint64, sp *speedProbe) pass {
	p := pass{cells: make([]cellResult, len(g.cells)), speed: make([]float64, len(g.cells))}
	before := sp.measure(probeUnits(g.cells[0]))
	for i, c := range g.cells {
		// Every cell starts from a collected heap, so one cell's garbage
		// is not charged to the next, and the heap's high-water mark does
		// not hang on where a collection fell.
		runtime.GC()
		p.cells[i] = runCell(c, seed, nil)
		after := sp.measure(probeUnits(c))
		p.speed[i] = refProbeNs / ((before + after) / 2)
		before = after
	}
	return p
}

func (p pass) sum(f func(cellResult) uint64) uint64 {
	var s uint64
	for _, c := range p.cells {
		s += f(c)
	}
	return s
}

func (p pass) refs() uint64 { return p.sum(func(c cellResult) uint64 { return c.refs }) }

func (p pass) phaseNs(ph int) int64 {
	return int64(p.sum(func(c cellResult) uint64 { return uint64(c.ns[ph]) }))
}

// wallNs is the host time of the grid: set-up, simulation and stats
// collection of every cell. The benchmark's own checks are excluded.
func (p pass) wallNs() int64 { return p.phaseNs(phSetup) + p.phaseNs(phRun) + p.phaseNs(phCollect) }

// scaledNs is the host time of the given phases summed over the cells,
// each cell's time scaled to the reference host's speed.
func (p pass) scaledNs(phases ...int) float64 {
	var s float64
	for i, c := range p.cells {
		for _, ph := range phases {
			s += float64(c.ns[ph]) * p.speed[i]
		}
	}
	return s
}

func (p pass) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, c := range p.cells {
		h.Write(c.digest[:])
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// verdict counts failed cells over every pass. A cell fails on an
// error, a failed check, or a digest that differs from the same cell's
// digest in the first pass (traced and untraced passes alike: the
// wrappers and repetition must not change the simulated outputs).
func verdict(passes []pass) (attempted, failed int, errs []error) {
	first := passes[0]
	for _, p := range passes {
		for i, c := range p.cells {
			attempted++
			switch {
			case c.err != nil:
				failed++
				errs = append(errs, fmt.Errorf("%s: %w", c.name, c.err))
			case c.digest != first.cells[i].digest:
				failed++
				errs = append(errs, fmt.Errorf("%s: simulated outputs differ between passes (traced=%v vs traced=%v)",
					c.name, p.traced, first.traced))
			}
		}
	}
	return attempted, failed, errs
}

// warm drops the first pass from timing when others follow: it pays for
// growing the heap and faulting in pages once per process, and runs
// about 15% slower than the passes after it. Every pass is still
// checked.
func warm(passes []pass) []pass {
	if len(passes) > 1 {
		return passes[1:]
	}
	return passes
}

// measure runs untraced passes until the budget is spent (at least one)
// and reports the median of each end-to-end metric over the passes
// after the first. Host times are scaled to the reference host's speed;
// the raw medians go to a line of their own.
func measure(g grid, seed uint64, budget time.Duration) result {
	sp := newSpeedProbe()
	start := time.Now()
	var passes []pass
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		passes = append(passes, runPass(g, seed, sp))
		last = time.Since(t0)
	}
	attempted, failed, errs := verdict(passes)
	var refsPerS, wall, setup, bytesPerRef, allocsPerKref []float64
	var rawRefsPerS, rawWall, rawSetup, speed []float64
	for _, p := range warm(passes) {
		refs := float64(p.refs())
		refsPerS = append(refsPerS, refs/(p.scaledNs(phRun)/1e9))
		wall = append(wall, p.scaledNs(phSetup, phRun, phCollect)/1e9)
		setup = append(setup, p.scaledNs(phSetup)/1e9)
		rawRefsPerS = append(rawRefsPerS, refs/(float64(p.phaseNs(phRun))/1e9))
		rawWall = append(rawWall, float64(p.wallNs())/1e9)
		rawSetup = append(rawSetup, float64(p.phaseNs(phSetup))/1e9)
		speed = append(speed, median(p.speed))
		bytesPerRef = append(bytesPerRef, float64(p.sum(func(c cellResult) uint64 { return c.allocBytes }))/refs)
		allocsPerKref = append(allocsPerKref, 1000*float64(p.sum(func(c cellResult) uint64 { return c.allocs }))/refs)
	}
	m := map[string]metric{
		"refs_per_s":          {median(refsPerS), "refs/s"},
		"wall_s":              {median(wall), "s"},
		"setup_s":             {median(setup), "s"},
		"alloc_bytes_per_ref": {median(bytesPerRef), "B/ref"},
		"allocs_per_kref":     {median(allocsPerKref), "allocs/kref"},
		"peak_rss_mb":         {peakRSSMiB(), "MiB"},
		"cells_ok_ratio":      {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	fmt.Printf("raw: refs_per_s=%.0f wall_s=%.4f setup_s=%.5f host_speed=%.3f passes=%d\n",
		median(rawRefsPerS), median(rawWall), median(rawSetup), median(speed), len(passes))
	return result{
		report: report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		digest: passes[0].digest(),
		errs:   errs,
	}
}
