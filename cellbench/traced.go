package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cpu"
)

// calibration converts tracer ticks to ns and gives what timing one
// call costs beyond the same call unwrapped, split by where the tracer
// charges it: child ns land in the callee's self time, parent ns in the
// caller's.
type calibration struct {
	NsPerTick float64 `json:"ns_per_tick"`
	ChildNs   float64 `json:"child_ns"`
	ParentNs  float64 `json:"parent_ns"`
}

// chaseStream's Next makes one dependent load from a table far larger
// than the host caches: calls made between cache misses, as the
// simulator's are. A timer read costs more there than between calls
// that hit in cache, because it cannot hide behind the work around it.
type chaseStream struct {
	table []uint32
	i     uint32
}

func (s *chaseStream) Next() (cpu.Access, bool) {
	s.i = s.table[s.i]
	return cpu.Access{}, true
}

// calibrate times memory-bound calls through a real wrapper
// (timedStream) and unwrapped, and keeps the median of many rounds.
// The counter is read without a fence, so where a miss's latency lands
// relative to the reads is up to the pipeline; only the total cost per
// call is measured, and it is split evenly, one clock read to each side
// of the boundary.
func calibrate() calibration {
	nsPerTick := 1.0
	if useTSC {
		t0, c0 := time.Now(), rdtsc()
		for time.Since(t0) < 50*time.Millisecond {
		}
		nsPerTick = float64(time.Since(t0)) / float64(rdtsc()-c0)
	}
	// Many short rounds, each timing the plain and the wrapped loop back
	// to back, keep the host's drift out of their difference.
	const n, rounds = 1 << 18, 25
	// A random single-cycle permutation over 32 MiB (Sattolo's
	// shuffle) makes every load a miss.
	chase := &chaseStream{table: make([]uint32, 1<<23)}
	for i := range chase.table {
		chase.table[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(chase.table) - 1; i > 0; i-- {
		j := rng.Intn(i)
		chase.table[i], chase.table[j] = chase.table[j], chase.table[i]
	}
	// Interface-typed so every call below stays dynamic, as the
	// program's calls through its seams are.
	loop := func(s cpu.Stream) {
		for i := 0; i < n; i++ {
			s.Next()
		}
	}
	var cost []float64
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		loop(chase)
		plain := float64(time.Since(t0))
		t := newTracer()
		t.begin(lSim)
		loop(timedStream{t, chase})
		t.end()
		cost = append(cost, (float64(t.self[lWorkload]+t.self[lSim])*nsPerTick-plain)/n)
	}
	c := median(cost)
	return calibration{NsPerTick: nsPerTick, ChildNs: c / 2, ParentNs: c / 2}
}

// selfNs is each layer's self time in ns with the timers' own cost
// removed.
func (cal calibration) selfNs(c counters) [nLayers]float64 {
	var s [nLayers]float64
	for l := range s {
		s[l] = float64(c.self[l])*cal.NsPerTick - float64(c.calls[l])*cal.ChildNs - float64(c.nested[l])*cal.ParentNs
	}
	return s
}

func sumNs(s [nLayers]float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// runPairedPass runs every cell untraced and then traced, back to back,
// so the host's drift, which moves over seconds to minutes, hits both
// runs of a cell alike.
func runPairedPass(g grid, seed uint64) (plain, traced pass) {
	runtime.GC()
	t := newTracer()
	plain = pass{cells: make([]cellResult, len(g.cells))}
	traced = pass{traced: true, cells: make([]cellResult, len(g.cells))}
	for i, c := range g.cells {
		plain.cells[i] = runCell(c, seed, nil)
		traced.cells[i] = runCell(c, seed, t)
	}
	return plain, traced
}

// measureTraced runs paired passes until the budget is spent (at least
// one) and reports the per-layer metrics from the pairs after the
// first. The spans of every traced pass are written to spansPath.
func measureTraced(g grid, seed uint64, budget time.Duration, spansPath string) (result, error) {
	cal := calibrate()
	start := time.Now()
	var plain, traced, all []pass
	var last time.Duration
	for len(all) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		u, tp := runPairedPass(g, seed)
		plain, traced, all = append(plain, u), append(traced, tp), append(all, u, tp)
		last = time.Since(t0)
	}
	attempted, failed, errs := verdict(all)

	// Layer aggregates over every traced pass: all phases for time
	// shares, the run phase alone for per-reference and per-call costs.
	var tot, runOnly counters
	var tracedWall, tracedSelf, plainWall, cellMs, collectMs []float64
	for _, p := range warm(traced) {
		var pc counters
		for _, c := range p.cells {
			for ph := range c.spans {
				pc.add(c.spans[ph])
			}
			runOnly.add(c.spans[phRun])
		}
		tot.add(pc)
		tracedWall = append(tracedWall, float64(p.wallNs()))
		tracedSelf = append(tracedSelf, sumNs(cal.selfNs(pc)))
	}
	for _, p := range warm(plain) {
		plainWall = append(plainWall, float64(p.wallNs()))
		collectMs = append(collectMs, float64(p.phaseNs(phCollect))/1e6)
		for _, c := range p.cells {
			cellMs = append(cellMs, float64(c.ns[phSetup]+c.ns[phRun]+c.ns[phCollect])/1e6)
		}
	}
	self := cal.selfNs(tot)
	runSelf := cal.selfNs(runOnly)
	attributed := sumNs(self)
	np := float64(len(warm(traced)))
	refs := float64(traced[0].refs()) * np
	// The model's counters repeat exactly in every pass; take the first.
	var m0 cellResult
	for _, c := range plain[0].cells {
		m0.cpu.Loads += c.cpu.Loads
		m0.cpu.Stores += c.cpu.Stores
		m0.cpu.L1DMisses += c.cpu.L1DMisses
		m0.cpu.L1IMisses += c.cpu.L1IMisses
		m0.cpu.L2Misses += c.cpu.L2Misses
		m0.cpu.InvalidationsReceived += c.cpu.InvalidationsReceived
		m0.engine.Add(&c.engine)
		m0.dram.RowHits += c.dram.RowHits
		m0.dram.RowMiss += c.dram.RowMiss
		m0.socket.SocketForwards += c.socket.SocketForwards
		m0.socket.DirCacheMisses += c.socket.DirCacheMisses
		m0.refs += c.refs
	}
	r1 := float64(m0.refs)
	perK := func(n uint64) float64 { return 1000 * float64(n) / r1 }
	share := func(l layer) float64 { return ratio(self[l], attributed) }
	coreCalls := float64(tot.ops[opRead] + tot.ops[opWrite] + tot.ops[opUpgrade] + tot.ops[opEvict])
	tailPct := tailPercentile(len(cellMs))
	e := m0.engine

	m := map[string]metric{
		"workload.calls":           {float64(tot.calls[lWorkload]) / np, "count"},
		"workload.self_ns_per_ref": {runSelf[lWorkload] / refs, "ns/ref"},
		"workload.share":           {share(lWorkload), "ratio"},
		"workload.stream_reuse":    {g.streamReuse(), "cells/set"},
		"workload.cells":           {float64(len(g.cells)), "count"},
		"workload.max_cores":       {float64(g.maxCores()), "count"},

		"sim.steps":            {float64(runOnly.calls[lCPU]) / np, "count"},
		"sim.self_ns_per_step": {runSelf[lSim] / float64(runOnly.calls[lCPU]), "ns/step"},
		"sim.share":            {share(lSim), "ratio"},

		"cpu.self_ns_per_ref":          {runSelf[lCPU] / refs, "ns/ref"},
		"cpu.share":                    {share(lCPU), "ratio"},
		"cpu.l1_hit_ratio":             {1 - float64(m0.cpu.L1DMisses+m0.cpu.L1IMisses)/r1, "ratio"},
		"cpu.l2_misses_per_kref":       {perK(m0.cpu.L2Misses), "1/kref"},
		"cpu.write_share":              {float64(m0.cpu.Stores) / r1, "ratio"},
		"cpu.invals_received_per_kref": {perK(m0.cpu.InvalidationsReceived), "1/kref"},

		"core.calls":                  {coreCalls / np, "count"},
		"core.read_calls":             {float64(tot.ops[opRead]) / np, "count"},
		"core.write_calls":            {float64(tot.ops[opWrite]) / np, "count"},
		"core.upgrade_calls":          {float64(tot.ops[opUpgrade]) / np, "count"},
		"core.evict_calls":            {float64(tot.ops[opEvict]) / np, "count"},
		"core.self_ns_per_call":       {ratio(runSelf[lCore], float64(runOnly.calls[lCore])), "ns/call"},
		"core.share":                  {share(lCore), "ratio"},
		"core.llc_hit_ratio":          {ratio(float64(e.LLCDataHits), float64(e.LLCDataHits+e.LLCMisses)), "ratio"},
		"core.de_spills_per_kref":     {perK(e.DESpills), "1/kref"},
		"core.de_fuses_per_kref":      {perK(e.DEFuses), "1/kref"},
		"core.wbde_per_kref":          {perK(e.DEEvictionsToMemory), "1/kref"},
		"core.devs_per_kref":          {perK(e.DEVs), "1/kref"},
		"core.demand_invals_per_kref": {perK(e.DemandInvals), "1/kref"},
		"core.forwards_per_kref":      {perK(e.Forwards3Hop), "1/kref"},
		"core.nack_retries_per_kref":  {perK(e.DirRetries), "1/kref"},

		"directory.calls":            {float64(tot.calls[lDirectory]) / np, "count"},
		"directory.self_ns_per_call": {ratio(runSelf[lDirectory], float64(runOnly.calls[lDirectory])), "ns/call"},
		"directory.share":            {share(lDirectory), "ratio"},
		"directory.housed_ratio":     {ratio(float64(tot.housed), float64(tot.stores)), "ratio"},
		"directory.victims_per_kref": {1000 * float64(tot.victims) / refs, "1/kref"},

		"home.calls":                     {float64(tot.calls[lHome]) / np, "count"},
		"home.self_ns_per_call":          {ratio(runSelf[lHome], float64(runOnly.calls[lHome])), "ns/call"},
		"home.share":                     {share(lHome), "ratio"},
		"home.dram_row_hit_ratio":        {ratio(float64(m0.dram.RowHits), float64(m0.dram.RowHits+m0.dram.RowMiss)), "ratio"},
		"home.socket_forwards_per_kref":  {perK(m0.socket.SocketForwards), "1/kref"},
		"home.dir_cache_misses_per_kref": {perK(m0.socket.DirCacheMisses), "1/kref"},

		"stats.collect_ms": {median(collectMs), "ms"},
		"stats.share":      {share(lStats), "ratio"},

		"cell.ms_p50":              {median(cellMs), "ms"},
		"cell.ms_tail":             {quantile(cellMs, tailPct/100), "ms"},
		"cell.ms_tail_pct":         {tailPct, "%"},
		"cell.samples":             {float64(len(cellMs)), "count"},
		"cells_failed_ratio":       {float64(failed) / float64(attempted), "ratio"},
		"trace.overhead_ratio":     {median(tracedWall) / median(plainWall), "ratio"},
		"trace.unattributed_share": {1 - median(tracedSelf)/median(plainWall), "ratio"},
		"trace.timer_ns":           {cal.ChildNs + cal.ParentNs, "ns/call"},
	}

	if err := writeSpans(spansPath, g, seed, cal, traced); err != nil {
		return result{}, err
	}
	return result{
		report: report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		digest: plain[0].digest(),
		errs:   errs,
	}, nil
}

// tailPercentile is the highest whole percentile with at least ten of
// n samples beyond it (the median when n is too small for any tail).
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Floor(100 * (1 - 10/float64(n)))
}

type spanLayer struct {
	Calls  uint64 `json:"calls"`
	SelfNs int64  `json:"self_ns"`
}

type span struct {
	Cell   string               `json:"cell"`
	Phase  string               `json:"phase"`
	Ns     int64                `json:"ns"`
	Layers map[string]spanLayer `json:"layers"`
}

// writeSpans writes every traced pass's per-cell phase spans, with raw
// (uncalibrated) self times and the calibration to apply to them.
func writeSpans(path string, g grid, seed uint64, cal calibration, traced []pass) error {
	type passOut struct {
		Spans []span `json:"spans"`
	}
	out := struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Calibration calibration `json:"calibration"`
		Passes      []passOut   `json:"passes"`
	}{Workload: g.name, Seed: seed, Calibration: cal}
	for _, p := range traced {
		var po passOut
		for _, c := range p.cells {
			for ph, sp := range c.spans {
				s := span{Cell: c.name, Phase: phaseNames[ph], Ns: c.ns[ph], Layers: map[string]spanLayer{}}
				for l := layer(0); l < nLayers; l++ {
					if sp.calls[l] > 0 || sp.self[l] > 0 {
						s.Layers[layerNames[l]] = spanLayer{Calls: sp.calls[l], SelfNs: int64(float64(sp.self[l]) * cal.NsPerTick)}
					}
				}
				po.Spans = append(po.Spans, s)
			}
		}
		out.Passes = append(out.Passes, po)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
