package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// digest hashes the JSON form of v. encoding/json writes every float64 in
// the shortest form that parses back to the same bits, so two values hash
// alike exactly when they are Float64bits-identical.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// buildStack builds the scenario's controller stack the way
// experiments.RunObserved does, at the given shard count.
func buildStack(cl *cluster.Cluster, sc experiments.Scenario, spec core.Spec, shards int) (*sim.Engine, error) {
	spec.Seed = sc.Seed
	spec.Shards = shards
	eng, _, err := core.Build(cl, spec)
	if err != nil {
		return nil, fmt.Errorf("core.Build: %w", err)
	}
	return eng, nil
}

// finish runs eng for the scenario's ticks and digests its summary. The
// summary is finalized without a baseline: the workloads time the managed
// run, and the savings figure is the only field that needs one.
func finish(eng *sim.Engine, ticks int) (string, float64, error) {
	start := time.Now()
	col, err := eng.Run(ticks)
	if err != nil {
		return "", 0, fmt.Errorf("sim.Engine.Run: %w", err)
	}
	secs := time.Since(start).Seconds()
	res := col.Finalize(0)
	if err := res.Valid(); err != nil {
		return "", 0, err
	}
	d, err := digest(res)
	return d, secs, err
}

// goCounters reads the allocation and GC totals of the process.
func goCounters() (allocBytes, gcCycles uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, uint64(ms.NumGC)
}

// goMeter accumulates allocation and GC cycles over the phases it is
// started and stopped around.
type goMeter struct {
	alloc, gc   uint64
	alloc0, gc0 uint64
}

func (m *goMeter) start() { m.alloc0, m.gc0 = goCounters() }

func (m *goMeter) stop() {
	a, g := goCounters()
	m.alloc += a - m.alloc0
	m.gc += g - m.gc0
}

func (m *goMeter) report(v map[string]float64) {
	v["go.alloc_mb"] = float64(m.alloc) / (1 << 20)
	v["go.gc_cycles"] = float64(m.gc)
}

// probeLayers times every layer of one simulation of sc under spec:
// tracegen.BuildMix, Scenario.BuildCluster, core.Build, an instrumented run
// at the workload's own shard count, a second instrumented run at the other
// setting (serial after a sharded run, nproc shards, at least 2, after a
// serial one), and sim.Baseline. The two runs must agree bit for bit; the
// digest returned is theirs. meter, when set, spans the builds and the
// first run.
func probeLayers(sc experiments.Scenario, spec core.Spec, shards int, meter *goMeter, v map[string]float64) (string, error) {
	if meter != nil {
		meter.start()
	}
	t := time.Now()
	set, err := tracegen.BuildMix(sc.Mix, sc.Ticks, sc.Seed)
	if err != nil {
		return "", fmt.Errorf("tracegen.BuildMix: %w", err)
	}
	traceMs := ms(time.Since(t))
	// Handed the traces, BuildCluster copies them instead of synthesizing
	// its own, so its time is the cluster build plus that copy.
	withTraces := sc
	withTraces.Traces = set
	t = time.Now()
	cl, err := withTraces.BuildCluster()
	if err != nil {
		return "", fmt.Errorf("Scenario.BuildCluster: %w", err)
	}
	clusterMs := ms(time.Since(t))
	t = time.Now()
	eng, err := buildStack(cl, sc, spec, shards)
	if err != nil {
		return "", err
	}
	coreMs := ms(time.Since(t))
	sp, d, runS, err := timedRun(eng, sc.Ticks, shards)
	if err != nil {
		return "", err
	}
	if meter != nil {
		meter.stop()
	}
	// The first run's plant is dead from here; collect it before the second
	// run builds another.
	runtime.GC()

	other := 1
	if shards <= 1 {
		other = max(2, runtime.NumCPU())
	}
	cl, err = sc.BuildCluster()
	if err != nil {
		return "", fmt.Errorf("Scenario.BuildCluster: %w", err)
	}
	if eng, err = buildStack(cl, sc, spec, other); err != nil {
		return "", err
	}
	otherSp, otherD, _, err := timedRun(eng, sc.Ticks, other)
	if err != nil {
		return "", err
	}
	if otherD != d {
		return "", fmt.Errorf("shards=%d result %s differs from the shards=%d result %s", shards, d, other, otherD)
	}
	runtime.GC()

	t = time.Now()
	if _, err := sim.Baseline(sc.BuildCluster, sc.Ticks); err != nil {
		return "", fmt.Errorf("sim.Baseline: %w", err)
	}
	v["sim.baseline_ms"] = ms(time.Since(t))

	v["tracegen.build_ms"] = traceMs
	v["cluster.build_ms"] = clusterMs
	v["core.build_ms"] = coreMs
	v["sim.traced_run_s"] = runS
	v["sim.tick_ns"] = sp.tickNs
	v["sim.engine_ns_per_tick"] = sp.engineNs
	v["cluster.plant_ns_per_tick"] = sp.plantNs
	for _, name := range controllerLayers {
		v[name+".ns_per_tick"] = sp.ctlNs[name]
	}
	serial, sharded := sp, otherSp
	if shards > 1 {
		serial, sharded = otherSp, sp
	}
	v["sim.serial_tick_ns"] = serial.tickNs
	v["sim.shard_speedup"] = serial.tickNs / sharded.tickNs
	return d, nil
}

// timedRun runs eng instrumented and returns its split, digest and wall
// time.
func timedRun(eng *sim.Engine, ticks, shards int) (split, string, float64, error) {
	lc := instrument(eng)
	lc.arm()
	d, secs, err := finish(eng, ticks)
	if err != nil {
		return split{}, "", 0, err
	}
	sp, err := lc.split(shards)
	return sp, d, secs, err
}

// controllerLayers are the controller laws reported per layer; a stack
// without one reports zero for it.
var controllerLayers = []string{"ec", "sm", "em", "gm", "vmc", "fm"}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
