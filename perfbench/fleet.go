package main

import (
	"runtime"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/tracegen"
)

// The fleet100k workload is the E18 scenario at full size: 100k BladeA
// servers on the scale mix, base 20-15-10 budgets, the coordinated stack
// without the VMC, sharded across every CPU. A job is one simulated tick.
const (
	fleetServers = 100000
	fleetTicks   = 600
)

func fleetScenario(seed int64) (experiments.Scenario, core.Spec) {
	sc := experiments.Scenario{
		Model:   "BladeA",
		Mix:     tracegen.ScaleMix(fleetServers),
		Budgets: experiments.Base201510(),
		Ticks:   fleetTicks,
		Seed:    seed,
	}
	return sc, core.NoVMC()
}

func fleetLoad() map[string]any {
	return map[string]any{"servers": fleetServers, "ticks": fleetTicks,
		"stack": "novmc", "shards": runtime.NumCPU()}
}

// runFleet builds the fleet and runs it once. Untraced, it times the build
// as set-up and every tick as a job; traced, it probes every layer.
func runFleet(u *unit, seed int64, traced bool) error {
	sc, spec := fleetScenario(seed)
	shards := runtime.NumCPU()
	if traced {
		u.Layers = map[string]float64{}
		var meter goMeter
		d, err := probeLayers(sc, spec, shards, &meter, u.Layers)
		if err != nil {
			return err
		}
		meter.report(u.Layers)
		u.Ops = 3 // sharded run, serial rerun, baseline
		u.Digests["fleet100k"] = d
		return nil
	}
	cl, err := sc.BuildCluster()
	if err != nil {
		return err
	}
	eng, err := buildStack(cl, sc, spec, shards)
	if err != nil {
		return err
	}
	u.ready()
	stamps := make([]int64, 0, sc.Ticks+1)
	eng.OnTick = func(int, *cluster.Cluster) { stamps = append(stamps, now()) }
	stamps = append(stamps, now())
	d, runS, err := finish(eng, sc.Ticks)
	if err != nil {
		return err
	}
	for i := 1; i < len(stamps); i++ {
		u.JobMs = append(u.JobMs, float64(stamps[i]-stamps[i-1])/1e6)
	}
	u.RunS = runS
	u.Jobs = len(u.JobMs)
	u.Ops = 1
	u.Digests["fleet100k"] = d
	return nil
}
