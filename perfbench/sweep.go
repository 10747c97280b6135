package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/runner"
	"nopower/internal/tracegen"
)

// sweepExperiments is the sweep workload's RunExperiment batch, each at the
// default 3000 ticks. A job is one experiment.
var sweepExperiments = []string{"fig7", "fig8", "fig9", "fig10", "pstates", "machineoff",
	"migration", "timeconst", "policies", "facility", "hetero"}

func sweepLoad() map[string]any {
	return map[string]any{"experiments": sweepExperiments, "ticks": experiments.DefaultTicks,
		"parallelism": runtime.NumCPU()}
}

// sweepSetup is the sweep's whole set-up: the process has started.
func sweepSetup(u *unit) error {
	u.ready()
	return nil
}

// runSweep runs the batch in one process, as one npexp invocation would.
// Set-up is only process start: every simulation's own build is part of the
// sweep. Traced, it adds runner busy time and a layer probe of one
// 180-server coordinated run, serial as the sweep's runs are.
func runSweep(u *unit, seed int64, traced bool) error {
	u.ready()
	ctx := context.Background()
	workers := runtime.NumCPU()
	var meter goMeter
	meter.start()
	busy0 := runner.Stats().BusySeconds
	layers := map[string]float64{}
	start := time.Now()
	for _, name := range sweepExperiments {
		t := time.Now()
		tables, err := experiments.RunExperiment(ctx, name,
			experiments.WithSeed(seed), experiments.WithParallelism(workers))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		secs := time.Since(t).Seconds()
		u.JobMs = append(u.JobMs, secs*1000)
		layers["experiments."+name+"_s"] = secs
		var rendered []string
		for _, tb := range tables {
			rendered = append(rendered, tb.String())
		}
		if u.Digests[name], err = digest(rendered); err != nil {
			return err
		}
	}
	u.RunS = time.Since(start).Seconds()
	meter.stop()
	u.Jobs = len(sweepExperiments)
	u.Ops = len(sweepExperiments)
	if !traced {
		return nil
	}
	layers["runner.busy_frac"] = (runner.Stats().BusySeconds - busy0) / (float64(workers) * u.RunS)
	meter.report(layers)
	sc := experiments.Scenario{Model: "BladeA", Mix: tracegen.Mix180,
		Budgets: experiments.Base201510(), Ticks: experiments.DefaultTicks, Seed: seed}
	if _, err := probeLayers(sc, core.Coordinated(), 1, nil, layers); err != nil {
		return err
	}
	u.Layers = layers
	return nil
}
