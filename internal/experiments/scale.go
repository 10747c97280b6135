package experiments

import (
	"context"
	"fmt"

	"nopower/internal/core"
	"nopower/internal/report"
	"nopower/internal/tracegen"
)

// scalePreset is one fleet size of the scale experiment. The experiment is
// registered twice: E17 `scale` (the sharded tick engine at 10k servers)
// and E18 `scale100k` (the columnar cluster store at 100k).
type scalePreset struct {
	// name and what title the table.
	name, what string
	// full is the fleet for paper-length runs; short the shrunk fleet for
	// short runs (tests, smokes) — still many enclosures per shard, so the
	// sharded paths are genuinely exercised, without the minutes-long wall
	// clock of the full fleet.
	full, short int
	// bench names the wall-clock companion benchmark.
	bench string
}

var (
	scale10k  = scalePreset{"Scale", "sharded tick engine vs serial", 10000, 900, "BenchmarkScale10k"}
	scale100k = scalePreset{"Scale100k", "columnar store, sharded vs serial", 100000, 2000, "BenchmarkScale100k"}
)

// fleet picks the fleet size: the full fleet for paper-length runs, the
// shrunk one below 2000 ticks.
func (p scalePreset) fleet(opts Options) int {
	if opts.Ticks < 2000 {
		return p.short
	}
	return p.full
}

// scaleScenario builds the scale scenario: the Mix180 utilization blend
// scaled to the fleet, the paper's base budgets, and the coordinated stack
// without the VMC (bin-packing 10k VMs every VMC epoch is a different
// scaling problem — the tick engine is what the experiment measures).
func scaleScenario(fleet int, opts Options) (Scenario, core.Spec) {
	sc := Scenario{
		Model:   "BladeA",
		Mix:     tracegen.ScaleMix(fleet),
		Budgets: Base201510(),
		Ticks:   opts.Ticks,
		Seed:    opts.Seed,
	}
	return sc, core.NoVMC()
}

// ScaleData runs the scale scenario on a fleet of the given size through
// CheckIdentity: serial, every identityShards() count, and kill-and-resume.
func ScaleData(ctx context.Context, opts Options, fleet int) (Identity, error) {
	opts = opts.normalized()
	sc, spec := scaleScenario(fleet, opts)

	// One baseline serves every leg: sharding cannot change it, so compute
	// it at the harness's widest shard count.
	bsc := sc
	ladder := identityShards()
	bsc.Shards = ladder[len(ladder)-1]
	baseline, err := BaselinePower(ctx, bsc)
	if err != nil {
		return Identity{}, fmt.Errorf("scale baseline: %w", err)
	}
	return CheckIdentity(ctx, sc, spec, baseline, Observers{})
}

// scaleRunner renders one preset of the scale experiment (E17/E18). The
// table's claim is correctness, not speed — every sharded run, and the serial
// run killed halfway and resumed, must reproduce the serial run bitwise (the
// wall-clock trajectory lives in the preset's benchmark, where it can be
// measured without contending with the experiment worker pool). A
// non-identical leg fails the experiment: a fast wrong answer is not an
// optimization.
func scaleRunner(p scalePreset) Runner {
	return func(ctx context.Context, opts Options) ([]*report.Table, error) {
		opts = opts.normalized()
		id, err := ScaleData(ctx, opts, p.fleet(opts))
		if err != nil {
			return nil, err
		}
		t := &report.Table{
			Title: fmt.Sprintf("%s — %d-server fleet, %s", p.name, p.fleet(opts), p.what),
			Note: "Same scenario at every shard count; 'bit-identical' compares every final " +
				"metric against the shards=1 run with math.Float64bits. 'replay' kills the " +
				"shards=1 run halfway and resumes it from its checkpoint. Wall-clock speedup " +
				"is benchmarked separately (" + p.bench + ").",
			Header: []string{"Shards", "Avg power (W)", "Savings", "Perf-loss",
				"Viol SM/EM/GM (%)", "Bit-identical", "Replay"},
		}
		for i, l := range append([]IdentityLeg{id.Serial}, id.Sharded...) {
			replay := "-"
			if i == 0 {
				replay = yesNo(id.Replay.Identical)
			}
			t.AddRow(fmt.Sprintf("%d", l.Shards),
				fmt.Sprintf("%.0f", l.Result.AvgPower),
				report.Pct(l.Result.PowerSavings),
				report.Pct(l.Result.PerfLoss),
				fmt.Sprintf("%s/%s/%s", report.Pct(l.Result.ViolSM),
					report.Pct(l.Result.ViolEM), report.Pct(l.Result.ViolGM)),
				yesNo(l.Identical), replay)
			if !l.Identical {
				err = fmt.Errorf("experiments: %s run diverged at shards=%d", p.name, l.Shards)
			}
		}
		if !id.Replay.Identical {
			err = fmt.Errorf("experiments: %s resumed run diverged", p.name)
		}
		if err != nil {
			return nil, err
		}
		return []*report.Table{t}, nil
	}
}
