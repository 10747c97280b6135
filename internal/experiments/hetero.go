package experiments

import (
	"context"
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// E22 — heterogeneous fleets. The paper's comparison runs on one calibration
// at a time; §5.1 observes that "the range of power control is likely more
// important than the granularity of control", which only becomes testable on
// fleets that MIX hardware with different control ranges. This experiment
// sweeps the coordinated-vs-uncoordinated comparison across three profile
// mixes drawn from the host-profile library, decomposing the savings per
// profile, and holds every run to the determinism contract: sharded
// execution and kill-and-resume replay must reproduce the serial run
// bitwise (the E17/E21 standard).

// HeteroFleet names one heterogeneous fleet mix: a model.Distribution spec.
type HeteroFleet struct {
	Name     string
	Profiles string
}

// HeteroFleets returns the three E22 fleet mixes. Low-power-heavy stacks
// wide-control-range machines (the §5.1 "range matters" end);
// high-idle-heavy stacks machines where DVFS buys almost nothing and
// consolidation must do the work; balanced blends both with the mid-fleet.
func HeteroFleets() []HeteroFleet {
	return []HeteroFleet{
		{"low-power-heavy", "arm-microblade:3,dense-2s-56:2,cloud-1s-64:1"},
		{"high-idle-heavy", "legacy-high-idle:3,serverb:2,rack-2u-32:1"},
		{"balanced", "bladea:2,rack-2u-32:2,epyc-2s-128:1,turbo-1u-48:1"},
	}
}

// heteroScenario builds the E22 setup for one fleet: the heterogeneous
// workload mix (half low, a medium tier, a stacked-high tail) over the
// fleet's profile distribution, at the paper's base budgets.
func heteroScenario(f HeteroFleet, opts Options) Scenario {
	return Scenario{Profiles: f.Profiles, Mix: tracegen.MixHetero, Budgets: Base201510(),
		Ticks: opts.Ticks, Seed: opts.Seed}
}

// profileAcc accumulates per-profile power draw from the OnTick hook. It
// lazily learns the fleet layout on the first tick (the hook is handed the
// engine's own cluster), then sums each profile's group draw per tick.
type profileAcc struct {
	names    []string  // first-seen order over server IDs (deterministic)
	byServer []int     // server -> index into names
	counts   []int     // servers per profile
	watts    []float64 // summed draw (W·ticks) per profile
	ticks    int
}

func (a *profileAcc) hook(_ int, cl *cluster.Cluster) {
	if a.byServer == nil {
		idx := map[string]int{}
		a.byServer = make([]int, cl.NumServers())
		for i := 0; i < cl.NumServers(); i++ {
			name := cl.ServerModel(i).Name
			j, ok := idx[name]
			if !ok {
				j = len(a.names)
				idx[name] = j
				a.names = append(a.names, name)
				a.counts = append(a.counts, 0)
			}
			a.byServer[i] = j
			a.counts[j]++
		}
		a.watts = make([]float64, len(a.names))
	}
	for i, j := range a.byServer {
		a.watts[j] += cl.Power(i)
	}
	a.ticks++
}

// avgW returns profile j's average group draw in Watts over the run.
func (a *profileAcc) avgW(j int) float64 {
	if a.ticks == 0 {
		return 0
	}
	return a.watts[j] / float64(a.ticks)
}

// HeteroProfileRow is one profile's slice of a stack's outcome: its average
// draw under management vs the no-management baseline.
type HeteroProfileRow struct {
	Profile   string
	Servers   int
	BaselineW float64
	AvgW      float64
	// Savings is 1 - AvgW/BaselineW: the profile's share of the fleet's
	// power reduction.
	Savings float64
}

// HeteroRow is one (fleet, stack) outcome with the determinism verdicts.
type HeteroRow struct {
	Fleet      string
	Stack      string
	Result     metrics.Result
	PerProfile []HeteroProfileRow
	// Identical reports every sharded run reproduced the serial run bitwise.
	Identical bool
	// ReplayIdentical reports the serial run killed halfway and resumed from
	// its checkpoint reproduced the serial run bitwise (the E16 contract).
	ReplayIdentical bool
}

// fleetBase is one fleet's instrumented no-management baseline: the overall
// average power plus the per-profile decomposition.
type fleetBase struct {
	avgPower float64
	acc      *profileAcc
}

// heteroBaseline mirrors BaselinePower with the per-profile accumulator
// attached (serial: the decomposition sums per-server columns, and one
// uncontended run per fleet is cheap).
func heteroBaseline(ctx context.Context, sc Scenario) (fleetBase, error) {
	sc = sc.normalized()
	cl, err := sc.BuildCluster()
	if err != nil {
		return fleetBase{}, err
	}
	eng := sim.New(cl)
	eng.Prof = DefaultProfiler()
	acc := &profileAcc{}
	eng.OnTick = acc.hook
	col, err := eng.RunContext(ctx, sc.Ticks)
	if err != nil {
		return fleetBase{}, err
	}
	return fleetBase{avgPower: col.Finalize(0).AvgPower, acc: acc}, nil
}

// heteroStackRow runs one (fleet, stack) through CheckIdentity — the
// snapshot carries per-server model names, so a resumed heterogeneous fleet
// must land on the same hardware bit for bit — and folds the serial leg's
// per-profile accumulator into the row.
func heteroStackRow(ctx context.Context, sc Scenario, spec core.Spec, base fleetBase) (HeteroRow, error) {
	acc := &profileAcc{}
	id, err := CheckIdentity(ctx, sc, spec, base.avgPower, Observers{OnTick: acc.hook})
	if err != nil {
		return HeteroRow{}, fmt.Errorf("hetero: %w", err)
	}
	row := HeteroRow{Result: id.Serial.Result, Identical: id.ShardedIdentical(),
		ReplayIdentical: id.Replay.Identical}
	for j, name := range acc.names {
		pr := HeteroProfileRow{Profile: name, Servers: acc.counts[j], AvgW: acc.avgW(j)}
		for bj, bname := range base.acc.names {
			if bname == name {
				pr.BaselineW = base.acc.avgW(bj)
				break
			}
		}
		if pr.BaselineW > 0 {
			pr.Savings = 1 - pr.AvgW/pr.BaselineW
		}
		row.PerProfile = append(row.PerProfile, pr)
	}
	return row, nil
}

// HeteroData runs E22: both stacks across the three fleet mixes.
func HeteroData(ctx context.Context, opts Options) ([]HeteroRow, error) {
	opts = opts.normalized()
	type job struct {
		fleet HeteroFleet
		stack string
		spec  core.Spec
	}
	var jobs []job
	bases := map[string]fleetBase{}
	for _, f := range HeteroFleets() {
		base, err := heteroBaseline(ctx, heteroScenario(f, opts))
		if err != nil {
			return nil, fmt.Errorf("hetero baseline %s: %w", f.Name, err)
		}
		bases[f.Name] = base
		jobs = append(jobs,
			job{f, "Coordinated", core.Coordinated()},
			job{f, "Uncoordinated", core.Uncoordinated()})
	}
	return runner.Map(ctx, opts.Parallelism, jobs, func(ctx context.Context, j job) (HeteroRow, error) {
		row, err := heteroStackRow(ctx, heteroScenario(j.fleet, opts), j.spec, bases[j.fleet.Name])
		if err != nil {
			return HeteroRow{}, fmt.Errorf("%s/%s: %w", j.fleet.Name, j.stack, err)
		}
		row.Fleet = j.fleet.Name
		row.Stack = j.stack
		return row, nil
	})
}

// Hetero renders E22: the coordinated-vs-uncoordinated comparison across
// three heterogeneous fleet mixes, with a per-profile savings decomposition.
// A non-identical row (sharded or replay) fails the experiment.
func Hetero(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := HeteroData(ctx, opts)
	if err != nil {
		return nil, err
	}
	head := &report.Table{
		Title: "Heterogeneous fleets — coordinated vs uncoordinated across profile mixes (E22)",
		Note: "Each fleet draws its servers from the host-profile registry by weighted " +
			"deterministic interleave (Scenario.Profiles) under the 'hetero' workload mix. " +
			"'bit-identical' compares the sharded run against the serial one " +
			"(math.Float64bits over the per-tick series and summary); 'replay' kills the " +
			"run halfway and resumes from the checkpoint.",
		Header: []string{"Fleet", "Stack", "Savings", "Perf-loss", "Viol(GM)",
			"Avg power (kW)", "Bit-identical", "Replay"},
	}
	decomp := &report.Table{
		Title: "Per-profile savings decomposition",
		Note: "Average draw of each profile's servers under management vs the " +
			"no-management baseline. Wide-control-range profiles keep saving without the " +
			"VMC; high-idle profiles only save when consolidation empties machines — " +
			"the §5.1 range-vs-granularity observation, now across hardware in one fleet.",
		Header: []string{"Fleet", "Stack", "Profile", "Servers", "Baseline (kW)",
			"Managed (kW)", "Savings"},
	}
	for _, r := range rows {
		head.AddRow(r.Fleet, r.Stack,
			report.Pct(r.Result.PowerSavings), report.Pct(r.Result.PerfLoss),
			report.Pct(r.Result.ViolGM),
			fmt.Sprintf("%.1f", r.Result.AvgPower/1000),
			yesNo(r.Identical), yesNo(r.ReplayIdentical))
		for _, p := range r.PerProfile {
			decomp.AddRow(r.Fleet, r.Stack, p.Profile, fmt.Sprintf("%d", p.Servers),
				fmt.Sprintf("%.2f", p.BaselineW/1000), fmt.Sprintf("%.2f", p.AvgW/1000),
				report.Pct(p.Savings))
		}
		if !r.Identical || !r.ReplayIdentical {
			err = fmt.Errorf("experiments: hetero run diverged for %s/%s", r.Fleet, r.Stack)
		}
	}
	return []*report.Table{head, decomp}, err
}
