package experiments

import (
	"context"
	"fmt"

	"nopower/internal/chaos"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// ChaosCase is one fault-injection scenario of the chaos soak: a schedule of
// perturbations (scaled to the run length) and optionally a controller to
// crash mid-run. The zero schedule ("fault-free") anchors the comparison.
type ChaosCase struct {
	// Name identifies the scenario in tables and on the CLI.
	Name string
	// Desc is the one-line description.
	Desc string
	// Events builds the fault schedule for a run of the given length; nil
	// means no plant/sensor faults.
	Events func(ticks int, seed int64) []sim.Event
	// Crash names a controller to crash (panic) mid-run; "" crashes nothing.
	Crash string
	// Facility adds the facility co-simulation (FM above the GM) to the
	// stack under test — the fm-crash scenario needs an FM to crash.
	Facility bool
}

// crashTick places the injected controller crash: one third into the run, so
// the stack has converged before the fault and has time to show its degraded
// steady state after.
func crashTick(ticks int) int { return ticks / 3 }

// ChaosCases returns the soak scenarios: each fault family the §3.2 dynamism
// claim covers, plus the fault-free anchor.
func ChaosCases() []ChaosCase {
	return []ChaosCase{
		{Name: "fault-free", Desc: "no faults (the comparison anchor)"},
		{
			Name: "server-flap", Desc: "one server hard-fails and is restored, repeatedly",
			Events: func(ticks int, seed int64) []sim.Event {
				return chaos.FlapServer(0, ticks/5, ticks/10, 3)
			},
		},
		{
			Name: "sensor-dropout", Desc: "all utilization/power readings flatline for a window",
			Events: func(ticks int, seed int64) []sim.Event {
				return chaos.DropSensors(ticks/4, ticks/4+ticks/10)
			},
		},
		{
			Name: "sensor-noise", Desc: "±25 % multiplicative noise on every reading for half the run",
			Events: func(ticks int, seed int64) []sim.Event {
				return chaos.NoiseSensors(ticks/4, 3*ticks/4, 0.25, seed)
			},
		},
		{
			Name: "budget-flap", Desc: "group budget re-provisioned down 15 % and back, repeatedly",
			Events: func(ticks int, seed int64) []sim.Event {
				return chaos.FlapGroupBudget(ticks/5, ticks/10, 3, 0.85, 1.0)
			},
		},
		{Name: "sm-crash", Desc: "the server manager panics mid-run (degraded mode takes over)", Crash: "SM"},
		{Name: "gm-crash", Desc: "the group manager panics mid-run (degraded mode takes over)", Crash: "GM"},
		{Name: "fm-crash", Desc: "the facility manager panics mid-run (budget pins to the static feed)",
			Crash: "FM", Facility: true},
	}
}

// ChaosCaseByName resolves a scenario for the CLI.
func ChaosCaseByName(name string) (ChaosCase, error) {
	for _, c := range ChaosCases() {
		if c.Name == name {
			return c, nil
		}
	}
	return ChaosCase{}, fmt.Errorf("experiments: unknown chaos case %q (have %v)", name, ChaosCaseNames())
}

// ChaosCaseNames lists the scenario names in table order.
func ChaosCaseNames() []string {
	cases := ChaosCases()
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.Name
	}
	return names
}

// ChaosRow is one (scenario, stack) outcome.
type ChaosRow struct {
	Scenario string
	Stack    string
	Result   metrics.Result
	// Disabled counts controllers knocked out by the degrade fault policy.
	Disabled int
}

// newChaosEngine builds the engine for one (scenario, spec, chaos case)
// triple: the fault schedule compiled into an EventInjector ahead of the
// stack, the crash target wrapped with the chaos crasher. sc must already be
// normalized. Every run builds its engine here (the zero ChaosCase adds
// nothing), so a resumed run is structurally identical to the one it
// continues.
func newChaosEngine(sc Scenario, spec core.Spec, cse ChaosCase) (*sim.Engine, *core.Handles, error) {
	cl, err := sc.BuildCluster()
	if err != nil {
		return nil, nil, err
	}
	if spec.Seed == 0 {
		spec.Seed = sc.Seed
	}
	if spec.Shards == 0 {
		spec.Shards = sc.Shards
	}
	if spec.Shards == 0 {
		spec.Shards = DefaultShards()
	}
	if cse.Facility {
		spec.EnableFacility = true
	}
	eng, h, err := core.Build(cl, spec)
	if err != nil {
		return nil, nil, err
	}
	if cse.Events != nil {
		inj := sim.NewEventInjector(cse.Events(sc.Ticks, sc.Seed)...)
		eng.Controllers = append([]sim.Controller{inj}, eng.Controllers...)
	}
	if cse.Crash != "" {
		// A stack without the target (e.g. vmconly) simply has nothing to
		// crash; the run then doubles as its own fault-free anchor.
		chaos.CrashByName(eng, cse.Crash, crashTick(sc.Ticks))
	}
	return eng, h, nil
}

// RunChaos executes one scenario against one stack: the fault schedule is
// compiled into an EventInjector registered ahead of the stack (so the
// controllers of a tick see the perturbed state, like any workload change),
// the crash target — if any — is wrapped with the chaos crasher, and the
// engine runs under o.FaultPolicy.
func RunChaos(ctx context.Context, sc Scenario, spec core.Spec, cse ChaosCase, o Observers) (ChaosRow, error) {
	res, eng, err := runCase(ctx, sc.normalized(), spec, cse, 0, o)
	if err != nil {
		return ChaosRow{}, fmt.Errorf("chaos %s: %w", cse.Name, err)
	}
	return ChaosRow{Scenario: cse.Name, Result: res, Disabled: len(eng.Disabled())}, nil
}

// chaosScenario is the soak's base setup: the paper's blade hardware with
// the high-utilization 60HH mix, where budget headroom is scarce enough that
// a mishandled fault shows up as group-budget violations.
func chaosScenario(opts Options) Scenario {
	return Scenario{Model: "BladeA", Mix: tracegen.Mix60HH, Budgets: Base201510(),
		Ticks: opts.Ticks, Seed: opts.Seed}
}

// ChaosData runs every scenario against the coordinated and uncoordinated
// stacks under the degrade fault policy and returns the rows in (case,
// stack) order.
func ChaosData(ctx context.Context, opts Options) ([]ChaosRow, error) {
	opts = opts.normalized()
	type job struct {
		cse   ChaosCase
		stack string
		spec  core.Spec
	}
	var jobs []job
	for _, cse := range ChaosCases() {
		for _, stack := range []struct {
			name string
			spec core.Spec
		}{
			{"Coordinated", core.Coordinated()},
			{"Uncoordinated", core.Uncoordinated()},
		} {
			jobs = append(jobs, job{cse: cse, stack: stack.name, spec: stack.spec})
		}
	}
	sc := chaosScenario(opts)
	return runner.Map(ctx, opts.Parallelism, jobs, func(ctx context.Context, j job) (ChaosRow, error) {
		row, err := RunChaos(ctx, sc, j.spec, j.cse, Observers{FaultPolicy: sim.FaultDegrade})
		if err != nil {
			return ChaosRow{}, fmt.Errorf("%s/%s: %w", j.cse.Name, j.stack, err)
		}
		row.Stack = j.stack
		return row, nil
	})
}

// Chaos renders the fault-injection soak: budget violations per level,
// performance loss, and disabled-controller counts for every (scenario,
// stack) pair. The claim under test is §3.2's: the coordinated hierarchy
// accommodates dynamism — including failures — with bounded violations,
// while the uncoordinated stack degrades.
func Chaos(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := ChaosData(ctx, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Chaos soak — fault injection under the degrade policy (coordinated vs uncoordinated)",
		Note: "BladeA/60HH; faults: " + func() string {
			s := ""
			for i, c := range ChaosCases() {
				if i > 0 {
					s += "; "
				}
				s += c.Name + " = " + c.Desc
			}
			return s
		}(),
		Header: []string{"Scenario", "Stack", "Violates(GM)", "Violates(EM)", "Violates(SM)",
			"Perf-loss", "Disabled"},
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Stack,
			report.Pct(r.Result.ViolGM), report.Pct(r.Result.ViolEM), report.Pct(r.Result.ViolSM),
			report.Pct(r.Result.PerfLoss), fmt.Sprintf("%d", r.Disabled))
	}
	return []*report.Table{t}, nil
}
