package experiments

import (
	"context"
	"fmt"

	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/sim"
)

// ReplayRow is one kill-and-resume verdict: whether a run killed at KillTick
// and resumed from its checkpoint reproduced the uninterrupted run bitwise.
type ReplayRow struct {
	Scenario  string
	Stack     string
	KillTick  int
	Identical bool
	// SnapshotBytes is the encoded checkpoint size.
	SnapshotBytes int
	// Resumed is the resumed run's final summary (equals the uninterrupted
	// one whenever Identical holds).
	Resumed metrics.Result
}

// ReplayCheck runs the determinism contract end to end for one (scenario,
// spec, chaos case) triple:
//
//  1. the run killed at killAt ticks and resumed from its checkpoint
//     (killAndResume, the harness CheckIdentity shares);
//  2. the uninterrupted run, recording the per-tick series;
//  3. a bitwise comparison (math.Float64bits) of the two series and their
//     final summaries.
//
// Both runs use the degrade fault policy, so crashes in cse fail neither.
// cse may be the zero ChaosCase for a fault-free scenario.
func ReplayCheck(ctx context.Context, sc Scenario, spec core.Spec, cse ChaosCase, killAt int) (ReplayRow, error) {
	sc = sc.normalized()
	var resumed, full metrics.Series
	res, size, err := killAndResume(ctx, sc, spec, cse, 0,
		Observers{Series: &resumed, FaultPolicy: sim.FaultDegrade}, killAt)
	if err != nil {
		return ReplayRow{}, fmt.Errorf("replay: %w", err)
	}
	fullRes, _, err := runCase(ctx, sc, spec, cse, 0, Observers{Series: &full, FaultPolicy: sim.FaultDegrade})
	if err != nil {
		return ReplayRow{}, fmt.Errorf("replay reference: %w", err)
	}

	return ReplayRow{
		Scenario:      cse.Name,
		KillTick:      killAt,
		Identical:     bitIdentical(&full, fullRes, &resumed, res),
		SnapshotBytes: size,
		Resumed:       res,
	}, nil
}

// ReplayData runs the kill-and-resume check for every chaos-soak scenario
// against the coordinated and uncoordinated stacks, killing halfway.
func ReplayData(ctx context.Context, opts Options) ([]ReplayRow, error) {
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
	rows, err := runner.Map(ctx, opts.Parallelism, jobs, func(ctx context.Context, j job) (ReplayRow, error) {
		row, err := ReplayCheck(ctx, sc, j.spec, j.cse, opts.Ticks/2)
		if err != nil {
			return ReplayRow{}, fmt.Errorf("%s/%s: %w", j.cse.Name, j.stack, err)
		}
		row.Stack = j.stack
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	// The committed AoS-era golden checkpoint rides along: a resume across
	// the cluster-layout generation gap must stay bit-identical too.
	grow, err := GoldenReplay(ctx)
	if err != nil {
		return nil, fmt.Errorf("aos-golden: %w", err)
	}
	return append(rows, grow), nil
}

// Replay renders E16: the chaos soak with a mid-run kill and checkpoint
// resume, verifying the determinism contract — a resumed run is bitwise
// identical to an uninterrupted one — per (scenario, stack) pair. A
// non-identical pair fails the experiment: silently divergent resumes are
// worse than no resumes.
func Replay(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := ReplayData(ctx, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Replay — chaos soak killed mid-run and resumed from its checkpoint",
		Note: "Each run is killed halfway, its snapshot round-tripped through the on-disk " +
			"encoding, and resumed on a fresh engine; 'identical' is a bitwise " +
			"(Float64bits) comparison of the per-tick series and final summaries " +
			"against the uninterrupted run. The aos-golden row resumes the committed " +
			"pre-columnar checkpoint against its committed result bits.",
		Header: []string{"Scenario", "Stack", "Kill@", "Identical", "Snapshot",
			"Violates(GM)", "Perf-loss"},
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Stack, fmt.Sprintf("%d", r.KillTick), yesNo(r.Identical),
			fmt.Sprintf("%.1f KiB", float64(r.SnapshotBytes)/1024),
			report.Pct(r.Resumed.ViolGM), report.Pct(r.Resumed.PerfLoss))
		if !r.Identical {
			err = fmt.Errorf("experiments: replay diverged for %s/%s", r.Scenario, r.Stack)
		}
	}
	return []*report.Table{t}, err
}
