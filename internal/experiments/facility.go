package experiments

import (
	"context"
	"fmt"

	"nopower/internal/controllers/fm"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/tracegen"
)

// FacilityRow is one stack's outcome on the facility co-simulation scenario:
// the usual power/violation summary plus the facility-side series (PUE,
// total facility power, feed violations) and the determinism verdicts.
type FacilityRow struct {
	Stack  string
	Result metrics.Result
	// AvgPUE/MaxPUE summarize the per-tick PUE series.
	AvgPUE, MaxPUE float64
	// AvgFacilityW is the mean total facility draw (IT + losses + cooling).
	AvgFacilityW float64
	// ITBudgetW is the FM's last exported IT budget.
	ITBudgetW float64
	// FeedViolations counts ticks where total facility power exceeded the
	// utility feed.
	FeedViolations int
	// Identical reports every sharded run reproduced the serial run bitwise
	// (per-tick series including the facility columns, and the summary).
	Identical bool
	// ReplayIdentical reports the serial run killed halfway and resumed from
	// its checkpoint reproduced the serial run bitwise (the E16 contract).
	ReplayIdentical bool
}

// facilityScenario builds the E21 setup: the paper's blade hardware under the
// AI-training burst mix — synchronized step swings between compute and
// stall phases across the fleet, the workload class whose facility-level
// power excursions motivate a coordinator above the GM.
func facilityScenario(opts Options) Scenario {
	return Scenario{Model: "BladeA", Mix: tracegen.MixAIBurst, Budgets: Base201510(),
		Ticks: opts.Ticks, Seed: opts.Seed}
}

// facilitySpec enables the facility co-simulation on a base stack: the FM
// above the GM plus the cooling zone manager it shares the thermal side with.
func facilitySpec(base core.Spec) core.Spec {
	base.EnableFacility = true
	base.EnableCooling = true
	return base
}

// facilitySeriesStats folds the per-tick facility columns into the row's
// summary numbers.
func facilitySeriesStats(s *metrics.Series) (avgPUE, maxPUE, avgFacilityW float64) {
	if len(s.PUE) == 0 {
		return 0, 0, 0
	}
	for i := range s.PUE {
		avgPUE += s.PUE[i]
		avgFacilityW += s.FacilityW[i]
		if s.PUE[i] > maxPUE {
			maxPUE = s.PUE[i]
		}
	}
	n := float64(len(s.PUE))
	return avgPUE / n, maxPUE, avgFacilityW / n
}

// facilityStackRow runs one stack through CheckIdentity — with the FM in
// the stack, the facility columns are part of the bitwise contract — and
// folds the serial leg's series and FM telemetry into the row.
func facilityStackRow(ctx context.Context, sc Scenario, spec core.Spec, baseline float64) (FacilityRow, error) {
	var serial metrics.Series
	var fmc *fm.Controller
	id, err := CheckIdentity(ctx, sc, spec, baseline, Observers{
		Series:  &serial,
		OnBuild: func(h *core.Handles) { fmc = h.FM },
	})
	if err != nil {
		return FacilityRow{}, fmt.Errorf("facility: %w", err)
	}
	row := FacilityRow{Result: id.Serial.Result, Identical: id.ShardedIdentical(),
		ReplayIdentical: id.Replay.Identical}
	row.AvgPUE, row.MaxPUE, row.AvgFacilityW = facilitySeriesStats(&serial)
	if fmc != nil {
		row.ITBudgetW, _ = fmc.Budget()
		row.FeedViolations, _ = fmc.DrainViolations()
	}
	return row, nil
}

// FacilityData runs E21: the coordinated and uncoordinated stacks with the
// facility co-simulation enabled, under the AI-burst trace class.
func FacilityData(ctx context.Context, opts Options) ([]FacilityRow, error) {
	opts = opts.normalized()
	sc := facilityScenario(opts).normalized()
	baseline, err := cachedBaseline(ctx, sc)
	if err != nil {
		return nil, fmt.Errorf("facility baseline: %w", err)
	}
	stacks := []struct {
		name string
		spec core.Spec
	}{
		{"Coordinated", facilitySpec(core.Coordinated())},
		{"Uncoordinated", facilitySpec(core.Uncoordinated())},
	}
	return runner.Map(ctx, opts.Parallelism, stacks, func(ctx context.Context, st struct {
		name string
		spec core.Spec
	}) (FacilityRow, error) {
		row, err := facilityStackRow(ctx, sc, st.spec, baseline)
		if err != nil {
			return FacilityRow{}, fmt.Errorf("%s: %w", st.name, err)
		}
		row.Stack = st.name
		return row, nil
	})
}

// Facility renders E21: the facility co-simulation (UPS/PDU conversion
// losses, weather-derated chiller, PUE) under the AI-burst workload, with the
// FM deriving the group's IT budget from the utility feed. The claims under
// test: the coordinated FM (min-rule export) keeps the facility inside the
// feed with bounded GM violations while the uncoordinated FM (stomping
// CAP_GRP) fights the operator's budget; and the whole facility loop honors
// the determinism contract — sharded and resumed runs reproduce the serial
// run bitwise. A non-identical row fails the experiment.
func Facility(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := FacilityData(ctx, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Facility — UPS/PDU losses, weather-derated cooling, and the FM budget (AI-burst mix)",
		Note: "BladeA under synchronized AI-training burst traces; the FM derives the " +
			"group IT budget from the utility feed and weather-derated cooling capacity. " +
			"'bit-identical' compares the sharded run against the serial one " +
			"(math.Float64bits over the per-tick series, facility columns included); " +
			"'replay' kills the run halfway and resumes from the checkpoint.",
		Header: []string{"Stack", "Savings", "Perf-loss", "Viol(GM)", "Avg PUE", "Max PUE",
			"Avg facility (kW)", "IT budget (kW)", "Feed-viol", "Bit-identical", "Replay"},
	}
	for _, r := range rows {
		t.AddRow(r.Stack,
			report.Pct(r.Result.PowerSavings), report.Pct(r.Result.PerfLoss),
			report.Pct(r.Result.ViolGM),
			fmt.Sprintf("%.3f", r.AvgPUE), fmt.Sprintf("%.3f", r.MaxPUE),
			fmt.Sprintf("%.1f", r.AvgFacilityW/1000),
			fmt.Sprintf("%.1f", r.ITBudgetW/1000),
			fmt.Sprintf("%d", r.FeedViolations),
			yesNo(r.Identical), yesNo(r.ReplayIdentical))
		if !r.Identical || !r.ReplayIdentical {
			err = fmt.Errorf("experiments: facility run diverged for %s", r.Stack)
		}
	}
	return []*report.Table{t}, err
}
