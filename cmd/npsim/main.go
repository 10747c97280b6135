// Command npsim runs one power-management simulation and prints the
// evaluation metrics: average/peak power, savings versus the
// no-management baseline, performance loss, and budget-violation rates at
// the server/enclosure/group levels.
//
// Usage:
//
//	npsim -model BladeA -mix 180 -stack coordinated -ticks 3000
//	npsim -traces mine.csv -stack vmlevel -series out.csv
//	npsim -chaos sm-crash -fault-policy degrade
//	npsim -checkpoint-dir ckpt -checkpoint-every 500       # crash-safe run
//	npsim -checkpoint-dir ckpt -resume                     # continue it
//	npsim -shards 8 -timeline run.json                     # phase timeline (Perfetto)
//	npsim -facility -mix aiburst -series fac.csv           # facility co-simulation + PUE
//	npsim -profiles arm-microblade:3,serverb:1 -mix hetero # heterogeneous fleet
//
// Stacks: coordinated, uncoordinated, novmc, vmconly, apprutil, nofeedback,
// nobudgets, vmlevel, energydelay, slo, facility, none.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nopower/internal/checkpoint"
	"nopower/internal/controllers/fm"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
	"nopower/internal/runner"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName = fs.String("model", "BladeA", "hardware profile from the registry ("+strings.Join(model.Names(), ", ")+")")
		profiles  = fs.String("profiles", "", "heterogeneous fleet distribution, e.g. bladea:3,rack-2u-32:1 (overrides -model)")
		mix       = fs.String("mix", "180", "workload mix: 180, 60L, 60M, 60H, 60HH, 60HHH, aiburst")
		stack     = fs.String("stack", "coordinated", "controller stack preset")
		ticks     = fs.Int("ticks", experiments.DefaultTicks, "simulation length in ticks")
		seed      = fs.Int64("seed", 42, "trace/policy seed")
		budGrp    = fs.Float64("cap-grp", 0.20, "group budget headroom off max power")
		budEnc    = fs.Float64("cap-enc", 0.15, "enclosure budget headroom off max power")
		budLoc    = fs.Float64("cap-loc", 0.10, "local budget headroom off max power")
		pol       = fs.String("policy", "proportional", "EM/GM division policy")
		noOff     = fs.Bool("no-off", false, "forbid powering idle machines down")
		migTicks  = fs.Int("migration-ticks", 10, "migration penalty window")
		alphaM    = fs.Float64("alpha-m", 0.10, "migration performance overhead")
		series    = fs.String("series", "", "write a per-tick time-series CSV to this path")
		stride    = fs.Int("series-stride", 1, "record every Nth tick in the series")
		traceFile = fs.String("traces", "", "load workloads from a CSV (nptrace format) instead of generating -mix")
		timeout   = fs.Duration("timeout", 0, "cancel the simulation after this duration (0 = none)")
		verbose   = fs.Bool("v", false, "print scenario details")
		httpAddr  = fs.String("http", "", "serve /metrics, /healthz and /debug/pprof on this address for the run's duration (e.g. :8080)")
		traceOut  = fs.String("trace", "", "write controller actuation events as NDJSON to this path")
		chaosCase = fs.String("chaos", "", "inject a chaos scenario: "+strings.Join(experiments.ChaosCaseNames(), ", "))
		faultPol  = fs.String("fault-policy", "fail", "reaction to a controller panic: fail, degrade, propagate")
		ckptDir   = fs.String("checkpoint-dir", "", "write crash-safe snapshots into this directory")
		ckptEvery = fs.Int("checkpoint-every", 500, "checkpoint interval in ticks (with -checkpoint-dir)")
		resume    = fs.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir; the other flags must match the checkpointed run")
		facility  = fs.Bool("facility", false, "co-simulate the facility (UPS/PDU losses, weather-derated cooling, PUE) with the FM budget above the GM")
		feedW     = fs.Float64("facility-feed", 0, "utility feed capacity in W (0 = sized to carry the operator budget on an average day)")
		shards    = fs.Int("shards", 1, "goroutines per simulation tick for the plant/EC advance (results are bit-identical at any value)")
		timeline  = fs.String("timeline", "", "write a Chrome trace-event timeline of the run's internal phases to this path (open in Perfetto)")
		tlCap     = fs.Int("timeline-cap", 0, "span ring capacity for -timeline (0 = default; oldest spans are overwritten when full)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, err := core.SpecByName(*stack)
	if err != nil {
		fmt.Fprintf(stderr, "%v (stacks: %v)\n", err, core.StackNames())
		return 2
	}
	policy, err := sim.FaultPolicyByName(*faultPol)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	spec.Policy = *pol
	spec.AllowOff = spec.AllowOff && !*noOff
	spec.Shards = *shards
	if *facility {
		// The facility loop implies the cooling zone manager: the chiller
		// model is the thermal side of the same co-simulation.
		spec.EnableFacility, spec.EnableCooling = true, true
	}
	if *feedW != 0 {
		spec.FacilityFeedW = *feedW
	}

	if *profiles != "" {
		modelSet := false
		fs.Visit(func(f *flag.Flag) { modelSet = modelSet || f.Name == "model" })
		if modelSet {
			fmt.Fprintln(stderr, "-model and -profiles are mutually exclusive")
			return 2
		}
		// Canonicalize the spelling now so checkpoint labels (and resume
		// validation) don't depend on aliases or case.
		d, err := model.ParseDistribution(*profiles)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		*profiles, *modelName = d.String(), ""
	}

	sc := experiments.Scenario{
		Model:          *modelName,
		Profiles:       *profiles,
		Mix:            tracegen.Mix(*mix),
		Budgets:        experiments.Budgets{Grp: *budGrp, Enc: *budEnc, Loc: *budLoc},
		Ticks:          *ticks,
		Seed:           *seed,
		MigrationTicks: *migTicks,
		AlphaM:         *alphaM,
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "traces:", err)
			return 1
		}
		set, err := trace.ReadCSV(f, *traceFile)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "traces:", err)
			return 1
		}
		sc.Traces = set
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	logger := obs.NewLogger(stderr, 0)

	var o experiments.Observers
	if *httpAddr != "" {
		runner.RegisterMetrics(obs.Default)
		experiments.RegisterMetrics(obs.Default)
		srv, err := obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(stderr, "http:", err)
			return 1
		}
		defer srv.Close()
		o.Metrics = obs.Default
		logger.Info("observability endpoint up",
			"addr", srv.Addr.String(), "paths", "/metrics /healthz /debug/pprof/")
	}
	conflicts := obs.NewConflictDetector()
	var ndjson *obs.NDJSONWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		defer f.Close()
		ndjson = obs.NewNDJSONWriter(f)
		o.Tracer = obs.Multi(ndjson, conflicts)
	}

	if *series != "" {
		o.Series = &metrics.Series{Stride: *stride}
	}
	var profiler *prof.Profiler
	if *timeline != "" {
		profiler = prof.New(*tlCap)
		o.Prof = profiler
	}
	o.FaultPolicy = policy
	// Capture the FM handle (nil when the spec has no facility loop) for the
	// facility summary lines after the run.
	var fmc *fm.Controller
	o.OnBuild = func(h *core.Handles) { fmc = h.FM }

	// The run-identity labels stamped into checkpoints and validated on
	// resume: resuming under different settings would not be a continuation,
	// it would be a silently different simulation.
	labels := map[string]string{
		"model": *modelName, "profiles": *profiles, "mix": *mix, "ticks": fmt.Sprint(*ticks),
		"seed": fmt.Sprint(*seed), "stack": *stack, "policy": *pol,
		"chaos": *chaosCase, "series-stride": fmt.Sprint(*stride),
		"facility": fmt.Sprint(spec.EnableFacility),
	}
	if *ckptDir != "" {
		o.Checkpoint = &checkpoint.Saver{
			Dir: *ckptDir, Every: *ckptEvery,
			Meta:     checkpoint.Meta{Experiment: "npsim", Labels: labels},
			Registry: o.Metrics,
		}
	}
	if *resume {
		if *ckptDir == "" {
			fmt.Fprintln(stderr, "resume: -resume requires -checkpoint-dir")
			return 2
		}
		path, err := checkpoint.Latest(*ckptDir)
		if err != nil {
			fmt.Fprintln(stderr, "resume:", err)
			return 1
		}
		if path == "" {
			fmt.Fprintf(stderr, "resume: no checkpoint in %s\n", *ckptDir)
			return 1
		}
		f, err := checkpoint.Read(path)
		if err != nil {
			fmt.Fprintln(stderr, "resume:", err)
			return 1
		}
		for k, want := range labels {
			if got := f.Meta.Labels[k]; got != want {
				fmt.Fprintf(stderr, "resume: checkpoint %s was written with %s=%q, this run has %s=%q\n",
					path, k, got, k, want)
				return 2
			}
		}
		o.Resume = f
		logger.Info("resuming from checkpoint", "path", path, "tick", f.Meta.Tick)
	}
	var res metrics.Result
	var baseline float64
	disabled := -1
	if *chaosCase != "" {
		cse, err := experiments.ChaosCaseByName(*chaosCase)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		row, err := experiments.RunChaos(ctx, sc, spec, cse, o)
		if err != nil {
			fmt.Fprintln(stderr, "run:", err)
			return 1
		}
		res, disabled = row.Result, row.Disabled
	} else {
		baseline, err = experiments.BaselinePower(ctx, sc)
		if err != nil {
			fmt.Fprintln(stderr, "baseline:", err)
			return 1
		}
		res, err = experiments.RunObserved(ctx, sc, spec, baseline, o)
		if err != nil {
			fmt.Fprintln(stderr, "run:", err)
			return 1
		}
	}
	if o.Series != nil {
		f, err := os.Create(*series)
		if err != nil {
			fmt.Fprintln(stderr, "series:", err)
			return 1
		}
		if err := o.Series.WriteCSV(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "series:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "series:", err)
			return 1
		}
		logger.Info("series written", "samples", o.Series.Len(), "path", *series)
	}
	if profiler != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fmt.Fprintln(stderr, "timeline:", err)
			return 1
		}
		if err := profiler.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "timeline:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "timeline:", err)
			return 1
		}
		top := "none"
		if stats := profiler.PhaseStats(); len(stats) > 1 {
			// stats[0] is the enclosing sim.tick; the next entry is the
			// dominant sub-phase — the headline of "where did the tick go".
			top = fmt.Sprintf("%s=%s", stats[1].Phase, stats[1].Total)
		}
		logger.Info("timeline written", "spans", profiler.Len(),
			"dropped", profiler.Dropped(), "top", top, "path", *timeline)
	}
	if ndjson != nil {
		if err := ndjson.Err(); err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		logger.Info("actuation trace written",
			"events", ndjson.Count(), "conflicts", conflicts.Count(), "path", *traceOut)
	}

	if *verbose {
		hw := "model=" + *modelName
		if *profiles != "" {
			hw = "profiles=" + *profiles
		}
		fmt.Fprintf(stdout, "scenario: %s mix=%s budgets=%s ticks=%d seed=%d stack=%s policy=%s\n",
			hw, *mix, sc.Budgets.Label(), *ticks, *seed, *stack, *pol)
		if *chaosCase != "" {
			fmt.Fprintf(stdout, "chaos: %s (fault policy %s)\n", *chaosCase, policy)
		} else {
			fmt.Fprintf(stdout, "baseline: %.0f W average (no power management)\n", baseline)
		}
	}
	fmt.Fprintf(stdout, "avg power      %8.0f W\n", res.AvgPower)
	fmt.Fprintf(stdout, "peak power     %8.0f W\n", res.PeakPower)
	fmt.Fprintf(stdout, "power savings  %8.1f %%\n", 100*res.PowerSavings)
	fmt.Fprintf(stdout, "perf loss      %8.1f %%\n", 100*res.PerfLoss)
	fmt.Fprintf(stdout, "viol SM        %8.2f %%\n", 100*res.ViolSM)
	fmt.Fprintf(stdout, "viol EM        %8.2f %%\n", 100*res.ViolEM)
	fmt.Fprintf(stdout, "viol GM        %8.2f %%\n", 100*res.ViolGM)
	fmt.Fprintf(stdout, "servers on     %8.1f\n", res.AvgServersOn)
	if fmc != nil {
		s := fmc.Sample()
		budget, feed := fmc.Budget()
		viol, _ := fmc.DrainViolations()
		fmt.Fprintf(stdout, "facility power %8.0f W\n", s.TotalW)
		fmt.Fprintf(stdout, "cooling power  %8.0f W\n", s.CoolingW)
		fmt.Fprintf(stdout, "PUE            %8.3f\n", s.PUE)
		fmt.Fprintf(stdout, "IT budget      %8.0f W  (feed %.0f W)\n", budget, feed)
		fmt.Fprintf(stdout, "feed viol      %8d ticks\n", viol)
	}
	if disabled >= 0 {
		fmt.Fprintf(stdout, "disabled ctrls %8d\n", disabled)
	}
	return 0
}
