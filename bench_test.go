// Benchmarks: one per reproduced table/figure (DESIGN.md §4). Each benchmark
// regenerates its artifact end-to-end — trace synthesis, baseline run,
// controller-stack runs — at a reduced tick count so `go test -bench=.`
// finishes in minutes; `cmd/npexp` runs the same experiments at full length.
// Micro-benchmarks for the hot paths (plant advance, packing, controller
// ticks) follow the experiment benches.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"nopower/internal/binpack"
	"nopower/internal/checkpoint"
	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/model"
	"nopower/internal/obs/prof"
	"nopower/internal/tracegen"
)

// benchOpts keeps one experiment iteration around a second.
func benchOpts() []experiments.Option {
	return []experiments.Option{experiments.WithTicks(1200), experiments.WithSeed(42)}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExperiment(context.Background(), name, benchOpts()...); err != nil {
			b.Fatal(err)
		}
	}
}

// serialAndAll is the sub-benchmark ladder: 1, plus GOMAXPROCS when larger,
// so every sub-benchmark has a distinct name on a one-CPU host.
func serialAndAll() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkParallelSweep compares the fig7+fig8 batch — the headline
// configuration sweep, 44 independent simulations — run serially against
// the worker-pool fan-out at GOMAXPROCS. The output tables are
// byte-identical either way; only the wall clock should differ.
func BenchmarkParallelSweep(b *testing.B) {
	for _, parallel := range serialAndAll() {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			opts := append(benchOpts(), experiments.WithParallelism(parallel))
			for i := 0; i < b.N; i++ {
				for _, name := range []string{"fig7", "fig8"} {
					if _, err := experiments.RunExperiment(context.Background(), name, opts...); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig7 regenerates Fig. 7 (E1): coordinated vs uncoordinated
// violations and performance loss across the four base configurations.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig. 8 (E2): per-controller savings isolation
// across the six workload mixes and both systems.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9 (E3): the coordination-interface
// ablation table.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10 (E4): the power-budget sweep.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkPStates regenerates the §5.3 P-state-count study (E5).
func BenchmarkPStates(b *testing.B) { benchExperiment(b, "pstates") }

// BenchmarkMachineOff regenerates the §5.4 machine-off study (E6).
func BenchmarkMachineOff(b *testing.B) { benchExperiment(b, "machineoff") }

// BenchmarkMigration regenerates the §5.4 migration-overhead study (E7).
func BenchmarkMigration(b *testing.B) { benchExperiment(b, "migration") }

// BenchmarkTimeConstants regenerates the §5.4 time-constant study (E8).
func BenchmarkTimeConstants(b *testing.B) { benchExperiment(b, "timeconst") }

// BenchmarkPolicies regenerates the §5.4 policy study (E9).
func BenchmarkPolicies(b *testing.B) { benchExperiment(b, "policies") }

// BenchmarkFailover regenerates the §5.1 thermal-failover prototype (E10).
func BenchmarkFailover(b *testing.B) { benchExperiment(b, "failover") }

// BenchmarkStability regenerates the Appendix-A stability sweeps (E11).
func BenchmarkStability(b *testing.B) { benchExperiment(b, "stability") }

// BenchmarkMultiSeed regenerates the seed-robustness check (E12).
func BenchmarkMultiSeed(b *testing.B) { benchExperiment(b, "multiseed") }

// BenchmarkExtensions regenerates the §6.1 extension suite (E13).
func BenchmarkExtensions(b *testing.B) { benchExperiment(b, "extensions") }

// --- Ablation benches for the design choices DESIGN.md §5 calls out ---

func benchStack(b *testing.B, spec core.Spec, ticks int) {
	b.Helper()
	sc := experiments.Scenario{Model: "BladeA", Mix: tracegen.Mix180,
		Budgets: experiments.Base201510(), Ticks: ticks, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := sc.BuildCluster()
		if err != nil {
			b.Fatal(err)
		}
		eng, _, err := core.Build(cl, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(ticks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStackCoordinated measures a full coordinated run (180 servers).
func BenchmarkStackCoordinated(b *testing.B) { benchStack(b, core.Coordinated(), 1200) }

// BenchmarkStackUncoordinated measures the uncoordinated deployment.
func BenchmarkStackUncoordinated(b *testing.B) { benchStack(b, core.Uncoordinated(), 1200) }

// BenchmarkStackApparentUtil measures the apparent-utilization ablation.
func BenchmarkStackApparentUtil(b *testing.B) { benchStack(b, core.CoordinatedApparentUtil(), 1200) }

// BenchmarkStackNoBudgets measures the unconstrained-packer ablation.
func BenchmarkStackNoBudgets(b *testing.B) { benchStack(b, core.CoordinatedNoBudgetLimits(), 1200) }

// BenchmarkCheckpointOverhead measures what crash-safety costs a full
// coordinated run (180 servers, 1200 ticks): "off" is the plain engine path
// (CheckpointEvery zero — the per-tick check is one integer compare), and
// each every=N case attaches a Saver writing real gzip'd snapshots to a
// temp dir. The acceptance bar is <5% overhead at the npsim default of
// every 500 ticks.
func BenchmarkCheckpointOverhead(b *testing.B) {
	sc := experiments.Scenario{Model: "BladeA", Mix: tracegen.Mix180,
		Budgets: experiments.Base201510(), Ticks: 1200, Seed: 42}
	for _, every := range []int{0, 500, 100} {
		name := "off"
		if every > 0 {
			name = fmt.Sprintf("every=%d", every)
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				cl, err := sc.BuildCluster()
				if err != nil {
					b.Fatal(err)
				}
				eng, _, err := core.Build(cl, core.Coordinated())
				if err != nil {
					b.Fatal(err)
				}
				var s *checkpoint.Saver
				if every > 0 {
					s = &checkpoint.Saver{Dir: dir, Every: every}
					if err := s.Attach(eng); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := eng.Run(sc.Ticks); err != nil {
					b.Fatal(err)
				}
				if s != nil {
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Micro-benchmarks for the substrate hot paths ---

func benchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	set, err := tracegen.BuildMix(tracegen.Mix180, 1000, 42)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Enclosures: 6, BladesPerEnclosure: 20, Standalone: 60,
		Model:     model.BladeA(),
		CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
		AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 10,
	}, set)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkClusterAdvance measures one plant tick for 180 servers.
func BenchmarkClusterAdvance(b *testing.B) {
	cl := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Advance(i)
	}
}

// benchProfiler returns a fresh span profiler when the run asked for the
// phase breakdown (NPBENCH_PROFILE=1, set by `make bench-json`), else nil —
// the default keeps the benchmarks measuring the unobserved engine.
func benchProfiler() *prof.Profiler {
	if os.Getenv("NPBENCH_PROFILE") == "" {
		return nil
	}
	return prof.New(1 << 20)
}

// reportPhases turns the profiled run's span ring into custom benchmark
// metrics: every phase that recorded spans becomes `<phase>-ns/span`, its
// mean span length — plant phases, each controller law and its per-shard
// share, the whole tick — plus the shard load-imbalance ratio. They ride the
// `go test -bench` output into the flight-recorder artifact (npprof record),
// giving every BENCH_*.json a per-layer breakdown next to its ns/op.
func reportPhases(b *testing.B, p *prof.Profiler) {
	if p == nil {
		return
	}
	for _, st := range p.PhaseStats() {
		b.ReportMetric(float64(st.Total)/float64(st.Count), st.Phase+"-ns/span")
	}
	if imb := p.ShardImbalance(prof.PhaseShard); imb > 0 {
		b.ReportMetric(imb, "imbalance")
	}
}

// benchScaleFleet runs one full simulated run over a synthetic fleet
// (coordinated stack minus the VMC, like the scale experiments), serial vs
// one shard per CPU. The scale experiments verify the runs are bitwise
// identical; these benchmarks measure what the sharding buys. Trace
// synthesis and cluster construction happen outside the timer — the tick
// loop is the subject. With NPBENCH_PROFILE=1 each run is profiled and the
// phase breakdown is reported as custom metrics (profiling is outside the
// default path so the headline ns/op stays unobserved).
func benchScaleFleet(b *testing.B, servers int) {
	b.Helper()
	const ticks = 60
	set, err := tracegen.BuildMix(tracegen.ScaleMix(servers), ticks, 42)
	if err != nil {
		b.Fatal(err)
	}
	sc := experiments.Scenario{Model: "BladeA", Budgets: experiments.Base201510(),
		Ticks: ticks, Seed: 42, Traces: set}
	for _, shards := range serialAndAll() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := benchProfiler()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := sc.BuildCluster()
				if err != nil {
					b.Fatal(err)
				}
				spec := core.NoVMC()
				spec.Shards = shards
				eng, _, err := core.Build(cl, spec)
				if err != nil {
					b.Fatal(err)
				}
				eng.Prof = p
				b.StartTimer()
				if _, err := eng.Run(ticks); err != nil {
					b.Fatal(err)
				}
			}
			reportPhases(b, p)
		})
	}
}

// BenchmarkScale10k is the wall-clock companion of the scale experiment
// (`npexp scale`) at its 10k-server preset: shards=1 against one shard per
// CPU, whose ratio is the sharded engine's speedup (EXPERIMENTS.md E17/E18).
func BenchmarkScale10k(b *testing.B) { benchScaleFleet(b, 10000) }

// BenchmarkScale100k is the same companion at the 100k-server preset
// (`npexp scale100k`).
func BenchmarkScale100k(b *testing.B) { benchScaleFleet(b, 100000) }

// BenchmarkBinpack180 measures one VMC packing problem: 180 VMs, 180 bins.
func BenchmarkBinpack180(b *testing.B) {
	items := make([]binpack.Item, 180)
	for i := range items {
		items[i] = binpack.Item{ID: i, Demand: 0.1 + float64(i%7)*0.05, Current: i}
	}
	bins := make([]binpack.Bin, 180)
	for i := range bins {
		bins[i] = binpack.Bin{
			ID: i, Capacity: 0.85, FullCapacity: 1,
			IdlePower: 60, PowerSlope: 40, PowerBudget: 90,
			Enclosure: i / 20, On: true,
		}
	}
	enc := map[int]float64{}
	for e := 0; e < 9; e++ {
		enc[e] = 1700
	}
	p := binpack.Problem{Items: items, Bins: bins, EnclosureBudgets: enc,
		GroupBudget: 14400, MigrationWeight: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binpack.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracegen180 measures synthesizing the full 180-trace mix.
func BenchmarkTracegen180(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tracegen.BuildMix(tracegen.Mix180, 1000, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracegenScale10k measures synthesizing the 10k-workload scale
// mix at fleet100k's 600 ticks, on one CPU and on every CPU. The draw of
// each tier's random stream is serial either way; the ratio of the two
// sub-benchmarks is what the parallel shaping and the concurrent tiers buy.
func BenchmarkTracegenScale10k(b *testing.B) {
	for _, procs := range serialAndAll() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tracegen.BuildMix(tracegen.ScaleMix(10000), 600, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkECSteadyPower measures the packer's feasibility-curve evaluation.
func BenchmarkECSteadyPower(b *testing.B) {
	m := model.ServerB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ECSteadyPower(0.75, float64(i%100)/100)
	}
}
