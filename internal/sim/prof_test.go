// Engine profiling: the span taxonomy an instrumented run must produce, the
// Epochal gating of controller spans, the registry mirror, and — the
// contract everything else rests on — profiled runs being bitwise identical
// to unprofiled ones.
package sim_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// profRun executes the coordinated stack for 60 ticks with the given
// observability attachments and returns the engine.
func profRun(t *testing.T, p *prof.Profiler, reg *obs.Registry, shards int) *sim.Engine {
	t.Helper()
	const ticks = 60
	cl := shardTestCluster(t, ticks)
	spec := core.Coordinated()
	spec.Seed = 42
	spec.Shards = shards
	spec.ElectricalCap = 95 // include the every-tick CAP block in the stack
	eng, _, err := core.Build(cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Prof = p
	eng.Metrics = reg
	eng.CheckpointEvery = 20
	eng.OnCheckpoint = func(*sim.Snapshot) error { return nil }
	if _, err := eng.Run(ticks); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineProfilerSpanTaxonomy(t *testing.T) {
	p := prof.New(1 << 16)
	profRun(t, p, nil, 4)
	counts := map[string]int{}
	shardMax := map[string]int{}
	for _, s := range p.Spans() {
		counts[s.Phase]++
		if s.Shard > shardMax[s.Phase] {
			shardMax[s.Phase] = s.Shard
		}
	}
	// Every-tick phases: exactly one span per tick.
	for _, phase := range []string{prof.PhaseTick, prof.PhaseObserve,
		prof.PhaseAdvance, prof.PhaseReduce, prof.PhaseDemandRow} {
		if counts[phase] != 60 {
			t.Errorf("%s: %d spans, want 60", phase, counts[phase])
		}
	}
	// The plant dispatch records one span per worker per tick.
	if counts[prof.PhaseShard] < 2*60 {
		t.Errorf("%s: %d spans, want >= 120", prof.PhaseShard, counts[prof.PhaseShard])
	}
	if shardMax[prof.PhaseShard] < 1 {
		t.Errorf("%s: max worker index %d, want >= 1", prof.PhaseShard, shardMax[prof.PhaseShard])
	}
	// Checkpoints fired at ticks 20, 40, 60.
	if counts[prof.PhaseCheckpoint] != 3 {
		t.Errorf("%s: %d spans, want 3", prof.PhaseCheckpoint, counts[prof.PhaseCheckpoint])
	}
	// Controller spans exist and are epoch-gated: the GM (period 50 in the
	// coordinated baseline) must have recorded far fewer spans than the
	// every-tick capper.
	if counts["ctl.CAP"] != 60 {
		t.Errorf("ctl.CAP: %d spans, want 60", counts["ctl.CAP"])
	}
	if n := counts["ctl.GM"]; n == 0 || n >= counts["ctl.CAP"]/2 {
		t.Errorf("ctl.GM: %d spans, want epoch-gated (0 < n << 60)", n)
	}
	// The sharded EC records per-worker shard spans on its epochs.
	if counts["ctl.EC"+prof.CtlShardSuffix] == 0 {
		t.Error("ctl.EC.shard: no worker spans recorded")
	}
	// GC/alloc counter tracks sampled every tick.
	var gc, alloc int
	for _, c := range p.Counters() {
		switch c.Name {
		case prof.CounterGCCycles:
			gc++
		case prof.CounterHeapAllocBytes:
			alloc++
		}
	}
	if gc != 60 || alloc != 60 {
		t.Errorf("counter samples: gc=%d alloc=%d, want 60 each", gc, alloc)
	}
}

// TestShardSpansAcrossDemandRefill pins one plant.shard span per worker per
// tick on a fleet whose demand-cache refills (ticks 0, 32 and 64) are
// themselves dispatched over the shard pool: 2100 VMs make three 1024-VM
// fill spans, so a refill tick runs two tagged dispatches on all three
// workers, and only the unit advance may land as plant.shard spans.
func TestShardSpansAcrossDemandRefill(t *testing.T) {
	const ticks, shards = 70, 3
	set, err := tracegen.BuildMix(tracegen.ScaleMix(2100), ticks, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Enclosures: 105, BladesPerEnclosure: 20,
		Model:     model.BladeA(),
		CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
		AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 10,
	}, set)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.NoVMC()
	spec.Seed = 42
	spec.Shards = shards
	eng, _, err := core.Build(cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New(1 << 16)
	eng.Prof = p
	if _, err := eng.Run(ticks); err != nil {
		t.Fatal(err)
	}
	var perWorker [ticks][shards]int
	for _, s := range p.Spans() {
		if s.Phase != prof.PhaseShard {
			continue
		}
		if s.Shard < 0 || s.Shard >= shards {
			t.Fatalf("tick %d: plant.shard span from worker %d, want [0,%d)", s.Tick, s.Shard, shards)
		}
		perWorker[s.Tick][s.Shard]++
	}
	for k := range perWorker {
		for w, n := range perWorker[k] {
			if n != 1 {
				t.Errorf("tick %d worker %d: %d plant.shard spans, want 1", k, w, n)
			}
		}
	}
}

func TestEngineProfilerRegistryMirror(t *testing.T) {
	p := prof.New(1 << 16)
	reg := obs.NewRegistry()
	profRun(t, p, reg, 4)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`np_sim_phase_seconds_count{phase="sim.tick"} 60`,
		`np_sim_phase_seconds_count{phase="plant.advance"} 60`,
		`np_sim_shard_seconds{shard="0"}`,
		`np_sim_shard_seconds{shard="1"}`,
		"np_sim_shard_imbalance",
		"np_sim_gc_cycles_total",
		"np_sim_heap_alloc_bytes_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if imb := reg.Gauge("np_sim_shard_imbalance").Value(); imb < 1 {
		t.Errorf("shard imbalance %v, want >= 1", imb)
	}
}

// TestProfiledRunBitwiseIdentical is the profiler's core safety contract:
// attaching Prof must not change a single result bit, serially or sharded.
func TestProfiledRunBitwiseIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		plain := profRun(t, nil, nil, shards)
		profiled := profRun(t, prof.New(1<<16), nil, shards)
		a := math.Float64bits(plain.Cluster.GroupPower)
		b := math.Float64bits(profiled.Cluster.GroupPower)
		if a != b {
			t.Errorf("shards=%d: group power diverged under profiling: %x vs %x", shards, a, b)
		}
		sa, err := plain.Collector.State()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := profiled.Collector.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Errorf("shards=%d: collector state diverged under profiling", shards)
		}
	}
}

// TestProfilerRewire swaps Prof between runs on one engine: the wiring
// fingerprint must pick up the change, and detaching must stop recording.
func TestProfilerRewire(t *testing.T) {
	const ticks = 5
	cl := shardTestCluster(t, 3*ticks)
	spec := core.Coordinated()
	spec.Seed = 42
	eng, _, err := core.Build(cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ticks); err != nil { // unprofiled
		t.Fatal(err)
	}
	p := prof.New(1 << 12)
	eng.Prof = p
	if _, err := eng.Run(ticks); err != nil {
		t.Fatal(err)
	}
	mid := p.Len()
	if mid == 0 {
		t.Fatal("no spans recorded after attaching Prof mid-session")
	}
	eng.Prof = nil
	if _, err := eng.Run(ticks); err != nil {
		t.Fatal(err)
	}
	if p.Len() != mid {
		t.Errorf("spans recorded after detach: %d -> %d", mid, p.Len())
	}
	// Ticks in the recorded window match the middle run.
	for _, s := range p.Spans() {
		if s.Tick < ticks || s.Tick >= 2*ticks {
			t.Fatalf("span from tick %d outside profiled window [%d,%d)", s.Tick, ticks, 2*ticks)
		}
	}
}
