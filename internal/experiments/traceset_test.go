package experiments

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nopower/internal/checkpoint"
	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/obs"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// Each test below uses its own seed, so its key is cold when it starts and
// the process-wide counters move only by what the test does (the package's
// top-level tests run one at a time).

// surgeCase scales every workload's demand by 1.5 at tick 20.
var surgeCase = ChaosCase{Name: "demand-surge", Events: func(int, int64) []sim.Event {
	return []sim.Event{sim.ScaleDemand(20, 1.5)}
}}

func sharedSpec() core.Spec {
	spec := core.Coordinated()
	spec.Periods = shortPeriods()
	return spec
}

// setBits flattens a set's demand to its Float64bits.
func setBits(traces []*trace.Trace) []uint64 {
	var bits []uint64
	for _, tr := range traces {
		for _, d := range tr.Demand {
			bits = append(bits, math.Float64bits(d))
		}
	}
	return bits
}

func vmTraces(cl *cluster.Cluster) []*trace.Trace {
	out := make([]*trace.Trace, len(cl.VMs))
	for i, vm := range cl.VMs {
		out[i] = vm.Trace
	}
	return out
}

// freshSet synthesizes sc's mix outside the cache.
func freshSet(t *testing.T, sc Scenario) *trace.Set {
	t.Helper()
	sc = sc.normalized()
	set, err := tracegen.BuildMix(sc.Mix, sc.Ticks, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestScaleDemandCopiesSharedSet pins the copy-on-write rule: of two
// clusters built from one key, the one a ScaleDemand event rewrites moves
// to private traces, while the shared set keeps the synthesized bits and
// its unscaled twin runs exactly as a cluster with its own traces does.
func TestScaleDemandCopiesSharedSet(t *testing.T) {
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix60L, Budgets: Base201510(), Ticks: 120, Seed: 9001}.normalized()
	spec := sharedSpec()
	builds0 := traceSets.builds.Load()

	_, scaled, err := runCase(ctx, sc, spec, surgeCase, 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	twinSeries := &metrics.Series{}
	twinRes, twin, err := runCase(ctx, sc, spec, ChaosCase{}, 0, Observers{Series: twinSeries})
	if err != nil {
		t.Fatal(err)
	}
	if got := traceSets.builds.Load() - builds0; got != 1 {
		t.Fatalf("%d builds for two clusters of one key, want 1", got)
	}
	for i, vm := range scaled.Cluster.VMs {
		if vm.Trace == twin.Cluster.VMs[i].Trace || !vm.Trace.Mutated {
			t.Fatalf("vm %d: scaled cluster still on the shared trace", i)
		}
	}
	fresh := freshSet(t, sc)
	if !slices.Equal(setBits(vmTraces(twin.Cluster)), setBits(fresh.Traces)) {
		t.Error("ScaleDemand wrote into the shared trace set")
	}

	own := sc
	own.Traces = fresh
	ownSeries := &metrics.Series{}
	ownRes, _, err := runCase(ctx, own, spec, ChaosCase{}, 0, Observers{Series: ownSeries})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(twinSeries, twinRes, ownSeries, ownRes) {
		t.Error("the unscaled twin diverged from a cluster with its own traces")
	}
	runtime.KeepAlive(scaled)
}

// TestRestoreNeverWritesSharedTrace resumes one cluster from a checkpoint
// that carries scaled demand while a sibling of the same key advances
// concurrently. Restore must point the resumed VMs at private copies: under
// -race a write into the shared traces is a reported race, and without it
// the sibling or the shared bits would diverge.
func TestRestoreNeverWritesSharedTrace(t *testing.T) {
	const ticks = 120
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix60HH, Budgets: Base201510(), Ticks: ticks, Seed: 9002}.normalized()
	spec := sharedSpec()

	want, _, err := runCase(ctx, sc, spec, surgeCase, 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	killed, _, err := newChaosEngine(sc, spec, surgeCase)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := killed.RunContext(ctx, ticks/2); err != nil {
		t.Fatal(err)
	}
	snap, err := killed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cluster.VMs[0].Demand == nil {
		t.Fatal("checkpoint after the surge carries no demand")
	}

	builds0 := traceSets.builds.Load()
	var (
		wg                     sync.WaitGroup
		resumedRes, siblingRes metrics.Result
		sibling                *sim.Engine
		resumedErr, siblingErr error
		siblingSeries          = &metrics.Series{}
		resume                 = &checkpoint.File{State: snap}
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		resumedRes, _, resumedErr = runCase(ctx, sc, spec, surgeCase, 0, Observers{Resume: resume})
	}()
	go func() {
		defer wg.Done()
		siblingRes, sibling, siblingErr = runCase(ctx, sc, spec, ChaosCase{}, 0, Observers{Series: siblingSeries})
	}()
	wg.Wait()
	if resumedErr != nil || siblingErr != nil {
		t.Fatalf("resumed: %v, sibling: %v", resumedErr, siblingErr)
	}
	if got := traceSets.builds.Load() - builds0; got != 0 {
		t.Fatalf("resumed and sibling made %d builds, want 0: they must share the live set", got)
	}
	if !resultBitsEqual(resumedRes, want) {
		t.Error("the resumed run diverged from the uninterrupted one")
	}

	fresh := freshSet(t, sc)
	if !slices.Equal(setBits(vmTraces(sibling.Cluster)), setBits(fresh.Traces)) {
		t.Error("restore wrote into the shared trace set")
	}
	own := sc
	own.Traces = fresh
	ownSeries := &metrics.Series{}
	ownRes, _, err := runCase(ctx, own, spec, ChaosCase{}, 0, Observers{Series: ownSeries})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(siblingSeries, siblingRes, ownSeries, ownRes) {
		t.Error("the sibling diverged from a cluster with its own traces")
	}
	runtime.KeepAlive(killed)
}

// TestTraceSetSingleflight fires concurrent BuildCluster calls for one key:
// exactly one synthesizes, the rest share its set.
func TestTraceSetSingleflight(t *testing.T) {
	const n = 8
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix180, Budgets: Base201510(), Ticks: 300, Seed: 9003}
	builds0, shared0 := traceSets.builds.Load(), traceSets.shared.Load()
	cls := make([]*cluster.Cluster, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			cls[i], errs[i] = sc.BuildCluster()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	if b, s := traceSets.builds.Load()-builds0, traceSets.shared.Load()-shared0; b != 1 || s != n-1 {
		t.Errorf("%d concurrent builds: %d synthesized, %d shared; want 1 and %d", n, b, s, n-1)
	}
	for i, cl := range cls {
		if cl.VMs[0].Trace != cls[0].VMs[0].Trace {
			t.Errorf("cluster %d holds its own traces", i)
		}
	}
}

// TestTraceSetDroppedWhenUnreachable checks that the cache retains a set
// only while a cluster built from it is reachable, and that a rebuild after
// the entry is gone reproduces the first build bit for bit.
func TestTraceSetDroppedWhenUnreachable(t *testing.T) {
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix60M, Budgets: Base201510(), Ticks: 200, Seed: 9004}.normalized()
	key := setKey{mix: sc.Mix, ticks: sc.Ticks, seed: sc.Seed}
	cached := func() bool {
		traceSets.mu.Lock()
		defer traceSets.mu.Unlock()
		_, ok := traceSets.m[key]
		return ok
	}
	// builtBits builds two clusters of the key and returns their demand
	// bits; neither cluster outlives the call.
	builtBits := func() []uint64 {
		a, err := sc.BuildCluster()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.BuildCluster()
		if err != nil {
			t.Fatal(err)
		}
		if !cached() || a.VMs[0].Trace != b.VMs[0].Trace {
			t.Fatal("two live clusters of one key do not share its set")
		}
		return setBits(vmTraces(a))
	}

	first := builtBits()
	for deadline := time.Now().Add(10 * time.Second); cached(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("entry still cached with no cluster of its key reachable")
		}
		runtime.GC()
	}
	builds0 := traceSets.builds.Load()
	again := builtBits()
	if got := traceSets.builds.Load() - builds0; got != 1 {
		t.Errorf("%d builds after the entry was dropped, want 1", got)
	}
	if !slices.Equal(first, again) {
		t.Error("rebuilt set differs from the first build")
	}
}

// TestTraceSetMetrics checks the cache counters surface in a registry's
// exposition.
func TestTraceSetMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"np_trace_set_builds_total", "np_trace_set_shared_total"} {
		if !strings.Contains(sb.String(), name+" ") {
			t.Errorf("exposition missing %s:\n%s", name, sb.String())
		}
	}
}
