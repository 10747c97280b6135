package main

import (
	"testing"

	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// TestWrapForwardsInterfaces checks, for every controller of every stack,
// that the timing wrapper is a ShardTicker exactly when the controller is
// one, and forwards the other optional interfaces the engine asserts.
func TestWrapForwardsInterfaces(t *testing.T) {
	sc := experiments.Scenario{Model: "BladeA", Mix: tracegen.Mix60M, Ticks: 20, Seed: 1}
	for _, name := range core.StackNames() {
		spec, err := core.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := sc.BuildCluster()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := buildStack(cl, sc, spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range eng.Controllers {
			w, _ := wrap(c)
			_, shard := c.(sim.ShardTicker)
			_, wshard := w.(sim.ShardTicker)
			if shard != wshard {
				t.Errorf("%s/%s: ShardTicker %v, wrapper %v", name, c.Name(), shard, wshard)
			}
			for iface, ok := range map[string]bool{
				"Snapshotter": is[sim.Snapshotter](w), "FailSafer": is[sim.FailSafer](w),
				"Traceable": is[sim.Traceable](w), "MetricsAware": is[sim.MetricsAware](w),
			} {
				if !ok {
					t.Errorf("%s/%s: wrapper does not forward %s", name, c.Name(), iface)
				}
			}
			if ep, ok := c.(sim.Epochal); ok && w.(sim.Epochal).EpochPeriod() != ep.EpochPeriod() {
				t.Errorf("%s/%s: epoch period not forwarded", name, c.Name())
			}
		}
	}
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// TestInstrumentedRunBitIdentical runs one scenario plainly and
// instrumented, serial and sharded: all four summaries must be
// Float64bits-identical, and the sharded instrumented run must have taken
// the EC's shard path.
func TestInstrumentedRunBitIdentical(t *testing.T) {
	sc := experiments.Scenario{Model: "BladeA", Mix: tracegen.ScaleMix(900),
		Budgets: experiments.Base201510(), Ticks: 120, Seed: 7}
	var want string
	for _, shards := range []int{1, 3} {
		for _, instrumented := range []bool{false, true} {
			cl, err := sc.BuildCluster()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := buildStack(cl, sc, core.NoVMC(), shards)
			if err != nil {
				t.Fatal(err)
			}
			var lc *layerClock
			if instrumented {
				lc = instrument(eng)
				lc.arm()
			}
			got, _, err := finish(eng, sc.Ticks)
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("shards=%d instrumented=%v: digest %s, want %s", shards, instrumented, got, want)
			}
			if lc == nil {
				continue
			}
			sp, err := lc.split(shards)
			if err != nil {
				t.Fatal(err)
			}
			if sp.ticks != sc.Ticks || sp.ctlNs["ec"] <= 0 || sp.plantNs <= 0 {
				t.Errorf("shards=%d: split %+v", shards, sp)
			}
		}
	}
}
