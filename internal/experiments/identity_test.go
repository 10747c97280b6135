package experiments

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/tracegen"
)

// identityCases are the scenarios of fig7 (Mix180), chaos (60HH), scale,
// facility and hetero at reduced size, each with the stack its experiment
// runs.
func identityCases(opts Options) []struct {
	name string
	sc   Scenario
	spec core.Spec
} {
	scaleSc, scaleSpec := scaleScenario(scale10k.short, opts)
	return []struct {
		name string
		sc   Scenario
		spec core.Spec
	}{
		{"fig7", Scenario{Model: "BladeA", Mix: tracegen.Mix180, Budgets: Base201510(),
			Ticks: opts.Ticks, Seed: opts.Seed}, core.Coordinated()},
		{"chaos", chaosScenario(opts), core.Uncoordinated()},
		{"scale", scaleSc, scaleSpec},
		{"facility", facilityScenario(opts), facilitySpec(core.Coordinated())},
		{"hetero", heteroScenario(HeteroFleets()[0], opts), core.Coordinated()},
	}
}

// TestCheckIdentity runs the harness over every identity scenario: the
// sharded legs and the kill-and-resume leg must all reproduce the serial
// leg bitwise.
func TestCheckIdentity(t *testing.T) {
	for _, c := range identityCases(Options{Ticks: 120, Seed: 42}) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			id, err := CheckIdentity(ctx, c.sc, c.spec, 0, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			if id.Serial.Shards != 1 || id.Serial.Result.Ticks != 120 {
				t.Errorf("serial leg: shards=%d ticks=%d", id.Serial.Shards, id.Serial.Result.Ticks)
			}
			if len(id.Sharded) != len(identityShards()) || !id.ShardedIdentical() {
				t.Errorf("sharded legs diverged: %+v", id.Sharded)
			}
			if !id.Replay.Identical || id.Replay.Result.Ticks != 120 {
				t.Errorf("replay leg: identical=%v ticks=%d", id.Replay.Identical, id.Replay.Result.Ticks)
			}
		})
	}
}

// TestIdentityShardedOnOneCPU pins the gate's teeth on a one-CPU host:
// with GOMAXPROCS=1 every sharded leg still runs at least 3 shards, so the
// comparison is never serial against serial. The facility scenario is the
// one E21 runs through the same harness.
func TestIdentityShardedOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := Options{Ticks: 60, Seed: 42}
	id, err := CheckIdentity(ctx, facilityScenario(opts), facilitySpec(core.Coordinated()), 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Sharded) == 0 {
		t.Fatal("no sharded leg ran")
	}
	for _, l := range id.Sharded {
		if l.Shards < 3 {
			t.Errorf("sharded leg ran at shards=%d under GOMAXPROCS=1, want >= 3", l.Shards)
		}
		if !l.Identical {
			t.Errorf("shards=%d diverged from the serial run", l.Shards)
		}
	}
}

// TestBitIdenticalCatchesOneBit shows the comparator can fail: a one-bit
// change to any column of a real series (facility columns included), or to
// any summary field, is reported as a divergence.
func TestBitIdenticalCatchesOneBit(t *testing.T) {
	var ref metrics.Series
	opts := Options{Ticks: 30, Seed: 42}
	res, err := RunObserved(ctx, facilityScenario(opts), facilitySpec(core.Coordinated()), 0,
		Observers{Series: &ref})
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *metrics.Series {
		data, err := ref.State()
		if err != nil {
			t.Fatal(err)
		}
		var s metrics.Series
		if err := s.Restore(data); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	if !bitIdentical(&ref, res, clone(), res) {
		t.Fatal("a run is not identical to its own copy")
	}
	cols := reflect.TypeOf(ref)
	for i := 0; i < cols.NumField(); i++ {
		f := cols.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		got := clone()
		col := reflect.ValueOf(got).Elem().Field(i)
		if col.Len() == 0 {
			t.Errorf("column %s is empty: the facility run must fill every column", f.Name)
			continue
		}
		switch v := col.Index(col.Len() - 1); v.Kind() {
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
		case reflect.Int:
			v.SetInt(v.Int() ^ 1)
		}
		if bitIdentical(&ref, res, got, res) {
			t.Errorf("one-bit change to series column %s not reported", f.Name)
		}
	}
	for field, flipped := range flipResultFields(res) {
		if bitIdentical(&ref, res, clone(), flipped) {
			t.Errorf("one-bit change to summary field %s not reported", field)
		}
	}
}

// flipResultFields returns one copy of r per field, keyed by field name,
// each with the last bit of that field flipped.
func flipResultFields(r metrics.Result) map[string]metrics.Result {
	out := map[string]metrics.Result{}
	typ := reflect.TypeOf(r)
	for i := 0; i < typ.NumField(); i++ {
		c := r
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
		case reflect.Int:
			v.SetInt(v.Int() ^ 1)
		}
		out[typ.Field(i).Name] = c
	}
	return out
}

// TestResultBitsEqual covers the cases == gets wrong: +0 vs -0 compares
// equal as floats but differs in its bits, and a last-bit flip in any
// field must be caught.
func TestResultBitsEqual(t *testing.T) {
	base := metrics.Result{Ticks: 120, AvgPower: 123.5, PeakPower: 200.25, PowerSavings: 0.2,
		PerfLoss: 0.01, ViolSM: 0.03, ViolEM: 0.02, ViolGM: 0.01, ViolSMWatts: 4.5, AvgServersOn: 57.5}
	if !resultBitsEqual(base, base) {
		t.Fatal("a result differs from itself")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		pos, neg := base, base
		reflect.ValueOf(&pos).Elem().Field(i).SetFloat(0)
		reflect.ValueOf(&neg).Elem().Field(i).SetFloat(math.Copysign(0, -1))
		if pos != neg {
			t.Fatalf("%s: +0 and -0 should compare equal with ==", typ.Field(i).Name)
		}
		if resultBitsEqual(pos, neg) {
			t.Errorf("%s: +0 vs -0 not reported", typ.Field(i).Name)
		}
	}
	for field, flipped := range flipResultFields(base) {
		if resultBitsEqual(base, flipped) {
			t.Errorf("last-bit flip in %s not reported", field)
		}
	}
}
