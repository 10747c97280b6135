package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/sim"
)

// identityShards is the sharded leg's ladder: 3 shards, plus one per CPU
// when that is more. Shards sets how many goroutines split a tick, not how
// many CPUs run them, so the leg is sharded on any host — a one-CPU host
// never compares serial against serial. The odd count splits the unit
// partition unevenly.
func identityShards() []int {
	ladder := []int{3}
	if n := runtime.GOMAXPROCS(0); n > ladder[0] {
		ladder = append(ladder, n)
	}
	return ladder
}

// IdentityLeg is one run of the identity harness.
type IdentityLeg struct {
	// Shards is the per-tick goroutine bound the leg's engine ran with.
	Shards int
	// Result is the leg's finalized summary.
	Result metrics.Result
	// Identical reports the leg reproduced the serial leg bitwise: every
	// per-tick series column and every summary field (math.Float64bits).
	Identical bool
}

// Identity is CheckIdentity's verdict.
type Identity struct {
	// Serial is the reference leg: shards=1 with the caller's observers.
	Serial IdentityLeg
	// Sharded holds one leg per identityShards() count.
	Sharded []IdentityLeg
	// Replay is the serial run killed halfway and resumed from its
	// checkpoint.
	Replay IdentityLeg
}

// ShardedIdentical reports whether every sharded leg reproduced the serial
// leg.
func (id Identity) ShardedIdentical() bool {
	for _, l := range id.Sharded {
		if !l.Identical {
			return false
		}
	}
	return len(id.Sharded) > 0
}

// CheckIdentity holds one (scenario, spec) to the determinism contract:
// sharding and kill-and-resume are execution knobs, so neither may change a
// bit of the per-tick series or the summary. It runs three legs:
//
//  1. serial: shards=1 with the caller's observers plus a metrics.Series
//     (o.Series when set, so the caller can fold it afterwards);
//  2. sharded: once per identityShards() count;
//  3. replay: the serial run killed halfway, its snapshot round-tripped
//     through checkpoint.Encode/Decode and resumed on a fresh engine.
//
// Legs 2 and 3 are compared against the serial leg's own series and
// result. Only the serial leg carries the caller's observers, so hooks
// that accumulate (OnTick, OnBuild) see exactly one run. A divergence is a
// verdict in the returned Identity; the error reports runs that failed.
func CheckIdentity(ctx context.Context, sc Scenario, spec core.Spec, baseline float64, o Observers) (Identity, error) {
	sc = sc.normalized()
	if o.Series == nil {
		o.Series = &metrics.Series{}
	}
	ref := o.Series
	fresh := func() *metrics.Series { return &metrics.Series{Stride: ref.Stride} }

	serial := sc
	serial.Shards = 1
	res, eng, err := runCase(ctx, serial, spec, ChaosCase{}, baseline, o)
	if err != nil {
		return Identity{}, fmt.Errorf("identity serial leg: %w", err)
	}
	id := Identity{Serial: IdentityLeg{Shards: eng.Shards, Result: res, Identical: true}}

	for _, n := range identityShards() {
		psc := sc
		psc.Shards = n
		got := fresh()
		res, eng, err := runCase(ctx, psc, spec, ChaosCase{}, baseline, Observers{Series: got})
		if err != nil {
			return Identity{}, fmt.Errorf("identity sharded leg (shards=%d): %w", n, err)
		}
		id.Sharded = append(id.Sharded, IdentityLeg{Shards: eng.Shards, Result: res,
			Identical: bitIdentical(ref, id.Serial.Result, got, res)})
	}

	got := fresh()
	res, _, err = killAndResume(ctx, serial, spec, ChaosCase{}, baseline,
		Observers{Series: got}, sc.Ticks/2)
	if err != nil {
		return Identity{}, fmt.Errorf("identity replay leg: %w", err)
	}
	id.Replay = IdentityLeg{Shards: 1, Result: res, Identical: bitIdentical(ref, id.Serial.Result, got, res)}
	return id, nil
}

// yesNo renders an identity verdict for a table cell; a divergence shouts.
func yesNo(identical bool) string {
	if identical {
		return "yes"
	}
	return "NO"
}

// bitIdentical is the one comparator of the determinism gates: two runs
// match when their series agree sample for sample and their summaries
// field for field, both at the bit level.
func bitIdentical(a *metrics.Series, ra metrics.Result, b *metrics.Series, rb metrics.Result) bool {
	return a.BitEqual(b) && resultBitsEqual(ra, rb)
}

// resultBitsEqual compares two finalized summaries field by field at the
// bit level (Float64bits, so -0 vs +0 or differently-rounded sums fail).
func resultBitsEqual(a, b metrics.Result) bool {
	bits := func(r metrics.Result) [8]uint64 {
		return [8]uint64{
			math.Float64bits(r.AvgPower), math.Float64bits(r.PeakPower),
			math.Float64bits(r.PowerSavings), math.Float64bits(r.PerfLoss),
			math.Float64bits(r.ViolSM), math.Float64bits(r.ViolEM),
			math.Float64bits(r.ViolGM), math.Float64bits(r.ViolSMWatts),
		}
	}
	return a.Ticks == b.Ticks && bits(a) == bits(b) &&
		math.Float64bits(a.AvgServersOn) == math.Float64bits(b.AvgServersOn)
}

// runCase builds the engine for one (scenario, spec, chaos case) triple,
// attaches o, runs the remaining ticks and finalizes against baseline
// (<= 0 skips the savings metric). sc must already be normalized. The
// engine is returned for callers that read it after the run (its shard
// count, its disabled controllers).
func runCase(ctx context.Context, sc Scenario, spec core.Spec, cse ChaosCase, baseline float64, o Observers) (metrics.Result, *sim.Engine, error) {
	eng, h, err := newChaosEngine(sc, spec, cse)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	o.wireHandles(h)
	remaining, err := o.attach(eng, sc.Ticks)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	col, err := eng.RunContext(ctx, remaining)
	if ferr := o.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return metrics.Result{}, nil, err
	}
	res := col.Finalize(baseline)
	return res, eng, res.Valid()
}

// killAndResume is the one kill-and-resume implementation, shared by
// CheckIdentity and ReplayCheck. It runs sc for killAt ticks, snapshots the
// engine and round-trips the snapshot through the on-disk encoding — so the
// resumed engine lives off what a crash would have left on disk, not off
// live pointers — then finishes the run on a freshly built engine with o,
// whose Series continues from the snapshot. o must carry no accumulating
// hooks: both engines see it. It returns the resumed run's summary and the
// encoded snapshot size. sc must already be normalized.
func killAndResume(ctx context.Context, sc Scenario, spec core.Spec, cse ChaosCase, baseline float64, o Observers, killAt int) (metrics.Result, int, error) {
	if killAt <= 0 || killAt >= sc.Ticks {
		return metrics.Result{}, 0, fmt.Errorf("experiments: kill tick %d outside (0, %d)", killAt, sc.Ticks)
	}
	eng, h, err := newChaosEngine(sc, spec, cse)
	if err != nil {
		return metrics.Result{}, 0, err
	}
	// The killed run records into its own series: the snapshot carries it,
	// and the resume restores it into o.Series.
	part := o
	if o.Series != nil {
		part.Series = &metrics.Series{Stride: o.Series.Stride}
	}
	part.wireHandles(h)
	if _, err := part.attach(eng, sc.Ticks); err != nil {
		return metrics.Result{}, 0, err
	}
	if _, err := eng.RunContext(ctx, killAt); err != nil {
		return metrics.Result{}, 0, fmt.Errorf("partial run: %w", err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		return metrics.Result{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	data, err := checkpoint.Encode(&checkpoint.File{Meta: checkpoint.Meta{Tick: snap.Tick}, State: snap})
	if err != nil {
		return metrics.Result{}, 0, err
	}
	if o.Resume, err = checkpoint.Decode(data); err != nil {
		return metrics.Result{}, 0, err
	}
	res, _, err := runCase(ctx, sc, spec, cse, baseline, o)
	if err != nil {
		return metrics.Result{}, 0, fmt.Errorf("resume: %w", err)
	}
	return res, len(data), nil
}
