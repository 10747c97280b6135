// Shard determinism: the sharded tick engine must be an execution knob and
// nothing else. These tests run the same scenario serially and at several
// shard counts — including under the race detector via `make race` — and
// require the collector's accumulated state to be byte-identical and every
// finalized metric to match at the Float64bits level.
package sim_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/controllers/ec"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// shardTestCluster is the paper's 180-server layout (six 20-blade enclosures
// plus 60 standalone servers) over the Mix180 workload blend — big enough
// that every unit class (enclosure units, standalone chunks) is exercised.
func shardTestCluster(t *testing.T, ticks int) *cluster.Cluster {
	t.Helper()
	set, err := tracegen.BuildMix(tracegen.Mix180, ticks, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Enclosures: 6, BladesPerEnclosure: 20, Standalone: 60,
		Model:     model.BladeA(),
		CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
		AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 10,
	}, set)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// shardCounts is the ladder under test: serial, minimal parallelism (which
// still spawns a worker goroutine, so the race detector sees the concurrent
// path even on one CPU), and one shard per CPU.
func shardCounts() []int {
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > counts[len(counts)-1] {
		counts = append(counts, n)
	}
	return counts
}

// resultBits flattens a finalized result for exact comparison.
func resultBits(r metrics.Result) [9]uint64 {
	return [9]uint64{
		uint64(r.Ticks),
		math.Float64bits(r.AvgPower), math.Float64bits(r.PeakPower),
		math.Float64bits(r.PerfLoss), math.Float64bits(r.ViolSM),
		math.Float64bits(r.ViolEM), math.Float64bits(r.ViolGM),
		math.Float64bits(r.ViolSMWatts), math.Float64bits(r.AvgServersOn),
	}
}

// TestShardDeterminism runs the coordinated and uncoordinated stacks at every
// shard count and requires bitwise-identical collector state versus the
// serial run. `make race` runs exactly this test under -race: the determinism
// claim and the data-race claim are two halves of the same contract.
func TestShardDeterminism(t *testing.T) {
	const ticks = 300
	for _, tc := range []struct {
		name string
		spec func() core.Spec
	}{
		{"coordinated", core.Coordinated},
		{"uncoordinated", core.Uncoordinated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) ([]byte, metrics.Result) {
				t.Helper()
				cl := shardTestCluster(t, ticks)
				spec := tc.spec()
				spec.Seed = 42
				spec.Shards = shards
				eng, _, err := core.Build(cl, spec)
				if err != nil {
					t.Fatal(err)
				}
				col, err := eng.Run(ticks)
				if err != nil {
					t.Fatal(err)
				}
				data, err := col.State()
				if err != nil {
					t.Fatal(err)
				}
				return data, col.Finalize(0)
			}
			counts := shardCounts()
			refState, refRes := run(counts[0])
			for _, shards := range counts[1:] {
				state, res := run(shards)
				if !bytes.Equal(state, refState) {
					t.Errorf("shards=%d: collector state diverged from serial run", shards)
				}
				if got, want := resultBits(res), resultBits(refRes); got != want {
					t.Errorf("shards=%d: finalized metrics diverged:\n got %v\nwant %v\n(%s vs %s)",
						shards, got, want, res, refRes)
				}
			}
		})
	}
}

// TestShardedEngineMatchesSerialPerTick interleaves Run(1) probes — the
// pattern scenario drivers use — and checks the sharded engine's per-tick
// group power tracks the serial engine's exactly, not just the final sums.
func TestShardedEngineMatchesSerialPerTick(t *testing.T) {
	const ticks = 60
	build := func(shards int) *sim.Engine {
		t.Helper()
		cl := shardTestCluster(t, ticks)
		spec := core.Coordinated()
		spec.Seed = 42
		spec.Shards = shards
		eng, _, err := core.Build(cl, spec)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	serial, sharded := build(1), build(runtime.GOMAXPROCS(0)+1)
	for k := 0; k < ticks; k++ {
		if _, err := serial.Run(1); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Run(1); err != nil {
			t.Fatal(err)
		}
		a := math.Float64bits(serial.Cluster.GroupPower)
		b := math.Float64bits(sharded.Cluster.GroupPower)
		if a != b {
			t.Fatalf("tick %d: group power diverged: serial %x (%v) sharded %x (%v)",
				k, a, serial.Cluster.GroupPower, b, sharded.Cluster.GroupPower)
		}
	}
	if fmt.Sprint(serial.Cluster.Stats()) != fmt.Sprint(sharded.Cluster.Stats()) {
		t.Fatalf("final FleetStats diverged:\nserial  %+v\nsharded %+v",
			serial.Cluster.Stats(), sharded.Cluster.Stats())
	}
}

// TestShardedECPStateWrites is the race regression for the sharded EC epoch:
// concurrent TickShard calls move P-states through Cluster.SetPState, and each
// change invalidates the shared FleetStats cache. Under -race, three shards
// over the 180-server fleet must stay silent, and the run must match the
// serial one bitwise — with P-states actually moving, so the invalidation
// path is exercised rather than elided by the same-value short-circuit.
func TestShardedECPStateWrites(t *testing.T) {
	const ticks = 40
	run := func(shards int) (*cluster.Cluster, int) {
		cl := shardTestCluster(t, ticks)
		ecc, err := ec.New(cl, ec.DefaultLambda, ec.DefaultRRef, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New(cl, ecc)
		eng.Shards = shards
		moved := 0
		eng.OnTick = func(_ int, cl *cluster.Cluster) {
			for i := 0; i < cl.NumServers(); i++ {
				if cl.PState(i) != 0 {
					moved++
				}
			}
		}
		if _, err := eng.Run(ticks); err != nil {
			t.Fatal(err)
		}
		return cl, moved
	}
	serial, movedSerial := run(1)
	sharded, moved := run(3)
	if moved == 0 {
		t.Fatal("EC never left P0: the sharded SetPState path went unexercised")
	}
	if moved != movedSerial {
		t.Errorf("P-state occupancy diverged: serial %d, sharded %d", movedSerial, moved)
	}
	if fmt.Sprint(serial.Stats()) != fmt.Sprint(sharded.Stats()) {
		t.Errorf("final FleetStats diverged:\nserial  %+v\nsharded %+v", serial.Stats(), sharded.Stats())
	}
}
