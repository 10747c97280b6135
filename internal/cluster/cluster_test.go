package cluster

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"nopower/internal/model"
	"nopower/internal/trace"
)

func flat(name string, n int, level float64) *trace.Trace {
	d := make([]float64, n)
	for i := range d {
		d[i] = level
	}
	return &trace.Trace{Name: name, Class: "flat", Demand: d}
}

func smallCfg() Config {
	return Config{
		Enclosures:         1,
		BladesPerEnclosure: 4,
		Standalone:         2,
		Model:              model.BladeA(),
		CapOffGrp:          0.20,
		CapOffEnc:          0.15,
		CapOffLoc:          0.10,
		AlphaV:             0.10,
		AlphaM:             0.10,
		MigrationTicks:     5,
	}
}

func smallSet(n int, level float64) *trace.Set {
	s := &trace.Set{Name: "small"}
	for i := 0; i < n; i++ {
		s.Traces = append(s.Traces, flat("w", 100, level))
	}
	return s
}

func mustNew(t *testing.T, cfg Config, set *trace.Set) *Cluster {
	t.Helper()
	c, err := New(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewTopology(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.3))
	if c.NumServers() != 6 {
		t.Fatalf("servers = %d", c.NumServers())
	}
	if len(c.Enclosures) != 1 || len(c.Enclosures[0].Servers) != 4 {
		t.Fatalf("enclosure layout wrong: %+v", c.Enclosures)
	}
	if got := c.StandaloneServers(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("standalone = %v", got)
	}
	for i := 0; i < c.NumServers(); i++ {
		if i < 4 && c.EnclosureOf(i) != 0 {
			t.Errorf("server %d enclosure = %d", i, c.EnclosureOf(i))
		}
		if i >= 4 && c.EnclosureOf(i) != -1 {
			t.Errorf("server %d should be standalone", i)
		}
		if !c.On(i) || c.PState(i) != 0 {
			t.Errorf("server %d should boot on at P0", i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Model: nil}, smallSet(1, 0.1)); err == nil {
		t.Error("nil model accepted")
	}
	cfg := smallCfg()
	if _, err := New(cfg, &trace.Set{}); err == nil {
		t.Error("empty workload set accepted")
	}
	if _, err := New(cfg, smallSet(7, 0.1)); err == nil {
		t.Error("more workloads than servers accepted")
	}
	cfg.Enclosures = -1
	if _, err := New(cfg, smallSet(2, 0.1)); err == nil {
		t.Error("negative topology accepted")
	}
	cfg = smallCfg()
	cfg.Enclosures, cfg.BladesPerEnclosure, cfg.Standalone = 0, 0, 0
	if _, err := New(cfg, smallSet(1, 0.1)); err == nil {
		t.Error("zero servers accepted")
	}
	cfg = smallCfg()
	cfg.MigrationTicks = -1
	if _, err := New(cfg, smallSet(2, 0.1)); err == nil {
		t.Error("negative migration window accepted")
	}
}

func TestBudgetDerivation(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.3))
	m := model.BladeA()
	wantLoc := 0.9 * m.MaxPower()
	for i := 0; i < c.NumServers(); i++ {
		if math.Abs(c.StaticCap(i)-wantLoc) > 1e-9 {
			t.Errorf("server %d cap = %v, want %v", i, c.StaticCap(i), wantLoc)
		}
		if c.DynCap(i) != c.StaticCap(i) {
			t.Errorf("server %d dyn cap should start at static", i)
		}
	}
	wantEnc := 0.85 * 4 * m.MaxPower()
	if math.Abs(c.Enclosures[0].StaticCap-wantEnc) > 1e-9 {
		t.Errorf("enclosure cap = %v, want %v", c.Enclosures[0].StaticCap, wantEnc)
	}
	wantGrp := 0.8 * 6 * m.MaxPower()
	if math.Abs(c.StaticCapGrp-wantGrp) > 1e-9 {
		t.Errorf("group cap = %v, want %v", c.StaticCapGrp, wantGrp)
	}
	if math.Abs(c.MaxGroupPower()-6*m.MaxPower()) > 1e-9 {
		t.Errorf("MaxGroupPower = %v", c.MaxGroupPower())
	}
}

func TestAdvanceComputesSensors(t *testing.T) {
	cfg := smallCfg()
	cfg.Standalone = 3
	set := smallSet(6, 0.3)
	set.Traces = append(set.Traces, flat("idle", 100, 0)) // server 6: zero demand
	c := mustNew(t, cfg, set)
	c.Advance(0)
	m := cfg.Model
	wantFD := 0.3 * 1.1
	for i := 0; i < 6; i++ {
		if math.Abs(c.DemandSum(i)-wantFD) > 1e-12 {
			t.Errorf("server %d demand = %v, want %v", i, c.DemandSum(i), wantFD)
		}
		if math.Abs(c.Util(i)-wantFD) > 1e-12 { // P0 capacity is 1.0
			t.Errorf("server %d util = %v", i, c.Util(i))
		}
		if math.Abs(c.Power(i)-m.Power(0, wantFD)) > 1e-12 {
			t.Errorf("server %d power = %v", i, c.Power(i))
		}
		if math.Abs(c.RealUtil(i)-wantFD) > 1e-12 {
			t.Errorf("server %d real util = %v", i, c.RealUtil(i))
		}
	}
	// The idle server divides 0/cap: exactly +0, and the power model's
	// idle draw to the bit.
	if got := math.Float64bits(c.Util(6)); got != 0 {
		t.Errorf("idle server util bits = %#x, want 0", got)
	}
	if c.Power(6) != m.Power(0, 0) {
		t.Errorf("idle server power = %v, want %v", c.Power(6), m.Power(0, 0))
	}
	if math.Abs(c.GroupPower-6*m.Power(0, wantFD)-m.Power(0, 0)) > 1e-9 {
		t.Errorf("group power = %v", c.GroupPower)
	}
	if math.Abs(c.Enclosures[0].Power-4*m.Power(0, wantFD)) > 1e-9 {
		t.Errorf("enclosure power = %v", c.Enclosures[0].Power)
	}
	// All demand served: delivered == demanded == 6*0.3.
	if math.Abs(c.DemandWork-1.8) > 1e-12 || math.Abs(c.DeliveredWork-1.8) > 1e-12 {
		t.Errorf("work ledger = %v / %v", c.DeliveredWork, c.DemandWork)
	}
	// No server is capped, so every served fraction is fC/fD = x/x, exactly
	// 1, and the delivered sum reproduces the demanded sum to the bit.
	if math.Float64bits(c.DeliveredWork) != math.Float64bits(c.DemandWork) {
		t.Errorf("uncapped fleet delivered %v of %v", c.DeliveredWork, c.DemandWork)
	}
}

func TestAdvanceDeepPStateSaturates(t *testing.T) {
	cfg := smallCfg()
	c := mustNew(t, cfg, smallSet(6, 0.7))
	deep := cfg.Model.NumPStates() - 1
	for i := 0; i < c.NumServers(); i++ {
		c.SetPState(i, deep) // capacity 0.533 < demand 0.77
	}
	c.Advance(0)
	capDeep := cfg.Model.Capacity(deep)
	for i := 0; i < c.NumServers(); i++ {
		if c.Util(i) != 1 {
			t.Errorf("server %d util = %v, want saturation", i, c.Util(i))
		}
		if math.Abs(c.RealUtil(i)-capDeep) > 1e-12 {
			t.Errorf("server %d real util = %v, want %v", i, c.RealUtil(i), capDeep)
		}
	}
	// Perf loss: each VM demands 0.7 raw but the server serves only
	// 0.533/0.77 of demand (incl. overhead).
	served := capDeep / (0.7 * 1.1)
	wantDelivered := 6 * 0.7 * served
	if math.Abs(c.DeliveredWork-wantDelivered) > 1e-9 {
		t.Errorf("delivered = %v, want %v", c.DeliveredWork, wantDelivered)
	}
	if c.DeliveredWork >= c.DemandWork {
		t.Error("saturated cluster should lose work")
	}
}

func TestMoveBookkeeping(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.2))
	if err := c.Move(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if c.VMs[0].Server != 1 {
		t.Errorf("vm 0 on server %d", c.VMs[0].Server)
	}
	if len(c.ServerVMs(0)) != 0 || len(c.ServerVMs(1)) != 2 {
		t.Errorf("placement lists wrong: %v / %v", c.ServerVMs(0), c.ServerVMs(1))
	}
	if c.VMs[0].MigratingUntil != 15 {
		t.Errorf("MigratingUntil = %d, want 15", c.VMs[0].MigratingUntil)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Self-move is a no-op and does not restart the penalty window.
	if err := c.Move(0, 1, 99); err != nil {
		t.Fatal(err)
	}
	if c.VMs[0].MigratingUntil != 15 {
		t.Error("self-move restarted migration window")
	}
	if err := c.Move(-1, 0, 0); err == nil {
		t.Error("bad vm id accepted")
	}
	if err := c.Move(0, 99, 0); err == nil {
		t.Error("bad server id accepted")
	}
}

func TestMigrationPenaltyWindow(t *testing.T) {
	cfg := smallCfg()
	c := mustNew(t, cfg, smallSet(6, 0.2))
	if err := c.Move(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	c.Advance(1) // inside window (until tick 5)
	lossDuring := c.DemandWork - c.DeliveredWork
	if math.Abs(lossDuring-0.2*cfg.AlphaM) > 1e-9 {
		t.Errorf("migration loss = %v, want %v", lossDuring, 0.2*cfg.AlphaM)
	}
	c.Advance(5) // window closed
	if loss := c.DemandWork - c.DeliveredWork; math.Abs(loss) > 1e-12 {
		t.Errorf("loss after window = %v", loss)
	}
}

func TestPowerOffOnlyEmpty(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.2))
	if err := c.PowerOff(0); err == nil {
		t.Error("powered off a non-empty server")
	}
	if err := c.Move(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerOff(0); err != nil {
		t.Fatal(err)
	}
	if c.On(0) {
		t.Error("server 0 still on")
	}
	c.Advance(1)
	if c.Power(0) != 0 {
		t.Errorf("off server draws %v W", c.Power(0))
	}
	if c.OnCount() != 5 {
		t.Errorf("OnCount = %d", c.OnCount())
	}
	// Moving a VM to an off server powers it back on.
	if err := c.Move(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if !c.On(0) || c.PState(0) != 0 {
		t.Error("destination not powered on at P0")
	}
}

func TestOffServerLosesAllWork(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.2))
	// Force the failure mode directly (bypassing PowerOff's guard): the test
	// is in-package, so it can corrupt the column the way a bug would.
	c.on[0] = false
	c.Advance(0)
	if err := c.CheckInvariants(); err == nil {
		t.Error("invariant check should flag VMs on an off server")
	}
	loss := c.DemandWork - c.DeliveredWork
	if math.Abs(loss-0.2) > 1e-9 {
		t.Errorf("loss = %v, want the stranded VM's 0.2", loss)
	}
}

func TestSetModelHeterogeneous(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.2))
	b := model.ServerB()
	if err := c.SetModel(5, b); err != nil {
		t.Fatal(err)
	}
	if c.ServerModel(5).Name != "ServerB" {
		t.Error("model not swapped")
	}
	// Budgets must reflect the new mix.
	wantGrp := 0.8 * (5*model.BladeA().MaxPower() + b.MaxPower())
	if math.Abs(c.StaticCapGrp-wantGrp) > 1e-9 {
		t.Errorf("group cap = %v, want %v", c.StaticCapGrp, wantGrp)
	}
	if err := c.SetModel(99, b); err == nil {
		t.Error("bad index accepted")
	}
	// P-state index clamped when the new ladder is shorter.
	c.SetPState(4, 4)
	if err := c.SetModel(4, model.BladeA().TwoExtremes()); err != nil {
		t.Fatal(err)
	}
	if c.PState(4) > 1 {
		t.Errorf("p-state %d not clamped", c.PState(4))
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.2))
	c.VMs[0].Server = 3 // lie about placement
	if err := c.CheckInvariants(); err == nil {
		t.Error("mismatched placement not caught")
	}
}

// freshStats forces a recompute of the aggregate from the current sensor
// columns, bypassing the cache — the oracle for the staleness tests below.
func freshStats(c *Cluster) FleetStats {
	c.statsValid.Store(false)
	return c.Stats()
}

// TestStatsNeverStale is the regression contract for the single-choke-point
// invalidation (invalidateStats): after every mutator, the cached FleetStats
// a caller observes must equal a from-scratch recompute. A mutator that
// forgets to invalidate leaves the pre-mutation aggregate in the cache and
// fails the comparison.
func TestStatsNeverStale(t *testing.T) {
	c := mustNew(t, smallCfg(), smallSet(6, 0.5))
	c.Advance(0)
	saved := c.State() // pre-mutation snapshot for the RestoreState step

	steps := []struct {
		name   string
		mutate func()
	}{
		{"SetSensorReadings", func() { c.SetSensorReadings(0, 1, 1, 500) }},
		{"SetStaticCap", func() { c.SetStaticCap(0, 1) }},
		{"SetPState", func() { c.SetPState(1, 3) }},
		{"Move", func() {
			if err := c.Move(0, 1, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"PowerOff", func() {
			if err := c.PowerOff(0); err != nil {
				t.Fatal(err)
			}
		}},
		{"PowerOn", func() { c.PowerOn(0) }},
		{"ForceOff", func() { c.ForceOff(5) }},
		{"SetModel", func() {
			if err := c.SetModel(2, model.ServerB()); err != nil {
				t.Fatal(err)
			}
		}},
		{"ScaleDemand", func() { c.ScaleDemand(1.5) }},
		{"RestoreState", func() {
			if err := c.RestoreState(saved); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, s := range steps {
		s.mutate()
		got := c.Stats()
		if want := freshStats(c); got != want {
			t.Errorf("%s: observed stale stats:\n got %+v\nwant %+v", s.name, got, want)
		}
		// The cache must also be coherent after the next plant evaluation.
		c.Advance(c.LastTick + 1)
		got = c.Stats()
		if want := freshStats(c); got != want {
			t.Errorf("%s: stale stats after Advance:\n got %+v\nwant %+v", s.name, got, want)
		}
	}

	// Direct observability check: a power toggle must show up immediately,
	// not at the next Advance.
	if err := c.Move(3, 4, c.LastTick); err != nil { // evacuate so PowerOff is legal
		t.Fatal(err)
	}
	before := c.Stats().ServersOn
	if err := c.PowerOff(3); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ServersOn; got != before-1 {
		t.Errorf("ServersOn = %d after PowerOff, want %d", got, before-1)
	}
}

// TestAdvanceRederivesInjectedFaults pins that sensor faults do not outlive
// the tick they were injected in: twin clusters advance in lockstep, one
// has garbage written over a stride of servers' sensors and one server
// hard-failed and rebooted, and the next Advance must leave both with the
// same bits in every column and the same aggregate.
func TestAdvanceRederivesInjectedFaults(t *testing.T) {
	cfg := smallCfg()
	cfg.Enclosures, cfg.Standalone = 5, 10
	// Flat demand, so nothing but the fault distinguishes tick 2 from tick 1:
	// a plant that skipped servers with unchanged inputs would keep the
	// garbage.
	set := func() *trace.Set {
		s := &trace.Set{Name: "levels"}
		for i := 0; i < 30; i++ {
			s.Traces = append(s.Traces, flat("w", 100, 0.05+0.9*float64(i%10)/9))
		}
		return s
	}
	clean, faulty := mustNew(t, cfg, set()), mustNew(t, cfg, set())
	for _, c := range []*Cluster{clean, faulty} {
		for i := 0; i < c.NumServers(); i += 3 {
			c.SetPState(i, 4) // some servers capped, some not
		}
		c.Advance(0)
		c.Advance(1)
	}
	for i := 1; i < faulty.NumServers(); i += 4 {
		faulty.SetSensorReadings(i, 7, -3, 1e6)
	}
	faulty.ForceOff(2)
	faulty.PowerOn(2)
	clean.Advance(2)
	faulty.Advance(2)
	for i := 0; i < clean.NumServers(); i++ {
		for _, col := range []struct {
			name string
			get  func(*Cluster, int) float64
		}{
			{"util", (*Cluster).Util}, {"real util", (*Cluster).RealUtil},
			{"power", (*Cluster).Power}, {"demand sum", (*Cluster).DemandSum},
		} {
			if a, b := col.get(clean, i), col.get(faulty, i); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("server %d %s = %v after the fault, want %v", i, col.name, b, a)
			}
		}
	}
	if a, b := clean.Stats(), faulty.Stats(); statsBits(a) != statsBits(b) {
		t.Errorf("stats differ:\n clean  %+v\n faulty %+v", a, b)
	}
}

// concurrentRun is a work-stealing dispatcher over three goroutines that
// honours AdvanceWith's run contract, so both the unit advance and the
// demand-cache fill really run concurrently.
func concurrentRun(n int, fn func(u int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := int(next.Add(1)) - 1; u < n; u = int(next.Add(1)) - 1 {
				fn(u)
			}
		}()
	}
	wg.Wait()
}

// statsBits flattens a FleetStats for an exact comparison.
func statsBits(st FleetStats) [13]uint64 {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	return [13]uint64{
		uint64(st.Tick), math.Float64bits(st.GroupPower), math.Float64bits(st.DemandWork),
		math.Float64bits(st.DeliveredWork), uint64(st.ServersOn), uint64(st.ViolSM),
		math.Float64bits(st.ViolSMWatts), uint64(st.ViolEM), uint64(st.EnclosureObs),
		b(st.ViolGM), math.Float64bits(st.HeadroomGrp), math.Float64bits(st.HeadroomEnc),
		math.Float64bits(st.HeadroomLoc),
	}
}

// TestAdvanceWithMatchesAdvance drives twin clusters, one through the serial
// Advance and one through AdvanceWith on a concurrent dispatcher, and
// requires every sensor column and every FleetStats field to match bitwise
// on every tick. 2517 VMs is not a multiple of the 1024-VM fill span, 100
// ticks cross four demand-cache fills, and ScaleDemand drops the cache
// mid-block so one fill starts off the 32-tick grid.
func TestAdvanceWithMatchesAdvance(t *testing.T) {
	const vms, ticks, scaleAt = 2517, 100, 45
	set := func() *trace.Set {
		s := &trace.Set{Name: "varied"}
		for i := 0; i < vms; i++ {
			// 50 samples, so the 100-tick run also reads wrapped samples.
			d := make([]float64, 50)
			for k := range d {
				d[k] = 0.05 + 0.9*math.Abs(math.Sin(float64(i)*12.9898+float64(k)*78.233))
			}
			s.Traces = append(s.Traces, &trace.Trace{Name: "v", Class: "varied", Demand: d})
		}
		return s
	}
	cfg := smallCfg()
	cfg.Enclosures, cfg.BladesPerEnclosure, cfg.Standalone = 100, 20, vms-2000
	serial, sharded := mustNew(t, cfg, set()), mustNew(t, cfg, set())
	for k := 0; k < ticks; k++ {
		for _, c := range []*Cluster{serial, sharded} {
			if k == scaleAt {
				c.ScaleDemand(0.8)
			}
			if k%10 == 0 {
				// Move a stride of servers to a deeper P-state so capped and
				// uncapped servers both occur.
				for i := k % 7; i < vms; i += 7 {
					c.SetPState(i, (k/10)%3)
				}
			}
		}
		serial.Advance(k)
		sharded.AdvanceWith(k, concurrentRun)
		for i := 0; i < vms; i++ {
			if math.Float64bits(serial.Power(i)) != math.Float64bits(sharded.Power(i)) ||
				math.Float64bits(serial.Util(i)) != math.Float64bits(sharded.Util(i)) ||
				math.Float64bits(serial.RealUtil(i)) != math.Float64bits(sharded.RealUtil(i)) {
				t.Fatalf("tick %d server %d: serial (%v, %v, %v) sharded (%v, %v, %v)", k, i,
					serial.Power(i), serial.Util(i), serial.RealUtil(i),
					sharded.Power(i), sharded.Util(i), sharded.RealUtil(i))
			}
		}
		if a, b := serial.Stats(), sharded.Stats(); statsBits(a) != statsBits(b) {
			t.Fatalf("tick %d: stats differ:\n serial  %+v\n sharded %+v", k, a, b)
		}
	}
}
