package cluster

import (
	"math"
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
	c := mustNew(t, cfg, smallSet(6, 0.3))
	c.Advance(0)
	m := cfg.Model
	wantFD := 0.3 * 1.1
	for i := 0; i < c.NumServers(); i++ {
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
	if math.Abs(c.GroupPower-6*m.Power(0, wantFD)) > 1e-9 {
		t.Errorf("group power = %v", c.GroupPower)
	}
	if math.Abs(c.Enclosures[0].Power-4*m.Power(0, wantFD)) > 1e-9 {
		t.Errorf("enclosure power = %v", c.Enclosures[0].Power)
	}
	// All demand served: delivered == demanded == 6*0.3.
	if math.Abs(c.DemandWork-1.8) > 1e-12 || math.Abs(c.DeliveredWork-1.8) > 1e-12 {
		t.Errorf("work ledger = %v / %v", c.DeliveredWork, c.DemandWork)
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
