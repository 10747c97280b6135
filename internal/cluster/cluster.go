// Package cluster models the physical plant of the simulation: servers with
// P-states, blade enclosures, the group (rack / data center), and the
// virtual machines placed on the servers. It is the "system" box of the
// paper's feedback loops — controllers read its sensors (utilization, power)
// and drive its actuators (P-state, placement, machine on/off).
//
// Per-server state lives in struct-of-arrays columns owned by Cluster —
// contiguous []float64/[]int/[]bool slices — so the per-tick plant walk and
// the control laws stream through memory instead of pointer-chasing a
// []*Server. Outside this package the columns are reached only through the
// typed accessor API (c.Power(i), c.SetPState(i, p), ...) and the read-only
// FleetView; the columns themselves are never handed out (DESIGN.md §12).
package cluster

import (
	"fmt"
	"sync/atomic"

	"nopower/internal/model"
	"nopower/internal/obs/prof"
	"nopower/internal/trace"
)

// VM is one workload: a demand trace plus its current placement.
type VM struct {
	// ID indexes the VM inside its cluster.
	ID int
	// Trace supplies the demand series (fraction of a full-speed server).
	Trace *trace.Trace
	// Server is the index of the hosting server.
	Server int
	// MigratingUntil is the first tick at which a pending migration's
	// performance penalty no longer applies (exclusive bound).
	MigratingUntil int
}

// Enclosure is a blade enclosure: a set of blades sharing power provisioning.
type Enclosure struct {
	// ID indexes the enclosure.
	ID int
	// Servers lists member server indices.
	Servers []int
	// StaticCap is CAP_ENC, the enclosure's fixed thermal budget.
	StaticCap float64
	// DynCap is cap_enc after GM re-provisioning.
	DynCap float64
	// Power is the summed member draw from the latest Advance.
	Power float64
}

// Config assembles a cluster.
type Config struct {
	// Enclosures is the number of blade enclosures.
	Enclosures int
	// BladesPerEnclosure is the enclosure width (20 in the paper).
	BladesPerEnclosure int
	// Standalone is the number of non-blade servers.
	Standalone int
	// Model is the hardware calibration for every server (homogeneous
	// clusters; use SetModel afterwards for heterogeneous setups).
	Model *model.Model
	// Models optionally assigns a per-server calibration, indexed by server
	// ID in construction order (enclosure blades first, then standalone) —
	// the heterogeneous-fleet path, typically produced by
	// model.Distribution.Models. When set its length must equal the fleet
	// size; nil entries fall back to Model. Servers sharing a profile should
	// share the *model.Model instance (Distribution.Models guarantees this):
	// New validates each distinct instance once, and the EC law hoists the
	// per-model P0 frequency across runs of servers sharing a pointer.
	Models []*model.Model
	// CapOffGrp, CapOffEnc, CapOffLoc are the budget headrooms: budgets are
	// (1-off) of the level's maximum draw. The paper's base is 20-15-10 =
	// 0.20/0.15/0.10.
	CapOffGrp, CapOffEnc, CapOffLoc float64
	// AlphaV is the virtualization overhead added to VM demand (10 %).
	AlphaV float64
	// AlphaM is the migration performance penalty (10 %).
	AlphaM float64
	// MigrationTicks is how long the penalty lasts after a move.
	MigrationTicks int
}

// Cluster is the full plant. Per-server mutable state is columnar: parallel
// slices indexed by server ID, owned by the cluster and reached through the
// accessor API below.
type Cluster struct {
	// Per-server columns. Invariant: all have length NumServers() and are
	// never resized or re-sliced after New — accessors hand out values, not
	// slice views, so no caller can retain or alias a column.
	on        []bool
	pstate    []int
	staticCap []float64 // CAP_LOC: the fixed thermal budget per machine
	dynCap    []float64 // cap_loc after EM/GM re-provisioning
	util      []float64 // r: apparent utilization in [0,1]
	realUtil  []float64 // f_C in full-speed units: util * Capacity(pstate)
	power     []float64 // Watts
	demandSum []float64 // f_D including virtualization overhead
	model     []*model.Model
	encOf     []int   // containing enclosure index, -1 for standalone
	srvVMs    [][]int // hosted VM IDs (placement bookkeeping)

	Enclosures []*Enclosure
	VMs        []VM
	// StaticCapGrp is CAP_GRP, the group's fixed thermal budget.
	StaticCapGrp float64
	// FacilityCapGrp is the facility manager's IT-power budget (utility feed
	// and cooling capacity, DESIGN.md §15). Zero means "no facility budget":
	// the FM floors every write at a positive watt, so zero is unambiguous
	// and old checkpoints (which decode the missing field as zero) restore
	// onto exactly the pre-facility behavior.
	FacilityCapGrp float64
	// GroupPower is the total draw from the latest Advance.
	GroupPower float64
	// Cfg preserves the construction parameters.
	Cfg Config

	// Per-tick performance accounting from the latest Advance.
	DemandWork    float64 // useful work demanded this tick (full-speed units)
	DeliveredWork float64 // useful work delivered this tick
	// LastTick records the tick of the latest Advance (-1 before the first).
	LastTick int

	// Fixed work decomposition for Advance: one unit per enclosure plus
	// fixed-size chunks of the standalone servers. The partition depends only
	// on the topology (never on worker count), so serial and sharded advances
	// accumulate in exactly the same order — the determinism contract.
	units   [][]int
	unitEnc []int // enclosure ID per unit, -1 for standalone chunks
	// partials is pooled per-unit scratch, reused every tick (and consumed in
	// place by the tree reduction) so the hot path allocates nothing.
	partials   []unitPartial
	standalone []int // cached StandaloneServers result (topology is immutable)

	// Demand block cache: a tick-major transposition of every VM's demand.
	// Reading trace sample k for 100k VMs chases 100k scattered Trace
	// allocations per tick; the cache pays that pointer chase once per
	// demandBlockTicks ticks (a tiled transpose with sequential reads per
	// trace) and turns the per-tick read into one contiguous row scan. The
	// cached values are the exact bits Trace.At would return, so the cache is
	// invisible to results; the mutators that may rewrite traces
	// (ScaleDemand, RestoreState) drop it. dcBase is the first cached tick,
	// -1 when invalid.
	dcBase int
	dcData []float64

	stats FleetStats
	// statsValid is atomic because the sharded EC/VMEC epochs call SetPState
	// from concurrent workers, and each change invalidates the cache.
	statsValid atomic.Bool

	// rec, when non-nil, receives phase spans for the plant's internal
	// steps (demand-row fill, unit evaluation, tree reduction). Wired by
	// the engine's observability setup; nil is the zero-overhead default
	// (one pointer check per Advance).
	rec prof.Recorder
}

// SetProfiler attaches (or, with nil, detaches) the phase recorder the
// plant reports its per-tick internals to: prof.PhaseDemandRow around the
// demand-row lookup, prof.PhaseAdvance around the unit evaluation, and
// prof.PhaseReduce around the pairwise tree reduction. Timing never feeds
// back into the simulation, so profiled and unprofiled runs are bitwise
// identical.
func (c *Cluster) SetProfiler(r prof.Recorder) { c.rec = r }

// FleetStats is the immutable per-tick aggregate produced by Advance's single
// pass over the fleet. The metrics collector, the engine's live gauges, and
// the time-series recorder all consume this one struct instead of re-scanning
// every server — one fleet walk per tick instead of three.
type FleetStats struct {
	// Tick is the tick the aggregate was computed at.
	Tick int
	// GroupPower, DemandWork, DeliveredWork mirror the cluster fields.
	GroupPower    float64
	DemandWork    float64
	DeliveredWork float64
	// ServersOn counts powered servers.
	ServersOn int
	// ViolSM counts powered servers over CAP_LOC; ViolSMWatts is the summed
	// overshoot of those servers (W).
	ViolSM      int
	ViolSMWatts float64
	// ViolEM counts enclosures over CAP_ENC; EnclosureObs is the enclosure
	// count (the violation-rate denominator).
	ViolEM       int
	EnclosureObs int
	// ViolGM reports whether the group draw exceeds CAP_GRP.
	ViolGM bool
	// HeadroomGrp/Enc/Loc are the per-level distances to the static budgets
	// (minimum over enclosures / powered servers; 0 when the level has no
	// member). Negative means violation.
	HeadroomGrp float64
	HeadroomEnc float64
	HeadroomLoc float64
}

// unitPartial is one unit's contribution to the fleet aggregate.
type unitPartial struct {
	power, demand, delivered, violMass float64
	hEnc, hLoc                         float64
	on, violSM, violEM                 int
	hasEnc, hasLoc                     bool
}

// combine merges two partials: sums for the additive fields, min-merge for
// the headrooms. It is the tree reduction's node operator.
func combine(a, b unitPartial) unitPartial {
	out := unitPartial{
		power: a.power + b.power, demand: a.demand + b.demand,
		delivered: a.delivered + b.delivered, violMass: a.violMass + b.violMass,
		on: a.on + b.on, violSM: a.violSM + b.violSM, violEM: a.violEM + b.violEM,
		hEnc: a.hEnc, hasEnc: a.hasEnc, hLoc: a.hLoc, hasLoc: a.hasLoc,
	}
	if b.hasEnc && (!out.hasEnc || b.hEnc < out.hEnc) {
		out.hEnc, out.hasEnc = b.hEnc, true
	}
	if b.hasLoc && (!out.hasLoc || b.hLoc < out.hLoc) {
		out.hLoc, out.hasLoc = b.hLoc, true
	}
	return out
}

// reduceTree folds the partials pairwise, level by level, in place. The fold
// shape is a pure function of len(ps) — independent of which goroutine
// produced which partial and of timing — so float sums associate identically
// on every run at every shard count.
func reduceTree(ps []unitPartial) unitPartial {
	n := len(ps)
	if n == 0 {
		return unitPartial{}
	}
	for n > 1 {
		half := n / 2
		for i := 0; i < half; i++ {
			ps[i] = combine(ps[2*i], ps[2*i+1])
		}
		if n%2 == 1 {
			ps[half] = ps[n-1]
			half++
		}
		n = half
	}
	return ps[0]
}

// New builds a cluster and places the workloads one-per-server in order
// (the paper's initial deployment: 180 workloads on 180 servers).
func New(cfg Config, workloads *trace.Set) (*Cluster, error) {
	if cfg.Model == nil && cfg.Models == nil {
		return nil, fmt.Errorf("cluster: nil model")
	}
	if cfg.Model != nil {
		if err := cfg.Model.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	if cfg.Enclosures < 0 || cfg.BladesPerEnclosure < 0 || cfg.Standalone < 0 {
		return nil, fmt.Errorf("cluster: negative topology parameters")
	}
	n := cfg.Enclosures*cfg.BladesPerEnclosure + cfg.Standalone
	if n == 0 {
		return nil, fmt.Errorf("cluster: no servers")
	}
	if cfg.Models != nil {
		if len(cfg.Models) != n {
			return nil, fmt.Errorf("cluster: %d per-server models for %d servers", len(cfg.Models), n)
		}
		validated := map[*model.Model]bool{}
		for i, m := range cfg.Models {
			if m == nil {
				if cfg.Model == nil {
					return nil, fmt.Errorf("cluster: per-server model %d is nil and no default Model set", i)
				}
				continue
			}
			if validated[m] {
				continue
			}
			if err := m.Validate(); err != nil {
				return nil, fmt.Errorf("cluster: server %d: %w", i, err)
			}
			validated[m] = true
		}
	}
	if workloads == nil || workloads.Len() == 0 {
		return nil, fmt.Errorf("cluster: no workloads")
	}
	if workloads.Len() > n {
		return nil, fmt.Errorf("cluster: %d workloads exceed %d servers", workloads.Len(), n)
	}
	if cfg.MigrationTicks < 0 {
		return nil, fmt.Errorf("cluster: negative migration window")
	}

	c := &Cluster{Cfg: cfg, LastTick: -1}
	c.on = make([]bool, n)
	c.pstate = make([]int, n)
	c.staticCap = make([]float64, n)
	c.dynCap = make([]float64, n)
	c.util = make([]float64, n)
	c.realUtil = make([]float64, n)
	c.power = make([]float64, n)
	c.demandSum = make([]float64, n)
	c.model = make([]*model.Model, n)
	c.encOf = make([]int, n)
	c.srvVMs = make([][]int, n)

	id := 0
	for e := 0; e < cfg.Enclosures; e++ {
		enc := &Enclosure{ID: e}
		for b := 0; b < cfg.BladesPerEnclosure; b++ {
			c.on[id] = true
			c.model[id] = cfg.modelFor(id)
			c.encOf[id] = e
			enc.Servers = append(enc.Servers, id)
			id++
		}
		c.Enclosures = append(c.Enclosures, enc)
	}
	for s := 0; s < cfg.Standalone; s++ {
		c.on[id] = true
		c.model[id] = cfg.modelFor(id)
		c.encOf[id] = -1
		id++
	}
	c.recomputeBudgets()

	c.dcBase = -1
	c.dcData = make([]float64, demandBlockTicks*workloads.Len())
	// Pack the initial one-VM hosted lists into a single backing array so a
	// fresh fleet's per-server walks stay sequential in memory; capacity is
	// pinned to 1 so a later Move reallocates instead of clobbering a
	// neighbor's slot.
	c.VMs = make([]VM, 0, workloads.Len())
	arena := make([]int, workloads.Len())
	for i, tr := range workloads.Traces {
		c.VMs = append(c.VMs, VM{ID: i, Trace: tr, Server: i, MigratingUntil: 0})
		arena[i] = i
		c.srvVMs[i] = arena[i : i+1 : i+1]
	}
	return c, nil
}

// modelFor resolves server id's construction-time calibration: the
// per-server entry when one is set, the homogeneous default otherwise.
func (cfg *Config) modelFor(id int) *model.Model {
	if cfg.Models != nil && cfg.Models[id] != nil {
		return cfg.Models[id]
	}
	return cfg.Model
}

// NumServers returns the fleet size.
func (c *Cluster) NumServers() int { return len(c.on) }

// On reports whether server i is powered.
func (c *Cluster) On(i int) bool { return c.on[i] }

// PState returns server i's current ACPI operating point.
func (c *Cluster) PState(i int) int { return c.pstate[i] }

// StaticCap returns CAP_LOC, server i's fixed thermal budget.
func (c *Cluster) StaticCap(i int) float64 { return c.staticCap[i] }

// DynCap returns cap_loc, server i's budget after EM/GM re-provisioning.
func (c *Cluster) DynCap(i int) float64 { return c.dynCap[i] }

// Util returns server i's apparent utilization r in [0,1] (latest Advance).
func (c *Cluster) Util(i int) float64 { return c.util[i] }

// RealUtil returns f_C, served load in full-speed units (latest Advance).
func (c *Cluster) RealUtil(i int) float64 { return c.realUtil[i] }

// Power returns server i's draw in Watts (latest Advance).
func (c *Cluster) Power(i int) float64 { return c.power[i] }

// DemandSum returns f_D, server i's summed VM demand including the
// virtualization overhead (latest Advance).
func (c *Cluster) DemandSum(i int) float64 { return c.demandSum[i] }

// ServerModel returns server i's hardware calibration.
func (c *Cluster) ServerModel(i int) *model.Model { return c.model[i] }

// EnclosureOf returns the containing enclosure index, -1 for standalone.
func (c *Cluster) EnclosureOf(i int) int { return c.encOf[i] }

// ServerVMs returns the IDs of the VMs hosted on server i. The slice is the
// cluster's own bookkeeping — callers must treat it as read-only and must
// not retain it across mutations.
func (c *Cluster) ServerVMs(i int) []int { return c.srvVMs[i] }

// Capacity returns server i's current compute capacity in full-speed units.
func (c *Cluster) Capacity(i int) float64 {
	if !c.on[i] {
		return 0
	}
	return c.model[i].Capacity(c.pstate[i])
}

// invalidateStats is the single place the stats cache is invalidated; every
// mutator calls it. The load before the store keeps a sharded epoch from
// bouncing the flag's cache line between workers: only the first change
// after an Advance writes it.
func (c *Cluster) invalidateStats() {
	if c.statsValid.Load() {
		c.statsValid.Store(false)
	}
}

// SetPState moves server i to ACPI operating point p. Writing the current
// value is a no-op, so a controller re-asserting its setting every tick
// does not invalidate the stats cache.
func (c *Cluster) SetPState(i, p int) {
	if c.pstate[i] == p {
		return
	}
	c.pstate[i] = p
	c.invalidateStats()
}

// SetStaticCap sets CAP_LOC for server i (thermal re-provisioning, e.g. the
// cooling manager). The stats cache is invalidated because violation
// accounting compares against the budget; writing the current value is a
// no-op, so a manager re-asserting an unchanged budget keeps the cache.
func (c *Cluster) SetStaticCap(i int, watts float64) {
	if c.staticCap[i] == watts {
		return
	}
	c.staticCap[i] = watts
	c.invalidateStats()
}

// SetDynCap sets cap_loc for server i (EM/GM re-provisioning). DynCap is
// advisory between controllers and never read by Advance or FleetStats.
func (c *Cluster) SetDynCap(i int, watts float64) {
	c.dynCap[i] = watts
}

// SetSensorReadings overwrites server i's sensor columns — the fault
// injection surface (dropouts, noise). The readings last until the next
// Advance, which re-derives every powered server's sensors from the plant
// exactly as it would have without the perturbation.
func (c *Cluster) SetSensorReadings(i int, util, realUtil, power float64) {
	c.util[i] = util
	c.realUtil[i] = realUtil
	c.power[i] = power
	c.invalidateStats()
}

// SetModel swaps one server's hardware calibration (heterogeneous clusters)
// and refreshes the budget hierarchy accordingly.
func (c *Cluster) SetModel(server int, m *model.Model) error {
	if server < 0 || server >= len(c.on) {
		return fmt.Errorf("cluster: server %d out of range", server)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	c.model[server] = m
	if c.pstate[server] >= m.NumPStates() {
		c.pstate[server] = m.NumPStates() - 1
	}
	c.recomputeBudgets()
	return nil
}

// recomputeBudgets derives the static caps from each level's maximum draw:
// CAP_LOC = (1-offLoc)*serverMax, CAP_ENC = (1-offEnc)*Σ bladeMax,
// CAP_GRP = (1-offGrp)*Σ serverMax (paper Fig. 5, "x% off ... max").
func (c *Cluster) recomputeBudgets() {
	groupMax := 0.0
	for i := range c.on {
		c.staticCap[i] = (1 - c.Cfg.CapOffLoc) * c.model[i].MaxPower()
		c.dynCap[i] = c.staticCap[i]
		groupMax += c.model[i].MaxPower()
	}
	for _, e := range c.Enclosures {
		encMax := 0.0
		for _, sid := range e.Servers {
			encMax += c.model[sid].MaxPower()
		}
		e.StaticCap = (1 - c.Cfg.CapOffEnc) * encMax
		e.DynCap = e.StaticCap
	}
	c.StaticCapGrp = (1 - c.Cfg.CapOffGrp) * groupMax
	c.invalidateStats()
}

// Move relocates a VM to another server, updating placement bookkeeping and
// starting the migration penalty window. Moving to the current host is a
// no-op. The destination is powered on if needed.
func (c *Cluster) Move(vmID, toServer, tick int) error {
	if vmID < 0 || vmID >= len(c.VMs) {
		return fmt.Errorf("cluster: vm %d out of range", vmID)
	}
	if toServer < 0 || toServer >= len(c.on) {
		return fmt.Errorf("cluster: server %d out of range", toServer)
	}
	vm := &c.VMs[vmID]
	if vm.Server == toServer {
		return nil
	}
	from := vm.Server
	for i, id := range c.srvVMs[from] {
		if id == vmID {
			c.srvVMs[from] = append(c.srvVMs[from][:i], c.srvVMs[from][i+1:]...)
			break
		}
	}
	c.srvVMs[toServer] = append(c.srvVMs[toServer], vmID)
	if !c.on[toServer] {
		c.PowerOn(toServer)
	}
	vm.Server = toServer
	vm.MigratingUntil = tick + c.Cfg.MigrationTicks
	c.invalidateStats()
	return nil
}

// PowerOff shuts a server down. It refuses to power off a non-empty machine:
// the VMC must evacuate first.
func (c *Cluster) PowerOff(server int) error {
	if n := len(c.srvVMs[server]); n > 0 {
		return fmt.Errorf("cluster: server %d still hosts %d VMs", server, n)
	}
	c.forceOff(server)
	return nil
}

// ForceOff cuts a server's power regardless of hosted VMs — the hard-failure
// path (work on a dead machine is lost, and Advance accounts it as such).
// Orderly shutdowns go through PowerOff.
func (c *Cluster) ForceOff(server int) {
	c.forceOff(server)
}

func (c *Cluster) forceOff(server int) {
	c.on[server] = false
	c.util[server], c.realUtil[server], c.demandSum[server] = 0, 0, 0
	c.power[server] = c.model[server].OffWatts
	c.invalidateStats()
}

// PowerOn brings a server up at full frequency with a fresh control state.
func (c *Cluster) PowerOn(server int) {
	c.on[server] = true
	c.pstate[server] = 0
	c.invalidateStats()
}

// ScaleDemand multiplies every VM's demand trace by factor, in place — the
// load re-provisioning event. The demand block cache holds the old values,
// so it is dropped and refilled from the scaled traces on the next Advance.
func (c *Cluster) ScaleDemand(factor float64) {
	for i := range c.VMs {
		c.VMs[i].Trace.Scale(factor)
	}
	c.dcBase = -1
	c.invalidateStats()
}

// standaloneUnitSize is the fixed chunk width for standalone servers in the
// unit partition — the enclosure width of the paper's topology, so standalone
// units carry about as much work as enclosure units.
const standaloneUnitSize = 20

// ensureUnits builds the fixed unit partition lazily (once per cluster):
// enclosure units first, then fixed-size chunks of the standalone servers.
func (c *Cluster) ensureUnits() {
	if c.units != nil {
		return
	}
	for _, e := range c.Enclosures {
		c.units = append(c.units, e.Servers)
		c.unitEnc = append(c.unitEnc, e.ID)
	}
	for id := range c.on {
		if c.encOf[id] < 0 {
			c.standalone = append(c.standalone, id)
		}
	}
	for lo := 0; lo < len(c.standalone); lo += standaloneUnitSize {
		hi := lo + standaloneUnitSize
		if hi > len(c.standalone) {
			hi = len(c.standalone)
		}
		c.units = append(c.units, c.standalone[lo:hi])
		c.unitEnc = append(c.unitEnc, -1)
	}
	c.partials = make([]unitPartial, len(c.units))
}

// Units returns the fixed work partition Advance uses: one unit per
// enclosure, then fixed-size chunks of standalone servers, each a slice of
// server IDs. Sharded controllers tick these same units so their work
// decomposes exactly like the plant's. The returned slices are shared and
// must not be modified.
func (c *Cluster) Units() [][]int {
	c.ensureUnits()
	return c.units
}

// Advance evaluates the plant for one tick: per-server demand, utilization,
// power, and the cluster-wide work ledger. Controllers should run before
// Advance within a tick; sensors reflect the tick being advanced.
//
// Totals are accumulated per unit and combined with a fixed-shape tree
// reduction (see reduceTree); AdvanceWith runs the same decomposition with
// the units evaluated concurrently, and produces bitwise-identical results.
func (c *Cluster) Advance(tick int) {
	c.AdvanceWith(tick, nil)
}

// AdvanceWith is Advance with the per-unit work dispatched through run: run
// must call fn(u) exactly once for every u in [0,n), in any order and on any
// goroutines, and return only when all calls have completed. A tick that
// refills the demand cache calls run twice, first for the fill and then for
// the units. A nil run evaluates everything serially. Units (and fill spans)
// touch disjoint state and the reduction happens after run returns, so the
// results are bitwise identical to the serial Advance regardless of
// scheduling.
func (c *Cluster) AdvanceWith(tick int, run func(n int, fn func(u int))) {
	c.ensureUnits()
	c.LastTick = tick
	rec := c.rec
	var t0 int64
	if rec != nil {
		t0 = rec.Now()
	}
	// Fill the demand row before dispatch: units then share it read-only, so
	// the sharded path never races on the cache.
	row := c.demandRow(tick, run)
	var t1 int64
	if rec != nil {
		t1 = rec.Now()
		rec.Record(tick, prof.PhaseDemandRow, -1, t0, t1-t0)
	}
	if run == nil {
		for u := range c.units {
			c.advanceUnit(tick, u, row)
		}
	} else {
		run(len(c.units), func(u int) { c.advanceUnit(tick, u, row) })
	}
	var t2 int64
	if rec != nil {
		t2 = rec.Now()
		rec.Record(tick, prof.PhaseAdvance, -1, t1, t2-t1)
	}
	tot := reduceTree(c.partials)
	if rec != nil {
		rec.Record(tick, prof.PhaseReduce, -1, t2, rec.Now()-t2)
	}
	c.GroupPower = tot.power
	c.DemandWork = tot.demand
	c.DeliveredWork = tot.delivered
	c.stats = FleetStats{
		Tick: tick, GroupPower: tot.power, DemandWork: tot.demand, DeliveredWork: tot.delivered,
		ServersOn: tot.on, ViolSM: tot.violSM, ViolSMWatts: tot.violMass,
		ViolEM: tot.violEM, EnclosureObs: len(c.Enclosures),
		ViolGM:      tot.power > c.CapGrp(),
		HeadroomGrp: c.CapGrp() - tot.power,
	}
	if tot.hasEnc {
		c.stats.HeadroomEnc = tot.hEnc
	}
	if tot.hasLoc {
		c.stats.HeadroomLoc = tot.hLoc
	}
	c.statsValid.Store(true)
}

// demandBlockTicks is the number of ticks transposed per demand-cache fill.
// 32 amortizes the scattered per-trace reads well while keeping the cache at
// 32 rows x len(VMs) columns (25 MB at 100k VMs).
const demandBlockTicks = 32

// demandFillSpan is the VM-column width of one parallel demand-cache fill
// task: wide enough that a span's 32 row segments (8 KB each) dwarf the
// cache lines it shares with its neighbours, narrow enough that a 100k-VM
// fleet yields ~100 spans to balance across workers.
const demandFillSpan = 1024

// demandRow returns the raw per-VM demand for one tick, indexed by VM ID,
// filling the block cache (through run, when non-nil) when the tick falls
// outside it.
func (c *Cluster) demandRow(tick int, run func(n int, fn func(u int))) []float64 {
	if c.dcBase < 0 || tick < c.dcBase || tick >= c.dcBase+demandBlockTicks {
		c.fillDemand(tick, run)
	}
	n := len(c.VMs)
	off := (tick - c.dcBase) * n
	return c.dcData[off : off+n]
}

// fillDemand transposes the next demandBlockTicks ticks of every trace into
// tick-major rows. A nil run fills every column serially; otherwise run
// fills fixed demandFillSpan-wide column spans concurrently. Spans write
// disjoint columns with the exact bits Trace.At returns, so the cache
// contents do not depend on the dispatch.
func (c *Cluster) fillDemand(tick int, run func(n int, fn func(u int))) {
	n := len(c.VMs)
	if cap(c.dcData) < demandBlockTicks*n {
		c.dcData = make([]float64, demandBlockTicks*n)
	}
	c.dcData = c.dcData[:demandBlockTicks*n]
	c.dcBase = tick
	if run == nil {
		c.fillColumns(tick, 0, n)
		return
	}
	run((n+demandFillSpan-1)/demandFillSpan, func(s int) {
		lo := s * demandFillSpan
		c.fillColumns(tick, lo, min(lo+demandFillSpan, n))
	})
}

// fillColumns fills cache columns [lo,hi). The transpose is tiled so both
// sides stay cache-resident: each trace contributes a short sequential run
// of samples, and each row is written in short sequential segments.
func (c *Cluster) fillColumns(tick, lo, hi int) {
	n := len(c.VMs)
	const tile = 32
	for i0 := lo; i0 < hi; i0 += tile {
		i1 := min(i0+tile, hi)
		for i := i0; i < i1; i++ {
			tr := c.VMs[i].Trace
			for j := 0; j < demandBlockTicks; j++ {
				c.dcData[j*n+i] = tr.At(tick + j)
			}
		}
	}
}

// advanceUnit evaluates one unit's servers and accumulates its partial of the
// fleet aggregate. Units are disjoint, so concurrent calls with distinct u
// never race. Every powered server is evaluated every tick: the linear
// plant model costs less than the bookkeeping it would take to skip it.
func (c *Cluster) advanceUnit(tick, u int, row []float64) {
	p := &c.partials[u]
	*p = unitPartial{}
	overhead := 1 + c.Cfg.AlphaV
	alphaM := 1 - c.Cfg.AlphaM
	// Hoist every column into a local: at 100k servers the repeated
	// pointer-plus-bounds work per c.col[sid] access is measurable, and the
	// compiler cannot cache the loads itself across the mutating loop body.
	vms := c.VMs
	srvVMs, on, models := c.srvVMs, c.on, c.model
	util, realUtil, demandSum := c.util, c.realUtil, c.demandSum
	power, pstate, staticCap := c.power, c.pstate, c.staticCap
	for _, sid := range c.units[u] {
		hosted := srvVMs[sid]
		if !on[sid] {
			util[sid], realUtil[sid], demandSum[sid] = 0, 0, 0
			off := models[sid].OffWatts
			power[sid] = off
			p.power += off
			// Work demanded by VMs on an off server is lost entirely. (The
			// VMC never leaves VMs on off machines; this is failure-mode
			// accounting.)
			for _, vmID := range hosted {
				p.demand += row[vmID]
			}
			continue
		}
		fD := 0.0
		for _, vmID := range hosted {
			fD += row[vmID] * overhead
		}
		m := models[sid]
		cap := m.Capacity(pstate[sid])
		fC := fD
		if fC > cap {
			fC = cap
		}
		r := 0.0
		if cap > 0 {
			r = fC / cap
		}
		pw := m.Power(pstate[sid], r)
		util[sid], realUtil[sid], demandSum[sid], power[sid] = r, fC, fD, pw
		p.power += pw
		p.on++
		if cap := staticCap[sid]; pw > cap {
			p.violSM++
			p.violMass += pw - cap
		}
		if h := staticCap[sid] - pw; !p.hasLoc || h < p.hLoc {
			p.hLoc, p.hasLoc = h, true
		}

		// Useful work excludes the virtualization overhead: the served
		// fraction applies proportionally to every VM's raw demand, and
		// migrating VMs lose an extra AlphaM slice. An uncapped server has
		// fC == fD, and IEEE x/x is exactly 1.
		served := 1.0
		if fD > 0 {
			served = fC / fD
		}
		for _, vmID := range hosted {
			d := row[vmID]
			got := d * served
			if tick < vms[vmID].MigratingUntil {
				got *= alphaM
			}
			p.demand += d
			p.delivered += got
		}
	}
	if eid := c.unitEnc[u]; eid >= 0 {
		e := c.Enclosures[eid]
		e.Power = p.power
		if e.Power > e.StaticCap {
			p.violEM++
		}
		p.hEnc, p.hasEnc = e.StaticCap-e.Power, true
	}
}

// Stats returns the fleet aggregate of the latest Advance. Before the first
// Advance — or after a mutator invalidated the cache (power toggles, restore,
// model swaps) — it recomputes the aggregate from the current sensor values
// without re-evaluating the plant. Direct writes to exported fields (e.g.
// StaticCapGrp) are not tracked; inside an engine run that never matters
// because Advance repopulates the stats after the controllers act.
func (c *Cluster) Stats() FleetStats {
	if !c.statsValid.Load() {
		c.recomputeStats()
	}
	return c.stats
}

// recomputeStats rebuilds FleetStats from current sensors (aggregation only).
func (c *Cluster) recomputeStats() {
	st := FleetStats{
		Tick: c.LastTick, GroupPower: c.GroupPower,
		DemandWork: c.DemandWork, DeliveredWork: c.DeliveredWork,
		EnclosureObs: len(c.Enclosures),
		ViolGM:       c.GroupPower > c.CapGrp(),
		HeadroomGrp:  c.CapGrp() - c.GroupPower,
	}
	hasLoc := false
	for i := range c.on {
		if !c.on[i] {
			continue
		}
		st.ServersOn++
		if c.power[i] > c.staticCap[i] {
			st.ViolSM++
			st.ViolSMWatts += c.power[i] - c.staticCap[i]
		}
		if h := c.staticCap[i] - c.power[i]; !hasLoc || h < st.HeadroomLoc {
			st.HeadroomLoc, hasLoc = h, true
		}
	}
	hasEnc := false
	for _, e := range c.Enclosures {
		if e.Power > e.StaticCap {
			st.ViolEM++
		}
		if h := e.StaticCap - e.Power; !hasEnc || h < st.HeadroomEnc {
			st.HeadroomEnc, hasEnc = h, true
		}
	}
	c.stats = st
	c.statsValid.Store(true)
}

// OnCount returns the number of powered servers.
func (c *Cluster) OnCount() int {
	n := 0
	for _, on := range c.on {
		if on {
			n++
		}
	}
	return n
}

// StandaloneServers returns the indices of servers outside any enclosure.
// The topology is immutable, so the result is computed once and shared —
// callers must treat it as read-only.
func (c *Cluster) StandaloneServers() []int {
	c.ensureUnits()
	return c.standalone
}

// CapGrp returns the effective group budget: the operator/cooling budget in
// StaticCapGrp tightened by the facility manager's budget when one is set
// (min rule — exactly how the paper's architecture composes references).
// With no facility manager in the stack FacilityCapGrp stays zero and this
// is bit-for-bit StaticCapGrp, so pre-facility runs are unchanged.
func (c *Cluster) CapGrp() float64 {
	if c.FacilityCapGrp > 0 && c.FacilityCapGrp < c.StaticCapGrp {
		return c.FacilityCapGrp
	}
	return c.StaticCapGrp
}

// MaxGroupPower returns the sum of per-server maximum draws.
func (c *Cluster) MaxGroupPower() float64 {
	sum := 0.0
	for _, m := range c.model {
		sum += m.MaxPower()
	}
	return sum
}

// CheckInvariants validates placement bookkeeping: every VM appears exactly
// once, on the server it claims, and off servers host nothing. Used by tests
// and enabled in the simulator's paranoid mode.
func (c *Cluster) CheckInvariants() error {
	seen := make(map[int]int, len(c.VMs))
	for sid := range c.on {
		for _, vmID := range c.srvVMs[sid] {
			if vmID < 0 || vmID >= len(c.VMs) {
				return fmt.Errorf("server %d lists unknown vm %d", sid, vmID)
			}
			if prev, dup := seen[vmID]; dup {
				return fmt.Errorf("vm %d on both server %d and %d", vmID, prev, sid)
			}
			seen[vmID] = sid
			if c.VMs[vmID].Server != sid {
				return fmt.Errorf("vm %d claims server %d but is listed on %d",
					vmID, c.VMs[vmID].Server, sid)
			}
		}
		if !c.on[sid] && len(c.srvVMs[sid]) > 0 {
			return fmt.Errorf("off server %d hosts %d VMs", sid, len(c.srvVMs[sid]))
		}
	}
	if len(seen) != len(c.VMs) {
		return fmt.Errorf("%d of %d VMs placed", len(seen), len(c.VMs))
	}
	return nil
}
