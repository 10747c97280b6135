package cluster

import (
	"fmt"

	"nopower/internal/model"
)

// This file is the plant's half of the checkpoint/restore subsystem
// (DESIGN.md §10): State captures every field a running simulation mutates,
// RestoreState reinstates them onto a cluster rebuilt by the same
// construction path. Construction-time configuration — topology, Cfg — is
// deliberately NOT captured: restore targets a cluster rebuilt
// deterministically from the same scenario, and only overlays the mutable
// state on top. Per-server model NAMES are the one exception: SetModel can
// swap a calibration mid-run, so the snapshot records each server's model
// name and restore re-resolves differing names through the profile registry
// (see ServerState.Model). Trace demand is captured only when a runtime
// event (sim.ScaleDemand) has mutated it in place; pristine demand is
// rebuilt.

// ServerState is the mutable per-server plant state.
type ServerState struct {
	On     bool
	PState int
	// StaticCap is captured even though it looks like configuration: the
	// cooling manager and budget events rewrite it at runtime.
	StaticCap float64
	DynCap    float64
	Util      float64
	RealUtil  float64
	Power     float64
	DemandSum float64
	VMs       []int
	// Model names the server's calibration at capture time, but ONLY when a
	// mid-run SetModel swap moved it off the construction model — before
	// this field a resumed run silently kept the construction model. The
	// common unswapped case captures "" — the "keep the rebuilt cluster's
	// model" sentinel (the FacilityCapGrp pattern) — which keeps snapshots
	// small, makes State/RestoreState round-trip byte-identically across
	// the field's introduction, and lets checkpoints from before the field
	// (which decode it as "") restore bit-identically. Restore resolves
	// non-"" names via the profile registry; a non-registry derived model
	// (Pick's "BladeA/3states") swapped in mid-run fails the restore
	// loudly, which beats silently resuming on the wrong hardware.
	Model string
}

// EnclosureState is the mutable per-enclosure plant state.
type EnclosureState struct {
	StaticCap float64
	DynCap    float64
	Power     float64
}

// VMState is the mutable per-VM state. Demand is captured only when a
// runtime event rewrote the trace in place (trace.Trace.Mutated); nil means
// the rebuilt cluster's pristine demand is already correct. Skipping
// pristine demand keeps snapshots kilobytes instead of megabytes — the
// traces dominate everything else combined.
type VMState struct {
	Server         int
	MigratingUntil int
	Demand         []float64
}

// State is a complete copy of the cluster's mutable state.
type State struct {
	Servers      []ServerState
	Enclosures   []EnclosureState
	VMs          []VMState
	StaticCapGrp float64
	// FacilityCapGrp was added with the facility subsystem. Checkpoints from
	// before it decode the missing field as zero — the "no facility budget"
	// sentinel — so old golden artifacts restore bit-identically.
	FacilityCapGrp float64
	GroupPower     float64
	DemandWork     float64
	DeliveredWork  float64
	LastTick       int
}

// State deep-copies the cluster's mutable state. The wire layout (field
// names and shapes) predates the columnar store and is frozen: checkpoints
// written by the array-of-structs engine restore onto the columnar cluster
// and vice versa (the aos-golden artifacts pin this).
func (c *Cluster) State() State {
	n := c.NumServers()
	st := State{
		Servers:        make([]ServerState, n),
		Enclosures:     make([]EnclosureState, len(c.Enclosures)),
		VMs:            make([]VMState, len(c.VMs)),
		StaticCapGrp:   c.StaticCapGrp,
		FacilityCapGrp: c.FacilityCapGrp,
		GroupPower:     c.GroupPower,
		DemandWork:     c.DemandWork,
		DeliveredWork:  c.DeliveredWork,
		LastTick:       c.LastTick,
	}
	for i := 0; i < n; i++ {
		st.Servers[i] = ServerState{
			On: c.on[i], PState: c.pstate[i],
			StaticCap: c.staticCap[i], DynCap: c.dynCap[i],
			Util: c.util[i], RealUtil: c.realUtil[i], Power: c.power[i], DemandSum: c.demandSum[i],
			VMs: append([]int(nil), c.srvVMs[i]...),
		}
		if name := c.model[i].Name; name != c.Cfg.modelFor(i).Name {
			st.Servers[i].Model = name
		}
	}
	for i, e := range c.Enclosures {
		st.Enclosures[i] = EnclosureState{StaticCap: e.StaticCap, DynCap: e.DynCap, Power: e.Power}
	}
	for i := range c.VMs {
		vm := &c.VMs[i]
		st.VMs[i] = VMState{Server: vm.Server, MigratingUntil: vm.MigratingUntil}
		if vm.Trace.Mutated {
			st.VMs[i].Demand = append([]float64(nil), vm.Trace.Demand...)
		}
	}
	return st
}

// RestoreState overlays a captured state onto a cluster with the same
// topology (same server, enclosure, and VM counts — i.e. one rebuilt from
// the same scenario). It rejects shape mismatches instead of guessing.
func (c *Cluster) RestoreState(st State) error {
	if len(st.Servers) != c.NumServers() {
		return fmt.Errorf("cluster: restore: %d servers in snapshot, cluster has %d",
			len(st.Servers), c.NumServers())
	}
	if len(st.Enclosures) != len(c.Enclosures) {
		return fmt.Errorf("cluster: restore: %d enclosures in snapshot, cluster has %d",
			len(st.Enclosures), len(c.Enclosures))
	}
	if len(st.VMs) != len(c.VMs) {
		return fmt.Errorf("cluster: restore: %d VMs in snapshot, cluster has %d",
			len(st.VMs), len(c.VMs))
	}
	for i, ss := range st.Servers {
		for _, vmID := range ss.VMs {
			if vmID < 0 || vmID >= len(c.VMs) {
				return fmt.Errorf("cluster: restore: server %d lists unknown vm %d", i, vmID)
			}
		}
	}
	// Resolve model swaps before mutating anything, so a bad snapshot
	// cannot leave the cluster half-restored. "" (pre-field checkpoints)
	// and a name matching the rebuilt cluster's model are no-ops; anything
	// else must resolve in the profile registry. Lookup caches nothing
	// across calls but servers restored to the same profile share one
	// instance here, preserving the EC law's same-model pointer hoist.
	var swapped map[string]*model.Model
	for i, ss := range st.Servers {
		if ss.Model == "" || ss.Model == c.model[i].Name {
			continue
		}
		m, ok := swapped[ss.Model]
		if !ok {
			var err error
			m, err = model.Lookup(ss.Model)
			if err != nil {
				return fmt.Errorf("cluster: restore: server %d: %w", i, err)
			}
			if swapped == nil {
				swapped = map[string]*model.Model{}
			}
			swapped[ss.Model] = m
		}
		if ss.PState < 0 || ss.PState >= m.NumPStates() {
			return fmt.Errorf("cluster: restore: server %d pstate %d out of range for model %s (%d states)",
				i, ss.PState, m.Name, m.NumPStates())
		}
	}
	for i, ss := range st.Servers {
		if ss.Model != "" && ss.Model != c.model[i].Name {
			c.model[i] = swapped[ss.Model]
		}
		c.on[i], c.pstate[i] = ss.On, ss.PState
		c.staticCap[i], c.dynCap[i] = ss.StaticCap, ss.DynCap
		c.util[i], c.realUtil[i], c.power[i], c.demandSum[i] = ss.Util, ss.RealUtil, ss.Power, ss.DemandSum
		c.srvVMs[i] = append([]int(nil), ss.VMs...)
	}
	for i, es := range st.Enclosures {
		e := c.Enclosures[i]
		e.StaticCap, e.DynCap, e.Power = es.StaticCap, es.DynCap, es.Power
	}
	for i, vs := range st.VMs {
		vm := &c.VMs[i]
		vm.Server = vs.Server
		vm.MigratingUntil = vs.MigratingUntil
		vm.Trace.Mutated = vs.Demand != nil
		if vs.Demand != nil {
			vm.Trace.Demand = append([]float64(nil), vs.Demand...)
		}
	}
	c.StaticCapGrp = st.StaticCapGrp
	c.FacilityCapGrp = st.FacilityCapGrp
	c.GroupPower = st.GroupPower
	c.DemandWork = st.DemandWork
	c.DeliveredWork = st.DeliveredWork
	c.LastTick = st.LastTick
	c.dcBase = -1 // traces may have been rewritten
	c.invalidateStats()
	return nil
}
