// Fault tolerance for the controller stack. The paper's §3.2 claim is that
// the coordination architecture accommodates dynamism — including component
// failure: every level keeps operating when a sibling or parent dies,
// because the levels communicate only through references and budgets. This
// file gives the engine the machinery to exercise that claim: a panic
// sandbox around every Controller.Tick, a policy for what happens next, and
// a fail-safe fallback channel so a dead capping controller leaves its scope
// in a bounded state instead of an uncontrolled one.
package sim

import (
	"fmt"
	"runtime/debug"
	"sync"

	"nopower/internal/cluster"
	"nopower/internal/obs"
)

// FaultPolicy selects what the engine does when a controller panics during
// Tick.
type FaultPolicy int

const (
	// FaultFail (the default) recovers the panic and fails the run with a
	// *ControllerPanicError — the whole process no longer dies, but the run
	// does not continue either.
	FaultFail FaultPolicy = iota
	// FaultDegrade recovers the panic, disables the offending controller for
	// the rest of the run, and keeps simulating. If the controller exposes a
	// fail-safe (FailSafer), the engine invokes it every subsequent tick in
	// the controller's stack slot, so a dead capper's scope is pinned to its
	// most conservative posture instead of drifting uncontrolled.
	FaultDegrade
	// FaultPropagate re-raises the panic (the pre-sandbox behavior; debug
	// tool for getting the original stack in a test failure).
	FaultPropagate
)

// String renders the policy for logs and flags.
func (p FaultPolicy) String() string {
	switch p {
	case FaultFail:
		return "fail"
	case FaultDegrade:
		return "degrade"
	case FaultPropagate:
		return "propagate"
	}
	return fmt.Sprintf("FaultPolicy(%d)", int(p))
}

// FaultPolicyByName resolves a CLI name to a policy.
func FaultPolicyByName(name string) (FaultPolicy, error) {
	switch name {
	case "fail":
		return FaultFail, nil
	case "degrade":
		return FaultDegrade, nil
	case "propagate":
		return FaultPropagate, nil
	}
	return FaultFail, fmt.Errorf("sim: unknown fault policy %q (fail, degrade, propagate)", name)
}

// ControllerPanicError reports a panic recovered from a controller's Tick.
type ControllerPanicError struct {
	// Tick is the simulation tick the panic happened at.
	Tick int
	// Controller names the controller that panicked.
	Controller string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *ControllerPanicError) Error() string {
	return fmt.Sprintf("sim: controller %s panicked at tick %d: %v", e.Controller, e.Tick, e.Value)
}

// FailSafer is implemented by controllers that can drive their scope to a
// fail-safe posture after being disabled (FaultDegrade): the SM pins servers
// to the lowest P-state (through r_ref in the coordinated wiring), the
// EM/GM fall back to the static budget hierarchy. FailSafe is called in the
// controller's stack slot on every tick the controller would have seen,
// so the posture holds against later writers of the same actuators.
type FailSafer interface {
	FailSafe(k int, cl *cluster.Cluster)
}

// Disabled lists the names of controllers disabled by FaultDegrade, in
// stack order.
func (e *Engine) Disabled() []string {
	var out []string
	for ci, c := range e.Controllers {
		if e.disabled != nil && ci < len(e.disabled) && e.disabled[ci] {
			out = append(out, c.Name())
		}
	}
	return out
}

// tickOne runs one controller's tick inside the panic sandbox. It returns
// nil on success and the recovered panic otherwise; under FaultPropagate the
// sandbox is disarmed and the panic unwinds as before.
func (e *Engine) tickOne(ci, k int) (perr *ControllerPanicError) {
	c := e.Controllers[ci]
	if stc, ok := c.(ShardTicker); ok && e.Shards > 1 && e.Tracer == nil {
		if e.profRec != nil {
			// Tag the dispatch so runUnits records ctl.<Name>.shard worker
			// spans — but only on the controller's epoch ticks; an empty
			// phase tells runUnits not to measure the idle pass.
			e.profPhase = ""
			if k%e.ctlProf[ci].period == 0 {
				e.profTick, e.profPhase = k, e.ctlProf[ci].shardPhase
			}
		}
		perr := e.tickShards(stc, k)
		if e.profRec != nil && e.profPhase != "" {
			e.recordShards()
		}
		return perr
	}
	if e.FaultPolicy != FaultPropagate {
		defer func() {
			if r := recover(); r != nil {
				perr = &ControllerPanicError{
					Tick: k, Controller: c.Name(), Value: r, Stack: string(debug.Stack()),
				}
			}
		}()
	}
	c.Tick(k, e.Cluster)
	return nil
}

// tickShards runs one ShardTicker's epoch across the cluster's unit
// partition on the engine's worker pool. Panics are recovered per unit even
// under FaultPropagate — a panic on a worker goroutine would kill the whole
// process — and the surviving panic is chosen deterministically (lowest unit
// index) before being re-raised or returned on the calling goroutine per the
// engine's policy.
func (e *Engine) tickShards(c ShardTicker, k int) *ControllerPanicError {
	units := e.Cluster.Units()
	var (
		mu       sync.Mutex
		perr     *ControllerPanicError
		perrUnit int
	)
	e.runFn(len(units), func(u int) {
		defer func() {
			if r := recover(); r != nil {
				stack := string(debug.Stack())
				mu.Lock()
				if perr == nil || u < perrUnit {
					perr = &ControllerPanicError{
						Tick: k, Controller: c.Name(), Value: r, Stack: stack,
					}
					perrUnit = u
				}
				mu.Unlock()
			}
		}()
		c.TickShard(k, e.Cluster, units[u])
	})
	if perr != nil && e.FaultPolicy == FaultPropagate {
		panic(perr.Value)
	}
	return perr
}

// failSafeTick invokes a disabled controller's fail-safe, itself sandboxed:
// a panicking fail-safe is recorded and the slot goes inert, but never takes
// the run down — degraded mode must not have a second failure mode of its
// own.
func (e *Engine) failSafeTick(ci, k int) {
	fs, ok := e.Controllers[ci].(FailSafer)
	if !ok || (e.failsafeBroken != nil && e.failsafeBroken[ci]) {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if e.failsafeBroken == nil {
				e.failsafeBroken = make([]bool, len(e.Controllers))
			}
			e.failsafeBroken[ci] = true
			e.recordPanic(&ControllerPanicError{
				Tick: k, Controller: e.Controllers[ci].Name() + "/failsafe",
				Value: r, Stack: string(debug.Stack()),
			})
		}
	}()
	fs.FailSafe(k, e.Cluster)
}

// recordPanic publishes a recovered panic on the tracer and the metrics
// registry. The panic path is cold, so resolving registry handles here (as
// opposed to the cached hot-path handles) is fine.
func (e *Engine) recordPanic(perr *ControllerPanicError) {
	if e.Tracer != nil {
		e.Tracer.Emit(obs.Event{
			Tick: perr.Tick, Controller: perr.Controller, Actuator: obs.ActControl,
			Reason: "panic",
		})
	}
	if e.Metrics != nil {
		e.Metrics.Counter(obs.SeriesName("np_sim_controller_panics_total", "controller", perr.Controller)).Inc()
	}
}

// disable marks controller ci dead for the rest of the run and publishes the
// transition.
func (e *Engine) disable(ci, k int) {
	if e.disabled == nil {
		e.disabled = make([]bool, len(e.Controllers))
	}
	e.disabled[ci] = true
	name := e.Controllers[ci].Name()
	if e.Tracer != nil {
		e.Tracer.Emit(obs.Event{
			Tick: k, Controller: name, Actuator: obs.ActControl,
			Reason: "disabled",
		})
	}
	if e.Metrics != nil {
		e.Metrics.Counter(obs.SeriesName("np_sim_controller_disabled_total", "controller", name)).Inc()
		e.Metrics.Gauge("np_sim_controllers_disabled").Set(float64(len(e.Disabled())))
	}
}
