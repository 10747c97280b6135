// Package sim is the epoch-driven simulation engine: it schedules the
// controller stack against the cluster plant tick by tick and feeds the
// metrics collector. Within a tick, controllers run in the order they were
// registered (the coordinated stack registers coarsest-first: VMC, GM, EM,
// SM, EC, CAP), then the plant advances, so every controller acts on the
// previous interval's sensors — the standard discrete feedback-loop timing.
package sim

import (
	"context"
	"fmt"
	"reflect"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"nopower/internal/cluster"
	"nopower/internal/metrics"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
)

// Controller is anything that can act on the cluster at a tick. Individual
// controllers decide internally whether a given tick is one of their epochs
// (k % period == 0).
type Controller interface {
	// Name identifies the controller for logs and error messages.
	Name() string
	// Tick lets the controller observe sensors and drive actuators.
	Tick(k int, cl *cluster.Cluster)
}

// Traceable is implemented by controllers that can emit structured
// actuation events. The engine injects its Tracer into every Traceable
// controller before the first tick of a run.
type Traceable interface {
	SetTracer(obs.Tracer)
}

// MetricsAware is implemented by controllers that publish their own gauges
// into the engine's registry (e.g. the FM's np_facility_* series). The
// engine injects Metrics before the first tick of a run — nil when no
// registry is attached, which must detach the handles. Gauge writes mirror
// values the controller computes anyway, so implementations stay bitwise
// transparent: metrics-on and metrics-off runs produce identical results.
type MetricsAware interface {
	SetMetrics(*obs.Registry)
}

// ShardTicker is implemented by controllers whose per-epoch work decomposes
// over the cluster's fixed unit partition — the per-server controllers (EC,
// VMEC), whose state is strictly per-server. When the engine runs with
// Shards > 1 and no tracer attached, it calls TickShard once per unit,
// concurrently, instead of Tick; implementations must touch only the listed
// servers' state (plus their own per-server state) so disjoint calls never
// race. Tracing forces the serial Tick path: concurrent shards would emit
// events in a nondeterministic order.
type ShardTicker interface {
	Controller
	// TickShard performs the controller's epoch work for the given servers.
	TickShard(k int, cl *cluster.Cluster, servers []int)
}

// Engine runs one simulation. Run may be called repeatedly; the tick counter
// persists, so Run(1) in a loop behaves identically to one long Run(n) —
// callers use this to observe the plant between ticks.
type Engine struct {
	// Cluster is the plant under control.
	Cluster *cluster.Cluster
	// Controllers run each tick in registration order.
	Controllers []Controller
	// Paranoid re-validates cluster invariants every tick (slow; tests).
	Paranoid bool
	// Collector accumulates metrics; a fresh one is used if nil.
	Collector *metrics.Collector
	// OnTick, if set, is invoked after each plant advance — the hook for
	// time-series recorders and custom probes.
	OnTick func(k int, cl *cluster.Cluster)
	// Tracer, if set before the first Run, receives structured actuation
	// events from every Traceable controller. Within a tick every event is
	// emitted before Collector.Observe sees the advanced plant, so a trace
	// always explains the sample that follows it. Nil disables tracing (the
	// zero-overhead default).
	Tracer obs.Tracer
	// Metrics, if set before the first Run, streams live runtime telemetry
	// into the registry: per-controller tick latency and counts, group
	// power, servers-on, and budget-violation counters — the signals the
	// Collector only reports at Finalize, available mid-run on /metrics.
	Metrics *obs.Registry
	// Prof, if set before the first Run, records a per-phase timeline of
	// every tick into a preallocated span ring: one sim.tick span per tick,
	// ctl.<Name> spans on each controller's epoch ticks, the plant's
	// demand-row/advance/reduce internals, per-worker shard spans, observer
	// fan-out, and checkpoint saves — exportable as a Chrome trace
	// (npsim -timeline). When Metrics is also set, every span mirrors into
	// np_sim_phase_seconds{phase=...} histograms, the plant advance
	// publishes per-worker np_sim_shard_seconds gauges plus the
	// np_sim_shard_imbalance ratio, and per-tick GC/allocation deltas feed
	// np_sim_gc_cycles_total / np_sim_heap_alloc_bytes_total. Timing never
	// feeds back into the simulation, so profiled runs are bitwise
	// identical to unprofiled ones. Nil disables profiling entirely (the
	// zero-overhead default: one pointer check per site).
	Prof *prof.Profiler
	// FaultPolicy selects what happens when a controller panics mid-tick:
	// fail the run with a *ControllerPanicError (FaultFail, the default),
	// disable the controller and continue in degraded mode (FaultDegrade),
	// or re-raise the panic (FaultPropagate). See fault.go.
	FaultPolicy FaultPolicy
	// CheckpointEvery, when positive, invokes OnCheckpoint with a full
	// Snapshot every n completed ticks (after ticks n, 2n, …). Zero disables
	// checkpointing with no per-tick overhead.
	CheckpointEvery int
	// OnCheckpoint receives periodic snapshots (see CheckpointEvery) and, on
	// a run-failing controller panic, one final best-effort snapshot marked
	// MidTick. A returned error fails the run — a checkpointed run that can
	// no longer checkpoint is losing the very durability it was asked for.
	OnCheckpoint func(*Snapshot) error
	// Shards bounds the goroutines used to advance the plant and tick
	// ShardTicker controllers within a single simulation tick. 0 and 1 both
	// mean serial. This is an execution knob, not simulation state: the fixed
	// unit partition and tree reduction make the results bitwise identical at
	// every value (DESIGN.md §11), so it is deliberately absent from
	// snapshots.
	Shards int

	tick           int
	aux            []auxEntry
	obsWired       bool
	wiredCtls      []Controller
	wiredMetrics   *obs.Registry
	wiredTracer    bool
	wiredProf      *prof.Profiler
	runFn          func(n int, fn func(u int))
	ctl            []ctlInstr
	disabled       []bool // controllers knocked out by FaultDegrade
	failsafeBroken []bool // fail-safes that themselves panicked
	mTicks         *obs.Counter
	mPower         *obs.Gauge
	mOn            *obs.Gauge
	mViolSM        *obs.Counter
	mViolEM        *obs.Counter
	mViolGM        *obs.Counter

	// Profiling state (prof.go). profRec is non-nil exactly when Prof is
	// wired. profTick/profPhase parameterize the next runUnits dispatch's
	// worker spans; both are written before goroutines are spawned, so the
	// workers read them race-free. shardStart/shardBusy hold per-worker
	// start and busy time of the latest measured dispatch (one slot per
	// worker, joined before it is read).
	profRec      *teeRecorder
	ctlProf      []ctlProf
	profTick     int
	profPhase    string
	shardStart   []int64
	shardBusy    []int64
	shardWorkers int
	mShard       []*obs.Gauge
	mImbalance   *obs.Gauge
	mGCCycles    *obs.Counter
	mAllocBytes  *obs.Counter
	rmSamples    []rtmetrics.Sample
	gcPrev       uint64
	allocPrev    uint64
}

// auxEntry is one auxiliary Snapshotter registered via RegisterAux.
type auxEntry struct {
	name string
	s    Snapshotter
}

// ctlInstr caches one controller's metric handles so the per-tick hot path
// never touches the registry map.
type ctlInstr struct {
	ticks   *obs.Counter
	seconds *obs.Histogram
}

// wireObservability injects the tracer into Traceable controllers and
// resolves the metric handles. Called from RunContext so callers can set the
// fields any time before the first tick. The wiring is fingerprinted against
// the controller stack and the observability fields, so a stack replaced
// between runs (rebuilt after a snapshot restore, trimmed after degraded
// mode) is re-wired instead of reporting latency/ticks under the old run's
// controller labels.
func (e *Engine) wireObservability() {
	if e.obsCurrent() {
		return
	}
	if e.obsWired && len(e.wiredCtls) != len(e.Controllers) && len(e.disabled) != len(e.Controllers) {
		// A different-shaped stack invalidates the per-index fault masks too —
		// unless a mask of the new shape was just installed (RestoreSnapshot
		// sets it after the caller swaps in the rebuilt stack), in which case
		// it describes the new stack and must survive the rewire.
		e.disabled, e.failsafeBroken = nil, nil
	}
	e.obsWired = true
	e.wiredCtls = append(e.wiredCtls[:0], e.Controllers...)
	e.wiredMetrics = e.Metrics
	e.wiredTracer = e.Tracer != nil
	if e.runFn == nil {
		e.runFn = e.runUnits
	}
	e.wireProfiling()
	if e.Tracer != nil {
		for _, c := range e.Controllers {
			if tc, ok := c.(Traceable); ok {
				tc.SetTracer(e.Tracer)
			}
		}
	}
	for _, c := range e.Controllers {
		if mc, ok := c.(MetricsAware); ok {
			mc.SetMetrics(e.Metrics)
		}
	}
	if e.Metrics == nil {
		e.ctl = nil
		return
	}
	e.ctl = make([]ctlInstr, len(e.Controllers))
	for i, c := range e.Controllers {
		e.ctl[i] = ctlInstr{
			ticks:   e.Metrics.Counter(obs.SeriesName("np_controller_ticks_total", "controller", c.Name())),
			seconds: e.Metrics.Histogram(obs.SeriesName("np_controller_tick_seconds", "controller", c.Name())),
		}
	}
	e.mTicks = e.Metrics.Counter("np_sim_ticks_total")
	e.mPower = e.Metrics.Gauge("np_sim_group_power_watts")
	e.mOn = e.Metrics.Gauge("np_sim_servers_on")
	e.mViolSM = e.Metrics.Counter(`np_sim_budget_violations_total{level="sm"}`)
	e.mViolEM = e.Metrics.Counter(`np_sim_budget_violations_total{level="em"}`)
	e.mViolGM = e.Metrics.Counter(`np_sim_budget_violations_total{level="gm"}`)
}

// obsCurrent reports whether the existing wiring still matches the engine's
// stack and observability fields. Controllers are compared by identity;
// tracers only by nil-ness (a tracer's dynamic type — e.g. a multi-tracer
// slice — need not be comparable).
func (e *Engine) obsCurrent() bool {
	if !e.obsWired || e.wiredMetrics != e.Metrics || e.wiredTracer != (e.Tracer != nil) ||
		e.wiredProf != e.Prof {
		return false
	}
	if len(e.wiredCtls) != len(e.Controllers) {
		return false
	}
	for i, c := range e.Controllers {
		if !sameController(e.wiredCtls[i], c) {
			return false
		}
	}
	return true
}

// sameController reports whether two stack slots hold the same controller.
// Non-comparable implementations (legal, if unusual) can't prove identity,
// so they conservatively force a rewire.
func sameController(a, b Controller) bool {
	if a == nil || b == nil {
		return a == b
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// observeMetrics streams the advanced tick's fleet aggregate into the
// registry — the same single-pass FleetStats the collector consumes, so the
// live violation counters and the finalized rates can never disagree.
func (e *Engine) observeMetrics(st cluster.FleetStats) {
	e.mTicks.Inc()
	e.mPower.Set(st.GroupPower)
	e.mOn.Set(float64(st.ServersOn))
	e.mViolSM.Add(int64(st.ViolSM))
	e.mViolEM.Add(int64(st.ViolEM))
	if st.ViolGM {
		e.mViolGM.Inc()
	}
}

// maxClaimBlock caps how many consecutive units a runUnits worker claims at
// once; see runUnits.
const maxClaimBlock = 64

// runUnits dispatches fn over n units using up to e.Shards goroutines (the
// calling goroutine participates). Workers claim contiguous blocks of
// min(maxClaimBlock, ceil(n/(4·workers))) units from a shared atomic index:
// claiming stays work-stealing, so the load balances however uneven the
// units, while a block keeps neighbouring units (whose server columns and
// partial slots share cache lines) on one core and touches the shared
// counter once per block. The 4·workers divisor leaves about four blocks per
// worker, so a small dispatch still spreads: the 180-server fleet's 12 units
// are claimed one at a time. The WaitGroup join gives the caller a
// happens-before edge over every unit's writes. Which goroutine runs which
// unit never affects results: units touch disjoint state and all reductions
// happen after the join.
func (e *Engine) runUnits(n int, fn func(u int)) {
	workers := e.Shards
	if workers > n {
		workers = n
	}
	// Worker busy times are measured only for dispatches the caller tagged
	// with a phase (the plant advance every tick, a ShardTicker on its epoch
	// ticks) — profTick/profPhase are written before the goroutines spawn,
	// so the workers read them race-free. The caller turns them into spans
	// with recordShards once the tagged call returns.
	rec := e.profRec
	if rec != nil && e.profPhase == "" {
		rec = nil
	}
	if rec != nil {
		e.shardWorkers = max(workers, 1)
		if len(e.shardBusy) < e.shardWorkers {
			e.shardStart = make([]int64, e.shardWorkers)
			e.shardBusy = make([]int64, e.shardWorkers)
		}
	}
	if workers <= 1 {
		if rec == nil {
			for u := 0; u < n; u++ {
				fn(u)
			}
			return
		}
		start := rec.Now()
		for u := 0; u < n; u++ {
			fn(u)
		}
		e.shardStart[0], e.shardBusy[0] = start, rec.Now()-start
		return
	}
	block := min(maxClaimBlock, (n+4*workers-1)/(4*workers))
	var next atomic.Int64
	work := func(w int) {
		var start int64
		if rec != nil {
			start = rec.Now()
		}
		for {
			hi := int(next.Add(int64(block)))
			lo := hi - block
			if lo >= n {
				break
			}
			for u := lo; u < min(hi, n); u++ {
				fn(u)
			}
		}
		if rec != nil {
			e.shardStart[w], e.shardBusy[w] = start, rec.Now()-start
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		w := i
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// New builds an engine over a cluster and a controller stack.
func New(cl *cluster.Cluster, controllers ...Controller) *Engine {
	return &Engine{Cluster: cl, Controllers: controllers, Collector: &metrics.Collector{}}
}

// InvariantError reports a cluster-invariant violation caught by Paranoid
// mode, carrying the tick and the last controller that acted so callers can
// branch on the structured fields instead of parsing a formatted string.
type InvariantError struct {
	// Tick is the simulation tick the violation was detected at.
	Tick int
	// Controller names the last controller that ran before the check
	// ("plant" when the stack is empty).
	Controller string
	// Err is the underlying cluster invariant failure.
	Err error
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: tick %d after %s: %v", e.Tick, e.Controller, e.Err)
}

func (e *InvariantError) Unwrap() error { return e.Err }

// Run advances the simulation for the given number of ticks and returns the
// collector for finalization. It is RunContext without cancellation.
func (e *Engine) Run(ticks int) (*metrics.Collector, error) {
	return e.RunContext(context.Background(), ticks)
}

// RunContext is Run with cooperative cancellation: it checks the context
// between ticks and stops as soon as it is cancelled or its deadline
// passes, wrapping context.Cause(ctx) — so a cancellation cause installed
// via context.WithCancelCause (e.g. a job server's suspend signal) is
// recoverable from the returned error with errors.Is. Invariant violations in Paranoid mode
// surface as a *InvariantError; controller panics surface per FaultPolicy
// (a *ControllerPanicError under the default FaultFail).
//
// Zero ticks is a no-op that returns the collector unchanged, so callers
// probing the plant between ticks can pass a computed count without
// special-casing zero; negative counts are an error.
func (e *Engine) RunContext(ctx context.Context, ticks int) (*metrics.Collector, error) {
	if ticks < 0 {
		return nil, fmt.Errorf("sim: ticks %d", ticks)
	}
	if e.Collector == nil {
		e.Collector = &metrics.Collector{}
	}
	if ticks == 0 {
		return e.Collector, nil
	}
	e.wireObservability()
	rec := e.profRec
	done := ctx.Done()
	for i := 0; i < ticks; i++ {
		if done != nil {
			select {
			case <-done:
				// context.Cause, not ctx.Err(): a caller that cancelled with a
				// cause (the daemon's suspend-for-eviction vs. tenant cancel)
				// gets that cause back through errors.Is on the run error.
				return nil, fmt.Errorf("sim: stopped at tick %d: %w", e.tick, context.Cause(ctx))
			default:
			}
		}
		k := e.tick
		var tickStart int64
		if rec != nil {
			tickStart = rec.Now()
		}
		for ci := range e.Controllers {
			if e.disabled != nil && e.disabled[ci] {
				e.failSafeTick(ci, k)
				continue
			}
			var start time.Time
			if e.Metrics != nil {
				start = time.Now()
			}
			// A ctl span is recorded only on the controller's epoch ticks —
			// the ticks its law actually runs (Epochal) — so idle passes of a
			// long-period controller do not flood the ring.
			var ctlStart int64
			epoch := rec != nil && k%e.ctlProf[ci].period == 0
			if epoch {
				ctlStart = rec.Now()
			}
			perr := e.tickOne(ci, k)
			if epoch {
				rec.Record(k, e.ctlProf[ci].phase, -1, ctlStart, rec.Now()-ctlStart)
			}
			if e.Metrics != nil {
				e.ctl[ci].seconds.Observe(time.Since(start).Seconds())
				e.ctl[ci].ticks.Inc()
			}
			if perr != nil {
				e.recordPanic(perr)
				if e.FaultPolicy != FaultDegrade {
					e.checkpointOnPanic()
					return nil, perr
				}
				e.disable(ci, k)
				e.failSafeTick(ci, k)
			}
		}
		if e.Shards > 1 {
			if rec != nil {
				e.profTick, e.profPhase = k, prof.PhaseShard
			}
			e.Cluster.AdvanceWith(k, e.runFn)
			if rec != nil {
				e.recordShards()
				e.observeShards()
			}
		} else {
			e.Cluster.Advance(k)
		}
		// One shared fleet pass feeds the registry gauges, the collector, and
		// (via Stats inside Series.Observe) the OnTick recorders.
		var obsStart int64
		if rec != nil {
			obsStart = rec.Now()
		}
		st := e.Cluster.Stats()
		if e.Metrics != nil {
			e.observeMetrics(st)
		}
		e.Collector.ObserveStats(st)
		if e.OnTick != nil {
			e.OnTick(k, e.Cluster)
		}
		if rec != nil {
			rec.Record(k, prof.PhaseObserve, -1, obsStart, rec.Now()-obsStart)
		}
		if e.Paranoid {
			if err := e.Cluster.CheckInvariants(); err != nil {
				return nil, &InvariantError{Tick: k, Controller: lastName(e.Controllers), Err: err}
			}
		}
		e.tick++
		if err := e.checkpointDue(); err != nil {
			return nil, err
		}
		if rec != nil {
			rec.Record(k, prof.PhaseTick, -1, tickStart, rec.Now()-tickStart)
			e.sampleRuntime(k)
		}
	}
	return e.Collector, nil
}

// Tick reports the number of ticks run so far.
func (e *Engine) Tick() int { return e.tick }

func lastName(cs []Controller) string {
	if len(cs) == 0 {
		return "plant"
	}
	return cs[len(cs)-1].Name()
}

// Baseline runs a controller-free simulation (all machines on at P0) over a
// cluster built by the supplied factory and returns the average group power
// — the paper's §5.1 baseline "where no controllers for power management are
// turned on".
func Baseline(build func() (*cluster.Cluster, error), ticks int) (float64, error) {
	return BaselineContext(context.Background(), build, ticks)
}

// BaselineContext is Baseline with cooperative cancellation.
func BaselineContext(ctx context.Context, build func() (*cluster.Cluster, error), ticks int) (float64, error) {
	cl, err := build()
	if err != nil {
		return 0, err
	}
	eng := New(cl)
	col, err := eng.RunContext(ctx, ticks)
	if err != nil {
		return 0, err
	}
	return col.Finalize(0).AvgPower, nil
}
