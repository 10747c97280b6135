package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"nopower/internal/cluster"
	"nopower/internal/obs"
	"nopower/internal/sim"
)

// epoch is the zero of every span timestamp in the process; monotonic
// nanoseconds since it are cheap to take and to compare across goroutines.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// timedCtl wraps one controller of an engine's stack and records, per tick,
// when the engine first called into it and when the latest call returned.
// It forwards every optional interface sim.Engine type-asserts, with the
// engine's own fallback when the wrapped controller lacks it: period 1 for
// Epochal, an error for Snapshotter, no-ops for FailSafer, Traceable and
// MetricsAware. ShardTicker changes which path the engine takes, so it is
// forwarded only by timedShardCtl, and only for controllers that have it.
type timedCtl struct {
	inner sim.Controller
	// k is the tick of the latest call; start and end bound that tick's
	// calls. TickShard calls run on several goroutines, hence atomics.
	k          atomic.Int64
	start, end atomic.Int64
	shardCalls atomic.Int64
}

func (c *timedCtl) Name() string { return c.inner.Name() }

// enter records the first call of tick k.
func (c *timedCtl) enter(k int) {
	if c.k.Load() == int64(k) {
		return
	}
	t := now()
	if old := c.k.Load(); old != int64(k) && c.k.CompareAndSwap(old, int64(k)) {
		c.start.Store(t)
	}
}

func (c *timedCtl) Tick(k int, cl *cluster.Cluster) {
	c.enter(k)
	c.inner.Tick(k, cl)
	c.end.Store(now())
}

func (c *timedCtl) EpochPeriod() int {
	if ep, ok := c.inner.(sim.Epochal); ok {
		return ep.EpochPeriod()
	}
	return 1
}

func (c *timedCtl) State() ([]byte, error) {
	if sn, ok := c.inner.(sim.Snapshotter); ok {
		return sn.State()
	}
	return nil, fmt.Errorf("perfbench: controller %s does not implement Snapshotter", c.Name())
}

func (c *timedCtl) Restore(data []byte) error {
	if sn, ok := c.inner.(sim.Snapshotter); ok {
		return sn.Restore(data)
	}
	return fmt.Errorf("perfbench: controller %s does not implement Snapshotter", c.Name())
}

func (c *timedCtl) FailSafe(k int, cl *cluster.Cluster) {
	if fs, ok := c.inner.(sim.FailSafer); ok {
		fs.FailSafe(k, cl)
	}
}

func (c *timedCtl) SetTracer(t obs.Tracer) {
	if tc, ok := c.inner.(sim.Traceable); ok {
		tc.SetTracer(t)
	}
}

func (c *timedCtl) SetMetrics(r *obs.Registry) {
	if mc, ok := c.inner.(sim.MetricsAware); ok {
		mc.SetMetrics(r)
	}
}

// timedShardCtl is timedCtl for a ShardTicker. The engine calls TickShard
// once per unit, concurrently; the tick's span runs from the first call in
// to the last call out.
type timedShardCtl struct {
	timedCtl
}

func (c *timedShardCtl) TickShard(k int, cl *cluster.Cluster, servers []int) {
	c.enter(k)
	c.inner.(sim.ShardTicker).TickShard(k, cl, servers)
	c.shardCalls.Add(1)
	c.end.Store(now())
}

// wrap returns the value to install in Engine.Controllers and its clock.
func wrap(c sim.Controller) (sim.Controller, *timedCtl) {
	if _, ok := c.(sim.ShardTicker); ok {
		w := &timedShardCtl{timedCtl{inner: c}}
		w.k.Store(-1)
		return w, &w.timedCtl
	}
	w := &timedCtl{inner: c}
	w.k.Store(-1)
	return w, w
}

// layerClock times one sim.Engine run layer by layer from outside the
// engine: each controller through its wrapper, and the plant phase as the
// gap between the last controller's return and the engine's OnTick call.
// A tick is the interval between consecutive OnTick calls (the first one
// starts when the clock is armed); what it holds beyond the controllers and
// the plant is the engine's own work: the context check, shard fan-out and
// join, and this clock's bookkeeping.
type layerClock struct {
	ctls    []*timedCtl
	ctlNs   []int64
	plantNs int64
	tickNs  int64
	ticks   int
	last    int64
}

// instrument swaps every controller of eng for a timing wrapper and chains
// the clock onto eng.OnTick. The wrappers only read the clock, so the run's
// results stay bitwise identical to an uninstrumented run. Call arm just
// before Run.
func instrument(eng *sim.Engine) *layerClock {
	lc := &layerClock{}
	for i, c := range eng.Controllers {
		installed, w := wrap(c)
		eng.Controllers[i] = installed
		lc.ctls = append(lc.ctls, w)
	}
	lc.ctlNs = make([]int64, len(lc.ctls))
	prev := eng.OnTick
	eng.OnTick = func(k int, cl *cluster.Cluster) {
		lc.onTick(k)
		if prev != nil {
			prev(k, cl)
		}
	}
	return lc
}

// arm starts the first tick's interval.
func (lc *layerClock) arm() { lc.last = now() }

func (lc *layerClock) onTick(k int) {
	t := now()
	var lastEnd int64
	for i, c := range lc.ctls {
		if c.k.Load() != int64(k) {
			continue
		}
		end := c.end.Load()
		lc.ctlNs[i] += end - c.start.Load()
		if end > lastEnd {
			lastEnd = end
		}
	}
	if lastEnd == 0 {
		lastEnd = lc.last
	}
	lc.plantNs += t - lastEnd
	lc.tickNs += t - lc.last
	lc.ticks++
	lc.last = t
}

// split is a run's time per tick, by layer.
type split struct {
	ticks   int
	tickNs  float64
	plantNs float64
	// engineNs is the tick less every controller and the plant.
	engineNs float64
	// ctlNs is keyed by the lower-cased controller name.
	ctlNs map[string]float64
}

// split folds the clock into per-tick means. It fails when a ShardTicker
// never saw a TickShard call although the engine ran sharded: the wrapper
// would then have sent it down the serial path and timed the wrong code.
func (lc *layerClock) split(shards int) (split, error) {
	s := split{ticks: lc.ticks, ctlNs: map[string]float64{}}
	if lc.ticks == 0 {
		return s, fmt.Errorf("perfbench: instrumented run saw no ticks")
	}
	n := float64(lc.ticks)
	s.tickNs = float64(lc.tickNs) / n
	s.plantNs = float64(lc.plantNs) / n
	var ctl int64
	for i, c := range lc.ctls {
		if _, ok := c.inner.(sim.ShardTicker); ok && shards > 1 && c.shardCalls.Load() == 0 {
			return s, fmt.Errorf("perfbench: %s ran serially at shards=%d", c.Name(), shards)
		}
		ctl += lc.ctlNs[i]
		s.ctlNs[strings.ToLower(c.Name())] += float64(lc.ctlNs[i]) / n
	}
	s.engineNs = float64(lc.tickNs-ctl-lc.plantNs) / n
	return s, nil
}
