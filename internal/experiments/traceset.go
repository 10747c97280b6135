package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"nopower/internal/obs"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// setKey names one synthesized trace set: the same (mix, ticks, seed)
// always yields the same bits.
type setKey struct {
	mix   tracegen.Mix
	ticks int
	seed  int64
}

// setEntry is one key's slot. done closes once the build has settled;
// after that set points weakly at the built set (zero on error).
type setEntry struct {
	done chan struct{}
	set  weak.Pointer[trace.Set]
	err  error
}

// setCache shares one read-only trace set per key among every cluster
// built from it. Concurrent builds of one key block on a single
// tracegen.BuildMix (singleflight, as runner.Cache).
//
// Retention follows liveness, not a size knob: the cache points at each
// set weakly, and every cluster holds the set it was built from. Once the
// last such cluster is garbage the set is collected and a cleanup deletes
// its entry. That bounds a long-lived npserved seeing arbitrary seeds as
// well as a sweep replaying a few mixes. A finalizer-counted lease would
// avoid the Go 1.24 weak and runtime.AddCleanup APIs, but it keeps every
// dead set alive for one more GC cycle, which raised perfbench
// serve_batch's peak RSS by a quarter on a 2-vCPU host.
//
// Shared demand is read-only: cluster mutators (ScaleDemand, RestoreState)
// point a VM at a private copy instead of writing into its trace.
type setCache struct {
	mu     sync.Mutex
	m      map[setKey]*setEntry
	builds atomic.Int64
	shared atomic.Int64
}

// traceSets is the process-wide trace set cache behind
// Scenario.BuildCluster.
var traceSets setCache

// get returns the shared set for key, building it on a miss.
func (c *setCache) get(key setKey) (*trace.Set, error) {
	for {
		c.mu.Lock()
		if c.m == nil {
			c.m = map[setKey]*setEntry{}
		}
		e, ok := c.m[key]
		if !ok {
			e = &setEntry{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			return c.build(key, e)
		}
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		if set := e.set.Value(); set != nil {
			c.shared.Add(1)
			return set, nil
		}
		// Collected before its cleanup ran: retire the entry and retry.
		c.drop(key, e)
	}
}

// build runs the one BuildMix of e's key and settles e. A failed build is
// not cached: the next caller retries.
func (c *setCache) build(key setKey, e *setEntry) (*trace.Set, error) {
	set, err := tracegen.BuildMix(key.mix, key.ticks, key.seed)
	c.builds.Add(1)
	if err != nil {
		e.err = err
		c.drop(key, e)
		close(e.done)
		return nil, err
	}
	e.set = weak.Make(set)
	runtime.AddCleanup(set, func(e *setEntry) { c.drop(key, e) }, e)
	close(e.done)
	return set, nil
}

// drop deletes key's entry if it is still e.
func (c *setCache) drop(key setKey, e *setEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] == e {
		delete(c.m, key)
	}
}

// RegisterMetrics exposes the trace set cache's counters on an
// observability registry (nil = obs.Default): np_trace_set_builds_total
// counts tracegen.BuildMix calls, np_trace_set_shared_total the cluster
// builds served by a set another cluster already holds.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	reg.CounterFunc("np_trace_set_builds_total", func() float64 { return float64(traceSets.builds.Load()) })
	reg.CounterFunc("np_trace_set_shared_total", func() float64 { return float64(traceSets.shared.Load()) })
}
