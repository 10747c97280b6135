package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunUnitsContract pins the dispatch contract the plant advance, the
// demand-cache fill and every ShardTicker rely on: fn(u) runs exactly once
// for every unit, and block claiming never collapses a dispatch of at least
// two units per worker onto one worker. The second half keeps the 12-unit
// 180-server fleet of TestShardDeterminism concurrent under -race: a block
// that swallowed all 12 units would make that race gate silently serial.
func TestRunUnitsContract(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		for _, n := range []int{0, 1, 2, 11, 12, 13, 63, 64, 65, 5000} {
			t.Run(fmt.Sprintf("shards=%d/n=%d", shards, n), func(t *testing.T) {
				e := &Engine{Shards: shards}
				counts := make([]atomic.Int32, n)
				workers := min(shards, n)
				wantSpread := workers > 1 && n >= 2*workers
				// With wantSpread, the first call parks until a second call
				// starts while it is still running. Calls on one worker are
				// sequential, so an overlapping call proves a second worker
				// claimed units.
				var started atomic.Int32
				var overlapped atomic.Bool
				second := make(chan struct{})
				var once sync.Once
				e.runUnits(n, func(u int) {
					counts[u].Add(1)
					if !wantSpread {
						return
					}
					if started.Add(1) == 1 {
						select {
						case <-second:
							overlapped.Store(true)
						case <-time.After(5 * time.Second):
						}
						return
					}
					once.Do(func() { close(second) })
				})
				for u := range counts {
					if c := counts[u].Load(); c != 1 {
						t.Errorf("unit %d ran %d times, want 1", u, c)
					}
				}
				if wantSpread && !overlapped.Load() {
					t.Errorf("%d units on %d workers never ran on two workers at once", n, workers)
				}
			})
		}
	}
}
