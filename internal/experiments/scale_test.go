package experiments

import "testing"

// E18 — the columnar store must produce bitwise-identical results serial vs
// sharded and across a kill-and-resume. The test runs the shrunk fleet (2000
// servers, still dozens of enclosures per shard) through CheckIdentity; the
// full 100k fleet runs the identical code via `npexp scale100k`.
func TestScale100kBitIdentical(t *testing.T) {
	id, err := ScaleData(ctx, Options{Ticks: 120, Seed: 42}, scale100k.short)
	if err != nil {
		t.Fatal(err)
	}
	if id.Serial.Shards != 1 {
		t.Fatalf("reference leg ran at shards=%d, want 1", id.Serial.Shards)
	}
	if !id.ShardedIdentical() {
		t.Errorf("sharded legs diverged from the serial run: %+v", id.Sharded)
	}
	if !id.Replay.Identical {
		t.Error("resumed run diverged from the serial run")
	}
}

// Both presets are registered, render one table each, and share the row
// shape: the serial reference, then one row per identityShards() count.
func TestScale100kExperimentRegistered(t *testing.T) {
	for _, name := range []string{"scale", "scale100k"} {
		if Describe(name) == "" {
			t.Fatalf("%s missing from the registry: %v", name, Names())
		}
		tables, err := RunExperiment(ctx, name, WithTicks(60))
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 1 || len(tables[0].Rows) != 1+len(identityShards()) {
			t.Errorf("%s tables = %+v", name, tables)
		}
	}
}
