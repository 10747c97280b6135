package model

import (
	"math"
	"strings"
	"testing"
)

func TestLookupKnownAndAliases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"BladeA", "BladeA"}, {"bladea", "BladeA"}, {"BLADE-A", "BladeA"}, {"a", "BladeA"},
		{"ServerB", "ServerB"}, {"server-b", "ServerB"}, {"B", "ServerB"},
		{"arm-microblade", "ARMMicroblade"}, {"ARMMicroblade", "ARMMicroblade"},
		{"EPYC-2S-128", "Epyc2S128"}, {"legacy-high-idle", "LegacyHighIdle"},
	}
	for _, c := range cases {
		m, err := Lookup(c.in)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", c.in, err)
		}
		if m.Name != c.want {
			t.Fatalf("Lookup(%q).Name = %q, want %q", c.in, m.Name, c.want)
		}
	}
}

func TestLookupUnknownListsProfiles(t *testing.T) {
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("Lookup of unknown name must error")
	}
	for _, want := range []string{"nope", "BladeA", "ServerB", "ARMMicroblade"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestLookupReturnsFreshValidatedInstances(t *testing.T) {
	a, _ := Lookup("BladeA")
	b, _ := Lookup("BladeA")
	if a == b {
		t.Fatal("Lookup must return fresh instances")
	}
	a.PStates[0].C = 1e9
	if b.PStates[0].C == 1e9 {
		t.Fatal("instances share PStates backing array")
	}
	// Fresh instances are pre-validated: frozen tables ready.
	if got := b.Power(0, 1); math.Abs(got-100) > 1e-12 {
		t.Fatalf("BladeA P0 max = %v, want 100", got)
	}
}

func TestRegistryAllProfilesValid(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("profile library has %d profiles, want >= 10: %v", len(names), names)
	}
	for _, n := range names {
		m, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("profile %q: %v", n, err)
		}
		if m.Cores <= 0 {
			t.Fatalf("profile %q: Cores = %d, want > 0", n, m.Cores)
		}
		if m.Name != n {
			t.Fatalf("Lookup(%q).Name = %q", n, m.Name)
		}
	}
}

func TestRegistrySpansSpectrum(t *testing.T) {
	// The library must actually span §5.1's spectrum: idle fraction and
	// P-state count should vary widely across profiles.
	minIdle, maxIdle := 1.0, 0.0
	minStates, maxStates := 1<<30, 0
	for _, n := range Names() {
		m, _ := Lookup(n)
		idleFrac := m.PStates[0].D / m.MaxPower()
		if idleFrac < minIdle {
			minIdle = idleFrac
		}
		if idleFrac > maxIdle {
			maxIdle = idleFrac
		}
		if s := m.NumPStates(); s < minStates {
			minStates = s
		}
		if s := m.NumPStates(); s > maxStates {
			maxStates = s
		}
	}
	if minIdle > 0.2 || maxIdle < 0.55 {
		t.Fatalf("idle fraction range [%.2f, %.2f] too narrow", minIdle, maxIdle)
	}
	if minStates > 4 || maxStates < 10 {
		t.Fatalf("P-state count range [%d, %d] too narrow", minStates, maxStates)
	}
}

func TestRegisterRejectsSlashAndDup(t *testing.T) {
	bad := func() *Model {
		m := BladeA()
		m.Name = "Evil/2states"
		return m
	}
	if err := Register(bad); err == nil || !strings.Contains(err.Error(), "/") {
		t.Fatalf("Register of name with '/' must fail, got %v", err)
	}
	if err := Register(BladeA); err == nil {
		t.Fatal("duplicate Register must fail")
	}
	if err := Register(func() *Model { m := ServerB(); m.Name = "Fresh"; return m }, "SERVERB"); err == nil {
		t.Fatal("Register with duplicate alias must fail")
	}
}

func TestDerivedModelsNeverShadowRegistry(t *testing.T) {
	// Pick and TwoExtremes derive names like "BladeA/3states". Those must
	// never resolve in the registry — and can never be registered, because
	// Register rejects '/'.
	for _, n := range Names() {
		m, _ := Lookup(n)
		two := m.TwoExtremes()
		if !strings.Contains(two.Name, "/") {
			t.Fatalf("TwoExtremes name %q lacks '/' separator", two.Name)
		}
		if _, err := Lookup(two.Name); err == nil {
			t.Fatalf("derived name %q resolves in registry", two.Name)
		}
		picked, err := m.Pick(0, 1)
		if err != nil {
			t.Fatalf("Pick(%q): %v", n, err)
		}
		if _, err := Lookup(picked.Name); err == nil {
			t.Fatalf("derived name %q resolves in registry", picked.Name)
		}
		if picked.Cores != m.Cores {
			t.Fatalf("Pick dropped Cores: %d != %d", picked.Cores, m.Cores)
		}
	}
}

func TestFrozenGuardPanicsOnMutatedLadder(t *testing.T) {
	m := BladeA()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.PStates = m.PStates[:3] // mutate after Validate without re-validating
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Quantize on a mutated validated model must panic")
		}
		if !strings.Contains(r.(string), "mutated after Validate") {
			t.Fatalf("unexpected panic message: %v", r)
		}
	}()
	m.Quantize(700)
}

func TestFrozenGuardLazyFreezesUnvalidated(t *testing.T) {
	// A hand-built model that never saw Validate must still work: the
	// tables are pure functions of PStates, so lazy freezing is
	// bit-identical to eager freezing.
	m := &Model{Name: "hand", PStates: []PState{
		{FreqMHz: 2000, C: 50, D: 100},
		{FreqMHz: 1000, C: 25, D: 80},
	}}
	if got := m.Quantize(1700); got != 0 {
		t.Fatalf("Quantize = %d, want 0", got)
	}
	if got := m.RelFreq(1); got != 0.5 {
		t.Fatalf("RelFreq(1) = %v, want 0.5", got)
	}
	if got := m.Power(1, 1); got != 105 {
		t.Fatalf("Power(1,1) = %v, want 105", got)
	}
	// Re-validating after mutation un-trips the guard.
	m.PStates = append(m.PStates, PState{FreqMHz: 500, C: 12, D: 70})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Quantize(400); got != 2 {
		t.Fatalf("after re-Validate, Quantize = %d, want 2", got)
	}
}

func TestParseDistributionRoundTrip(t *testing.T) {
	d, err := ParseDistribution("arm-microblade:3, serverb:2 ,bladea")
	if err != nil {
		t.Fatal(err)
	}
	want := "ARMMicroblade:3,ServerB:2,BladeA:1"
	if d.String() != want {
		t.Fatalf("String() = %q, want %q", d.String(), want)
	}
	d2, err := ParseDistribution(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if d2.String() != want {
		t.Fatalf("round-trip = %q, want %q", d2.String(), want)
	}
	for _, bad := range []string{"", "nope:1", "bladea:0", "bladea:x", "bladea:-2"} {
		if _, err := ParseDistribution(bad); err == nil {
			t.Fatalf("ParseDistribution(%q) must fail", bad)
		}
	}
}

func TestDistributionModelsDeterministicAndExact(t *testing.T) {
	d, _ := ParseDistribution("bladea:3,serverb:2,rack-2u-32:1")
	for _, n := range []int{1, 2, 6, 7, 48, 100} {
		a, err := d.Models(n)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := d.Models(n)
		counts := map[string]int{}
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Fatalf("n=%d: expansion not deterministic at %d", n, i)
			}
			counts[a[i].Name]++
		}
		// Largest remainder: each count within 1 of the exact quota.
		for _, s := range d {
			exact := float64(n) * float64(s.Weight) / 6.0
			if c := counts[s.Name]; float64(c) < exact-1 || float64(c) > exact+1 {
				t.Fatalf("n=%d: %s got %d slots, quota %.2f", n, s.Name, c, exact)
			}
		}
	}
	// Interleaving: with 6 servers and weights 3:2:1 no profile occupies a
	// contiguous block of more than 2 (majority share can double up).
	a, _ := d.Models(6)
	run, last := 0, ""
	for _, m := range a {
		if m.Name == last {
			run++
		} else {
			run, last = 1, m.Name
		}
		if run > 2 {
			t.Fatalf("profile %s occupies a run of %d: %v", last, run, names(a))
		}
	}
	// Shared instances per profile: the EC law's same-model hoist relies on
	// pointer equality within a profile.
	seen := map[string]*Model{}
	for _, m := range a {
		if prev, ok := seen[m.Name]; ok && prev != m {
			t.Fatalf("profile %s has two instances in one expansion", m.Name)
		}
		seen[m.Name] = m
	}
}

func names(ms []*Model) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}
