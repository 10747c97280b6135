package model

import (
	"math"
	"testing"
	"testing/quick"
)

func allModels() []*Model {
	return []*Model{BladeA(), ServerB()}
}

func TestCalibrationsValidate(t *testing.T) {
	for _, m := range allModels() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestBladeALadderMatchesPaper(t *testing.T) {
	want := []float64{1000, 833, 700, 600, 533}
	m := BladeA()
	if len(m.PStates) != len(want) {
		t.Fatalf("BladeA has %d P-states, want %d", len(m.PStates), len(want))
	}
	for i, f := range want {
		if m.PStates[i].FreqMHz != f {
			t.Errorf("BladeA P%d freq = %v, want %v", i, m.PStates[i].FreqMHz, f)
		}
	}
}

func TestServerBLadderMatchesPaper(t *testing.T) {
	want := []float64{2600, 2400, 2200, 2000, 1800, 1000}
	m := ServerB()
	if len(m.PStates) != len(want) {
		t.Fatalf("ServerB has %d P-states, want %d", len(m.PStates), len(want))
	}
	for i, f := range want {
		if m.PStates[i].FreqMHz != f {
			t.Errorf("ServerB P%d freq = %v, want %v", i, m.PStates[i].FreqMHz, f)
		}
	}
}

// The paper's qualitative calibration contrast: Blade A has the wider
// relative power range across its ladder, Server B the higher idle fraction.
func TestCalibrationContrast(t *testing.T) {
	a, b := BladeA(), ServerB()
	rangeA := 1 - a.MinActivePower()/a.MaxPower()
	rangeB := 1 - b.MinActivePower()/b.MaxPower()
	if rangeA <= rangeB {
		t.Errorf("BladeA relative power range %.2f should exceed ServerB's %.2f", rangeA, rangeB)
	}
	idleA := a.PStates[0].D / a.MaxPower()
	idleB := b.PStates[0].D / b.MaxPower()
	if idleB <= idleA {
		t.Errorf("ServerB idle fraction %.2f should exceed BladeA's %.2f", idleB, idleA)
	}
}

func TestPowerLinearAndClamped(t *testing.T) {
	m := BladeA()
	ps := m.PStates[0]
	if got := ps.Power(0.5); math.Abs(got-(ps.C*0.5+ps.D)) > 1e-12 {
		t.Errorf("Power(0.5) = %v", got)
	}
	if got := ps.Power(-1); got != ps.D {
		t.Errorf("Power(-1) = %v, want idle %v", got, ps.D)
	}
	if got := ps.Power(2); got != ps.C+ps.D {
		t.Errorf("Power(2) = %v, want max %v", got, ps.C+ps.D)
	}
}

func TestPowerMonotonicInUtilization(t *testing.T) {
	for _, m := range allModels() {
		for p := range m.PStates {
			prev := -1.0
			for r := 0.0; r <= 1.0; r += 0.05 {
				pw := m.Power(p, r)
				if pw < prev {
					t.Fatalf("%s P%d: power not monotone at r=%.2f", m.Name, p, r)
				}
				prev = pw
			}
		}
	}
}

func TestPowerMonotonicAcrossPStates(t *testing.T) {
	for _, m := range allModels() {
		for r := 0.0; r <= 1.0; r += 0.1 {
			for p := 1; p < len(m.PStates); p++ {
				if m.Power(p, r) > m.Power(p-1, r) {
					t.Fatalf("%s: P%d draws more than P%d at r=%.1f", m.Name, p, p-1, r)
				}
			}
		}
	}
}

func TestPerfSlopeIsRelativeFrequency(t *testing.T) {
	for _, m := range allModels() {
		for p := range m.PStates {
			want := m.PStates[p].FreqMHz / m.PStates[0].FreqMHz
			if got := m.Perf(p, 1.0); math.Abs(got-want) > 1e-12 {
				t.Errorf("%s P%d: Perf(1.0) = %v, want %v", m.Name, p, got, want)
			}
			if got := m.Perf(p, 0); got != 0 {
				t.Errorf("%s P%d: Perf(0) = %v, want 0", m.Name, p, got)
			}
		}
	}
}

func TestQuantizeNearest(t *testing.T) {
	m := BladeA()
	cases := []struct {
		freq float64
		want int
	}{
		{1000, 0}, {2000, 0}, {920, 0}, {900, 1}, {833, 1},
		{760, 2}, {700, 2}, {651, 2}, {640, 3}, {600, 3},
		{567, 3}, {560, 4}, {533, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := m.Quantize(c.freq); got != c.want {
			t.Errorf("Quantize(%v) = P%d, want P%d", c.freq, got, c.want)
		}
	}
}

func TestQuantizeRoundTrips(t *testing.T) {
	for _, m := range allModels() {
		for i, ps := range m.PStates {
			if got := m.Quantize(ps.FreqMHz); got != i {
				t.Errorf("%s: Quantize(P%d freq) = P%d", m.Name, i, got)
			}
		}
	}
}

func TestClampFreq(t *testing.T) {
	m := ServerB()
	if got := m.ClampFreq(9999); got != m.MaxFreq() {
		t.Errorf("ClampFreq high = %v", got)
	}
	if got := m.ClampFreq(1); got != m.MinFreq() {
		t.Errorf("ClampFreq low = %v", got)
	}
	if got := m.ClampFreq(2000); got != 2000 {
		t.Errorf("ClampFreq in-range = %v", got)
	}
}

func TestPowerAtFreqInterpolates(t *testing.T) {
	m := BladeA()
	// Exactly at P-state frequencies it must match the P-state model.
	for p, ps := range m.PStates {
		for _, r := range []float64{0, 0.4, 1} {
			if got, want := m.PowerAtFreq(ps.FreqMHz, r), m.Power(p, r); math.Abs(got-want) > 1e-9 {
				t.Errorf("PowerAtFreq(P%d, %.1f) = %v, want %v", p, r, got, want)
			}
		}
	}
	// Midway between two states it must lie strictly between.
	mid := (m.PStates[0].FreqMHz + m.PStates[1].FreqMHz) / 2
	got := m.PowerAtFreq(mid, 0.5)
	lo, hi := m.Power(1, 0.5), m.Power(0, 0.5)
	if got <= lo || got >= hi {
		t.Errorf("PowerAtFreq(mid) = %v, want in (%v, %v)", got, lo, hi)
	}
}

func TestPowerAtFreqMonotoneInFreq(t *testing.T) {
	for _, m := range allModels() {
		prev := -1.0
		for f := m.MinFreq(); f <= m.MaxFreq(); f += 7 {
			pw := m.PowerAtFreq(f, 0.6)
			if pw < prev-1e-9 {
				t.Fatalf("%s: PowerAtFreq not monotone at f=%v", m.Name, f)
			}
			prev = pw
		}
	}
}

func TestPickAndTwoExtremes(t *testing.T) {
	m := BladeA()
	two := m.TwoExtremes()
	if len(two.PStates) != 2 {
		t.Fatalf("TwoExtremes: %d states", len(two.PStates))
	}
	if two.PStates[0] != m.PStates[0] || two.PStates[1] != m.PStates[4] {
		t.Errorf("TwoExtremes kept wrong states: %+v", two.PStates)
	}
	if err := two.Validate(); err != nil {
		t.Errorf("TwoExtremes invalid: %v", err)
	}

	if _, err := m.Pick(1, 2); err == nil {
		t.Error("Pick without P0 should fail")
	}
	if _, err := m.Pick(0); err == nil {
		t.Error("Pick with one state should fail")
	}
	if _, err := m.Pick(0, 99); err == nil {
		t.Error("Pick out of range should fail")
	}
	if picked, err := m.Pick(0, 2, 2, 4); err != nil || len(picked.PStates) != 3 {
		t.Errorf("Pick with dup = %v, %v", picked, err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []*Model{
		{Name: "one", PStates: []PState{{1000, 10, 10}}},
		{Name: "freqUp", PStates: []PState{{1000, 10, 10}, {1100, 9, 9}}},
		{Name: "powerUp", PStates: []PState{{1000, 10, 10}, {900, 10, 20}}},
		{Name: "zeroC", PStates: []PState{{1000, 0, 10}, {900, 1, 9}}},
		{Name: "negOff", PStates: []PState{{1000, 10, 10}, {900, 9, 9}}, OffWatts: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q should not validate", m.Name)
		}
	}
}

func TestCapSlopeMaxPositiveAndDominatesC(t *testing.T) {
	for _, m := range allModels() {
		cm := m.CapSlopeMax()
		if cm <= 0 {
			t.Errorf("%s: CapSlopeMax = %v", m.Name, cm)
		}
		for p, ps := range m.PStates {
			if cm < ps.C {
				t.Errorf("%s: CapSlopeMax %v below P%d slope %v", m.Name, cm, p, ps.C)
			}
		}
	}
}

// Property: quantization always returns the truly nearest state.
func TestQuantizeProperty(t *testing.T) {
	m := ServerB()
	f := func(raw float64) bool {
		freq := math.Mod(math.Abs(raw), 4000)
		got := m.Quantize(freq)
		for i := range m.PStates {
			if math.Abs(m.PStates[i].FreqMHz-freq) < math.Abs(m.PStates[got].FreqMHz-freq)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interpolated power lies within the envelope of the ladder.
func TestPowerAtFreqEnvelopeProperty(t *testing.T) {
	m := BladeA()
	f := func(rawF, rawR float64) bool {
		freq := math.Mod(math.Abs(rawF), 2000)
		r := math.Mod(math.Abs(rawR), 1.0)
		pw := m.PowerAtFreq(freq, r)
		return pw >= m.Power(len(m.PStates)-1, r)-1e-9 && pw <= m.Power(0, r)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECSteadyPowerRegimes(t *testing.T) {
	m := BladeA()
	// Zero load: deepest-state idle.
	if got := m.ECSteadyPower(0.75, 0); got != m.MinActivePower() {
		t.Errorf("idle = %v, want %v", got, m.MinActivePower())
	}
	// Load above r_ref: pinned at P0 with r = load.
	if got, want := m.ECSteadyPower(0.75, 0.9), m.Power(0, 0.9); math.Abs(got-want) > 1e-9 {
		t.Errorf("saturated regime = %v, want %v", got, want)
	}
	// Mid load: the EC holds r = r_ref at f = load/r_ref.
	load := 0.5
	want := m.PowerAtFreq(load/0.75*m.MaxFreq(), 0.75)
	if got := m.ECSteadyPower(0.75, load); math.Abs(got-want) > 1e-9 {
		t.Errorf("mid regime = %v, want %v", got, want)
	}
	// Tiny load: floor frequency, utilization below target.
	tiny := 0.1
	fMinRel := m.MinFreq() / m.MaxFreq()
	wantTiny := m.PStates[len(m.PStates)-1].Power(tiny / fMinRel)
	if got := m.ECSteadyPower(0.75, tiny); math.Abs(got-wantTiny) > 1e-9 {
		t.Errorf("floor regime = %v, want %v", got, wantTiny)
	}
	// Defaulted r_ref.
	if got := m.ECSteadyPower(0, 0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("default r_ref = %v, want %v", got, want)
	}
}

func TestECSteadyPowerMonotoneInLoad(t *testing.T) {
	for _, m := range allModels() {
		prev := -1.0
		for load := 0.0; load <= 1.0; load += 0.01 {
			pw := m.ECSteadyPower(0.75, load)
			if pw < prev-1e-9 {
				t.Fatalf("%s: ECSteadyPower not monotone at load %.2f", m.Name, load)
			}
			prev = pw
		}
	}
}

func TestMaxLoadUnderCap(t *testing.T) {
	m := ServerB()
	// An ample budget admits the full maxLoad.
	if got := m.MaxLoadUnderCap(0.75, m.MaxPower(), 0.85); got != 0.85 {
		t.Errorf("ample budget load = %v, want 0.85", got)
	}
	// A budget below even deep idle admits nothing.
	if got := m.MaxLoadUnderCap(0.75, m.MinActivePower()-1, 0.85); got != 0 {
		t.Errorf("impossible budget load = %v, want 0", got)
	}
	// A binding budget: the returned load's steady power is within the
	// budget, and a slightly larger load is not.
	budget := 200.0
	load := m.MaxLoadUnderCap(0.75, budget, 0.85)
	if load <= 0 || load >= 0.85 {
		t.Fatalf("binding load = %v", load)
	}
	if pw := m.ECSteadyPower(0.75, load); pw > budget+1e-6 {
		t.Errorf("power at returned load %v exceeds budget", pw)
	}
	if pw := m.ECSteadyPower(0.75, load+0.01); pw <= budget {
		t.Errorf("bisection not tight: %v still under budget", pw)
	}
}
