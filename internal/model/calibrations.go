package model

// The two calibrations below mirror the two systems the paper measured
// (§4.3, Fig. 5). The paper publishes the exact frequency ladders but only
// the *shape* of the power/performance curves, so the Watt coefficients here
// are chosen to reproduce the qualitative properties the evaluation depends
// on:
//
//   - Blade A: a low-power blade; 5 non-uniformly clustered P-states spanning
//     1000..533 MHz; a comparatively WIDE power range across the ladder, so
//     local DVFS (the EC) has real leverage.
//   - Server B: an entry-level 2U server; 6 relatively uniform P-states
//     spanning 2600..1000 MHz; a NARROW power range dominated by idle power,
//     so DVFS buys little and consolidation (the VMC) dominates savings.
//
// These are the properties behind Fig. 8 ("most of the average power
// reductions are from the VMC"; Server B NoVMC savings near zero) and the
// §5.1 observation that "the range of power control is likely more important
// than the granularity of control".

// BladeA returns the calibration of the low-power blade system.
// Ladder: 1 GHz, 833, 700, 600, 533 MHz (paper §4.3).
func BladeA() *Model {
	return &Model{
		Name:  "BladeA",
		Cores: 2, // 2008-era low-power blade (informational)
		PStates: []PState{
			{FreqMHz: 1000, C: 40.0, D: 60.0}, // P0: 100 W max
			{FreqMHz: 833, C: 33.0, D: 55.5},  // P1
			{FreqMHz: 700, C: 27.0, D: 51.5},  // P2
			{FreqMHz: 600, C: 22.0, D: 48.5},  // P3
			{FreqMHz: 533, C: 18.0, D: 46.0},  // P4: 64 W max
		},
		OffWatts: 0,
	}
}

// ServerB returns the calibration of the entry-level 2U server.
// Ladder: 2.6, 2.4, 2.2, 2.0, 1.8, 1.0 GHz (paper §4.3).
func ServerB() *Model {
	return &Model{
		Name:  "ServerB",
		Cores: 4, // 2008-era entry-level 2U server (informational)
		PStates: []PState{
			{FreqMHz: 2600, C: 70.0, D: 180.0}, // P0: 250 W max
			{FreqMHz: 2400, C: 64.0, D: 178.0}, // P1
			{FreqMHz: 2200, C: 58.0, D: 176.0}, // P2
			{FreqMHz: 2000, C: 52.0, D: 174.0}, // P3
			{FreqMHz: 1800, C: 46.0, D: 172.0}, // P4
			{FreqMHz: 1000, C: 28.0, D: 166.0}, // P5: 194 W max
		},
		OffWatts: 0,
	}
}
