// Package tracegen synthesizes enterprise utilization traces.
//
// The paper drove its simulations with 180 proprietary utilization traces
// collected at nine enterprises across several workload classes (database
// servers, web servers, e-commerce, remote desktop infrastructure, ...; §4.3)
// — data we cannot obtain. This package is the documented substitution
// (DESIGN.md §2): a seeded generator producing traces with the statistical
// envelope the paper describes — predominantly low mean utilization
// (15–50 %), diurnal shape, autocorrelated noise and occasional bursts — plus
// the paper's own stacking construction for the high-utilization 60HH/60HHH
// mixes.
//
// Everything is driven by math/rand with explicit seeds, so any mix is
// reproducible bit-for-bit from (mix name, seed, length).
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"nopower/internal/trace"
)

// Class describes one workload family's statistical parameters.
type Class struct {
	// Name labels traces generated from this class.
	Name string
	// Base is the mean utilization floor of the class.
	Base float64
	// DiurnalAmp is the amplitude of the daily sinusoidal component.
	DiurnalAmp float64
	// BusinessHours narrows the diurnal bump to a work-day plateau when true
	// (remote desktop style) instead of a smooth sinusoid (web style).
	BusinessHours bool
	// NoiseSigma is the std-dev of the AR(1) noise component.
	NoiseSigma float64
	// NoisePhi is the AR(1) autocorrelation coefficient in [0,1).
	NoisePhi float64
	// BurstProb is the per-tick probability of starting a burst.
	BurstProb float64
	// BurstAmp is the added utilization during a burst.
	BurstAmp float64
	// BurstLen is the mean burst length in ticks.
	BurstLen int
	// CPUWeight, MemWeight, DiskWeight describe how the class's scalar
	// demand exercises a multi-component platform (internal/platform):
	// component demand = scalar demand × weight. A database pounds memory
	// and disk; a web server is CPU-dominant. All-zero weights default to
	// CPU-only (1, 0, 0).
	CPUWeight, MemWeight, DiskWeight float64
}

// ComponentWeights returns the class's (cpu, mem, disk) intensity vector,
// defaulting to CPU-only when unset.
func (c Class) ComponentWeights() (cpu, mem, disk float64) {
	if c.CPUWeight == 0 && c.MemWeight == 0 && c.DiskWeight == 0 {
		return 1, 0, 0
	}
	return c.CPUWeight, c.MemWeight, c.DiskWeight
}

// Classes returns the five enterprise workload families, mirroring the
// workload types the paper lists (§4.3).
func Classes() []Class {
	return []Class{
		{Name: "web", Base: 0.15, DiurnalAmp: 0.15, NoiseSigma: 0.04, NoisePhi: 0.85, BurstProb: 0.004, BurstAmp: 0.25, BurstLen: 12,
			CPUWeight: 1.0, MemWeight: 0.5, DiskWeight: 0.2},
		{Name: "db", Base: 0.22, DiurnalAmp: 0.08, NoiseSigma: 0.06, NoisePhi: 0.92, BurstProb: 0.008, BurstAmp: 0.30, BurstLen: 20,
			CPUWeight: 0.8, MemWeight: 1.0, DiskWeight: 0.9},
		{Name: "ecommerce", Base: 0.18, DiurnalAmp: 0.18, NoiseSigma: 0.05, NoisePhi: 0.80, BurstProb: 0.006, BurstAmp: 0.35, BurstLen: 15,
			CPUWeight: 1.0, MemWeight: 0.7, DiskWeight: 0.5},
		{Name: "remotedesktop", Base: 0.10, DiurnalAmp: 0.25, BusinessHours: true, NoiseSigma: 0.05, NoisePhi: 0.75, BurstProb: 0.002, BurstAmp: 0.15, BurstLen: 8,
			CPUWeight: 1.0, MemWeight: 0.8, DiskWeight: 0.1},
		{Name: "batch", Base: 0.12, DiurnalAmp: 0.05, NoiseSigma: 0.03, NoisePhi: 0.95, BurstProb: 0.003, BurstAmp: 0.55, BurstLen: 60,
			CPUWeight: 0.9, MemWeight: 0.6, DiskWeight: 1.0},
	}
}

// ClassByName resolves a workload class; nil if unknown.
func ClassByName(name string) *Class {
	for _, c := range Classes() {
		if c.Name == name {
			return &c
		}
	}
	return nil
}

// Params controls generation of one trace set.
type Params struct {
	// Ticks is the trace length.
	Ticks int
	// TicksPerDay sets the diurnal period. The default (0) means 1000.
	TicksPerDay int
	// Seed makes generation reproducible.
	Seed int64
	// Level globally scales utilization around the class defaults:
	// 1.0 = the class as-is; the L/M/H mixes use 0.6/1.2/2.0.
	Level float64
	// Stack >= 2 sums Stack independently generated traces per output trace
	// (the paper's 60HH/60HHH construction).
	Stack int
}

// normalized fills in the Params defaults: a 1000-tick day, level 1 and
// no stacking.
func (p Params) normalized() Params {
	if p.TicksPerDay <= 0 {
		p.TicksPerDay = 1000
	}
	if p.Level <= 0 {
		p.Level = 1.0
	}
	if p.Stack < 1 {
		p.Stack = 1
	}
	return p
}

// Generate produces n traces cycling through the workload classes. Large
// sets are shaped on every CPU; the bits never depend on the CPU count.
func Generate(n int, p Params) (*trace.Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tracegen: n = %d", n)
	}
	if p.Ticks <= 0 {
		return nil, fmt.Errorf("tracegen: ticks = %d", p.Ticks)
	}
	set := &trace.Set{Name: fmt.Sprintf("gen-%d", n), Traces: make([]*trace.Trace, n)}
	generate(set.Traces, 0, p.normalized())
	return set, nil
}

// blockSize is how many traces the draw goroutine hands a shaping worker
// at once. It sits just above the largest paper-mix tier (120 traces), so
// those mixes are generated inline on the caller's goroutine and never fan
// out, while a 100k-trace mix still splits into hundreds of blocks.
const blockSize = 128

// generate fills out with len(out) traces from one seeded stream. Trace i
// takes class i mod 5 and is named "<class>-<first+i>", first being its
// index in the enclosing set. One goroutine draws the stream in order.
// When there is more than one block and more than one CPU, a pool of
// GOMAXPROCS workers shapes the drawn blocks; otherwise the caller shapes
// each trace right after drawing it. Shaping is a pure function of the
// draw, so both schedules produce the same bits (DESIGN.md §2).
func generate(out []*trace.Trace, first int, p Params) {
	g := &generator{p: p, classes: Classes(), rng: rand.New(rand.NewSource(p.Seed)), out: out, first: first}
	blocks := (len(out) + blockSize - 1) / blockSize
	workers := min(runtime.GOMAXPROCS(0), blocks)
	if workers <= 1 {
		// Trace by trace, so stack parts become garbage as soon as they
		// are summed, as they did before shaping was split from drawing.
		for i := range out {
			g.shapeBlock(g.drawBlock(i, i+1))
		}
		return
	}
	// One queued block per worker lets the drawer run a block ahead of
	// every worker, and caps the bitsets and stack parts in flight.
	work := make(chan *block, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				g.shapeBlock(b)
			}
		}()
	}
	for lo := 0; lo < len(out); lo += blockSize {
		work <- g.drawBlock(lo, min(lo+blockSize, len(out)))
	}
	close(work)
	wg.Wait()
}

// generator is one Generate call: the stream only the draw goroutine
// touches, and the output slots each block's shaper fills.
type generator struct {
	p       Params
	classes []Class
	rng     *rand.Rand
	out     []*trace.Trace
	first   int
}

// block is a run of traces [lo, hi) whose random draws are done and whose
// shaping is not. Each trace has p.Stack parts, stored trace-major.
type block struct {
	lo, hi int
	// parts holds each part's AR(1) values until shaping turns them into
	// demand in place.
	parts  [][]float64
	phases []float64
	// bursts holds burstWords(p.Ticks) words of burst flags per part.
	bursts []uint64
}

// burstWords is the bitset length, in words, of one part's burst flags.
func burstWords(ticks int) int { return (ticks + 63) / 64 }

// drawBlock consumes the stream for traces [lo, hi).
func (g *generator) drawBlock(lo, hi int) *block {
	stack, words := g.p.Stack, burstWords(g.p.Ticks)
	n := (hi - lo) * stack
	b := &block{lo: lo, hi: hi, parts: make([][]float64, n), phases: make([]float64, n),
		bursts: make([]uint64, n*words)}
	for j := range b.parts {
		cls := g.classes[(lo+j/stack)%len(g.classes)]
		b.parts[j] = make([]float64, g.p.Ticks)
		b.phases[j] = draw(cls, b.parts[j], b.bursts[j*words:(j+1)*words], g.rng)
	}
	return b
}

// shapeBlock finishes a drawn block: shapes every part, stacks the parts of
// each trace, clips, names and stores the traces in their output slots.
func (g *generator) shapeBlock(b *block) {
	stack, words := g.p.Stack, burstWords(g.p.Ticks)
	for j, d := range b.parts {
		cls := g.classes[(b.lo+j/stack)%len(g.classes)]
		shape(cls, g.p, b.phases[j], d, b.bursts[j*words:(j+1)*words])
	}
	for i := b.lo; i < b.hi; i++ {
		cls := g.classes[i%len(g.classes)]
		name := fmt.Sprintf("%s-%03d", cls.Name, g.first+i)
		parts := b.parts[(i-b.lo)*stack : (i-b.lo+1)*stack]
		tr := &trace.Trace{Name: name, Class: cls.Name, Demand: parts[0]}
		if stack > 1 {
			stacked := make([]*trace.Trace, stack)
			for s, d := range parts {
				stacked[s] = &trace.Trace{Demand: d}
			}
			tr = trace.Stack(name, stacked...)
			tr.Class = cls.Name
		}
		// Demand above ~1.3 of a full server is unrealistic for a single
		// consolidatable VM; clip so stacked mixes stay servable-ish.
		tr.Clip(1.3)
		g.out[i] = tr
	}
}

// draw consumes one trace's share of the seeded stream in the order the
// generator has always used: the diurnal phase, then per tick the AR(1)
// innovation and the burst start and length draws. It leaves the AR(1)
// value of tick k in d[k], sets bit k of burst while a burst runs, and
// returns the phase.
func draw(cls Class, d []float64, burst []uint64, rng *rand.Rand) (phase float64) {
	clear(burst)
	phase = rng.Float64() * 2 * math.Pi
	ar := 0.0
	burstLeft := 0
	for k := range d {
		ar = cls.NoisePhi*ar + rng.NormFloat64()*cls.NoiseSigma*math.Sqrt(1-cls.NoisePhi*cls.NoisePhi)
		if burstLeft > 0 {
			burstLeft--
		} else if rng.Float64() < cls.BurstProb {
			burstLeft = 1 + rng.Intn(2*cls.BurstLen)
		}
		if burstLeft > 0 {
			burst[uint(k)/64] |= 1 << (uint(k) % 64)
		}
		d[k] = ar
	}
	return phase
}

// shape turns one drawn trace into demand in place: base + diurnal + AR(1)
// noise + bursts, scaled by Level and clamped to be non-negative. d holds
// the AR(1) values on entry. It reads no random state, so any goroutine
// may shape any drawn trace.
func shape(cls Class, p Params, phase float64, d []float64, bursts []uint64) {
	dayTick := 0 // k mod TicksPerDay, advanced instead of divided per tick
	for k, ar := range d {
		dayPos := float64(dayTick) / float64(p.TicksPerDay)
		if dayTick++; dayTick == p.TicksPerDay {
			dayTick = 0
		}
		var diurnal float64
		if cls.BusinessHours {
			// Plateau between ~08:00 and ~18:00 of the synthetic day.
			if dayPos > 0.33 && dayPos < 0.75 {
				diurnal = cls.DiurnalAmp
			}
		} else {
			diurnal = cls.DiurnalAmp * 0.5 * (1 + math.Sin(2*math.Pi*dayPos+phase))
		}
		var burst float64
		if bursts[uint(k)/64]&(1<<(uint(k)%64)) != 0 {
			burst = cls.BurstAmp
		}
		v := (cls.Base + diurnal + ar + burst) * p.Level
		if v < 0 {
			v = 0
		}
		d[k] = v
	}
}

// synth draws and shapes one trace on the caller's goroutine, for
// generators that interleave other draws with the stream.
func synth(cls Class, p Params, rng *rand.Rand) []float64 {
	d := make([]float64, p.Ticks)
	bursts := make([]uint64, burstWords(p.Ticks))
	shape(cls, p, draw(cls, d, bursts, rng), d, bursts)
	return d
}

// AI-burst generation (WDPC-style): synchronized data-parallel training.
// Unlike the enterprise classes, where each trace evolves independently, an
// AI training fleet moves in lockstep — every accelerator group runs the
// same compute/all-reduce/checkpoint loop, so the whole mix swings between
// near-peak draw and a shallow stall within a few ticks. That synchronized
// step is the facility-stressing behavior the WDPC spec (SNIPPETS.md
// snippet 3) documents, and exactly the workload the facility manager's
// feed/cooling budget loop exists to absorb.
const (
	// aiComputeLevel is the demand during a compute phase — close to peak.
	aiComputeLevel = 0.95
	// aiStallLevel is the demand during an all-reduce/checkpoint stall.
	aiStallLevel = 0.20
	// aiClassName labels generated AI-burst traces.
	aiClassName = "aitrain"
)

// GenerateAIBurst produces n synchronized AI-training traces: one global
// square-wave schedule (compute phases of 30–60 ticks at ~0.95, stalls of
// 3–8 ticks at ~0.20) shared by every trace, with a per-trace start offset
// of 0–2 ticks (the step spans "a few ticks" fleet-wide, not one) and a
// small per-trace amplitude jitter. Driven entirely by the seeded source,
// so the schedule is reproducible bit-for-bit from (n, ticks, seed).
func GenerateAIBurst(n int, p Params) (*trace.Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tracegen: n = %d", n)
	}
	if p.Ticks <= 0 {
		return nil, fmt.Errorf("tracegen: ticks = %d", p.Ticks)
	}
	if p.Level <= 0 {
		p.Level = 1.0
	}
	rng := rand.New(rand.NewSource(p.Seed))
	// The shared schedule first, so every trace sees the same phase edges.
	sched := make([]float64, p.Ticks)
	for k, high := 0, true; k < p.Ticks; high = !high {
		span := 3 + rng.Intn(6) // stall: 3–8 ticks
		lvl := aiStallLevel
		if high {
			span = 30 + rng.Intn(31) // compute: 30–60 ticks
			lvl = aiComputeLevel
		}
		for i := 0; i < span && k < p.Ticks; i++ {
			sched[k] = lvl
			k++
		}
	}
	set := &trace.Set{Name: fmt.Sprintf("aiburst-%d", n)}
	for i := 0; i < n; i++ {
		offset := rng.Intn(3)               // the fleet steps within ~3 ticks
		amp := 1 + 0.06*(rng.Float64()-0.5) // ±3 % group-to-group spread
		tr := &trace.Trace{Name: fmt.Sprintf("%s-%03d", aiClassName, i), Class: aiClassName,
			Demand: make([]float64, p.Ticks)}
		for k := 0; k < p.Ticks; k++ {
			src := k - offset
			if src < 0 {
				src = 0
			}
			tr.Demand[k] = sched[src] * amp * p.Level
		}
		set.Traces = append(set.Traces, tr)
	}
	return set, nil
}

// Mix names the canonical workload mixes of the evaluation (§4.3).
type Mix string

// The six mixes the paper evaluates.
const (
	Mix180   Mix = "180"   // all 180 workloads, mixed levels
	Mix60L   Mix = "60L"   // 60 low-utilization workloads
	Mix60M   Mix = "60M"   // 60 medium
	Mix60H   Mix = "60H"   // 60 high
	Mix60HH  Mix = "60HH"  // 60 stacked x2 (synthetic, higher)
	Mix60HHH Mix = "60HHH" // 60 stacked x3 (synthetic, highest)
)

// AllMixes lists every canonical mix in evaluation order.
func AllMixes() []Mix {
	return []Mix{Mix180, Mix60L, Mix60M, Mix60H, Mix60HH, Mix60HHH}
}

// ScaleMix names a synthetic fleet-scale mix of n workloads: the Mix180
// blend (two-thirds low, one-third medium utilization) scaled to any
// population. Used by the E17 scale experiment and BenchmarkScale10k.
func ScaleMix(n int) Mix { return Mix(fmt.Sprintf("scale%d", n)) }

// MixAIBurst is the canonical 60-trace AI-training mix (see GenerateAIBurst).
const MixAIBurst Mix = "aiburst"

// AIBurstMix names an AI-training mix of n synchronized workloads.
func AIBurstMix(n int) Mix { return Mix(fmt.Sprintf("aiburst%d", n)) }

// MixHetero is the canonical 60-trace heterogeneous-fleet mix: a utilization
// spread wider than Mix180 (half low, a medium tier, and a stacked-high
// tail) so a mixed-hardware fleet sees both consolidation pressure and DVFS
// headroom in one run. Pair it with Scenario.Profiles.
const MixHetero Mix = "hetero"

// HeteroMix names a heterogeneous-fleet mix of n workloads.
func HeteroMix(n int) Mix { return Mix(fmt.Sprintf("hetero%d", n)) }

// tier is one independently seeded run of a mix: count traces generated
// from seed+seedOffset at the given level, stacked when stack > 1.
type tier struct {
	count      int
	seedOffset int64
	level      float64
	stack      int
}

// blendTiers is the Mix180 blend at n workloads: two-thirds low level from
// the mix seed, the rest medium from seed+1. Mix180 is blendTiers(180).
func blendTiers(n int) []tier {
	lo := 2 * n / 3
	return []tier{{count: lo, level: 0.55}, {count: n - lo, seedOffset: 1, level: 0.95}}
}

// heteroTiers blends three utilization tiers — n/2 low (0.55), 3n/10
// medium (0.95), the rest stacked-high (x2 at 0.85, the 60HH construction)
// — with tier-split seeds like Mix180. The wide spread is deliberate: on a
// mixed fleet the low tier exercises consolidation onto the efficient boxes
// while the stacked tail keeps the big machines in their DVFS band.
func heteroTiers(n int) []tier {
	lo, mid := n/2, 3*n/10
	return []tier{{count: lo, level: 0.55}, {count: mid, seedOffset: 1, level: 0.95},
		{count: n - lo - mid, seedOffset: 2, level: 0.85, stack: 2}}
}

// resolveMix parses a mix name into its size and tiers. The tiers are nil
// for the AI-burst family, which GenerateAIBurst builds as one piece.
func resolveMix(mix Mix) (n int, tiers []tier, err error) {
	switch mix {
	case Mix180:
		return 180, blendTiers(180), nil
	case Mix60L:
		return 60, []tier{{count: 60, level: 0.6}}, nil
	case Mix60M:
		return 60, []tier{{count: 60, level: 1.2}}, nil
	case Mix60H:
		return 60, []tier{{count: 60, level: 1.8}}, nil
	case Mix60HH:
		return 60, []tier{{count: 60, level: 0.85, stack: 2}}, nil
	case Mix60HHH:
		return 60, []tier{{count: 60, level: 0.85, stack: 3}}, nil
	case MixAIBurst:
		return 60, nil, nil
	case MixHetero:
		return 60, heteroTiers(60), nil
	}
	if n, ok := sizedMix(mix, "scale"); ok {
		return n, blendTiers(n), nil
	}
	if n, ok := sizedMix(mix, "hetero"); ok {
		return n, heteroTiers(n), nil
	}
	if n, ok := sizedMix(mix, "aiburst"); ok {
		return n, nil, nil
	}
	return 0, nil, fmt.Errorf("tracegen: unknown mix %q", mix)
}

// sizedMix parses a "<prefix><n>" mix name, n a positive decimal without
// leading zeros.
func sizedMix(mix Mix, prefix string) (n int, ok bool) {
	digits, ok := strings.CutPrefix(string(mix), prefix)
	if !ok || digits == "" || digits[0] < '1' || digits[0] > '9' {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// MixSize returns the number of traces BuildMix would generate for mix,
// without generating any; an unknown name gets BuildMix's error.
func MixSize(mix Mix) (int, error) {
	n, _, err := resolveMix(mix)
	return n, err
}

// BuildMix generates a canonical mix at the given length and seed.
// The 180 mix blends levels like the nine-enterprise corpus (mostly low,
// some medium); 60L/M/H scale one level; 60HH/HHH stack traces. Tiers
// larger than one shaping block are generated concurrently, each from its
// own seed, into disjoint slots of the set.
func BuildMix(mix Mix, ticks int, seed int64) (*trace.Set, error) {
	n, tiers, err := resolveMix(mix)
	if err != nil {
		return nil, err
	}
	if ticks <= 0 {
		return nil, fmt.Errorf("tracegen: ticks = %d", ticks)
	}
	if tiers == nil {
		set, err := GenerateAIBurst(n, Params{Ticks: ticks, Seed: seed})
		if err != nil {
			return nil, err
		}
		set.Name = string(mix)
		return set, nil
	}
	set := &trace.Set{Name: string(mix), Traces: make([]*trace.Trace, n)}
	var wg sync.WaitGroup
	first := 0
	for _, t := range tiers {
		out := set.Traces[first : first+t.count]
		p := Params{Ticks: ticks, Seed: seed + t.seedOffset, Level: t.level, Stack: t.stack}.normalized()
		if t.count > blockSize {
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				generate(out, first, p)
			}(first)
		} else {
			generate(out, first, p)
		}
		first += t.count
	}
	wg.Wait()
	return set, nil
}
