// Command perfbench is the repository benchmark: it runs one workload for a
// fixed time, checks that the program's outputs are correct, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ones) as the last
// line of its standard output. See README.md for the workloads and metrics.
//
// Every unit of work runs in a fresh child process, so caches that live
// for a whole process (the experiments' baseline cache, the job server's
// result cache) start cold each time, as they do for every npexp or
// npserved invocation:
//
//	go build -o perfbench . && ./perfbench -workload sweep -seed 3 -seconds 30 -trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	// run performs one unit of the workload in the current (child) process.
	run func(u *unit, seed int64, traced bool) error
	// setup, when set, does only the workload's set-up in a child; the
	// driver spawns setupProbes such children per measurement, so set-up
	// times of a few milliseconds get a median over many samples.
	setup func(u *unit) error
	// load describes the offered load for the host record.
	load func() map[string]any
}

var workloads = map[string]workload{
	"fleet100k":   {run: runFleet, load: fleetLoad},
	"sweep":       {run: runSweep, load: sweepLoad, setup: sweepSetup},
	"serve_batch": {run: runServe, load: serveLoad, setup: serveSetup},
}

const (
	// minUnits is the least number of child processes an untraced
	// measurement spawns, however short --seconds is; a traced one spawns
	// at least one.
	minUnits = 3
	// setupProbes is the number of set-up-only children per untraced
	// measurement of a workload with a setup func.
	setupProbes = 21
)

// unit is what one child process reports to the driver.
type unit struct {
	// ReadyNs is the wall clock (Unix ns) at which the workload could do
	// its first unit of work; the driver subtracts its spawn time.
	ReadyNs int64 `json:"ready_ns"`
	// RunS is the wall time of the timed phase.
	RunS float64 `json:"run_s"`
	// Jobs counts the jobs the timed phase completed; JobMs holds the
	// latencies that the job percentiles are taken over.
	Jobs  int       `json:"jobs"`
	JobMs []float64 `json:"job_ms"`
	// Ops and Failed count the operations attempted and failed.
	Ops    int `json:"ops"`
	Failed int `json:"failed"`
	// Problems lists failed correctness checks made inside the child.
	Problems []string `json:"problems,omitempty"`
	// Digests are checked by the driver against digests.json.
	Digests map[string]string `json:"digests"`
	// Layers holds the per-layer values of a traced unit.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (u *unit) ready() { u.ReadyNs = time.Now().UnixNano() }

func (u *unit) problem(format string, args ...any) {
	u.Problems = append(u.Problems, fmt.Sprintf(format, args...))
}

//go:embed digests.json
var digestsJSON []byte

// inputSeeds is the number of input seeds with recorded digests. The
// benchmark seed n selects input seed 1 + n mod inputSeeds, so any seed the
// caller passes has a recording to check against.
const inputSeeds = 16

func inputSeed(seed int64) int64 { return 1 + (seed%inputSeeds+inputSeeds)%inputSeeds }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet100k, sweep or serve_batch")
	seed := fs.Int64("seed", 0, "benchmark seed; selects the input seed")
	seconds := fs.Int("seconds", 30, "measure for this long")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	child := fs.Int64("child", 0, "internal: run one unit at this input seed and print it as JSON")
	setupOnly := fs.Bool("setup-only", false, "internal: with -child, do only the set-up")
	record := fs.Bool("record", false, "print the digests of every input seed as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload fleet100k|sweep|serve_batch, -trace 0|1 and -seconds >= 1\n")
		return 2
	}
	if *child != 0 {
		u := &unit{Digests: map[string]string{}}
		run := func() error { return w.run(u, *child, *trace == 1) }
		if *setupOnly && w.setup != nil {
			run = func() error { return w.setup(u) }
		}
		if err := run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(u); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *record {
		return recordDigests(*name, stdout, stderr)
	}
	return drive(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout, stderr)
}

// spawned is one finished child.
type spawned struct {
	unit   *unit
	setupS float64
	rssMB  float64
}

// spawn runs one unit of a workload in a fresh process.
func spawn(name string, seed int64, traced bool, extra ...string) (*spawned, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := append([]string{"-workload", name, "-trace", tr, "-child", strconv.FormatInt(seed, 10)}, extra...)
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s unit: %w", name, err)
	}
	u := &unit{}
	if err := json.Unmarshal(out.Bytes(), u); err != nil {
		return nil, fmt.Errorf("%s unit output: %w", name, err)
	}
	s := &spawned{unit: u, setupS: float64(u.ReadyNs-start.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// drive measures one workload: it spawns units back to back until the time
// is up, checks every unit's outputs, and prints the host record and the
// result.
func drive(name string, w workload, seed int64, d time.Duration, traced bool, stdout, stderr io.Writer) int {
	recorded, err := loadDigests()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	in := inputSeed(seed)
	want := recorded[name][strconv.FormatInt(in, 10)]
	res := result{Correct: true, Metrics: map[string]metric{}}
	var units []*spawned
	start, steal0 := time.Now(), stealSeconds()
	deadline := start.Add(d)
	least := minUnits
	if traced {
		least = 1
	}
	for len(units) < least || time.Now().Before(deadline) {
		s, err := spawn(name, in, traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		u := s.unit
		res.Attempted += u.Ops
		res.Failed += u.Failed
		for _, p := range u.Problems {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", name, p)
			res.Correct = false
		}
		for k, got := range u.Digests {
			if want[k] != got {
				fmt.Fprintf(stderr, "perfbench: %s input seed %d: %s digest %s, recorded %q\n", name, in, k, got, want[k])
				res.Failed++
			}
		}
		if len(u.Digests) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s: unit reported no digest\n", name)
			res.Correct = false
		}
		units = append(units, s)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if traced {
		layers(units, res.Metrics)
	} else {
		setups := make([]float64, 0, len(units)+setupProbes)
		for _, s := range units {
			setups = append(setups, s.setupS)
		}
		for i := 0; w.setup != nil && i < setupProbes; i++ {
			s, err := spawn(name, in, false, "-setup-only")
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			setups = append(setups, s.setupS)
		}
		endToEnd(units, setups, res.Metrics)
	}
	host := map[string]any{
		"host": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"arch": runtime.GOARCH, "go": runtime.Version(), "cpu": cpuModel(),
			// CPU time the hypervisor gave to other guests during the
			// measurement, as a share of this host's CPU time.
			"steal_share": (stealSeconds() - steal0) / (time.Since(start).Seconds() * float64(runtime.NumCPU())),
		},
		"load":       w.load(),
		"workload":   name,
		"seed":       seed,
		"input_seed": in,
		"units":      len(units),
	}
	line, _ := json.Marshal(host) // a map of plain values always marshals
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd reduces the units to the end-to-end metrics: medians over units,
// except throughput (all jobs over all timed seconds) and the job
// percentiles (over every job's latency, pooled).
func endToEnd(units []*spawned, setup []float64, m map[string]metric) {
	var run, rss, jobMs []float64
	var jobs int
	var runTotal float64
	for _, s := range units {
		run = append(run, s.unit.RunS)
		rss = append(rss, s.rssMB)
		jobs += s.unit.Jobs
		runTotal += s.unit.RunS
		jobMs = append(jobMs, s.unit.JobMs...)
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["run_s"] = metric{median(run), "s"}
	m["peak_rss_mb"] = metric{median(rss), "MB"}
	m["jobs_per_s"] = metric{float64(jobs) / runTotal, "1/s"}
	m["job_p50_ms"] = metric{percentile(jobMs, 0.50), "ms"}
	m["job_p99_ms"] = metric{percentile(jobMs, 0.99), "ms"}
}

// layerUnits gives the unit of every per-layer metric; a workload that does
// not exercise a layer reports zero for it.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"tracegen.build_ms": "ms", "cluster.build_ms": "ms", "core.build_ms": "ms",
		"cluster.plant_ns_per_tick": "ns", "sim.tick_ns": "ns",
		"sim.engine_ns_per_tick": "ns", "sim.serial_tick_ns": "ns",
		"sim.shard_speedup": "x", "sim.baseline_ms": "ms", "sim.traced_run_s": "s",
		"serve.submit_ms": "ms", "serve.hit_p50_ms": "ms", "serve.dedup_ratio": "ratio",
		"serve.queue_depth_max": "count", "runner.busy_frac": "ratio",
		"checkpoint.writes": "count", "checkpoint.mb_written": "MB",
		"checkpoint.write_ms_mean": "ms", "go.alloc_mb": "MB", "go.gc_cycles": "count",
	}
	for _, c := range controllerLayers {
		u[c+".ns_per_tick"] = "ns"
	}
	for _, e := range sweepExperiments {
		u["experiments."+e+"_s"] = "s"
	}
	return u
}()

// layers reduces the units to the per-layer metrics: the median over units
// of each value.
func layers(units []*spawned, m map[string]metric) {
	for name, unit := range layerUnits {
		var vals []float64
		for _, s := range units {
			vals = append(vals, s.unit.Layers[name])
		}
		m[name] = metric{median(vals), unit}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of v.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// loadDigests parses digests.json: workload → input seed → name → digest.
func loadDigests() (map[string]map[string]map[string]string, error) {
	var d map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// recordDigests runs one untraced unit per input seed and prints the
// digests in digests.json's shape, for re-recording after an intended
// change of the program's outputs.
func recordDigests(name string, stdout, stderr io.Writer) int {
	out := map[string]map[string]map[string]string{name: {}}
	for in := int64(1); in <= inputSeeds; in++ {
		s, err := spawn(name, in, false)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if len(s.unit.Problems) > 0 {
			fmt.Fprintf(stderr, "perfbench: input seed %d: %s\n", in, strings.Join(s.unit.Problems, "; "))
			return 1
		}
		out[name][strconv.FormatInt(in, 10)] = s.unit.Digests
	}
	line, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// stealSeconds reads the host's total CPU steal time from /proc/stat
// (0 where there is none to read).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100 // USER_HZ
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" when absent).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
