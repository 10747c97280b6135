package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nopower/internal/obs"
	"nopower/internal/runner"
	"nopower/internal/serve"
)

// The serve_batch workload drives npserved's HTTP API with nproc
// closed-loop clients: each POSTs one job and long-polls /wait before the
// next. Half the jobs repeat one of a small hot set, so the result cache
// serves them; the other half are fresh seeds across every mix and stack,
// so they compute and write checkpoints into the server's durable job dir.
const (
	serveJobs  = 816  // jobs per unit: 34 blocks
	serveTicks = 1500 // ticks per job
	// servePrefix is how many leading jobs of the sequence the digest
	// covers; every unit completes them whatever the host's speed.
	servePrefix = 64
)

// Every job is a 60-server fleet, so misses cost about the same and the
// tail percentile reflects the server, not a rare larger job.
var (
	serveMixes  = []string{"60L", "60M", "60H", "60HH"}
	serveStacks = []string{"coordinated", "uncoordinated", "novmc"}
	serveHot    = []serve.JobSpec{
		{Mix: "60L", Stack: "coordinated"},
		{Mix: "60M", Stack: "uncoordinated"},
		{Mix: "60H", Stack: "novmc"},
		{Mix: "60HH", Stack: "coordinated"},
		{Mix: "60HHH", Stack: "coordinated"},
		{Mix: "60M", Stack: "vmconly"},
	}
	// serveBlock is one fresh job per (mix, stack) pair plus as many hot
	// jobs. The seed shuffles each block, so every input seed offers the
	// same mix of work in a different order.
	serveBlock = 2 * len(serveMixes) * len(serveStacks)
)

func serveLoad() map[string]any {
	n := runtime.NumCPU()
	return map[string]any{"clients": n, "connections": n, "loop": "closed",
		"jobs_per_unit": serveJobs, "ticks": serveTicks, "hot_share": 0.5,
		"hot_specs": len(serveHot), "mixes": serveMixes, "stacks": serveStacks}
}

// serveJob is job i of the sequence for an input seed.
func serveJob(seed int64, i int) serve.JobSpec {
	block := i / serveBlock
	slot := rand.New(rand.NewSource(seed<<32 | int64(block))).Perm(serveBlock)[i%serveBlock]
	fresh := serveBlock / 2
	if slot >= fresh {
		spec := serveHot[(block*fresh+slot-fresh)%len(serveHot)]
		spec.Ticks, spec.Seed = serveTicks, seed
		return spec
	}
	return serve.JobSpec{
		Mix:   serveMixes[slot/len(serveStacks)],
		Stack: serveStacks[slot%len(serveStacks)],
		Ticks: serveTicks,
		Seed:  seed*1_000_000 + int64(i) + 1,
	}
}

// served is one completed job as its client saw it.
type served struct {
	key      string
	status   serve.Status
	dedup    bool
	output   []byte
	latMs    float64
	submitMs float64
}

// benchServer is a durable job server on a loopback listener.
type benchServer struct {
	reg    *obs.Registry
	client *http.Client
	base   string
	close  func()
}

// startServer starts a server with a fresh job dir under .bench_build and
// returns once it answers /healthz.
func startServer() (*benchServer, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{Dir: dir, Registry: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serving := make(chan error, 1)
	go func() { serving <- hs.Serve(ln) }()
	n := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	b := &benchServer{reg: reg, client: client, base: "http://" + ln.Addr().String(), close: func() {
		client.CloseIdleConnections()
		_ = hs.Shutdown(context.Background())
		<-serving
		srv.Close()
		os.RemoveAll(dir)
	}}
	if err := healthy(client, b.base); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// serveSetup times the server's start alone.
func serveSetup(u *unit) error {
	b, err := startServer()
	if err != nil {
		return err
	}
	u.ready()
	b.close()
	return nil
}

// runServe starts a server, runs the job sequence through it, and checks
// every outcome.
func runServe(u *unit, seed int64, traced bool) error {
	b, err := startServer()
	if err != nil {
		return err
	}
	defer b.close()
	u.ready()
	reg, client, base := b.reg, b.client, b.base
	n := runtime.NumCPU()

	var depthMax float64
	stopSampler := func() {}
	if traced {
		stopSampler = sampleQueueDepth(reg, &depthMax)
	}
	var meter goMeter
	meter.start()
	busy0 := runner.Stats().BusySeconds
	jobs := make([]served, serveJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= serveJobs {
					return
				}
				if jobs[i], errs[c] = submitAndWait(client, base, serveJob(seed, i)); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	u.RunS = time.Since(start).Seconds()
	busy := runner.Stats().BusySeconds - busy0
	meter.stop()
	stopSampler()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	outputs := map[string][]byte{}
	computed := map[string]bool{}
	var hitMs, submitMs []float64
	prefix := make([][2]string, 0, servePrefix)
	for i, j := range jobs {
		submitMs = append(submitMs, j.submitMs)
		if j.status != serve.StatusDone {
			u.Failed++
			u.problem("job %d (%s) ended %s", i, j.key, j.status)
			continue
		}
		if j.dedup {
			hitMs = append(hitMs, j.latMs)
		} else {
			u.JobMs = append(u.JobMs, j.latMs)
			if computed[j.key] {
				u.problem("job %d recomputed cached key %s", i, j.key)
			}
			computed[j.key] = true
		}
		if prev, ok := outputs[j.key]; ok && !bytes.Equal(prev, j.output) {
			u.problem("job %d output differs from an earlier output for key %s", i, j.key)
		} else if !ok {
			outputs[j.key] = j.output
		}
		if i < servePrefix {
			prefix = append(prefix, [2]string{j.key, string(j.output)})
		}
	}
	u.Jobs = serveJobs - u.Failed
	u.Ops = serveJobs
	if u.Digests["serve_batch"], err = digest(prefix); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	l := map[string]float64{
		"serve.submit_ms":       median(submitMs),
		"serve.hit_p50_ms":      median(hitMs),
		"serve.queue_depth_max": depthMax,
		"runner.busy_frac":      busy / (float64(n) * u.RunS),
		"checkpoint.writes":     float64(reg.Counter("np_checkpoint_writes_total").Value()),
		"checkpoint.mb_written": float64(reg.Counter("np_checkpoint_bytes_total").Value()) / (1 << 20),
	}
	if sub := reg.Counter("np_serve_jobs_submitted_total").Value(); sub > 0 {
		l["serve.dedup_ratio"] = float64(reg.Counter("np_serve_dedup_hits_total").Value()) / float64(sub)
	}
	if h := reg.Histogram("np_checkpoint_write_seconds"); h.Count() > 0 {
		l["checkpoint.write_ms_mean"] = h.Sum() / float64(h.Count()) * 1000
	}
	meter.report(l)
	// A representative miss, serial as the server runs it: a seed no job of
	// the sequence uses.
	rep := serve.JobSpec{Mix: "60M", Stack: "coordinated", Ticks: serveTicks, Seed: seed * 1_000_000}
	spec, err := rep.CoreSpec()
	if err != nil {
		return err
	}
	if _, err := probeLayers(rep.Scenario(), spec, 1, nil, l); err != nil {
		return err
	}
	u.Layers = l
	return nil
}

// healthy checks that the server answers /healthz.
func healthy(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// submitAndWait POSTs one job and long-polls it to a terminal state.
func submitAndWait(client *http.Client, base string, spec serve.JobSpec) (served, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return served{}, err
	}
	start := time.Now()
	var v serve.View
	if err := call(client, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &v); err != nil {
		return served{}, err
	}
	submitMs := ms(time.Since(start))
	for v.Status == serve.StatusQueued || v.Status == serve.StatusRunning {
		if err := call(client, http.MethodGet, base+"/v1/jobs/"+v.ID+"/wait?timeout=60s", nil, http.StatusOK, &v); err != nil {
			return served{}, err
		}
	}
	out, err := json.Marshal(v.Output)
	if err != nil {
		return served{}, err
	}
	return served{key: v.Key, status: v.Status, dedup: v.Dedup, output: out,
		latMs: ms(time.Since(start)), submitMs: submitMs}, nil
}

// call makes one API request and decodes the JSON reply.
func call(client *http.Client, method, url string, body []byte, wantCode int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, into)
}

// sampleQueueDepth polls the pool's queue depth every few milliseconds
// and keeps its maximum in *peak; the returned func stops the poller and
// waits for it.
func sampleQueueDepth(reg *obs.Registry, peak *float64) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			buf.Reset()
			if reg.WritePrometheus(&buf) != nil {
				continue
			}
			for _, line := range strings.Split(buf.String(), "\n") {
				var v float64
				if _, err := fmt.Sscanf(line, "np_serve_pool_queue_depth %g", &v); err == nil && v > *peak {
					*peak = v
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}
