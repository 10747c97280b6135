// Package serve is the multi-tenant simulation-as-a-service layer: a
// long-running job server that accepts simulation specs over a small
// JSON API, multiplexes hundreds of concurrent runs over one
// internal/runner pool, deduplicates identical submissions through a
// shared singleflight result cache, and uses the checkpoint subsystem
// for job suspend/resume, eviction of idle jobs under memory pressure,
// and crash-safe daemon restarts. cmd/npserved is the HTTP front end.
package serve

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/tracegen"
)

// JobSpec is the wire form of one simulation job: which scenario to run
// under which controller stack. The zero value of every field selects the
// same default the npsim CLI uses, so {"mix":"60L"} is a valid job.
type JobSpec struct {
	// Model names the hardware calibration from the host-profile registry
	// (model.Names() lists them; "BladeA" is the default).
	Model string `json:"model,omitempty"`
	// Profiles, when set, runs a heterogeneous fleet instead of Model: a
	// model.Distribution spec like "bladea:3,rack-2u-32:1" expanded
	// deterministically over the fleet. Mutually exclusive with a non-default
	// Model.
	Profiles string `json:"profiles,omitempty"`
	// Mix names the workload mix (180, 60L, 60M, 60H, 60HH, 60HHH, scaleN).
	Mix string `json:"mix,omitempty"`
	// Stack names the controller stack preset (core.StackNames).
	Stack string `json:"stack,omitempty"`
	// Ticks is the simulation length (0 = 3000).
	Ticks int `json:"ticks,omitempty"`
	// Seed drives trace generation and any stochastic policy (0 = 42).
	Seed int64 `json:"seed,omitempty"`
	// CapGrp/CapEnc/CapLoc are the budget headrooms off max power; all
	// three zero selects the paper's base 20-15-10.
	CapGrp float64 `json:"cap_grp,omitempty"`
	CapEnc float64 `json:"cap_enc,omitempty"`
	CapLoc float64 `json:"cap_loc,omitempty"`
	// Policy names the EM/GM budget-division policy ("" = proportional).
	Policy string `json:"policy,omitempty"`
	// NoOff forbids powering idle machines down.
	NoOff bool `json:"no_off,omitempty"`
	// MigrationTicks is the migration penalty window (0 = 10).
	MigrationTicks int `json:"migration_ticks,omitempty"`
	// AlphaV and AlphaM are the virtualization and migration overheads
	// (0 = 0.10 each).
	AlphaV float64 `json:"alpha_v,omitempty"`
	AlphaM float64 `json:"alpha_m,omitempty"`
	// Shards bounds the per-tick goroutines inside the run. Pure execution
	// knob — results are bitwise identical at every value — so it is
	// excluded from the result-cache key.
	Shards int `json:"shards,omitempty"`
}

// Normalized fills CLI-equivalent defaults, returning the canonical form
// the cache key and the run are both derived from — two specs that differ
// only in spelled-out defaults deduplicate to one computation.
func (s JobSpec) Normalized() JobSpec {
	if s.Model == "" && s.Profiles == "" {
		s.Model = "BladeA"
	}
	if s.Profiles != "" {
		// Canonicalize the distribution spelling so equivalent fleets (case,
		// aliases, implicit :1 weights) share one cache key. Invalid specs
		// pass through untouched for Validate to reject.
		if d, err := model.ParseDistribution(s.Profiles); err == nil {
			s.Profiles = d.String()
		}
	}
	if s.Mix == "" {
		s.Mix = string(tracegen.Mix180)
	}
	if s.Stack == "" {
		s.Stack = "coordinated"
	}
	if s.Ticks == 0 {
		s.Ticks = experiments.DefaultTicks
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.CapGrp == 0 && s.CapEnc == 0 && s.CapLoc == 0 {
		s.CapGrp, s.CapEnc, s.CapLoc = 0.20, 0.15, 0.10
	}
	if s.Policy == "" {
		s.Policy = "proportional"
	}
	if s.MigrationTicks == 0 {
		s.MigrationTicks = 10
	}
	if s.AlphaV == 0 {
		s.AlphaV = 0.10
	}
	if s.AlphaM == 0 {
		s.AlphaM = 0.10
	}
	return s
}

// Validate rejects specs that could never run, so the API answers 400 at
// submit instead of parking a doomed job in the queue.
func (s JobSpec) Validate() error {
	s = s.Normalized()
	if s.Profiles != "" {
		if s.Model != "" {
			return fmt.Errorf("serve: model %q and profiles %q are mutually exclusive", s.Model, s.Profiles)
		}
		if _, err := model.ParseDistribution(s.Profiles); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	} else if _, err := model.Lookup(s.Model); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := core.SpecByName(s.Stack); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.Ticks < 0 {
		return fmt.Errorf("serve: negative ticks %d", s.Ticks)
	}
	if _, err := tracegen.MixSize(tracegen.Mix(s.Mix)); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Key returns the canonical spec hash that keys the shared cross-tenant
// result cache: the SHA-256 of the normalized spec with execution knobs
// (Shards) zeroed, since they never change results. Two tenants submitting
// the same simulation — however differently spelled — share one
// computation and one cached result.
func (s JobSpec) Key() string {
	c := s.Normalized()
	c.Shards = 0
	data, err := json.Marshal(c)
	if err != nil {
		// A flat struct of scalars cannot fail to marshal; keep the
		// signature honest anyway.
		panic("serve: marshal canonical spec: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Scenario maps the spec onto the experiments scenario it runs.
func (s JobSpec) Scenario() experiments.Scenario {
	s = s.Normalized()
	return experiments.Scenario{
		Model:          s.Model,
		Profiles:       s.Profiles,
		Mix:            tracegen.Mix(s.Mix),
		Budgets:        experiments.Budgets{Grp: s.CapGrp, Enc: s.CapEnc, Loc: s.CapLoc},
		Ticks:          s.Ticks,
		Seed:           s.Seed,
		MigrationTicks: s.MigrationTicks,
		AlphaV:         s.AlphaV,
		AlphaM:         s.AlphaM,
		Shards:         s.Shards,
	}
}

// CoreSpec maps the spec onto the controller stack it runs, mirroring the
// npsim flag plumbing.
func (s JobSpec) CoreSpec() (core.Spec, error) {
	s = s.Normalized()
	spec, err := core.SpecByName(s.Stack)
	if err != nil {
		return core.Spec{}, err
	}
	spec.Policy = s.Policy
	spec.AllowOff = spec.AllowOff && !s.NoOff
	spec.Shards = s.Shards
	return spec, nil
}

// Output is a finished job's payload: the run summary against its
// no-management baseline.
type Output struct {
	Result    metrics.Result `json:"result"`
	BaselineW float64        `json:"baseline_w"`
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a pool worker (also the state of
	// a resumed job between Resume and its next worker).
	StatusQueued Status = "queued"
	// StatusRunning: inside a pool worker (computing or joined on an
	// identical in-flight computation).
	StatusRunning Status = "running"
	// StatusSuspended: evicted to its checkpoint directory — no engine in
	// memory; Resume requeues it from the latest snapshot.
	StatusSuspended Status = "suspended"
	// StatusDone: finished with a result.
	StatusDone Status = "done"
	// StatusFailed: finished with an error.
	StatusFailed Status = "failed"
	// StatusCancelled: stopped at a tenant's request; never restarted.
	StatusCancelled Status = "cancelled"
)

// terminal reports whether a status can never change again.
func (st Status) terminal() bool {
	return st == StatusDone || st == StatusFailed || st == StatusCancelled
}

// Job is the server-side record of one submitted simulation.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	// key is the shared-result-cache key (Spec.Key(), precomputed).
	key string
	// dir is the job's durable directory ("" when the server has none).
	dir string

	// Mutable state below is guarded by the server mutex, except the two
	// atomics the run loop writes from worker goroutines.
	status    Status
	out       *Output
	errMsg    string
	evicted   bool // suspended by the memory-pressure janitor, not a tenant
	dedup     bool // result came from the shared cache / a joined flight
	restarts  int  // times this job was (re)queued: resume + boot recovery
	submitted int64
	finished  int64

	// progress is ticks completed (absolute, survives resume); total is the
	// scenario tick count. lastAccess is the unix-nano of the last API
	// touch — the idleness signal the pressure janitor evicts by.
	progress   atomic.Int64
	total      int
	lastAccess atomic.Int64

	// done closes when the job reaches a terminal status.
	done chan struct{}
	// cancel stops the in-flight run with a cause (set while running).
	cancel func(error)
}

// View is the JSON rendering of a job's current state.
type View struct {
	ID        string  `json:"id"`
	Spec      JobSpec `json:"spec"`
	Key       string  `json:"key"`
	Status    Status  `json:"status"`
	Progress  int     `json:"progress_ticks"`
	Total     int     `json:"total_ticks"`
	Dedup     bool    `json:"dedup,omitempty"`
	Evicted   bool    `json:"evicted,omitempty"`
	Restarts  int     `json:"restarts,omitempty"`
	Error     string  `json:"error,omitempty"`
	Output    *Output `json:"output,omitempty"`
	Submitted int64   `json:"submitted_unix,omitempty"`
	Finished  int64   `json:"finished_unix,omitempty"`
}

// newJobID returns a fresh 96-bit random hex ID — unique across daemon
// restarts without any persisted counter.
func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: job id entropy: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}
