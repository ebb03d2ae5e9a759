// Package serve turns the closed-system engine into an open-system,
// multi-tenant job service: jobs (UTS trees) arrive continuously from
// seeded stochastic processes, pass per-tenant
// admission control, get rooted at a placement-chosen rank, and the
// run ends when the virtual-time horizon has passed and every admitted
// job has drained.
//
// Determinism is the load-bearing property. The entire open-loop
// arrival schedule — every arrival instant, every admission verdict,
// every placement, every job's workload — is resolved by Compile
// before the simulation starts, as a pure function of (Spec, ranks,
// seed). The engine then merely replays the schedule: injection events
// are pre-scheduled on the kernel, so a serving run is bit-deterministic
// for a fixed (Config, seed).
//
// The model follows the multi-client ServeGen-style generators of LLM
// serving simulators (ROADMAP open item 1): per-tenant
// Poisson/Gamma/Weibull inter-arrival processes plus a replay source
// for regression, token-bucket admission, SLO classes with sojourn
// targets, and goodput/fairness (Jain index) as first-class outputs.
package serve

import (
	"fmt"
	"math"

	"distws/internal/sim"
	"distws/internal/uts"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	ProcPoisson = "poisson"
	ProcGamma   = "gamma"
	ProcWeibull = "weibull"
	// ProcReplay replays the explicit instants in ArrivalSpec.Trace
	// (typically loaded from a JSONL arrival log; see ReadArrivals).
	ProcReplay = "replay"
)

// WorkUTS is the workload kind Workload.Kind accepts: a UTS tree per
// job.
const WorkUTS = "uts"

// PlaceRR, the one placement Spec.Placement accepts, roots the i-th
// arriving job at rank i mod ranks.
const PlaceRR = "rr"

// ArrivalSpec describes one tenant's arrival process. All processes
// are parameterized by the mean inter-arrival time, so tenants with
// different distributions but equal Mean offer equal load.
type ArrivalSpec struct {
	// Process is one of ProcPoisson, ProcGamma, ProcWeibull, ProcReplay.
	Process string `json:"process"`
	// Mean is the mean inter-arrival time (ignored by ProcReplay).
	Mean sim.Duration `json:"mean,omitempty"`
	// Shape is the Gamma or the Weibull shape k (finite, >= 0.05);
	// ignored by Poisson and replay. Zero means 1 (both
	// distributions then degenerate to the exponential).
	Shape float64 `json:"shape,omitempty"`
	// Trace lists explicit arrival instants for ProcReplay; instants at
	// or past the horizon are dropped by Compile.
	Trace []sim.Time `json:"trace,omitempty"`
}

// Bucket is a token-bucket admission policy: tokens refill at Rate per
// virtual second up to Burst, and admitting one job costs one token.
// A zero Rate disables admission control for the tenant (every
// arrival is admitted).
type Bucket struct {
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
}

// SLO is a tenant's service-level class: a completion counts toward
// goodput only if its sojourn time (completion minus arrival) is
// within Target.
type SLO struct {
	Class string `json:"class,omitempty"`
	// Target is the sojourn-latency target; zero means every
	// completion counts (best-effort class).
	Target sim.Duration `json:"target,omitempty"`
}

// Workload describes the work one tenant's jobs carry.
type Workload struct {
	// Kind is WorkUTS.
	Kind string `json:"kind"`
	// Tree is the UTS parameter set for WorkUTS jobs. Compile varies
	// RootSeed per job (base + per-tenant job sequence number), so
	// consecutive jobs explore distinct trees of the same family.
	Tree uts.Params `json:"tree,omitempty"`
}

// Tenant is one traffic source.
type Tenant struct {
	Name    string      `json:"name"`
	Arrival ArrivalSpec `json:"arrival"`
	Admit   Bucket      `json:"admit,omitempty"`
	SLO     SLO         `json:"slo,omitempty"`
	Work    Workload    `json:"work"`
}

// Spec configures one open-system serving run. It rides on
// core.Config and is validated there.
type Spec struct {
	// Horizon is the arrival window: arrivals are generated strictly
	// before it, and the run ends no earlier than it (later if
	// admitted jobs are still draining). Required, > 0.
	Horizon sim.Duration `json:"horizon"`
	// Placement is PlaceRR or empty, which means the same.
	Placement string `json:"placement,omitempty"`
	// Tenants are the traffic sources; at least one is required, at
	// most MaxTenants.
	Tenants []Tenant `json:"tenants"`
}

// MaxTenants caps Spec.Tenants: every tenant carries its own arrival
// stream, admission state and statistics row, and a tenant count past
// the cap would exhaust memory before the run could report anything.
const MaxTenants = 4096

// Validate reports specification errors.
func (s *Spec) Validate() error {
	if s.Horizon <= 0 {
		return fmt.Errorf("serve: horizon %v (must be positive)", s.Horizon)
	}
	if s.Placement != "" && s.Placement != PlaceRR {
		return fmt.Errorf("serve: unknown placement %q", s.Placement)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("serve: no tenants")
	}
	if len(s.Tenants) > MaxTenants {
		return fmt.Errorf("serve: %d tenants (at most %d)", len(s.Tenants), MaxTenants)
	}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if err := t.validate(); err != nil {
			return fmt.Errorf("serve: tenant %d (%q): %w", i, t.Name, err)
		}
	}
	return nil
}

func (t *Tenant) validate() error {
	if err := t.Arrival.Validate(); err != nil {
		return err
	}
	if !finiteNonNegative(t.Admit.Rate) || !finiteNonNegative(t.Admit.Burst) {
		return fmt.Errorf("admission rate %g or burst %g (must be finite and >= 0)", t.Admit.Rate, t.Admit.Burst)
	}
	if t.SLO.Target < 0 {
		return fmt.Errorf("negative SLO target %v", t.SLO.Target)
	}
	switch t.Work.Kind {
	case WorkUTS:
		if err := t.Work.Tree.Validate(); err != nil {
			return fmt.Errorf("uts workload: %w", err)
		}
	default:
		return fmt.Errorf("unknown workload kind %q", t.Work.Kind)
	}
	return nil
}

// finiteNonNegative reports whether x is a number in [0, +Inf): NaN
// fails every comparison, so a check written as x < 0 would pass it.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate reports an arrival process the sampler cannot draw from.
func (a ArrivalSpec) Validate() error {
	switch a.Process {
	case ProcPoisson, ProcGamma, ProcWeibull:
		if a.Mean <= 0 {
			return fmt.Errorf("%s arrivals need a positive mean, got %v", a.Process, a.Mean)
		}
		if k := a.Shape; a.Process != ProcPoisson && k != 0 && (!finiteNonNegative(k) || k < 0.05) {
			return fmt.Errorf("%s shape %g (must be finite and >= 0.05)", a.Process, k)
		}
	case ProcReplay:
		for _, at := range a.Trace {
			if at < 0 {
				return fmt.Errorf("replay arrival at negative time %v", at)
			}
		}
	default:
		return fmt.Errorf("unknown arrival process %q", a.Process)
	}
	return nil
}

// shape returns the effective distribution shape (zero means 1).
func (a ArrivalSpec) shape() float64 {
	if a.Shape == 0 {
		return 1
	}
	return a.Shape
}

// burst returns the effective bucket capacity: at least one token, or
// the admission could never admit anything.
func (b Bucket) burst() float64 {
	if b.Burst < 1 {
		return 1
	}
	return b.Burst
}

// Admitter is the token-bucket admission state for one tenant,
// advanced in arrival-time order. The zero value is invalid; use
// NewAdmitter.
type Admitter struct {
	rate   float64 // tokens per nanosecond
	burst  float64
	tokens float64
	last   sim.Time
}

// NewAdmitter builds the admission state for one bucket policy. The
// bucket starts full.
func NewAdmitter(b Bucket) Admitter {
	burst := b.burst()
	return Admitter{
		rate:   b.Rate / float64(sim.Second),
		burst:  burst,
		tokens: burst,
	}
}

// Admit charges one arrival at instant t (non-decreasing across
// calls) and reports whether the bucket admits it.
func (a *Admitter) Admit(t sim.Time) bool {
	if a.rate == 0 {
		return true
	}
	a.tokens += float64(t-a.last) * a.rate
	if a.tokens > a.burst {
		a.tokens = a.burst
	}
	a.last = t
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}

// meanScale converts the distribution's unit-mean draw scale so that
// draws average Mean. For Weibull the unit-scale mean is Γ(1+1/k).
func weibullScale(mean sim.Duration, k float64) float64 {
	return float64(mean) / math.Gamma(1+1/k)
}
