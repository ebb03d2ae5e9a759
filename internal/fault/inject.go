package fault

import (
	"math"

	"distws/internal/comm"
	"distws/internal/rng"
	"distws/internal/sim"
)

// Injector is a compiled fault plan bound to one run. It implements
// comm.Interposer for the link faults and straggler send multipliers,
// and answers the engine's compute-multiplier queries (the engine
// schedules crashes from the plan itself). One injector serves one run: its random stream advances as
// messages flow, so reuse across runs would change outcomes.
type Injector struct {
	kernel *sim.Kernel
	rng    *rng.Xoshiro256

	// computeMul/sendMul are per-rank straggler multipliers; nil when
	// the plan has no stragglers (so the common case costs one nil
	// check, not a per-rank table walk).
	computeMul []float64
	sendMul    []float64
	// links are the compiled drop/dup/spike rules, first match wins.
	links []LinkFault

	// OnDrop, when set, observes every message the injector decides to
	// drop — its header and its body (nil for none) — before the
	// network reclaims it. The engine uses it to account lost work and
	// resolve the termination detector's message counts. It must not
	// retain the body.
	OnDrop func(h comm.Header, body *comm.Message)
	// OnDup observes every message the injector decides to duplicate.
	OnDup func(h comm.Header, body *comm.Message)
}

// Compile validates plan against the rank count and binds it to the
// kernel's virtual clock. A nil or empty plan compiles to a nil
// injector: the caller keeps its fault-free fast paths.
func Compile(plan *Plan, ranks int, kernel *sim.Kernel) (*Injector, error) {
	if plan == nil || plan.Empty() {
		return nil, nil
	}
	if err := plan.Validate(ranks); err != nil {
		return nil, err
	}
	inj := &Injector{kernel: kernel, rng: rng.New(plan.Seed)}
	if len(plan.Stragglers) > 0 {
		inj.computeMul = make([]float64, ranks)
		inj.sendMul = make([]float64, ranks)
		for r := 0; r < ranks; r++ {
			inj.computeMul[r], inj.sendMul[r] = 1, 1
		}
		for _, s := range plan.Stragglers {
			if s.Compute > 0 {
				inj.computeMul[s.Rank] = s.Compute
			}
			if s.Send > 0 {
				inj.sendMul[s.Rank] = s.Send
			}
		}
	}
	inj.links = append([]LinkFault(nil), plan.Links...)
	return inj, nil
}

// NeedsInterposer reports whether the injector must sit on the
// network's send path at all. Crash-only plans return false, keeping
// the messaging hot path exactly as fault-free runs have it.
func (i *Injector) NeedsInterposer() bool {
	if i == nil {
		return false
	}
	if len(i.links) > 0 {
		return true
	}
	for _, m := range i.sendMul {
		if m != 1 {
			return true
		}
	}
	return false
}

// ScaleCompute applies rank's straggler compute multiplier to a
// quantum duration.
func (i *Injector) ScaleCompute(rank int, d sim.Duration) sim.Duration {
	if i == nil || i.computeMul == nil {
		return d
	}
	return scale(d, i.computeMul[rank])
}

// ruleFor returns the first link rule matching from→to, or nil.
func (i *Injector) ruleFor(from, to int) *LinkFault {
	for k := range i.links {
		l := &i.links[k]
		if (l.From == Wildcard || l.From == from) && (l.To == Wildcard || l.To == to) {
			return l
		}
	}
	return nil
}

// dropEligible reports whether the protocol tolerates losing a message
// of this tag; see the package comment for the exemption rationale.
func dropEligible(tag comm.Tag) bool {
	return tag == comm.TagStealRequest || tag == comm.TagWork || tag == comm.TagNoWork
}

// Outcome implements comm.Interposer: straggler send delay, spike
// windows, then the drop/dup draws from the plan's stream.
func (i *Injector) Outcome(h comm.Header, body *comm.Message, delay sim.Duration) (int, sim.Duration) {
	tag, from, to, _ := h.Unpack()
	if i.sendMul != nil {
		delay = scale(delay, i.sendMul[from])
	}
	r := i.ruleFor(from, to)
	if r == nil {
		return 1, delay
	}
	if r.SpikeFactor != 0 {
		if now := i.kernel.Now(); now >= r.SpikeStart && now < r.SpikeEnd {
			delay = scale(delay, r.SpikeFactor)
		}
	}
	if !dropEligible(tag) {
		return 1, delay
	}
	if r.Drop > 0 && i.rng.Float64() < r.Drop {
		if i.OnDrop != nil {
			i.OnDrop(h, body)
		}
		return 0, delay
	}
	if r.Dup > 0 && tag != comm.TagWork && i.rng.Float64() < r.Dup {
		if i.OnDup != nil {
			i.OnDup(h, body)
		}
		return 2, delay
	}
	return 1, delay
}

// scale multiplies a duration by a factor, keeping it at least 1ns so
// degenerate factors cannot create zero-time delivery loops, and
// saturating instead of wrapping past the largest duration.
func scale(d sim.Duration, f float64) sim.Duration {
	if f == 1 {
		return d
	}
	switch s := float64(d) * f; {
	case s >= math.MaxInt64:
		return math.MaxInt64
	case s >= 1:
		return sim.Duration(s)
	}
	return 1
}
