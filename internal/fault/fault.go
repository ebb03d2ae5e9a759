// Package fault is the deterministic fault-injection subsystem.
//
// A Plan is a declarative, JSON-serializable description of every
// adversity a run must survive: fail-stop rank crashes at chosen
// virtual times, stragglers (per-rank compute and send-latency
// multipliers), per-link message drop/duplication probabilities, and
// transient latency spikes on selected links. Compile turns a plan
// into an Injector that interposes at the comm.Network boundary
// (comm.Interposer) and answers the engine's crash-schedule and
// straggler queries.
//
// Determinism contract: the subsystem touches no wall clock and no
// global randomness. Probabilistic outcomes (drop, duplicate) are
// drawn from the plan's own seeded stream (internal/rng) in the order
// messages are sent, which the simulator's event order makes a pure
// function of (plan, seed, config). The same plan over the same run
// therefore drops the same messages — byte-identical Results across
// repeats, which the chaos experiment and tests assert.
//
// Protocol exemptions, chosen so every surviving run still terminates:
//
//   - TagToken and TagTerminate are never dropped or duplicated. Token
//     loss happens only when a rank crashes while holding one, and the
//     termination ring heals that case (see internal/term); exempting
//     the detector's own traffic from link faults means no extra
//     watchdog machinery is needed for liveness.
//   - TagWork is never duplicated: a duplicate would alias the stolen
//     node slice and double-count tree work, breaking the engine's
//     completed + lost == generated accounting. Steal requests and
//     refusals may duplicate freely; the request/reply ID protocol
//     already discards stale replies.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"distws/internal/sim"
)

// Crash fail-stops a rank at a virtual time. The rank loses its local
// stack and every message already in its mailbox; in-flight messages
// addressed to it are lost on arrival.
type Crash struct {
	Rank int `json:"rank"`
	// At is the virtual time of death, in simulated nanoseconds.
	At sim.Time `json:"at"`
}

// Straggler slows one rank down: Compute multiplies its node-expansion
// quanta, Send multiplies the latency of every message it sends. A
// zero multiplier means "leave unchanged" (i.e. 1.0).
type Straggler struct {
	Rank    int     `json:"rank"`
	Compute float64 `json:"compute,omitempty"`
	Send    float64 `json:"send,omitempty"`
}

// LinkFault degrades the link From→To. From and/or To may be Wildcard
// to match any sender/receiver; the first matching rule in plan order
// wins. Drop and Dup are per-message probabilities in [0,1] drawn from
// the plan's stream; Spike* define a transient window during which the
// link's latency is multiplied by SpikeFactor.
type LinkFault struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Drop float64 `json:"drop,omitempty"`
	Dup  float64 `json:"dup,omitempty"`
	// SpikeStart/SpikeEnd bound the latency spike window [start, end) in
	// virtual nanoseconds; SpikeFactor multiplies the latency inside it.
	SpikeStart  sim.Time `json:"spike_start,omitempty"`
	SpikeEnd    sim.Time `json:"spike_end,omitempty"`
	SpikeFactor float64  `json:"spike_factor,omitempty"`
}

// Wildcard matches any rank in a LinkFault's From/To position.
const Wildcard = -1

// Plan is a complete, seeded fault scenario.
type Plan struct {
	// Seed seeds the plan's private random stream (drop/dup draws). It
	// is independent of the engine's work-stealing seed so the same
	// adversity can be replayed against different victim policies.
	Seed       uint64      `json:"seed"`
	Crashes    []Crash     `json:"crashes,omitempty"`
	Stragglers []Straggler `json:"stragglers,omitempty"`
	Links      []LinkFault `json:"links,omitempty"`
}

// MaxMultiplier caps a straggler multiplier and a spike factor: ten
// thousand times slower is a dead rank in all but name.
const MaxMultiplier = 1e4

// ParsePlan decodes a JSON plan, rejecting unknown fields and anything
// after the plan, so a typo'd plan file fails loudly instead of
// silently injecting nothing.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("fault: parse plan: data after the plan")
	}
	return &p, nil
}

// Validate checks the plan against a rank count. It requires at least
// one rank to survive all crashes: a run with no survivors has no one
// left to detect termination.
func (p *Plan) Validate(ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("fault: plan for %d ranks", ranks)
	}
	crashed := make(map[int]bool, len(p.Crashes))
	for _, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= ranks {
			return fmt.Errorf("fault: crash rank %d out of range [0,%d)", c.Rank, ranks)
		}
		if c.At <= 0 {
			return fmt.Errorf("fault: crash of rank %d at non-positive time %d", c.Rank, c.At)
		}
		if crashed[c.Rank] {
			return fmt.Errorf("fault: rank %d crashes twice", c.Rank)
		}
		crashed[c.Rank] = true
	}
	if len(crashed) >= ranks {
		return fmt.Errorf("fault: all %d ranks crash; at least one must survive", ranks)
	}
	for _, s := range p.Stragglers {
		if s.Rank < 0 || s.Rank >= ranks {
			return fmt.Errorf("fault: straggler rank %d out of range [0,%d)", s.Rank, ranks)
		}
		if !(s.Compute >= 0 && s.Compute <= MaxMultiplier && s.Send >= 0 && s.Send <= MaxMultiplier) {
			return fmt.Errorf("fault: straggler rank %d has a multiplier outside [0, %g]", s.Rank, float64(MaxMultiplier))
		}
	}
	for i, l := range p.Links {
		if (l.From != Wildcard && (l.From < 0 || l.From >= ranks)) ||
			(l.To != Wildcard && (l.To < 0 || l.To >= ranks)) {
			return fmt.Errorf("fault: link rule %d endpoints (%d,%d) out of range", i, l.From, l.To)
		}
		if l.Drop < 0 || l.Drop > 1 || l.Dup < 0 || l.Dup > 1 {
			return fmt.Errorf("fault: link rule %d probabilities outside [0,1]", i)
		}
		if l.SpikeFactor != 0 {
			if !(l.SpikeFactor >= 1 && l.SpikeFactor <= MaxMultiplier) {
				return fmt.Errorf("fault: link rule %d spike factor %v outside [1, %g]", i, l.SpikeFactor, float64(MaxMultiplier))
			}
			if l.SpikeEnd <= l.SpikeStart {
				return fmt.Errorf("fault: link rule %d spike window [%d,%d) is empty", i, l.SpikeStart, l.SpikeEnd)
			}
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing at all; an empty plan
// behaves identically to a nil one.
func (p *Plan) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Stragglers) == 0 && len(p.Links) == 0
}

// Lossy reports whether the plan can destroy messages: rank crashes
// dead-letter everything addressed to them, and link rules may drop
// outright. Lossy plans need steal timeouts for liveness — a thief
// whose request or reply died would otherwise wait forever — so the
// engine arms a default StealTimeout for them.
func (p *Plan) Lossy() bool {
	if len(p.Crashes) > 0 {
		return true
	}
	for _, l := range p.Links {
		if l.Drop > 0 {
			return true
		}
	}
	return false
}

// SortedCrashes returns the plan's crashes ordered by time then rank —
// the order the engine schedules them in.
func (p *Plan) SortedCrashes() []Crash {
	cs := append([]Crash(nil), p.Crashes...)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].At != cs[j].At {
			return cs[i].At < cs[j].At
		}
		return cs[i].Rank < cs[j].Rank
	})
	return cs
}
