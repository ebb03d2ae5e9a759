package serve

import (
	"fmt"
	"sort"

	"distws/internal/sim"
	"distws/internal/uts"
)

// maxArrivalsPerTenant bounds runaway schedules (a tiny mean against a
// huge horizon); Compile fails loudly rather than truncating silently.
const maxArrivalsPerTenant = 1 << 20

// Job is one compiled arrival: everything the engine needs to replay
// it is resolved here, before the simulation starts.
type Job struct {
	// ID is the job's index in Schedule.Jobs and the value stamped
	// into uts.Node.Job for every node the job owns.
	ID uint32
	// Tenant and Seq identify the source: Seq is the job's per-tenant
	// arrival sequence number.
	Tenant int32
	Seq    int32
	// At is the arrival instant (strictly before the horizon).
	At sim.Time
	// Admitted is the token-bucket verdict. Rejected jobs inject
	// nothing; they exist for the EvJobReject record and the
	// admitted+rejected == arrived identity.
	Admitted bool
	// Root is the placement-chosen rank the job is injected at
	// (assigned to rejected jobs too — routing precedes admission).
	Root int32
	// Tree is the parameter set governing expansion of this job's
	// nodes (admitted jobs only): the tenant's tree with a per-job
	// RootSeed.
	Tree uts.Params
	// Node is the tree's root node, tagged with the job's ID (admitted
	// jobs only): what the engine injects at the arrival instant.
	Node uts.Node
}

// Schedule is the compiled open-loop arrival plan: a pure function of
// (Spec, ranks, seed, nodeCost), replayed verbatim by the engine.
type Schedule struct {
	Spec     *Spec
	Ranks    int
	Seed     uint64
	NodeCost sim.Duration

	// Jobs in arrival order (ties broken by tenant, then sequence).
	Jobs []Job
	// Admitted counts jobs with Admitted set.
	Admitted int
}

// Compile resolves every random choice of the serving run: arrival
// instants, admission verdicts, placements, and each admitted job's
// workload. nodeCost is the engine's Config.NodeCost, recorded on the
// schedule.
func Compile(spec *Spec, ranks int, seed uint64, nodeCost sim.Duration) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ranks < 1 {
		return nil, fmt.Errorf("serve: %d ranks", ranks)
	}
	if nodeCost <= 0 {
		return nil, fmt.Errorf("serve: non-positive node cost %v", nodeCost)
	}
	sched := &Schedule{Spec: spec, Ranks: ranks, Seed: seed, NodeCost: nodeCost}

	// Phase 1: draw every tenant's arrival instants up to the horizon.
	horizon := sim.Time(0).Add(spec.Horizon)
	for ti := range spec.Tenants {
		t := &spec.Tenants[ti]
		g := NewGen(t.Arrival, seed, ti)
		var seq int32
		for {
			at, ok := g.Next()
			if !ok || at >= horizon {
				break
			}
			if at < 0 {
				continue
			}
			sched.Jobs = append(sched.Jobs, Job{
				Tenant: int32(ti),
				Seq:    seq,
				At:     at,
			})
			seq++
			if seq > maxArrivalsPerTenant {
				return nil, fmt.Errorf("serve: tenant %d (%q) generates more than %d arrivals before the horizon",
					ti, t.Name, maxArrivalsPerTenant)
			}
		}
	}

	// Phase 2: merge into global arrival order. The (At, Tenant, Seq)
	// key is a total order, so the sort is deterministic. Replay
	// traces may be unsorted; per-tenant Seq is reassigned afterward
	// so sequence numbers always follow time.
	sort.Slice(sched.Jobs, func(i, j int) bool {
		a, b := &sched.Jobs[i], &sched.Jobs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Seq < b.Seq
	})
	seqs := make([]int32, len(spec.Tenants))
	for i := range sched.Jobs {
		j := &sched.Jobs[i]
		j.Seq = seqs[j.Tenant]
		seqs[j.Tenant]++
	}

	// Phase 3: placement and admission in arrival order; an admitted job
	// gets its workload.
	admitters := make([]Admitter, len(spec.Tenants))
	for ti := range spec.Tenants {
		admitters[ti] = NewAdmitter(spec.Tenants[ti].Admit)
	}
	for i := range sched.Jobs {
		j := &sched.Jobs[i]
		j.ID = uint32(i)
		j.Root = int32(i % ranks)
		j.Admitted = admitters[j.Tenant].Admit(j.At)
		if j.Admitted {
			sched.Admitted++
			j.Tree = spec.Tenants[j.Tenant].Work.Tree
			j.Tree.RootSeed += j.Seq
			j.Node = j.Tree.Root()
			j.Node.Job = j.ID
		}
	}
	return sched, nil
}
