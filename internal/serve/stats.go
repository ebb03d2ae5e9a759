package serve

import (
	"sort"

	"distws/internal/sim"
)

// TenantStats is one tenant's serving outcome.
type TenantStats struct {
	Name  string
	Class string
	// Partition identity: Admitted + Rejected == Arrived, checked by
	// the manifest gate.
	Arrived, Admitted, Rejected uint64
	// Done counts admitted jobs that completed; the rest of them were
	// lost (Lost).
	Done uint64
	// SLOMet counts completions whose sojourn time met the tenant's
	// SLO target (every completion when the target is zero).
	SLOMet uint64
	// GoodputPerSec is SLO-met completions per virtual second of the
	// arrival horizon — the serving throughput that survives both
	// admission and the latency target.
	GoodputPerSec float64
	// Sojourn percentiles over completed jobs (nearest-rank); zero
	// when the tenant completed nothing.
	SojournP50, SojournP95, SojournP99 sim.Duration
}

// Stats summarizes one serving run, computed after the kernels drain
// from the compiled schedule and the per-job completion instants.
type Stats struct {
	Arrived, Admitted, Rejected, Done uint64
	// Finish is the virtual instant the run ended: the horizon, or the
	// last job completion if the drain outlived it.
	Finish sim.Time
	// Jain is Jain's fairness index over the tenants' goodput:
	// (Σx)²/(n·Σx²), 1.0 for perfect fairness, 1/n for a single
	// tenant hogging everything. Defined as 1.0 when no tenant has
	// goodput (nothing was served, nothing was unfair).
	Jain float64
	// Tenants in spec order.
	Tenants []TenantStats
}

// Lost counts the admitted jobs a fault destroyed work of.
func (s *Stats) Lost() uint64 { return s.Admitted - s.Done }

// Stats derives the serving summary. done[id] is job id's completion
// instant, negative for jobs that never completed (rejected or lost
// jobs); finish is the run's end instant.
func (s *Schedule) Stats(done []sim.Time, finish sim.Time) *Stats {
	st := &Stats{
		Finish:  finish,
		Tenants: make([]TenantStats, len(s.Spec.Tenants)),
	}
	sojourns := make([][]sim.Duration, len(s.Spec.Tenants))
	for ti := range s.Spec.Tenants {
		t := &s.Spec.Tenants[ti]
		st.Tenants[ti].Name = t.Name
		st.Tenants[ti].Class = t.SLO.Class
	}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		ts := &st.Tenants[j.Tenant]
		ts.Arrived++
		st.Arrived++
		if !j.Admitted {
			ts.Rejected++
			st.Rejected++
			continue
		}
		ts.Admitted++
		st.Admitted++
		if int(j.ID) >= len(done) || done[j.ID] < 0 {
			continue
		}
		ts.Done++
		st.Done++
		sojourn := done[j.ID].Sub(j.At)
		sojourns[j.Tenant] = append(sojourns[j.Tenant], sojourn)
		target := s.Spec.Tenants[j.Tenant].SLO.Target
		if target == 0 || sojourn <= target {
			ts.SLOMet++
		}
	}
	horizonSec := float64(s.Spec.Horizon) / float64(sim.Second)
	var sum, sumSq float64
	for ti := range st.Tenants {
		ts := &st.Tenants[ti]
		if horizonSec > 0 {
			ts.GoodputPerSec = float64(ts.SLOMet) / horizonSec
		}
		sj := sojourns[ti]
		sort.Slice(sj, func(a, b int) bool { return sj[a] < sj[b] })
		ts.SojournP50 = percentile(sj, 50)
		ts.SojournP95 = percentile(sj, 95)
		ts.SojournP99 = percentile(sj, 99)
		sum += ts.GoodputPerSec
		sumSq += ts.GoodputPerSec * ts.GoodputPerSec
	}
	if sumSq > 0 {
		st.Jain = sum * sum / (float64(len(st.Tenants)) * sumSq)
	} else {
		st.Jain = 1
	}
	return st
}

// percentile is the nearest-rank percentile of a sorted slice (zero
// when empty).
func percentile(sorted []sim.Duration, p int) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
