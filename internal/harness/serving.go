package harness

import (
	"fmt"

	"distws/internal/core"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/uts"
)

// The serving experiment exercises the open-system layer
// (internal/serve): jobs arrive continuously from two tenants, and the
// sweep pushes the gold tenant's arrival rate through the cluster's
// service capacity for three victim selectors, tabulating the
// saturation knee — goodput tracks the offered rate while the cluster
// keeps up, then flattens (and the sojourn tail explodes) once the
// offered load crosses capacity.

func init() {
	register(Experiment{ID: "serving", Title: "S1: open-system serving saturation (goodput vs arrival rate)", Run: runServing})
}

// servingJobTree is the per-job workload of the serving sweep: a
// binomial tree with E[nodes] = B0/(1-BF*p) = 200/0.12 ≈ 1667, i.e.
// ≈1.7ms of serial work at the experiments' 1µs node cost. Compile
// varies RootSeed per job, so consecutive jobs are distinct members of
// this family.
func servingJobTree() uts.Params {
	return uts.Params{
		Type:        uts.Binomial,
		B0:          200,
		NonLeafBF:   4,
		NonLeafProb: 0.22,
		RootSeed:    42,
		Hash:        uts.HashFast,
	}
}

// servingJobCost is the expected serial cost of one servingJobTree job
// (E[nodes] × core.DefaultNodeCost), the unit the sweep's load factors
// are expressed in.
const servingJobCost = 1667 * sim.Microsecond

// servingSpec builds the two-tenant spec for one sweep point: the gold
// tenant offers ρ × capacity under a token bucket and a latency SLO,
// and a fixed best-effort silver tenant supplies light background load
// so fairness (Jain) is measured over a real mix.
func servingSpec(scale *Scale, rho float64) *serve.Spec {
	ranks, horizon := scale.servingRanks, scale.servingHorizon
	// capacity = ranks/jobCost jobs per second; offered = ρ × capacity,
	// so the mean inter-arrival time is jobCost/(ranks × ρ).
	mean := sim.Duration(float64(servingJobCost) / (float64(ranks) * rho))
	capacityPerSec := float64(ranks) * float64(sim.Second) / float64(servingJobCost)
	return &serve.Spec{
		Horizon:   horizon,
		Placement: serve.PlaceRR,
		Tenants: []serve.Tenant{
			{
				Name:    "gold",
				Arrival: serve.ArrivalSpec{Process: serve.ProcPoisson, Mean: mean},
				// The bucket sits above capacity: admission is not the
				// bottleneck below the knee, but it sheds part of the
				// overload at ρ ≥ 2 instead of letting the queue grow
				// without bound.
				Admit: serve.Bucket{Rate: 1.5 * capacityPerSec, Burst: 4},
				SLO:   serve.SLO{Class: "gold", Target: 5 * sim.Millisecond},
				Work:  serve.Workload{Kind: serve.WorkUTS, Tree: servingJobTree()},
			},
			{
				Name:    "silver",
				Arrival: serve.ArrivalSpec{Process: serve.ProcGamma, Mean: horizon / 16, Shape: 2},
				SLO:     serve.SLO{Class: "best-effort"},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: servingJobTree()},
			},
		},
	}
}

func runServing(scale *Scale, seed uint64) (*Report, error) {
	ranks, loads := scale.servingRanks, scale.servingLoads
	selectors := []Variant{Reference, Rand, Tofu}

	rep := &Report{
		ID:    "serving",
		Title: fmt.Sprintf("S1: open-system serving saturation (%d ranks, horizon %v)", ranks, scale.servingHorizon),
		Paper: "extension: the paper studies one closed batch; here jobs arrive continuously and victim selection meets queueing.",
	}
	capacityPerSec := float64(ranks) * float64(sim.Second) / float64(servingJobCost)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"job: E[%v] serial work; service capacity ≈ %.0f jobs/s at %d ranks; gold SLO 5ms under a 1.5×-capacity token bucket",
		servingJobCost, capacityPerSec, ranks))

	// One grid, executed in parallel: selectors share the seed, so for a
	// fixed load every selector faces the byte-identical arrival,
	// admission and placement schedule.
	var cfgs []core.Config
	for _, rho := range loads {
		for _, v := range selectors {
			cfg := v.Config(ranks, uts.Params{}, seed)
			cfg.Serve = servingSpec(scale, rho)
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	knee := &Table{
		Title:   "Gold goodput and p95 sojourn vs offered load (the saturation knee)",
		Columns: []string{"load ρ", "offered/s"},
	}
	for _, v := range selectors {
		knee.Columns = append(knee.Columns, v.Name+" goodput/s", v.Name+" p95")
	}

	// gold[selector][load index] = gold-tenant stats for the knee checks.
	gold := make(map[string][]serve.TenantStats, len(selectors))
	for li, rho := range loads {
		row := []string{fmtFloat(rho, 2), fmtFloat(rho*capacityPerSec, 0)}
		for vi, v := range selectors {
			label := fmt.Sprintf("serving rho=%.2f %s", rho, v.Name)
			st := res[li*len(selectors)+vi].Serve
			if st == nil {
				return nil, fmt.Errorf("harness: serving run %q returned no serving stats", label)
			}
			if st.Admitted+st.Rejected != st.Arrived || st.Done != st.Admitted {
				return nil, fmt.Errorf("harness: serving run %q books %d arrived, %d admitted, %d rejected, %d done",
					label, st.Arrived, st.Admitted, st.Rejected, st.Done)
			}
			g := st.Tenants[0]
			gold[v.Name] = append(gold[v.Name], g)
			row = append(row, fmtFloat(g.GoodputPerSec, 0), fmtDur(g.SojournP95))
		}
		knee.Rows = append(knee.Rows, row)
	}
	rep.Tables = append(rep.Tables, knee)

	// Per-tenant breakdown at the knee (ρ = 1) for the winning selector.
	kneeIdx := 0
	for i, rho := range loads {
		if rho == 1 {
			kneeIdx = i
		}
	}
	tenants := &Table{
		Title:   fmt.Sprintf("Per-tenant outcome at ρ=%.2f (Tofu)", loads[kneeIdx]),
		Columns: []string{"tenant", "class", "arrived", "admitted", "rejected", "done", "SLO met", "goodput/s", "p50", "p95", "p99"},
	}
	kneeStats := res[kneeIdx*len(selectors)+2].Serve
	for _, ts := range kneeStats.Tenants {
		tenants.Rows = append(tenants.Rows, []string{
			ts.Name, ts.Class,
			fmt.Sprintf("%d", ts.Arrived), fmt.Sprintf("%d", ts.Admitted),
			fmt.Sprintf("%d", ts.Rejected), fmt.Sprintf("%d", ts.Done),
			fmt.Sprintf("%d", ts.SLOMet), fmtFloat(ts.GoodputPerSec, 0),
			fmtDur(ts.SojournP50), fmtDur(ts.SojournP95), fmtDur(ts.SojournP99),
		})
	}
	rep.Tables = append(rep.Tables, tenants)
	rep.Notes = append(rep.Notes, fmt.Sprintf("Jain fairness at ρ=%.2f (Tofu): %s",
		loads[kneeIdx], fmtFloat(kneeStats.Jain, 3)))

	// Shape checks. The admission identity and full drain were already
	// enforced as hard errors above; the checks below pin the queueing
	// story.
	first, last := loads[0], loads[len(loads)-1]
	offeredRatio := last / first
	for _, v := range selectors {
		g := gold[v.Name]
		lo, hi := g[0], g[len(g)-1]
		gain := 0.0
		if lo.GoodputPerSec > 0 {
			gain = hi.GoodputPerSec / lo.GoodputPerSec
		}
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc: fmt.Sprintf("%s: goodput saturates past the knee (sublinear in offered load)", v.Name),
			Pass: lo.GoodputPerSec > 0 && gain < offeredRatio,
			Detail: fmt.Sprintf("offered ×%.0f, goodput ×%.2f (%.0f/s → %.0f/s)",
				offeredRatio, gain, lo.GoodputPerSec, hi.GoodputPerSec),
		})
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc: fmt.Sprintf("%s: overload inflates the sojourn tail", v.Name),
			Pass: hi.SojournP95 > lo.SojournP95,
			Detail: fmt.Sprintf("p95 %v at ρ=%.2f vs %v at ρ=%.2f",
				lo.SojournP95, first, hi.SojournP95, last),
		})
	}
	return rep, nil
}
