package serve

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"distws/internal/sim"
	"distws/internal/uts"
)

func testTree() uts.Params {
	return uts.Params{
		Type: uts.Binomial, RootSeed: 42, B0: 40,
		NonLeafBF: 2, NonLeafProb: 0.49, Hash: uts.HashFast,
	}
}

func testSpec() *Spec {
	return &Spec{
		Horizon: 50 * sim.Millisecond,
		Tenants: []Tenant{
			{
				Name:    "batch",
				Arrival: ArrivalSpec{Process: ProcPoisson, Mean: 2 * sim.Millisecond},
				Admit:   Bucket{Rate: 400, Burst: 4},
				SLO:     SLO{Class: "gold", Target: 5 * sim.Millisecond},
				Work:    Workload{Kind: WorkUTS, Tree: testTree()},
			},
			{
				Name:    "interactive",
				Arrival: ArrivalSpec{Process: ProcGamma, Mean: 3 * sim.Millisecond, Shape: 2},
				SLO:     SLO{Class: "silver"},
				Work:    Workload{Kind: WorkUTS, Tree: testTree()},
			},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"zero horizon", func(s *Spec) { s.Horizon = 0 }, "horizon"},
		{"negative cap", func(s *Spec) { s.MaxJobs = -1 }, "job cap"},
		{"bad placement", func(s *Spec) { s.Placement = "hash" }, "placement"},
		{"no tenants", func(s *Spec) { s.Tenants = nil }, "no tenants"},
		{"bad process", func(s *Spec) { s.Tenants[0].Arrival.Process = "pareto" }, "arrival process"},
		{"zero mean", func(s *Spec) { s.Tenants[0].Arrival.Mean = 0 }, "positive mean"},
		{"tiny shape", func(s *Spec) { s.Tenants[1].Arrival.Shape = 0.01 }, "shape"},
		{"negative rate", func(s *Spec) { s.Tenants[0].Admit.Rate = -1 }, "admission rate"},
		{"negative target", func(s *Spec) { s.Tenants[0].SLO.Target = -1 }, "SLO target"},
		{"bad kind", func(s *Spec) { s.Tenants[0].Work.Kind = "mapreduce" }, "workload kind"},
		{"bad tree", func(s *Spec) { s.Tenants[0].Work.Tree = uts.Params{Type: uts.TreeType(99)} }, "uts workload"},
	}
	for _, c := range cases {
		s := testSpec()
		c.edit(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestCompileDeterministic(t *testing.T) {
	a, err := Compile(testSpec(), 16, 7, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(testSpec(), 16, 7, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical (spec, ranks, seed, nodeCost) compiled to different schedules")
	}
	c, err := Compile(testSpec(), 16, 8, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Jobs, c.Jobs) {
		t.Fatal("different seeds compiled to identical schedules")
	}
	if len(a.Jobs) == 0 {
		t.Fatal("no arrivals compiled")
	}
	last := sim.Time(-1)
	for i := range a.Jobs {
		j := &a.Jobs[i]
		if j.ID != uint32(i) {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if j.At < last {
			t.Fatalf("job %d arrives at %v before predecessor at %v", i, j.At, last)
		}
		last = j.At
		if j.At >= sim.Time(0).Add(a.Spec.Horizon) {
			t.Fatalf("job %d arrives at %v, at or past the horizon", i, j.At)
		}
		if j.Root < 0 || int(j.Root) >= a.Ranks {
			t.Fatalf("job %d rooted at rank %d of %d", i, j.Root, a.Ranks)
		}
		if j.Admitted {
			if want := j.Tree.Root(); j.Node.State != want.State || j.Node.Job != j.ID {
				t.Fatalf("admitted job %d carries node %+v, want its tree's root tagged %d", i, j.Node, j.ID)
			}
		} else if j.Node != (uts.Node{}) {
			t.Fatalf("rejected job %d carries a node", i)
		}
	}
}

func TestAdmissionPartitionAndCap(t *testing.T) {
	s := testSpec()
	s.MaxJobs = 5
	sched, err := Compile(s, 8, 99, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	admitted, rejected := 0, 0
	for i := range sched.Jobs {
		if sched.Jobs[i].Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted != sched.Admitted {
		t.Fatalf("Admitted = %d, counted %d", sched.Admitted, admitted)
	}
	if admitted+rejected != len(sched.Jobs) {
		t.Fatal("admitted + rejected != arrived")
	}
	if admitted > 5 {
		t.Fatalf("MaxJobs=5 but %d admitted", admitted)
	}
	if admitted != 5 {
		t.Fatalf("expected the cap to bind (5 admitted), got %d of %d arrivals", admitted, len(sched.Jobs))
	}
}

func TestTokenBucketThrottles(t *testing.T) {
	// 100 arrivals 1ms apart against a 100/s bucket (one token per
	// 10ms) with burst 1: the bucket admits the first arrival and then
	// at most one per 10ms window.
	a := NewAdmitter(Bucket{Rate: 100, Burst: 1})
	admitted := 0
	for i := 0; i < 100; i++ {
		if a.Admit(sim.Time(i) * sim.Time(sim.Millisecond)) {
			admitted++
		}
	}
	if admitted < 10 || admitted > 11 {
		t.Fatalf("100/s bucket admitted %d of 100 arrivals over 99ms, want ~10", admitted)
	}
	// A zero rate admits everything.
	free := NewAdmitter(Bucket{})
	for i := 0; i < 10; i++ {
		if !free.Admit(sim.Time(i)) {
			t.Fatal("unlimited bucket rejected an arrival")
		}
	}
}

func TestGenMeansRoughlyMatch(t *testing.T) {
	const n = 20000
	for _, proc := range []ArrivalSpec{
		{Process: ProcPoisson, Mean: sim.Millisecond},
		{Process: ProcGamma, Mean: sim.Millisecond, Shape: 3},
		{Process: ProcGamma, Mean: sim.Millisecond, Shape: 0.5},
		{Process: ProcWeibull, Mean: sim.Millisecond, Shape: 1.5},
		{Process: ProcWeibull, Mean: sim.Millisecond, Shape: 0.8},
	} {
		g := NewGen(proc, 1234, 0)
		var last sim.Time
		for i := 0; i < n; i++ {
			at, ok := g.Next()
			if !ok {
				t.Fatalf("%s exhausted", proc.Process)
			}
			if at <= last && i > 0 {
				t.Fatalf("%s: non-increasing arrivals", proc.Process)
			}
			last = at
		}
		mean := float64(last) / n
		if math.Abs(mean-float64(proc.Mean)) > 0.05*float64(proc.Mean) {
			t.Errorf("%s shape=%g: empirical mean inter-arrival %.0fns, want %.0fns ±5%%",
				proc.Process, proc.Shape, mean, float64(proc.Mean))
		}
	}
}

func TestReplayRoundtrip(t *testing.T) {
	sched, err := Compile(testSpec(), 8, 3, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArrivals(&buf, sched); err != nil {
		t.Fatal(err)
	}
	traces, err := ReadArrivals(bytes.NewReader(buf.Bytes()), len(sched.Spec.Tenants))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the spec in replay mode: same arrivals, same admission
	// verdicts, same placements.
	rs := testSpec()
	for ti := range rs.Tenants {
		rs.Tenants[ti].Arrival = ArrivalSpec{Process: ProcReplay, Trace: traces[ti]}
	}
	replayed, err := Compile(rs, 8, 3, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Jobs) != len(sched.Jobs) {
		t.Fatalf("replay compiled %d jobs, original %d", len(replayed.Jobs), len(sched.Jobs))
	}
	for i := range sched.Jobs {
		o, r := &sched.Jobs[i], &replayed.Jobs[i]
		if o.At != r.At || o.Tenant != r.Tenant || o.Admitted != r.Admitted || o.Root != r.Root {
			t.Fatalf("job %d diverged under replay: %+v vs %+v", i, o, r)
		}
	}

	if _, err := ReadArrivals(strings.NewReader(`{"tenant":9,"at":1}`), 2); err == nil {
		t.Fatal("out-of-range tenant accepted")
	}
	if _, err := ReadArrivals(strings.NewReader(`{"tenant":0,"at":1,"x":2}`), 2); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestStatsPartitionAndJain(t *testing.T) {
	sched, err := Compile(testSpec(), 8, 21, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	done := make([]sim.Time, len(sched.Jobs))
	for i := range done {
		done[i] = -1
	}
	// Complete every admitted job 1ms after arrival.
	for i := range sched.Jobs {
		if sched.Jobs[i].Admitted {
			done[i] = sched.Jobs[i].At.Add(sim.Millisecond)
		}
	}
	finish := sim.Time(0).Add(sched.Spec.Horizon)
	st := sched.Stats(done, finish)
	if st.Admitted+st.Rejected != st.Arrived {
		t.Fatalf("admitted %d + rejected %d != arrived %d", st.Admitted, st.Rejected, st.Arrived)
	}
	if st.Done != st.Admitted {
		t.Fatalf("done %d != admitted %d with every job completed", st.Done, st.Admitted)
	}
	var arrived, admitted, rejected uint64
	for ti := range st.Tenants {
		ts := &st.Tenants[ti]
		if ts.Admitted+ts.Rejected != ts.Arrived {
			t.Fatalf("tenant %d: admitted+rejected != arrived", ti)
		}
		arrived += ts.Arrived
		admitted += ts.Admitted
		rejected += ts.Rejected
		if ts.Done > 0 {
			if ts.SojournP50 != sim.Millisecond || ts.SojournP99 != sim.Millisecond {
				t.Fatalf("tenant %d: constant 1ms sojourns but p50=%v p99=%v", ti, ts.SojournP50, ts.SojournP99)
			}
			// 1ms is inside both tenants' targets (5ms and best-effort).
			if ts.SLOMet != ts.Done {
				t.Fatalf("tenant %d: %d SLO-met of %d done at 1ms sojourn", ti, ts.SLOMet, ts.Done)
			}
		}
	}
	if arrived != st.Arrived || admitted != st.Admitted || rejected != st.Rejected {
		t.Fatal("tenant rows do not sum to the global partition")
	}
	if st.Jain <= 0 || st.Jain > 1 {
		t.Fatalf("Jain index %g outside (0, 1]", st.Jain)
	}
	// Nothing served: Jain defined as 1.
	none := make([]sim.Time, len(sched.Jobs))
	for i := range none {
		none[i] = -1
	}
	if got := sched.Stats(none, finish).Jain; got != 1 {
		t.Fatalf("Jain = %g with nothing served, want 1", got)
	}
}

// TestServeArrivalsAllocFree pins the hot path of Compile — sampling
// and admission — at zero allocations per arrival, the same gate the
// bench-smoke target checks for the kernel hot paths.
func TestServeArrivalsAllocFree(t *testing.T) {
	g := NewGen(ArrivalSpec{Process: ProcGamma, Mean: sim.Millisecond, Shape: 2}, 7, 0)
	a := NewAdmitter(Bucket{Rate: 500, Burst: 2})
	var admitted int
	allocs := testing.AllocsPerRun(2000, func() {
		at, _ := g.Next()
		if a.Admit(at) {
			admitted++
		}
	})
	if allocs != 0 {
		t.Fatalf("arrival sampling + admission allocates %.1f/op, want 0", allocs)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted; the measured loop is not exercising admission")
	}
}
