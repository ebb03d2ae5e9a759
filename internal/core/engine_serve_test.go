package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"distws/internal/obs"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/uts"
	"distws/internal/victim"
)

// serveTestSpec is a two-tenant open-system plan small enough for the
// unit tests: a gold tenant under a token bucket with a latency SLO,
// and a best-effort silver tenant, both injecting tiny UTS trees.
func serveTestSpec() *serve.Spec {
	tree := uts.Params{
		Type:        uts.Binomial,
		B0:          20,
		NonLeafBF:   2,
		NonLeafProb: 0.45,
		RootSeed:    31,
		Hash:        uts.HashFast,
	}
	return &serve.Spec{
		Horizon:   50 * sim.Millisecond,
		Placement: serve.PlaceRR,
		Tenants: []serve.Tenant{
			{
				Name:    "gold",
				Arrival: serve.ArrivalSpec{Process: serve.ProcPoisson, Mean: sim.Millisecond},
				Admit:   serve.Bucket{Rate: 150, Burst: 2},
				SLO:     serve.SLO{Class: "gold", Target: 10 * sim.Millisecond},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
			{
				Name:    "silver",
				Arrival: serve.ArrivalSpec{Process: serve.ProcGamma, Mean: 6 * sim.Millisecond, Shape: 2},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
		},
	}
}

func serveTestConfig(shards int) Config {
	return Config{
		Ranks:        8,
		Shards:       shards,
		Serve:        serveTestSpec(),
		Seed:         7,
		CollectTrace: true,
	}
}

// serveFingerprint reduces a serving run to a comparable byte blob:
// the full Result (minus the pointer-laden trace), the trace's event
// tallies, and the Prometheus exposition.
func serveFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Serve == nil {
		t.Fatal("serving run returned nil Serve stats")
	}
	var b bytes.Buffer
	tr := res.Trace
	st := res.Serve
	res.Trace = nil
	res.Par = nil
	res.Serve = nil // a pointer would print as an address
	fmt.Fprintf(&b, "%+v\n", *res)
	fmt.Fprintf(&b, "%+v\n", *st)
	if tr != nil {
		n := 0
		for _, trs := range tr.Transitions {
			n += len(trs)
		}
		fmt.Fprintf(&b, "end=%v transitions=%d\n", tr.End, n)
	}
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestServeDeterministic pins the headline guarantee: a serving run is
// a pure function of (Config, seed), sequentially and under Shards=4.
func TestServeDeterministic(t *testing.T) {
	for _, shards := range []int{0, 4} {
		a := serveFingerprint(t, serveTestConfig(shards))
		b := serveFingerprint(t, serveTestConfig(shards))
		if a != b {
			t.Errorf("shards=%d: repeat serving runs differ:\n--- first ---\n%s\n--- second ---\n%s", shards, a, b)
		}
	}
}

// TestServeStats checks the serving summary end to end: the admission
// partition identity, full drain of admitted jobs, positive makespan
// bounded below by the horizon, and a defined Jain index.
func TestServeStats(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := serveTestConfig(shards)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: Run: %v", shards, err)
		}
		st := res.Serve
		if st == nil {
			t.Fatalf("shards=%d: nil Serve stats", shards)
		}
		if st.Arrived == 0 {
			t.Fatalf("shards=%d: no arrivals over a 50ms horizon", shards)
		}
		if st.Admitted+st.Rejected != st.Arrived {
			t.Errorf("shards=%d: admitted %d + rejected %d != arrived %d", shards, st.Admitted, st.Rejected, st.Arrived)
		}
		if st.Done != st.Admitted {
			t.Errorf("shards=%d: %d done of %d admitted (run must drain)", shards, st.Done, st.Admitted)
		}
		if st.Rejected == 0 {
			t.Errorf("shards=%d: token bucket rejected nothing; spec too loose to test admission", shards)
		}
		if st.Jain <= 0 || st.Jain > 1 {
			t.Errorf("shards=%d: Jain index %v out of (0, 1]", shards, st.Jain)
		}
		var perTenantArrived uint64
		for _, ts := range st.Tenants {
			if ts.Admitted+ts.Rejected != ts.Arrived {
				t.Errorf("shards=%d: tenant %s: admitted %d + rejected %d != arrived %d",
					shards, ts.Name, ts.Admitted, ts.Rejected, ts.Arrived)
			}
			perTenantArrived += ts.Arrived
		}
		if perTenantArrived != st.Arrived {
			t.Errorf("shards=%d: tenant rows sum to %d arrivals, global says %d", shards, perTenantArrived, st.Arrived)
		}
		horizon := sim.Duration(cfg.Serve.Horizon)
		if res.Makespan < horizon {
			t.Errorf("shards=%d: makespan %v shorter than the %v horizon", shards, res.Makespan, horizon)
		}
		if res.Premature {
			t.Errorf("shards=%d: serving run flagged premature", shards)
		}
		if res.Detector != "Open" {
			t.Errorf("shards=%d: detector %q, want Open", shards, res.Detector)
		}
		if res.Nodes == 0 || res.Nodes != res.NodesGenerated {
			t.Errorf("shards=%d: nodes %d generated %d (serving loses no work)", shards, res.Nodes, res.NodesGenerated)
		}
		if tr := res.Trace; tr != nil {
			if err := tr.Validate(); err != nil {
				t.Errorf("shards=%d: trace invalid: %v", shards, err)
			}
		}
	}
}

// TestServeSingleRank covers the degenerate serving cluster: one rank,
// no steal traffic, jobs still arrive, drain, and the horizon ends the
// run.
func TestServeSingleRank(t *testing.T) {
	cfg := serveTestConfig(0)
	cfg.Ranks = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Serve.Done != res.Serve.Admitted {
		t.Errorf("%d done of %d admitted", res.Serve.Done, res.Serve.Admitted)
	}
}

// TestServeConfigValidate covers the core-level Serve checks layered on
// top of serve.Spec.Validate.
func TestServeConfigValidate(t *testing.T) {
	base := serveTestConfig(0)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid serving config rejected: %v", err)
	}
	huge := serveTestConfig(0)
	huge.Serve.Horizon = sim.Duration(DefaultMaxVirtualTime)
	if err := huge.Validate(); err == nil {
		t.Error("horizon at MaxVirtualTime accepted")
	}
	bad := serveTestConfig(0)
	bad.Serve.Tenants = nil
	if err := bad.Validate(); err == nil {
		t.Error("tenantless serving spec accepted")
	}
}

// TestServeClosedRunUntouched pins observer freedom in the other
// direction: a closed-system run built with a nil Serve is identical,
// field for field, to the same run on a config that never heard of
// serving (trivially itself — the check is that nothing serving-
// related leaks into the result or exposition).
func TestServeClosedRunUntouched(t *testing.T) {
	cfg := Config{
		Tree: uts.Params{
			Type:        uts.Binomial,
			B0:          200,
			NonLeafBF:   4,
			NonLeafProb: 0.22,
			RootSeed:    5,
			Hash:        uts.HashFast,
		},
		Ranks:    4,
		Selector: victim.NewUniformRandom,
		Seed:     3,
	}
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Serve != nil {
		t.Error("closed-system result carries Serve stats")
	}
	var b bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b.Bytes(), []byte("sim_serve_")) {
		t.Error("closed-system exposition contains serving metrics")
	}
}

// TestServeScheduleMatchesEngine cross-checks the compiled schedule
// against the engine's replay: every admitted job completes at or
// after its arrival, and rejected jobs never complete.
func TestServeScheduleMatchesEngine(t *testing.T) {
	cfg := serveTestConfig(0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := serve.Compile(cfg.Serve, cfg.Ranks, cfg.Seed, DefaultNodeCost)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Serve.Arrived, uint64(len(sched.Jobs)); got != want {
		t.Fatalf("engine saw %d arrivals, schedule has %d", got, want)
	}
	want := sched.Stats(make([]sim.Time, 0), 0)
	if got := res.Serve; !reflect.DeepEqual(
		[]uint64{got.Arrived, got.Admitted, got.Rejected},
		[]uint64{want.Arrived, want.Admitted, want.Rejected}) {
		t.Errorf("admission counts diverge: engine %+v schedule %+v", got, want)
	}
}
