package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"distws/internal/fault"
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

func serveTestConfig() Config {
	return Config{
		Ranks:        8,
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
// a pure function of (Config, seed).
func TestServeDeterministic(t *testing.T) {
	if a, b := serveFingerprint(t, serveTestConfig()), serveFingerprint(t, serveTestConfig()); a != b {
		t.Errorf("repeat serving runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestServeStats checks the serving summary end to end: the admission
// partition identity, full drain of admitted jobs, positive makespan
// bounded below by the horizon, and a defined Jain index.
func TestServeStats(t *testing.T) {
	cfg := serveTestConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := res.Serve
	if st == nil {
		t.Fatal("nil Serve stats")
	}
	if st.Arrived == 0 {
		t.Fatal("no arrivals over a 50ms horizon")
	}
	if st.Admitted+st.Rejected != st.Arrived {
		t.Errorf("admitted %d + rejected %d != arrived %d", st.Admitted, st.Rejected, st.Arrived)
	}
	if st.Done != st.Admitted {
		t.Errorf("%d done of %d admitted (run must drain)", st.Done, st.Admitted)
	}
	if st.Rejected == 0 {
		t.Error("token bucket rejected nothing; spec too loose to test admission")
	}
	if st.Jain <= 0 || st.Jain > 1 {
		t.Errorf("Jain index %v out of (0, 1]", st.Jain)
	}
	var perTenantArrived uint64
	for _, ts := range st.Tenants {
		if ts.Admitted+ts.Rejected != ts.Arrived {
			t.Errorf("tenant %s: admitted %d + rejected %d != arrived %d",
				ts.Name, ts.Admitted, ts.Rejected, ts.Arrived)
		}
		perTenantArrived += ts.Arrived
	}
	if perTenantArrived != st.Arrived {
		t.Errorf("tenant rows sum to %d arrivals, global says %d", perTenantArrived, st.Arrived)
	}
	horizon := sim.Duration(cfg.Serve.Horizon)
	if res.Makespan < horizon {
		t.Errorf("makespan %v shorter than the %v horizon", res.Makespan, horizon)
	}
	if res.Premature {
		t.Error("serving run flagged premature")
	}
	if res.Detector != "Open" {
		t.Errorf("detector %q, want Open", res.Detector)
	}
	if res.Nodes == 0 || res.Nodes != res.NodesGenerated {
		t.Errorf("nodes %d generated %d (serving loses no work)", res.Nodes, res.NodesGenerated)
	}
	if tr := res.Trace; tr != nil {
		if err := tr.Validate(); err != nil {
			t.Errorf("trace invalid: %v", err)
		}
	}
}

// TestServeSingleRank covers the degenerate serving cluster: one rank,
// no steal traffic, jobs still arrive, drain, and the horizon ends the
// run.
func TestServeSingleRank(t *testing.T) {
	cfg := serveTestConfig()
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
	base := serveTestConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid serving config rejected: %v", err)
	}
	huge := serveTestConfig()
	huge.Serve.Horizon = sim.Duration(DefaultMaxVirtualTime)
	if err := huge.Validate(); err == nil {
		t.Error("horizon at DefaultMaxVirtualTime accepted")
	}
	bad := serveTestConfig()
	bad.Serve.Tenants = nil
	if err := bad.Validate(); err == nil {
		t.Error("tenantless serving spec accepted")
	}
}

// TestServeClosedRunUntouched pins observer freedom in the other
// direction: a closed-system run built with a nil Serve is identical,
// field for field, to the same run on a config that never heard of
// serving (trivially itself — the check is that nothing serving-
// related leaks into the result).
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
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Serve != nil {
		t.Error("closed-system result carries Serve stats")
	}
}

// TestServeScheduleMatchesEngine cross-checks the compiled schedule
// against the engine's replay: every admitted job completes at or
// after its arrival, and rejected jobs never complete.
func TestServeScheduleMatchesEngine(t *testing.T) {
	cfg := serveTestConfig()
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

// serveFaultConfig is serveTestConfig under a fault plan that strikes
// inside the arrival horizon: two crashes and a lossy link, so jobs lose
// work on a crashed stack, in a staged expansion, in dropped or
// dead-lettered loot and as an arrival at a crashed root.
func serveFaultConfig() Config {
	cfg := serveTestConfig()
	cfg.Faults = &fault.Plan{
		Seed: 3,
		Crashes: []fault.Crash{
			{Rank: 2, At: sim.Time(10 * sim.Millisecond)},
			{Rank: 5, At: sim.Time(20 * sim.Millisecond)},
		},
		Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.02}},
	}
	return cfg
}

// checkServeBooks holds a serving run to its identities, counting from
// the workload's own job state rather than from serve.Stats: arrived ==
// admitted + rejected; every admitted job resolved exactly once, done or
// lost, so that admitted == done + lost per tenant and in total; and
// every node either completed or was lost.
func checkServeBooks(t *testing.T, res *Result, w *serveWork) {
	t.Helper()
	st := res.Serve
	done := make([]uint64, len(st.Tenants))
	lost := make([]uint64, len(st.Tenants))
	for i := range w.sched.Jobs {
		if !w.sched.Jobs[i].Admitted {
			continue
		}
		isDone := w.doneAt[i] >= 0
		if w.live[i] != 0 || isDone == w.lost[i] {
			t.Fatalf("job %d: %d nodes live, done %v, lost %v", i, w.live[i], isDone, w.lost[i])
		}
		if isDone {
			done[w.sched.Jobs[i].Tenant]++
		} else {
			lost[w.sched.Jobs[i].Tenant]++
		}
	}
	for ti, ts := range st.Tenants {
		if ts.Admitted+ts.Rejected != ts.Arrived || ts.Done != done[ti] || ts.Admitted-ts.Done != lost[ti] {
			t.Errorf("tenant %s: %d arrived, %d admitted + %d rejected; %d done + %d lost, the jobs say %d + %d",
				ts.Name, ts.Arrived, ts.Admitted, ts.Rejected, ts.Done, ts.Admitted-ts.Done, done[ti], lost[ti])
		}
	}
	if st.Admitted+st.Rejected != st.Arrived || st.Done+st.Lost() != st.Admitted || st.Lost() != uint64(w.lostJobs) {
		t.Errorf("%d arrived = %d admitted + %d rejected; %d done + %d lost (%d booked lost)",
			st.Arrived, st.Admitted, st.Rejected, st.Done, st.Lost(), w.lostJobs)
	}
	if res.Nodes+res.LostNodes != res.NodesGenerated || res.Premature {
		t.Errorf("completed %d + lost %d nodes of %d generated, premature %v",
			res.Nodes, res.LostNodes, res.NodesGenerated, res.Premature)
	}
}

// TestServeUnderFaults: served jobs compose with a fault plan. A job
// that lost work is booked lost when its last node is gone, the others
// done; the books balance; and the run replays byte for byte.
func TestServeUnderFaults(t *testing.T) {
	cfg := serveFaultConfig()
	res, w := runWork(t, cfg)
	checkServeBooks(t, res, w.(*serveWork))
	if st := res.Serve; st.Done == 0 || st.Lost() == 0 || res.CrashedRanks != 2 {
		t.Fatalf("%d done, %d lost, %d crashed ranks: the plan should cost some jobs, not all", st.Done, st.Lost(), res.CrashedRanks)
	}
	if res.Makespan < sim.Duration(cfg.Serve.Horizon) {
		t.Errorf("makespan %v shorter than the %v horizon", res.Makespan, cfg.Serve.Horizon)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace: %v", err)
	}
	if a, b := serveFingerprint(t, cfg), serveFingerprint(t, cfg); a != b {
		t.Errorf("repeat faulted serving runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestServeLoneSurvivorDrains: crashes that leave one rank alive in
// mid-horizon lose every job rooted at a corpse, but the survivor keeps
// serving its own, and the run still drains and finishes.
func TestServeLoneSurvivorDrains(t *testing.T) {
	cfg := serveTestConfig()
	cfg.Faults = &fault.Plan{}
	for r := 1; r < cfg.Ranks; r++ {
		cfg.Faults.Crashes = append(cfg.Faults.Crashes, fault.Crash{Rank: r, At: sim.Time(20 * sim.Millisecond)})
	}
	res, w := runWork(t, cfg)
	sw := w.(*serveWork)
	checkServeBooks(t, res, sw)
	var lateDone bool
	for i := range sw.sched.Jobs {
		lateDone = lateDone || sw.doneAt[i] > sim.Time(20*sim.Millisecond)
	}
	if !lateDone || res.Serve.Lost() == 0 || res.CrashedRanks != cfg.Ranks-1 {
		t.Fatalf("survivor finished a job after the crashes: %v; %d lost, %d crashed", lateDone, res.Serve.Lost(), res.CrashedRanks)
	}
}
