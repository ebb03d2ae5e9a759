package core

import (
	"bytes"
	"reflect"
	"testing"

	"distws/internal/obs"
	"distws/internal/rng"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// TestObserverEffect asserts that turning observability on does not
// perturb the simulation: a run with the event log and a metrics
// registry attached must produce bit-identical results to a bare run of
// the same configuration. This is the contract that makes traces
// trustworthy — what you observe is what would have happened anyway.
func TestObserverEffect(t *testing.T) {
	cfg := Config{
		Tree:     uts.MustPreset("T3").Params,
		Ranks:    16,
		Selector: victim.NewUniformRandom,
		Steal:    StealHalf,
		Seed:     7,
	}
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	obsCfg := cfg
	obsCfg.CollectTrace = true
	obsCfg.CollectEvents = true
	obsCfg.Metrics = obs.NewRegistry()
	traced, err := Run(obsCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The traced result carries the trace and the session stat derived
	// from it; zero those out, then everything else must match exactly.
	scrub := func(r *Result) Result {
		c := *r
		c.Trace = nil
		c.MeanSessionDuration = 0
		return c
	}
	if !reflect.DeepEqual(scrub(bare), scrub(traced)) {
		t.Fatalf("observability changed the run:\nbare:   %+v\ntraced: %+v", scrub(bare), scrub(traced))
	}
}

// TestEventLogConsistent cross-checks the event log against the
// engine's own counters on a traced run.
func TestEventLogConsistent(t *testing.T) {
	cfg := Config{
		Tree:          uts.MustPreset("T3").Params,
		Ranks:         8,
		Selector:      victim.NewRoundRobin,
		Seed:          3,
		CollectEvents: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("CollectEvents did not imply a trace")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Trace.TotalEventsDropped() != 0 {
		t.Fatalf("tiny run overflowed the default ring: %d dropped", res.Trace.TotalEventsDropped())
	}
	counts := res.Trace.EventCounts()
	if counts[trace.EvStealSend] != res.StealRequests {
		t.Fatalf("steal-send events %d != requests %d", counts[trace.EvStealSend], res.StealRequests)
	}
	if counts[trace.EvWorkSend] != res.SuccessfulSteals {
		t.Fatalf("work-send events %d != successes %d", counts[trace.EvWorkSend], res.SuccessfulSteals)
	}
	if counts[trace.EvNoWorkRecv] != res.FailedSteals {
		t.Fatalf("nowork-recv events %d != fails %d", counts[trace.EvNoWorkRecv], res.FailedSteals)
	}
	if counts[trace.EvTerminate] != uint64(cfg.Ranks) {
		t.Fatalf("terminate events %d != ranks %d", counts[trace.EvTerminate], cfg.Ranks)
	}
	if counts[trace.EvQuantumStart] == 0 || counts[trace.EvTokenRecv] == 0 {
		t.Fatalf("missing quantum or token events: %v", counts)
	}

	// The reconstructed steal transactions must match the counters too.
	pairs := obs.PairSteals(res.Trace)
	st := obs.StealLatency(pairs)
	if uint64(st.Success) != res.SuccessfulSteals || uint64(st.Refused) != res.FailedSteals {
		t.Fatalf("paired %d success / %d refused, counters say %d / %d",
			st.Success, st.Refused, res.SuccessfulSteals, res.FailedSteals)
	}
	for _, p := range pairs {
		if p.Latency() <= 0 {
			t.Fatalf("non-positive steal latency: %+v", p)
		}
	}
}

// TestMetricsDeterministic runs the same configuration twice with fresh
// registries and requires byte-identical Prometheus exposition: the
// metrics are a pure function of the (virtual-time) run.
func TestMetricsDeterministic(t *testing.T) {
	expo := func() []byte {
		reg := obs.NewRegistry()
		if _, err := Run(Config{
			Tree:     uts.MustPreset("T3").Params,
			Ranks:    16,
			Selector: victim.NewDistanceSkewed,
			Seed:     11,
			Metrics:  reg,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := expo(), expo()
	if !bytes.Equal(a, b) {
		t.Fatalf("registry not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(MetricStealRequests)) ||
		!bytes.Contains(a, []byte(MetricStealLatency+"_count")) ||
		!bytes.Contains(a, []byte(MetricLinkMessages+"{from=")) {
		t.Fatalf("exposition missing expected families:\n%s", a)
	}
}

// TestMetricsMatchCounters checks the registry totals against the
// result counters, and that the matrix is absent past MatrixRankLimit.
func TestMetricsMatchCounters(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Tree:     uts.MustPreset("T3").Params,
		Ranks:    8,
		Selector: victim.NewRoundRobin,
		Seed:     5,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricStealRequests).Value(); got != res.StealRequests {
		t.Fatalf("counter %d != result %d", got, res.StealRequests)
	}
	if got := reg.Counter(MetricStealSuccess).Value(); got != res.SuccessfulSteals {
		t.Fatalf("success counter %d != result %d", got, res.SuccessfulSteals)
	}
	if got := reg.Counter(MetricStealFail).Value(); got != res.FailedSteals {
		t.Fatalf("fail counter %d != result %d", got, res.FailedSteals)
	}
	if got := reg.Histogram(MetricStealLatency).Count(); got != res.SuccessfulSteals+res.FailedSteals+res.AbortedSteals {
		t.Fatalf("latency observations %d != closed steals %d", got,
			res.SuccessfulSteals+res.FailedSteals+res.AbortedSteals)
	}
	m := reg.Matrix(MetricLinkMessages, 8)
	var total uint64
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			total += m.At(i, j)
		}
	}
	if total == 0 {
		t.Fatal("link matrix empty on an 8-rank run")
	}
}

// TestLinkTallyMatchesDirect drives a tally and a directly counted
// matrix with the same links: a batch that exactly fills the buffer, one
// that overflows it by one, and a single message, on the smallest
// matrices and the largest the engine makes. Before the last fold the
// matrix may lag by what is pending and no more; after it the two are
// equal cell for cell.
func TestLinkTallyMatchesDirect(t *testing.T) {
	sum := func(m *obs.Matrix) (s int) {
		for _, row := range m.Rows() {
			for _, c := range row {
				s += int(c)
			}
		}
		return s
	}
	for _, n := range []int{1, 2, MatrixRankLimit} {
		for _, msgs := range []int{1, linkBatch, linkBatch + 1} {
			reg := obs.NewRegistry()
			direct, batched := reg.Matrix("direct", n), reg.Matrix("batched", n)
			tally := newLinkTally(batched, n)
			r := rng.New(uint64(n + msgs))
			for i := 0; i < msgs; i++ {
				from, to := r.Intn(n), r.Intn(n)
				direct.Inc(from, to)
				tally.Inc(from, to)
			}
			if got, want := sum(batched), msgs/linkBatch*linkBatch; got != want || len(tally.buf) != msgs-want {
				t.Errorf("n=%d, %d messages: %d folded and %d pending before the last fold, want %d and %d",
					n, msgs, got, len(tally.buf), want, msgs-want)
			}
			tally.fold()
			if !reflect.DeepEqual(batched.Rows(), direct.Rows()) || len(tally.buf) != 0 {
				t.Errorf("n=%d, %d messages: the folded matrix differs from direct counting (%d of %d counted, %d pending)",
					n, msgs, sum(batched), sum(direct), len(tally.buf))
			}
		}
	}
	var none *linkTally // no registry, or past MatrixRankLimit
	none.Inc(0, 0)
	none.fold()
}

// TestLinkTallyShardedEqualsSequential runs the 1024-rank steal storm
// sequentially and on 2 and 4 shards and requires one exposition text:
// every shard engine folds its own tally, mid-run and concurrently with
// the others (the run sends several batches' worth per engine), and the
// adds commute. `make race` runs it under the detector.
func TestLinkTallyShardedEqualsSequential(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		res, err := Run(Config{
			Tree:      uts.MustPreset("H-TINY").Params,
			Ranks:     MatrixRankLimit,
			Placement: topology.OnePerNode,
			Selector:  victim.NewDistanceSkewed,
			Steal:     StealHalf,
			ChunkSize: 4,
			Seed:      1,
			Shards:    shards,
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sent := res.Comm.TotalSent(); sent < 4*linkBatch {
			t.Fatalf("%d messages: too few for every shard engine to fold mid-run", sent)
		}
		var got bytes.Buffer
		if err := reg.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got.Bytes()
		} else if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("shards=%d: exposition differs from the sequential run's", shards)
		}
	}
}
