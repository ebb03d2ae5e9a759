package core

import (
	"bytes"
	"reflect"
	"testing"

	"distws/internal/obs"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// TestObserverEffect asserts that turning observability on does not
// perturb the simulation: a run at the activity level (CollectTrace)
// and one at the events level (CollectEvents) must produce bit-identical results to a bare run of the
// same configuration, on every delivery path and for a task graph.
// This is the contract that makes traces trustworthy — what you
// observe is what would have happened anyway. The two levels must
// record the same transitions through the one recording surface. Each
// level then runs again, recording into the
// recorder of the run store the previous run gave back, and must hand
// over the same trace; and every trace handed over must be unchanged
// once the later cases have recorded into its recorder.
func TestObserverEffect(t *testing.T) {
	cases := deliveryCases()
	cases["steal-half"] = Config{Tree: uts.MustPreset("T3").Params, Ranks: 16,
		Selector: victim.NewUniformRandom, Steal: StealHalf, Seed: 7}
	cases["graph"] = graphConfig(testGraph(t, 6), 16, 9)
	cases["graph+crashes"] = graphFaultConfig(testGraph(t, 6))
	type handedOver struct {
		name, jsonl string
		tr          *trace.Trace
	}
	var handed []handedOver
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			run := func(collectTrace, collectEvents bool) *Result {
				t.Helper()
				cfg.CollectTrace, cfg.CollectEvents = collectTrace, collectEvents
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			bare := run(false, false)
			activity := run(true, false)
			events := run(false, true)
			if events.Trace.Events == nil || activity.Trace.Events != nil {
				t.Fatalf("event log at the activity level %v, at the events level %v",
					activity.Trace.Events != nil, events.Trace.Events != nil)
			}
			if !reflect.DeepEqual(activity.Trace.Transitions, events.Trace.Transitions) {
				t.Error("the activity and events levels recorded different activity traces")
			}
			for _, tr := range []*trace.Trace{activity.Trace, events.Trace} {
				handed = append(handed, handedOver{name, jsonl(t, tr), tr})
			}
			if warm := run(true, false); !reflect.DeepEqual(warm.Trace, activity.Trace) {
				t.Error("the activity level handed over another trace from a re-armed recorder")
			}
			if warm := run(false, true); !reflect.DeepEqual(warm.Trace, events.Trace) {
				t.Error("the events level handed over another trace from a re-armed recorder")
			}
			activity.Trace, events.Trace = nil, nil
			for i, res := range []*Result{activity, events} {
				if !reflect.DeepEqual(bare, res) {
					t.Fatalf("observability at the %s level changed the run:\nbare:   %+v\ntraced: %+v",
						[]string{"activity", "events"}[i], bare, res)
				}
			}
		})
	}
	for _, h := range handed {
		if jsonl(t, h.tr) != h.jsonl {
			t.Errorf("%s: a later case's recording changed a trace handed over before it", h.name)
		}
	}
}

// jsonl is tr's JSONL export.
func jsonl(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSessionsFromTransitions: the work-discovery sessions obs derives
// from an events-level trace are the ones the engine counts — as many
// as Result.Sessions, and their total over that count (integer
// division, as the engine takes it) is MeanSessionDuration — on every
// configuration of TestVariantDigests, on a task graph with and
// without crashes, on a serving run whose crashed ranks go on logging
// the arrivals of jobs rooted at them, and on one whose first job
// reaches an idle rank at instant 0.
func TestSessionsFromTransitions(t *testing.T) {
	cases := variantCases()
	cases["graph"] = graphConfig(testGraph(t, 6), 16, 9)
	cases["graph+crashes"] = graphFaultConfig(testGraph(t, 6))
	cases["serving+crashes"] = serveFaultConfig()
	cases["serving+job-at-0"] = Config{Ranks: 4, Seed: 1, Serve: &serve.Spec{
		Horizon:   5 * sim.Millisecond,
		Placement: serve.PlaceRR,
		Tenants: []serve.Tenant{{
			Name:    "t0",
			Arrival: serve.ArrivalSpec{Process: serve.ProcReplay, Trace: []sim.Time{0, sim.Time(sim.Millisecond)}},
			Work:    serve.Workload{Kind: serve.WorkUTS, Tree: uts.MustPreset("T3").Params},
		}},
	}}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.CollectEvents = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var n uint64
			var total sim.Duration
			for rank := range res.Trace.Transitions {
				obs.EachSession(res.Trace, rank, func(start, end sim.Time, _ bool) {
					n++
					total += end.Sub(start)
				})
			}
			if n != res.Sessions || n == 0 {
				t.Fatalf("%d sessions derived from the trace, the engine counts %d", n, res.Sessions)
			}
			if mean := total / sim.Duration(n); mean != res.MeanSessionDuration {
				t.Errorf("mean session %v derived from the trace, the engine's %v", mean, res.MeanSessionDuration)
			}
		})
	}
}

// TestWorkingCrashStartsNoSession: rank 0 crashes while working in
// graphFaultConfig; the engine marks it idle at the crash instant, and
// no session of it starts at or after the crash.
func TestWorkingCrashStartsNoSession(t *testing.T) {
	cfg := graphFaultConfig(testGraph(t, 6))
	cfg.CollectEvents = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crash := cfg.Faults.Crashes[0]
	tr := res.Trace
	es, trs := tr.Events[crash.Rank], tr.Transitions[crash.Rank]
	if last := es[len(es)-1]; last.Kind != trace.EvCrash || last.Time != crash.At {
		t.Fatalf("rank %d's last event %+v, want its crash at %v", crash.Rank, last, crash.At)
	}
	if last := trs[len(trs)-1]; last != (trace.Transition{Time: crash.At, State: trace.Idle}) || trs[len(trs)-2].State != trace.Active {
		t.Fatalf("rank %d's transitions end %v, want active, then idle at the crash at %v", crash.Rank, trs[len(trs)-2:], crash.At)
	}
	obs.EachSession(tr, crash.Rank, func(start, end sim.Time, _ bool) {
		if start >= crash.At || end > crash.At {
			t.Errorf("rank %d has a session [%v, %v] past its crash at %v", crash.Rank, start, end, crash.At)
		}
	})
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
	st := obs.StealLatency(res.Trace)
	if uint64(st.Success) != res.SuccessfulSteals || uint64(st.Refused) != res.FailedSteals {
		t.Fatalf("paired %d success / %d refused, counters say %d / %d",
			st.Success, st.Refused, res.SuccessfulSteals, res.FailedSteals)
	}
	for rank := range res.Trace.Events {
		scan := obs.ScanSteals(res.Trace, rank)
		for p, ok := scan.Next(); ok; p, ok = scan.Next() {
			if p.Latency() <= 0 {
				t.Fatalf("non-positive steal latency: %+v", p)
			}
		}
	}
}

// TestMetricsDeterministic runs the same configuration twice and
// requires byte-identical metrics pages rendered from the two event
// logs: the page is a pure function of the (virtual-time) run.
func TestMetricsDeterministic(t *testing.T) {
	cfg := Config{Tree: uts.MustPreset("T3").Params, Ranks: 16, Selector: victim.NewDistanceSkewed, Seed: 11}
	a, b := metricsFromLog(recordAll(t, cfg).Trace).bytes(), metricsFromLog(recordAll(t, cfg).Trace).bytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics page not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(MetricStealRequests)) ||
		!bytes.Contains(a, []byte(MetricStealLatency+"_count")) {
		t.Fatalf("page missing expected families:\n%s", a)
	}
}

// TestMetricsMatchCounters: on every configuration of
// TestVariantDigests, the steal transactions paired from the event log
// are the round trips the engine counted — every refusal, every abort
// and every work reply that answered the request outstanding — and the
// work replies that answered none (EvWorkLate) make up the rest of the
// engine's successful steals.
func TestMetricsMatchCounters(t *testing.T) {
	for name, cfg := range variantCases() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := recordAll(t, cfg).Trace
			st := obs.StealLatency(tr)
			if late := countKind(tr, trace.EvWorkLate); uint64(st.Success)+late != res.SuccessfulSteals ||
				uint64(st.Refused) != res.FailedSteals || uint64(st.Aborted) != res.AbortedSteals {
				t.Fatalf("log pairs %d success + %d late, %d refused, %d aborted; engine counts %d success, %d failed, %d aborted",
					st.Success, late, st.Refused, st.Aborted, res.SuccessfulSteals, res.FailedSteals, res.AbortedSteals)
			}
		})
	}
}

// TestLinkTallyShardedEqualsSequential runs the 1024-rank steal storm
// sequentially and on 2 and 4 shards and requires one metrics page,
// followed by one per-link tally, rendered from each run's event log:
// each shard's log records its own ranks' events. `make race` runs it
// under the detector.
func TestLinkTallyShardedEqualsSequential(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 2, 4} {
		cfg := Config{
			Tree:      uts.MustPreset("H-TINY").Params,
			Ranks:     1024,
			Placement: topology.OnePerNode,
			Selector:  victim.NewDistanceSkewed,
			Steal:     StealHalf,
			ChunkSize: 4,
			Seed:      1,
			Shards:    shards,
		}
		tr := recordAll(t, cfg).Trace
		var got bytes.Buffer
		metricsFromLog(tr).write(&got)
		writeLinkMessages(&got, obs.Traffic(tr))
		if want == nil {
			want = got.Bytes()
		} else if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("shards=%d: page differs from the sequential run's", shards)
		}
	}
	if !bytes.Contains(want, []byte("sim_link_messages{from=")) {
		t.Fatalf("no per-link counts in the page:\n%s", want)
	}
}
