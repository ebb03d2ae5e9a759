package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"distws/internal/comm"
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// tallied maps the event kinds whose occurrence count is a registry
// counter to that counter's name.
var tallied = map[trace.EventKind]string{
	trace.EvStealSend:  MetricStealRequests,
	trace.EvNoWorkRecv: MetricStealFail,
	trace.EvWorkRecv:   MetricStealSuccess,
	trace.EvStealAbort: MetricStealAborted,
	trace.EvTokenRecv:  MetricTokenHops,
}

// metricsFromLog rebuilds the registry a run fills from the unevicted
// event log of its twin (recordAll): the five counters are event
// tallies, the steal latencies obs.PairSteals' spans, the session
// lengths the trace's sessions that found work, and the chunk sizes the
// work-send payloads.
func metricsFromLog(tr *trace.Trace) *obs.Registry {
	reg := obs.NewRegistry()
	counters := map[trace.EventKind]*obs.Counter{}
	for k, name := range tallied {
		counters[k] = reg.Counter(name)
	}
	chunks := reg.Histogram(MetricChunkNodes)
	for _, es := range tr.Events {
		for _, e := range es {
			counters[e.Kind].Inc()
			if e.Kind == trace.EvWorkSend {
				chunks.Observe(e.Arg)
			}
		}
	}
	latency := reg.Histogram(MetricStealLatency)
	for _, p := range obs.PairSteals(tr) {
		latency.Observe(int64(p.Latency()))
	}
	sessions := reg.Histogram(MetricSession)
	for _, ss := range tr.Sessions {
		for _, s := range ss {
			if s.Success {
				sessions.Observe(int64(s.Duration()))
			}
		}
	}
	return reg
}

// exposition renders a registry's Prometheus page.
func exposition(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// families splits a Prometheus page into its blocks, keyed by family.
func families(page []byte) map[string]string {
	out := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(page), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			name = f[2]
		}
		out[name] += line
	}
	return out
}

// TestMetricsFromLogBeyondFig9 applies the Fig. 9 golden's rebuild to
// the two configurations where it may not hold: a fault-free run whose
// steals abort (A8's tightest timeout) and a serving run. Every family
// must match the engine's block for block, except that a work reply
// reaching a thief that already gave up on it (late) closes the thief's
// newer request in obs.PairSteals, where the engine observes nothing:
// the log then holds one steal-latency observation more per late reply
// (DESIGN.md §9).
func TestMetricsFromLogBeyondFig9(t *testing.T) {
	cases := map[string]Config{
		"aborting": {Tree: uts.MustPreset("H-TINY").Params, Ranks: 64, Placement: topology.OnePerNode,
			Selector: victim.NewUniformRandom, Steal: StealHalf, ChunkSize: 4, ImmediateRetry: true,
			StealTimeout: 10 * sim.Microsecond, Seed: 1},
		"serving": serveTestConfig(),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			var late uint64
			cfg.testDeliveryProbe = func(e *engine, m *comm.Message) bool {
				if rk := &e.ranks[m.To]; m.Tag == comm.TagWork && rk.state == rsSearching && m.ID != rk.reqID {
					late++
				}
				return e.deliver(m)
			}
			cfg.Metrics = obs.NewRegistry()
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			cfg.testDeliveryProbe = nil
			rebuilt := metricsFromLog(recordAll(t, cfg).Trace)
			got, want := families(exposition(t, rebuilt)), families(exposition(t, cfg.Metrics))
			if len(got) != len(want) {
				t.Fatalf("log rebuilds %d families, the engine has %d", len(got), len(want))
			}
			for family, block := range want {
				if family == MetricStealLatency && late > 0 {
					logged, observed := rebuilt.Histogram(family).Count(), cfg.Metrics.Histogram(family).Count()
					if logged != observed+late {
						t.Errorf("%s: log %d observations, engine %d + %d late replies", family, logged, observed, late)
					}
					continue
				}
				if got[family] != block {
					t.Errorf("log rebuilds\n%s\nthe engine has\n%s", got[family], block)
				}
			}
			if name == "aborting" && late == 0 {
				t.Error("no work reply came late; the case no longer tests the difference")
			}
		})
	}
}

// retiredFamilies registers into reg the fault and serving families the
// engine published until their numbers moved to Result and serve.Stats
// (names in testdata/retired_families.txt), valued from res and the
// unevicted event log of res's twin, as the engine valued them: a
// fault run's crash, loss, duplicate and regeneration counts and the
// latencies from a thief's first steal timeout to its next work
// receipt; a serving run's arrival, admission, rejection, completion
// and loss counts and the sojourn of each completed job, over all
// tenants and per tenant.
func retiredFamilies(t *testing.T, reg *obs.Registry, cfg Config, res *Result, tr *trace.Trace) {
	t.Helper()
	table, err := os.ReadFile(filepath.Join("testdata", "retired_families.txt"))
	if err != nil {
		t.Fatal(err)
	}
	name := map[string]string{}
	for _, line := range strings.Split(string(table), "\n") {
		if role, family, ok := strings.Cut(line, " "); ok && role != "#" {
			name[role] = family
		}
	}
	faulted := cfg.Faults != nil && !cfg.Faults.Empty()
	if faulted {
		var dup uint64
		for _, n := range res.Comm.Duplicated {
			dup += n
		}
		reg.Counter(name["crashes"]).Add(uint64(res.CrashedRanks))
		reg.Counter(name["lost-nodes"]).Add(res.LostNodes)
		reg.Counter(name["lost-messages"]).Add(res.LostMessages)
		reg.Counter(name["duplicated"]).Add(dup)
		reg.Counter(name["token-regens"]).Add(res.TokenRegens)
		recovery := reg.Histogram(name["recovery"])
		for _, es := range tr.Events {
			var sent, since sim.Time
			recovering := false
			for _, e := range es {
				switch e.Kind {
				case trace.EvStealSend:
					sent = e.Time
				case trace.EvStealAbort:
					if !recovering {
						recovering, since = true, sent
					}
				case trace.EvWorkRecv:
					if recovering {
						recovering = false
						recovery.Observe(int64(e.Time.Sub(since)))
					}
				}
			}
		}
	}
	if st := res.Serve; st != nil {
		reg.Counter(name["arrived"]).Add(st.Arrived)
		reg.Counter(name["admitted"]).Add(st.Admitted)
		reg.Counter(name["rejected"]).Add(st.Rejected)
		reg.Counter(name["done"]).Add(st.Done)
		if faulted {
			reg.Counter(name["lost"]).Add(st.Lost())
		}
		sojourn := reg.Histogram(name["sojourn"])
		tenant := make([]*obs.Histogram, len(st.Tenants))
		for i := range tenant {
			tenant[i] = reg.Histogram(name["sojourn"] + "_tenant" + strconv.Itoa(i))
		}
		arrived := map[int64]sim.Time{}
		for _, es := range tr.Events {
			for _, e := range es {
				if e.Kind == trace.EvJobArrive {
					arrived[e.Arg] = e.Time
				}
			}
		}
		for _, es := range tr.Events {
			for _, e := range es {
				if e.Kind == trace.EvJobDone {
					d := int64(e.Time.Sub(arrived[e.Arg]))
					sojourn.Observe(d)
					tenant[e.Peer].Observe(d)
				}
			}
		}
	}
}
