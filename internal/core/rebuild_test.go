package core

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// The eight metric families the engine published into a metrics
// registry until the event log accounted for every one of them. The
// Fig. 9 golden and the variant digests still hold their exposition,
// which metricsFromLog renders from a run's log.
const (
	MetricStealRequests = "sim_steal_requests_total"
	MetricStealSuccess  = "sim_steal_success_total"
	MetricStealFail     = "sim_steal_fail_total"
	MetricStealAborted  = "sim_steal_aborted_total"
	MetricTokenHops     = "sim_token_hops_total"
	MetricStealLatency  = "sim_steal_latency_ns"
	MetricSession       = "sim_session_ns"
	MetricChunkNodes    = "sim_chunk_nodes"
)

// tallied maps the event kinds whose occurrence count is a counter
// family to that family: every receipt of work, late or not, counted
// as a successful steal.
var tallied = map[trace.EventKind]string{
	trace.EvStealSend:  MetricStealRequests,
	trace.EvNoWorkRecv: MetricStealFail,
	trace.EvWorkRecv:   MetricStealSuccess,
	trace.EvWorkLate:   MetricStealSuccess,
	trace.EvStealAbort: MetricStealAborted,
	trace.EvTokenRecv:  MetricTokenHops,
}

// page is a metrics page as the engine's registry held it: counters
// and histograms by family name.
type page struct {
	counters map[string]uint64
	hists    map[string]*histogram
}

// histogram counts non-negative observations in power-of-two buckets:
// bucket i holds the values whose bits.Len64 is i.
type histogram struct {
	count, sum uint64
	buckets    [65]uint64
}

func newPage() *page {
	return &page{counters: map[string]uint64{}, hists: map[string]*histogram{}}
}

// hist returns the named histogram, registering it empty on first use.
func (p *page) hist(name string) *histogram {
	h := p.hists[name]
	if h == nil {
		h = &histogram{}
		p.hists[name] = h
	}
	return h
}

func (h *histogram) observe(v int64) {
	h.count++
	h.sum += uint64(v)
	h.buckets[bits.Len64(uint64(v))]++
}

// write renders p in the Prometheus text exposition format (0.0.4) as
// the registry did: the counters, then the histograms, each in name
// order; a histogram as the cumulative counts of its non-empty buckets
// (bucket i tops out at 2^i - 1), then +Inf, its sum and its count.
func (p *page) write(w io.Writer) {
	for _, name := range sortedKeys(p.counters) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, p.counters[name])
	}
	for _, name := range sortedKeys(p.hists) {
		h := p.hists[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, n := range h.buckets {
			if n != 0 {
				cum += n
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, uint64(1)<<i-1, cum)
			}
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n", name, h.count, name, h.sum, name, h.count)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bytes is p's exposition.
func (p *page) bytes() []byte {
	var b bytes.Buffer
	p.write(&b)
	return b.Bytes()
}

// metricsFromLog renders the eight families from the unevicted event
// log of a run's twin (recordAll): the five counters are event tallies,
// the steal latencies the spans of the steal scan (obs.ScanSteals), the
// session lengths the sessions that found work (obs.EachSession), and
// the chunk sizes the work-send payloads.
func metricsFromLog(tr *trace.Trace) *page {
	p := newPage()
	for _, name := range tallied {
		p.counters[name] += 0 // the registry rendered a family it never counted into
	}
	chunks := p.hist(MetricChunkNodes)
	for _, es := range tr.Events {
		for _, e := range es {
			if name, ok := tallied[e.Kind]; ok {
				p.counters[name]++
			}
			if e.Kind == trace.EvWorkSend {
				chunks.observe(e.Arg)
			}
		}
	}
	latency := p.hist(MetricStealLatency)
	for rank := range tr.Events {
		scan := obs.ScanSteals(tr, rank)
		for sp, ok := scan.Next(); ok; sp, ok = scan.Next() {
			latency.observe(int64(sp.Latency()))
		}
	}
	sessions := p.hist(MetricSession)
	for rank := range tr.Transitions {
		obs.EachSession(tr, rank, func(start, end sim.Time, success bool) {
			if success {
				sessions.observe(int64(end.Sub(start)))
			}
		})
	}
	return p
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

// TestMetricsFromLogBeyondFig9 applies the Fig. 9 golden's rendering to
// the configurations where a work reply can answer no outstanding
// request — steals that abort (A8's tightest timeout, and under the
// one-sided protocol), crashes with duplicating links — and to a
// serving run. Every family must equal, block for block, the page the
// engine wrote into its registry before the registry was deleted
// (testdata/engine_metrics): the log accounts for each steal round trip
// the engine observed, and for no other.
func TestMetricsFromLogBeyondFig9(t *testing.T) {
	cases := map[string]Config{
		"aborting": {Tree: uts.MustPreset("H-TINY").Params, Ranks: 64, Placement: topology.OnePerNode,
			Selector: victim.NewUniformRandom, Steal: StealHalf, ChunkSize: 4, ImmediateRetry: true,
			StealTimeout: 10 * sim.Microsecond, Seed: 1},
		"serving":            serveTestConfig(),
		"crash+dup":          deliveryCases()["crash+dup"],
		"one-sided+aborting": deliveryCases()["one-sided+aborting"],
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "engine_metrics", name+".prom"))
			if err != nil {
				t.Fatal(err)
			}
			tr := recordAll(t, cfg).Trace
			got, wantFams := families(metricsFromLog(tr).bytes()), families(want)
			if len(got) != len(wantFams) {
				t.Fatalf("log renders %d families, the engine wrote %d", len(got), len(wantFams))
			}
			for family, block := range wantFams {
				if got[family] != block {
					t.Errorf("log renders\n%s\nthe engine wrote\n%s", got[family], block)
				}
			}
			if late := countKind(tr, trace.EvWorkLate); name != "serving" && late == 0 {
				t.Error("no work reply came late; the case no longer tests what the log must leave unpaired")
			}
		})
	}
}

// countKind counts tr's events of kind k.
func countKind(tr *trace.Trace, k trace.EventKind) uint64 {
	if counts := tr.EventCounts(); int(k) < len(counts) {
		return counts[k]
	}
	return 0
}

// retiredFamilies adds to p the fault and serving families the
// engine published until their numbers moved to Result and serve.Stats
// (names in testdata/retired_families.txt), valued from res and the
// unevicted event log of res's twin, as the engine valued them: a
// fault run's crash, loss, duplicate and regeneration counts and the
// latencies from a thief's first steal timeout to its next work
// receipt; a serving run's arrival, admission, rejection, completion
// and loss counts and the sojourn of each completed job, over all
// tenants and per tenant.
func retiredFamilies(t *testing.T, p *page, cfg Config, res *Result, tr *trace.Trace) {
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
		p.counters[name["crashes"]] += uint64(res.CrashedRanks)
		p.counters[name["lost-nodes"]] += res.LostNodes
		p.counters[name["lost-messages"]] += res.LostMessages
		p.counters[name["duplicated"]] += dup
		p.counters[name["token-regens"]] += res.TokenRegens
		recovery := p.hist(name["recovery"])
		for _, es := range tr.Events {
			var sent, since sim.Time
			recovering := false
			for _, e := range es {
				switch {
				case e.Kind == trace.EvStealSend:
					sent = e.Time
				case e.Kind == trace.EvStealAbort:
					if !recovering {
						recovering, since = true, sent
					}
				case e.Kind.ReceivesWork():
					if recovering {
						recovering = false
						recovery.observe(int64(e.Time.Sub(since)))
					}
				}
			}
		}
	}
	if st := res.Serve; st != nil {
		p.counters[name["arrived"]] += st.Arrived
		p.counters[name["admitted"]] += st.Admitted
		p.counters[name["rejected"]] += st.Rejected
		p.counters[name["done"]] += st.Done
		if faulted {
			p.counters[name["lost"]] += st.Lost()
		}
		sojourn := p.hist(name["sojourn"])
		tenant := make([]*histogram, len(st.Tenants))
		for i := range tenant {
			tenant[i] = p.hist(name["sojourn"] + "_tenant" + strconv.Itoa(i))
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
					sojourn.observe(d)
					tenant[e.Peer].observe(d)
				}
			}
		}
	}
}
