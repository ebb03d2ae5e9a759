package distws

// Cross-module integration tests: each test drives a complete pipeline
// through multiple packages (engine -> trace -> serialization ->
// metrics, simulator vs sequential count, selectors across substrates).

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// TestPipelineTraceRoundTrip runs a traced simulation, serializes the
// trace to JSONL, reads it back, and verifies the derived metrics are
// identical — the full uts -trace -> uts -in pipeline in-process.
func TestPipelineTraceRoundTrip(t *testing.T) {
	res, err := core.Run(core.Config{
		Tree:         uts.MustPreset("H-TINY").Params,
		Ranks:        32,
		ChunkSize:    4,
		Selector:     victim.NewDistanceSkewed,
		Steal:        core.StealHalf,
		Seed:         1,
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	a := obs.Occupancy(res.Trace)
	b := obs.Occupancy(back)
	if a.Wmax() != b.Wmax() || a.MeanOccupancy() != b.MeanOccupancy() {
		t.Fatal("metrics differ after serialization round trip")
	}
	slA, okA := a.StartingLatency(0.5)
	slB, okB := b.StartingLatency(0.5)
	if okA != okB || slA != slB {
		t.Fatal("SL differs after round trip")
	}
	sa, sb := obs.Sessions(res.Trace), obs.Sessions(back)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("session stats differ: %+v vs %+v", sa, sb)
	}
}

// TestPipelineEventAnalysisRoundTrip drives the observability pipeline
// end to end: a simulation with the protocol event log and a metrics
// registry, serialized to JSONL and read back, must yield identical
// steal-latency and traffic analyses, convert to non-trivial Chrome
// trace JSON, and export a Prometheus page carrying the same steal
// counts the engine reported.
func TestPipelineEventAnalysisRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := core.Run(core.Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         32,
		ChunkSize:     4,
		Selector:      victim.NewDistanceSkewed,
		Steal:         core.StealHalf,
		Seed:          1,
		CollectEvents: true,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.TotalEvents() != res.Trace.TotalEvents() {
		t.Fatalf("event count changed in serialization: %d vs %d",
			back.TotalEvents(), res.Trace.TotalEvents())
	}

	if !reflect.DeepEqual(obs.StealLatency(res.Trace), obs.StealLatency(back)) {
		t.Fatal("steal-latency stats differ after round trip")
	}
	if !reflect.DeepEqual(obs.Traffic(res.Trace), obs.Traffic(back)) {
		t.Fatal("traffic matrix differs after round trip")
	}

	var chrome bytes.Buffer
	if err := obs.WriteChromeTraceOpts(&chrome, back, obs.ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var page struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &page); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(page.TraceEvents) < int(back.TotalEvents())/2 {
		t.Fatalf("chrome trace suspiciously small: %d events for %d recorded",
			len(page.TraceEvents), back.TotalEvents())
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	want := []byte("sim_steal_success_total " + strconv.FormatUint(res.SuccessfulSteals, 10))
	if !bytes.Contains(prom.Bytes(), want) {
		t.Fatalf("prometheus page missing %q:\n%s", want, prom.String())
	}
}

// TestSimulatorMatchesSequentialCount verifies that the discrete-event
// simulator counts exactly the tree the sequential enumerator counts —
// an independent traversal as ground-truth cross-check.
func TestSimulatorMatchesSequentialCount(t *testing.T) {
	params := uts.MustPreset("H-TINY").Params
	seq, err := uts.CountSequential(params)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := core.Run(core.Config{
		Tree: params, Ranks: 16, ChunkSize: 4,
		Selector: victim.NewUniformRandom, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Nodes != seq.Nodes {
		t.Fatalf("node counts disagree: seq %d, sim %d", seq.Nodes, simRes.Nodes)
	}
	if simRes.Leaves != seq.Leaves {
		t.Fatalf("leaf counts disagree: seq %d, sim %d", seq.Leaves, simRes.Leaves)
	}
	if simRes.MaxDepth != seq.MaxDepth {
		t.Fatalf("depths disagree: seq %d, sim %d", seq.MaxDepth, simRes.MaxDepth)
	}
}

// TestEfficiencyEqualsMeanOccupancy checks the analytic identity tying
// the engine's efficiency to the trace-derived mean occupancy: busy
// time is exactly SequentialTime, so efficiency = busy/(N*T) =
// mean occupancy (up to the sub-nanosecond rounding of trace times).
func TestEfficiencyEqualsMeanOccupancy(t *testing.T) {
	res, err := core.Run(core.Config{
		Tree:         uts.MustPreset("H-TINY").Params,
		Ranks:        24,
		ChunkSize:    4,
		Selector:     victim.NewUniformRandom,
		Seed:         9,
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := obs.Occupancy(res.Trace).MeanOccupancy()
	if math.Abs(mo-res.Efficiency) > 0.02 {
		t.Fatalf("mean occupancy %.4f vs efficiency %.4f", mo, res.Efficiency)
	}
}

// TestSkewCorrectionPreservesMetrics runs the paper's clock-skew
// methodology end to end: inject skew, correct it, and verify SL/EL
// survive exactly.
func TestSkewCorrectionPreservesMetrics(t *testing.T) {
	res, err := core.Run(core.Config{
		Tree:         uts.MustPreset("H-TINY").Params,
		Ranks:        16,
		ChunkSize:    4,
		Selector:     victim.NewRoundRobin,
		Seed:         11,
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := obs.Occupancy(res.Trace)
	skewed, offsets := res.Trace.InjectSkew(3, 2*sim.Microsecond)
	fixed := skewed.CorrectSkew(offsets)
	corr := obs.Occupancy(fixed)
	for _, x := range []float64{0.25, 0.5, 0.75} {
		a, okA := orig.StartingLatency(x)
		b, okB := corr.StartingLatency(x)
		if okA != okB || a != b {
			t.Fatalf("SL(%v) not preserved: %v/%v vs %v/%v", x, a, okA, b, okB)
		}
	}
}

// TestVictimSelectorsAcrossSubstrates drives the same selector
// implementations through both of the engine's closed workloads, the
// UTS tree and a task graph.
func TestVictimSelectorsAcrossSubstrates(t *testing.T) {
	g, err := dag.Generate(dag.Params{
		Seed: 2, Layers: 12, WidthMean: 8, EdgesPerTask: 1.5,
		LocalityWindow: 2, CostMean: 10 * sim.Microsecond, DataMean: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := uts.MustPreset("H-TINY").Params
	for name, factory := range victim.Strategies {
		utsRes, err := core.Run(core.Config{
			Tree: tree, Ranks: 8, ChunkSize: 4, Selector: factory, Seed: 3,
		})
		if err != nil {
			t.Fatalf("uts/%s: %v", name, err)
		}
		dagRes, err := core.Run(core.Config{
			Graph: g, Ranks: 8, ChunkSize: 1, Steal: core.StealHalf, Selector: factory, Seed: 3,
		})
		if err != nil {
			t.Fatalf("dag/%s: %v", name, err)
		}
		if utsRes.Premature || dagRes.Premature || dagRes.Nodes != uint64(g.Len()) {
			t.Fatalf("%s: incomplete execution on a substrate", name)
		}
	}
}

// TestPlacementAffectsLatencyButNotWork confirms the core invariant
// behind Figure 2's comparisons: rank placement changes timing, never
// the computation.
func TestPlacementAffectsLatencyButNotWork(t *testing.T) {
	var nodes []uint64
	var makespans []sim.Duration
	for _, pl := range []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped} {
		res, err := core.Run(core.Config{
			Tree: uts.MustPreset("H-TINY").Params, Ranks: 16, ChunkSize: 4,
			Placement: pl, Selector: victim.NewRoundRobin, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, res.Nodes)
		makespans = append(makespans, res.Makespan)
	}
	if nodes[0] != nodes[1] || nodes[1] != nodes[2] {
		t.Fatalf("placements computed different trees: %v", nodes)
	}
	if makespans[0] == makespans[1] && makespans[1] == makespans[2] {
		t.Fatal("placements produced identical timing (latency model inert?)")
	}
}
