// Package ledger is the run ledger: every simulation can emit a
// self-describing, deterministic run manifest that captures what was
// run (the full configuration fingerprint, including the fault plan
// hash) and what happened (the canonical Result summary, the causal
// critical-path decomposition, the idle-time blame attribution, steal
// latency percentiles, and the rank×rank traffic matrix).
//
// Manifests are the unit of cross-run observability (DESIGN.md §12):
// internal/obs/diff compares two of them into an attribution report,
// and the scenario-matrix harness (internal/harness) gates CI on a
// committed baseline ledger of them under artifacts/runs/.
//
// Determinism contract: a manifest is a pure function of the run it
// describes. Encode is canonical — struct fields in declaration order,
// no maps in the document, "\n"-terminated MarshalIndent — so the same
// seed and configuration always produce byte-identical manifest files
// (asserted by tests). The optional Generator provenance field is the
// one exception: it describes the producing binary, not the run, and
// every comparison ignores it.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/obs/causal"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/workstack"
)

// Schema identifies the manifest document format; bump on breaking
// changes so ReadFile and uts -diff fail loudly on a version skew.
const Schema = "distws/run-manifest/v1"

// Spec is the configuration fingerprint: every knob that determines
// the run's behaviour, in a form stable enough to hash. Two runs with
// equal Specs are replicas; two runs whose Specs differ in exactly one
// field are a controlled experiment.
type Spec struct {
	// Tree names the UTS preset (or a caller-chosen workload label).
	Tree      string `json:"tree"`
	Ranks     int    `json:"ranks"`
	Placement string `json:"placement"`
	Selector  string `json:"selector"`
	Steal     string `json:"steal"`
	ChunkSize int    `json:"chunk_size"`
	Detector  string `json:"detector,omitempty"`
	Protocol  string `json:"protocol,omitempty"`
	// NodeCostNS is the virtual compute time per node expansion.
	NodeCostNS int64  `json:"node_cost_ns"`
	Seed       uint64 `json:"seed"`
	// Scale labels the harness fidelity (quick|default|full) when the
	// run came from an experiment grid; free-standing runs leave it "".
	Scale string `json:"scale,omitempty"`
	// FaultPlanHash commits to the exact injected adversity; "" for
	// fault-free runs.
	FaultPlanHash string `json:"fault_plan_hash,omitempty"`
	// ServeHash commits to the open-system serving spec (tenants,
	// arrival processes, admission buckets, horizon); "" for
	// closed-system runs, so their fingerprints are unchanged.
	ServeHash string `json:"serve_hash,omitempty"`
}

// Fingerprint returns a short stable digest of the spec, used as the
// identity check when diffing: runs with equal fingerprints differ only
// in code version, never in configuration.
func (s Spec) Fingerprint() string { return digest("spec", s) }

// PlanHash returns the stable digest of a fault plan ("" for nil or
// empty plans, which behave identically to no plan at all).
func PlanHash(p *fault.Plan) string {
	if p == nil || p.Empty() {
		return ""
	}
	return digest("fault plan", p)
}

// ServeHash returns the stable digest of a serving spec ("" for nil,
// i.e. a closed-system run).
func ServeHash(s *serve.Spec) string {
	if s == nil {
		return ""
	}
	return digest("serve spec", s)
}

// digest hashes v's JSON encoding to 16 hex digits. The three inputs
// are structs of scalars and slices of them; Marshal cannot fail.
func digest(what string, v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("ledger: marshal %s: %v", what, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// ResultSummary is the canonical Result snapshot: every scalar the
// experiment tables print, in virtual nanoseconds where durations are
// involved.
type ResultSummary struct {
	MakespanNS     int64   `json:"makespan_ns"`
	SequentialNS   int64   `json:"sequential_ns"`
	Speedup        float64 `json:"speedup"`
	Efficiency     float64 `json:"efficiency"`
	Nodes          uint64  `json:"nodes"`
	Leaves         uint64  `json:"leaves"`
	MaxDepth       int32   `json:"max_depth"`
	NodesGenerated uint64  `json:"nodes_generated"`

	StealRequests    uint64 `json:"steal_requests"`
	SuccessfulSteals uint64 `json:"successful_steals"`
	FailedSteals     uint64 `json:"failed_steals"`
	AbortedSteals    uint64 `json:"aborted_steals"`
	ChunksMoved      uint64 `json:"chunks_moved"`
	MeanSearchNS     int64  `json:"mean_search_ns"`
	Sessions         uint64 `json:"sessions"`
	MeanSessionNS    int64  `json:"mean_session_ns"`

	MaxRankNodes uint64  `json:"max_rank_nodes"`
	MinRankNodes uint64  `json:"min_rank_nodes"`
	Imbalance    float64 `json:"imbalance"`

	TerminationRounds int  `json:"termination_rounds"`
	Premature         bool `json:"premature,omitempty"`

	MessagesSent    uint64 `json:"messages_sent"`
	MessagesDropped uint64 `json:"messages_dropped,omitempty"`

	MaxMigrationDepth int `json:"max_migration_depth,omitempty"`

	// Fault accounting; all zero for fault-free runs.
	CrashedRanks   uint64 `json:"crashed_ranks,omitempty"`
	LostNodes      uint64 `json:"lost_nodes,omitempty"`
	LostMessages   uint64 `json:"lost_messages,omitempty"`
	TokenRegens    uint64 `json:"token_regens,omitempty"`
	Recoveries     uint64 `json:"recoveries,omitempty"`
	MeanRecoveryNS int64  `json:"mean_recovery_ns,omitempty"`
}

// CriticalSummary is the critical-path decomposition: the five segment
// totals partition the makespan exactly (Validate checks the identity).
type CriticalSummary struct {
	Segments   int   `json:"segments"`
	ComputeNS  int64 `json:"compute_ns"`
	StealRTTNS int64 `json:"steal_rtt_ns"`
	TransferNS int64 `json:"transfer_ns"`
	TokenNS    int64 `json:"token_ns"`
	WaitNS     int64 `json:"wait_ns"`
}

// TotalNS sums the segment kinds; it must equal the makespan.
func (c *CriticalSummary) TotalNS() int64 {
	return c.ComputeNS + c.StealRTTNS + c.TransferNS + c.TokenNS + c.WaitNS
}

// BlameEntry is one rank's idle-time blame partition (or the aggregate
// over all ranks); the five categories sum to the rank's full timeline.
type BlameEntry struct {
	BusyNS     int64 `json:"busy_ns"`
	StartupNS  int64 `json:"startup_ns"`
	SearchNS   int64 `json:"search_ns"`
	InFlightNS int64 `json:"in_flight_ns"`
	TermTailNS int64 `json:"term_tail_ns"`
}

// TotalNS sums the five categories.
func (b BlameEntry) TotalNS() int64 {
	return b.BusyNS + b.StartupNS + b.SearchNS + b.InFlightNS + b.TermTailNS
}

// BlameSummary is the idle-time blame attribution: per rank plus the
// aggregate, whose total is exactly ranks × makespan.
type BlameSummary struct {
	PerRank []BlameEntry `json:"per_rank"`
	Total   BlameEntry   `json:"total"`
}

// ServeTenantRow is one tenant's serving outcome in the manifest.
type ServeTenantRow struct {
	Name          string  `json:"name"`
	Class         string  `json:"class,omitempty"`
	Arrived       uint64  `json:"arrived"`
	Admitted      uint64  `json:"admitted"`
	Rejected      uint64  `json:"rejected"`
	Done          uint64  `json:"done"`
	SLOMet        uint64  `json:"slo_met"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	SojournP50NS  int64   `json:"sojourn_p50_ns"`
	SojournP95NS  int64   `json:"sojourn_p95_ns"`
	SojournP99NS  int64   `json:"sojourn_p99_ns"`
}

// ServeSummary is the open-system serving section, present when the
// run had core.Config.Serve set. Identities checked by Validate: the
// admission verdicts partition the arrivals (admitted + rejected ==
// arrived), globally and per tenant, every admitted job was done or
// lost (done + lost == admitted), and the tenant rows sum to the global
// counts.
type ServeSummary struct {
	Arrived  uint64 `json:"arrived"`
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Done     uint64 `json:"done"`
	Lost     uint64 `json:"lost,omitempty"`
	// FinishNS is the virtual instant the run ended (== the makespan:
	// serving runs start at virtual zero).
	FinishNS int64 `json:"finish_ns"`
	// Jain is Jain's fairness index over tenant goodput, in (0, 1].
	Jain    float64          `json:"jain"`
	Tenants []ServeTenantRow `json:"tenants"`
}

// StealSummary holds the reconstructed steal-transaction statistics.
type StealSummary struct {
	Count      int   `json:"count"`
	Success    int   `json:"success"`
	Refused    int   `json:"refused"`
	Aborted    int   `json:"aborted"`
	MeanNS     int64 `json:"mean_ns"`
	P50NS      int64 `json:"p50_ns"`
	P95NS      int64 `json:"p95_ns"`
	P99NS      int64 `json:"p99_ns"`
	MaxNS      int64 `json:"max_ns"`
	NodesMoved int64 `json:"nodes_moved"`
}

// Manifest is one run's ledger entry.
type Manifest struct {
	Schema string `json:"schema"`
	// ID labels the run (a matrix cell name, a CLI-chosen tag, or "").
	ID          string `json:"id,omitempty"`
	Spec        Spec   `json:"spec"`
	Fingerprint string `json:"fingerprint"`
	// Generator is optional provenance about the producing binary (VCS
	// revision). It describes the builder, not the run: comparisons and
	// the determinism contract exclude it.
	Generator string           `json:"generator,omitempty"`
	Result    ResultSummary    `json:"result"`
	Critical  *CriticalSummary `json:"critical,omitempty"`
	Blame     *BlameSummary    `json:"blame,omitempty"`
	Steals    *StealSummary    `json:"steals,omitempty"`
	// Traffic is the rank×rank message matrix (sender-major), present
	// when the run recorded events and Ranks <= causal.TrafficRankLimit.
	Traffic [][]uint64 `json:"traffic,omitempty"`
	// Serve is the open-system serving section, present when the run
	// had core.Config.Serve set.
	Serve *ServeSummary `json:"serve,omitempty"`
}

// FromRun builds the manifest for one completed run. The build only
// reads res — it never mutates the Result, its trace, or any registry,
// so emitting a manifest is observer-effect-free (asserted by tests
// against the golden Fig 9 run). The causal analyses are included when
// the run collected the protocol event log.
func FromRun(id string, spec Spec, res *core.Result) *Manifest {
	return New(id, spec, res, causal.Analyze(res.Trace))
}

// New is the one manifest constructor: the Result's scalars plus the
// trace sections read from a, the analysis of res.Trace. A caller that
// also prints or exports from the same analysis (cmd/uts) passes it in,
// so the graph is built once per process; FromRun is New over a fresh
// analysis.
func New(id string, spec Spec, res *core.Result, a *causal.Analysis) *Manifest {
	m := &Manifest{
		Schema:      Schema,
		ID:          id,
		Spec:        spec,
		Fingerprint: spec.Fingerprint(),
		Result: ResultSummary{
			MakespanNS:     int64(res.Makespan),
			SequentialNS:   int64(res.SequentialTime),
			Speedup:        res.Speedup,
			Efficiency:     res.Efficiency,
			Nodes:          res.Nodes,
			Leaves:         res.Leaves,
			MaxDepth:       res.MaxDepth,
			NodesGenerated: res.NodesGenerated,

			StealRequests:    res.StealRequests,
			SuccessfulSteals: res.SuccessfulSteals,
			FailedSteals:     res.FailedSteals,
			AbortedSteals:    res.AbortedSteals,
			ChunksMoved:      res.ChunksTransferred,
			MeanSearchNS:     int64(res.MeanSearchTime),
			Sessions:         res.Sessions,
			MeanSessionNS:    int64(res.MeanSessionDuration),

			MaxRankNodes: res.MaxRankNodes,
			MinRankNodes: res.MinRankNodes,
			Imbalance:    res.Imbalance,

			TerminationRounds: res.TerminationRounds,
			Premature:         res.Premature,

			MessagesSent:    res.Comm.TotalSent(),
			MessagesDropped: res.Comm.TotalDropped(),

			MaxMigrationDepth: res.MaxMigrationDepth,

			CrashedRanks:   uint64(res.CrashedRanks),
			LostNodes:      res.LostNodes,
			LostMessages:   res.LostMessages,
			TokenRegens:    res.TokenRegens,
			Recoveries:     res.Recoveries,
			MeanRecoveryNS: int64(res.MeanRecoveryLatency),
		},
	}
	m.attach(a)
	if res.Serve != nil {
		m.Serve = serveSummary(res.Serve)
	}
	return m
}

// serveSummary converts the engine's serving stats into the manifest
// section.
func serveSummary(st *serve.Stats) *ServeSummary {
	s := &ServeSummary{
		Arrived:  st.Arrived,
		Admitted: st.Admitted,
		Rejected: st.Rejected,
		Done:     st.Done,
		Lost:     st.Lost(),
		FinishNS: int64(st.Finish),
		Jain:     st.Jain,
	}
	for _, ts := range st.Tenants {
		s.Tenants = append(s.Tenants, ServeTenantRow{
			Name:          ts.Name,
			Class:         ts.Class,
			Arrived:       ts.Arrived,
			Admitted:      ts.Admitted,
			Rejected:      ts.Rejected,
			Done:          ts.Done,
			SLOMet:        ts.SLOMet,
			GoodputPerSec: ts.GoodputPerSec,
			SojournP50NS:  int64(ts.SojournP50),
			SojournP95NS:  int64(ts.SojournP95),
			SojournP99NS:  int64(ts.SojournP99),
		})
	}
	return s
}

// attach fills the trace-derived sections — blame, critical path, steal
// statistics, traffic — from an analysis; a view the trace does not
// support leaves its section absent. This is the only causal→manifest
// conversion.
func (m *Manifest) attach(a *causal.Analysis) {
	b := a.Blame()
	if b == nil {
		return
	}
	m.Blame = &BlameSummary{Total: blameEntry(b.Total)}
	for _, rb := range b.PerRank {
		m.Blame.PerRank = append(m.Blame.PerRank, blameEntry(rb))
	}
	if !a.HasEvents() {
		return
	}
	p := a.Path()
	m.Critical = &CriticalSummary{
		Segments:   len(p.Segments),
		ComputeNS:  int64(p.ByKind[causal.SegCompute]),
		StealRTTNS: int64(p.ByKind[causal.SegStealRTT]),
		TransferNS: int64(p.ByKind[causal.SegTransfer]),
		TokenNS:    int64(p.ByKind[causal.SegToken]),
		WaitNS:     int64(p.ByKind[causal.SegWait]),
	}
	if st := a.Steals(); st.Count > 0 {
		m.Steals = &StealSummary{
			Count: st.Count, Success: st.Success, Refused: st.Refused, Aborted: st.Aborted,
			MeanNS: int64(st.Mean), P50NS: int64(st.P50), P95NS: int64(st.P95),
			P99NS: int64(st.P99), MaxNS: int64(st.Max), NodesMoved: st.NodesMoved,
		}
	}
	m.Traffic = a.Traffic()
}

func blameEntry(b causal.RankBlame) BlameEntry {
	return BlameEntry{
		BusyNS: int64(b.Busy), StartupNS: int64(b.Startup), SearchNS: int64(b.Search),
		InFlightNS: int64(b.InFlight), TermTailNS: int64(b.TermTail),
	}
}

// SpecFromConfig derives the fingerprint spec from a core.Config plus
// the workload label the caller ran (presets are named outside core).
// The scale label is optional harness context.
func SpecFromConfig(tree, scale string, cfg core.Config) Spec {
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = workstack.DefaultChunkSize
	}
	nodeCost := cfg.NodeCost
	if nodeCost == 0 {
		nodeCost = core.DefaultNodeCost
	}
	s := Spec{
		Tree:          tree,
		Ranks:         cfg.Ranks,
		Placement:     cfg.Placement.String(),
		Steal:         cfg.Steal.String(),
		ChunkSize:     chunk,
		NodeCostNS:    int64(nodeCost),
		Seed:          cfg.Seed,
		Scale:         scale,
		FaultPlanHash: PlanHash(cfg.Faults),
		ServeHash:     ServeHash(cfg.Serve),
	}
	if cfg.Protocol != core.TwoSided {
		s.Protocol = cfg.Protocol.String()
	}
	return s
}

// Encode renders the manifest canonically: two-space MarshalIndent over
// fixed-order struct fields, terminated by a newline. Byte-stable for a
// given manifest value.
func (m *Manifest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ledger: encode manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode parses a manifest document, rejecting unknown fields and
// anything but whitespace after the manifest, so a schema skew or a
// corrupted file fails loudly.
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("ledger: decode manifest: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("ledger: decode manifest: data after the manifest")
	}
	return &m, nil
}

// Validate is the schema checker ReadFile runs on every manifest:
// structural requirements plus the causal identities that make diffs
// trustworthy — blame partitions each rank's exact timeline, and the
// critical-path segments partition the makespan.
func (m *Manifest) Validate() error {
	if m.Schema != Schema {
		return fmt.Errorf("ledger: schema %q, want %q", m.Schema, Schema)
	}
	if m.Spec.Ranks < 1 {
		return fmt.Errorf("ledger: spec has %d ranks", m.Spec.Ranks)
	}
	if m.Fingerprint != m.Spec.Fingerprint() {
		return fmt.Errorf("ledger: fingerprint %q does not match spec (want %q)",
			m.Fingerprint, m.Spec.Fingerprint())
	}
	if m.Result.MakespanNS < 0 {
		return fmt.Errorf("ledger: negative makespan %d", m.Result.MakespanNS)
	}
	if m.Critical != nil {
		if got, want := m.Critical.TotalNS(), m.Result.MakespanNS; got != want {
			return fmt.Errorf("ledger: critical-path segments sum to %d ns, want makespan %d ns", got, want)
		}
	}
	if m.Blame != nil {
		if len(m.Blame.PerRank) != m.Spec.Ranks {
			return fmt.Errorf("ledger: blame covers %d ranks, spec has %d",
				len(m.Blame.PerRank), m.Spec.Ranks)
		}
		var sum BlameEntry
		for r, b := range m.Blame.PerRank {
			if b.TotalNS() != m.Result.MakespanNS {
				return fmt.Errorf("ledger: rank %d blame sums to %d ns, want makespan %d ns",
					r, b.TotalNS(), m.Result.MakespanNS)
			}
			sum.BusyNS += b.BusyNS
			sum.StartupNS += b.StartupNS
			sum.SearchNS += b.SearchNS
			sum.InFlightNS += b.InFlightNS
			sum.TermTailNS += b.TermTailNS
		}
		if sum != m.Blame.Total {
			return fmt.Errorf("ledger: blame total %+v does not equal per-rank sum %+v", m.Blame.Total, sum)
		}
	}
	if m.Traffic != nil {
		if len(m.Traffic) != m.Spec.Ranks {
			return fmt.Errorf("ledger: traffic matrix has %d rows for %d ranks", len(m.Traffic), m.Spec.Ranks)
		}
		for i, row := range m.Traffic {
			if len(row) != m.Spec.Ranks {
				return fmt.Errorf("ledger: traffic row %d has %d columns for %d ranks", i, len(row), m.Spec.Ranks)
			}
		}
	}
	if m.Serve != nil {
		if err := m.Serve.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks the serving section's admission partition identities.
func (s *ServeSummary) validate() error {
	if s.Admitted+s.Rejected != s.Arrived {
		return fmt.Errorf("ledger: serve admitted %d + rejected %d != arrived %d",
			s.Admitted, s.Rejected, s.Arrived)
	}
	if s.Done+s.Lost != s.Admitted {
		return fmt.Errorf("ledger: serve completed %d and lost %d of %d admitted jobs", s.Done, s.Lost, s.Admitted)
	}
	if s.Jain < 0 || s.Jain > 1 {
		return fmt.Errorf("ledger: serve Jain index %v out of [0, 1]", s.Jain)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("ledger: serve section has no tenant rows")
	}
	var sum ServeTenantRow
	for _, t := range s.Tenants {
		if t.Admitted+t.Rejected != t.Arrived {
			return fmt.Errorf("ledger: serve tenant %q admitted %d + rejected %d != arrived %d",
				t.Name, t.Admitted, t.Rejected, t.Arrived)
		}
		sum.Arrived += t.Arrived
		sum.Admitted += t.Admitted
		sum.Rejected += t.Rejected
		sum.Done += t.Done
	}
	if sum.Arrived != s.Arrived || sum.Admitted != s.Admitted ||
		sum.Rejected != s.Rejected || sum.Done != s.Done {
		return fmt.Errorf("ledger: serve tenant rows sum to %d/%d/%d/%d (arrived/admitted/rejected/done), global says %d/%d/%d/%d",
			sum.Arrived, sum.Admitted, sum.Rejected, sum.Done,
			s.Arrived, s.Admitted, s.Rejected, s.Done)
	}
	return nil
}

// Makespan returns the manifest's makespan as a virtual duration.
func (m *Manifest) Makespan() sim.Duration { return sim.Duration(m.Result.MakespanNS) }
