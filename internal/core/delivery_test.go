package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/uts"
	"distws/internal/victim"
)

// deliveryCases is the configuration table the delivery-path tests
// share: the protocol variants of protocol_test.go, a crash +
// duplication fault plan, a serving run, and the sharded engine.
func deliveryCases() map[string]Config {
	t3 := uts.MustPreset("T3").Params
	return map[string]Config{
		"two-sided": {Tree: t3, Ranks: 8, Selector: victim.NewUniformRandom, Seed: 23},
		"one-sided/steal-one": {Tree: t3, Ranks: 8, Selector: victim.NewUniformRandom,
			Steal: StealOne, Protocol: OneSided, Seed: 31},
		"one-sided/steal-half": {Tree: t3, Ranks: 8, Selector: victim.NewUniformRandom,
			Steal: StealHalf, Protocol: OneSided, Seed: 31},
		"one-sided/coarse-poll": {Tree: uts.MustPreset("H-TINY").Params, Ranks: 64, ChunkSize: 4,
			Selector: victim.NewUniformRandom, Steal: StealHalf, Protocol: OneSided, PollInterval: 50, Seed: 13},
		"aborting": {Tree: uts.MustPreset("T3S").Params, Ranks: 32, ChunkSize: 4,
			Selector: victim.NewUniformRandom, Steal: StealHalf, StealTimeout: 5 * sim.Microsecond, Seed: 17},
		"one-sided+aborting": {Tree: t3, Ranks: 16, ChunkSize: 4, Selector: victim.NewDistanceSkewed,
			Steal: StealHalf, Protocol: OneSided, StealTimeout: 10 * sim.Microsecond, Seed: 29},
		"crash+dup": faultConfig(&fault.Plan{
			Seed:    4,
			Crashes: []fault.Crash{{Rank: 2, At: sim.Time(60 * sim.Microsecond)}, {Rank: 9, At: sim.Time(90 * sim.Microsecond)}},
			Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.1}},
		}),
		"serving":  serveTestConfig(),
		"shards=2": {Tree: t3, Ranks: 16, ChunkSize: 4, Selector: victim.NewDistanceSkewed, Steal: StealHalf, Shards: 2, Seed: 5},
	}
}

// TestIdleRankMailboxAlwaysEmpty pins the delivery hook's decision
// table and the invariant it rests on. The hook consumes every message
// except those for a working rank, which declines them all under the
// two-sided protocol and all but steal requests under the one-sided
// one; and whenever it consumes for a rank that handles its traffic at
// once (idle, crashed or done), that rank's mailbox — the only backlog
// there is — is empty before or right after, so handling the arriving
// message on the spot is handling it in mailbox order. The probe wraps
// the hook on every message of every configuration of deliveryCases.
func TestIdleRankMailboxAlwaysEmpty(t *testing.T) {
	for name, cfg := range deliveryCases() {
		t.Run(name, func(t *testing.T) {
			// Atomic: the shards of a sharded run probe concurrently.
			var consumed, declined, served, broken atomic.Int64
			cfg.testDeliveryProbe = func(e *engine, m *comm.Message) bool {
				state, tag, to := e.states[m.To], m.Tag, m.To
				want := true
				switch state {
				case rsWorking:
					want = e.cfg.Protocol == OneSided && tag == comm.TagStealRequest
				case rsSearching, rsBackoff, rsCrashed:
					if e.net.Pending(to) && broken.Add(1) == 1 {
						t.Errorf("%v to rank %d (state %d) at %v: mailbox has a backlog", tag, to, state, e.kernel.Now())
					}
				}
				got := e.deliver(m) // m is freed once consumed
				if got != want && broken.Add(1) == 1 {
					t.Errorf("%v to rank %d (state %d) at %v: consumed %v, want %v", tag, to, state, e.kernel.Now(), got, want)
				}
				switch {
				case !got:
					declined.Add(1)
				case state == rsWorking:
					served.Add(1)
				case e.net.Pending(to) && broken.Add(1) == 1:
					t.Errorf("%v consumed by rank %d (state %d) at %v ahead of its backlog", tag, to, state, e.kernel.Now())
				}
				if got {
					consumed.Add(1)
				}
				return got
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := broken.Load(); n != 0 {
				t.Fatalf("%d deliveries broke the hook's contract", n)
			}
			// Every run must reach both an idle rank and a working one; what
			// the working one does with a steal request tells the protocols
			// apart.
			if consumed.Load() == served.Load() || declined.Load()+served.Load() == 0 {
				t.Fatalf("hook consumed %d (%d at working ranks) and declined %d messages; the run must exercise both paths",
					consumed.Load(), served.Load(), declined.Load())
			}
			if (served.Load() > 0) != (cfg.Protocol == OneSided) {
				t.Fatalf("working ranks served %d steal requests under the %v protocol", served.Load(), cfg.Protocol)
			}
			var received uint64
			for _, v := range res.Comm.Received {
				received += v
			}
			if got := uint64(consumed.Load() + declined.Load()); got != received {
				t.Fatalf("hook saw %d messages, the network counts %d received", got, received)
			}
		})
	}
}

// TestLinkTallyMatchesDirect: the per-link tally (obs.Traffic over the
// event log of a run that evicted nothing) accounts for every steal
// request, work, no-work and token message the network counted directly,
// on every delivery path — the matrix the heatmap, the manifests and
// diff read has no other producer.
func TestLinkTallyMatchesDirect(t *testing.T) {
	for name, cfg := range deliveryCases() {
		t.Run(name, func(t *testing.T) {
			res := recordAll(t, cfg)
			var logged uint64
			for _, row := range obs.Traffic(res.Trace) {
				for _, v := range row {
					logged += v
				}
			}
			s := res.Comm.Sent
			if sent := s[comm.TagStealRequest] + s[comm.TagWork] + s[comm.TagNoWork] + s[comm.TagToken]; logged != sent || sent == 0 {
				t.Fatalf("event log holds %d sends, the network sent %d", logged, sent)
			}
		})
	}
}

// variantDigest reduces a run to a sha256 over everything it reports:
// the Result scalars, the serving summary, the trace with its full
// event log as JSONL, and the metrics page followed by the per-link
// message counts (as goldenDump renders them). The page is rendered
// from the Result and the twin's log — the eight families of
// metricsFromLog and the retired fault and serving families
// (retiredFamilies) — so the digests hold from before the engine
// stopped writing a metrics registry.
func variantDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.CollectEvents = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin := recordAll(t, cfg).Trace
	metrics := metricsFromLog(twin)
	retiredFamilies(t, metrics, cfg, res, twin)
	h := sha256.New()
	tr, st := res.Trace, res.Serve
	res.Trace, res.Serve, res.Par = nil, nil, nil // pointers would print as addresses
	fmt.Fprintf(h, "%+v\n", *res)
	if st != nil {
		fmt.Fprintf(h, "%+v\n", *st)
	}
	if err := tr.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	metrics.write(h)
	writeLinkMessages(h, obs.Traffic(twin))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// variantCases are TestVariantDigests' configurations: deliveryCases
// plus the one-sided protocol under crashes and duplicates and under
// serving, and the Dijkstra-style ring on a closed run and on one whose
// initiator crashes.
func variantCases() map[string]Config {
	cases := deliveryCases()
	oneSidedFaults := cases["crash+dup"]
	oneSidedFaults.Protocol = OneSided
	cases["one-sided+crash+dup"] = oneSidedFaults
	oneSidedServing := serveTestConfig()
	oneSidedServing.Protocol = OneSided
	cases["one-sided+serving"] = oneSidedServing
	ring := cases["two-sided"]
	ring.Detector = term.NewRing
	cases["ring"] = ring
	ringFaults := faultConfig(&fault.Plan{
		Seed:    4,
		Crashes: []fault.Crash{{Rank: 0, At: sim.Time(60 * sim.Microsecond)}, {Rank: 9, At: sim.Time(90 * sim.Microsecond)}},
		Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.1}},
	})
	ringFaults.Detector = term.NewRing
	cases["ring+crash0+dup"] = ringFaults
	return cases
}

// TestRanksSettledAtResult: when result reads a drained run, every rank
// is done or crashed — none is still searching or backing off with a
// session open — on every configuration of TestVariantDigests, so
// result counts each session from the tally alone.
func TestRanksSettledAtResult(t *testing.T) {
	for name, cfg := range variantCases() {
		t.Run(name, func(t *testing.T) {
			cfg.CollectEvents = true
			checked := false
			_, err := run(cfg, func(engines []*engine) (*Result, error) {
				for i := range engines[0].ranks {
					if s := engines[0].states[i]; s != rsDone && s != rsCrashed {
						t.Errorf("rank %d is in state %d when result runs", i, s)
					}
				}
				checked = true
				return result(engines)
			})
			if err != nil || !checked {
				t.Fatalf("run: %v (engines checked: %v)", err, checked)
			}
		})
	}
}

// TestVariantDigests is the refactor oracle for the engine paths no
// golden file covers. The digests were recorded at commit 27b6be4,
// before the engine's constructors and delivery paths were merged, and
// re-pinned four times: when the Result gained its Graph field
// (deleting " Graph:<nil>" from each Result line reproduces the earlier
// digests), when sessions stopped outlasting the makespan (nine rows
// moved; with MeanSessionDuration and the session records left out,
// every row hashes as before), when a work reply that answers no
// outstanding request was logged as work-late (the four rows with
// such replies moved; writing work-recv for work-late in their JSONL
// gives the earlier digests), and when the JSONL trace lost its
// session records, which the sessions derived from the transitions
// replace (every row moved; putting the session lines back into each
// JSONL gives the earlier digests). The two ring rows were recorded at
// commit e0959c7, before Safra and the ring became one detector type
// and the initiator and the crash restart moved from the engine into
// it. No change that claims to keep behaviour may move one.
func TestVariantDigests(t *testing.T) {
	cases := variantCases()
	want := map[string]string{
		"aborting":              "163b5a59913a079d5b9c311b3cab50a3d28e3c64a522bfdb947664f1bc010108",
		"crash+dup":             "f0e3c81c61339e1a5d680f3baa29c7c9e7f4e9ae2d63817b9cad31c9266c54af",
		"one-sided+aborting":    "a1b7d8c134052c8f73ffe38385fdc862abfa3c5328cd99ff9c064b4eb7aa1f4b",
		"one-sided+serving":     "fd2ed48954746572046714c8d8948534b41c56deb3be5e308e0c0935b67b79b4",
		"one-sided+crash+dup":   "b0d849bdd3580e5fcb02cba26f73ae79c7af021452686de2ce2d1f80169db492",
		"one-sided/coarse-poll": "5d04fdbd06d49039b05d2cd5854b80ae9e239d8fb9e0ff1664d5f9d5777a3477",
		"one-sided/steal-half":  "d6d29268f46c56baa3d36e6833d2b46d646675ff49f9db0cf96ea28e86ae1d0c",
		"one-sided/steal-one":   "cf8331506669832c366f82e61155c9c575dd0b1bd57ba7853af47bcfe9f9f1c5",
		"ring":                  "c5b649d2eedd60da2a6dbd1015026d8efcbafc2a83abed276db789c52e20e37e",
		"ring+crash0+dup":       "8d958e9b6997eea0c9f567a6f0471d4d2f9888e0c70260a78c159b6bbdc1948c",
		"serving":               "ba97b46d51aae600017fa3cff511f7f37af7a2992ed7d6b5a115283a96d0c89f",
		"shards=2":              "124e290fc6b10f12f36538f9f13f83bf26aad92cc8d2a886c36c240fce4b618c",
		"two-sided":             "4b2cf21c0b8835a8fdd9289cfca0d34b6d9f5b307df67ea1d8d58bf97a5703d8",
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if got := variantDigest(t, cfg); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}

// idlenessCheck wraps a run's detector and infers each rank's idleness
// from the calls the engine makes, by the rule the term detectors use:
// busy until the rank's first OnIdle, then idle until its next
// WorkReceived. At every delivery (tokens among them) for the
// destination, and at every crash for each surviving rank, it holds
// the inference to the engine's state byte. Per-rank fields are written
// only by calls naming the rank, which the engine owning it makes;
// states is set once, by the first delivery.
type idlenessCheck struct {
	term.Detector
	t       *testing.T
	idle    []bool
	states  []rankState
	once    sync.Once
	checked atomic.Int64
	crashes int
}

func (d *idlenessCheck) OnIdle(r int) []term.Send {
	d.idle[r] = true
	return d.Detector.OnIdle(r)
}

func (d *idlenessCheck) WorkReceived(r int) {
	d.idle[r] = false
	d.Detector.WorkReceived(r)
}

func (d *idlenessCheck) RemoveRank(r int) []term.Send {
	if d.states == nil {
		d.t.Fatalf("rank %d crashed before the first delivery: no state to check against", r)
	}
	d.crashes++
	for q := range d.states {
		d.check(q, fmt.Sprintf("crash of rank %d", r))
	}
	return d.Detector.RemoveRank(r)
}

func (d *idlenessCheck) IdleDecisionPossible(r int) bool {
	return d.Detector.(term.DecisionAware).IdleDecisionPossible(r)
}

// check compares the inferred idleness of rank r with the engine's
// while no verdict is out (a done rank's state says nothing more).
func (d *idlenessCheck) check(r int, at string) {
	if d.Terminated() || d.states[r] == rsCrashed {
		return
	}
	d.checked.Add(1)
	if engineIdle := d.states[r] != rsWorking; d.idle[r] != engineIdle {
		d.t.Errorf("%s: rank %d inferred idle %v, engine state %d", at, r, d.idle[r], d.states[r])
	}
}

// TestDetectorIdlenessMatchesEngine: the detector is told when a rank
// goes idle and when it receives work, never asked whether it is idle,
// so every route by which the engine starts an idle rank working must
// pass through WorkReceived. Served jobs do not (injectNode resumes a
// rank on a job's root), which is why serving runs have no detector;
// the serving rows are skipped.
func TestDetectorIdlenessMatchesEngine(t *testing.T) {
	cases := variantCases()
	cases["graph"] = graphConfig(testGraph(t, 6), 8, 9)
	cases["graph+faults"] = graphFaultConfig(testGraph(t, 6))
	cases["all-but-one-crashed"] = allButOneConfig()
	cases["lone-survivor-loss"] = loneLossConfig()
	for name, cfg := range cases {
		if cfg.Serve != nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			base := cfg.Detector
			if base == nil {
				base = term.NewSafra
			}
			var d *idlenessCheck
			cfg.Detector = func(n int) term.Detector {
				d = &idlenessCheck{Detector: base(n), t: t, idle: make([]bool, n)}
				return d
			}
			cfg.testDeliveryProbe = func(e *engine, m *comm.Message) bool {
				d.once.Do(func() { d.states = e.states })
				d.check(m.To, fmt.Sprintf("%v delivery at %v", m.Tag, e.kernel.Now()))
				return e.deliver(m)
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if d.checked.Load() == 0 {
				t.Fatal("no delivery or crash checked")
			}
			if plan := cfg.Faults; plan != nil && d.crashes != len(plan.Crashes) {
				t.Fatalf("%d crashes checked, the plan has %d", d.crashes, len(plan.Crashes))
			}
		})
	}
}
