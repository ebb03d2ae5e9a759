package core

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/sim"
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
// serving.
func variantCases() map[string]Config {
	cases := deliveryCases()
	oneSidedFaults := cases["crash+dup"]
	oneSidedFaults.Protocol = OneSided
	cases["one-sided+crash+dup"] = oneSidedFaults
	oneSidedServing := serveTestConfig()
	oneSidedServing.Protocol = OneSided
	cases["one-sided+serving"] = oneSidedServing
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
// re-pinned three times: when the Result gained its Graph field
// (deleting " Graph:<nil>" from each Result line reproduces the earlier
// digests), when sessions stopped outlasting the makespan (nine rows
// moved; with MeanSessionDuration and the session records left out,
// every row hashes as before), and when a work reply that answers no
// outstanding request was logged as work-late (the four rows with
// such replies moved; writing work-recv for work-late in their JSONL
// gives the earlier digests). No change that claims to keep behaviour
// may move one.
func TestVariantDigests(t *testing.T) {
	cases := variantCases()
	want := map[string]string{
		"aborting":              "6f37ddfe1b3107b4f6ef06f29512b1830532a14c636c568026682b8fbfa49ade",
		"crash+dup":             "39f11cc90d9f810e85a0b1f813a567e5f58a62400f7ccaea1b751b56cc65ed58",
		"one-sided+aborting":    "28fc48ef628e9034a36d16255ff8b6cd3e796392eb991494e252d5b964c4d62b",
		"one-sided+serving":     "ad8bef28ecec0f137601f296d9543ddf68d4ad7deaa22f8e64aa109d66e0313f",
		"one-sided+crash+dup":   "93985a9c47b03aef7f28c6516d230468585b4831bdd27312ad9a9173b27faf31",
		"one-sided/coarse-poll": "bc4cf4701c133403f5e87a2f3fe4bf45455071f0550bd29b019ccb5e670ddca5",
		"one-sided/steal-half":  "ca58fb34d86467ed58950b2a9337ab6c29658d70737ca5c09d7d2ffc0ea08cac",
		"one-sided/steal-one":   "df1ed45edfff29e14269c60280f4d0159b4a143f1fb9afb956b208b7ef1ebf6e",
		"serving":               "9d63e2578546475552468b2cb876e1e128b99a29b6418567b17dbd9efa3bf88c",
		"shards=2":              "984df24929e8fafcdf0cee58925722213038d9d069bf70b275d540bd00743d9e",
		"two-sided":             "806600c08504cde951d772d0995a9b2b8b651c8cb00805c06b57fe374915f50d",
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if got := variantDigest(t, cfg); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}
