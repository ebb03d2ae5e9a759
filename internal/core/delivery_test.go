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
				state, tag, to := e.ranks[m.To].state, m.Tag, m.To
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
// event log as JSONL, and the metrics exposition followed by the
// per-link message counts (as goldenDump renders them). The exposition
// carries the retired fault and serving families too (retiredFamilies),
// rebuilt from the Result and the twin's log, so the digests hold from
// before the engine stopped publishing them.
func variantDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.CollectEvents = true
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin := recordAll(t, cfg).Trace
	retiredFamilies(t, cfg.Metrics, cfg, res, twin)
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
	if err := cfg.Metrics.WritePrometheus(h); err != nil {
		t.Fatal(err)
	}
	writeLinkMessages(h, obs.Traffic(twin))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestVariantDigests is the refactor oracle for the engine paths no
// golden file covers. The digests were recorded at commit 27b6be4,
// before the engine's constructors and delivery paths were merged, and
// no change that claims to keep behaviour may move one.
func TestVariantDigests(t *testing.T) {
	cases := deliveryCases()
	oneSidedFaults := cases["crash+dup"]
	oneSidedFaults.Protocol = OneSided
	cases["one-sided+crash+dup"] = oneSidedFaults
	oneSidedServing := serveTestConfig()
	oneSidedServing.Protocol = OneSided
	cases["one-sided+serving"] = oneSidedServing
	want := map[string]string{
		"aborting":              "093708174e404a16aa958891385018b12d7f7c8ff01b374ddc82deaa0e556e80",
		"crash+dup":             "d1d8c47ada3d9889e274a0ec627aa2f92762e3bd4c662c7de989d975ef916995",
		"one-sided+aborting":    "e971af9deab68080bb488af581f549b510d80ee447910187ed5293fcc700fc2b",
		"one-sided+serving":     "8f6b6b08c49321b44012c74264dba5aa63a5f08075a01aefaf88cce8e1f20edd",
		"one-sided+crash+dup":   "780670ffad0dfbdbea3810c6956e80179456379390c78e674f738bdff674c645",
		"one-sided/coarse-poll": "7683e947b98c0cca76591d1e580da8ba0a5fb2034b31d97ed4a1bf869bb76c85",
		"one-sided/steal-half":  "7b8c21ece3ee1adf3078a9783e102116475e5302601933efc8e0b2e032c7fe8e",
		"one-sided/steal-one":   "cb1139181df3c69e14e9c2a7613457d8b820c732f1262b0ae1c23dac3c4fc6df",
		"serving":               "665a52e0f11c9b1a4a12172048c9d7ca042b6967268b5ddc1d839a8343e3a7de",
		"shards=2":              "b1a1175a7dd8ee25a6c5fd7393787cbd13dbac4fbb74737ce6a2c6319197e7ec",
		"two-sided":             "fed04eb6ed2f51dd654936d7677465776c7cc08c2eadfb6952e6d14badffd138",
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if got := variantDigest(t, cfg); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}
