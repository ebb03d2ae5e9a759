package core

import (
	"testing"

	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
)

// stealSendGaps runs two ranks that hold no work and never terminate,
// so every steal request is refused, and returns the gaps between rank
// 1's consecutive EvStealSend events over the first horizon of virtual
// time.
func stealSendGaps(t *testing.T, immediate bool, horizon sim.Duration) []sim.Duration {
	t.Helper()
	cfg := Config{
		Tree:           uts.MustPreset("H-TINY").Params,
		Ranks:          2,
		Seed:           1,
		Detector:       func(int) term.Detector { return openDetector{} },
		CollectEvents:  true,
		EventBuffer:    1 << 16,
		ImmediateRetry: immediate,
	}.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	job, err := topology.NewJob(topology.KComputer(), cfg.Ranks, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, treeWork{}, new(runStore))
	if err != nil {
		t.Fatal(err)
	}
	// newEngines gave rank 0 the root and a first quantum; take both away
	// so that it joins the search with nothing to give.
	e, w := engines[0], engines[0].ranks[0].w
	k.Cancel(w.quantum)
	w.quantum = sim.Event{}
	w.stack.Drop(nil)
	w.expNext, w.expTotal = 0, 0
	e.goIdle(0)
	if err := k.RunUntil(sim.Time(0).Add(horizon)); err != nil {
		t.Fatal(err)
	}
	tr := e.rec.Finish(k.Now())
	if tr.EventsDropped[1] != 0 {
		t.Fatalf("rank 1's event ring dropped %d events", tr.EventsDropped[1])
	}
	var sends []sim.Time
	for _, ev := range tr.Events[1] {
		if ev.Kind == trace.EvStealSend {
			sends = append(sends, ev.Time)
		}
	}
	gaps := make([]sim.Duration, 0, len(sends))
	for i := 1; i < len(sends); i++ {
		gaps = append(gaps, sends[i].Sub(sends[i-1]))
	}
	return gaps
}

// TestRetryBackoffLadder pins the retry policy: by default a thief
// retries at once until backoffThreshold consecutive refusals, then
// pauses backoffBase, doubling up to backoffMax; with ImmediateRetry it
// never pauses.
func TestRetryBackoffLadder(t *testing.T) {
	gaps := stealSendGaps(t, false, 15*sim.Millisecond)
	rtt := gaps[0]
	want := []sim.Duration{100, 200, 400, 800, 1600, 2000, 2000, 2000}
	if len(gaps) < 63+len(want) {
		t.Fatalf("%d steal requests in 15ms, want at least %d", len(gaps)+1, 64+len(want))
	}
	for i, g := range gaps[:63] {
		if g != rtt {
			t.Fatalf("gap %d after %d refusals is %v, want the round trip %v", i, i+1, g, rtt)
		}
	}
	for j, us := range want {
		if g, pause := gaps[63+j], us*sim.Microsecond; g != rtt+pause {
			t.Fatalf("gap after %d refusals is %v, want round trip %v + pause %v", 64+j, g, rtt, pause)
		}
	}

	gaps = stealSendGaps(t, true, 2*sim.Millisecond)
	if len(gaps) < 2*backoffThreshold {
		t.Fatalf("%d steal requests in 2ms, want at least %d", len(gaps)+1, 2*backoffThreshold)
	}
	for i, g := range gaps {
		if g != gaps[0] {
			t.Fatalf("with ImmediateRetry, gap %d is %v, want the round trip %v", i, g, gaps[0])
		}
	}
}
