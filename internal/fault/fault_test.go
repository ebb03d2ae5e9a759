package fault

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"distws/internal/comm"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
)

func testPlan() *Plan {
	return &Plan{
		Seed:       42,
		Crashes:    []Crash{{Rank: 3, At: 1e6}, {Rank: 1, At: 5e5}},
		Stragglers: []Straggler{{Rank: 2, Compute: 4, Send: 2}},
		Links: []LinkFault{
			{From: Wildcard, To: 0, Drop: 0.5},
			{From: 1, To: 2, Dup: 1, SpikeStart: 100, SpikeEnd: 200, SpikeFactor: 10},
		},
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := testPlan()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("round trip changed the plan:\n%s\n%s", data, again)
	}
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	_, err := ParsePlan([]byte(`{"seed":1,"crashs":[{"rank":0,"at":5}]}`))
	if err == nil || !strings.Contains(err.Error(), "crashs") {
		t.Fatalf("typo'd field accepted: %v", err)
	}
}

// TestParsePlanRejectsTrailingData: a second plan (or junk) after the
// first is an error, not an empty plan that silently injects nothing.
func TestParsePlanRejectsTrailingData(t *testing.T) {
	for _, data := range []string{
		`{"seed":1} {"crashes":[{"rank":1,"at":5}]}`,
		`{"seed":1}}`,
		`{"seed":1} x`,
	} {
		if p, err := ParsePlan([]byte(data)); err == nil {
			t.Errorf("%s parsed as %+v", data, p)
		}
	}
	if _, err := ParsePlan([]byte(" {\"seed\":1}\n\t ")); err != nil {
		t.Errorf("whitespace around a plan: %v", err)
	}
}

// TestScaleSaturates: a multiplier that overflows int64 yields the
// largest duration, not a wrapped one clamped to 1 ns.
func TestScaleSaturates(t *testing.T) {
	if d := scale(sim.Microsecond, 1e300); d != math.MaxInt64 {
		t.Fatalf("scale(1µs, 1e300) = %d", d)
	}
	if d := scale(0, 3); d != 1 {
		t.Fatalf("scale(0, 3) = %d, want 1", d)
	}
}

// FuzzParsePlan: every plan ParsePlan and Validate accept compiles, and
// each of its multipliers scales a duration to at least 1 ns, and to no
// less than the duration itself when the multiplier is at least one.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{"seed":1,"crashes":[{"rank":1,"at":5}],"stragglers":[{"rank":2,"compute":3,"send":2}]}`), int64(1000))
	f.Add([]byte(`{"stragglers":[{"rank":0,"compute":1e300}]}`), int64(sim.Microsecond))
	f.Add([]byte(`{"links":[{"from":-1,"to":-1,"drop":0.1,"spike_end":9,"spike_factor":10000}]}`), int64(1<<62))
	f.Add([]byte(`{"seed":1} {"crashes":[{"rank":1,"at":5}]}`), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, d int64) {
		p, err := ParsePlan(data)
		if err != nil || p.Validate(8) != nil {
			return
		}
		if _, err := Compile(p, 8, nil); err != nil {
			t.Fatalf("accepted plan %s does not compile: %v", data, err)
		}
		if d < 0 {
			d = -(d + 1)
		}
		muls := []float64{}
		for _, s := range p.Stragglers {
			muls = append(muls, s.Compute, s.Send)
		}
		for _, l := range p.Links {
			muls = append(muls, l.SpikeFactor)
		}
		for _, m := range muls {
			if m == 0 {
				continue // "leave unchanged"
			}
			got := scale(sim.Duration(d), m)
			if got < 1 || (m >= 1 && got < sim.Duration(d)) {
				t.Fatalf("scale(%d, %v) = %d", d, m, got)
			}
		}
	})
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error; "" = valid
	}{
		{"valid", *testPlan(), ""},
		{"crash rank out of range", Plan{Crashes: []Crash{{Rank: 8, At: 1}}}, "out of range"},
		{"crash at time zero", Plan{Crashes: []Crash{{Rank: 0, At: 0}}}, "non-positive"},
		{"double crash", Plan{Crashes: []Crash{{Rank: 0, At: 1}, {Rank: 0, At: 2}}}, "twice"},
		{"no survivors", Plan{Crashes: []Crash{
			{Rank: 0, At: 1}, {Rank: 1, At: 1}, {Rank: 2, At: 1}, {Rank: 3, At: 1},
			{Rank: 4, At: 1}, {Rank: 5, At: 1}, {Rank: 6, At: 1}, {Rank: 7, At: 1},
		}}, "survive"},
		{"straggler out of range", Plan{Stragglers: []Straggler{{Rank: -2}}}, "out of range"},
		{"negative multiplier", Plan{Stragglers: []Straggler{{Rank: 0, Compute: -1}}}, "outside [0, 10000]"},
		{"huge compute multiplier", Plan{Stragglers: []Straggler{{Rank: 0, Compute: 1e300}}}, "outside [0, 10000]"},
		{"huge send multiplier", Plan{Stragglers: []Straggler{{Rank: 0, Send: MaxMultiplier + 1}}}, "outside [0, 10000]"},
		{"NaN multiplier", Plan{Stragglers: []Straggler{{Rank: 0, Compute: math.NaN()}}}, "outside [0, 10000]"},
		{"largest multiplier", Plan{Stragglers: []Straggler{{Rank: 0, Compute: MaxMultiplier, Send: MaxMultiplier}}}, ""},
		{"link endpoint out of range", Plan{Links: []LinkFault{{From: 9, To: 0}}}, "out of range"},
		{"drop above one", Plan{Links: []LinkFault{{From: 0, To: 1, Drop: 1.5}}}, "[0,1]"},
		{"spike factor below one", Plan{Links: []LinkFault{{From: 0, To: 1, SpikeFactor: 0.5}}}, "spike factor"},
		{"infinite spike factor", Plan{Links: []LinkFault{{From: 0, To: 1, SpikeFactor: math.Inf(1), SpikeEnd: 1}}}, "outside [1, 10000]"},
		{"empty spike window", Plan{Links: []LinkFault{{From: 0, To: 1, SpikeFactor: 2}}}, "empty"},
	}
	for _, c := range cases {
		err := c.plan.Validate(8)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestCompileNilAndEmpty(t *testing.T) {
	k := sim.NewKernel()
	for _, p := range []*Plan{nil, {}, {Seed: 7}} {
		inj, err := Compile(p, 4, k)
		if err != nil || inj != nil {
			t.Fatalf("Compile(%+v) = %v, %v; want nil, nil", p, inj, err)
		}
	}
	// The nil injector answers every query with the identity.
	var inj *Injector
	if inj.NeedsInterposer() {
		t.Fatal("nil injector wants an interposer")
	}
	if d := inj.ScaleCompute(0, 100); d != 100 {
		t.Fatalf("nil injector scaled compute to %d", d)
	}
}

func TestSortedCrashes(t *testing.T) {
	p := testPlan()
	cs := p.SortedCrashes()
	if len(cs) != 2 || cs[0].Rank != 1 || cs[1].Rank != 3 {
		t.Fatalf("crashes not time-ordered: %+v", cs)
	}
	if p.Crashes[0].Rank != 3 {
		t.Fatal("SortedCrashes mutated the plan")
	}
}

func TestNeedsInterposer(t *testing.T) {
	k := sim.NewKernel()
	crashOnly := &Plan{Crashes: []Crash{{Rank: 1, At: 10}}}
	inj, err := Compile(crashOnly, 4, k)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil || inj.NeedsInterposer() {
		t.Fatal("crash-only plan must compile but stay off the send path")
	}
	computeOnly := &Plan{Stragglers: []Straggler{{Rank: 0, Compute: 3}}}
	inj, err = Compile(computeOnly, 4, k)
	if err != nil {
		t.Fatal(err)
	}
	if inj.NeedsInterposer() {
		t.Fatal("compute-only straggler does not touch sends")
	}
	for _, p := range []*Plan{
		{Stragglers: []Straggler{{Rank: 0, Send: 3}}},
		{Links: []LinkFault{{From: 0, To: 1, Drop: 0.1}}},
	} {
		inj, err = Compile(p, 4, k)
		if err != nil {
			t.Fatal(err)
		}
		if !inj.NeedsInterposer() {
			t.Fatalf("plan %+v must interpose", p)
		}
	}
}

func TestStragglerMultipliers(t *testing.T) {
	k := sim.NewKernel()
	inj, err := Compile(&Plan{Stragglers: []Straggler{{Rank: 2, Compute: 4, Send: 2}}}, 4, k)
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.ScaleCompute(2, 100); d != 400 {
		t.Fatalf("compute multiplier: %d, want 400", d)
	}
	if d := inj.ScaleCompute(0, 100); d != 100 {
		t.Fatalf("non-straggler scaled: %d", d)
	}
	copies, delay := inj.Outcome(comm.Pack(comm.TagStealRequest, 2, 0, 0), nil, 100)
	if copies != 1 || delay != 200 {
		t.Fatalf("send multiplier: copies=%d delay=%d, want 1, 200", copies, delay)
	}
}

func TestSpikeWindow(t *testing.T) {
	k := sim.NewKernel()
	plan := &Plan{Links: []LinkFault{{From: 0, To: 1, SpikeStart: 100, SpikeEnd: 200, SpikeFactor: 10}}}
	inj, err := Compile(plan, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	h := comm.Pack(comm.TagWork, 0, 1, 0)
	if _, d := inj.Outcome(h, nil, 7); d != 7 {
		t.Fatalf("spike applied outside its window at t=0: %d", d)
	}
	// Advance the clock into the window.
	k.After(150, func() {
		if _, d := inj.Outcome(h, nil, 7); d != 70 {
			t.Errorf("spike not applied at t=150: %d", d)
		}
	})
	k.After(250, func() {
		if _, d := inj.Outcome(h, nil, 7); d != 7 {
			t.Errorf("spike still applied at t=250: %d", d)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolExemptions(t *testing.T) {
	k := sim.NewKernel()
	plan := &Plan{Links: []LinkFault{{From: Wildcard, To: Wildcard, Drop: 1, Dup: 1}}}
	inj, err := Compile(plan, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []comm.Tag{comm.TagToken, comm.TagTerminate} {
		if copies, _ := inj.Outcome(comm.Pack(tag, 0, 1, 0), nil, 10); copies != 1 {
			t.Fatalf("%v affected by link faults (copies=%d)", tag, copies)
		}
	}
	// Drop=1 kills every eligible message.
	if copies, _ := inj.Outcome(comm.Pack(comm.TagStealRequest, 0, 1, 0), nil, 10); copies != 0 {
		t.Fatal("drop=1 delivered a steal request")
	}
	// Work is droppable but never duplicated.
	dupOnly := &Plan{Links: []LinkFault{{From: Wildcard, To: Wildcard, Dup: 1}}}
	inj, err = Compile(dupOnly, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	if copies, _ := inj.Outcome(comm.Pack(comm.TagWork, 0, 1, 0), &comm.Message{}, 10); copies != 1 {
		t.Fatal("TagWork was duplicated")
	}
	if copies, _ := inj.Outcome(comm.Pack(comm.TagNoWork, 0, 1, 0), nil, 10); copies != 2 {
		t.Fatal("TagNoWork not duplicated at dup=1")
	}
}

// TestObserversSeeTheHeader: on a live network, OnDrop gets the header
// of the message the injector dropped — tag, ranks and id as sent — and
// its body only when it has one; a duplicate is counted by the network.
func TestObserversSeeTheHeader(t *testing.T) {
	k := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 4, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	n := comm.New(k, job, topology.DefaultLatency())
	inj, err := Compile(&Plan{Links: []LinkFault{{From: 2, To: 3, Drop: 1}, {From: 1, To: 0, Dup: 1}}}, 4, k)
	if err != nil {
		t.Fatal(err)
	}
	var dropped []comm.Header
	var loot []int // the dropped bodies' node counts, -1 for none
	inj.OnDrop = func(h comm.Header, body *comm.Message) {
		dropped = append(dropped, h)
		if body == nil {
			loot = append(loot, -1)
		} else {
			loot = append(loot, len(body.Nodes))
		}
	}
	n.SetInterposer(inj)
	n.SendID(2, 3, comm.TagNoWork, 11, 8)
	n.SendNodes(2, 3, 12, make([]uts.Node, 3), 1, 84)
	n.SendID(1, 0, comm.TagStealRequest, 13, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []comm.Header{comm.Pack(comm.TagNoWork, 2, 3, 11), comm.Pack(comm.TagWork, 2, 3, 12)}; !reflect.DeepEqual(dropped, want) {
		t.Errorf("OnDrop saw %v, want %v", dropped, want)
	}
	if !reflect.DeepEqual(loot, []int{-1, 3}) {
		t.Errorf("OnDrop saw bodies of %v nodes, want none and 3", loot)
	}
	if st := n.Stats(); st.Duplicated != [len(st.Duplicated)]uint64{comm.TagStealRequest: 1} {
		t.Errorf("network duplicated %v, want the one steal request", st.Duplicated)
	}
}

// outcomes feeds n identical messages and returns the drop/dup decision
// sequence — the injector's observable random behavior.
func outcomes(inj *Injector, n int) []int {
	seq := make([]int, n)
	h := comm.Pack(comm.TagStealRequest, 0, 1, 0)
	for k := range seq {
		seq[k], _ = inj.Outcome(h, nil, 10)
	}
	return seq
}

func TestDropDrawsAreSeedDeterministic(t *testing.T) {
	k := sim.NewKernel()
	plan := &Plan{Seed: 9, Links: []LinkFault{{From: Wildcard, To: Wildcard, Drop: 0.3, Dup: 0.3}}}
	a, err := Compile(plan, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Compile(plan, 2, k)
	sa, sb := outcomes(a, 200), outcomes(b, 200)
	for idx := range sa {
		if sa[idx] != sb[idx] {
			t.Fatalf("same plan diverged at draw %d: %d vs %d", idx, sa[idx], sb[idx])
		}
	}
	drops := 0
	for _, c := range sa {
		if c == 0 {
			drops++
		}
	}
	if drops == 0 || drops == 200 {
		t.Fatalf("drop=0.3 produced %d/200 drops", drops)
	}
	other := *plan
	other.Seed = 10
	c, _ := Compile(&other, 2, k)
	if sc := outcomes(c, 200); equalInts(sc, sa) {
		t.Fatal("different seeds produced identical outcome sequences")
	}
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNilPlanAllocFree is the fast-path gate: a nil (or empty) plan
// compiles to no injector at all, so the engine never installs an
// interposer and the send/poll cycle keeps the pooled zero-allocation
// guarantee untouched — fault support must cost nothing when unused.
func TestNilPlanAllocFree(t *testing.T) {
	k := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 4, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*Plan{nil, {Seed: 9}} {
		inj, err := Compile(plan, 4, k)
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			t.Fatalf("plan %+v compiled to a live injector", plan)
		}
	}
	n := comm.New(k, job, topology.DefaultLatency())
	i := 0
	body := func() {
		for j := 0; j < 16; j++ {
			n.SendID(i&3, (i+1)&3, comm.TagStealRequest, uint64(i), 8)
			i++
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 4; r++ {
				for _, m := range n.Poll(r) {
					n.Free(m)
				}
			}
		}
	}
	body() // reach steady-state pool capacity before measuring
	if avg := testing.AllocsPerRun(50, body); avg != 0 {
		t.Fatalf("nil-plan send/poll cycle allocates %.1f times per run", avg)
	}
}

// TestInjectorSendAllocFree is the hot-path gate for faulted runs: with
// an injector interposed on the network, the steady-state send/poll
// cycle must still allocate nothing — rule matching, spike checks and
// the rng draws are all in-place. (The nil-interposer path is gated by
// TestCommSendAllocFree in internal/comm.)
func TestInjectorSendAllocFree(t *testing.T) {
	k := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 4, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	n := comm.New(k, job, topology.DefaultLatency())
	plan := &Plan{
		Seed:       3,
		Stragglers: []Straggler{{Rank: 1, Send: 2}},
		Links: []LinkFault{
			{From: 2, To: 3, Drop: 0.5, Dup: 0.5},
			{From: Wildcard, To: 2, SpikeStart: 0, SpikeEnd: 1 << 40, SpikeFactor: 2},
		},
	}
	inj, err := Compile(plan, 4, k)
	if err != nil {
		t.Fatal(err)
	}
	n.SetInterposer(inj)
	body := func() {
		n.SendID(0, 1, comm.TagStealRequest, 1, 8) // no matching rule
		n.SendID(2, 3, comm.TagNoWork, 1, 8)       // drop/dup draws
		n.SendID(1, 2, comm.TagWork, 1, 8)         // straggler + spike
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{1, 2, 3} {
			for _, m := range n.Poll(r) {
				n.Free(m)
			}
		}
	}
	body() // warm the pools and mailboxes
	body()
	if avg := testing.AllocsPerRun(50, body); avg != 0 {
		t.Fatalf("faulted send/poll cycle allocates %.1f times per run", avg)
	}
}
