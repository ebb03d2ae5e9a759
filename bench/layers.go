package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"distws/internal/comm"
	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/workstack"
)

// Per-layer metrics come from a separate traced pass. The engine has no
// spans of its own yet, so each layer's host time is measured by
// replaying, from here, the layer's public calls as many times as the
// run's Result says the engine made them, on the same placed job, tree,
// selector and latency model. Counts come from the Result and repeat
// exactly; times are steady-state estimates. What no replay owns — the
// engine's state machine, cache misses between layers, GC — is the
// residual, reported unclamped.

// perLayerUnits lists every per-layer metric with its unit, in print
// order. Every traced run reports all of them; a layer the workload
// does not use reads 0.
var perLayerUnits = [][2]string{
	{"sim.events", "count"}, {"sim.busy_s", "s"}, {"sim.ns_per_event", "ns"},
	{"comm.msgs", "count"}, {"comm.bytes", "bytes"}, {"comm.busy_s", "s"}, {"comm.ns_per_msg", "ns"},
	{"topology.lookups", "count"}, {"topology.ns_per_lookup", "ns"}, {"topology.newjob_s", "s"},
	{"uts.childgens", "count"}, {"uts.busy_s", "s"}, {"uts.ns_per_child", "ns"},
	{"workstack.ops", "count"}, {"workstack.steals", "count"}, {"workstack.busy_s", "s"},
	{"victim.draws", "count"}, {"victim.busy_s", "s"}, {"victim.ns_per_draw", "ns"}, {"victim.build_s", "s"}, {"victim.steal_success_ratio", "ratio"},
	{"term.rounds", "count"}, {"term.tokens", "count"},
	{"fault.compile_s", "s"}, {"fault.outcomes", "count"}, {"fault.busy_s", "s"}, {"fault.dropped", "count"}, {"fault.aborted_steals", "count"}, {"fault.lost_nodes", "count"},
	{"serve.compile_s", "s"}, {"serve.jobs_admitted", "count"}, {"serve.rejected_ratio", "ratio"}, {"serve.virt_goodput_jobs_per_s", "1/s"}, {"serve.virt_sojourn_p95_ms", "ms"}, {"serve.jain", "ratio"},
	{"par.windows", "count"}, {"par.serialized_ratio", "ratio"}, {"par.staged_msgs", "count"}, {"par.speedup_vs_seq", "ratio"}, {"par.digest_equal", "count"},
	{"obs.events_recorded", "count"}, {"obs.events_dropped", "count"}, {"obs.record_busy_s", "s"}, {"obs.analyze_s", "s"}, {"obs.export_s", "s"}, {"obs.export_mb", "MB"}, {"obs.overhead_ratio", "ratio"},
	{"core.run_span_s", "s"}, {"core.residual_s", "s"}, {"core.residual_share", "ratio"}, {"core.trace_overhead_ratio", "ratio"}, {"core.virt_efficiency", "ratio"}, {"core.virt_makespan_ms", "ms"},
}

// budgetTimes are the layer times that add up, with the residual, to the
// run span. topology is measured too but nests inside comm (every send
// does one latency lookup), so it is not added.
var budgetTimes = []string{"sim.busy_s", "comm.busy_s", "uts.busy_s", "workstack.busy_s", "victim.busy_s", "fault.busy_s", "obs.record_busy_s"}

// layerMetrics accumulates the per-layer numbers of one traced run.
type layerMetrics map[string]float64

// runsKey counts the core.Run calls added to a layerMetrics, so finish
// can average what does not add up across the cells of a sweep.
const runsKey = "runs"

// pair is one (thief, victim) draw of the run's selector.
type pair struct{ thief, victim int32 }

// maxPairs bounds the draws kept for the comm and topology replays;
// longer message streams cycle through them.
const maxPairs = 1 << 20

// replayLayers replays every layer for one (config, result) and adds
// the counts and busy times to m. Spans hang off parent.
func replayLayers(tr *tracer, parent int, cfg core.Config, res *core.Result, m layerMetrics) error {
	machine := cfg.Machine
	if machine == (topology.Machine{}) {
		machine = topology.KComputer()
	}
	nodeCost := cfg.NodeCost
	if nodeCost == 0 {
		nodeCost = core.DefaultNodeCost
	}
	latency := cfg.Latency
	if latency == nil {
		latency = topology.DefaultLatency()
	}

	// Set-up constructors, as core.Run calls them once per run.
	s := tr.begin("topology.NewJob", parent)
	job, err := topology.NewJob(machine, cfg.Ranks, cfg.Placement)
	m["topology.newjob_s"] += tr.end(s, 1)
	if err != nil {
		return err
	}
	s = tr.begin("victim.build", parent)
	sel := cfg.Selector(job, cfg.Seed)
	m["victim.build_s"] += tr.end(s, 1)

	// sim: one self-rescheduling quantum timer per rank, so the heap is
	// as deep as in the run; one event per node expanded.
	events := uint64(res.SequentialTime / nodeCost)
	s = tr.begin("sim.replay", parent)
	replaySim(cfg.Ranks, events, nodeCost)
	m["sim.busy_s"] += tr.end(s, events)
	m["sim.events"] += float64(events)

	// victim: one draw per steal request; the pairs feed comm below.
	draws := res.StealRequests
	pairs := make([]pair, min(draws, maxPairs))
	s = tr.begin("victim.replay", parent)
	for i := uint64(0); i < draws; i++ {
		thief := int(i % uint64(cfg.Ranks))
		pairs[i%maxPairs] = pair{int32(thief), int32(sel.Next(thief))}
	}
	m["victim.busy_s"] += tr.end(s, draws)
	m["victim.draws"] += float64(draws)
	if len(pairs) == 0 {
		pairs = []pair{{0, int32(cfg.Ranks - 1)}}
	}

	// comm: send → kernel delivery → poll → free, in the run's tag mix.
	msgs := res.Comm.TotalSent()
	s = tr.begin("comm.replay", parent)
	replayComm(job, latency, pairs, res.Comm, nil)
	plain := tr.end(s, msgs)
	m["comm.busy_s"] += plain
	m["comm.msgs"] += float64(msgs)
	for _, b := range res.Comm.Bytes {
		m["comm.bytes"] += float64(b)
	}

	// topology: the latency lookup each send makes, on its own.
	model := topology.SendModel(latency, job)
	s = tr.begin("topology.replay", parent)
	var sink sim.Duration
	for i := uint64(0); i < msgs; i++ {
		p := pairs[i%uint64(len(pairs))]
		sink += model.Latency(job, int(p.thief), int(p.victim), 16)
	}
	m["topology.busy_s"] += tr.end(s, msgs)
	m["topology.lookups"] += float64(msgs)
	runtime.KeepAlive(sink)

	// serve: the schedule compile core.Run does once; its jobs' trees
	// feed the uts replay.
	var sched *serve.Schedule
	if sv := res.Serve; sv != nil {
		s = tr.begin("serve.Compile", parent)
		sched, err = serve.Compile(cfg.Serve, cfg.Ranks, cfg.Seed, nodeCost)
		m["serve.compile_s"] += tr.end(s, sv.Arrived)
		if err != nil {
			return err
		}
		gold := sv.Tenants[0]
		m["serve.jobs_admitted"] += float64(sv.Admitted)
		m["serve.rejected_ratio"] = float64(sv.Rejected) / float64(sv.Arrived)
		m["serve.virt_goodput_jobs_per_s"] = gold.GoodputPerSec
		m["serve.virt_sojourn_p95_ms"] = float64(gold.SojournP95) / 1e6
		m["serve.jain"] = sv.Jain
	}

	// uts: a sequential traversal expands as many nodes as the run did
	// (the whole tree, unless faults destroyed part of it; every
	// admitted job's tree when serving).
	s = tr.begin("uts.replay", parent)
	if sched == nil {
		if _, _, err := uts.CountLimited(cfg.Tree, res.Nodes); err != nil {
			return err
		}
	} else {
		for i := range sched.Jobs {
			if j := &sched.Jobs[i]; j.Admitted {
				if _, err := uts.CountSequential(j.Tree); err != nil {
					return err
				}
			}
		}
	}
	m["uts.busy_s"] += tr.end(s, res.NodesGenerated)
	roots := uint64(1) // every node but a root is a child generation
	if res.Serve != nil {
		roots = res.Serve.Admitted
	}
	m["uts.childgens"] += float64(res.NodesGenerated - roots)

	// workstack: a push and a pop per node, a steal-half and an acquire
	// per successful steal.
	s = tr.begin("workstack.replay", parent)
	replayWorkstack(cfg.ChunkSize, cfg.Tree.Root(), res.NodesGenerated, res.SuccessfulSteals)
	m["workstack.busy_s"] += tr.end(s, 2*res.NodesGenerated+2*res.SuccessfulSteals)
	m["workstack.ops"] += float64(2*res.NodesGenerated + 2*res.SuccessfulSteals)
	m["workstack.steals"] += float64(res.SuccessfulSteals)

	m["term.rounds"] += float64(res.TerminationRounds)
	m["term.tokens"] += float64(res.Comm.SentByTag(comm.TagToken))

	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// fault: the comm replay again with the compiled injector on
		// every send; the layer's time is what that adds.
		s = tr.begin("fault.replay", parent)
		compileS := replayComm(job, latency, pairs, res.Comm, cfg.Faults)
		faulted := tr.end(s, msgs)
		m["fault.compile_s"] += compileS
		m["fault.busy_s"] += faulted - compileS - plain
		m["fault.outcomes"] += float64(msgs)
		m["fault.dropped"] += float64(res.Comm.TotalDropped())
		m["fault.aborted_steals"] += float64(res.AbortedSteals)
		m["fault.lost_nodes"] += float64(res.LostNodes)
	}

	if t := res.Trace; t != nil && cfg.CollectEvents {
		// obs: one Record per event the run logged, into per-rank rings.
		recorded, dropped := uint64(t.TotalEvents()), t.TotalEventsDropped()
		s = tr.begin("obs.replay", parent)
		rec := obs.NewRecorder(cfg.Ranks, cfg.EventBuffer)
		for i := uint64(0); i < recorded+dropped; i++ {
			rec.Record(int(i%uint64(cfg.Ranks)), sim.Time(i), trace.EvQuantumEnd, -1, int64(i))
		}
		m["obs.record_busy_s"] += tr.end(s, recorded+dropped)
		m["obs.events_recorded"] += float64(recorded)
		m["obs.events_dropped"] += float64(dropped)
	}

	m["core.virt_efficiency"] += res.Efficiency
	m["core.virt_makespan_ms"] += float64(res.Makespan) / 1e6
	m[runsKey]++
	return nil
}

// replaySim dispatches events kernel events from ranks self-rescheduling
// timers, the pattern of the engine's per-rank quantum timer.
func replaySim(ranks int, events uint64, nodeCost sim.Duration) {
	k := sim.NewKernel()
	args := make([]any, ranks)
	for i := range args {
		args[i] = i
	}
	remaining := events
	var fire func(any)
	fire = func(a any) {
		if remaining > 0 {
			remaining--
			k.AfterArg(nodeCost, fire, a)
		}
	}
	for r := 0; r < ranks && remaining > 0; r++ {
		remaining--
		k.AfterArg(nodeCost+sim.Duration(r), fire, args[r])
	}
	if err := k.Run(); err != nil {
		panic(err) // no limits are set on this kernel
	}
}

// replayComm sends st's messages, tag by tag, between the drawn pairs
// (requests thief → victim, replies and tokens victim → thief), up to
// one per rank in flight, and lets each delivery poll and free its
// mailbox. With a fault plan it compiles the plan against the replay's
// kernel, installs the injector on the send path and returns the
// compile time.
func replayComm(job *topology.Job, model topology.LatencyModel, pairs []pair, st comm.Stats, plan *fault.Plan) (compileS float64) {
	k := sim.NewKernel()
	net := comm.New(k, job, model)
	ranks := job.Ranks()
	if plan != nil {
		t0 := time.Now()
		inj, err := fault.Compile(plan, ranks, k)
		compileS = time.Since(t0).Seconds()
		if err != nil {
			panic(err) // the run itself compiled this plan
		}
		if inj.NeedsInterposer() {
			net.SetInterposer(inj)
		}
	}
	for r := 0; r < ranks; r++ {
		r := r
		net.SetNotify(r, func() {
			for _, m := range net.Poll(r) {
				net.Free(m)
			}
		})
	}
	var loot []uts.Node
	if n := st.Sent[comm.TagWork]; n > 0 {
		loot = make([]uts.Node, max(int(st.Bytes[comm.TagWork]/n)/uts.NodeBytes, 1))
	}
	var sent uint64
	for tag, n := range st.Sent {
		if n == 0 {
			continue
		}
		size := int(st.Bytes[tag] / n)
		for i := uint64(0); i < n; i++ {
			p := pairs[sent%uint64(len(pairs))]
			from, to := int(p.victim), int(p.thief)
			switch comm.Tag(tag) {
			case comm.TagStealRequest:
				net.SendID(to, from, comm.TagStealRequest, i, size)
			case comm.TagWork:
				net.SendNodes(from, to, i, loot, 1, size)
			case comm.TagToken:
				net.SendToken(from, to, term.Token{}, size)
			default:
				net.SendID(from, to, comm.Tag(tag), i, size)
			}
			if sent++; sent%uint64(ranks) == 0 {
				if err := k.Run(); err != nil {
					panic(err)
				}
			}
		}
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return compileS
}

// replayWorkstack pushes and pops nodes nodes in bursts that cross
// chunk boundaries, then moves loot back and forth between two stacks
// once per successful steal.
func replayWorkstack(chunk int, node uts.Node, nodes, steals uint64) {
	if chunk == 0 {
		chunk = workstack.DefaultChunkSize
	}
	s := workstack.New(chunk)
	burst := uint64(3 * chunk)
	for done := uint64(0); done < nodes; done += burst {
		for i := uint64(0); i < burst; i++ {
			s.Push(node)
		}
		for i := uint64(0); i < burst; i++ {
			s.Pop()
		}
	}
	a, b := workstack.New(chunk), workstack.New(chunk)
	for i := 0; i < 9*chunk; i++ {
		a.Push(node)
	}
	for i := uint64(0); i < steals; i++ {
		loot, _ := a.StealHalf()
		b.Acquire(loot)
		a, b = b, a
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish derives the per-unit and budget metrics once every replay has
// been added, given the traced run span and the untraced run time.
func (m layerMetrics) finish(runSpan, untracedRunS float64) {
	m["sim.ns_per_event"] = ratio(m["sim.busy_s"]*1e9, m["sim.events"])
	m["comm.ns_per_msg"] = ratio(m["comm.busy_s"]*1e9, m["comm.msgs"])
	m["topology.ns_per_lookup"] = ratio(m["topology.busy_s"]*1e9, m["topology.lookups"])
	m["uts.ns_per_child"] = ratio(m["uts.busy_s"]*1e9, m["uts.childgens"])
	m["victim.ns_per_draw"] = ratio(m["victim.busy_s"]*1e9, m["victim.draws"])
	m["victim.steal_success_ratio"] = ratio(m["workstack.steals"], m["victim.draws"])
	m["core.virt_efficiency"] = ratio(m["core.virt_efficiency"], m[runsKey])
	sum := 0.0
	for _, k := range budgetTimes {
		sum += m[k]
	}
	m["core.run_span_s"] = runSpan
	m["core.residual_s"] = runSpan - sum
	m["core.residual_share"] = ratio(runSpan-sum, runSpan)
	m["core.trace_overhead_ratio"] = ratio(runSpan, untracedRunS)
}

// printBudget writes the per-layer table and the budget line.
func (m layerMetrics) printBudget(w io.Writer, workload string) {
	fmt.Fprintf(w, "workload %s per-layer metrics (traced pass):\n", workload)
	for _, u := range perLayerUnits {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", u[0], m[u[0]], u[1])
	}
	span, sum := m["core.run_span_s"], 0.0
	fmt.Fprintf(w, "  budget:")
	for _, k := range budgetTimes {
		layer, _, _ := strings.Cut(k, ".")
		sum += m[k]
		fmt.Fprintf(w, " %s %.3fs (%.1f%%) +", layer, m[k], 100*ratio(m[k], span))
	}
	fmt.Fprintf(w, " residual %.3fs (%.1f%%) = run span %.3fs   [Σ layers %.3fs; topology %.3fs nests inside comm]\n",
		m["core.residual_s"], 100*m["core.residual_share"], span, sum, m["topology.busy_s"])
}
