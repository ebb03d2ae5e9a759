// Package dagws is a distributed work-stealing scheduler for task
// graphs with data dependencies — the study the paper's §VII proposes:
// "in the case of data dependencies, stealing a task can trigger
// massive communications and thus is more sensible to bandwidth".
//
// It runs over the same simulated machine as the UTS engine
// (internal/core) and reuses its victim-selection strategies, but
// schedules dag.Graph tasks instead of tree nodes:
//
//   - a task becomes ready when its last predecessor completes, and is
//     enqueued at the rank that executed that predecessor;
//   - before executing a task, a rank fetches every other
//     predecessor's output from the rank that produced it, paying
//     round-trip latency plus bytes/bandwidth (fetches overlap, so the
//     delay is their maximum);
//   - idle ranks steal ready tasks using a pluggable victim selector;
//     stolen tasks usually fetch their inputs from far away, which is
//     exactly the locality cost the paper anticipates.
//
// Simplifications, by design: dependence counters are shared scheduler
// state (zero-latency bookkeeping messages), and termination uses the
// known task count rather than a distributed detector. Both are
// orthogonal to the locality-vs-stealing question this extension
// studies.
package dagws

import (
	"errors"
	"fmt"

	"distws/internal/comm"
	"distws/internal/dag"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/victim"
)

// Config describes one scheduled execution.
type Config struct {
	Graph *dag.Graph
	// Machine defaults to the K Computer.
	Machine topology.Machine
	// Ranks is the number of scheduler ranks (required).
	Ranks int
	// Placement maps ranks to nodes.
	Placement topology.Placement
	// Selector builds the victim selector; nil means uniform random.
	Selector victim.Factory
	// StealHalf takes half the victim's ready deque instead of one task.
	StealHalf bool
	// Latency is the network model; nil means topology.DefaultLatency.
	Latency topology.LatencyModel
	// Seed drives the random choices.
	Seed uint64
	// MaxVirtualTime bounds the run; 0 means one virtual day.
	MaxVirtualTime sim.Time
}

// Result summarizes a scheduled execution.
type Result struct {
	Tasks        int
	Ranks        int
	Makespan     sim.Duration
	TotalCost    sim.Duration
	CriticalPath sim.Duration
	Speedup      float64
	Efficiency   float64

	Steals, FailedSteals uint64
	// TasksStolen counts tasks that executed on a different rank than
	// the one they became ready on.
	TasksStolen uint64
	// BytesFetched is the total predecessor data moved between ranks.
	BytesFetched int64
	// FetchTime is the accumulated time ranks spent stalled on fetches.
	FetchTime sim.Duration
}

type rankState uint8

const (
	rsIdle rankState = iota
	rsWorking
	rsSearching
	rsDone
)

type schedRank struct {
	state rankState
	// ready is the local deque of ready task IDs: new tasks append to
	// the back (hot end); the owner pops from the back, thieves take
	// from the front.
	ready []int32

	executed      uint64
	steals, fails uint64
	fetchTime     sim.Duration
}

type scheduler struct {
	cfg    Config
	kernel *sim.Kernel
	job    *topology.Job
	net    *comm.Network
	sel    victim.Selector
	ranks  []schedRank

	// remaining[t] is the number of incomplete predecessors of task t;
	// executor[t] the rank that ran it.
	remaining []int32
	executor  []int32

	completed   int
	finishedAt  sim.Time
	bytesMoved  int64
	tasksStolen uint64
}

type stealRequestMsg struct{}

type taskBatch struct {
	Tasks []int32
	// StolenFrom preserves where the batch came from, for statistics.
	StolenFrom int
}

// Run schedules the graph to completion and returns statistics.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Graph.Len() == 0 {
		return nil, errors.New("dagws: empty graph")
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("dagws: %d ranks", cfg.Ranks)
	}
	if cfg.Machine == (topology.Machine{}) {
		cfg.Machine = topology.KComputer()
	}
	if cfg.Selector == nil {
		cfg.Selector = victim.NewUniformRandom
	}
	if cfg.Latency == nil {
		cfg.Latency = topology.DefaultLatency()
	}
	if cfg.MaxVirtualTime == 0 {
		cfg.MaxVirtualTime = sim.Time(24 * 3600 * 1e9)
	}
	job, err := topology.NewJob(cfg.Machine, cfg.Ranks, cfg.Placement)
	if err != nil {
		return nil, err
	}

	g := cfg.Graph
	s := &scheduler{
		cfg:       cfg,
		kernel:    sim.NewKernel(),
		job:       job,
		ranks:     make([]schedRank, cfg.Ranks),
		remaining: make([]int32, g.Len()),
		executor:  make([]int32, g.Len()),
	}
	defer s.kernel.Release()
	s.kernel.SetTimeLimit(cfg.MaxVirtualTime)
	s.net = comm.New(s.kernel, job, cfg.Latency)
	s.sel = cfg.Selector(job, cfg.Seed)
	for t := range s.executor {
		s.executor[t] = -1
		s.remaining[t] = int32(len(g.Tasks[t].Preds))
	}
	for r := range s.ranks {
		r := r
		s.net.SetNotify(r, func() { s.onDelivery(r) })
	}

	// Roots are statically partitioned round-robin, as a runtime's
	// initial task placement would.
	for i, root := range g.Roots {
		s.ranks[i%cfg.Ranks].ready = append(s.ranks[i%cfg.Ranks].ready, root)
	}
	for r := 0; r < cfg.Ranks; r++ {
		if len(s.ranks[r].ready) > 0 {
			s.startNext(r)
		} else {
			s.search(r)
		}
	}

	if err := s.kernel.Run(); err != nil {
		return nil, fmt.Errorf("dagws: simulation aborted at %v: %w", s.kernel.Now(), err)
	}
	if s.completed != g.Len() {
		return nil, fmt.Errorf("dagws: completed %d of %d tasks", s.completed, g.Len())
	}

	res := &Result{
		Tasks:        g.Len(),
		Ranks:        cfg.Ranks,
		Makespan:     sim.Duration(s.finishedAt),
		TotalCost:    g.TotalCost,
		CriticalPath: g.CriticalPath(),
		BytesFetched: s.bytesMoved,
		TasksStolen:  s.tasksStolen,
	}
	for r := range s.ranks {
		res.Steals += s.ranks[r].steals
		res.FailedSteals += s.ranks[r].fails
		res.FetchTime += s.ranks[r].fetchTime
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.TotalCost) / float64(res.Makespan)
		res.Efficiency = res.Speedup / float64(cfg.Ranks)
	}
	return res, nil
}

// startNext pops the hottest ready task and executes it: fetch inputs,
// then compute, then complete.
func (s *scheduler) startNext(r int) {
	rk := &s.ranks[r]
	t := rk.ready[len(rk.ready)-1]
	rk.ready = rk.ready[:len(rk.ready)-1]
	rk.state = rsWorking

	task := &s.cfg.Graph.Tasks[t]
	// Overlapped fetches: delay is the slowest predecessor transfer.
	var fetch sim.Duration
	for i, pred := range task.Preds {
		e := s.executor[pred]
		if e < 0 {
			panic(fmt.Sprintf("dagws: task %d ready before pred %d completed", t, pred))
		}
		if int(e) == r {
			continue
		}
		bytes := task.PredData[i]
		d := s.cfg.Latency.Latency(s.job, r, int(e), 0) + // request
			s.cfg.Latency.Latency(s.job, int(e), r, bytes) // data
		if d > fetch {
			fetch = d
		}
		s.bytesMoved += int64(bytes)
	}
	rk.fetchTime += fetch
	s.kernel.After(fetch+task.Cost, func() { s.complete(r, t) })
}

// complete finishes task t on rank r: activate successors, poll steal
// traffic, continue with local work or start searching.
func (s *scheduler) complete(r int, t int32) {
	rk := &s.ranks[r]
	rk.executed++
	s.executor[t] = int32(r)
	s.completed++
	if s.completed == s.cfg.Graph.Len() {
		s.finishedAt = s.kernel.Now()
		s.finish()
		return
	}
	for _, succ := range s.cfg.Graph.Tasks[t].Succs {
		s.remaining[succ]--
		if s.remaining[succ] == 0 {
			// Ready at the rank completing the last dependence.
			rk.ready = append(rk.ready, succ)
		}
	}
	s.drain(r)
	if rk.state == rsDone {
		return
	}
	if len(rk.ready) > 0 {
		s.startNext(r)
		return
	}
	s.search(r)
}

// search sends a steal request to the next victim.
func (s *scheduler) search(r int) {
	rk := &s.ranks[r]
	if rk.state == rsDone {
		return
	}
	if s.cfg.Ranks == 1 {
		rk.state = rsIdle
		return
	}
	rk.state = rsSearching
	v := s.sel.Next(r)
	s.net.Send(r, v, comm.TagStealRequest, stealRequestMsg{}, 16)
}

// onDelivery handles traffic for idle ranks immediately; working ranks
// answer at task completion (drain).
func (s *scheduler) onDelivery(r int) {
	if s.ranks[r].state == rsWorking {
		return
	}
	s.drain(r)
	rk := &s.ranks[r]
	if rk.state == rsDone {
		return
	}
	if rk.state != rsWorking && len(rk.ready) > 0 {
		s.startNext(r)
	}
}

// drain processes all delivered messages for rank r. Every polled
// message is freed once handled — the ready tasks are copied out by
// append, so nothing the message carries is retained.
func (s *scheduler) drain(r int) {
	rk := &s.ranks[r]
	for _, m := range s.net.Poll(r) {
		switch m.Tag {
		case comm.TagStealRequest:
			s.answerSteal(r, m.From)
		case comm.TagWork:
			if rk.state != rsDone {
				batch := m.Payload.(taskBatch)
				rk.steals++
				s.tasksStolen += uint64(len(batch.Tasks))
				s.sel.Observe(r, m.From, true)
				rk.ready = append(rk.ready, batch.Tasks...)
				if rk.state == rsSearching {
					rk.state = rsIdle
				}
			}
		case comm.TagNoWork:
			if rk.state != rsDone {
				rk.fails++
				s.sel.Observe(r, m.From, false)
				if rk.state == rsSearching {
					rk.state = rsIdle
					s.search(r)
				}
			}
		case comm.TagTerminate:
			rk.state = rsDone
		}
		s.net.Free(m)
	}
}

// answerSteal serves thief from rank v's ready deque front.
func (s *scheduler) answerSteal(v, thief int) {
	rk := &s.ranks[v]
	n := len(rk.ready)
	if rk.state == rsDone || n == 0 || (rk.state != rsWorking && n <= 1) {
		s.net.Send(v, thief, comm.TagNoWork, stealRequestMsg{}, 16)
		return
	}
	take := 1
	if s.cfg.StealHalf {
		take = n / 2
		if take < 1 {
			take = 1
		}
	}
	if take >= n && rk.state != rsWorking {
		take = n - 1 // keep one task for the owner about to resume
	}
	batch := taskBatch{Tasks: append([]int32(nil), rk.ready[:take]...), StolenFrom: v}
	rk.ready = append(rk.ready[:0], rk.ready[take:]...)
	// Task descriptors are small; the heavy data moves at fetch time.
	s.net.Send(v, thief, comm.TagWork, batch, 16+len(batch.Tasks)*8)
}

// finish broadcasts completion so idle ranks stop generating traffic.
func (s *scheduler) finish() {
	for r := range s.ranks {
		if s.ranks[r].state != rsDone {
			s.ranks[r].state = rsDone
		}
	}
	s.kernel.Stop()
}
