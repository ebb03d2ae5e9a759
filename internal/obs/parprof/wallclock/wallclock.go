// Package wallclock is the wall-clock half of the parallel-kernel
// profile: a par.WallProbe that measures, per shard, how much host
// time the workers spend executing windows (busy) versus waiting at
// barriers (the window's wall span minus the shard's busy slice).
//
// This is the one package of the profiling stack allowed to read the
// host clock — it is named in cmd/distwsvet's walltime allowlist
// (wallClockOK), and a fixture test proves the entry is load-bearing.
// Everything it observes flows only into the diagnostic report: no
// wall reading can reach the simulation, so a wall-profiled run stays
// bit-identical to an unprofiled one. The per-shard slots are written
// only by their owning worker goroutine between the barrier's
// window-start receive and window-done send, the same channel-ordered
// ownership discipline the shard kernels themselves rely on, so the
// probe needs no locks (the par -race stress tests cover it).
package wallclock

import (
	"io"
	"time"

	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/sim/par"
)

// shardSlot is one shard's accumulator, padded to a cache line so the
// workers' concurrent writes do not false-share.
type shardSlot struct {
	busy    time.Duration // executing windows
	started time.Time     // current window's slice start
	_       [104]byte
}

// Profile implements par.WallProbe. Construct with New, pass as
// par.Hooks.Wall (core.Config.ParWallProbe), read after the run.
type Profile struct {
	shards []shardSlot

	windowStart time.Time
	// parallelWall / serializedWall split the summed wall span of
	// completed windows by execution mode.
	parallelWall   time.Duration
	serializedWall time.Duration
	windows        int
	current        bool // current window is serialized
}

// New returns a profile for a run over `shards` shards.
func New(shards int) *Profile {
	return &Profile{shards: make([]shardSlot, shards)}
}

// WindowStart begins a window's wall span (coordinator context).
func (p *Profile) WindowStart(start, end sim.Time, serialized bool) {
	p.windowStart = time.Now()
	p.current = serialized
}

// ShardStart begins shard's busy slice (worker context; the slot is
// owned by the calling worker for the duration of the window).
func (p *Profile) ShardStart(shard int) {
	p.shards[shard].started = time.Now()
}

// ShardDone ends shard's busy slice (worker context).
func (p *Profile) ShardDone(shard int) {
	p.shards[shard].busy += time.Since(p.shards[shard].started)
}

// WindowDone closes the window's wall span (coordinator context, all
// workers quiescent again).
func (p *Profile) WindowDone() {
	d := time.Since(p.windowStart)
	if p.current {
		p.serializedWall += d
	} else {
		p.parallelWall += d
	}
	p.windows++
}

// Windows returns the number of completed windows measured.
func (p *Profile) Windows() int { return p.windows }

// Wall returns the summed wall span of completed windows, split into
// parallel and serialized execution.
func (p *Profile) Wall() (parallel, serialized time.Duration) {
	return p.parallelWall, p.serializedWall
}

// ShardBusy returns shard s's total busy wall time.
func (p *Profile) ShardBusy(s int) time.Duration { return p.shards[s].busy }

// ShardWait returns shard s's barrier wait: the parallel windows' wall
// span minus the shard's busy slices (clamped at zero — the clock
// reads bounding a slice are not atomic with the window span's).
func (p *Profile) ShardWait(s int) time.Duration {
	w := p.parallelWall - p.shards[s].busy
	if w < 0 {
		return 0
	}
	return w
}

// WriteText renders the wall profile. Every number is host-dependent:
// the report is a diagnostic, never a determinism artifact.
func (p *Profile) WriteText(w io.Writer) error {
	bw := &obs.ErrWriter{W: w}
	bw.Printf("wall-clock window profile (host-dependent): %d window(s), parallel %v, serialized %v\n",
		p.windows, p.parallelWall.Round(time.Microsecond), p.serializedWall.Round(time.Microsecond))
	for s := range p.shards {
		bw.Printf("  shard %3d: busy %v, barrier wait %v\n",
			s, p.ShardBusy(s).Round(time.Microsecond), p.ShardWait(s).Round(time.Microsecond))
	}
	return bw.Err
}

// Interface conformance.
var _ par.WallProbe = (*Profile)(nil)
