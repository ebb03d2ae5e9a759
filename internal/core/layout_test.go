package core

import (
	"testing"
	"unsafe"
)

// TestRankHotLayout holds the rank slab to its cache-line budget: the
// fields a thief touches between a NoWork reply and its next request
// all sit in the first 64 bytes, and the rank is exactly two lines, so
// the slab stays line-aligned and every thief pays 128 bytes whether or
// not it ever works. A worker is whole lines and starts with the work
// stack's header and counts — what a request reads at a working victim,
// and all a push or a pop needs to reach its node — and the pending
// quantum follows on the next line.
func TestRankHotLayout(t *testing.T) {
	var rk rank
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"state", unsafe.Offsetof(rk.state), unsafe.Sizeof(rk.state)},
		{"lastAborted", unsafe.Offsetof(rk.lastAborted), unsafe.Sizeof(rk.lastAborted)},
		{"consecFails", unsafe.Offsetof(rk.consecFails), unsafe.Sizeof(rk.consecFails)},
		{"pendingVictim", unsafe.Offsetof(rk.pendingVictim), unsafe.Sizeof(rk.pendingVictim)},
		{"consecTimeouts", unsafe.Offsetof(rk.consecTimeouts), unsafe.Sizeof(rk.consecTimeouts)},
		{"reqID", unsafe.Offsetof(rk.reqID), unsafe.Sizeof(rk.reqID)},
		{"waitStart", unsafe.Offsetof(rk.waitStart), unsafe.Sizeof(rk.waitStart)},
		{"searchWait", unsafe.Offsetof(rk.searchWait), unsafe.Sizeof(rk.searchWait)},
		{"fails", unsafe.Offsetof(rk.fails), unsafe.Sizeof(rk.fails)},
		{"requests", unsafe.Offsetof(rk.requests), unsafe.Sizeof(rk.requests)},
		{"backoff", unsafe.Offsetof(rk.backoff), unsafe.Sizeof(rk.backoff)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("rank.%s occupies [%d, %d): outside the thief's line", f.name, f.off, f.off+f.size)
		}
	}
	if size := unsafe.Sizeof(rk); size != 128 {
		t.Errorf("rank is %d bytes, want 128", size)
	}
	// workstack's own test pins the top segment's slice header, the node
	// count and the chunk size to the Stack's first 64 bytes.
	var w worker
	if off := unsafe.Offsetof(w.stack); off != 0 {
		t.Errorf("worker.stack at offset %d: a victim's counts are not the worker's first line", off)
	}
	if off := unsafe.Offsetof(w.quantum); off < 64 || off >= 128 {
		t.Errorf("worker.quantum at offset %d: not on the line after the stack's header", off)
	}
	if size := unsafe.Sizeof(w); size%64 != 0 {
		t.Errorf("worker is %d bytes, want whole lines", size)
	}
}
