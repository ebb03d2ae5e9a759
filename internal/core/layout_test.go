package core

import (
	"testing"
	"unsafe"
)

// TestRankHotLayout holds a failed steal to its cache-line budget
// (DESIGN.md §10). The delivery of a request and an idle victim's
// NoWork answer read the victim's scheduling state, one byte of the
// engine's state slab — 8 KB at 8 192 ranks — and no line of its rank.
// The NoWork reply's delivery reads the thief's state byte, and the
// fields the thief then touches up to its next request all sit in the
// first 64 bytes of its rank. The rank is exactly two lines, so the slab
// stays line-aligned and every thief pays 128 bytes whether or not it
// ever works. Only a working victim's request reads its rank's second
// line, for w. A worker is whole lines and starts with the work stack's
// header and counts — what a request reads at a working victim, and all
// a push or a pop needs to reach its node — and the pending quantum
// follows on the next line.
func TestRankHotLayout(t *testing.T) {
	if size := unsafe.Sizeof(rankState(0)); size != 1 {
		t.Errorf("rankState is %d bytes, want 1: the state slab is a byte a rank", size)
	}
	var rk rank
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
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
