package core

import (
	"testing"
	"unsafe"
)

// TestRankHotLayout holds the rank slab to its cache-line budget: the
// fields a thief touches between a NoWork reply and its next request
// all sit in the first 64 bytes, the work stack's header and counts —
// what a request reads at the victim, and all a push or a pop needs to
// reach its node — are the second line of the same 128-byte pair, and the struct is a whole number of lines no larger
// than 384 bytes, so the slab stays line-aligned and does not outgrow
// the separately allocated stacks it replaced.
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
	// workstack's own test pins the top segment's slice header, the node
	// count and the chunk size to the Stack's first 64 bytes.
	if off := unsafe.Offsetof(rk.stack); off != 64 {
		t.Errorf("rank.stack at offset %d: its header and counts are not the line [64, 128)", off)
	}
	if off := unsafe.Offsetof(rk.gen); off < 128 {
		t.Errorf("rank.gen at offset %d: a working rank's state shares the steal lines", off)
	}
	size := unsafe.Sizeof(rk)
	if size > 384 || size%64 != 0 {
		t.Errorf("rank is %d bytes, want a multiple of 64 no larger than 384", size)
	}
}
