package obs

import (
	"encoding/binary"

	"distws/internal/sim"
	"distws/internal/trace"
)

// A record is one event in delta-varint form: the kind byte, then the
// zig-zag varints (encoding/binary's Varint format) of the time's
// difference from the previous record's, of the peer and of the arg —
// at most maxRecord bytes, against trace.Event's 24, and 5.9 on average
// in a 1024-rank steal log. Deltas are taken in wrapping int64
// arithmetic, so a clock that steps back, or a jump near the int64
// limits, decodes exactly.
const maxRecord = 1 + 2*binary.MaxVarintLen64 + binary.MaxVarintLen32

// pageData is a page's record capacity: the page, header included,
// fills the 1 KiB size class exactly. A record never straddles pages.
const pageData = 1024 - 16

// page is one link of a log's page list.
type page struct {
	next *page
	used int
	buf  [pageData]byte
}

// eventLog is one rank's bounded event log: its newest records in a
// list of pages, oldest first. The list and the spare pages are the
// only storage a rank owns, and all its bookkeeping lives here or in
// the pages — no side slices — so a rank allocates one page per 1 KiB
// of records; at the cap, eviction recycles pages, and a new one is
// allocated only when the records coming in outgrow the ones going
// out. The log outlives its recording: rewind keeps every page as a
// spare for the recorder's next recording.
type eventLog struct {
	head, tail *page
	// spare lists the pages eviction or rewind emptied, linked by
	// next, taken before a new page is allocated.
	spare *page
	// off is the read offset of the oldest record in head.
	off int
	// base is the time the oldest record's delta counts from (the
	// time of the event evicted before it); last is the newest
	// record's time, the next record's base.
	base, last sim.Time
	// n counts the records retained, dropped the ones evicted; pages
	// counts the pages the log owns, in its list and spare.
	n, pages int
	dropped  uint64
}

// add appends e, first evicting the oldest record if the log already
// holds capacity records.
func (l *eventLog) add(e trace.Event, capacity int) {
	if l.n == capacity {
		l.evict()
	}
	if l.tail == nil || pageData-l.tail.used < maxRecord {
		l.addPage()
	}
	p := l.tail
	p.buf[p.used] = byte(e.Kind)
	i := putVarint(&p.buf, p.used+1, int64(e.Time-l.last))
	i = putVarint(&p.buf, i, int64(e.Peer))
	p.used = putVarint(&p.buf, i, e.Arg)
	l.last = e.Time
	l.n++
}

// addPage links an empty page after the tail.
func (l *eventLog) addPage() {
	p := l.spare
	if p != nil {
		l.spare, p.next, p.used = p.next, nil, 0
	} else {
		p = new(page)
		l.pages++
	}
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.next = p
	}
	l.tail = p
}

// evict drops the oldest record. A head page it empties becomes a
// spare; an emptied sole page is rewound in place.
func (l *eventLog) evict() {
	p := l.head
	l.base, l.off = skipRecord(&p.buf, l.off, l.base)
	l.n--
	l.dropped++
	if l.off < p.used {
		return
	}
	l.off = 0
	if p == l.tail {
		p.used = 0
		return
	}
	l.head, p.next, l.spare = p.next, l.spare, p
}

// rewind empties the log for the next recording and keeps its pages
// as spares, in list order; only the eviction count stays.
func (l *eventLog) rewind() {
	if l.tail != nil {
		l.tail.next, l.spare = l.spare, l.head
	}
	*l = eventLog{spare: l.spare, pages: l.pages, dropped: l.dropped}
}

// decode writes the retained records, oldest first, into dst, which
// holds exactly l.n events.
func (l *eventLog) decode(dst []trace.Event) {
	p, off, t := l.head, l.off, l.base
	for i := range dst {
		if off == p.used {
			p, off = p.next, 0
		}
		dt, j := varint(&p.buf, off+1)
		peer, j := varint(&p.buf, j)
		arg, j := varint(&p.buf, j)
		t += sim.Time(dt)
		dst[i] = trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: trace.EventKind(p.buf[off])}
		off = j
	}
}

// skipRecord steps over the record at b[i:], whose time delta counts
// from prev, and returns its time and the offset past it.
func skipRecord(b *[pageData]byte, i int, prev sim.Time) (sim.Time, int) {
	dt, i := varint(b, i+1)
	for range 2 {
		for b[i] >= 0x80 {
			i++
		}
		i++
	}
	return prev + sim.Time(dt), i
}

// putVarint writes x's zig-zag varint at b[i:] and returns the offset
// past it.
func putVarint(b *[pageData]byte, i int, x int64) int {
	u := uint64(x)<<1 ^ uint64(x>>63)
	for u >= 0x80 {
		b[i] = byte(u) | 0x80
		u >>= 7
		i++
	}
	b[i] = byte(u)
	return i + 1
}

// varint reads the zig-zag varint at b[i:] and returns it with the
// offset past it.
func varint(b *[pageData]byte, i int) (int64, int) {
	var u uint64
	for s := uint(0); ; s += 7 {
		c := b[i]
		i++
		u |= uint64(c&0x7f) << s
		if c < 0x80 {
			break
		}
	}
	return int64(u>>1) ^ -int64(u&1), i
}
