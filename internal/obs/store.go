package obs

import (
	"sync"
	"unsafe"

	"distws/internal/trace"
)

// store is what a recording writes into, kept for the next one as
// sim's kernel store and core's run store are: the Recorder itself,
// each rank's log with its pages, and each rank's activity scratch
// with its capacity. Its slices are as long as the most ranks it
// served; a recorder for n ranks uses the first n. Between recordings
// every log is rewound, every scratch slice is empty and no session is
// open, so a store pins no trace.
type store struct {
	rec  Recorder
	logs []eventLog
	act  []rankActivity
}

// stores is a bounded LIFO of released stores, not a sync.Pool (sim's
// store pool says why). It keeps up to maxStores stores of at most
// storeBytes each, so at most 64 MB stays reachable between recordings.
// observed-1k's store, the repository benchmark's 1 024-rank events
// recording, holds about 3.7 MB; BenchmarkRecorderActivity's, 204 800
// transitions and 102 400 sessions at append-grown capacity, 9.3 MB.
var stores struct {
	mu   sync.Mutex
	free []*store
}

const maxStores, storeBytes = 4, 16 << 20

// getStore takes a store from the pool, or a new one, and grows it to
// n ranks.
func getStore(n int) *store {
	var st *store
	stores.mu.Lock()
	if k := len(stores.free) - 1; k >= 0 {
		st, stores.free[k], stores.free = stores.free[k], nil, stores.free[:k]
	}
	stores.mu.Unlock()
	if st == nil {
		st = new(store)
	}
	if len(st.logs) < n {
		st.logs = append(st.logs, make([]eventLog, n-len(st.logs))...)
		st.act = append(st.act, make([]rankActivity, n-len(st.act))...)
	}
	return st
}

// putStore empties st for its next recording — the activity scratch
// cut to length 0 and every open session dropped (snapshot has already
// rewound the logs it read), the eviction counts zeroed — and keeps it
// unless the pool is full or st holds more than storeBytes.
func putStore(st *store) {
	bytes := cap(st.logs)*int(unsafe.Sizeof(eventLog{})) + cap(st.act)*int(unsafe.Sizeof(rankActivity{}))
	for i := range st.logs {
		l, a := &st.logs[i], &st.act[i]
		l.dropped = 0
		a.transitions, a.sessions, a.open = a.transitions[:0], a.sessions[:0], trace.Session{}
		bytes += l.pages*int(unsafe.Sizeof(page{})) +
			cap(a.transitions)*int(unsafe.Sizeof(trace.Transition{})) + cap(a.sessions)*int(unsafe.Sizeof(trace.Session{}))
	}
	stores.mu.Lock()
	defer stores.mu.Unlock()
	if len(stores.free) < maxStores && bytes <= storeBytes {
		stores.free = append(stores.free, st)
	}
}
