package learn

import (
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

// pending is one placed-but-not-yet-completed decision awaiting its
// realized outcome. The join is keyed by the testbed instance ID — unique
// for the lifetime of the cluster — so audit-ring trace-ID reuse,
// out-of-order completions, and evicted audit records can mislabel nothing:
// a completion either finds its own instance's record or is dropped.
type pending struct {
	instID  int
	traceID string
	app     string
	class   workload.Class
	tier    memsys.Tier
	node    int
	gen     int     // live model generation at decision time
	remote  float64 // 0 local, 1 remote (tier actually deployed)
	// predLive is the live model's prediction for the deployed tier
	// (0: the decision carried no usable prediction for it).
	predLive float64
	// shadowPred is the candidate's prediction for the deployed tier,
	// valid when shadowGen != 0 (a shadow evaluation was recorded at
	// decision time, against candidate generation shadowGen).
	shadowPred float64
	shadowGen  int
	// shadowFlip records rule-level tier disagreement between the live and
	// candidate predictions at decision time.
	shadowFlip bool
	// window is the resampled monitoring window the decision saw — one
	// shared clone per admission batch.
	window []mathx.Vector
}

// pendingTable is the bounded decision→outcome join table: FIFO eviction
// past capacity (oldest decisions are the least likely to still complete —
// and if one does after eviction, it is dropped and counted, never
// misjoined). Not concurrency-safe; the Loop serializes access.
type pendingTable struct {
	m    map[int]*pending
	fifo []int // instance IDs in insertion order; stale entries skipped lazily
	head int
	cap  int

	evicted uint64 // pendings evicted before their completion arrived
}

func newPendingTable(capacity int) *pendingTable {
	if capacity < 1 {
		capacity = 1
	}
	return &pendingTable{m: make(map[int]*pending, capacity), cap: capacity}
}

// add inserts p, evicting the oldest pending when the table is full.
func (t *pendingTable) add(p *pending) {
	for len(t.m) >= t.cap {
		id := t.fifo[t.head]
		t.head++
		if _, ok := t.m[id]; ok {
			delete(t.m, id)
			t.evicted++
		}
	}
	// Compact the fifo once the consumed prefix dominates it.
	if t.head > 0 && t.head*2 >= len(t.fifo) {
		t.fifo = append(t.fifo[:0], t.fifo[t.head:]...)
		t.head = 0
	}
	t.m[p.instID] = p
	t.fifo = append(t.fifo, p.instID)
}

// take removes and returns the pending for the given instance ID.
func (t *pendingTable) take(instID int) (*pending, bool) {
	p, ok := t.m[instID]
	if ok {
		delete(t.m, instID)
	}
	return p, ok
}

// has reports whether a pending exists for the given instance ID.
func (t *pendingTable) has(instID int) bool {
	_, ok := t.m[instID]
	return ok
}

// len returns the live pending count.
func (t *pendingTable) len() int { return len(t.m) }
