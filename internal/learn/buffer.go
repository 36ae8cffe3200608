package learn

import (
	"adrias/internal/mathx"
	"adrias/internal/models"
	"adrias/internal/workload"
)

// Outcome is one joined (decision, realized performance) pair: the training
// unit of the online loop. Past and the future means are owned by the
// outcome (deep clones at capture time) and immutable after Append, so a
// background fit can read them while the serving path keeps appending.
type Outcome struct {
	App    string
	Class  workload.Class
	Remote float64 // deployment mode actually run: 0 local, 1 remote
	Node   int     // rack node the instance ran on
	// Past is the resampled monitoring window the decision saw.
	Past []mathx.Vector
	// Future120/FutureExec are realized future-state means after arrival,
	// clamped to the history available at completion time.
	Future120  mathx.Vector
	FutureExec mathx.Vector
	// Realized is the measured performance: execution time in seconds (BE)
	// or p99 latency in milliseconds (LC).
	Realized float64
	// TraceID links back to the audited DecisionRecord. It is carried for
	// attribution only — the join itself is keyed by instance ID, so audit
	// trace-ID reuse after ring wraparound cannot corrupt the buffer.
	TraceID string
	// Gen is the live model generation at decision time.
	Gen int
	// PredLive is the live model's prediction for the tier actually run
	// (0 when the decision carried no usable prediction for that tier).
	PredLive float64
	// SimTime is the completion time on the testbed clock.
	SimTime float64
}

// perfSample converts the outcome into a performance-model training sample.
func (o *Outcome) perfSample() models.PerfSample {
	return models.PerfSample{
		App:        o.App,
		Class:      o.Class,
		Remote:     o.Remote,
		Past:       o.Past,
		Future120:  o.Future120,
		FutureExec: o.FutureExec,
		Perf:       o.Realized,
	}
}

// Buffer is the bounded training ring: Append past capacity evicts the
// oldest outcome. Not concurrency-safe on its own — the Loop serializes
// access under its mutex and hands background fits immutable snapshots.
type Buffer struct {
	ring  []Outcome
	start int
	total uint64
	// per-class occupancy, maintained incrementally
	nBE, nLC int
}

// NewBuffer returns a buffer retaining the last capacity outcomes
// (minimum 1).
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{ring: make([]Outcome, 0, capacity)}
}

// Append adds one outcome, evicting the oldest once full.
func (b *Buffer) Append(o Outcome) {
	b.total++
	b.count(o.Class, +1)
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, o)
		return
	}
	b.count(b.ring[b.start].Class, -1)
	b.ring[b.start] = o
	b.start = (b.start + 1) % len(b.ring)
}

func (b *Buffer) count(c workload.Class, d int) {
	if c == workload.LatencyCritical {
		b.nLC += d
	} else {
		b.nBE += d
	}
}

// Len returns the retained outcome count.
func (b *Buffer) Len() int { return len(b.ring) }

// Total returns the number of outcomes ever appended.
func (b *Buffer) Total() uint64 { return b.total }

// ClassLen returns the retained count for one class.
func (b *Buffer) ClassLen(c workload.Class) int {
	if c == workload.LatencyCritical {
		return b.nLC
	}
	return b.nBE
}

// Snapshot returns copies of the retained outcomes of class c, oldest
// first. The copied structs share the (immutable) window and future
// vectors with the ring, so a snapshot is cheap and safe to read while
// the ring keeps evolving.
func (b *Buffer) Snapshot(c workload.Class) []Outcome {
	out := make([]Outcome, 0, b.ClassLen(c))
	for i := 0; i < len(b.ring); i++ {
		o := b.ring[(b.start+i)%len(b.ring)]
		if o.Class == c {
			out = append(out, o)
		}
	}
	return out
}
