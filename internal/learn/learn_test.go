package learn

import (
	"fmt"
	"testing"

	"adrias/internal/core"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

// testWindow builds a tiny monitoring window; content is irrelevant to the
// join logic.
func testWindow() []mathx.Vector {
	rows := make([]mathx.Vector, 3)
	for i := range rows {
		rows[i] = mathx.Vector{float64(i), 1, 2}
	}
	return rows
}

func newTestLoop(t *testing.T, cfg Config) *Loop {
	t.Helper()
	return New(cfg, Deps{
		Live: &core.Predictor{},
		Beta: 0.8,
	})
}

func placeN(l *Loop, start, n int, tier memsys.Tier) {
	batch := make([]Placement, n)
	for i := range batch {
		batch[i] = Placement{
			InstID:  start + i,
			TraceID: fmt.Sprintf("t-%04x", (start+i)%16), // deliberately colliding
			App:     "gmm",
			Class:   workload.BestEffort,
			Tier:    tier,
			// Distinct predictions so outcomes are attributable per instance.
			PredLocal: float64(start+i) + 0.5,
			PredRem:   float64(start+i) + 1.5,
		}
	}
	l.OnBatch(testWindow(), batch)
}

// TestJoinOutOfOrder: completions arriving in any order join their own
// decision — the buffer ends up with each instance's realized value.
func TestJoinOutOfOrder(t *testing.T) {
	l := newTestLoop(t, Config{})
	placeN(l, 0, 8, memsys.TierLocal)
	for id := 7; id >= 0; id-- {
		l.Complete(id, float64(id+1), mathx.Vector{1}, mathx.Vector{1}, 100)
	}
	s := l.Snapshot()
	if s.Outcomes != 8 || s.Unmatched != 0 || s.Pending != 0 {
		t.Fatalf("outcomes=%d unmatched=%d pending=%d, want 8/0/0", s.Outcomes, s.Unmatched, s.Pending)
	}
	for i, o := range l.buf.Snapshot(workload.BestEffort) {
		// Oldest-first: completion order was 7..0, so outcome i is instance 7-i.
		wantRealized := float64(8 - i)
		wantPred := float64(7-i) + 0.5 // local tier → PredLocal of instance 7-i
		if o.Realized != wantRealized || o.PredLive != wantPred {
			t.Errorf("outcome %d: realized %.1f pred %.1f, want %.1f %.1f",
				i, o.Realized, o.PredLive, wantRealized, wantPred)
		}
	}
}

// TestJoinTraceIDCollision: the audit ring reuses trace IDs after
// wraparound; the join is keyed by instance ID, so two placements sharing a
// trace ID still attribute their own realized outcomes.
func TestJoinTraceIDCollision(t *testing.T) {
	l := newTestLoop(t, Config{})
	// Instances 3 and 19 share TraceID "t-0003" (mod-16 collision).
	placeN(l, 0, 32, memsys.TierRemote)
	l.Complete(19, 42, mathx.Vector{1}, mathx.Vector{1}, 50)
	l.Complete(3, 7, mathx.Vector{1}, mathx.Vector{1}, 60)
	outs := l.buf.Snapshot(workload.BestEffort)
	if len(outs) != 2 {
		t.Fatalf("buffered %d outcomes, want 2", len(outs))
	}
	// Remote tier → PredLive is PredRem = instID + 1.5.
	if outs[0].Realized != 42 || outs[0].PredLive != 20.5 {
		t.Errorf("first outcome realized=%.1f pred=%.1f, want 42/20.5 (instance 19)",
			outs[0].Realized, outs[0].PredLive)
	}
	if outs[1].Realized != 7 || outs[1].PredLive != 4.5 {
		t.Errorf("second outcome realized=%.1f pred=%.1f, want 7/4.5 (instance 3)",
			outs[1].Realized, outs[1].PredLive)
	}
	if outs[0].TraceID != outs[1].TraceID {
		t.Fatalf("fixture broken: trace IDs %q vs %q should collide", outs[0].TraceID, outs[1].TraceID)
	}
}

// TestJoinEvictedPendingDropped: a completion whose pending was FIFO-evicted
// is counted and dropped, never misjoined to a newer decision.
func TestJoinEvictedPendingDropped(t *testing.T) {
	l := newTestLoop(t, Config{PendingCap: 4})
	placeN(l, 0, 10, memsys.TierLocal) // pendings 0..5 evicted, 6..9 live
	s := l.Snapshot()
	if s.Pending != 4 || s.Evicted != 6 {
		t.Fatalf("pending=%d evicted=%d, want 4/6", s.Pending, s.Evicted)
	}
	l.Complete(2, 5, mathx.Vector{1}, mathx.Vector{1}, 10) // evicted → dropped
	l.Complete(9, 5, mathx.Vector{1}, mathx.Vector{1}, 11) // live → joined
	s = l.Snapshot()
	if s.Unmatched != 1 || s.Outcomes != 1 {
		t.Fatalf("unmatched=%d outcomes=%d, want 1/1", s.Unmatched, s.Outcomes)
	}
	if got := l.buf.Snapshot(workload.BestEffort)[0].PredLive; got != 9.5 {
		t.Errorf("joined outcome pred %.1f, want 9.5 (instance 9)", got)
	}
}

// TestCompletionsNeverDouble: a second completion for the same instance
// (or one the loop never saw) is dropped.
func TestCompletionsNeverDouble(t *testing.T) {
	l := newTestLoop(t, Config{})
	placeN(l, 0, 2, memsys.TierLocal)
	l.Complete(1, 3, mathx.Vector{1}, mathx.Vector{1}, 5)
	l.Complete(1, 3, mathx.Vector{1}, mathx.Vector{1}, 6)  // already taken
	l.Complete(99, 3, mathx.Vector{1}, mathx.Vector{1}, 7) // never placed
	l.Complete(0, -1, mathx.Vector{1}, mathx.Vector{1}, 8) // unusable measurement
	s := l.Snapshot()
	if s.Outcomes != 1 || s.Unmatched != 3 {
		t.Fatalf("outcomes=%d unmatched=%d, want 1/3", s.Outcomes, s.Unmatched)
	}
}

// TestBufferWraparound: the training ring evicts oldest-first and keeps
// per-class counts consistent.
func TestBufferWraparound(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		class := workload.BestEffort
		if i%2 == 1 {
			class = workload.LatencyCritical
		}
		b.Append(Outcome{App: "a", Class: class, Realized: float64(i)})
	}
	if b.Len() != 4 || b.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", b.Len(), b.Total())
	}
	if be, lc := b.ClassLen(workload.BestEffort), b.ClassLen(workload.LatencyCritical); be != 2 || lc != 2 {
		t.Fatalf("class counts %d/%d, want 2/2", be, lc)
	}
	outs := b.Snapshot(workload.BestEffort)
	if len(outs) != 2 || outs[0].Realized != 6 || outs[1].Realized != 8 {
		t.Fatalf("BE snapshot = %+v, want realized 6,8 oldest-first", outs)
	}
}

// TestNoWindowPlacementsCounted: placements decided before the monitoring
// window is full are dropped and counted, not buffered with nil windows.
func TestNoWindowPlacementsCounted(t *testing.T) {
	l := newTestLoop(t, Config{})
	l.OnBatch(nil, []Placement{{InstID: 1, App: "gmm", Class: workload.BestEffort}})
	s := l.Snapshot()
	if s.NoWindow != 1 || s.Pending != 0 {
		t.Fatalf("noWindow=%d pending=%d, want 1/0", s.NoWindow, s.Pending)
	}
}

// TestDriftDetectorTrips: the detector arms only past the threshold with
// enough samples, per tier, and resets clean.
func TestDriftDetectorTrips(t *testing.T) {
	d := newDriftDetector(16, 0.3, 4)
	for i := 0; i < 3; i++ {
		d.observe(false, 0.9)
	}
	if d.tripped() {
		t.Fatal("tripped below the sample floor")
	}
	d.observe(false, 0.9)
	if !d.tripped() {
		t.Fatal("not tripped at mean 0.9 > 0.3 with 4 samples")
	}
	st := d.stats()
	if !st.Armed || st.NLocal != 4 || st.NRemote != 0 {
		t.Fatalf("stats = %+v", st)
	}
	d.reset()
	if d.tripped() {
		t.Fatal("tripped after reset")
	}
	// Remote trips independently.
	for i := 0; i < 8; i++ {
		d.observe(true, 0.5)
	}
	if st := d.stats(); !st.Armed || st.MeanRemote != 0.5 {
		t.Fatalf("remote stats = %+v", st)
	}
}

// TestDriftObservationsGateOnGeneration: outcomes decided under an older
// model generation must not grade the current one.
func TestDriftObservationsGateOnGeneration(t *testing.T) {
	l := newTestLoop(t, Config{DriftMinSamples: 1})
	placeN(l, 0, 2, memsys.TierLocal)
	// Simulate a swap between decision and completion.
	l.mu.Lock()
	l.gen.Store(2)
	l.mu.Unlock()
	l.Complete(0, 100, mathx.Vector{1}, mathx.Vector{1}, 5)
	s := l.Snapshot()
	if s.Outcomes != 1 {
		t.Fatalf("outcome still buffers (training data is generation-agnostic): got %d", s.Outcomes)
	}
	if s.Drift.NLocal != 0 || s.Drift.NRemote != 0 {
		t.Fatalf("stale-generation outcome graded the live model: %+v", s.Drift)
	}
}

// TestPendingTableCompaction: heavy insert/take churn keeps the fifo
// bounded and the table correct.
func TestPendingTableCompaction(t *testing.T) {
	pt := newPendingTable(8)
	for i := 0; i < 1000; i++ {
		pt.add(&pending{instID: i})
		if i%2 == 0 {
			pt.take(i)
		}
	}
	if pt.len() > 8 {
		t.Fatalf("table above capacity: %d", pt.len())
	}
	if len(pt.fifo) > 64 {
		t.Fatalf("fifo never compacts: %d entries", len(pt.fifo))
	}
	// Newest odd IDs must still be present.
	if !pt.has(999) {
		t.Fatal("lost the newest pending")
	}
}
