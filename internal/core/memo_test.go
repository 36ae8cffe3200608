package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/models"
	"adrias/internal/workload"
)

// countingInference answers every query with a value derived from the
// query and a call counter, and records what reached it.
type countingInference struct {
	calls   int
	queries []PerfQuery
	bump    float64 // added to every answer; changing it makes recomputation visible
}

var errNoModel = errors.New("no model")

func (c *countingInference) PredictPerfBatch(_ context.Context, qs []PerfQuery, _ []mathx.Vector) (mathx.Vector, []error) {
	c.calls++
	c.queries = append(c.queries, qs...)
	preds := mathx.NewVector(len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		if q.Name == "broken" {
			errs[i] = errNoModel
			continue
		}
		preds[i] = float64(len(q.Name)) + 10*float64(q.Tier) + 100*float64(q.Class) + c.bump
	}
	return preds, errs
}

func memoWindowFixture(rows int) []mathx.Vector {
	w := make([]mathx.Vector, rows)
	for i := range w {
		w[i] = mathx.NewVector(memsys.NumMetrics)
		w[i][0] = float64(i)
	}
	return w
}

func memoSigStore(t *testing.T, names ...string) *models.SignatureStore {
	t.Helper()
	s := models.NewSignatureStore(2)
	for _, n := range names {
		if err := s.Put(n, memoWindowFixture(4)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestPerfMemoKeysAndBounds walks the memo's contract against a counting
// inner predictor: only misses reach the inner (as one sub-batch), repeats
// within a window hit, errors are memoized with their values, a replaced
// signature misses for that app alone, a new window misses, and the window
// bound evicts the least recently used window.
func TestPerfMemoKeysAndBounds(t *testing.T) {
	sigs := memoSigStore(t, "gmm", "redis", "broken")
	inner := &countingInference{}
	var stats MemoStats
	m := NewPerfMemo(inner, sigs, 2, &stats)
	ctx := context.Background()
	w1, w2, w3 := memoWindowFixture(6), memoWindowFixture(6), memoWindowFixture(6)
	qs := []PerfQuery{
		{Name: "gmm", Class: ClassBE, Tier: memsys.TierLocal},
		{Name: "gmm", Class: ClassBE, Tier: memsys.TierRemote},
		{Name: "redis", Class: ClassLC, Tier: memsys.TierRemote},
		{Name: "broken", Class: ClassBE, Tier: memsys.TierLocal},
	}
	want, wantErrs := (&countingInference{}).PredictPerfBatch(ctx, qs, w1)

	check := func(step string, preds mathx.Vector, errs []error) {
		t.Helper()
		for i := range qs {
			if math.Float64bits(preds[i]) != math.Float64bits(want[i]) || errs[i] != wantErrs[i] {
				t.Fatalf("%s: query %d = (%v, %v), want (%v, %v)", step, i, preds[i], errs[i], want[i], wantErrs[i])
			}
		}
	}
	expect := func(step string, calls int, hits, misses uint64) {
		t.Helper()
		if inner.calls != calls || stats.Hits.Load() != hits || stats.Misses.Load() != misses {
			t.Fatalf("%s: inner calls %d hits %d misses %d, want %d/%d/%d", step,
				inner.calls, stats.Hits.Load(), stats.Misses.Load(), calls, hits, misses)
		}
	}

	preds, errs := m.PredictPerfBatch(ctx, qs, w1)
	check("cold", preds, errs)
	expect("cold", 1, 0, 4)

	// The returned slices are memo-owned scratch: a wrapper may corrupt them
	// in place (the fault injector does) without touching stored answers.
	for i := range preds {
		preds[i] = math.NaN()
	}
	inner.bump = 1000 // any recomputation would now show
	preds, errs = m.PredictPerfBatch(ctx, qs, w1)
	check("warm", preds, errs)
	expect("warm", 1, 4, 4)

	// A mixed batch: two hits, one new query; only the new one goes inner.
	inner.queries = inner.queries[:0]
	mixed := []PerfQuery{qs[2], {Name: "redis", Class: ClassLC, Tier: memsys.TierLocal}, qs[0]}
	preds, _ = m.PredictPerfBatch(ctx, mixed, w1)
	expect("mixed", 2, 6, 5)
	if len(inner.queries) != 1 || inner.queries[0] != mixed[1] {
		t.Fatalf("inner saw %v, want only the missed query", inner.queries)
	}
	if preds[0] != want[2] || preds[2] != want[0] || preds[1] != 1000+5+10*float64(memsys.TierLocal)+100 {
		t.Fatalf("mixed batch answers %v", preds)
	}

	// A replaced signature (in-situ capture on the commit path) misses for
	// that app alone.
	if err := sigs.Put("gmm", memoWindowFixture(3)); err != nil {
		t.Fatal(err)
	}
	inner.queries = inner.queries[:0]
	preds, _ = m.PredictPerfBatch(ctx, qs, w1)
	expect("new signature", 3, 8, 7)
	if len(inner.queries) != 2 || inner.queries[0].Name != "gmm" || inner.queries[1].Name != "gmm" {
		t.Fatalf("inner saw %v, want the two gmm queries", inner.queries)
	}
	if preds[0] != want[0]+1000 || preds[2] != want[2] {
		t.Fatalf("after signature replace: %v", preds)
	}

	// Equal contents, new identity: a new window, so a miss.
	m.PredictPerfBatch(ctx, qs[:1], w2)
	expect("w2", 4, 8, 8)
	m.PredictPerfBatch(ctx, qs[:1], w1) // w1 most recently used again
	expect("w1 again", 4, 9, 8)
	m.PredictPerfBatch(ctx, qs[:1], w3) // evicts w2, the LRU window
	expect("w3", 5, 9, 9)
	if len(m.wins) != 2 {
		t.Fatalf("memo retains %d windows, bound is 2", len(m.wins))
	}
	m.PredictPerfBatch(ctx, qs[:1], w1)
	expect("w1 retained", 5, 10, 9)
	m.PredictPerfBatch(ctx, qs[:1], w2)
	expect("w2 evicted", 6, 10, 10)

	// Empty batches and windows pass straight through, uncounted.
	m.PredictPerfBatch(ctx, nil, w1)
	m.PredictPerfBatch(ctx, qs, nil)
	if stats.Hits.Load() != 10 || stats.Misses.Load() != 10 {
		t.Fatalf("pass-through calls were counted: %d/%d", stats.Hits.Load(), stats.Misses.Load())
	}
}

// TestPerfMemoMatchesModels: memoized answers equal the models' own, bit
// for bit, on the float and the int8 path — cold, warm, and for queries
// first asked in a different batch composition.
func TestPerfMemoMatchesModels(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	c := warmCluster(t, watch)
	window := watch.Window(c)
	ctx := context.Background()
	qs := []PerfQuery{
		{Name: "gmm", Class: ClassBE, Tier: memsys.TierLocal},
		{Name: "gmm", Class: ClassBE, Tier: memsys.TierRemote},
		{Name: "redis", Class: ClassLC, Tier: memsys.TierRemote},
		{Name: "pagerank", Class: ClassBE, Tier: memsys.TierLocal},
		{Name: "pagerank", Class: ClassBE, Tier: memsys.TierRemote},
		{Name: "no-such-app", Class: ClassBE, Tier: memsys.TierLocal},
		{Name: "memcached", Class: ClassLC, Tier: memsys.TierRemote},
	}
	for _, tc := range []struct {
		name         string
		ref, wrapped PerfInference
	}{
		{"float", pred, pred},
		{"int8", NewQuantPredictor(pred), NewQuantPredictor(pred)},
	} {
		wantP, wantE := tc.ref.PredictPerfBatch(ctx, qs, window)
		wantP, wantE = wantP.Clone(), append([]error(nil), wantE...)
		m := NewPerfMemo(tc.wrapped, pred.Sigs, 1, new(MemoStats))
		// First ask a subset in reverse, then the whole batch (part hits).
		sub := []PerfQuery{qs[6], qs[4], qs[0]}
		subP, _ := m.PredictPerfBatch(ctx, sub, window)
		for k, i := range []int{6, 4, 0} {
			if math.Float64bits(subP[k]) != math.Float64bits(wantP[i]) {
				t.Fatalf("%s: subset query %d = %v, want %v", tc.name, i, subP[k], wantP[i])
			}
		}
		for round := 0; round < 2; round++ {
			got, errs := m.PredictPerfBatch(ctx, qs, window)
			for i := range qs {
				if math.Float64bits(got[i]) != math.Float64bits(wantP[i]) {
					t.Fatalf("%s round %d: query %d = %v, want %v", tc.name, round, i, got[i], wantP[i])
				}
				if (errs[i] == nil) != (wantE[i] == nil) {
					t.Fatalf("%s round %d: query %d error %v, want %v", tc.name, round, i, errs[i], wantE[i])
				}
			}
		}
		if wantE[5] == nil {
			t.Fatalf("%s: unknown app did not error", tc.name)
		}
	}
}

// TestPerfMemoDecideZeroAlloc: with warm hits, a steady-state decide batch
// through the memo (over the int8 predictor) allocates nothing.
func TestPerfMemoDecideZeroAlloc(t *testing.T) {
	pred, watch, _ := trainTinyPredictor(t)
	c := warmCluster(t, watch)
	window := watch.Window(c)
	orch := NewOrchestrator(pred, watch, 0.8)
	var stats MemoStats
	orch.Infer = NewPerfMemo(NewQuantPredictor(pred), pred.Sigs, 2, &stats)
	orch.QoSMs["redis"] = 1e6
	profiles := []*workload.Profile{
		registry.ByName("gmm"), registry.ByName("nweight"),
		registry.ByName("pagerank"), registry.ByName("redis"),
		registry.ByName("gmm"), registry.ByName("svm"),
		registry.ByName("memcached"), registry.ByName("linear"),
	}
	orch.MaxDecisions = len(profiles)
	ds := make([]Decision, len(profiles))
	ctx := context.Background()
	orch.DecideBatchWindow(ctx, profiles, window, 100, false, 0, ds)
	misses := stats.Misses.Load()
	if n := testing.AllocsPerRun(20, func() {
		orch.DecideBatchWindow(ctx, profiles, window, 100, false, 0, ds)
	}); n > 0 {
		t.Errorf("warm memoized decide allocates %.1f/op, want 0", n)
	}
	if stats.Misses.Load() != misses || stats.Hits.Load() == 0 {
		t.Errorf("warm batches missed: hits %d misses %d (after first batch %d)",
			stats.Hits.Load(), stats.Misses.Load(), misses)
	}
}
