package serve

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"adrias/internal/core"
	"adrias/internal/faults"
	"adrias/internal/learn"
	"adrias/internal/mathx"
	"adrias/internal/models"
	"adrias/internal/obs"
	"adrias/internal/workload"
)

// isolatedPredictor copies the tiny test models onto a private signature
// store holding every trained signature except drop, so an engine built on
// it can capture and replace signatures without touching other tests (or
// its twin in a memo-on/off pair).
func isolatedPredictor(tb testing.TB, drop ...string) *core.Predictor {
	tb.Helper()
	tiny.once.Do(trainTiny)
	if tiny.err != nil {
		tb.Fatal(tiny.err)
	}
	src := tiny.pred
	sigs := models.NewSignatureStore(src.Sigs.SeqLen)
	dropped := make(map[string]bool, len(drop))
	for _, n := range drop {
		dropped[n] = true
	}
	for _, n := range src.Sigs.Names() {
		if dropped[n] {
			continue
		}
		sig, _ := src.Sigs.Get(n)
		if err := sigs.Put(n, sig.Steps); err != nil {
			tb.Fatal(err)
		}
	}
	be, lc := src.BE.Clone(), src.LC.Clone()
	be.Rebind(sigs)
	lc.Rebind(sigs)
	return &core.Predictor{Sys: src.Sys.Clone(), BE: be, LC: lc, Sigs: sigs}
}

// memoTwin is one side of a memo-on/off pair: an engine over isolated
// models, its replica shards, and an audit log of everything they decided.
type memoTwin struct {
	eng    *SystemEngine
	shards []*engineShard
}

func newMemoTwin(tb testing.TB, cfg EngineConfig, memo bool, replicas int, drop ...string) *memoTwin {
	tb.Helper()
	pred := isolatedPredictor(tb, drop...)
	watch := &core.Watcher{HistTicks: tiny.watch.HistTicks, Steps: tiny.watch.Steps}
	eng := NewSystemEngine(pred, watch, registry, cfg)
	eng.audit = obs.NewAuditLog(1 << 14)
	eng.noPredictMemo = !memo
	tw := &memoTwin{eng: eng}
	for i := 0; i < replicas; i++ {
		tw.shards = append(tw.shards, eng.NewShard(i).(*engineShard))
	}
	return tw
}

// place runs one batch on shard i and returns the results plus a copy of
// the decisions the shard's orchestrator made for it.
func (tw *memoTwin) place(i int, reqs []PlaceRequest) ([]PlaceResult, []core.Decision) {
	sh := tw.shards[i]
	res := sh.PlaceBatch(context.Background(), reqs)
	return res, append([]core.Decision(nil), sh.ds[:len(sh.profiles)]...)
}

// requireSameBatch fails unless two batches decided identically: every
// result field and every core.Decision field, predictions compared by bits.
func requireSameBatch(t *testing.T, step string, ra, rb []PlaceResult, da, db []core.Decision) {
	t.Helper()
	if len(ra) != len(rb) || len(da) != len(db) {
		t.Fatalf("%s: batch shapes differ: %d/%d results, %d/%d decisions", step, len(ra), len(rb), len(da), len(db))
	}
	for i := range ra {
		a, b := ra[i], rb[i]
		if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
			t.Fatalf("%s: result %d errors differ: %v vs %v", step, i, a.Err, b.Err)
		}
		a.Err, b.Err = nil, nil
		if math.Float64bits(a.PredLocalS) != math.Float64bits(b.PredLocalS) ||
			math.Float64bits(a.PredRemS) != math.Float64bits(b.PredRemS) || a != b {
			t.Fatalf("%s: result %d differs:\n memo on  %+v\n memo off %+v", step, i, a, b)
		}
	}
	for i := range da {
		a, b := da[i], db[i]
		if math.Float64bits(a.PredLocal) != math.Float64bits(b.PredLocal) ||
			math.Float64bits(a.PredRem) != math.Float64bits(b.PredRem) || a != b {
			t.Fatalf("%s: decision %d differs:\n memo on  %+v\n memo off %+v", step, i, a, b)
		}
	}
}

// requireSameAudit compares the two engines' audit trails record by
// record, wall-clock stamps aside — node, reason, predictions, replica and
// the stamped model generation included.
func requireSameAudit(t *testing.T, a, b *SystemEngine) []obs.DecisionRecord {
	t.Helper()
	ra, rb := a.audit.Snapshot(), b.audit.Snapshot()
	if len(ra) != len(rb) {
		t.Fatalf("audit trails differ in length: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		x.Time, y.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("audit record %d differs:\n memo on  %+v\n memo off %+v", i, x, y)
		}
	}
	return ra
}

// waitTrained blocks while the learning loop fits a candidate in the
// background, so both twins leave training at the same simulated instant.
func waitTrained(t *testing.T, e *SystemEngine) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for e.Learner().Snapshot().State == learn.StateTraining {
		if time.Now().After(deadline) {
			t.Fatal("candidate fit did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardMemoMatchesUnmemoized runs one seeded multi-tick scenario twice
// through replica shards — with the per-window prediction memo and
// without — and requires every decision to match bit for bit: deploys and
// dry runs across several batches per tick, a cold start whose signature
// the commit path captures, a signature stored and one replaced mid-tick
// (same window, new signature), and a learner promotion that re-clones the
// shard stacks. The memo must have served hits along the way.
func TestShardMemoMatchesUnmemoized(t *testing.T) {
	const replicas = 2
	cfg := func() EngineConfig {
		c := learnTestConfig()
		c.Nodes = 3
		return c
	}
	// wordcount cold-starts and is captured in situ; linear's signature is
	// stored by hand mid-tick.
	on := newMemoTwin(t, cfg(), true, replicas, "wordcount", "linear")
	off := newMemoTwin(t, cfg(), false, replicas, "wordcount", "linear")
	linearTrace, _ := tiny.pred.Sigs.Get("linear")
	pagerankTrace, _ := tiny.pred.Sigs.Get("pagerank")

	deployApps := []string{"gmm", "pagerank", "kmeans", "wordcount"}
	step := func(name string, shard int, reqs []PlaceRequest) {
		t.Helper()
		ra, da := on.place(shard, reqs)
		rb, db := off.place(shard, reqs)
		requireSameBatch(t, name, ra, rb, da, db)
		if on.shards[shard].gen.Load() != off.shards[shard].gen.Load() {
			t.Fatalf("%s: shard %d generations differ", name, shard)
		}
	}
	swapRound := -1
	for round := 0; round < 600; round++ {
		if swapRound >= 0 && round > swapRound+4 {
			break
		}
		a, b := round%replicas, (round+1)%replicas
		step("deploy", a, []PlaceRequest{
			{App: deployApps[round%len(deployApps)], TraceID: "d"},
			{App: "gmm", DryRun: true}, {App: "redis", DryRun: true},
			{App: "linear", DryRun: true}, {App: "ibench-l3", DryRun: true},
		})
		step("dry", b, []PlaceRequest{
			{App: "pagerank", DryRun: true}, {App: "gmm", DryRun: true},
			{App: "memcached", DryRun: true}, {App: "kmeans", DryRun: true},
		})
		sameWindow := []PlaceRequest{
			{App: "gmm", DryRun: true}, {App: "linear", DryRun: true},
			{App: "wordcount", DryRun: true}, {App: "redis", DryRun: true},
		}
		step("same window", a, sameWindow)
		// Mid-tick signature changes between two dry-run batches on one
		// shard: same view, same node, same window. The memo must answer
		// the app whose signature changed afresh (its two BE queries) and
		// everything else from memory.
		var sigApp string
		var sigTrace []mathx.Vector
		switch round {
		case 5: // a signature lands: linear stops cold-starting
			sigApp, sigTrace = "linear", linearTrace.Steps
		case 9: // a signature is replaced: gmm must not hit
			sigApp, sigTrace = "gmm", pagerankTrace.Steps
		}
		missesBefore := on.shards[a].memo.Misses.Load()
		if sigApp != "" {
			for _, tw := range []*memoTwin{on, off} {
				if err := tw.eng.sigs.Put(sigApp, sigTrace); err != nil {
					t.Fatal(err)
				}
			}
		}
		step("same window again", a, sameWindow)
		wantMisses := uint64(0)
		if sigApp != "" {
			wantMisses = 2
		}
		if got := on.shards[a].memo.Misses.Load() - missesBefore; got != wantMisses {
			t.Fatalf("round %d: repeated batch missed %d queries, want %d", round, got, wantMisses)
		}

		on.eng.Advance(60)
		off.eng.Advance(60)
		waitTrained(t, on.eng)
		waitTrained(t, off.eng)
		gOn, gOff := on.eng.Learner().Generation(), off.eng.Learner().Generation()
		if gOn != gOff {
			t.Fatalf("round %d: live generations diverged: %d vs %d", round, gOn, gOff)
		}
		if swapRound < 0 && gOn >= 2 {
			swapRound = round
		}
	}
	if swapRound < 0 {
		t.Fatal("no learner promotion in the scenario")
	}
	recs := requireSameAudit(t, on.eng, off.eng)

	coldCaptured, postSwap := false, false
	for _, r := range recs {
		if r.App == "wordcount" && !r.ColdStart && r.PredLocalS > 0 {
			coldCaptured = true
		}
		if r.Event == "" && r.ModelGen >= 2 {
			postSwap = true
		}
	}
	if !coldCaptured {
		t.Error("wordcount never decided warm: the in-situ capture was not exercised")
	}
	if !postSwap {
		t.Error("no decision stamped with the promoted generation")
	}
	var hits, misses uint64
	for _, sh := range on.shards {
		hits += sh.memo.Hits.Load()
		misses += sh.memo.Misses.Load()
	}
	if hits == 0 || misses == 0 {
		t.Errorf("memo hits %d misses %d: the scenario did not exercise both", hits, misses)
	}
	for _, sh := range off.shards {
		if sh.memo.Hits.Load()+sh.memo.Misses.Load() != 0 {
			t.Error("memo-off shards counted memo traffic")
		}
	}
	t.Logf("swap at round %d; memo hits %d misses %d", swapRound, hits, misses)
}

// TestShardMemoUnderPredictorFaults: the memo sits under the fault
// injector and the breaker. A predict-nan and then a predict-error fault,
// each active for part of one tick, must corrupt decisions exactly as
// without the memo; once each clears — same tick, same window — the
// predictions equal the pre-fault values bit for bit, and the breaker
// counted the same failures and successes on both sides.
func TestShardMemoUnderPredictorFaults(t *testing.T) {
	clock := 0.0
	mk := func(memo bool) (*memoTwin, *faults.Injector) {
		spec, err := faults.ParseSpec("predict-nan@10+5;predict-error@30+5")
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.NewInjector(spec, 3)
		tw := newMemoTwin(t, EngineConfig{Seed: 23, Quantized: true, Nodes: 2, QoSFactor: 1e6, Faults: inj}, memo, 1)
		// Drive the schedule from a test clock, so faults switch on and off
		// between batches without a tick moving the windows.
		inj.SetClock(func() float64 { return clock })
		inj.Start(0)
		return tw, inj
	}
	on, injOn := mk(true)
	off, injOff := mk(false)
	reqs := []PlaceRequest{
		{App: "gmm", DryRun: true}, {App: "redis", DryRun: true},
		{App: "pagerank", DryRun: true}, {App: "gmm", DryRun: true},
	}
	batch := func(name string) []core.Decision {
		t.Helper()
		ra, da := on.place(0, reqs)
		rb, db := off.place(0, reqs)
		requireSameBatch(t, name, ra, rb, da, db)
		return da
	}
	samePreds := func(name string, got, want []core.Decision) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i].PredLocal) != math.Float64bits(want[i].PredLocal) ||
				math.Float64bits(got[i].PredRem) != math.Float64bits(want[i].PredRem) ||
				got[i].Reason != want[i].Reason {
				t.Fatalf("%s: decision %d = %+v, want the pre-fault %+v", name, i, got[i], want[i])
			}
		}
	}

	on.eng.Advance(1)
	off.eng.Advance(1)
	before := batch("pre-fault")
	for _, d := range before {
		if d.Fallback {
			t.Fatalf("pre-fault decision fell back: %+v", d)
		}
	}
	for _, f := range []struct {
		name   string
		at     float64
		reason string
	}{
		{"predict-nan", 11, core.ReasonPredictError},
		{"predict-error", 31, core.ReasonPredictError},
	} {
		clock = f.at
		during := batch(f.name)
		for _, d := range during {
			if d.Reason != f.reason {
				t.Fatalf("%s: decision %+v, want reason %q", f.name, d, f.reason)
			}
		}
		clock = f.at + 5 // cleared, same tick
		samePreds(f.name+" cleared", batch(f.name+" cleared"), before)
	}
	for _, k := range []faults.Kind{faults.PredictNaN, faults.PredictError} {
		if injOn.Injections(k) != 1 || injOff.Injections(k) != 1 {
			t.Errorf("%s injections: memo on %d, off %d, want 1 each", k, injOn.Injections(k), injOff.Injections(k))
		}
	}
	cOn, cOff := on.eng.Breaker().Counters(), off.eng.Breaker().Counters()
	if cOn != cOff {
		t.Errorf("breaker counters differ: memo on %+v, off %+v", cOn, cOff)
	}
	if cOn.Failures != 2 || cOn.Successes != 3 {
		t.Errorf("breaker counted %d failures / %d successes, want 2 / 3", cOn.Failures, cOn.Successes)
	}
	requireSameAudit(t, on.eng, off.eng)
}

// TestShardDecideZeroAllocWarmMemo pins the shard's decide segment — the
// full cloned stack (int8 predictor, memo, breaker) against a published
// view window — at 0 allocs/op once the memo is warm.
func TestShardDecideZeroAllocWarmMemo(t *testing.T) {
	tw := newMemoTwin(t, EngineConfig{Seed: 29, Quantized: true, Nodes: 2, QoSFactor: 1e6}, true, 1)
	sh := tw.shards[0]
	var profiles []*workload.Profile
	for _, n := range []string{"gmm", "redis", "pagerank", "memcached", "gmm", "svm", "kmeans", "linear"} {
		profiles = append(profiles, registry.ByName(n))
	}
	sh.orch.MaxDecisions = len(profiles)
	view := tw.eng.view.Load()
	node := pickNode(view)
	ds := make([]core.Decision, len(profiles))
	ctx := context.Background()
	decide := func() {
		sh.orch.DecideBatchWindow(ctx, profiles, view.win[node],
			view.occ[node].RemoteFreeGB, view.occ[node].FabricDegraded, node, ds)
	}
	decide()
	misses := sh.memo.Misses.Load()
	if n := testing.AllocsPerRun(20, decide); n > 0 {
		t.Errorf("warm shard decide allocates %.1f/op, want 0", n)
	}
	if sh.memo.Misses.Load() != misses {
		t.Errorf("warm batches missed the memo: %d → %d misses", misses, sh.memo.Misses.Load())
	}
}
