package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adrias/internal/core"
	"adrias/internal/dataset"
	"adrias/internal/models"
	"adrias/internal/obs"
	"adrias/internal/scenario"
	"adrias/internal/workload"
)

var registry = workload.NewRegistry()

// tiny shares one minimally trained predictor across tests and benchmarks
// (training costs a few seconds; every consumer needs the same thing).
var tiny struct {
	once  sync.Once
	pred  *core.Predictor
	watch *core.Watcher
	err   error
}

func trainTiny() {
	spec := models.PerfDatasetSpec{HistTicks: 60, FutureTicks: 60, Stride: 10}
	corpus := scenario.CorpusSpec{
		BaseSeed: 300, DurationSec: 600, SpawnMin: 5, SpawnMaxes: []float64{15},
		SeedsPer: 4, IBenchShare: 0.35, KeepHistory: true,
	}
	results, err := scenario.RunCorpus(corpus, registry, nil)
	if err != nil {
		tiny.err = err
		return
	}
	var windows []dataset.Window
	for _, r := range results {
		ws, err := dataset.FromHistory(r.History, dataset.WindowSpec{
			Hist: spec.HistTicks, Horizon: spec.FutureTicks, Stride: spec.Stride, Hop: 11})
		if err != nil {
			tiny.err = err
			return
		}
		windows = append(windows, ws...)
	}
	sys := models.NewSysStateModel(models.SysStateConfig{
		Hidden: 12, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 8, Batch: 16, Seed: 3})
	trainIdx, _ := dataset.Split(len(windows), 0.8, 5)
	if err := sys.Fit(windows, trainIdx); err != nil {
		tiny.err = err
		return
	}
	sigs, err := models.BuildSignatures(registry, spec.HistTicks/spec.Stride, 17)
	if err != nil {
		tiny.err = err
		return
	}
	samples := models.BuildPerfSamples(results, spec)
	var be, lc []models.PerfSample
	for _, s := range samples {
		if s.Class == workload.BestEffort {
			be = append(be, s)
		} else {
			lc = append(lc, s)
		}
	}
	pcfg := models.PerfConfig{
		Hidden: 10, BlockDim: 16, Dropout: 0, LR: 2e-3, Epochs: 10, Batch: 16, Seed: 5,
		TrainFuture: models.Future120Actual, EvalFuture: models.FuturePredicted,
	}
	fit := func(ss []models.PerfSample) (*models.PerfModel, error) {
		m := models.NewPerfModel(pcfg, sigs)
		idx := make([]int, len(ss))
		for i := range idx {
			idx[i] = i
		}
		return m, m.Fit(ss, idx)
	}
	beModel, err := fit(be)
	if err != nil {
		tiny.err = err
		return
	}
	lcModel, err := fit(lc)
	if err != nil {
		tiny.err = err
		return
	}
	tiny.pred = &core.Predictor{Sys: sys, BE: beModel, LC: lcModel, Sigs: sigs}
	tiny.watch = core.NewWatcher(spec)
}

func tinyEngine(tb testing.TB, cfg EngineConfig) *SystemEngine {
	tb.Helper()
	tiny.once.Do(trainTiny)
	if tiny.err != nil {
		tb.Fatal(tiny.err)
	}
	return NewSystemEngine(tiny.pred, tiny.watch, registry, cfg)
}

func TestSystemEngineEndToEnd(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{QoSFactor: 1e6, AmbientRate: 0.5, Seed: 9})
	if s := eng.Snapshot(); !s.Ready {
		t.Fatal("engine not ready after warmup")
	}

	// A mixed batch: BE, LC, cold-start (iBench has no signature), unknown.
	results := eng.PlaceBatch(context.Background(), []PlaceRequest{
		{App: "gmm", DryRun: true},
		{App: "redis", DryRun: true},
		{App: "ibench-membw", DryRun: true},
		{App: "nosuch", DryRun: true},
	})
	if results[0].Err != nil || results[1].Err != nil || results[2].Err != nil {
		t.Fatalf("errs: %v %v %v", results[0].Err, results[1].Err, results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrUnknownApp) {
		t.Errorf("unknown app err = %v", results[3].Err)
	}
	if results[0].Class != workload.BestEffort || results[1].Class != workload.LatencyCritical {
		t.Errorf("classes: %v %v", results[0].Class, results[1].Class)
	}
	if results[0].PredLocalS <= 0 || results[0].PredRemS <= 0 {
		t.Errorf("BE predictions missing: %+v", results[0])
	}
	if !results[2].ColdStart {
		t.Errorf("iBench app should cold-start: %+v", results[2])
	}

	// Dry runs must not occupy the testbed; real placements must.
	before := eng.Snapshot()
	eng.PlaceBatch(context.Background(), []PlaceRequest{{App: "gmm"}})
	after := eng.Snapshot()
	if after.Running != before.Running+1 {
		t.Errorf("deploying placement did not start an instance: %d → %d", before.Running, after.Running)
	}

	// Advancing moves simulated time and (at this rate) injects ambient load.
	eng.Advance(120)
	s := eng.Snapshot()
	if s.SimTime <= after.SimTime {
		t.Error("Advance did not move simulated time")
	}
	if s.AmbientStarted == 0 {
		t.Error("no ambient arrivals after 120 s at rate 0.5")
	}
}

func TestSystemEngineThroughService(t *testing.T) {
	eng := tinyEngine(t, EngineConfig{Seed: 11})
	svc := NewService(eng, Config{BatchWindow: 10 * time.Millisecond, MaxBatch: 32})
	defer closeAll(t, svc)

	apps := []string{"gmm", "pagerank", "redis", "wordcount", "kmeans"}
	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Place(context.Background(),
				PlaceRequest{App: apps[i%len(apps)], DryRun: true})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("place %d: %v", i, err)
		}
	}
	met := svc.Metrics()
	if met.Batches.Load() >= uint64(len(errs)) {
		t.Errorf("no coalescing through the real engine: %d batches for %d requests",
			met.Batches.Load(), len(errs))
	}
	if met.PlacedLocal.Load()+met.PlacedRemote.Load() != uint64(len(errs)) {
		t.Errorf("placement mix %d local + %d remote ≠ %d requests",
			met.PlacedLocal.Load(), met.PlacedRemote.Load(), len(errs))
	}
}

// benchAdmission measures end-to-end admission throughput under parallel
// clients. The acceptance bar: batched ≥ unbatched (MaxBatch=1 baseline,
// one full inference pipeline per request).
func benchAdmission(b *testing.B, cfg Config) {
	eng := tinyEngine(b, EngineConfig{Seed: 21})
	cfg.QueueDepth = 8192
	cfg.DefaultTimeout = time.Minute
	svc := NewService(eng, cfg)
	defer svc.Close(context.Background())
	apps := []string{"gmm", "pagerank", "redis", "kmeans"}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			app := apps[i%len(apps)]
			i++
			if _, err := svc.Place(context.Background(), PlaceRequest{App: app, DryRun: true}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if n := svc.Metrics().Batches.Load(); n > 0 {
		b.ReportMetric(float64(svc.Metrics().BatchedReqs.Load())/float64(n), "reqs/batch")
	}
}

func BenchmarkAdmissionBatched(b *testing.B) {
	b.SetParallelism(8)
	benchAdmission(b, Config{BatchWindow: 2 * time.Millisecond, MaxBatch: 64})
}

func BenchmarkAdmissionUnbatched(b *testing.B) {
	b.SetParallelism(8)
	benchAdmission(b, Config{BatchWindow: -1, MaxBatch: 1})
}

// unmemoizedShard mints a replica shard without the per-window prediction
// memo: a benchmark repeating one batch against one view would otherwise
// measure memo hits, not the models.
func unmemoizedShard(eng *SystemEngine) *engineShard {
	eng.noPredictMemo = true
	return eng.NewShard(0).(*engineShard)
}

func benchPlaceBatchSizes(b *testing.B, makeCtx func() context.Context) {
	sh := unmemoizedShard(tinyEngine(b, EngineConfig{Seed: 31}))
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			reqs := make([]PlaceRequest, size)
			for i := range reqs {
				reqs[i] = PlaceRequest{App: []string{"gmm", "pagerank", "redis"}[i%3], DryRun: true}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sh.PlaceBatch(makeCtx(), reqs)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "placements/s")
		})
	}
}

// BenchmarkPlaceBatchSizes is the untraced baseline: the context carries no
// SpanRecorder, so every StartSpan along the pipeline is a no-op.
func BenchmarkPlaceBatchSizes(b *testing.B) {
	benchPlaceBatchSizes(b, context.Background)
}

// BenchmarkPlaceBatchSizesTraced runs the identical workload with a live
// SpanRecorder per batch — the overhead-budget comparison (≤5% on batch-8)
// that CI's benchdiff enforces against the baseline above.
func BenchmarkPlaceBatchSizesTraced(b *testing.B) {
	benchPlaceBatchSizes(b, func() context.Context {
		return obs.WithRecorder(context.Background(), obs.NewSpanRecorder())
	})
}
