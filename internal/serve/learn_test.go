package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"adrias/internal/learn"
	"adrias/internal/obs"
)

// learnTestConfig: aggressive lifecycle thresholds so the loop completes a
// full drift→retrain→shadow→swap round within a short simulated run. The
// ambient ramp shifts the interference mix after serving starts — the
// induced drift of DESIGN.md §13.
func learnTestConfig() EngineConfig {
	return EngineConfig{
		Seed:      11,
		QoSFactor: 1e6,
		// The tiny testbed saturates near 0.08 arrivals/s; stay under it or
		// nothing completes and no outcomes ever join.
		AmbientRate:    0.03,
		AmbientRampTo:  0.055,
		AmbientRampSec: 1200,
		Quantized:      true,
		Learn: &learn.Config{
			DriftThreshold:  0.05,
			DriftWindow:     64,
			DriftMinSamples: 6,
			MinOutcomes:     16,
			ShadowWarmup:    8,
			// Margin stays strict (0): promotion then implies the candidate
			// beat the live model, so the improvement assert below cannot
			// pass vacuously. A losing candidate discards and retries after
			// the cooldown, which the round budget absorbs.
			CooldownSec: 30,
			Epochs:      4,
			BufferCap:   512,
		},
	}
}

// TestOnlineLearningLoopEndToEnd drives the full model lifecycle against
// the ticking testbed: served placements complete and join back as
// outcomes, the drift detector trips under the ramped ambient mix, a
// candidate trains off the hot path, shadow-evaluates the same admissions,
// and is hot-swapped in — with the swap audited and the int8 twin
// re-derived within the quantization flip budget.
func TestOnlineLearningLoopEndToEnd(t *testing.T) {
	eng := tinyEngine(t, learnTestConfig())
	eng.audit = obs.NewAuditLog(512)
	lp := eng.Learner()
	if lp == nil {
		t.Fatal("learner not constructed")
	}
	if got := lp.Generation(); got != 1 {
		t.Fatalf("initial generation = %d, want 1", got)
	}

	ctx := context.Background()
	// Sparse served load (one job / 60 sim-seconds) on top of the ramping
	// ambient mix, keeping total arrivals under the saturation knee.
	apps := []string{"gmm", "pagerank", "kmeans", "wordcount"}
	var st learn.Stats
	deadline := time.Now().Add(120 * time.Second)
	for round := 0; round < 600 && time.Now().Before(deadline); round++ {
		reqs := []PlaceRequest{{App: apps[round%len(apps)]}}
		for _, r := range eng.PlaceBatch(ctx, reqs) {
			if r.Err != nil {
				t.Fatalf("placement failed: %v", r.Err)
			}
		}
		eng.Advance(60)
		// A drift trip starts the candidate fit on a background goroutine;
		// wait it out before ticking on, so the fit's wall-clock duration
		// (slowed an order of magnitude under -race) cannot choose the
		// simulated instant — and so the training data — of the candidate.
		waitTrained(t, eng)
		st = lp.Snapshot()
		if round%50 == 0 {
			es := eng.Snapshot()
			t.Logf("round %d: sim %.0f running %d completed %d outcomes %d state %v drift %+v",
				round, es.SimTime, es.Running, es.Completed, st.Outcomes, st.State, st.Drift)
		}
		if st.Swaps >= 1 {
			break
		}
	}
	if st.Swaps < 1 {
		t.Fatalf("no model swap; final stats %+v", st)
	}
	if st.Retrains < 1 {
		t.Errorf("swap without a recorded retrain: %+v", st)
	}
	if st.Outcomes < uint64(learnTestConfig().Learn.MinOutcomes) {
		t.Errorf("swap with only %d outcomes captured", st.Outcomes)
	}
	if got := lp.Generation(); got < 2 {
		t.Errorf("generation after swap = %d, want ≥ 2", got)
	}
	if st.LastLiveErr <= 0 || st.LastShadowErr <= 0 {
		t.Errorf("shadow verdict errors not recorded: live %.3f cand %.3f",
			st.LastLiveErr, st.LastShadowErr)
	}
	// Post-swap prediction error improves: with a strict shadow margin the
	// verdict only promotes a candidate that beat the live model on the
	// same admissions.
	if st.LastShadowErr >= st.LastLiveErr {
		t.Errorf("promoted candidate did not improve: shadow %.3f >= live %.3f",
			st.LastShadowErr, st.LastLiveErr)
	}
	// Swap-time quantization contract: the re-derived int8 twin must agree
	// with the new float model on replayed recent admissions (≤ 1% flips).
	if st.LastQuantFlipRate < 0 || st.LastQuantFlipRate > 0.01 {
		t.Errorf("quantized-twin flip rate at swap = %.4f, want [0, 0.01]", st.LastQuantFlipRate)
	}

	// The swap is audited and subsequent decisions carry the new generation.
	recs := eng.audit.Snapshot()
	swapSeen, postSwapGen := false, false
	for _, r := range recs {
		if r.Event == "model-swap" {
			swapSeen = true
			if r.ModelGen < 2 || r.Reason != "model-swap" {
				t.Errorf("malformed swap record: %+v", r)
			}
			continue
		}
		if swapSeen && r.ModelGen >= 2 {
			postSwapGen = true
		}
	}
	if !swapSeen {
		t.Error("no model-swap record in the audit log")
	}
	// Post-swap decisions exist only if the loop swapped before the last
	// batch; place one more to make the assertion unconditional.
	eng.PlaceBatch(ctx, []PlaceRequest{{App: "gmm", DryRun: true}})
	for _, r := range eng.audit.Snapshot() {
		if r.Event == "" && r.ModelGen >= 2 {
			postSwapGen = true
		}
	}
	if !postSwapGen {
		t.Error("no post-swap decision carries the new model generation")
	}

}

// TestLearnMetricsRender: the learn block renders its full series set on a
// live engine's metric registry.
func TestLearnMetricsRender(t *testing.T) {
	eng := tinyEngine(t, learnTestConfig())
	m := NewMetrics()
	eng.RegisterMetrics(m)
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, series := range []string{
		"adrias_learn_model_generation 1",
		"adrias_learn_state 0",
		"adrias_learn_buffer_size",
		"adrias_learn_pending",
		"adrias_learn_outcomes_total",
		"adrias_learn_drift_err_mean_local",
		"adrias_learn_drift_armed",
		"adrias_learn_retrains_total",
		"adrias_learn_swaps_total",
		"adrias_learn_last_quant_flip_rate",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
}

// TestServeHotPathZeroAllocWithLearn: arming the learning loop must not
// cost the dry-run admission hot path its zero-allocation steady state —
// outcome capture only engages on deployed placements.
func TestServeHotPathZeroAllocWithLearn(t *testing.T) {
	f := newHotPathFixtureCfg(t, EngineConfig{Seed: 21, Quantized: true, Learn: &learn.Config{}})
	ctx := context.Background()
	f.run(t, ctx)
	if n := testing.AllocsPerRun(20, func() { f.run(t, ctx) }); n > 0 {
		t.Errorf("hot path with learner allocates %.1f/op, want 0", n)
	}
}
