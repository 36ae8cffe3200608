package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"adrias"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(42, 200, 10*time.Second)
	b := poissonSchedule(42, 200, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(43, 200, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 arrivals expected; a Poisson count stays within ±5 sd.
	if n := len(a); n < 2000-5*45 || n > 2000+5*45 {
		t.Fatalf("%d arrivals in 10 s at 200/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= 10*time.Second {
		t.Fatalf("arrival at %v past the span", last)
	}
}

func TestAppSequenceDeterministic(t *testing.T) {
	names := []string{"a", "b", "c"}
	a, b := appSequence(7, names, 100), appSequence(7, names, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different application orders")
	}
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	if len(seen) != len(names) {
		t.Fatalf("100 draws covered %d of %d applications", len(seen), len(names))
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP adrias_serve_batches_total Engine batch calls.
# TYPE adrias_serve_batches_total counter
adrias_serve_batches_total 1234
adrias_serve_requests_total{outcome="ok"} 99
adrias_serve_requests_total{outcome="over load"} 3

adrias_serve_sim_time_seconds 1.5e+03
`
	got, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"adrias_serve_batches_total":                       1234,
		`adrias_serve_requests_total{outcome="ok"}`:        99,
		`adrias_serve_requests_total{outcome="over load"}`: 3,
		"adrias_serve_sim_time_seconds":                    1500,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseProm = %v, want %v", got, want)
	}
	if _, err := parseProm("adrias_x notanumber\n"); err == nil {
		t.Fatal("unparsable value accepted")
	}
	if _, err := parseProm("adrias_x\n"); err == nil {
		t.Fatal("sample without a value accepted")
	}
}

func TestValidator(t *testing.T) {
	reg := adrias.NewRegistry()
	be := reg.Spark()[0]
	v := newValidator(reg, 4)
	good := answer{App: be.Name, Class: "BE", Tier: "remote", Reason: "be-slack", Node: 3, TraceID: "t-1"}
	if err := v.check(be.Name, good); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	bad := map[string]func(a *answer){
		"tier":     func(a *answer) { a.Tier = "cxl" },
		"class":    func(a *answer) { a.Class = "LC" },
		"reason":   func(a *answer) { a.Reason = "because" },
		"node":     func(a *answer) { a.Node = 4 },
		"negative": func(a *answer) { a.Node = -1 },
		"trace":    func(a *answer) { a.TraceID = "" },
		"app":      func(a *answer) { a.App = "other" },
	}
	for name, mutate := range bad {
		a := good
		mutate(&a)
		if err := v.check(be.Name, a); err == nil {
			t.Errorf("%s: invalid answer accepted: %+v", name, a)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// request 0..100 ⊃ http 10..90 ⊃ {queue_wait 20..50, coalesce 40..60}
	// and engine 60..85 ⊃ {perf_predict 65..75, decide 74..80}.
	spans := []span{
		{Name: "request", Layer: layerLoadgen, Start: 0, End: 100},
		{Name: "http", Layer: layerHTTP, Start: 10, End: 90},
		{Name: "queue_wait", Layer: layerAdmission, Start: 20, End: 50},
		{Name: "coalesce", Layer: layerAdmission, Start: 40, End: 60},
		{Name: "engine.place_batch", Layer: layerEngine, Start: 60, End: 85},
		{Name: "perf_predict", Layer: layerModels, Start: 65, End: 75},
		{Name: "decide", Layer: layerCore, Start: 74, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		layerLoadgen:   20, // 100 - http's 80
		layerHTTP:      15, // 80 - admission's 40 - engine's 25
		layerAdmission: 40, // union of 20..60; nothing deeper overlaps
		layerEngine:    10, // 25 - union(65..80) = 15
		layerModels:    10,
		layerCore:      6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	// Core and models overlap by 1 ns at 74..75; everything else tiles.
	if sum != 100+1 {
		t.Fatalf("self times sum to %d", sum)
	}
}

func TestTraceIDOf(t *testing.T) {
	body := []byte(`{"app":"gmm","tier":"remote","trace_id":"ab12-3f","node":2}`)
	if got := traceIDOf(body); got != "ab12-3f" {
		t.Fatalf("traceIDOf = %q", got)
	}
	if got := traceIDOf([]byte(`{"error":"x"}`)); got != "" {
		t.Fatalf("traceIDOf without a trace = %q", got)
	}
}
