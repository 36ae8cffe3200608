package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMetricNamesMatchBenchmarkJSON checks that the result line's metric
// names are exactly the ones BENCHMARK.json at the repository root lists,
// and that every workload it lists exists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m metrics) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	// whatif-http stays runnable by hand but is left out of BENCHMARK.json
	// (see README.md), so the listed workloads need only exist.
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark lacks", w.Name)
		}
	}

	d := fakeDriver()
	e2e := d.endToEnd(1, quality{})
	e2e.set("setup_s", 1, "s", 1)
	if got, want := names(spec.EndToEnd), keys(e2e.pick(endToEndNames)); !equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, result line has %v", got, want)
	}
	pl := d.perLayer(quality{}, layerReport{self: map[string]float64{}}, 0)
	if got, want := names(spec.PerLayer), keys(pl); !equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v,\ntraced result line has %v", got, want)
	}
}

// fakeDriver is a driver after an empty traced run.
func fakeDriver() *driver {
	now := time.Now()
	d := &driver{
		w:      workloads[0],
		ph:     phases{bounds: []time.Time{now, now.Add(time.Second), now.Add(2 * time.Second), now.Add(3 * time.Second)}},
		traced: 2,
	}
	for i := 0; i < 3; i++ {
		d.tallies = append(d.tallies, &tally{status: map[int]int{}})
		d.snaps = append(d.snaps, snapshot{prom: map[string]float64{}})
	}
	d.ticks = make([]tickStats, 3)
	return d
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
