package main

import (
	"math/rand"
	"time"
)

type loadMode int

const (
	closedHTTP   loadMode = iota // callers wait for each reply, over HTTP
	openHTTP                     // seeded Poisson arrivals, over HTTP
	closedInproc                 // callers wait for each reply, calling Service.Place
)

// workload is one traffic mix over one service topology.
type workload struct {
	name     string
	mode     loadMode
	conc     int     // closed-loop callers (HTTP connections for closedHTTP)
	rate     float64 // open-loop arrivals per second
	dryRun   bool
	nodes    int
	replicas int
	learn    bool
	// The benchmark advances the testbed simPerTick simulated seconds
	// every tick of wall time.
	tick       time.Duration
	simPerTick float64
	// traceEvery keeps the spans of one request in traceEvery during the
	// traced phase, bounding span memory on the fastest workload.
	traceEvery int
	// stationary arms the steady-state checks of a deploying workload.
	stationary bool
	// warmup is the unmeasured load before the measured phase: long enough
	// for caches and, on a deploying workload, the rack's occupancy to
	// settle.
	warmup time.Duration
}

var workloads = []workload{
	{
		name: "whatif-http", mode: closedHTTP, conc: 2, dryRun: true,
		nodes: 1, replicas: 1, tick: time.Second, simPerTick: 1, traceEvery: 1,
		warmup: time.Second,
	},
	{
		name: "rack-admit", mode: openHTTP, rate: 200,
		nodes: 32, replicas: 2, learn: true,
		tick: 10 * time.Millisecond, simPerTick: 2.5, traceEvery: 1, stationary: true,
		warmup: 8 * time.Second,
	},
	{
		name: "surge-inproc", mode: closedInproc, conc: 64, dryRun: true,
		nodes: 2, replicas: 2, tick: time.Second, simPerTick: 1, traceEvery: 16,
		warmup: time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// appSequence draws n application names uniformly from names.
func appSequence(seed int64, names []string, n int) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = names[r.Intn(len(names))]
	}
	return out
}

// poissonSchedule returns the arrival offsets of a Poisson process at rate
// per second over span, ascending.
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= span.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
