package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adrias/internal/learn"
	"adrias/internal/obs"
	"adrias/internal/serve"
)

// phases splits a run's wall time at bounds: phase i runs from bounds[i]
// to bounds[i+1]. Phase 0 is warm-up; the rest are measured.
type phases struct{ bounds []time.Time }

func (p phases) n() int { return len(p.bounds) - 1 }

// at returns the phase holding t (0 before the run), n() after it.
func (p phases) at(t time.Time) int {
	for i := 1; i < len(p.bounds); i++ {
		if t.Before(p.bounds[i]) {
			return i - 1
		}
	}
	return p.n()
}

func (p phases) dur(i int) time.Duration { return p.bounds[i+1].Sub(p.bounds[i]) }

// outcome is one request's result as the caller saw it.
type outcome struct {
	status int // HTTP status; 200 for an in-process success; 0 on transport error
	a      answer
	body   []byte
	err    error
}

// reqTrace is one sampled request of the traced phase.
type reqTrace struct {
	trace      string
	start, end time.Time
	program    obs.Trace
	found      bool
}

// keptAnswer is an OK answer of a deploying workload, kept for the joins
// with the wide-event log.
type keptAnswer struct {
	trace, app, tier string
	node             int
}

// tally aggregates one phase's requests.
type tally struct {
	attempted, ok, remote, failed, invalid, transport int
	status                                            map[int]int
	lat, late                                         []float64 // ms
	okPerWindow                                       []int     // OK answers by throughput window of their start
	answers                                           []keptAnswer
	traces                                            []reqTrace
	bad                                               []string
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.remote += o.remote
	t.failed += o.failed
	t.invalid += o.invalid
	t.transport += o.transport
	for k, v := range o.status {
		t.status[k] += v
	}
	for len(t.okPerWindow) < len(o.okPerWindow) {
		t.okPerWindow = append(t.okPerWindow, 0)
	}
	for k, v := range o.okPerWindow {
		t.okPerWindow[k] += v
	}
	t.lat = append(t.lat, o.lat...)
	t.late = append(t.late, o.late...)
	t.answers = append(t.answers, o.answers...)
	t.traces = append(t.traces, o.traces...)
	for _, b := range o.bad {
		t.keepBad(b)
	}
}

func (t *tally) keepBad(s string) {
	if len(t.bad) < maxBad {
		t.bad = append(t.bad, s)
	}
}

// maxBad is how many offending answers a run prints.
const maxBad = 5

// throughputWindow is the length of the windows whose median OK rate is
// reported as throughput, so that a stall outside the program (another
// tenant of the machine) moves one window rather than the figure.
const throughputWindow = time.Second

// tickStats aggregates one phase of the tick driver.
type tickStats struct {
	durs          []float64 // ms per Advance
	spans         []span
	running       []float64 // rack-wide running instances, sampled
	remoteFreeMin float64
	pendingMax    int
	sampled       bool
}

// snapshot is the service's counters at a phase boundary.
type snapshot struct {
	sim       float64
	completed int
	prom      map[string]float64
	learn     learn.Stats
	mem       runtime.MemStats
	cpu       time.Duration // process user+system CPU time
}

// driver runs one workload against a stack.
type driver struct {
	w      workload
	st     *stack
	val    *validator
	apps   []string
	ph     phases
	traced int // index of the traced phase; 0 when the run is untraced
	epoch  time.Time

	next   atomic.Int64
	client *http.Client
	bodies map[string][]byte

	tallies []*tally // one per phase, merged from the callers'
	ticks   []tickStats
	snaps   []snapshot
	batches []batchRecord
	handler []handlerRecord
}

func newDriver(w workload, st *stack, apps []string, ph phases, traced int) *driver {
	d := &driver{
		w: w, st: st, apps: apps, ph: ph, traced: traced, epoch: ph.bounds[0],
		val:    newValidator(st.sys.Registry, w.nodes),
		bodies: make(map[string][]byte),
	}
	for _, a := range apps {
		if _, ok := d.bodies[a]; !ok {
			// A struct of a string and a bool always marshals.
			b, _ := json.Marshal(serve.PlaceHTTPRequest{App: a, DryRun: w.dryRun})
			d.bodies[a] = b
		}
	}
	// One generator on at most nproc (2) keep-alive connections; an open
	// loop's requests beyond that queue in the transport, from their due
	// time.
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	for i := 0; i < ph.n(); i++ {
		d.tallies = append(d.tallies, &tally{status: make(map[int]int)})
	}
	d.ticks = make([]tickStats, ph.n())
	return d
}

func (d *driver) app(i int) string { return d.apps[i%len(d.apps)] }

func (d *driver) doHTTP(app string) outcome {
	resp, err := d.client.Post(d.st.url, "application/json", bytes.NewReader(d.bodies[app]))
	if err != nil {
		return outcome{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{status: resp.StatusCode, err: err}
	}
	o := outcome{status: resp.StatusCode, body: body}
	if resp.StatusCode == http.StatusOK {
		o.err = json.Unmarshal(body, &o.a)
	}
	return o
}

func (d *driver) doInproc(app string) outcome {
	r, err := d.st.svc.Place(context.Background(), serve.PlaceRequest{App: app, DryRun: d.w.dryRun})
	if err != nil {
		return outcome{status: statusOf(err), body: []byte(err.Error())}
	}
	return outcome{status: http.StatusOK, a: answer{
		App: r.App, Class: r.Class.String(), Tier: r.Tier.String(),
		Reason: r.Reason, Node: r.Node, TraceID: r.TraceID,
	}}
}

// statusOf maps a Service.Place error to the status the HTTP layer would
// answer with.
func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrUnknownApp):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// record folds one request into t. start is the due time (open loop) or
// the send time (closed loop); sent is when the request actually left.
func (d *driver) record(t *tally, phase, seq int, app string, o outcome, start, sent, end time.Time) {
	t.attempted++
	if d.w.mode == openHTTP {
		t.late = append(t.late, ms(sent.Sub(start)))
	}
	if o.status == 0 {
		t.failed++
		t.transport++
		t.keepBad(fmt.Sprintf("transport: %v", o.err))
		return
	}
	t.status[o.status]++
	if o.status != http.StatusOK {
		t.failed++
		t.keepBad(fmt.Sprintf("status %d: %s", o.status, bytes.TrimSpace(o.body)))
		return
	}
	err := o.err
	if err == nil {
		err = d.val.check(app, o.a)
	}
	if err != nil {
		t.failed++
		t.invalid++
		t.keepBad(fmt.Sprintf("invalid answer (%v): %s", err, bytes.TrimSpace(o.body)))
		return
	}
	t.ok++
	k := int(start.Sub(d.ph.bounds[phase]) / throughputWindow)
	for len(t.okPerWindow) <= k {
		t.okPerWindow = append(t.okPerWindow, 0)
	}
	t.okPerWindow[k]++
	t.lat = append(t.lat, ms(end.Sub(start)))
	if o.a.Tier == "remote" {
		t.remote++
	}
	if !d.w.dryRun {
		t.answers = append(t.answers, keptAnswer{trace: o.a.TraceID, app: app, tier: o.a.Tier, node: o.a.Node})
	}
	if d.traced > 0 && phase == d.traced && seq%d.w.traceEvery == 0 {
		rt := reqTrace{trace: o.a.TraceID, start: start, end: end}
		rt.program, rt.found = d.st.svc.Telemetry().Tracer.Find(o.a.TraceID)
		t.traces = append(t.traces, rt)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs conc callers back to back until the run ends.
func (d *driver) closedLoop(do func(string) outcome) {
	n := d.ph.n()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < d.w.conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]tally, n)
			for i := range local {
				local[i].status = make(map[int]int)
			}
			for {
				start := time.Now()
				phase := d.ph.at(start)
				if phase >= n {
					break
				}
				seq := int(d.next.Add(1) - 1)
				app := d.app(seq)
				o := do(app)
				d.record(&local[phase], phase, seq, app, o, start, start, time.Now())
			}
			mu.Lock()
			for i := range local {
				d.tallies[i].merge(&local[i])
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// openLoop sends the seeded Poisson schedule, each request from its own
// goroutine at its due time, and waits for every reply.
func (d *driver) openLoop(schedule []time.Duration) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for seq, off := range schedule {
		due := d.epoch.Add(off)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(seq int, due time.Time) {
			defer wg.Done()
			app := d.app(seq)
			sent := time.Now()
			o := d.doHTTP(app)
			end := time.Now()
			phase := d.ph.at(due)
			mu.Lock()
			d.record(d.tallies[phase], phase, seq, app, o, due, sent, end)
			mu.Unlock()
		}(seq, due)
	}
	wg.Wait()
}

// tickLoop advances the testbed every tick until stop closes, timing each
// Advance and sampling the rack twice a second.
func (d *driver) tickLoop(stop <-chan struct{}) {
	t := time.NewTicker(d.w.tick)
	defer t.Stop()
	sampleEvery := int(500 * time.Millisecond / d.w.tick)
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	for k := 0; ; k++ {
		select {
		case <-t.C:
		case <-stop:
			return
		}
		start := time.Now()
		d.st.eng.Advance(d.w.simPerTick)
		end := time.Now()
		phase := d.ph.at(start)
		if phase >= d.ph.n() {
			continue
		}
		ts := &d.ticks[phase]
		ts.durs = append(ts.durs, ms(end.Sub(start)))
		if d.traced > 0 && phase == d.traced {
			ts.spans = append(ts.spans, span{Name: "engine.advance", Layer: layerEngine,
				Start: int64(start.Sub(d.epoch)), End: int64(end.Sub(d.epoch))})
		}
		if k%sampleEvery == 0 {
			d.sample(ts)
		}
	}
}

func (d *driver) sample(ts *tickStats) {
	v := d.st.eng.View()
	running := 0
	for i, o := range v.Nodes {
		running += o.Running
		if (!ts.sampled && i == 0) || o.RemoteFreeGB < ts.remoteFreeMin {
			ts.remoteFreeMin = o.RemoteFreeGB
		}
	}
	ts.sampled = true
	ts.running = append(ts.running, float64(running))
	if l := d.st.eng.Learner(); l != nil {
		if p := l.Snapshot().Pending; p > ts.pendingMax {
			ts.pendingMax = p
		}
	}
}

func (d *driver) snapshot() (snapshot, error) {
	s := snapshot{sim: d.st.eng.SimNow(), completed: d.st.eng.Snapshot().Completed}
	var err error
	if s.prom, err = d.st.scrape(); err != nil {
		return s, err
	}
	if l := d.st.eng.Learner(); l != nil {
		s.learn = l.Snapshot()
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	return s, nil
}

// run drives the whole run: load, ticks, phase boundaries with counter
// snapshots, and the probes switched on for the traced phase only.
func (d *driver) run(schedule []time.Duration) error {
	stopTicks := make(chan struct{})
	ticksDone := make(chan struct{})
	go func() {
		defer close(ticksDone)
		d.tickLoop(stopTicks)
	}()
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		switch d.w.mode {
		case closedHTTP:
			d.closedLoop(d.doHTTP)
		case openHTTP:
			d.openLoop(schedule)
		case closedInproc:
			d.closedLoop(d.doInproc)
		}
	}()
	var err error
	for i := 1; i <= d.ph.n(); i++ {
		time.Sleep(time.Until(d.ph.bounds[i]))
		s, serr := d.snapshot()
		err = errors.Join(err, serr)
		d.snaps = append(d.snaps, s)
		if d.traced > 0 && i == d.traced {
			d.setProbes(true)
		}
	}
	d.setProbes(false)
	<-loadDone
	close(stopTicks)
	<-ticksDone
	if d.st.engProbe != nil {
		d.batches = d.st.engProbe.take()
		d.handler = d.st.httpProbe.take()
	}
	return err
}

func (d *driver) setProbes(on bool) {
	if d.st.engProbe != nil {
		d.st.engProbe.on.Store(on)
		d.st.httpProbe.on.Store(on)
	}
}

// delta returns a counter's growth over phase i (snaps[k] is taken at
// bounds[k+1], so phase i ≥ 1 spans snaps[i-1]..snaps[i]).
func (d *driver) delta(i int, series string) float64 {
	return d.snaps[i].prom[series] - d.snaps[i-1].prom[series]
}

// processCPU returns the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
