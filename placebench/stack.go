package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adrias"
	"adrias/internal/bus"
	"adrias/internal/learn"
	"adrias/internal/models"
	"adrias/internal/obs"
	"adrias/internal/serve"
)

// eventRing sizes the wide-event ring so every admission and outcome of a
// run stays retained for the trace-ID joins (rack-admit emits about 2 per
// request; 200 req/s for at most a minute).
const eventRing = 1 << 15

// qosFactor is adrias-serve's default: an LC app's p99 target is its
// BaseP50Ms times this.
const qosFactor = 20

// stack is the placement service assembled the way cmd/adrias-serve
// assembles it: fast-trained models, a SystemEngine with the binary's
// defaults, the admission Service, its SLO and wide-event wiring, and the
// HTTP handler on a loopback listener. The benchmark drives Advance itself.
type stack struct {
	sys  *adrias.System
	eng  *serve.SystemEngine
	svc  *serve.Service
	sink *obs.EventSink
	bus  *bus.Bus
	// Probes exist only in a traced run; they time calls into the engine
	// and the handler while switched on and are pass-throughs otherwise.
	engProbe  *engineProbe
	httpProbe *httpProbe

	url    string
	srv    *http.Server
	served chan error
}

func buildStack(w workload, traced bool) (*stack, error) {
	sys, err := adrias.Train(adrias.FastOptions())
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var learnCfg *learn.Config
	if w.learn {
		learnCfg = &learn.Config{}
	}
	events := bus.New()
	sink := obs.NewEventSink(eventRing, 1, nil)
	eng := serve.NewSystemEngine(sys.Pred, sys.Watch, sys.Registry, serve.EngineConfig{
		Beta:        0.8,
		QoSFactor:   qosFactor,
		AmbientRate: 0.08,
		Seed:        1,
		Nodes:       w.nodes,
		Bus:         events,
		Events:      sink,
		Quantized:   true,
		Learn:       learnCfg,
	})
	st := &stack{sys: sys, eng: eng, sink: sink, bus: events, served: make(chan error, 1)}
	var engine serve.Engine = eng
	if traced {
		st.engProbe = &engineProbe{inner: eng}
		engine = st.engProbe
	}
	st.svc = serve.NewService(engine, serve.Config{
		BatchWindow:    2 * time.Millisecond,
		MaxBatch:       64,
		QueueDepth:     256,
		DefaultTimeout: 2 * time.Second,
		Replicas:       w.replicas,
	})
	eng.RegisterMetrics(st.svc.Metrics())
	tel := st.svc.Telemetry()
	eng.RegisterObs(tel)
	slo, err := serve.BuildSLO(serve.SLOConfig{}, st.svc.Metrics(), eng)
	if err != nil {
		return nil, err
	}
	eng.AttachSLO(slo)
	tel.AttachSLO(slo)
	tel.AttachEvents(sink)
	events.RegisterMetrics(tel.Registry)
	models.RegisterMetrics(tel.Registry)

	var h http.Handler = serve.NewHandler(st.svc, eng)
	if traced {
		st.httpProbe = &httpProbe{inner: h}
		h = st.httpProbe
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String() + "/v1/place"
	st.srv = &http.Server{Handler: h}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// close drains the service, shuts the listener down and waits for it.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{st.svc.Close(ctx), st.srv.Shutdown(ctx)}
	if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	st.bus.Close()
	return errors.Join(errs...)
}

// scrape renders the service's whole /metrics registry and parses it.
func (st *stack) scrape() (map[string]float64, error) {
	var b bytes.Buffer
	st.svc.Telemetry().Registry.WritePrometheus(&b)
	return parseProm(b.String())
}

// batchRecord is one engine call seen by the probe.
type batchRecord struct {
	start, end time.Time
	traces     []string
	prog       map[string]time.Duration // program spans recorded in the batch context
	reasons    []string
	fallbacks  int
}

// engineProbe wraps the engine and every shard it mints, timing each
// PlaceBatch and reading the spans the program recorded for the batch.
type engineProbe struct {
	inner *serve.SystemEngine
	on    atomic.Bool

	mu      sync.Mutex
	batches []batchRecord
}

func (p *engineProbe) PlaceBatch(ctx context.Context, reqs []serve.PlaceRequest) []serve.PlaceResult {
	return p.observe(ctx, p.inner, reqs)
}

// NewShard implements serve.ShardedEngine: each shard is probed too.
func (p *engineProbe) NewShard(id int) serve.Engine {
	sh := p.inner.NewShard(id)
	if sh == nil {
		return nil
	}
	return &shardProbe{p: p, inner: sh}
}

func (p *engineProbe) observe(ctx context.Context, eng serve.Engine, reqs []serve.PlaceRequest) []serve.PlaceResult {
	if !p.on.Load() {
		return eng.PlaceBatch(ctx, reqs)
	}
	start := time.Now()
	res := eng.PlaceBatch(ctx, reqs)
	end := time.Now()
	b := batchRecord{start: start, end: end, traces: make([]string, len(reqs)),
		prog: make(map[string]time.Duration), reasons: make([]string, 0, len(res))}
	for i, r := range reqs {
		b.traces[i] = r.TraceID
	}
	if rec := obs.RecorderFrom(ctx); rec != nil {
		for _, s := range rec.Spans() {
			b.prog[s.Name] += s.Dur
		}
	}
	for _, r := range res {
		if r.Err != nil {
			continue
		}
		b.reasons = append(b.reasons, r.Reason)
		if r.Fallback {
			b.fallbacks++
		}
	}
	p.mu.Lock()
	p.batches = append(p.batches, b)
	p.mu.Unlock()
	return res
}

func (p *engineProbe) take() []batchRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.batches
	p.batches = nil
	return out
}

type shardProbe struct {
	p     *engineProbe
	inner serve.Engine
}

func (s *shardProbe) PlaceBatch(ctx context.Context, reqs []serve.PlaceRequest) []serve.PlaceResult {
	return s.p.observe(ctx, s.inner, reqs)
}

// handlerRecord is one HTTP exchange seen by the middleware.
type handlerRecord struct {
	start, end time.Time
	status     int
	trace      string
}

// httpProbe is middleware around serve.NewHandler timing each request
// and capturing its status and the trace ID of the response body.
type httpProbe struct {
	inner http.Handler
	on    atomic.Bool

	mu   sync.Mutex
	recs []handlerRecord
}

func (h *httpProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	rw := &capture{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(rw, r)
	end := time.Now()
	rec := handlerRecord{start: start, end: end, status: rw.status, trace: traceIDOf(rw.body)}
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
}

func (h *httpProbe) take() []handlerRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.recs
	h.recs = nil
	return out
}

type capture struct {
	http.ResponseWriter
	status int
	body   []byte
}

func (c *capture) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *capture) Write(b []byte) (int, error) {
	c.body = append(c.body, b...)
	return c.ResponseWriter.Write(b)
}

// traceIDOf extracts the "trace_id" string of a placement response body
// without decoding the rest.
func traceIDOf(body []byte) string {
	key := []byte(`"trace_id":"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
