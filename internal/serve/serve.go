// Package serve exposes the Adrias orchestrator as a long-lived placement
// service — the admission front-end of the paper's Fig. 7 deployment, where
// arriving applications ask the orchestrator for a memory tier before they
// start. The service accepts concurrent placement requests, coalesces them
// inside a small batching window, and feeds whole batches through the
// predictor's lockstep-batched inference (one Ŝ forecast and one batched
// model call per class instead of up to three inferences per request).
//
// The admission pipeline is:
//
//	Place(ctx) → bounded queue → batcher (coalescing window) → Engine.PlaceBatch
//
// with per-request deadlines (context propagation end to end), explicit
// backpressure when the queue is full (ErrOverloaded, an HTTP 429), and a
// graceful drain on Close that serves everything already admitted before
// shutting down. NewHandler wraps the service in an HTTP/JSON API with
// /healthz and Prometheus-style /metrics.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adrias/internal/memsys"
	"adrias/internal/obs"
	"adrias/internal/workload"
)

// Service errors. Handlers map them to HTTP statuses: ErrOverloaded → 429,
// ErrClosed → 503, ErrUnknownApp → 400; context.DeadlineExceeded → 504.
var (
	// ErrOverloaded is returned when the admission queue is full — the
	// service's explicit backpressure signal.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed is returned once draining has begun.
	ErrClosed = errors.New("serve: service draining")
	// ErrUnknownApp is returned for applications absent from the registry.
	ErrUnknownApp = errors.New("serve: unknown application")
)

// PlaceRequest asks for a memory-tier placement of one application.
type PlaceRequest struct {
	App string
	// DryRun decides without deploying the application onto the testbed.
	DryRun bool
	// TraceID identifies the request across /debug/traces and
	// /debug/decisions. Place mints one when empty; callers may supply
	// their own to correlate with an external tracing system.
	TraceID string
}

// PlaceResult is one placement decision.
type PlaceResult struct {
	App        string
	Class      workload.Class
	Tier       memsys.Tier
	Node       int     // rack node the placement targets (0 in single-node runs)
	PredLocalS float64 // predicted perf on local (0 when not predicted)
	PredRemS   float64 // predicted perf on remote
	ColdStart  bool    // the app had no signature; deployed remote + captured
	Fallback   bool    // prediction failed or pool full; safe default won
	Reason     string  // which decision rule produced the tier
	BatchSize  int     // number of requests decided in the same batch
	TraceID    string  // the request's trace ID (see PlaceRequest.TraceID)
	Err        error   // per-request failure (e.g. unknown application)
}

// Engine computes placement decisions for a coalesced batch of admitted
// requests. results[i] answers reqs[i]. ctx carries the batch's
// obs.SpanRecorder (when tracing) and is otherwise advisory — per-request
// deadlines are enforced by the service, not the engine.
type Engine interface {
	PlaceBatch(ctx context.Context, reqs []PlaceRequest) []PlaceResult
}

// ShardedEngine is an Engine that mints per-replica deciders. Each shard is
// an Engine safe to run concurrently with its siblings (typically by
// deciding optimistically over a shared snapshot and committing through a
// sequencer). The service gives every replica its own shard — Replicas=1
// is the one-shard case. SystemEngine's shards are generation-aware: with
// the online learning loop armed they re-clone from the promoted live
// predictor within one batch of a hot swap (DESIGN.md §14).
type ShardedEngine interface {
	Engine
	NewShard(id int) Engine
}

// Config tunes the admission pipeline. The zero value selects the defaults.
type Config struct {
	// BatchWindow bounds how long the batcher waits, after the first
	// request arrives, for more requests to coalesce (default 2 ms;
	// negative disables waiting — only already-queued requests join the
	// batch). Once a batch has company, an idle queue releases it
	// immediately rather than sleeping out the whole window.
	BatchWindow time.Duration
	// MaxBatch caps the batch size (default 64; 1 degenerates to
	// one-inference-per-request, the unbatched baseline).
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (default 256).
	QueueDepth int
	// DefaultTimeout is applied to requests whose context carries no
	// deadline, so nothing can wait unboundedly (default 2 s).
	DefaultTimeout time.Duration
	// TraceCapacity bounds the /debug/traces ring (default 512).
	TraceCapacity int
	// AuditCapacity bounds the /debug/decisions ring (default 1024).
	AuditCapacity int
	// Replicas sets how many batcher goroutines pull from the admission
	// queue (default 1). With a ShardedEngine every replica — the only one
	// included — gets its own decider shard, so batches decide concurrently
	// over the shared rack state and placement throughput scales with
	// replicas; other engines are shared by the replicas.
	Replicas int
}

func (c Config) withDefaults() Config {
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 512
	}
	if c.AuditCapacity <= 0 {
		c.AuditCapacity = 1024
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// pending is one admitted request waiting for its batch to be served.
type pending struct {
	ctx  context.Context
	req  PlaceRequest
	enq  time.Time        // admission time: anchors queue_wait and the trace
	done chan PlaceResult // buffered(1): the batcher never blocks on delivery
}

// Service is the batching admission front-end over an Engine. Safe for
// concurrent use.
type Service struct {
	cfg Config
	eng Engine
	met *Metrics
	tel *Telemetry

	queue     chan *pending
	quit      chan struct{}
	drained   chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool
}

// NewService starts the admission batcher over eng.
func NewService(eng Engine, cfg Config) *Service {
	cfg = cfg.withDefaults()
	met := NewMetrics()
	s := &Service{
		cfg:     cfg,
		eng:     eng,
		met:     met,
		tel:     newTelemetry(met, cfg.TraceCapacity, cfg.AuditCapacity),
		queue:   make(chan *pending, cfg.QueueDepth),
		quit:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	s.met.queueDepth = func() int { return len(s.queue) }
	// Replica batchers: each pulls from the shared admission queue with its
	// own decider shard when the engine mints them; otherwise replicas
	// share eng (safe — engines serialize internally) and scale only the
	// batching, not the inference. drained closes after every replica has
	// finished its final drain sweep.
	var wg sync.WaitGroup
	for i := 0; i < cfg.Replicas; i++ {
		worker := eng
		if sh, ok := eng.(ShardedEngine); ok {
			worker = sh.NewShard(i)
		}
		wg.Add(1)
		go func(worker Engine) {
			defer wg.Done()
			s.run(worker)
		}(worker)
	}
	go func() {
		wg.Wait()
		close(s.drained)
	}()
	return s
}

// Metrics returns the service's metric set (shared, live).
func (s *Service) Metrics() *Metrics { return s.met }

// Telemetry returns the service's observability surfaces (shared, live).
func (s *Service) Telemetry() *Telemetry { return s.tel }

// Place admits one placement request: it enqueues, waits for the batcher,
// and returns the decision. It returns ErrOverloaded immediately when the
// queue is full, ErrClosed once draining has begun, and the context error
// as soon as the request's deadline expires — even if the request is still
// queued (the batcher discards expired entries without running them).
func (s *Service) Place(ctx context.Context, req PlaceRequest) (PlaceResult, error) {
	start := time.Now()
	if s.closed.Load() {
		s.met.ReqClosed.Add(1)
		return PlaceResult{}, ErrClosed
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		s.met.ReqDeadline.Add(1)
		return PlaceResult{}, err
	}
	if req.TraceID == "" {
		req.TraceID = obs.NewTraceID()
	}
	p := &pending{ctx: ctx, req: req, enq: start, done: make(chan PlaceResult, 1)}
	select {
	case s.queue <- p:
	default:
		s.met.ReqOverload.Add(1)
		return PlaceResult{}, ErrOverloaded
	}
	deliver := func(r PlaceResult) (PlaceResult, error) {
		s.met.Latency.ObserveDuration(time.Since(start))
		if r.Err != nil {
			s.met.ReqError.Add(1)
			return r, r.Err
		}
		s.met.ReqOK.Add(1)
		if r.Tier == memsys.TierRemote {
			s.met.PlacedRemote.Add(1)
		} else {
			s.met.PlacedLocal.Add(1)
		}
		if r.ColdStart {
			s.met.ColdStarts.Add(1)
		}
		if r.Fallback {
			s.met.Fallbacks.Add(1)
		}
		return r, nil
	}
	select {
	case r := <-p.done:
		return deliver(r)
	case <-s.drained:
		// Shutdown race: this request passed the closed check but may have
		// been enqueued after the drain loop's final sweep — nobody will
		// ever serve it. The batcher delivers results (buffered, never
		// blocking) before it closes drained, so a still-empty done channel
		// here means the request was truly stranded: fail fast with
		// ErrClosed instead of letting the caller wait out its deadline.
		select {
		case r := <-p.done:
			return deliver(r)
		default:
			s.met.ReqClosed.Add(1)
			return PlaceResult{}, ErrClosed
		}
	case <-ctx.Done():
		s.met.ReqDeadline.Add(1)
		s.met.Latency.ObserveDuration(time.Since(start))
		return PlaceResult{}, ctx.Err()
	}
}

// Close begins the graceful drain: no new requests are accepted, everything
// already queued is still decided, and Close returns when the batcher has
// exited (or ctx expires first, in which case the drain continues in the
// background).
func (s *Service) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.quit)
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is one replica's batcher goroutine: it coalesces queued requests into
// batches and serves them through its engine (a per-replica shard, or the
// shared engine when it does not shard). drained is closed by the
// service once every replica's drain sweep has returned.
func (s *Service) run(eng Engine) {
	for {
		select {
		case p := <-s.queue:
			s.serveBatch(eng, time.Now(), s.collect(p))
		case <-s.quit:
			// Drain: decide everything already admitted, then exit.
			for {
				select {
				case p := <-s.queue:
					s.serveBatch(eng, time.Now(), s.collect(p))
				default:
					return
				}
			}
		}
	}
}

// collect gathers a batch: the first request plus whatever else arrives
// within the batching window, capped at MaxBatch. A lone request waits up
// to the full window for company; once the batch has at least two members,
// an idle queue releases it immediately — when every in-flight client is
// already aboard, sleeping out the window adds latency without growing the
// batch. Idleness is confirmed by yielding to runnable producers rather
// than by a short timer: parking on a sub-millisecond timer costs ~1 ms of
// netpoll wake-up latency, which would swamp the inference time the batch
// exists to amortize.
func (s *Service) collect(first *pending) []*pending {
	batch := []*pending{first}
	// drain takes everything already queued and reports whether it got any.
	drain := func() bool {
		got := false
		for len(batch) < s.cfg.MaxBatch {
			select {
			case p := <-s.queue:
				batch = append(batch, p)
				got = true
				continue
			default:
			}
			break
		}
		return got
	}
	drain()
	if s.cfg.BatchWindow < 0 || s.cfg.MaxBatch <= 1 || len(batch) >= s.cfg.MaxBatch {
		return batch
	}
	deadline := time.Now().Add(s.cfg.BatchWindow)
	for len(batch) < s.cfg.MaxBatch && time.Now().Before(deadline) {
		if len(batch) > 1 {
			// Company aboard: give runnable producers a few chances to
			// enqueue, then ship as soon as the queue stays idle.
			idle := true
			for spin := 0; spin < 4; spin++ {
				runtime.Gosched()
				if drain() {
					idle = false
					break
				}
			}
			if idle {
				return batch
			}
			continue
		}
		// Lone request: sleep until company arrives or the window closes.
		// An arrival wakes the select through the channel, not the timer,
		// so this path does not pay the timer-granularity tax per batch.
		timer := time.NewTimer(time.Until(deadline))
		select {
		case p := <-s.queue:
			timer.Stop()
			batch = append(batch, p)
		case <-s.quit:
			// Draining: serve what we have without waiting out the window.
			timer.Stop()
			return batch
		case <-timer.C:
		}
	}
	return batch
}

// serveBatch discards expired requests, runs the rest through the engine in
// one call, and delivers the results. collectStart is when the batcher
// dequeued the batch's first request — the coalescing window opens there.
//
// Tracing: the engine call runs under one SpanRecorder for the whole batch
// (the model stages execute once per batch, so their spans are shared by
// every trace in it); queue_wait and coalesce are per-request, measured
// here. One assembled Trace per live request lands in the tracer ring.
func (s *Service) serveBatch(eng Engine, collectStart time.Time, batch []*pending) {
	live := make([]*pending, 0, len(batch))
	reqs := make([]PlaceRequest, 0, len(batch))
	for _, p := range batch {
		if p.ctx.Err() != nil {
			// The caller has already been released by its context; do not
			// spend model time on it.
			s.met.Expired.Add(1)
			continue
		}
		live = append(live, p)
		reqs = append(reqs, p.req)
	}
	if len(live) == 0 {
		return
	}
	s.met.Batches.Add(1)
	s.met.BatchedReqs.Add(uint64(len(live)))
	rec := obs.NewSpanRecorder()
	dispatch := time.Now()
	for _, p := range live {
		s.met.QueueWait.ObserveDuration(dispatch.Sub(p.enq))
	}
	coalesce := obs.Span{Name: "coalesce", Start: collectStart, Dur: dispatch.Sub(collectStart)}
	results := eng.PlaceBatch(obs.WithRecorder(context.Background(), rec), reqs)
	shared := rec.Spans()
	for i, p := range live {
		r := results[i]
		r.BatchSize = len(live)
		r.TraceID = p.req.TraceID
		stages := make([]obs.Span, 0, len(shared)+2)
		stages = append(stages,
			obs.Span{Name: "queue_wait", Start: p.enq, Dur: dispatch.Sub(p.enq)},
			coalesce)
		stages = append(stages, shared...)
		s.tel.Tracer.Record(obs.Trace{ID: p.req.TraceID, App: p.req.App, Start: p.enq, Stages: stages})
		p.done <- r
	}
}
