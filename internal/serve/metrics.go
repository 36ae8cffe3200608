package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"adrias/internal/obs"
)

// Histogram aliases the repo-wide obs histogram: fixed buckets, atomic,
// float64 observations (ObserveDuration for latencies). The alias keeps the
// service's exported surface stable now that the implementation lives in
// internal/obs.
type Histogram = obs.Histogram

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) Histogram { return obs.NewHistogram(bounds) }

// DefaultLatencyBuckets spans 100 µs … 10 s, roughly logarithmic.
func DefaultLatencyBuckets() []float64 { return obs.DefaultLatencyBuckets() }

// Metrics is the service's metric set, exposed in Prometheus text format on
// /metrics. Everything is atomic; no external client library is used (the
// container has none), the exposition format is hand-rendered through
// internal/obs.
type Metrics struct {
	ReqOK       atomic.Uint64
	ReqOverload atomic.Uint64
	ReqDeadline atomic.Uint64
	ReqError    atomic.Uint64
	ReqClosed   atomic.Uint64

	Batches     atomic.Uint64 // engine calls
	BatchedReqs atomic.Uint64 // requests served through those calls
	Expired     atomic.Uint64 // requests discarded in-queue (deadline passed)

	PlacedLocal  atomic.Uint64
	PlacedRemote atomic.Uint64
	ColdStarts   atomic.Uint64
	Fallbacks    atomic.Uint64

	// Latency is the end-to-end admission-pipeline time; QueueWait isolates
	// the admission→dispatch share of it, so queue pressure and model time
	// are tellable apart.
	Latency   Histogram
	QueueWait Histogram

	// queueDepth reports the live admission-queue length at scrape time.
	queueDepth func() int
	// extraBlocks lets the engine publish whole series blocks (gauges,
	// counters, snapshot-shared reads) through the same endpoint.
	extraBlocks []func(io.Writer)
}

// NewMetrics returns an empty metric set with default latency buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		Latency:   NewHistogram(DefaultLatencyBuckets()),
		QueueWait: NewHistogram(DefaultLatencyBuckets()),
	}
}

// AddBlock registers a scrape-time render function that may emit several
// series at once — the engine uses one block to render every gauge off a
// single state snapshot instead of locking per series. Not safe to call
// concurrently with WritePrometheus; register everything before serving.
func (m *Metrics) AddBlock(render func(io.Writer)) {
	m.extraBlocks = append(m.extraBlocks, render)
}

// WritePrometheus renders the metric set in Prometheus text exposition
// format (version 0.0.4). Series names are part of the service's interface;
// keep them stable.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counterVec(w, "adrias_serve_requests_total",
		"Placement requests by outcome.",
		[]string{"ok", "overload", "deadline", "error", "closed"},
		[]uint64{m.ReqOK.Load(), m.ReqOverload.Load(), m.ReqDeadline.Load(), m.ReqError.Load(), m.ReqClosed.Load()},
		"outcome")
	counter(w, "adrias_serve_batches_total", "Engine batch calls.", m.Batches.Load())
	counter(w, "adrias_serve_batched_requests_total", "Requests served through batch calls.", m.BatchedReqs.Load())
	counter(w, "adrias_serve_expired_in_queue_total", "Requests discarded in-queue after their deadline.", m.Expired.Load())
	counterVec(w, "adrias_serve_placements_total",
		"Successful placements by memory tier.",
		[]string{"local", "remote"},
		[]uint64{m.PlacedLocal.Load(), m.PlacedRemote.Load()},
		"tier")
	counter(w, "adrias_serve_cold_starts_total", "Placements of applications with no stored signature.", m.ColdStarts.Load())
	counter(w, "adrias_serve_fallbacks_total", "Placements decided by the safe default.", m.Fallbacks.Load())
	if m.queueDepth != nil {
		fmt.Fprintf(w, "# HELP adrias_serve_queue_depth Admitted requests waiting for a batch.\n")
		fmt.Fprintf(w, "# TYPE adrias_serve_queue_depth gauge\n")
		fmt.Fprintf(w, "adrias_serve_queue_depth %d\n", m.queueDepth())
	}
	for _, render := range m.extraBlocks {
		render(w)
	}
	m.Latency.WritePrometheus(w, "adrias_serve_request_duration_seconds",
		"Request latency through the admission pipeline.")
	m.QueueWait.WritePrometheus(w, "adrias_serve_queue_wait_seconds",
		"Time from admission to batch dispatch.")
}

func counter(w io.Writer, name, help string, v uint64) {
	obs.WriteCounter(w, name, help, v)
}

func counterVec(w io.Writer, name, help string, labels []string, vals []uint64, labelName string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	for i, l := range labels {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, labelName, l, vals[i])
	}
}
