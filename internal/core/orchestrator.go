package core

import (
	"context"
	"errors"
	"fmt"

	"adrias/internal/cluster"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/workload"
)

// Decision reasons: which rule produced the tier. Recorded on every
// Decision and surfaced through the audit log (/debug/decisions).
const (
	// ReasonColdStart: no stored signature → deploy remote and capture.
	ReasonColdStart = "cold-start"
	// ReasonNoHistory: monitoring window not full yet → safe local default.
	ReasonNoHistory = "no-history"
	// ReasonPredictError: the predictor failed (error or non-finite output)
	// → safe local default.
	ReasonPredictError = "predict-error"
	// ReasonBESlack: the best-effort β-slack rule decided.
	ReasonBESlack = "be-slack"
	// ReasonLCQoS: the latency-critical QoS gate decided.
	ReasonLCQoS = "lc-qos"
	// ReasonLCNoQoS: LC app without a QoS constraint → safe local.
	ReasonLCNoQoS = "lc-no-qos"
	// ReasonCapacity: a remote verdict degraded to local on a full pool.
	ReasonCapacity = "capacity"
	// ReasonBreakerOpen: the predictor circuit breaker short-circuited the
	// inference; the tier came from cached last-good predictions when
	// available, the safe local default otherwise.
	ReasonBreakerOpen = "breaker-open"
	// ReasonFabricDegraded: the ThymesisFlow link is impaired (flap,
	// bandwidth clamp, latency inflation), so a remote verdict degraded to
	// the safe local tier.
	ReasonFabricDegraded = "fabric-degraded"
	// ReasonCommitConflict: an optimistic remote claim lost the commit race
	// — another replica consumed the headroom it decided against — and the
	// bounded retries found no pool either, so the placement downgraded to
	// the safe local tier.
	ReasonCommitConflict = "commit-conflict"
)

// IsDowngradeReason reports whether a decision reason marks a placement
// downgrade: a remote-worthy verdict forced onto the safe local tier by
// pressure outside the model's judgment (full pool, impaired fabric, lost
// commit race). The SLO downgrade-rate objective counts exactly these.
func IsDowngradeReason(reason string) bool {
	switch reason {
	case ReasonCapacity, ReasonFabricDegraded, ReasonCommitConflict:
		return true
	}
	return false
}

// IsPredictFailureReason reports whether a decision reason marks a
// prediction-path failure — the model erred or the breaker short-circuited
// it — feeding the SLO predict-error objective.
func IsPredictFailureReason(reason string) bool {
	return reason == ReasonPredictError || reason == ReasonBreakerOpen
}

// ErrBreakerOpen marks per-query prediction errors produced while the
// predictor circuit breaker is open (see internal/faults). DecideBatch
// classifies decisions carrying it as ReasonBreakerOpen rather than
// ReasonPredictError, and still uses any cached last-good prediction the
// breaker wrapper delivered alongside the error.
var ErrBreakerOpen = errors.New("core: predictor circuit breaker open")

// PerfInference is the batched prediction surface DecideBatch consumes.
// *Predictor implements it directly; wrappers (fault injection, circuit
// breaking — internal/faults) stack on top without the orchestrator
// knowing.
type PerfInference interface {
	PredictPerfBatch(ctx context.Context, queries []PerfQuery, window []mathx.Vector) (mathx.Vector, []error)
}

// Decision records one orchestration decision for later analysis.
type Decision struct {
	App       string
	Class     workload.Class
	Tier      memsys.Tier
	Node      int     // rack node the placement targets (0 in single-node runs)
	PredLocal float64 // predicted perf on local (0 when not predicted)
	PredRem   float64 // predicted perf on remote
	ColdStart bool    // true when the app had no signature yet
	Fallback  bool    // true when prediction failed and the safe default won
	Reason    string  // which rule produced the tier (Reason* constants)
}

// DefaultMaxDecisions bounds the orchestrator's retained decision list when
// MaxDecisions is unset. Retention here is for in-process analysis
// (examples, experiments, tests); the serve layer's audit ring is the
// operator-facing record.
const DefaultMaxDecisions = 4096

// Orchestrator is the Adrias scheduler (paper §V-C). For best-effort
// applications it picks local memory iff
//
//	t̂_local < β · t̂_remote
//
// where β is the slack parameter; for latency-critical applications it
// offloads iff the predicted 99th percentile on remote respects the QoS
// constraint. Unknown applications (no signature) are deployed on remote
// memory and their metrics captured — the paper's cold-start rule.
type Orchestrator struct {
	Pred    *Predictor
	Watch   *Watcher
	Beta    float64            // BE slack (paper sweeps 1.0 … 0.6)
	QoSMs   map[string]float64 // per-LC-app p99 constraint, milliseconds
	Capture bool               // capture signatures of first-seen apps

	// Infer overrides the prediction path; nil uses Pred directly. Set it
	// to stack fault injection or a circuit breaker over the predictor.
	Infer PerfInference
	// MaxDecisions bounds the retained decision list (≤0: the
	// DefaultMaxDecisions cap). Set before the first decision; the bound is
	// fixed once recording starts. Retention is drop-oldest; Stats stays
	// exact through running counters.
	MaxDecisions int

	ring  []Decision // bounded retention, ring once full
	start int        // index of the oldest retained decision
	stats OffloadStats

	// DecideBatchWindow scratch, reused across batches (the decide path is
	// serialized by the caller; each serve shard owns its orchestrator).
	batQueries []PerfQuery
	batStart   []int
}

// NewOrchestrator builds the Adrias scheduler.
func NewOrchestrator(pred *Predictor, watch *Watcher, beta float64) *Orchestrator {
	if beta <= 0 {
		panic(fmt.Sprintf("core: beta %g must be positive", beta))
	}
	return &Orchestrator{
		Pred:    pred,
		Watch:   watch,
		Beta:    beta,
		QoSMs:   make(map[string]float64),
		Capture: true,
	}
}

// Name implements Scheduler.
func (o *Orchestrator) Name() string { return fmt.Sprintf("adrias(β=%g)", o.Beta) }

// inference returns the active prediction path.
func (o *Orchestrator) inference() PerfInference {
	if o.Infer != nil {
		return o.Infer
	}
	return o.Pred
}

// record retains one decision (drop-oldest past the bound) and feeds the
// running stats counters, which stay exact regardless of retention.
func (o *Orchestrator) record(d Decision) {
	o.stats.Total++
	if d.Tier == memsys.TierRemote {
		o.stats.Remote++
	}
	if d.ColdStart {
		o.stats.Cold++
	}
	if d.Fallback {
		o.stats.Fallback++
	}
	max := o.MaxDecisions
	if max <= 0 {
		max = DefaultMaxDecisions
	}
	if len(o.ring) < max {
		o.ring = append(o.ring, d)
		return
	}
	o.ring[o.start] = d
	o.start = (o.start + 1) % len(o.ring)
}

// Decisions returns a copy of the retained decisions, oldest first. At most
// MaxDecisions (default DefaultMaxDecisions) are kept; TotalDecisions
// counts everything ever recorded.
func (o *Orchestrator) Decisions() []Decision {
	out := make([]Decision, 0, len(o.ring))
	for i := 0; i < len(o.ring); i++ {
		out = append(out, o.ring[(o.start+i)%len(o.ring)])
	}
	return out
}

// LastDecision returns the most recent decision, if any.
func (o *Orchestrator) LastDecision() (Decision, bool) {
	if len(o.ring) == 0 {
		return Decision{}, false
	}
	return o.ring[(o.start+len(o.ring)-1)%len(o.ring)], true
}

// TotalDecisions returns the number of decisions ever recorded, unaffected
// by retention.
func (o *Orchestrator) TotalDecisions() uint64 { return uint64(o.stats.Total) }

// Decide implements Scheduler. It is the single-application case of
// DecideBatch: cold start → remote + capture, no history → safe local,
// otherwise the β-slack rule (BE) or QoS gate (LC) over the predictor,
// degraded to local when the remote pool cannot fit the footprint.
func (o *Orchestrator) Decide(p *workload.Profile, c *cluster.Cluster) memsys.Tier {
	return o.DecideBatch(context.Background(), []*workload.Profile{p}, c)[0].Tier
}

// DecideBE applies the paper's best-effort rule: local iff
// t̂_local < β · t̂_remote, remote otherwise.
func DecideBE(beta, predLocal, predRemote float64) memsys.Tier {
	if predLocal < beta*predRemote {
		return memsys.TierLocal
	}
	return memsys.TierRemote
}

// DecideLC applies the paper's latency-critical rule: remote iff the
// predicted 99th percentile respects the QoS constraint. Without a
// constraint the safe local tier wins.
func DecideLC(qosMs float64, hasQoS bool, predRemoteP99 float64) memsys.Tier {
	if hasQoS && predRemoteP99 <= qosMs {
		return memsys.TierRemote
	}
	return memsys.TierLocal
}

// OnComplete captures the signature of a cold-started application from its
// in-situ run, fulfilling the paper's "captures and stores the respective
// metrics" step. Wire it into scenario.Config.OnComplete.
func (o *Orchestrator) OnComplete(in *workload.Instance, c *cluster.Cluster) {
	if !o.Capture || o.Pred.Sigs.Has(in.Profile.Name) {
		return
	}
	if in.Tier != memsys.TierRemote || in.Profile.Class == workload.Interference {
		return
	}
	trace := o.Watch.TraceBetween(c, in.StartAt, in.DoneAt)
	if len(trace) == 0 {
		return
	}
	// Best effort: an unstorable trace just leaves the app cold.
	_ = o.Pred.Sigs.Put(in.Profile.Name, trace)
}

// OffloadStats summarizes the orchestrator's decisions.
type OffloadStats struct {
	Total, Remote, Cold, Fallback int
}

// Stats returns summary statistics over every decision ever made. The
// counters run alongside recording, so they stay exact even after the
// retained list drops old entries.
func (o *Orchestrator) Stats() OffloadStats { return o.stats }
