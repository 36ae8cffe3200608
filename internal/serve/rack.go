// Rack-scale placement: N replica shards decide optimistically over one
// published ClusterView and commit claims through a single sequencer (the
// engine mutex), the arktos shared-state scheduling pattern applied to the
// paper's scalability sketch (§VII). A shard's decide path takes no lock —
// one atomic load of the view, its own cloned inference stack — so
// placement throughput scales with replicas; correctness is restored at
// commit time, where a remote claim re-validates the pool it decided
// against and losers retry from a bounded drop-oldest ring before
// downgrading to the audited safe local tier (reason commit-conflict).
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/faults"
	"adrias/internal/learn"
	"adrias/internal/mathx"
	"adrias/internal/memsys"
	"adrias/internal/obs"
	"adrias/internal/workload"
)

// rackView is the engine's published ClusterView: per-node occupancy plus
// the monitoring window each node's Watcher saw when the view was built.
// It is immutable once stored in SystemEngine.view — shards read it with
// one atomic load and never take the engine lock to decide.
type rackView struct {
	ver  uint64
	time float64
	occ  []cluster.NodeOccupancy
	win  [][]mathx.Vector // per-node history window; nil until the watcher is ready
}

// buildView snapshots the whole rack with fresh monitoring windows. Called
// under mu (or from the constructor before any concurrency exists); it is
// the only view path that reallocates windows, and it runs once per
// Advance, off the request path.
func (e *SystemEngine) buildView() *rackView {
	v := &rackView{
		ver:  e.viewVer,
		time: e.cl.Now(),
		occ:  make([]cluster.NodeOccupancy, len(e.nodes)),
		win:  make([][]mathx.Vector, len(e.nodes)),
	}
	for i, c := range e.nodes {
		v.occ[i] = c.Occupancy(i)
		v.win[i] = e.watch.Window(c)
	}
	return v
}

// republishOccupancy publishes a fresh occupancy snapshot after commits,
// reusing the current view's windows (occupancy moved; the tick did not).
// Called under mu; the constructor publishes the first view.
func (e *SystemEngine) republishOccupancy() {
	old := e.view.Load()
	v := &rackView{ver: e.viewVer, time: old.time, win: old.win, occ: make([]cluster.NodeOccupancy, len(e.nodes))}
	for i, c := range e.nodes {
		v.occ[i] = c.Occupancy(i)
	}
	e.view.Store(v)
}

// View returns the published rack-state snapshot in its wire shape.
func (e *SystemEngine) View() cluster.View {
	v := e.view.Load()
	return cluster.View{Version: v.ver, Time: v.time, Nodes: v.occ}
}

// maxCommitRetries bounds how many times a conflict loser re-decides
// against a refreshed view before downgrading to the safe local tier.
const maxCommitRetries = 2

// retryRingCap bounds the conflict-loser retry ring (drop-oldest past it).
const retryRingCap = 256

// admission is one decided request on its way out — the decision plus the
// identity stamps every record of it carries. A dry run is emitted straight
// from it; a claim carries it through commit inside a retryItem.
type admission struct {
	d       core.Decision
	traceID string
	batch   int
	// gen/replica stamp the model generation that decided the request and
	// the 1-based shard that owns it, carried through to the audit record
	// even when another replica's drain loop finalizes the claim.
	gen     int
	replica int
	res     *PlaceResult // the owner's result slot; written only by emit
}

// retryItem is one optimistic claim in flight through commit: decided by a
// shard, committed by the sequencer, on conflict re-decided from the ring.
// done is closed exactly once, when res is final; the owning shard blocks
// on it, so whichever goroutine finalized the item happens-before the read.
type retryItem struct {
	admission
	prof     *workload.Profile
	attempts int
	// win is the monitoring window the decision saw (immutable snapshot
	// rows), so a committed claim can register with the learning loop.
	win  []mathx.Vector
	done chan struct{}
	// finalized guards the deploy+publish+close sequence: eviction by a
	// pusher and the work-steal drain are disjoint under the ring mutex
	// today, but a close of an already-closed done would crash the whole
	// server, so finalization is claimed with one CAS and duplicate claims
	// are counted (adrias_serve_finalize_dups_total) instead of fatal.
	finalized atomic.Bool
}

// claimFinalize claims the right to finalize the item; exactly one caller
// wins. Claim only at the point of definite finalization (after a commit's
// CanFit check passes, or on a downgrade) — a claimed item that is not
// finalized would strand its owner on done forever.
func (it *retryItem) claimFinalize() bool { return it.finalized.CompareAndSwap(false, true) }

// retryRing is the bounded drop-oldest queue of commit-conflict losers.
// Mirrors the decision-log retention fix: the ring never grows past its
// capacity; pushing into a full ring evicts the oldest loser and returns it
// to the pusher, which must finalize it so its caller still gets an answer.
type retryRing struct {
	mu    sync.Mutex
	items []*retryItem
	start int
	n     int
}

func (r *retryRing) push(it *retryItem) (evicted *retryItem) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.items == nil {
		r.items = make([]*retryItem, retryRingCap)
	}
	if r.n == len(r.items) {
		evicted = r.items[r.start]
		r.items[r.start] = it
		r.start = (r.start + 1) % len(r.items)
		return evicted
	}
	r.items[(r.start+r.n)%len(r.items)] = it
	r.n++
	return nil
}

func (r *retryRing) pop() *retryItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	it := r.items[r.start]
	r.items[r.start] = nil
	r.start = (r.start + 1) % len(r.items)
	r.n--
	return it
}

// engineShard is one placement replica: its own cloned inference stack and
// orchestrator scratch over the shared rack state. Safe to run concurrently
// with other shards; a single shard serves one batch at a time (the service
// gives each replica goroutine its own shard, and SystemEngine.PlaceBatch
// serializes its callers onto the primary shard).
// primaryShardID is the id of the shard behind SystemEngine.PlaceBatch, below
// the Service replicas' 0..n-1: audited as replica 0, no generation series.
const primaryShardID = -1

type engineShard struct {
	id   int
	eng  *SystemEngine
	orch *core.Orchestrator

	// gen is the model generation the shard's cloned stack was built from
	// (1 when the learning loop is off). Atomic: the owning goroutine
	// re-stamps it on re-clone while /metrics reads it per scrape.
	gen atomic.Int64
	// stale is the eager swap signal: recordSwap sets it the moment a
	// candidate is promoted, so the shard re-clones at the top of its next
	// batch instead of discovering the mismatch by the generation compare.
	stale atomic.Bool

	// memo counts the shard's prediction-memo hits and misses across every
	// stack it builds (a re-clone replaces the memo, not the counters).
	memo core.MemoStats

	// batch scratch, reused across batches.
	profiles []*workload.Profile
	idx      []int
	ds       []core.Decision
	items    []*retryItem
}

// NewShard mints replica decider id over this engine's rack state: a clone
// of the float models (plus, when configured, a per-shard quantized twin),
// a per-window prediction memo, fault/breaker wrappers sharing the engine's
// injector and breaker (both concurrency-safe), and an independent
// orchestrator scratch. The signature store is shared: it is internally
// locked, so in-situ captures on the commit path become visible to every
// shard immediately. With the online learning loop armed, the clone source
// is the loop's current live generation and the shard re-clones whenever a
// promotion moves it (maybeReclone), so hot-swap propagates to every
// replica within one batch. The clone runs under the engine lock, as in
// maybeReclone: a shard may be minted while the engine is serving.
func (e *SystemEngine) NewShard(id int) Engine {
	s := &engineShard{id: id, eng: e}
	e.mu.Lock()
	gen, pred := 1, e.pred
	if e.learner != nil {
		gen, pred = e.learner.Live()
	}
	clone, infer := e.shardStack(pred, &s.memo)
	e.mu.Unlock()
	s.orch = core.NewOrchestrator(clone, e.watch, e.cfg.Beta)
	s.orch.QoSMs = e.qosMs // read-only after engine construction
	s.orch.Infer = infer
	s.gen.Store(int64(gen))
	e.shardMu.Lock()
	e.shards = append(e.shards, s)
	e.shardMu.Unlock()
	return s
}

// shardStack clones pred's float models and wraps the shard-local inference
// stack around them: the quantized twin when configured, a prediction memo
// directly on the base predictor, fault injection closest to the model,
// then the shared circuit breaker on top, so the breaker sees injected
// failures exactly as it would real ones. Under the fault wrappers, the
// memo leaves injected faults and the breaker seeing every batch. It keys
// on the immutable rackView windows (one retained per node) and lives and
// dies with the stack, so a re-clone after a promotion starts it empty
// (DESIGN.md §16).
func (e *SystemEngine) shardStack(pred *core.Predictor, memo *core.MemoStats) (*core.Predictor, core.PerfInference) {
	clone := &core.Predictor{Sigs: pred.Sigs}
	if pred.Sys != nil {
		clone.Sys = pred.Sys.Clone()
	}
	if pred.BE != nil {
		clone.BE = pred.BE.Clone()
	}
	if pred.LC != nil {
		clone.LC = pred.LC.Clone()
	}
	var infer core.PerfInference = clone
	if e.cfg.Quantized {
		infer = core.NewQuantPredictor(clone)
	}
	if !e.noPredictMemo {
		infer = core.NewPerfMemo(infer, clone.Sigs, len(e.nodes), memo)
	}
	if e.cfg.Faults != nil {
		infer = &faults.FaultyPredictor{Inner: infer, Inj: e.cfg.Faults}
	}
	if e.brk != nil {
		infer = faults.NewGuardedPredictor(infer, e.brk)
	}
	return clone, infer
}

// maybeReclone rebuilds the shard's inference stack from the promoted live
// generation when the learning loop has moved past the one this shard
// cloned. The fast path — no swap since the last batch — is one atomic
// flag load and one atomic generation compare. The re-clone itself runs
// under the engine lock: cloning must not overlap a concurrent promotion
// or the loop's shadow evaluation on the same model instances, and it
// happens at most once per promotion per shard, off the steady-state path.
func (s *engineShard) maybeReclone() {
	e := s.eng
	if e.learner == nil {
		return
	}
	if !s.stale.Load() && int(s.gen.Load()) == e.learner.Generation() {
		return
	}
	e.mu.Lock()
	s.stale.Store(false)
	gen, pred := e.learner.Live()
	clone, infer := e.shardStack(pred, &s.memo)
	e.mu.Unlock()
	s.orch.Pred = clone
	s.orch.Infer = infer
	s.gen.Store(int64(gen))
	e.shardReclones.Add(1)
}

// PlaceBatch implements Engine for one replica; see PlaceBatchInto.
func (s *engineShard) PlaceBatch(ctx context.Context, reqs []PlaceRequest) []PlaceResult {
	results := make([]PlaceResult, len(reqs))
	s.PlaceBatchInto(ctx, reqs, results)
	return results
}

// PlaceBatchInto answers reqs[i] in the caller-owned results[i]: an
// optimistic decide against the published view (no engine lock), then a
// single sequencer commit for the whole batch's claims; conflict losers
// resolve through the retry ring before this returns, so results are
// always complete. In steady state — fixed batch shape, warm arenas, a
// quantized prediction path (EngineConfig.Quantized), decision ring at its
// bound, no audit log or bus, and DryRun requests — a batch allocates
// nothing; the bench-gate CI job pins that on the decode→decide→encode
// benchmark.
func (s *engineShard) PlaceBatchInto(ctx context.Context, reqs []PlaceRequest, results []PlaceResult) {
	if len(results) != len(reqs) {
		panic("serve: PlaceBatchInto output length mismatch")
	}
	e := s.eng
	// Generation check once per decide batch: a promotion since the last
	// batch re-clones the stack before deciding, so no batch is ever
	// decided on a generation older than the one in flight at swap time.
	s.maybeReclone()
	gen := int(s.gen.Load())
	if e.learner == nil {
		gen = 0 // no loop, no generation stamp
	}
	if cap(s.profiles) < len(reqs) {
		s.profiles = make([]*workload.Profile, 0, len(reqs))
		s.idx = make([]int, 0, len(reqs))
		s.ds = make([]core.Decision, len(reqs))
	}
	profiles, idx := s.profiles[:0], s.idx[:0]
	for i, r := range reqs {
		results[i] = PlaceResult{App: r.App, TraceID: r.TraceID}
		p := e.reg.ByName(r.App)
		if p == nil {
			results[i].Err = fmt.Errorf("%w: %q", ErrUnknownApp, r.App)
			continue
		}
		results[i].Class = p.Class
		profiles = append(profiles, p)
		idx = append(idx, i)
	}
	s.profiles, s.idx = profiles, idx
	if len(profiles) == 0 {
		return
	}

	// Optimistic decide: one atomic load, no lock. The batch anchors to one
	// candidate node — the healthiest remote pool by occupancy order — so it
	// shares that node's history window and one Ŝ forecast.
	view := e.view.Load()
	node := pickNode(view)
	ds := s.ds[:len(profiles)]
	s.orch.DecideBatchWindow(ctx, profiles, view.win[node],
		view.occ[node].RemoteFreeGB, view.occ[node].FabricDegraded, node, ds)

	// Claims: dry runs are emitted immediately (nothing to commit); the
	// rest go through the sequencer as one batch.
	items := s.items[:0]
	for k, i := range idx {
		a := admission{d: ds[k], traceID: reqs[i].TraceID, batch: len(profiles),
			gen: gen, replica: s.id + 1, res: &results[i]}
		if reqs[i].DryRun {
			e.emit(&a, nil)
			continue
		}
		items = append(items, &retryItem{admission: a, prof: profiles[k],
			win: view.win[node], done: make(chan struct{})})
	}
	s.items = items[:0] // keep capacity; items escape to the ring below
	if len(items) == 0 {
		return
	}
	losers := e.commit(items, false)

	// Losers go to the shared bounded ring; this shard then drains the ring
	// — processing any replica's losers, not just its own — until its own
	// items resolve. A popped item always resolves before processRetry
	// returns (no re-queue), so blocking on done cannot deadlock; an evicted
	// item is downgraded here by the pusher, so its owner always wakes.
	for _, it := range losers {
		if ev := e.retry.push(it); ev != nil {
			e.retryDrops.Add(1)
			e.commit([]*retryItem{ev}, true)
		}
	}
	for _, it := range losers {
		for !itemDone(it) {
			if other := e.retry.pop(); other != nil {
				s.processRetry(other)
			} else {
				<-it.done
			}
		}
	}
}

func itemDone(it *retryItem) bool {
	select {
	case <-it.done:
		return true
	default:
		return false
	}
}

// pickNode anchors a batch to one candidate node: the healthiest remote
// pool by occupancy order among nodes with a full monitoring window. Node 0
// is the fallback when no node qualifies (warming up, every fabric down).
func pickNode(v *rackView) int {
	best := -1
	for i := range v.occ {
		if v.win[i] == nil || v.occ[i].FabricDegraded {
			continue
		}
		if best < 0 || v.occ[i].MoreRemoteHeadroom(v.occ[best]) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// commit is the single sequencer step and the only place a served request
// deploys: one engine-lock acquisition commits a batch of claims that share
// one decide window. A remote claim re-validates its pool against the live
// node — failure means another replica consumed the headroom since the
// view was published (every committed deploy bumps the view version), i.e.
// the claim's version check lost; it is returned as a conflict loser,
// unfinalized. With downgrade set, each claim is instead moved to the safe
// local tier of the least-loaded node with reason commit-conflict — the end
// of every retry path, since local claims always commit. Every winner is
// emitted with the instance Deploy returned, so a capacity fallback inside
// Deploy is reported as deployed; the occupancy view is republished and the
// learning loop told of the committed placements once per call.
func (e *SystemEngine) commit(items []*retryItem, downgrade bool) (losers []*retryItem) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var place []learn.Placement
	var win []mathx.Vector
	committed := false
	for _, it := range items {
		if !downgrade && it.d.Tier == memsys.TierRemote && !e.nodes[it.d.Node].CanFit(it.prof, memsys.TierRemote) {
			e.conflicts.Add(1)
			losers = append(losers, it)
			continue
		}
		if !it.claimFinalize() {
			// Already finalized by another path — the guard keeps the deploy
			// and the done close from ever running twice.
			e.dupFinalizes.Add(1)
			continue
		}
		if downgrade {
			it.d.Tier, it.d.Fallback, it.d.Reason = memsys.TierLocal, true, core.ReasonCommitConflict
			if n := e.View().LeastLoadedNode(); n >= 0 {
				it.d.Node = n
			}
			e.downgrades.Add(1)
		}
		in := e.nodes[it.d.Node].Deploy(it.prof, it.d.Tier)
		e.viewVer++
		committed = true
		e.emit(&it.admission, in)
		if e.learner != nil && in.Profile.Class != workload.Interference && len(it.win) > 0 {
			place = append(place, learn.Placement{
				InstID: in.ID, TraceID: it.traceID, App: it.d.App, Class: in.Profile.Class,
				Tier: it.d.Tier, Node: it.d.Node,
				PredLocal: it.d.PredLocal, PredRem: it.d.PredRem, Gen: it.gen,
			})
			win = it.win
		}
		close(it.done)
	}
	if committed {
		e.republishOccupancy()
	}
	if len(place) > 0 {
		e.learner.OnBatch(win, place)
	}
	return losers
}

// processRetry resolves one conflict loser: re-decide the pool against the
// refreshed view and recommit, up to maxCommitRetries attempts, then
// downgrade to the safe local tier with reason commit-conflict. The item is
// always finalized before this returns — it never re-enters the ring.
func (s *engineShard) processRetry(it *retryItem) {
	e := s.eng
	for {
		it.attempts++
		e.commitRetries.Add(1)
		n := e.View().BestRemotePool(it.prof.FootprintGB)
		if n < 0 || it.attempts > maxCommitRetries {
			e.commit([]*retryItem{it}, true)
			return
		}
		it.d.Node = n
		if len(e.commit([]*retryItem{it}, false)) == 0 {
			return
		}
	}
}

// emit is the one decision record. It fills the owner's result slot and
// fans the same fields out to the SLO counters, the audit log, the bus and
// — for a committed claim — the admission wide event, stamped with the
// deciding shard's model generation and 1-based replica id. in is the
// deployed instance (nil for a dry run): when Deploy moved the claim to the
// other tier on capacity, every record carries the tier that deployed,
// marked as a fallback. Lock-free (the SimNow mirror stamps sim time), so
// dry runs need not take the engine lock.
func (e *SystemEngine) emit(a *admission, in *workload.Instance) {
	d := &a.d
	if in != nil && in.Tier != d.Tier {
		d.Tier, d.Fallback = in.Tier, true
	}
	*a.res = PlaceResult{
		App: a.res.App, Class: a.res.Class, TraceID: a.res.TraceID,
		Tier: d.Tier, Node: d.Node, PredLocalS: d.PredLocal, PredRemS: d.PredRem,
		ColdStart: d.ColdStart, Fallback: d.Fallback, Reason: d.Reason,
	}
	e.decisions.Add(1)
	if core.IsDowngradeReason(d.Reason) {
		e.sloDowngrades.Add(1)
	}
	if core.IsPredictFailureReason(d.Reason) {
		e.sloPredictErrs.Add(1)
	}
	if e.audit == nil && e.cfg.Bus == nil && (in == nil || e.events == nil) {
		return
	}
	now, sim, slo := time.Now(), e.SimNow(), e.sloStateLabel()
	if e.audit != nil {
		e.audit.Record(obs.DecisionRecord{
			TraceID:     a.traceID,
			Time:        now,
			SimTime:     sim,
			App:         d.App,
			Class:       d.Class.String(),
			Tier:        d.Tier.String(),
			Node:        d.Node,
			PredLocalS:  d.PredLocal,
			PredRemoteS: d.PredRem,
			Beta:        e.cfg.Beta,
			QoSMs:       e.qosMs[d.App],
			ColdStart:   d.ColdStart,
			Fallback:    d.Fallback,
			Reason:      d.Reason,
			BatchSize:   a.batch,
			ModelGen:    a.gen,
			Replica:     a.replica,
			SLOState:    slo,
		})
	}
	if e.cfg.Bus != nil {
		_, _ = e.cfg.Bus.Publish("orchestrator.decisions", decisionEvent{
			TraceID: a.traceID, App: d.App, Class: d.Class.String(),
			Tier: d.Tier.String(), Node: d.Node, PredLocal: d.PredLocal,
			PredRem: d.PredRem, ColdStart: d.ColdStart, Reason: d.Reason,
			ModelGen: a.gen,
		})
	}
	if in != nil && e.events != nil {
		e.events.Record(obs.WideEvent{
			Kind:        "admission",
			TraceID:     a.traceID,
			Time:        now,
			SimTime:     sim,
			App:         d.App,
			Class:       d.Class.String(),
			Tier:        d.Tier.String(),
			Node:        d.Node,
			Reason:      d.Reason,
			PredLocalS:  d.PredLocal,
			PredRemoteS: d.PredRem,
			ColdStart:   d.ColdStart,
			Fallback:    d.Fallback,
			BatchSize:   a.batch,
			ModelGen:    a.gen,
			SLOState:    slo,
		})
	}
}
