package core

import (
	"context"
	"sync/atomic"

	"adrias/internal/mathx"
	"adrias/internal/models"
)

// PerfMemo is a PerfInference decorator that answers each query at most
// once per history window. The performance model's inputs are the past
// window S, the forecast Ŝ (a function of S alone), the deployment tier and
// the application's signature (paper §V-B2), and the Watcher samples once
// per tick — so between two ticks a node has at most apps × tiers distinct
// answers, and every later batch against the same window can reuse them.
//
// Keying. A window is identified by slice identity (first-row address and
// length, the models package's seqKey notion), and within a window an answer
// by its PerfQuery (app, class, tier) plus the identity of the signature it
// was computed with: in-situ capture may store or replace a signature while
// the window is live, and an answer computed with another signature is a
// miss. The memo holds every window slice it keys on and every signature's
// rows through its answers, so no keyed address can be recycled while an
// entry refers to it. Callers must pass immutable windows — never a reused
// buffer such as Watcher.WindowInto's scratch.
//
// Answers. Hits are served from copies of (prediction, error); misses go to
// the inner predictor as one sub-batch. A row's prediction does not depend
// on its batch neighbours (the models' per-sample bit-identity contract), so
// a memoized answer equals the one a full batch would have computed, bit
// for bit. The returned slices are memo-owned and valid until the next call;
// wrappers above may overwrite them (the fault injector does) without
// touching the stored answers.
//
// Bounds. At most maxWindows windows are retained, least recently used
// evicted first, each holding at most one answer per distinct PerfQuery.
// Hits and misses count into the shared MemoStats. Not safe for concurrent
// use: like QuantPredictor, one memo serves one decide goroutine.
type PerfMemo struct {
	inner PerfInference
	sigs  *models.SignatureStore
	stats *MemoStats

	maxWindows int
	wins       []memoWindow // least recently used first

	preds   mathx.Vector
	errs    []error
	missQ   []PerfQuery
	missAt  []int
	missSig []*mathx.Vector
}

// MemoStats counts PerfMemo query outcomes. Atomic, so a scrape may read it
// while the owning decide goroutine predicts; several memos in succession
// (one per model generation) may share one.
type MemoStats struct {
	Hits, Misses atomic.Uint64
}

// memoWindow is one retained history window and its answers.
type memoWindow struct {
	win []mathx.Vector
	ans map[PerfQuery]memoAnswer
}

// memoAnswer is one memoized query result and the signature it used.
type memoAnswer struct {
	sig  *mathx.Vector
	pred float64
	err  error
}

// NewPerfMemo memoizes inner per window. sigs must be the store the inner
// models read signatures from; maxWindows (≥ 1) bounds the retained
// windows — one per node whose windows reach this memo. stats receives the
// hit/miss counts.
func NewPerfMemo(inner PerfInference, sigs *models.SignatureStore, maxWindows int, stats *MemoStats) *PerfMemo {
	if maxWindows < 1 {
		panic("core: PerfMemo needs at least one window")
	}
	return &PerfMemo{inner: inner, sigs: sigs, stats: stats, maxWindows: maxWindows}
}

// PredictPerfBatch implements PerfInference.
func (m *PerfMemo) PredictPerfBatch(ctx context.Context, queries []PerfQuery, window []mathx.Vector) (mathx.Vector, []error) {
	n := len(queries)
	if n == 0 || len(window) == 0 {
		return m.inner.PredictPerfBatch(ctx, queries, window)
	}
	ans := m.answers(window)
	if cap(m.preds) < n {
		m.preds = mathx.NewVector(n)
		m.errs = make([]error, n)
	}
	m.preds, m.errs = m.preds[:n], m.errs[:n]
	m.missQ, m.missAt, m.missSig = m.missQ[:0], m.missAt[:0], m.missSig[:0]
	for i, q := range queries {
		sig := m.sigID(q.Name)
		if a, ok := ans[q]; ok && a.sig == sig {
			m.preds[i], m.errs[i] = a.pred, a.err
			continue
		}
		m.missQ = append(m.missQ, q)
		m.missAt = append(m.missAt, i)
		m.missSig = append(m.missSig, sig)
	}
	misses := len(m.missQ)
	m.stats.Hits.Add(uint64(n - misses))
	if misses == 0 {
		return m.preds, m.errs
	}
	m.stats.Misses.Add(uint64(misses))
	ps, es := m.inner.PredictPerfBatch(ctx, m.missQ, window)
	for k, i := range m.missAt {
		m.preds[i], m.errs[i] = ps[k], es[k]
		// Store only when the signature did not change under the call, so
		// an answer is never filed under a signature it was not computed
		// with.
		q := m.missQ[k]
		if sig := m.missSig[k]; m.sigID(q.Name) == sig {
			ans[q] = memoAnswer{sig: sig, pred: ps[k], err: es[k]}
		}
	}
	return m.preds, m.errs
}

// sigID is the identity of name's current signature (nil when absent).
// The store replaces whole entries on Put, so a new signature always has a
// new first-row address.
func (m *PerfMemo) sigID(name string) *mathx.Vector {
	sig, ok := m.sigs.Get(name)
	if !ok || len(sig.Steps) == 0 {
		return nil
	}
	return &sig.Steps[0]
}

// answers returns window's answer map, retaining the window as most
// recently used; a new window past the bound evicts the least recently
// used one and reuses its map, so steady-state turnover allocates nothing.
func (m *PerfMemo) answers(window []mathx.Vector) map[PerfQuery]memoAnswer {
	last := len(m.wins) - 1
	for i := last; i >= 0; i-- {
		w := m.wins[i]
		if &w.win[0] == &window[0] && len(w.win) == len(window) {
			copy(m.wins[i:], m.wins[i+1:])
			m.wins[last] = w
			return w.ans
		}
	}
	var ans map[PerfQuery]memoAnswer
	if len(m.wins) == m.maxWindows {
		ans = m.wins[0].ans
		clear(ans)
		copy(m.wins, m.wins[1:])
		m.wins = m.wins[:last]
	} else {
		ans = make(map[PerfQuery]memoAnswer)
	}
	m.wins = append(m.wins, memoWindow{win: window, ans: ans})
	return ans
}
