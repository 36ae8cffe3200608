package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"adrias/internal/obs"
	wl "adrias/internal/workload"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, for the human-readable lines
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, n: n}
}

// print writes one line per metric, sorted by name.
func (m metrics) print(w io.Writer, prefix string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-38s %14.6g %-6s n=%d\n", prefix, k, m[k].Value, m[k].Unit, m[k].n)
	}
}

// quality holds the realized placement outcomes of a deploying phase.
type quality struct {
	beSlowdown   []float64
	lcMiss, lcN  int
	mismatch     int // answers whose tier or node differs from the committed admission event
	unjoined     int // answers with no admission event at all
	outcomeCount int
}

// joinEvents joins a phase's answers to the wide events by trace ID: the
// "admission" event records what was committed, the "outcome" event what
// the placement realized.
func joinEvents(answers []keptAnswer, events []obs.WideEvent, reg *wl.Registry, qosFactor float64) quality {
	var q quality
	admitted := make(map[string]obs.WideEvent)
	realized := make(map[string]obs.WideEvent)
	for _, ev := range events {
		switch ev.Kind {
		case "admission":
			admitted[ev.TraceID] = ev
		case "outcome":
			realized[ev.TraceID] = ev
		}
	}
	for _, a := range answers {
		ev, ok := admitted[a.trace]
		switch {
		case !ok:
			q.unjoined++
		case ev.Tier != a.tier || ev.Node != a.node:
			q.mismatch++
		}
		out, ok := realized[a.trace]
		if !ok {
			continue
		}
		p := reg.ByName(a.app)
		if p == nil {
			continue
		}
		q.outcomeCount++
		switch p.Class {
		case wl.BestEffort:
			q.beSlowdown = append(q.beSlowdown, out.RealizedS/p.BaseExecSec)
		case wl.LatencyCritical:
			q.lcN++
			if out.RealizedS > p.BaseP50Ms*qosFactor {
				q.lcMiss++
			}
		}
	}
	return q
}

// endToEnd computes the user-visible metrics of phase i.
func (d *driver) endToEnd(i int, q quality) metrics {
	t := d.tallies[i]
	m := metrics{}
	full := int(d.ph.dur(i) / throughputWindow)
	var rates []float64
	for k := 0; k < full; k++ {
		n := 0
		if k < len(t.okPerWindow) {
			n = t.okPerWindow[k]
		}
		rates = append(rates, float64(n)/throughputWindow.Seconds())
	}
	m.set("throughput_rps", median(rates), "req/s", len(rates))
	m.set("latency_p50_ms", quantile(t.lat, 0.50), "ms", len(t.lat))
	m.set("latency_p99_ms", quantile(t.lat, 0.99), "ms", len(t.lat))
	m.set("failed_share", ratio(float64(t.failed), float64(t.attempted)), "ratio", t.attempted)
	m.set("remote_share", ratio(float64(t.remote), float64(t.ok)), "ratio", t.ok)
	// Dry runs deploy nothing, so nothing realizes an outcome: both read 0.
	m.set("be_slowdown", mean(q.beSlowdown), "ratio", len(q.beSlowdown))
	m.set("lc_qos_miss_share", ratio(float64(q.lcMiss), float64(q.lcN)), "ratio", q.lcN)
	return m
}

// layerReport is the traced phase's per-layer breakdown.
type layerReport struct {
	requests  int
	meanMs    float64
	self      map[string]float64 // layer → mean self time per request, µs
	accounted float64
	spans     []span
	missing   int // sampled requests whose program trace had left the ring
}

// assembleTraces joins each sampled request's spans — its own, the HTTP
// middleware's, the program's per-request trace and the engine probe's
// batch — into one trace and computes per-layer self times.
func (d *driver) assembleTraces() layerReport {
	t := d.tallies[d.traced]
	handler := make(map[string]handlerRecord, len(d.handler))
	for _, h := range d.handler {
		handler[h.trace] = h
	}
	batch := make(map[string]int)
	for bi, b := range d.batches {
		for _, id := range b.traces {
			batch[id] = bi
		}
	}
	rel := func(x time.Time) int64 { return int64(x.Sub(d.epoch)) }
	rep := layerReport{self: make(map[string]float64)}
	var totalNs, rootSelf float64
	selfSum := make(map[string]float64)
	for _, rt := range t.traces {
		spans := []span{{Trace: rt.trace, Name: "request", Layer: layerLoadgen, Start: rel(rt.start), End: rel(rt.end)}}
		if h, ok := handler[rt.trace]; ok {
			spans = append(spans, span{Trace: rt.trace, Name: "http", Layer: layerHTTP, Start: rel(h.start), End: rel(h.end)})
		}
		if bi, ok := batch[rt.trace]; ok {
			b := d.batches[bi]
			spans = append(spans, span{Trace: rt.trace, Name: "engine.place_batch", Layer: layerEngine, Start: rel(b.start), End: rel(b.end)})
		}
		if !rt.found {
			rep.missing++
		}
		for _, s := range rt.program.Stages {
			layer, ok := programLayer[s.Name]
			if !ok {
				continue
			}
			spans = append(spans, span{Trace: rt.trace, Name: s.Name, Layer: layer,
				Start: rel(s.Start), End: rel(s.Start.Add(s.Dur)), Program: true})
		}
		st := selfTimes(spans)
		for l, ns := range st {
			selfSum[l] += float64(ns)
		}
		totalNs += float64(rt.end.Sub(rt.start))
		rootSelf += float64(st[layerLoadgen])
		rep.spans = append(rep.spans, spans...)
	}
	rep.requests = len(t.traces)
	if rep.requests > 0 {
		n := float64(rep.requests)
		rep.meanMs = totalNs / n / 1e6
		for _, l := range spanLayers {
			rep.self[l] = selfSum[l] / n / 1e3
		}
		rep.accounted = 1 - rootSelf/totalNs
	}
	for _, ts := range d.ticks {
		rep.spans = append(rep.spans, ts.spans...)
	}
	return rep
}

// endToEndNames are the metrics an untraced run puts in its result line.
// The other end-to-end figures vary too much from run to run on this
// workload set to gate a change (see README.md); they are printed by every
// run and reported, unbounded, by the traced run.
var endToEndNames = []string{"setup_s", "throughput_rps", "latency_p50_ms"}

// tracedQualityNames are the end-to-end figures the traced run reports
// next to the per-layer metrics.
var tracedQualityNames = []string{"latency_p99_ms", "failed_share", "remote_share", "be_slowdown", "lc_qos_miss_share"}

// pick returns the named metrics of m.
func (m metrics) pick(names []string) metrics {
	out := metrics{}
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

// perLayer computes the per-layer metrics of the traced phase, with the
// phase's unbounded end-to-end figures alongside.
func (d *driver) perLayer(q quality, lr layerReport, refP50 float64) metrics {
	i := d.traced
	t := d.tallies[i]
	secs := d.ph.dur(i).Seconds()
	m := d.endToEnd(i, q).pick(tracedQualityNames)

	m.set("loadgen.lateness_p50_ms", quantile(t.late, 0.50), "ms", len(t.late))
	m.set("loadgen.lateness_p99_ms", quantile(t.late, 0.99), "ms", len(t.late))
	m.set("loadgen.sent", float64(t.attempted), "count", t.attempted)

	var hdur []float64
	status := map[int]int{}
	for _, h := range d.handler {
		hdur = append(hdur, ms(h.end.Sub(h.start)))
		status[h.status]++
	}
	m.set("http.handler_p50_ms", quantile(hdur, 0.50), "ms", len(hdur))
	m.set("http.handler_p99_ms", quantile(hdur, 0.99), "ms", len(hdur))
	m.set("http.self_us_mean", lr.self[layerHTTP], "us", lr.requests)
	for _, code := range []int{200, 429, 504} {
		m.set(fmt.Sprintf("http.status.%d", code), float64(status[code]), "count", len(hdur))
	}

	var qwait, coal []float64
	for _, rt := range t.traces {
		for _, s := range rt.program.Stages {
			switch s.Name {
			case "queue_wait":
				qwait = append(qwait, ms(s.Dur))
			case "coalesce":
				coal = append(coal, ms(s.Dur))
			}
		}
	}
	batches := d.delta(i, "adrias_serve_batches_total")
	m.set("admission.queue_wait_p50_ms", quantile(qwait, 0.50), "ms", len(qwait))
	m.set("admission.coalesce_p50_ms", quantile(coal, 0.50), "ms", len(coal))
	m.set("admission.batch_size_mean", ratio(d.delta(i, "adrias_serve_batched_requests_total"), batches), "count", int(batches))
	m.set("admission.batches", batches, "count", int(batches))
	m.set("admission.expired", d.delta(i, "adrias_serve_expired_in_queue_total"), "count", int(batches))
	m.set("admission.overload", d.delta(i, `adrias_serve_requests_total{outcome="overload"}`), "count", t.attempted)

	var pb []float64
	var busy time.Duration
	prog := map[string][]float64{}
	perfTotal, placements := 0.0, 0
	reasonN := map[string]int{}
	fallbacks := 0
	for _, b := range d.batches {
		pb = append(pb, ms(b.end.Sub(b.start)))
		busy += b.end.Sub(b.start)
		for name, dur := range b.prog {
			prog[name] = append(prog[name], float64(dur)/1e3)
		}
		perfTotal += float64(b.prog["perf_predict"]) / 1e3
		placements += len(b.reasons)
		for _, r := range b.reasons {
			reasonN[r]++
		}
		fallbacks += b.fallbacks
	}
	ts := d.ticks[i]
	m.set("engine.place_batch_p50_ms", quantile(pb, 0.50), "ms", len(pb))
	m.set("engine.place_batch_p99_ms", quantile(pb, 0.99), "ms", len(pb))
	m.set("engine.busy_share", busy.Seconds()/secs, "ratio", len(pb))
	m.set("engine.advance_p50_ms", quantile(ts.durs, 0.50), "ms", len(ts.durs))
	m.set("engine.advance_max_ms", maxOf(ts.durs), "ms", len(ts.durs))
	advBusy := 0.0
	for _, x := range ts.durs {
		advBusy += x
	}
	m.set("engine.advance_busy_share", advBusy/1e3/secs, "ratio", len(ts.durs))
	m.set("engine.sim_per_wall", (d.snaps[i].sim-d.snaps[i-1].sim)/secs, "s/s", len(ts.durs))

	conflicts := d.delta(i, "adrias_serve_commit_conflicts_total")
	m.set("rack.commit_conflicts", conflicts, "count", t.ok)
	m.set("rack.commit_retries", d.delta(i, "adrias_serve_commit_retries_total"), "count", t.ok)
	m.set("rack.commit_downgrades", d.delta(i, "adrias_serve_commit_downgrades_total"), "count", t.ok)
	m.set("rack.retry_dropped", d.delta(i, "adrias_serve_retry_dropped_total"), "count", t.ok)
	m.set("rack.shard_reclones", d.delta(i, "adrias_serve_shard_reclones_total"), "count", t.ok)
	claims := 0.0
	if !d.w.dryRun {
		claims = float64(t.ok)
	}
	firstTry := 1.0
	if claims > 0 {
		firstTry = 1 - conflicts/claims
	}
	m.set("rack.first_try_commit_ratio", firstTry, "ratio", int(claims))

	m.set("core.signature_lookup_p50_us", quantile(prog["signature_lookup"], 0.50), "us", len(prog["signature_lookup"]))
	m.set("core.decide_p50_us", quantile(prog["decide"], 0.50), "us", len(prog["decide"]))
	for _, r := range reasons {
		m.set("core.reason."+r, float64(reasonN[r]), "count", placements)
	}
	m.set("core.fallback_share", ratio(float64(fallbacks), float64(placements)), "ratio", placements)
	m.set("core.reported_deployed_mismatch", float64(q.mismatch+q.unjoined), "count", len(t.answers))

	m.set("models.sysstate_predict_p50_us", quantile(prog["sysstate_predict"], 0.50), "us", len(prog["sysstate_predict"]))
	m.set("models.perf_predict_p50_us", quantile(prog["perf_predict"], 0.50), "us", len(prog["perf_predict"]))
	m.set("models.perf_predict_us_per_placement", ratio(perfTotal, float64(placements)), "us", placements)

	end := 0.0
	if len(ts.running) > 0 {
		end = ts.running[len(ts.running)-1]
	}
	m.set("cluster.running_mean", mean(ts.running), "count", len(ts.running))
	m.set("cluster.running_end", end, "count", len(ts.running))
	m.set("cluster.completed", float64(d.snaps[i].completed-d.snaps[i-1].completed), "count", len(ts.running))
	m.set("cluster.remote_free_gb_min", ts.remoteFreeMin, "GB", len(ts.running))

	l0, l1 := d.snaps[i-1].learn, d.snaps[i].learn
	outcomes := float64(l1.Outcomes - l0.Outcomes)
	joinDen := outcomes + float64(l1.Unmatched-l0.Unmatched) + float64(l1.Evicted-l0.Evicted)
	m.set("learn.outcomes", outcomes, "count", int(outcomes))
	m.set("learn.join_ratio", ratio(outcomes, joinDen), "ratio", int(joinDen))
	m.set("learn.pending_max", float64(ts.pendingMax), "count", len(ts.running))
	m.set("learn.retrains", float64(l1.Retrains-l0.Retrains), "count", 1)
	m.set("learn.swaps", float64(l1.Swaps-l0.Swaps), "count", 1)
	m.set("learn.discards", float64(l1.Discards-l0.Discards), "count", 1)

	m0, m1 := d.snaps[i-1].mem, d.snaps[i].mem
	m.set("runtime.alloc_bytes_per_req", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(t.attempted)), "B", t.attempted)
	m.set("runtime.cpu_us_per_req", ratio(float64(d.snaps[i].cpu-d.snaps[i-1].cpu)/1e3, float64(t.attempted)), "us", t.attempted)
	m.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 1)
	m.set("runtime.gc_pause_total_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", int(m1.NumGC-m0.NumGC))

	for _, l := range spanLayers {
		m.set("self_us."+l, lr.self[l], "us", lr.requests)
	}
	m.set("trace.accounted_share", lr.accounted, "ratio", lr.requests)
	m.set("trace.overhead_p50_ms", quantile(t.lat, 0.50)-refP50, "ms", len(t.lat))
	return m
}

// printLayers writes the traced phase's self-time table.
func printLayers(w io.Writer, lr layerReport, refP50, tracedP50 float64) {
	fmt.Fprintf(w, "self time per request over %d traced requests (mean latency %.4f ms):\n", lr.requests, lr.meanMs)
	for _, l := range spanLayers {
		share := 0.0
		if lr.meanMs > 0 {
			share = lr.self[l] / 1e3 / lr.meanMs
		}
		fmt.Fprintf(w, "  %-16s %10.2f us  %5.1f%%\n", l, lr.self[l], 100*share)
	}
	fmt.Fprintf(w, "spans account for %.1f%% of mean latency (the rest is loadgen self time)\n", 100*lr.accounted)
	if lr.missing > 0 {
		fmt.Fprintf(w, "%d traced requests had no program trace left in the ring\n", lr.missing)
	}
	fmt.Fprintf(w, "tracing overhead: latency_p50_ms traced %.4f - untraced %.4f = %+.4f ms\n",
		tracedP50, refP50, tracedP50-refP50)
}
