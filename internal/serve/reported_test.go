package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"adrias/internal/bus"
	"adrias/internal/cluster"
	"adrias/internal/core"
	"adrias/internal/learn"
	"adrias/internal/obs"
)

// TestReportedEqualsDeployed: what the service tells a caller is what it
// did. Two racks put capacity pressure on each tier — remote pools that
// hold two of three cold starts each (remote verdicts, some must land
// local) and 12 GB local pools that LC apps without a QoS target overflow
// (local verdicts cluster.Deploy moves to remote) — decided by one shard
// (the engine's own PlaceBatch) and by two shards concurrently. The
// instances that appeared on each node must match the answers one for
// one, and for every committed request the audit record, the admission
// wide event, the bus decision event and the learning loop's placement
// (read back through its outcome event) must carry the answered tier,
// node and model generation.
func TestReportedEqualsDeployed(t *testing.T) {
	for _, sc := range []struct {
		name, decided     string
		apps              []string
		localGB, remoteGB float64
	}{
		{"remote-full", "remote", []string{"gmm", "pca", "gmm", "pca", "gmm", "pca"}, 0, 6},
		{"local-full", "local", []string{"redis", "memcached", "redis", "memcached"}, 12, 0},
	} {
		for _, replicas := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/replicas-%d", sc.name, replicas), func(t *testing.T) {
				ccfg := cluster.DefaultConfig()
				if sc.localGB > 0 {
					ccfg.Node.LocalDRAMBytes = sc.localGB * 1e9
				}
				if sc.remoteGB > 0 {
					ccfg.Node.RemotePoolGB = sc.remoteGB
				}
				events := bus.New()
				events.Buffer = 256
				published, cancel := events.Subscribe("orchestrator.decisions")
				defer cancel()
				sink := obs.NewEventSink(256, 1, nil)
				// gmm and pca lose their signatures: cold starts, decided remote.
				eng := NewSystemEngine(isolatedPredictor(t, "gmm", "pca"),
					&core.Watcher{HistTicks: tiny.watch.HistTicks, Steps: tiny.watch.Steps}, registry,
					EngineConfig{Seed: 71, Nodes: 2, AmbientRate: 1e-9, Cluster: &ccfg,
						Bus: events, Events: sink, Learn: &learn.Config{}})
				eng.audit = obs.NewAuditLog(256)

				type slot struct {
					node      int
					app, tier string
				}
				deployed := make(map[slot]int) // ground truth: new instances per node
				for n, c := range eng.nodes {
					for _, in := range c.Running() {
						deployed[slot{n, in.Profile.Name, in.Tier.String()}]--
					}
				}
				reqs := make([]PlaceRequest, len(sc.apps))
				for i, a := range sc.apps {
					reqs[i] = PlaceRequest{App: a, TraceID: fmt.Sprint("req-", i)}
				}
				answers := make(map[string]PlaceResult)
				moved := 0
				for _, r := range placeAcross(eng, replicas, reqs) {
					if r.Err != nil {
						t.Fatalf("%s: %v", r.TraceID, r.Err)
					}
					answers[r.TraceID] = r
					deployed[slot{r.Node, r.App, r.Tier.String()}]--
					if r.Tier.String() != sc.decided {
						moved++
					}
				}
				for n, c := range eng.nodes {
					for _, in := range c.Running() {
						deployed[slot{n, in.Profile.Name, in.Tier.String()}]++
					}
				}
				for s, n := range deployed {
					if n != 0 {
						t.Errorf("node %d %s on %s: %+d instances beyond the answers", s.node, s.app, s.tier, n)
					}
				}
				if moved == 0 {
					t.Fatalf("nothing left the %s tier: no capacity pressure exercised", sc.decided)
				}
				gen := eng.Learner().Generation()
				check := func(src, trace, tier string, node, modelGen int) {
					t.Helper()
					if r := answers[trace]; tier != r.Tier.String() || node != r.Node || modelGen != gen {
						t.Errorf("%s of %s: %s on node %d gen %d; answered %s on node %d gen %d",
							src, trace, tier, node, modelGen, r.Tier, r.Node, gen)
					}
				}
				for trace := range answers {
					rec, _ := eng.audit.Find(trace)
					check("audit record", trace, rec.Tier, rec.Node, rec.ModelGen)
					var ev decisionEvent
					if err := (<-published).Decode(&ev); err != nil {
						t.Fatal(err)
					}
					check("bus event", ev.TraceID, ev.Tier, ev.Node, ev.ModelGen)
				}
				admissions := 0
				for _, ev := range sink.Snapshot() {
					admissions++
					check("wide event", ev.TraceID, ev.Tier, ev.Node, ev.ModelGen)
				}
				if admissions != len(reqs) {
					t.Errorf("%d admission wide events for %d committed requests", admissions, len(reqs))
				}
				// The learner's placements come back as outcome events once
				// the instances complete.
				for tick := 0; tick < 60 && int(sink.Total()) < 2*len(reqs); tick++ {
					eng.Advance(120)
				}
				outcomes := 0
				for _, ev := range sink.Snapshot() {
					if ev.Kind == "outcome" {
						outcomes++
						check("learner placement", ev.TraceID, ev.Tier, ev.Node, ev.ModelGen)
					}
				}
				if outcomes != len(reqs) {
					t.Errorf("%d of %d placements joined back as outcomes", outcomes, len(reqs))
				}
			})
		}
	}
}

// placeAcross decides reqs through `replicas` deciders: the engine's own
// PlaceBatch for one, otherwise fresh shards deciding their round-robin
// share of the requests concurrently.
func placeAcross(eng *SystemEngine, replicas int, reqs []PlaceRequest) []PlaceResult {
	if replicas == 1 {
		return eng.PlaceBatch(context.Background(), reqs)
	}
	var mu sync.Mutex
	var out []PlaceResult
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		var share []PlaceRequest
		for i := r; i < len(reqs); i += replicas {
			share = append(share, reqs[i])
		}
		sh := eng.NewShard(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := sh.PlaceBatch(context.Background(), share)
			mu.Lock()
			out = append(out, res...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}
