// Command placebench runs one named workload against the Adrias placement
// service and prints its metrics. The service is assembled in this process
// from the public constructors cmd/adrias-serve uses (fast-trained models,
// SystemEngine, Service, HTTP handler on a loopback listener, binary
// defaults plus the quantized path); the benchmark advances the testbed
// itself at the workload's simulated speed.
//
//	go run . --workload whatif-http --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures end-to-end metrics with no probes in the stack.
// --trace 1 builds the stack with probes, measures an untraced reference
// for the first half of the run and a traced second half, prints per-layer
// metrics and self times, and writes the spans as JSON lines under
// .bench_build/spans. The last line of standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when an answer failed validation or the run was not valid.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart anchors the first set-up's time (package initialization
// runs before main, so this is within the runtime's start-up of the
// process start).
var processStart = time.Now()

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: whatif-http, rack-admit or surge-inproc")
	seed := flag.Int64("seed", 1, "workload seed: application order and arrival schedule")
	seconds := flag.Float64("seconds", 10, "measured seconds (after warm-up)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	commit := flag.String("commit", "unknown", "source commit, for the result stamp")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "placebench: need --workload (whatif-http, rack-admit, surge-inproc), --seconds > 0, --trace 0|1\n")
		return 2
	}
	traced := *trace == 1
	fmt.Printf("stamp workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *commit)

	var st *stack
	var setupS []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				fmt.Fprintf(os.Stderr, "placebench: closing set-up %d: %v\n", i, err)
				return 1
			}
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if st, err = buildStack(w, traced); err != nil {
			fmt.Fprintf(os.Stderr, "placebench: set-up: %v\n", err)
			return 1
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer st.close()
	fmt.Printf("setup_s samples %v\n", setupS)

	reg := st.sys.Registry
	var names []string
	for _, p := range append(reg.Spark(), reg.LC()...) {
		names = append(names, p.Name)
	}
	apps := appSequence(*seed, names, 1<<16)
	measured := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	bounds := []time.Time{start, start.Add(w.warmup)}
	tracedPhase := 0
	if traced {
		bounds = append(bounds, start.Add(w.warmup+measured/2))
		tracedPhase = 2
	}
	bounds = append(bounds, start.Add(w.warmup+measured))
	var schedule []time.Duration
	if w.mode == openHTTP {
		schedule = poissonSchedule(*seed+7919, w.rate, w.warmup+measured)
	}

	d := newDriver(w, st, apps, phases{bounds: bounds}, tracedPhase)
	if err := d.run(schedule); err != nil {
		fmt.Fprintf(os.Stderr, "placebench: %v\n", err)
		return 1
	}

	// The reported phase: the measured one, or the traced one.
	rp := 1
	if traced {
		rp = tracedPhase
	}
	t := d.tallies[rp]
	var q quality
	if !w.dryRun {
		if total := st.sink.Total(); total > uint64(st.sink.Capacity()) {
			fmt.Fprintf(os.Stderr, "placebench: wide-event ring overflowed (%d events); joins are incomplete\n", total)
			return 1
		}
		q = joinEvents(t.answers, st.sink.Snapshot(), reg, qosFactor)
	}
	e2e := d.endToEnd(rp, q)
	e2e.set("setup_s", median(setupS), "s", len(setupS))
	valid := d.checks(rp, t)

	fmt.Printf("phase %d: attempted %d ok %d failed %d (transport %d, invalid %d) status %v\n",
		rp, t.attempted, t.ok, t.failed, t.transport, t.invalid, t.status)
	if len(t.bad) > 0 {
		fmt.Printf("first offending answers:\n  %s\n", strings.Join(t.bad, "\n  "))
	}
	if !w.dryRun {
		fmt.Printf("wide-event join: %d answers, %d tier/node mismatches, %d without an admission event, %d realized outcomes\n",
			len(t.answers), q.mismatch, q.unjoined, q.outcomeCount)
	}
	e2e.print(os.Stdout, "end_to_end ")

	res := result{Correct: t.invalid == 0 && valid, Attempted: t.attempted, Failed: t.failed}
	if traced {
		refP50 := quantile(d.tallies[1].lat, 0.50)
		lr := d.assembleTraces()
		printLayers(os.Stdout, lr, refP50, quantile(t.lat, 0.50))
		pl := d.perLayer(q, lr, refP50)
		pl.print(os.Stdout, "per_layer ")
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, lr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "placebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %d spans to %s\n", len(lr.spans), path)
		res.Metrics = pl
	} else {
		res.Metrics = e2e.pick(endToEndNames)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "placebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct || ratio(float64(res.Failed), float64(res.Attempted)) > maxFailedShare {
		return 1
	}
	return 0
}

// setups is how many times a run sets the stack up; setup_s is their
// median and the last set-up serves the run.
const setups = 3

// maxFailedShare is the share of failed requests beyond which the run's
// latencies no longer describe the service, and the run is invalid.
const maxFailedShare = 0.01

// checks reports whether the run stayed valid: the generator kept up,
// and a deploying workload stayed stationary.
func (d *driver) checks(i int, t *tally) bool {
	ok := true
	fail := func(format string, args ...any) {
		fmt.Printf("INVALID: "+format+"\n", args...)
		ok = false
	}
	if len(t.lat) > 0 && len(t.late) > 0 {
		if late, lat := quantile(t.late, 0.5), quantile(t.lat, 0.5); late > lat/2 {
			fail("generator lateness p50 %.3f ms is over half of latency p50 %.3f ms", late, lat)
		}
	}
	if !d.w.stationary {
		return ok
	}
	ts := d.ticks[i]
	target := d.w.simPerTick / d.w.tick.Seconds()
	achieved := (d.snaps[i].sim - d.snaps[i-1].sim) / d.ph.dur(i).Seconds()
	fmt.Printf("stationarity: sim_per_wall %.1f (target %.1f)", achieved, target)
	if achieved < 0.9*target {
		fmt.Println()
		fail("testbed advanced %.1f sim-s per wall-s, under 90%% of %.1f", achieved, target)
	}
	if n := len(ts.running); n >= 2 {
		mid, end := ts.running[n/2], ts.running[n-1]
		fmt.Printf(", running mid %.0f end %.0f, pending max %d\n", mid, end, ts.pendingMax)
		// Occupancy swings by half either way as long jobs come and go;
		// a backlog that builds up grows by far more.
		if end > 2*mid+50 {
			fail("running instances grew from %.0f at mid-run to %.0f at the end", mid, end)
		}
	} else {
		fmt.Println()
		fail("too few rack samples (%d) to check stationarity", n)
	}
	if d.w.learn {
		l0, l1 := d.snaps[i-1].learn, d.snaps[i].learn
		fmt.Printf("learning loop: %d outcomes, %d retrains, %d swaps, %d discards, generation %d\n",
			l1.Outcomes-l0.Outcomes, l1.Retrains-l0.Retrains, l1.Swaps-l0.Swaps, l1.Discards-l0.Discards, l1.Generation)
	}
	if d.w.learn && ts.pendingMax >= pendingCap {
		fail("learning loop's pending table hit its cap (%d)", ts.pendingMax)
	}
	return ok
}

// pendingCap is the learning loop's default decision→outcome table size.
const pendingCap = 2048

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
