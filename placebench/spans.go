package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Layers, outermost first. A span's depth is its layer's index: a layer's
// spans nest inside the nearest shallower layer's span of the same trace.
const (
	layerLoadgen   = "loadgen"
	layerHTTP      = "serve.http"
	layerAdmission = "serve.admission"
	layerEngine    = "serve.engine"
	layerCore      = "core"
	layerModels    = "models"
)

var layerDepth = map[string]int{
	layerLoadgen: 0, layerHTTP: 1, layerAdmission: 2, layerEngine: 2,
	layerCore: 3, layerModels: 3,
}

// spanLayers lists the request-path layers in report order.
var spanLayers = []string{layerLoadgen, layerHTTP, layerAdmission, layerEngine, layerCore, layerModels}

// programLayer maps the spans the program records per request or batch to
// their layer.
var programLayer = map[string]string{
	"queue_wait":       layerAdmission,
	"coalesce":         layerAdmission,
	"signature_lookup": layerCore,
	"decide":           layerCore,
	"sysstate_predict": layerModels,
	"perf_predict":     layerModels,
}

// span is one timed interval of a traced request (or of the tick driver,
// with an empty Trace). Times are nanoseconds since the run's epoch.
type span struct {
	Trace   string `json:"trace_id,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Program bool   `json:"program_recorded,omitempty"`
}

type interval struct{ lo, hi int64 }

// union merges intervals into disjoint, ascending ones.
func union(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := []interval{s[0]}
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			if x.hi > last.hi {
				last.hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// overlap returns the total length where two disjoint ascending interval
// sets intersect.
func overlap(a, b []interval) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// selfTimes computes each layer's self time over the spans of one trace:
// the time its spans cover (overlapping spans of a layer count once) minus
// the part of that time covered by spans of deeper layers.
func selfTimes(spans []span) map[string]int64 {
	byLayer := make(map[string][]interval)
	for _, s := range spans {
		if s.End > s.Start {
			byLayer[s.Layer] = append(byLayer[s.Layer], interval{s.Start, s.End})
		}
	}
	out := make(map[string]int64, len(byLayer))
	for layer, iv := range byLayer {
		own := union(iv)
		var deeper []interval
		for other, oiv := range byLayer {
			if layerDepth[other] > layerDepth[layer] {
				deeper = append(deeper, oiv...)
			}
		}
		out[layer] = length(own) - overlap(own, union(deeper))
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
