package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// parseProm reads Prometheus text exposition and returns every sample
// keyed by its series name with labels exactly as written, e.g.
// `adrias_serve_requests_total{outcome="ok"}`. Comment and blank lines are
// skipped; a sample line without a parsable value is an error.
func parseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || l[0] == '#' {
			continue
		}
		// The value follows the series; labels may hold spaces, so split
		// after the closing brace when there is one.
		series, rest := l, ""
		if i := strings.LastIndexByte(l, '}'); i >= 0 {
			series, rest = l[:i+1], strings.TrimSpace(l[i+1:])
		} else if i := strings.IndexByte(l, ' '); i >= 0 {
			series, rest = l[:i], strings.TrimSpace(l[i+1:])
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("prometheus text line %d: no value in %q", line, l)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text line %d: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}
