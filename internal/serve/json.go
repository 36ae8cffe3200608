package serve

import (
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"adrias/internal/obs"
)

// Hand-rolled JSON for the placement hot path. The HTTP handler's steady
// state is: read a tiny request body, decode three known fields, decide,
// encode ten known fields. encoding/json pays reflection and transient
// buffers on every call; the fast path below reuses pooled per-request
// scratch (placeBuf) and produces output byte-identical to encoding/json —
// pinned by the golden-bytes test — falling back to the real decoder on
// anything the fast parser does not recognize, so semantics never diverge.

// placeBuf is one request's pooled scratch: the body staging buffer, the
// decoded request struct, and the response encoding buffer. A placeBuf is
// owned by exactly one in-flight request between Get and Put (the -race
// hammer test drives concurrent requests through the pool to prove it).
type placeBuf struct {
	body []byte
	req  PlaceHTTPRequest
	out  []byte
}

var placeBufPool = sync.Pool{
	New: func() any {
		return &placeBuf{body: make([]byte, 0, 512), out: make([]byte, 0, 256)}
	},
}

// readBody reads r fully into dst's backing array, growing it only when a
// body exceeds the pooled capacity.
func readBody(r io.Reader, dst []byte) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// internTable maps app-name bytes to durable strings so that steady-state
// decoding never allocates for names it has seen before. Admission traffic
// asks about a small fixed registry, so the table converges fast; a size
// cap keeps unknown-app floods from growing it without bound (they fall
// back to an allocating string conversion — the error path anyway).
type internTable struct {
	mu  sync.RWMutex
	m   map[string]string
	cap int
	// fullSkips counts interns served without admission because the table
	// was at capacity — previously a silent degradation to per-request
	// allocations; now surfaced on /metrics and warned about once.
	fullSkips uint64
	warnOnce  sync.Once
}

func newInternTable(capacity int) *internTable {
	return &internTable{m: make(map[string]string, capacity), cap: capacity}
}

// intern returns a durable string equal to b. The read path is
// allocation-free for known names (map lookup keyed by string(b) does not
// materialize the string).
func (t *internTable) intern(b []byte) string {
	t.mu.RLock()
	s, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	t.mu.Lock()
	if len(t.m) < t.cap {
		t.m[s] = s
	} else {
		t.fullSkips++
		t.warnOnce.Do(func() {
			obs.Logger("serve").Warn("app-name intern table full; new names now allocate per request",
				"capacity", t.cap, "name", s)
		})
	}
	t.mu.Unlock()
	return s
}

// stats returns the table occupancy, its capacity, and the number of
// interns skipped because the table was full.
func (t *internTable) stats() (size, capacity int, fullSkips uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m), t.cap, t.fullSkips
}

// parsePlaceRequest decodes the POST /v1/place body into req on the fast
// path: a flat JSON object with the three known keys, no escape sequences.
// It returns false — leaving req in an unspecified state — whenever the
// body strays from that shape (escapes, nesting, unknown keys, syntax
// errors); the caller then reruns the real decoder for exact
// encoding/json semantics, including its error text.
func parsePlaceRequest(b []byte, req *PlaceHTTPRequest, names *internTable) bool {
	*req = PlaceHTTPRequest{}
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "app":
			v, j, ok := scanString(b, i)
			if !ok {
				return false
			}
			req.App = names.intern(v)
			i = j
		case "dry_run":
			v, j, ok := scanBool(b, i)
			if !ok {
				return false
			}
			req.DryRun = v
			i = j
		case "deadline_ms":
			v, j, ok := scanNumber(b, i)
			if !ok {
				return false
			}
			req.DeadlineMs = v
			i = j
		default:
			// Unknown key: defer to encoding/json (which ignores it) rather
			// than teach the fast path to skip arbitrary values.
			return false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans a JSON string with no escapes, returning its raw bytes.
// Control bytes (invalid JSON) and invalid UTF-8 (which encoding/json
// decodes as U+FFFD) fall back too, so an accepted string is exactly the
// one encoding/json would decode.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '\\' || c < 0x20:
			return nil, i, false // escape or control byte: fall back to encoding/json
		case c == '"':
			if !ascii && !utf8.Valid(b[i+1:j]) {
				return nil, i, false
			}
			return b[i+1 : j], j + 1, true
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, i, false
}

func scanBool(b []byte, i int) (bool, int, bool) {
	if len(b)-i >= 4 && string(b[i:i+4]) == "true" {
		return true, i + 4, true
	}
	if len(b)-i >= 5 && string(b[i:i+5]) == "false" {
		return false, i + 5, true
	}
	return false, i, false
}

// scanNumber parses a JSON number without allocating, on the exact path
// only: JSON syntax (no leading zeros, digits on both sides of a dot), no
// exponent, at most 15 significant digits. The mantissa and its power of
// ten are then exact float64s, so the one division is correctly rounded —
// the value strconv.ParseFloat returns. Everything else falls back to
// encoding/json.
func scanNumber(b []byte, i int) (float64, int, bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	start, dot := j, -1 // dot: integer digits before the '.', once seen
	var mant int64
	digits := 0
	for ; j < len(b); j++ {
		c := b[j]
		if c == '.' && dot < 0 {
			dot = digits
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		if digits == 15 {
			return 0, i, false // past the exact path
		}
		mant = mant*10 + int64(c-'0')
		digits++
	}
	intDigits, frac := digits, 0
	if dot >= 0 {
		intDigits, frac = dot, digits-dot
	}
	if intDigits == 0 || (dot >= 0 && frac == 0) || (b[start] == '0' && intDigits > 1) ||
		(j < len(b) && (b[j] == 'e' || b[j] == 'E')) {
		return 0, i, false // missing digits, a leading zero, or an exponent
	}
	v := float64(mant) / math.Pow10(frac)
	if b[i] == '-' {
		v = -v
	}
	return v, j, true
}

// appendPlaceResponse encodes r exactly as encoding/json renders
// PlaceHTTPResponse — field order, omitempty, float formatting, HTML
// escaping, the Encoder's trailing newline — without allocating beyond
// dst's growth. Byte-identity is pinned by TestAppendPlaceResponseGolden.
func appendPlaceResponse(dst []byte, r *PlaceHTTPResponse) []byte {
	dst = append(dst, `{"app":`...)
	dst = appendJSONString(dst, r.App)
	dst = append(dst, `,"class":`...)
	dst = appendJSONString(dst, r.Class)
	dst = append(dst, `,"tier":`...)
	dst = appendJSONString(dst, r.Tier)
	if r.PredLocalS != 0 {
		dst = append(dst, `,"pred_local_s":`...)
		dst = appendJSONFloat(dst, r.PredLocalS)
	}
	if r.PredRemoteS != 0 {
		dst = append(dst, `,"pred_remote_s":`...)
		dst = appendJSONFloat(dst, r.PredRemoteS)
	}
	if r.ColdStart {
		dst = append(dst, `,"cold_start":true`...)
	}
	if r.Fallback {
		dst = append(dst, `,"fallback":true`...)
	}
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, r.Reason)
	}
	if r.BatchSize != 0 {
		dst = append(dst, `,"batch_size":`...)
		dst = strconv.AppendInt(dst, int64(r.BatchSize), 10)
	}
	if r.Node != 0 {
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, int64(r.Node), 10)
	}
	if r.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendJSONString(dst, r.TraceID)
	}
	return append(dst, '}', '\n')
}

const jsonHex = "0123456789abcdef"

// appendJSONString escapes s as encoding/json does with HTML escaping on:
// `"` `\` and controls escaped (shortcuts for \b \f \n \r \t, \u00xx
// otherwise), invalid UTF-8 bytes as \ufffd, the HTML trio `<` `>` `&`
// as \u003c/\u003e/\u0026, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control bytes and the HTML trio.
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat renders f exactly as encoding/json's floatEncoder:
// shortest 'f' form in the readable range, 'e' form with a trimmed
// exponent outside it. Non-finite values (which encoding/json rejects with
// an error) render as 0 — the placement pipeline never emits them
// (core.finitePred gates predictions).
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", matching encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
