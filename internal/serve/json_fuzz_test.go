package serve

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// The seed corpora live in testdata/fuzz/<target>/ and run as plain tests.

// FuzzParsePlaceRequest: whenever the fast parser accepts a body, it must
// have decoded exactly what encoding/json decodes — the handler trusts an
// accepting fast path and skips the real decoder.
func FuzzParsePlaceRequest(f *testing.F) {
	names := newInternTable(64)
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want PlaceHTTPRequest
		if !parsePlaceRequest(body, &got, names) {
			return
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, err)
		}
		if got != want {
			t.Fatalf("parse %q = %+v, encoding/json %+v", body, got, want)
		}
	})
}

// FuzzAppendPlaceResponse: the hand-rolled encoder's output must decode
// with encoding/json back to the response it encoded. Strings that are not
// valid UTF-8 come back as encoding/json's own round trip renders them
// (invalid bytes as U+FFFD); non-finite floats never reach the encoder
// (core gates predictions), so they are out of the domain.
func FuzzAppendPlaceResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, app, class, tier string, predLocal, predRemote float64,
		coldStart, fallback bool, reason string, batchSize, node int, traceID string) {
		if math.IsNaN(predLocal) || math.IsInf(predLocal, 0) || math.IsNaN(predRemote) || math.IsInf(predRemote, 0) {
			t.Skip()
		}
		r := PlaceHTTPResponse{
			App: app, Class: class, Tier: tier, PredLocalS: predLocal, PredRemoteS: predRemote,
			ColdStart: coldStart, Fallback: fallback, Reason: reason,
			BatchSize: batchSize, Node: node, TraceID: traceID,
		}
		want := r
		for _, s := range []string{app, class, tier, reason, traceID} {
			if !utf8.ValidString(s) {
				want = PlaceHTTPResponse{}
				if err := json.Unmarshal(stdlibEncode(t, r), &want); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		out := appendPlaceResponse(nil, &r)
		var got PlaceHTTPResponse
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("encoded %+v as %q, which encoding/json rejects: %v", r, out, err)
		}
		if got != want {
			t.Fatalf("round trip of %+v through %q = %+v, want %+v", r, out, got, want)
		}
	})
}
