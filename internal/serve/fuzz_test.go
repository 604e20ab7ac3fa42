package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// FuzzMetricsEscape pins the Prometheus label-escaping pair: escaping
// must round-trip through unescaping for any input, and the escaped
// form must be safe to embed between double quotes in the text
// exposition format (no raw quote, no raw newline, no dangling
// backslash). The seed corpus in testdata/fuzz covers the specials;
// CI runs the corpus as regular tests.
func FuzzMetricsEscape(f *testing.F) {
	f.Add("")
	f.Add("plain-model-name")
	f.Add(`back\slash`)
	f.Add(`qu"ote`)
	f.Add("new\nline")
	f.Add(`mixed "\` + "\n" + `" soup`)
	f.Add("trailing\\")
	f.Fuzz(func(t *testing.T, s string) {
		esc := escapeLabel(s)
		if strings.Contains(esc, "\n") {
			t.Fatalf("escapeLabel(%q) = %q contains a raw newline", s, esc)
		}
		for i := 0; i < len(esc); i++ {
			switch esc[i] {
			case '\\':
				if i+1 >= len(esc) {
					t.Fatalf("escapeLabel(%q) = %q ends in a dangling backslash", s, esc)
				}
				if c := esc[i+1]; c != '\\' && c != '"' && c != 'n' {
					t.Fatalf("escapeLabel(%q) = %q has unknown escape \\%c", s, esc, c)
				}
				i++
			case '"':
				t.Fatalf("escapeLabel(%q) = %q contains an unescaped quote", s, esc)
			}
		}
		back, ok := unescapeLabel(esc)
		if !ok {
			t.Fatalf("unescapeLabel rejected escapeLabel(%q) = %q", s, esc)
		}
		if back != s {
			t.Fatalf("round trip: %q -> %q -> %q", s, esc, back)
		}
		// Unescaping any *accepted* string must itself re-escape to the
		// identical bytes — the pair is a bijection on escaped forms.
		if s2, ok := unescapeLabel(s); ok {
			if re := escapeLabel(s2); re != s {
				t.Fatalf("accepted escaped form %q re-escapes to %q", s, re)
			}
		}
	})
}

// sweepRejectionNames matches what a rejected sweep request's error
// must name: the request field that holds the offending value, or the
// model or metric entry at fault.
var sweepRejectionNames = regexp.MustCompile(`"models?"|\b(topk|chunk|workers)\b|\b(model|metric)( name)? "`)

// FuzzSweepRequest decodes fuzzed POST /v1/sweep bodies as the handler
// does (decodeBody) and resolves them against a one-model registry
// (resolveSweepRequest). Nothing may panic; a body that does not decode
// is rejected as an invalid request body, and every request that
// decodes but is rejected names the offending field or entry. The seeds
// are TestSweepSubmitValidation's cases, a valid request of each form,
// and bodies the decoder must reject.
func FuzzSweepRequest(f *testing.F) {
	reg := NewRegistry()
	if _, err := reg.Add("synth", trainedBundle(f), CoalesceOpts{}); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(reg.Close)
	for _, req := range []SweepRequest{
		{Model: "synth", Models: []string{"synth"}},
		{Model: "nope"},
		{Models: []string{""}},
		{Model: "synth", TopK: maxSweepTopK + 1},
		{Model: "synth", Chunk: -1},
		{Model: "synth", Workers: -1},
		{Model: "synth", Metrics: []sweep.MetricSpec{{Model: "ghost"}}},
		{Model: "synth", Metrics: []sweep.MetricSpec{{Output: 4}}},
		{TopK: -1},
		{Models: []string{"synth", "synth"}},
		{Metrics: []sweep.MetricSpec{{Name: "a"}, {Name: "a", Variance: true}}},
		{Model: "synth", TopK: 3, Chunk: 7, Workers: 2, Metrics: []sweep.MetricSpec{{Name: "ipc"}, {Name: "conf", Variance: true, Minimize: true}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{``, `{}`, `[]`, `{"kernel":"exact"}`, `{"topk":"3"}`, `{"metrics":[{"output":1.5}]}`, `{} {}`, `{"model":"synth"`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if err := decodeBody(httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)), &req); err != nil {
			if !strings.HasPrefix(err.Error(), "invalid request body: ") {
				t.Fatalf("body %q: decode error %q is not an invalid-body rejection", body, err)
			}
			return
		}
		set, sp, err := resolveSweepRequest(reg, req)
		if err != nil {
			if !sweepRejectionNames.MatchString(err.Error()) {
				t.Fatalf("body %q: rejection %q names no field or entry", body, err)
			}
			return
		}
		if set == nil || sp == nil || set.Len() == 0 {
			t.Fatalf("body %q: accepted without a metric set and a space", body)
		}
	})
}
