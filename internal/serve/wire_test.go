package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/sweep"
)

// wireRequests cover every field of the request frame, metric specs
// and their bool slots included.
var wireRequests = []ShardRequest{
	{SweepRequest: SweepRequest{Model: "synth"}},
	{SweepRequest: SweepRequest{Model: "synth", TopK: 7, Chunk: 64, Workers: 3, Kernel: "fast32"}, Start: 40, End: 104},
	{SweepRequest: SweepRequest{
		Models: []string{"perf", "energy"},
		Metrics: []sweep.MetricSpec{
			{Name: "ipc", Model: "perf"},
			{Name: "conf", Model: "perf", Output: 2, Variance: true, Minimize: true},
		},
		TopK:   -1,
		Kernel: "exact",
	}},
}

// TestShardRequestBinaryRoundTrip pins the request frame: every field
// — including the kernel tier and metric specs — survives
// Marshal∘Unmarshal exactly.
func TestShardRequestBinaryRoundTrip(t *testing.T) {
	for i, req := range wireRequests {
		data, err := req.MarshalBinary()
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var got ShardRequest
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("case %d: round trip changed the request:\nwant %+v\ngot  %+v", i, req, got)
		}
		// Truncation at every byte must error, never panic or succeed.
		for n := 0; n < len(data); n++ {
			if err := got.UnmarshalBinary(data[:n]); err == nil {
				t.Fatalf("case %d: truncation to %d of %d bytes decoded", i, n, len(data))
			}
		}
		if err := got.UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
			t.Fatalf("case %d: trailing byte decoded", i)
		}
		if len(req.Metrics) == 0 {
			continue
		}
		// A bool byte other than 0 or 1 — here the last metric's
		// Minimize flag, just before the fixed-width tail — has no
		// canonical re-encoding and must be rejected by offset.
		off := len(data) - (5*8 + 4 + len(req.Kernel)) - 1
		if data[off] != 1 {
			t.Fatalf("case %d: byte %d is %d, not the Minimize flag", i, off, data[off])
		}
		bad := append([]byte(nil), data...)
		bad[off] = 0x30
		if err := got.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", off)) {
			t.Fatalf("case %d: Minimize byte 0x30 decoded or error names no offset: %v", i, err)
		}
	}
}

// FuzzShardRequestBinary hardens the request decoder against arbitrary
// bytes: it must never panic, and anything it accepts must re-encode to
// exactly the bytes it was decoded from.
func FuzzShardRequestBinary(f *testing.F) {
	for _, req := range wireRequests {
		seed, err := req.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ShardRequest
		if err := req.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := req.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input re-encodes differently:\nin  %x\nout %x", data, enc)
		}
	})
}

// postShardRaw sends one shard request with an explicit Content-Type
// and returns the response Content-Type and body.
func postShardRaw(t *testing.T, url string, body []byte, contentType string) (string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep/shard", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("shard status %d: %s", resp.StatusCode, msg)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), raw
}

// TestServerDefaultKernel pins the -kernel server default: a shard
// request that leaves "kernel" unset runs the configured tier, while
// an explicit "exact" overrides the default back to the bit-identical
// kernel (the empty partial label).
func TestServerDefaultKernel(t *testing.T) {
	b := trainedBundle(t)
	reg := NewRegistry()
	if _, err := reg.Add("synth", b, CoalesceOpts{}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	srv.SetDefaultKernel(ann.KernelFast32)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	for _, tc := range []struct {
		body, want string
	}{
		{`{"model":"synth","topk":3,"chunk":16}`, ann.KernelFast32.String()},
		{`{"model":"synth","topk":3,"chunk":16,"kernel":"exact"}`, ""},
	} {
		_, raw := postShardRaw(t, ts.URL, []byte(tc.body), "application/json")
		var resp ShardResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Partial.Kernel != tc.want {
			t.Fatalf("request %s ran kernel %q, want %q", tc.body, resp.Partial.Kernel, tc.want)
		}
	}
}

// TestShardBinaryNegotiation drives both wire formats end to end
// against a live server: the response format follows the request's —
// JSON in gives JSON out, binary in gives binary out — and both carry
// the identical partial, labelled fast32 for a fast32 request.
func TestShardBinaryNegotiation(t *testing.T) {
	ts, _, _ := newTestServer(t, CoalesceOpts{})
	req := ShardRequest{SweepRequest: SweepRequest{Model: "synth", TopK: 5, Chunk: 16, Kernel: "fast32"}}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	ct, raw := postShardRaw(t, ts.URL, jsonBody, "application/json")
	if ct != "application/json" {
		t.Fatalf("JSON request answered Content-Type %q", ct)
	}
	var viaJSON ShardResponse
	if err := json.Unmarshal(raw, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if viaJSON.Partial.Kernel != ann.KernelFast32.String() {
		t.Fatalf("partial kernel %q, want fast32", viaJSON.Partial.Kernel)
	}

	ct, raw = postShardRaw(t, ts.URL, binBody, ShardRequestMediaType)
	if ct != ShardResponseMediaType {
		t.Fatalf("binary request answered Content-Type %q, want binary", ct)
	}
	var viaBinary ShardResponse
	if err := viaBinary.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(viaJSON.Partial)
	have, _ := json.Marshal(viaBinary.Partial)
	if !bytes.Equal(want, have) {
		t.Fatalf("binary partial diverged from JSON path:\nwant %s\ngot  %s", want, have)
	}
	// Truncations of the response frame must error cleanly.
	var scratch ShardResponse
	for n := 0; n < len(raw); n += 7 {
		if err := scratch.UnmarshalBinary(raw[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(raw))
		}
	}
}
