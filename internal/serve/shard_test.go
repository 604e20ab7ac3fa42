package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/sweep"
)

// postShard submits one shard request and decodes the response,
// returning the HTTP status and (on 200) the shard document.
func postShard(t *testing.T, url string, req ShardRequest) (int, *ShardResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, nil, e.Error
	}
	var out ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out, ""
}

// TestSweepShardsMergeToFullRun: two served shards must merge into the
// exact in-process full-space reduction — the node-side half of the
// distributed bit-identity guarantee.
func TestSweepShardsMergeToFullRun(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	size := sp.Size()
	mid := (size / 2) - 3 // deliberately not chunk-aligned
	req := SweepRequest{Model: "synth", TopK: 5, Chunk: 16}

	status, left, _ := postShard(t, ts.URL, ShardRequest{SweepRequest: req, Start: 0, End: mid})
	if status != http.StatusOK {
		t.Fatalf("left shard status %d", status)
	}
	status, right, _ := postShard(t, ts.URL, ShardRequest{SweepRequest: req, Start: mid})
	if status != http.StatusOK {
		t.Fatalf("right shard status %d", status)
	}
	if left.Partial.End != mid || right.Partial.Start != mid || right.Partial.End != size {
		t.Fatalf("shard ranges [%d,%d) and [%d,%d)", left.Partial.Start, left.Partial.End,
			right.Partial.Start, right.Partial.End)
	}
	if err := left.Partial.Merge(right.Partial); err != nil {
		t.Fatal(err)
	}

	want, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: 5, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := left.Partial.Result()
	want.Elapsed, want.PointsPerSec = 0, 0
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served shards != in-process run\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestSweepShardVarianceOnly: a shard whose only metric is the model's
// variance answers 200 with the variance leaderboard of the default
// mean+variance sweep, and the node keeps serving afterwards. The
// engine scores inside its own worker goroutines, where net/http does
// not recover a panic, so any panic on this path kills the process.
func TestSweepShardVarianceOnly(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	req := SweepRequest{Model: "synth", TopK: 5, Chunk: 16,
		Metrics: []sweep.MetricSpec{{Name: "conf", Model: "synth", Variance: true, Minimize: true}}}
	status, out, msg := postShard(t, ts.URL, ShardRequest{SweepRequest: req})
	if status != http.StatusOK {
		t.Fatalf("variance-only shard: status %d, error %q", status, msg)
	}
	set, sp, err := sweep.Resolve(sweep.DefaultSpecs([]string{"synth"}),
		map[string]*bundle.Bundle{"synth": b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(context.Background(), sp, set, sweep.Config{TopK: 5, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Partial.Result()
	for i, p := range got.TopK[0] {
		q := want.TopK[1][i]
		if p.Index != q.Index || p.Values[0] != q.Values[1] {
			t.Fatalf("variance rank %d: shard has point %d (%v), mean+variance sweep %d (%v)",
				i, p.Index, p.Values[0], q.Index, q.Values[1])
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the shard: status %d", resp.StatusCode)
	}
}

// TestSweepShardValidation: malformed shard requests answer 4xx with
// errors naming the problem; nothing is computed.
func TestSweepShardValidation(t *testing.T) {
	ts, _, b := newTestServer(t, CoalesceOpts{})
	size := b.Space.Size()
	cases := []struct {
		req    ShardRequest
		status int
		want   string
	}{
		{ShardRequest{SweepRequest: SweepRequest{Model: "nope"}}, http.StatusNotFound, "unknown model"},
		{ShardRequest{SweepRequest: SweepRequest{Model: "synth"}, Start: -1, End: 5}, http.StatusBadRequest, "Config.Start"},
		{ShardRequest{SweepRequest: SweepRequest{Model: "synth"}, Start: 0, End: size + 9}, http.StatusBadRequest, "Config.End"},
		{ShardRequest{SweepRequest: SweepRequest{Model: "synth"}, Start: 9, End: 4}, http.StatusBadRequest, "before"},
		{ShardRequest{SweepRequest: SweepRequest{Model: "synth", Chunk: -2}}, http.StatusBadRequest, "chunk"},
		{ShardRequest{SweepRequest: SweepRequest{Models: []string{"synth", "synth"}}}, http.StatusBadRequest, "listed twice"},
	}
	for _, tc := range cases {
		status, _, msg := postShard(t, ts.URL, tc.req)
		if status != tc.status || !strings.Contains(msg, tc.want) {
			t.Errorf("req %+v: status %d, error %q; want %d containing %q", tc.req, status, msg, tc.status, tc.want)
		}
	}
}
