package serve

import (
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/sweep"
)

// ShardRequest is the wire form of one sweep shard: a sweep request
// plus the half-open flat-index range [Start, End) this node scores.
// End == 0 selects the rest of the space, so a zero range sweeps it
// all — a one-node "cluster" degenerates to the full engine run.
type ShardRequest struct {
	SweepRequest
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
}

// ShardResponse carries one computed shard back to the coordinator:
// the deterministic partial reduction, plus this node's measured time
// and throughput for the shard. Elapsed and PointsPerSec are the only
// fields that vary between bit-identical runs.
type ShardResponse struct {
	Partial      *sweep.Partial `json:"partial"`
	Elapsed      time.Duration  `json:"elapsed"`
	PointsPerSec float64        `json:"pointsPerSec"`
}

// handleSweepShard runs one shard synchronously — unlike /v1/sweep it
// needs no job store, so any serving node can join a sweep cluster.
// The response partial is a pure function of (registered bundles,
// request), whatever node answers; a disconnect cancels the engine via
// the request context.
//
// The response format follows the request's (see wire.go): a binary
// request body gets a binary response, a JSON one a JSON response.
// Errors are JSON on every path.
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	binary := strings.HasPrefix(r.Header.Get("Content-Type"), ShardRequestMediaType)
	if binary {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
		if err == nil {
			err = req.UnmarshalBinary(body)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
			return
		}
	} else if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	set, sp, err := resolveSweepRequest(s.reg, req.SweepRequest)
	if err != nil {
		writeError(w, sweepErrorStatus(err), "%v", err)
		return
	}
	cfg := sweep.Config{
		TopK:      req.TopK,
		ChunkSize: req.Chunk,
		Workers:   req.engineWorkers(),
		Kernel:    req.kernelMode(s.kernel),
		Start:     req.Start,
		End:       req.End,
	}
	start := time.Now()
	p, err := sweep.RunPartial(r.Context(), sp, set, cfg)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody is listening for the error
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	elapsed := time.Since(start)
	resp := ShardResponse{Partial: p, Elapsed: elapsed}
	if secs := elapsed.Seconds(); secs > 0 {
		resp.PointsPerSec = float64(p.End-p.Start) / secs
	}
	if binary {
		data, err := resp.MarshalBinary()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", ShardResponseMediaType)
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
