package serve

import (
	"fmt"
	"time"

	"repro/internal/sweep"
)

// Binary wire format for shard traffic. Coordination overhead on a
// sweep cluster is dominated by serializing the shard partials —
// textual float64s are ~24 bytes each versus 8 raw bits — so cluster
// coordinators send every shard request as a binary body
// (Content-Type: ShardRequestMediaType) and nodes answer it with a
// binary body (Content-Type: ShardResponseMediaType). A JSON request,
// such as a human's curl, gets a JSON answer. Error responses are JSON
// on every path. Coordinator and nodes ship from one module, so the
// frames carry a version tag but no fallback for mixed-version fleets.
const (
	// ShardRequestMediaType is the Content-Type of a binary
	// ShardRequest body.
	ShardRequestMediaType = "application/x-repro-shard-request"
	// ShardResponseMediaType is the Content-Type of a binary
	// ShardResponse body.
	ShardResponseMediaType = "application/x-repro-shard-response"
)

// Magic tags versioning the two frames.
const (
	shardRequestMagic  = "RSQ1"
	shardResponseMagic = "RSR1"
)

// MarshalBinary encodes the shard request in the compact wire format:
// magic, the sweep request fields in declaration order (lists
// length-prefixed), then the shard range.
func (r *ShardRequest) MarshalBinary() ([]byte, error) {
	w := &sweep.WireWriter{}
	w.Raw([]byte(shardRequestMagic))
	w.Str(r.Model)
	w.U32(uint32(len(r.Models)))
	for _, m := range r.Models {
		w.Str(m)
	}
	w.U32(uint32(len(r.Metrics)))
	for _, s := range r.Metrics {
		w.Str(s.Name)
		w.Str(s.Model)
		w.I64(int64(s.Output))
		w.Bool(s.Variance)
		w.Bool(s.Minimize)
	}
	w.I64(int64(r.TopK))
	w.I64(int64(r.Chunk))
	w.I64(int64(r.Workers))
	w.Str(r.Kernel)
	w.I64(int64(r.Start))
	w.I64(int64(r.End))
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a binary shard request, validating structure
// and rejecting trailing bytes.
func (r *ShardRequest) UnmarshalBinary(data []byte) error {
	rd := sweep.NewWireReader(data)
	if magic := rd.Take(len(shardRequestMagic)); magic == nil || string(magic) != shardRequestMagic {
		return fmt.Errorf("serve: not a binary shard request (bad magic/version)")
	}
	*r = ShardRequest{}
	r.Model = rd.Str()
	nModels := rd.Count(4)
	for i := 0; i < nModels && rd.Err() == nil; i++ {
		r.Models = append(r.Models, rd.Str())
	}
	nMetrics := rd.Count(18) // two ≥4-byte names + int64 + two bools
	for i := 0; i < nMetrics && rd.Err() == nil; i++ {
		r.Metrics = append(r.Metrics, sweep.MetricSpec{
			Name:     rd.Str(),
			Model:    rd.Str(),
			Output:   int(rd.I64()),
			Variance: rd.Bool(),
			Minimize: rd.Bool(),
		})
	}
	r.TopK = int(rd.I64())
	r.Chunk = int(rd.I64())
	r.Workers = int(rd.I64())
	r.Kernel = rd.Str() // name validated later by SweepRequest.Validate
	r.Start = int(rd.I64())
	r.End = int(rd.I64())
	return rd.Finish()
}

// MarshalBinary encodes the shard response: magic, the timing fields,
// then the partial's own binary encoding to the end of the frame.
func (r *ShardResponse) MarshalBinary() ([]byte, error) {
	if r.Partial == nil {
		return nil, fmt.Errorf("serve: binary shard response needs a partial")
	}
	p, err := r.Partial.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := &sweep.WireWriter{}
	w.Grow(len(shardResponseMagic) + 16 + len(p))
	w.Raw([]byte(shardResponseMagic))
	w.I64(int64(r.Elapsed))
	w.F64(r.PointsPerSec)
	w.Raw(p)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a binary shard response.
func (r *ShardResponse) UnmarshalBinary(data []byte) error {
	rd := sweep.NewWireReader(data)
	if magic := rd.Take(len(shardResponseMagic)); magic == nil || string(magic) != shardResponseMagic {
		return fmt.Errorf("serve: not a binary shard response (bad magic/version)")
	}
	*r = ShardResponse{}
	r.Elapsed = time.Duration(rd.I64())
	r.PointsPerSec = rd.F64()
	rest := rd.Rest()
	if err := rd.Err(); err != nil {
		return err
	}
	r.Partial = &sweep.Partial{}
	return r.Partial.UnmarshalBinary(rest)
}
