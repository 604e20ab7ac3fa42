package ann

import (
	"encoding/json"
	"fmt"
	"io"
)

// serialized is the on-disk form of a network: its configuration and
// the flat weight slices of each layer, JSON-encoded. The format is
// versioned so later changes stay loadable.
type serialized struct {
	Version int         `json:"version"`
	Config  Config      `json:"config"`
	Weights [][]float64 `json:"weights"`
}

const serialVersion = 1

// Save writes the network (architecture and weights) to w as JSON.
// Momentum state is deliberately not persisted: a loaded model predicts
// identically but resumes training without stale update directions.
func (n *Network) Save(w io.Writer) error {
	s := serialized{
		Version: serialVersion,
		Config:  n.cfg,
		Weights: make([][]float64, len(n.layers)),
	}
	for i, l := range n.layers {
		s.Weights[i] = l.w
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&s); err != nil {
		return fmt.Errorf("ann: save: %w", err)
	}
	return nil
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var s serialized
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("ann: load: %w", err)
	}
	if s.Version != serialVersion {
		return nil, fmt.Errorf("ann: load: unsupported version %d", s.Version)
	}
	if err := s.Config.Validate(); err != nil {
		return nil, fmt.Errorf("ann: load: %w", err)
	}
	n := New(s.Config)
	if len(s.Weights) != len(n.layers) {
		return nil, fmt.Errorf("ann: load: %d weight layers for %d-layer network",
			len(s.Weights), len(n.layers))
	}
	for i, l := range n.layers {
		if len(s.Weights[i]) != len(l.w) {
			return nil, fmt.Errorf("ann: load: layer %d has %d weights, network expects %d",
				i, len(s.Weights[i]), len(l.w))
		}
		copy(l.w, s.Weights[i])
	}
	return n, nil
}
