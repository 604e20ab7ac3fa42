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
	if err := s.checkShape(); err != nil {
		return nil, fmt.Errorf("ann: load: %w", err)
	}
	n := New(s.Config)
	for i, l := range n.layers {
		copy(l.w, s.Weights[i])
	}
	return n, nil
}

// checkShape compares the layer sizes the config declares with the
// weights the file holds, before New allocates anything: a declared
// size is trusted only once the weights to fill it are present. Layer
// i holds out rows of in+1 weights; a row width that does not divide
// the weight count blames the layer's input size, a wrong row count its
// output size. Division keeps the check free of overflow.
func (s *serialized) checkShape() error {
	c := s.Config
	if len(s.Weights) != len(c.Hidden)+1 {
		return fmt.Errorf("%d weight layers for a %d-layer network", len(s.Weights), len(c.Hidden)+1)
	}
	in, inField := c.Inputs, "Inputs"
	for i, w := range s.Weights {
		out, outField := c.Outputs, "Outputs"
		if i < len(c.Hidden) {
			out, outField = c.Hidden[i], fmt.Sprintf("Hidden[%d]", i)
		}
		if len(w)%(in+1) != 0 {
			return fmt.Errorf("config.%s is %d, but layer %d's %d weights are not rows of %d+1", inField, in, i, len(w), in)
		}
		if rows := len(w) / (in + 1); rows != out {
			return fmt.Errorf("config.%s is %d, but layer %d holds %d rows of %d+1 weights", outField, out, i, rows, in)
		}
		in, inField = out, outField
	}
	return nil
}
