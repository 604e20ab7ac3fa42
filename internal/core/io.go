package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ann"
	"repro/internal/encoding"
)

// serializedEnsemble is the on-disk form of an Ensemble: its scalers,
// target transform, accuracy estimate, and each member network's JSON.
type serializedEnsemble struct {
	Version   int               `json:"version"`
	Outputs   int               `json:"outputs"`
	LogTarget bool              `json:"logTarget"`
	Scalers   []encoding.Scaler `json:"scalers"`
	Estimate  Estimate          `json:"estimate"`
	Nets      []json.RawMessage `json:"nets"`
}

const ensembleVersion = 1

// Save writes the trained ensemble to w as JSON, so an expensive model
// (hours of simulation behind it) can be reused across processes — the
// library behaviour a design team actually needs from "build the model
// once, query it forever".
func (e *Ensemble) Save(w io.Writer) error {
	s := serializedEnsemble{
		Version:   ensembleVersion,
		Outputs:   e.outputs,
		LogTarget: e.logT,
		Scalers:   e.scalers,
		Estimate:  e.est,
	}
	for _, n := range e.nets {
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			return fmt.Errorf("core: save ensemble: %w", err)
		}
		s.Nets = append(s.Nets, json.RawMessage(buf.Bytes()))
	}
	if err := json.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("core: save ensemble: %w", err)
	}
	return nil
}

// LoadEnsemble reads an ensemble previously written by Save.
func LoadEnsemble(r io.Reader) (*Ensemble, error) {
	var s serializedEnsemble
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: load ensemble: %w", err)
	}
	if s.Version != ensembleVersion {
		return nil, fmt.Errorf("core: load ensemble: unsupported version %d", s.Version)
	}
	if len(s.Nets) == 0 {
		return nil, fmt.Errorf("core: load ensemble: no member networks")
	}
	if len(s.Scalers) != s.Outputs {
		return nil, fmt.Errorf("core: load ensemble: %d scalers for %d outputs",
			len(s.Scalers), s.Outputs)
	}
	e := &Ensemble{
		outputs: s.Outputs,
		logT:    s.LogTarget,
		scalers: s.Scalers,
		est:     s.Estimate,
		workers: resolveWorkers(0),
	}
	for i, raw := range s.Nets {
		n, err := ann.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("core: load ensemble member %d: %w", i, err)
		}
		if n.Config().Outputs != s.Outputs {
			return nil, fmt.Errorf("core: load ensemble member %d: %d outputs, ensemble has %d",
				i, n.Config().Outputs, s.Outputs)
		}
		// Inputs() reads member 0, so every member must share its width.
		if i > 0 && n.Config().Inputs != e.Inputs() {
			return nil, fmt.Errorf("core: load ensemble member %d: Inputs %d, member 0 has %d",
				i, n.Config().Inputs, e.Inputs())
		}
		e.nets = append(e.nets, n)
	}
	return e, nil
}
