// Checkpoint is the durable-exploration half of this package: where a
// Bundle persists a *finished* model, a Checkpoint persists a *running*
// exploration at a round boundary — everything the exploration driver
// (internal/explore) needs to resume a killed run bit-identically: the
// design space and encoding, the loop configuration, the selection
// RNG's exact state, every simulated point with its oracle targets, the
// per-round history, the quarantine list, and the last trained
// ensemble.
//
// Loading is as strict as Bundle loading: the space is revalidated, the
// encoder must reproduce the stored spec, the sampled set must be
// in-range, duplicate-free and disjoint from both the exclusion and
// quarantine lists, every target vector must satisfy the oracle
// contract, and the stored ensemble must match the encoder's width. A
// checkpoint whose parts disagree is rejected rather than allowed to
// resume a silently different run.
package bundle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/space"
)

// CheckpointVersion identifies the on-disk checkpoint format. Version 2
// dropped the loop configuration's "Strategy" field: variance selection
// is now Acquire {"strategy":"variance"}, and a version 1 file from an
// active-learning run would otherwise resume with random selection.
const CheckpointVersion = 2

// QuarantinedPoint records one design point whose oracle evaluation
// failed even after retries. Quarantined points are never re-drawn by
// the run that quarantined them; keeping them in the checkpoint keeps
// the resumed selection stream and the failure report identical.
type QuarantinedPoint struct {
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"` // oracle attempts spent before giving up
	Error    string `json:"error"`    // last failure, for the run report
}

// Checkpoint is a loaded (or about-to-be-saved) exploration snapshot.
type Checkpoint struct {
	Space   *space.Space
	Encoder *encoding.Encoder
	// Config is the full loop configuration, Exclude list included; a
	// resume adopts it wholesale, so a run's flags need not be repeated.
	Config core.ExploreConfig
	// RNG is the selection generator's state as of the snapshot; it is
	// what makes the resumed sample sequence bit-identical.
	RNG        [4]uint64
	Indices    []int       // simulated design points, in sampling order
	Targets    [][]float64 // oracle target vectors, aligned with Indices
	Steps      []core.Step
	Quarantine []QuarantinedPoint
	// Ensemble is the model trained at the last completed round (nil
	// before the first round completes).
	Ensemble *core.Ensemble
	Meta     Meta
}

// serializedCheckpoint is the on-disk form. The ensemble reuses its own
// versioned serialization as a nested document.
type serializedCheckpoint struct {
	Version    int                `json:"version"`
	SpaceName  string             `json:"spaceName"`
	Params     []space.Param      `json:"params"`
	Encoder    encoding.Spec      `json:"encoder"`
	Config     core.ExploreConfig `json:"config"`
	RNG        [4]uint64          `json:"rng"`
	Indices    []int              `json:"indices"`
	Targets    [][]float64        `json:"targets"`
	Steps      []core.Step        `json:"steps"`
	Quarantine []QuarantinedPoint `json:"quarantine,omitempty"`
	Meta       Meta               `json:"meta"`
	Ensemble   json.RawMessage    `json:"ensemble,omitempty"`
}

// Save writes the checkpoint to w as one JSON document.
func (c *Checkpoint) Save(w io.Writer) error {
	s := serializedCheckpoint{
		Version:    CheckpointVersion,
		SpaceName:  c.Space.Name,
		Params:     c.Space.Params,
		Encoder:    c.Encoder.Spec(),
		Config:     c.Config,
		RNG:        c.RNG,
		Indices:    c.Indices,
		Targets:    c.Targets,
		Steps:      c.Steps,
		Quarantine: c.Quarantine,
		Meta:       c.Meta,
	}
	if c.Ensemble != nil {
		var buf bytes.Buffer
		if err := c.Ensemble.Save(&buf); err != nil {
			return fmt.Errorf("bundle: checkpoint: %w", err)
		}
		s.Ensemble = json.RawMessage(buf.Bytes())
	}
	if err := json.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("bundle: checkpoint save: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save and cross-validates
// its parts before returning it.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var s serializedCheckpoint
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("bundle: checkpoint load: %w", err)
	}
	if s.Version != CheckpointVersion {
		return nil, fmt.Errorf("bundle: checkpoint load: unsupported version %d (this build reads %d)",
			s.Version, CheckpointVersion)
	}
	sp, err := space.NewChecked(s.SpaceName, s.Params)
	if err != nil {
		return nil, fmt.Errorf("bundle: checkpoint load: invalid design space: %w", err)
	}
	enc := encoding.NewEncoder(sp)
	if err := enc.Matches(s.Encoder); err != nil {
		return nil, fmt.Errorf("bundle: checkpoint load: stored encoding does not match space %q: %w", sp.Name, err)
	}
	if err := s.Config.Validate(sp); err != nil {
		return nil, fmt.Errorf("bundle: checkpoint load: stored config: %w", err)
	}
	if s.RNG[0]|s.RNG[1]|s.RNG[2]|s.RNG[3] == 0 {
		return nil, fmt.Errorf("bundle: checkpoint load: degenerate all-zero RNG state")
	}
	if len(s.Targets) != len(s.Indices) {
		return nil, fmt.Errorf("bundle: checkpoint load: %d target vectors for %d sampled points",
			len(s.Targets), len(s.Indices))
	}
	// The sampled set, exclusion list and quarantine list must be
	// mutually disjoint and in-range: a point in two of them would make
	// the resumed selector's reservation count (and so every later
	// batch size) disagree with the original run's.
	taken := make(map[int]string, len(s.Indices)+len(s.Config.Exclude)+len(s.Quarantine))
	for _, idx := range s.Config.Exclude {
		taken[idx] = "excluded"
	}
	width := 0
	for i, idx := range s.Indices {
		if idx < 0 || idx >= sp.Size() {
			return nil, fmt.Errorf("bundle: checkpoint load: sampled point %d outside space [0,%d)", idx, sp.Size())
		}
		if prev, dup := taken[idx]; dup {
			return nil, fmt.Errorf("bundle: checkpoint load: point %d is both sampled and %s", idx, prev)
		}
		taken[idx] = "sampled"
		if err := core.CheckTarget(idx, s.Targets[i], width); err != nil {
			return nil, fmt.Errorf("bundle: checkpoint load: %w", err)
		}
		width = len(s.Targets[i])
	}
	for _, q := range s.Quarantine {
		if q.Index < 0 || q.Index >= sp.Size() {
			return nil, fmt.Errorf("bundle: checkpoint load: quarantined point %d outside space [0,%d)", q.Index, sp.Size())
		}
		if prev, dup := taken[q.Index]; dup {
			return nil, fmt.Errorf("bundle: checkpoint load: point %d is both quarantined and %s", q.Index, prev)
		}
		taken[q.Index] = "quarantined"
	}
	for i := 1; i < len(s.Steps); i++ {
		if s.Steps[i].Samples <= s.Steps[i-1].Samples {
			return nil, fmt.Errorf("bundle: checkpoint load: step history is not strictly growing at round %d", i)
		}
	}
	c := &Checkpoint{
		Space:      sp,
		Encoder:    enc,
		Config:     s.Config,
		RNG:        s.RNG,
		Indices:    s.Indices,
		Targets:    s.Targets,
		Steps:      s.Steps,
		Quarantine: s.Quarantine,
		Meta:       s.Meta,
	}
	if len(s.Ensemble) > 0 {
		ens, err := core.LoadEnsemble(bytes.NewReader(s.Ensemble))
		if err != nil {
			return nil, fmt.Errorf("bundle: checkpoint load: %w", err)
		}
		if got, want := ens.Inputs(), enc.Width(); got != want {
			return nil, fmt.Errorf("bundle: checkpoint load: ensemble expects %d inputs, space %q encodes to %d",
				got, sp.Name, want)
		}
		if width > 0 && ens.Outputs() != width {
			return nil, fmt.Errorf("bundle: checkpoint load: ensemble predicts %d metrics, targets carry %d",
				ens.Outputs(), width)
		}
		c.Ensemble = ens
	}
	if len(c.Steps) > 0 && c.Ensemble == nil {
		return nil, fmt.Errorf("bundle: checkpoint load: %d completed rounds but no ensemble document", len(c.Steps))
	}
	return c, nil
}

// WriteFile saves the checkpoint to path atomically: it writes a
// temporary file in the same directory and renames it into place, so a
// kill mid-write leaves the previous checkpoint intact — the property
// that makes kill-anywhere/resume safe.
func (c *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("bundle: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("bundle: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("bundle: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("bundle: checkpoint: %w", err)
	}
	return nil
}

// CompatibleWith reports whether the checkpoint may resume under sp —
// the same strict parameter-definition match bundles require, since a
// drifted study would silently reinterpret every sampled index.
func (c *Checkpoint) CompatibleWith(sp *space.Space) error {
	return spacesMatch(c.Space, sp, "checkpoint")
}

// ReadCheckpointFile loads a checkpoint from path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	defer f.Close()
	c, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", path, err)
	}
	return c, nil
}
