package core_test

// These tests pin the loop contract ExploreConfig documents — budgets,
// stopping, exclusions, batch selection and the oracle reply contract —
// through explore.Driver, the loop that runs it.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/explore"
	"repro/internal/space"
)

// loopSpace is a 120-point design space over four axes. This package
// keeps its own fixtures rather than exporting core's through an
// export_test.go: repolint's loader cannot type-check a test package
// that uses such hooks and also imports explore, which imports core.
func loopSpace() *space.Space {
	return space.New("loop", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

// loopTarget is a smooth positive function of a design point, standing
// in for simulated IPC.
func loopTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	v := 0.4 + 0.3*math.Log2(sp.Value(c, 0)) + 0.1*sp.Value(c, 1)*sp.Value(c, 2)
	if sp.LevelName(c, 3) == "y" {
		v *= 1.25
	}
	return v
}

// loopModel keeps the ensembles these tests train quick.
func loopModel() core.ModelConfig {
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	return cfg
}

// synthOracle answers loopTarget, adding the points it evaluates to
// calls when that is non-nil. It is safe for the driver's concurrent
// fan-out.
func synthOracle(sp *space.Space, calls *atomic.Int64) core.Oracle {
	return core.OracleFunc(func(indices []int) ([][]float64, error) {
		if calls != nil {
			calls.Add(int64(len(indices)))
		}
		out := make([][]float64, len(indices))
		for i, idx := range indices {
			out[i] = []float64{loopTarget(sp, idx)}
		}
		return out, nil
	})
}

// newDriver builds a driver with default pipeline settings.
func newDriver(t *testing.T, sp *space.Space, oracle core.Oracle, cfg core.ExploreConfig) *explore.Driver {
	t.Helper()
	d, err := explore.New(sp, oracle, explore.Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runDriver builds a driver and runs it to completion.
func runDriver(t *testing.T, sp *space.Space, oracle core.Oracle, cfg core.ExploreConfig) *explore.Driver {
	t.Helper()
	d := newDriver(t, sp, oracle, cfg)
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d
}

// requireDistinct fails if a design point was sampled twice.
func requireDistinct(t *testing.T, samples []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, idx := range samples {
		if seen[idx] {
			t.Fatalf("point %d sampled twice", idx)
		}
		seen[idx] = true
	}
}

func TestExplorerRunsIncrementally(t *testing.T) {
	sp := loopSpace()
	var calls atomic.Int64
	cfg := core.ExploreConfig{Model: loopModel(), BatchSize: 20, MaxSamples: 60, Seed: 1}
	d := runDriver(t, sp, synthOracle(sp, &calls), cfg)
	steps := d.Steps()
	if len(steps) != 3 || steps[0].Samples != 20 || steps[2].Samples != 60 {
		t.Fatalf("rounds %+v, want three growing by 20 to 60", steps)
	}
	if calls.Load() != int64(len(d.Samples())) {
		t.Fatalf("oracle evaluated %d points for %d samples", calls.Load(), len(d.Samples()))
	}
	requireDistinct(t, d.Samples())
}

func TestExplorerStopsAtErrorTarget(t *testing.T) {
	sp := loopSpace()
	cfg := core.ExploreConfig{
		Model:         loopModel(),
		BatchSize:     25,
		MaxSamples:    100,
		TargetMeanErr: 1e9, // absurdly lenient: stop after the first round
		Seed:          2,
	}
	if got := len(runDriver(t, sp, synthOracle(sp, nil), cfg).Samples()); got != 25 {
		t.Fatalf("run took %d samples despite an immediately met target", got)
	}
}

func TestExplorerRespectsExclusions(t *testing.T) {
	sp := loopSpace()
	exclude := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	cfg := core.ExploreConfig{Model: loopModel(), BatchSize: 30, MaxSamples: 90, Exclude: exclude, Seed: 3}
	d := runDriver(t, sp, synthOracle(sp, nil), cfg)
	if got := len(d.Samples()); got != 90 {
		t.Fatalf("sampled %d points, want the 90-point budget", got)
	}
	for _, s := range d.Samples() {
		if s < len(exclude) {
			t.Fatalf("excluded point %d was sampled", s)
		}
	}
}

// TestExplorerOracleErrorPropagates: an oracle that always fails
// quarantines every drawable point and then ends the run with an
// error instead of drawing forever.
func TestExplorerOracleErrorPropagates(t *testing.T) {
	sp := loopSpace()
	failing := core.OracleFunc(func([]int) ([][]float64, error) {
		return nil, fmt.Errorf("synthetic oracle failure")
	})
	d := newDriver(t, sp, failing, core.ExploreConfig{Model: loopModel(), BatchSize: 10, MaxSamples: 20, Seed: 4})
	if _, err := d.Run(context.Background()); err == nil {
		t.Fatal("oracle failure not propagated")
	}
	if got := len(d.Quarantined()); got != sp.Size() {
		t.Fatalf("%d points quarantined, want the whole %d-point space", got, sp.Size())
	}
}

func TestExplorerConfigValidation(t *testing.T) {
	sp := loopSpace()
	for name, cfg := range map[string]core.ExploreConfig{
		"zero batch":               {Model: loopModel(), BatchSize: 0, MaxSamples: 10},
		"MaxSamples below a batch": {Model: loopModel(), BatchSize: 20, MaxSamples: 10},
	} {
		if _, err := explore.New(sp, synthOracle(sp, nil), explore.Config{ExploreConfig: cfg}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestVarianceSelectionPrefersUncertainPoints: once an ensemble exists,
// variance acquisition takes the candidates its members disagree on
// most. With the candidate pool covering every unsimulated point, the
// second batch must out-rank every point it left behind.
func TestVarianceSelectionPrefersUncertainPoints(t *testing.T) {
	sp := loopSpace()
	cfg := core.ExploreConfig{
		Model:         loopModel(),
		BatchSize:     20,
		MaxSamples:    60,
		Acquire:       &core.AcquireConfig{Strategy: core.AcquireVariance},
		CandidatePool: sp.Size(),
		Seed:          5,
	}
	d := newDriver(t, sp, synthOracle(sp, nil), cfg)
	ctx := context.Background()
	if err := d.Step(ctx, 20); err != nil { // random: no ensemble yet
		t.Fatal(err)
	}
	first := d.Ensemble()
	if err := d.Step(ctx, 20); err != nil {
		t.Fatal(err)
	}
	enc := d.Encoder()
	xs := make([]float64, 0, sp.Size()*enc.Width())
	for idx := 0; idx < sp.Size(); idx++ {
		xs = append(xs, enc.EncodeIndex(idx, nil)...)
	}
	vs := make([]float64, sp.Size())
	first.PredictBatch(0, xs, sp.Size(), nil, vs)
	simulated := map[int]bool{}
	for _, idx := range d.Samples()[:20] {
		simulated[idx] = true
	}
	weakest := math.Inf(1)
	for _, idx := range d.Samples()[20:] {
		simulated[idx] = true
		weakest = math.Min(weakest, vs[idx])
	}
	for idx := 0; idx < sp.Size(); idx++ {
		if !simulated[idx] && vs[idx] > weakest {
			t.Fatalf("point %d (variance %g) left behind for a pick with variance %g", idx, vs[idx], weakest)
		}
	}
	if _, err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Samples()); got != 60 {
		t.Fatalf("active run sampled %d points, want 60", got)
	}
	requireDistinct(t, d.Samples())
}

// TestExplorerVarianceSelectionNearExhaustion drives variance
// acquisition into the regime where the drawable complement (space
// minus simulated minus Exclude-reserved points) is smaller than a
// batch: the run must neither hang in the candidate draw nor panic in
// the top-n selection, must sample exactly the drawable complement,
// and must never sample an excluded point.
func TestExplorerVarianceSelectionNearExhaustion(t *testing.T) {
	sp := loopSpace()
	// Exclude a third of the space; budget the rest plus slack.
	var exclude []int
	for i := 0; i < sp.Size(); i += 3 {
		exclude = append(exclude, i)
	}
	cfg := core.ExploreConfig{
		Model:      loopModel(),
		BatchSize:  25,
		MaxSamples: sp.Size(), // more than is drawable
		Acquire:    &core.AcquireConfig{Strategy: core.AcquireVariance},
		Exclude:    exclude,
		Seed:       8,
	}
	d := runDriver(t, sp, synthOracle(sp, nil), cfg)
	if got, drawable := len(d.Samples()), sp.Size()-len(exclude); got != drawable {
		t.Fatalf("sampled %d points, want the full drawable complement %d", got, drawable)
	}
	for _, idx := range d.Samples() {
		if idx%3 == 0 {
			t.Fatalf("excluded point %d was sampled", idx)
		}
	}
}

func TestExplorerGrowBeyondSpaceIsBounded(t *testing.T) {
	sp := loopSpace()
	cfg := core.ExploreConfig{Model: loopModel(), BatchSize: sp.Size(), MaxSamples: sp.Size(), Seed: 6}
	d := newDriver(t, sp, synthOracle(sp, nil), cfg)
	if err := d.Step(context.Background(), sp.Size()+50); err != nil {
		t.Fatal(err)
	}
	if len(d.Samples()) != sp.Size() {
		t.Fatalf("grew to %d of %d points", len(d.Samples()), sp.Size())
	}
}

// TestExplorerRejectsMalformedOracleReplies: a reply that is short,
// empty, non-finite or of the wrong width quarantines exactly the
// point it belongs to, under an error naming that point, and the rest
// of the batch still trains.
func TestExplorerRejectsMalformedOracleReplies(t *testing.T) {
	sp := loopSpace()
	cfg := core.ExploreConfig{Model: loopModel(), BatchSize: 15, MaxSamples: 30, Seed: 9}
	// The victim sits mid-way through the first batch, so the points
	// before it establish the target width "width" then breaks.
	first := core.NewBatchSelector(sp, encoding.NewEncoder(sp), cfg.SeedRNG()).Random(cfg.BatchSize)
	victim := first[len(first)/2]
	for _, mode := range []string{"short", "empty", "nan", "inf", "width"} {
		t.Run(mode, func(t *testing.T) {
			oracle := core.OracleFunc(func(indices []int) ([][]float64, error) {
				out := make([][]float64, 0, len(indices))
				for _, idx := range indices {
					v := []float64{loopTarget(sp, idx)}
					if idx == victim {
						switch mode {
						case "short":
							continue
						case "empty":
							v = nil
						case "nan":
							v[0] = math.NaN()
						case "inf":
							v[0] = math.Inf(1)
						case "width":
							v = append(v, 2)
						}
					}
					out = append(out, v)
				}
				return out, nil
			})
			d := newDriver(t, sp, oracle, cfg)
			if err := d.Step(context.Background(), cfg.BatchSize); err != nil {
				t.Fatalf("one malformed reply failed the round: %v", err)
			}
			q := d.Quarantined()
			if len(q) != 1 || q[0].Index != victim {
				t.Fatalf("quarantine %+v, want exactly design point %d", q, victim)
			}
			if want := fmt.Sprintf("design point %d", victim); !strings.Contains(q[0].Error, want) {
				t.Fatalf("error %q does not name %s", q[0].Error, want)
			}
			if got := len(d.Samples()); got != cfg.BatchSize-1 {
				t.Fatalf("%d samples recorded, want the batch minus the victim", got)
			}
		})
	}
}

func TestExplorerAcceptsConsistentMultiTargetWidths(t *testing.T) {
	sp := loopSpace()
	oracle := core.OracleFunc(func(indices []int) ([][]float64, error) {
		out := make([][]float64, len(indices))
		for i, idx := range indices {
			v := loopTarget(sp, idx)
			out[i] = []float64{v, v * 0.5}
		}
		return out, nil
	})
	d := runDriver(t, sp, oracle, core.ExploreConfig{Model: loopModel(), BatchSize: 15, MaxSamples: 30, Seed: 10})
	if got := d.Ensemble().Outputs(); got != 2 {
		t.Fatalf("multi-target run produced %d outputs, want 2", got)
	}
}
