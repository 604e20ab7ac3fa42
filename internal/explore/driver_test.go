package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/space"
)

// synthSpace is a small analytic design space mirroring the core
// package's test space: 120 points over four axes.
func synthSpace() *space.Space {
	return space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

// synthTarget is a smooth positive function of a design point, standing
// in for simulated IPC.
func synthTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	a := sp.Value(c, 0)
	b := sp.Value(c, 1)
	f := sp.Value(c, 2)
	v := 0.4 + 0.3*math.Log2(a) + 0.1*b*f
	if sp.LevelName(c, 3) == "y" {
		v *= 1.25
	}
	return v
}

// synthOracle answers synthTarget, optionally misbehaving per point
// through fail, and counting evaluations (thread-safe: the driver fans
// it out).
type synthOracle struct {
	sp   *space.Space
	fail func(idx, attempt int) error // nil = always succeed

	mu       sync.Mutex
	calls    int
	attempts map[int]int
}

func (o *synthOracle) Evaluate(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	for i, idx := range indices {
		o.mu.Lock()
		o.calls++
		if o.attempts == nil {
			o.attempts = make(map[int]int)
		}
		o.attempts[idx]++
		attempt := o.attempts[idx]
		o.mu.Unlock()
		if o.fail != nil {
			if err := o.fail(idx, attempt); err != nil {
				return nil, err
			}
		}
		out[i] = []float64{synthTarget(o.sp, idx)}
	}
	return out, nil
}

func (o *synthOracle) evaluations() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

func fastModel() core.ModelConfig {
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	return cfg
}

func exploreCfg() core.ExploreConfig {
	return core.ExploreConfig{
		Model:      fastModel(),
		BatchSize:  15,
		MaxSamples: 30,
		Seed:       41,
	}
}

// ensembleBytes serializes an ensemble so runs can be compared
// bit-for-bit.
func ensembleBytes(t *testing.T, ens *core.Ensemble) []byte {
	t.Helper()
	if ens == nil {
		t.Fatal("no ensemble")
	}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runState captures everything two runs must agree on.
type runState struct {
	samples []int
	steps   []core.Step
	ens     []byte
}

func stripTimes(steps []core.Step) []core.Step {
	out := append([]core.Step(nil), steps...)
	for i := range out {
		out[i].TrainTime = 0 // wall clock is the one legitimately varying field
	}
	return out
}

func driverState(t *testing.T, cfg core.ExploreConfig, pipe Pipeline) runState {
	t.Helper()
	sp := synthSpace()
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("deterministic oracle produced quarantine: %v", q)
	}
	return runState{samples: d.Samples(), steps: stripTimes(d.Steps()), ens: ensembleBytes(t, d.Ensemble())}
}

func requireSameRun(t *testing.T, label string, got, want runState) {
	t.Helper()
	if len(got.samples) != len(want.samples) {
		t.Fatalf("%s: sampled %d points, want %d", label, len(got.samples), len(want.samples))
	}
	for i := range want.samples {
		if got.samples[i] != want.samples[i] {
			t.Fatalf("%s: sample order diverges at %d: got point %d, want %d",
				label, i, got.samples[i], want.samples[i])
		}
	}
	if len(got.steps) != len(want.steps) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got.steps), len(want.steps))
	}
	for i := range want.steps {
		if got.steps[i] != want.steps[i] {
			t.Fatalf("%s: round %d diverges: got %+v, want %+v", label, i, got.steps[i], want.steps[i])
		}
	}
	if !bytes.Equal(got.ens, want.ens) {
		t.Fatalf("%s: final ensemble weights differ", label)
	}
}

// pipelines are the scheduling settings a run must be invariant under.
// The first evaluates one design point at a time; it is the reference
// the others must reproduce.
var pipelines = []struct {
	label string
	pipe  Pipeline
}{
	{"workers=1", Pipeline{Workers: -1}},
	{"workers=4", Pipeline{Workers: 4}},
	{"workers=16 no-retry", Pipeline{Workers: 16, Retries: -1}},
}

// sampleDigest is the SHA-256 of a sample order written as decimal
// indices, each followed by a comma.
func sampleDigest(samples []int) string {
	h := sha256.New()
	for _, idx := range samples {
		fmt.Fprintf(h, "%d,", idx)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRuns are random-selection runs of exploreCfg variants, recorded
// from the sequential Explorer loop the driver replaced: the digest of
// the sample order and the cumulative sample count after each round.
// Both depend only on the selection RNG and the loop, so they hold on
// any machine. Trained weights are left out: on amd64, math.Exp takes
// an FMA path on CPUs that have FMA.
var goldenRuns = []struct {
	name   string
	mod    func(*core.ExploreConfig)
	digest string
	rounds []int
}{
	{"exploreCfg", func(*core.ExploreConfig) {},
		"34622de7735eec8a690828f78ef5fc6a9a337dc271799dd90d3f544f2b436cf3", []int{15, 30}},
	{"exclusions", func(c *core.ExploreConfig) { c.Exclude = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} },
		"d8b818edcf6041006d04f0ed471dbecbdd6d8cbe17ee07c15bc641529e1a9653", []int{15, 30}},
	{"clamped last batch", func(c *core.ExploreConfig) { c.MaxSamples = 40 },
		"b2514b8d45e4ed53610272c60f2019d0c226bebd8755d116c3a674a110d1304d", []int{15, 30, 40}},
	{"budget above drawable", func(c *core.ExploreConfig) {
		c.MaxSamples = synthSpace().Size()
		for i := 0; i < c.MaxSamples; i += 3 {
			c.Exclude = append(c.Exclude, i)
		}
	}, "0bb6861567bf0cd3718eeba4fdce7d6cd94b1b0e39bc10b88db82ab3e63801a2", []int{15, 30, 45, 60, 75, 80}},
	{"target met", func(c *core.ExploreConfig) { c.TargetMeanErr = 1e9 },
		"908997de719ac79793a8e8196fe72e9e51e9b21396189230ebd6242dda5b4ea8", []int{15}},
}

// requirePipelineParity runs cfg at every pipeline setting and requires
// each to reproduce the one-point-at-a-time setting's sample order, step
// history and final ensemble weights: the pipeline may only change
// wall-clock time. It returns the reference run.
func requirePipelineParity(t *testing.T, name string, cfg core.ExploreConfig,
	state func(*testing.T, core.ExploreConfig, Pipeline) runState) runState {
	t.Helper()
	want := state(t, cfg, pipelines[0].pipe)
	for _, p := range pipelines[1:] {
		requireSameRun(t, name+" "+p.label, state(t, cfg, p.pipe), want)
	}
	return want
}

// TestDriverMatchesSequentialExplorer: the reference setting reproduces
// each golden run's sample order and round sizes, and every other
// pipeline setting reproduces that run exactly, weights included.
func TestDriverMatchesSequentialExplorer(t *testing.T) {
	for _, g := range goldenRuns {
		cfg := exploreCfg()
		g.mod(&cfg)
		got := requirePipelineParity(t, g.name, cfg, driverState)
		var rounds []int
		for _, s := range got.steps {
			rounds = append(rounds, s.Samples)
		}
		if d := sampleDigest(got.samples); d != g.digest || !reflect.DeepEqual(rounds, g.rounds) {
			t.Fatalf("%s: sample digest %s rounds %v, want %s %v", g.name, d, rounds, g.digest, g.rounds)
		}
	}
}

// TestDriverMatchesExplorerUnderVarianceSelection: under variance
// selection (the variance acquirer on a one-metric oracle) every
// pipeline setting reproduces the reference setting exactly.
func TestDriverMatchesExplorerUnderVarianceSelection(t *testing.T) {
	cfg := exploreCfg()
	cfg.Acquire = &core.AcquireConfig{Strategy: core.AcquireVariance}
	cfg.CandidatePool = 60
	requirePipelineParity(t, "variance", cfg, driverState)
}

// TestDriverStopsAtErrorTarget: once the first round meets the error
// target the run stops, having simulated exactly that round's batch,
// under random selection and under acquisition alike.
func TestDriverStopsAtErrorTarget(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.ExploreConfig
	}{
		{"random", exploreCfg()},
		{"acquisition", acquireCfg(t, "hvi:max=out0:min=out1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TargetMeanErr = 1e9 // met after the first round
			sp := synthSpace()
			oracle := &synthOracle{sp: sp}
			d, err := New(sp, oracle, Config{ExploreConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := len(d.Samples()); got != cfg.BatchSize {
				t.Fatalf("driver recorded %d samples despite an immediately met target", got)
			}
			if got := oracle.evaluations(); got != cfg.BatchSize {
				t.Fatalf("oracle ran %d evaluations before stopping, want exactly one %d-point batch",
					got, cfg.BatchSize)
			}
		})
	}
}

// TestRunLeavesNoOracleCallInFlight: when Run returns, every oracle call
// it started has finished, so a finished job never keeps simulating
// beside whatever its caller runs next.
func TestRunLeavesNoOracleCallInFlight(t *testing.T) {
	cfg := exploreCfg()
	cfg.TargetMeanErr = 1e9 // met after the first round
	sp := synthSpace()
	slow := &slowOracle{inner: &synthOracle{sp: sp}, latency: 5 * time.Millisecond}
	var started, inFlight atomic.Int64
	oracle := core.OracleFunc(func(indices []int) ([][]float64, error) {
		started.Add(1)
		inFlight.Add(1)
		defer inFlight.Add(-1)
		return slow.Evaluate(indices)
	})
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d oracle calls still running after Run returned", n)
	}
	if n := started.Load(); n != int64(cfg.BatchSize) {
		t.Fatalf("Run started %d oracle calls, want exactly one %d-point batch", n, cfg.BatchSize)
	}
}

func TestDriverQuarantinesFailingPoints(t *testing.T) {
	sp := synthSpace()
	// Points divisible by 7 fail on every attempt.
	bad := func(idx int) bool { return idx%7 == 0 }
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if bad(idx) {
			return fmt.Errorf("synthetic hard failure")
		}
		return nil
	}}
	cfg := exploreCfg()
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 4, Retries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatalf("per-point failures must not abort the run: %v", err)
	}
	if got := len(d.Samples()); got != cfg.MaxSamples {
		t.Fatalf("run finished with %d samples, want the full budget %d (fresh draws replace quarantined points)",
			got, cfg.MaxSamples)
	}
	for _, idx := range d.Samples() {
		if bad(idx) {
			t.Fatalf("failing point %d entered the training pool", idx)
		}
	}
	q := d.Quarantined()
	if len(q) == 0 {
		t.Fatal("no quarantine recorded despite failing points")
	}
	for _, p := range q {
		if !bad(p.Index) {
			t.Fatalf("healthy point %d quarantined: %s", p.Index, p.Error)
		}
		if p.Attempts != 3 {
			t.Fatalf("point %d quarantined after %d attempts, want 1+2 retries", p.Index, p.Attempts)
		}
		if want := fmt.Sprintf("design point %d", p.Index); !strings.Contains(p.Error, want) {
			t.Fatalf("quarantine error %q does not name %q", p.Error, want)
		}
	}
}

func TestDriverRetriesTransientFailures(t *testing.T) {
	cfg := exploreCfg()
	want := driverState(t, cfg, pipelines[0].pipe)
	sp := synthSpace()
	// Every point fails exactly once, then succeeds: one retry must
	// make the run indistinguishable from a healthy oracle's.
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if attempt == 1 {
			return fmt.Errorf("transient failure")
		}
		return nil
	}}
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 4, Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("transient failures quarantined despite retry budget: %v", q)
	}
	got := runState{samples: d.Samples(), steps: stripTimes(d.Steps()), ens: ensembleBytes(t, d.Ensemble())}
	requireSameRun(t, "retried run", got, want)
}

func TestDriverMalformedTargetsQuarantineNotAbort(t *testing.T) {
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	// Oracle wrapper returning NaN for points divisible by 11.
	wrapped := core.OracleFunc(func(indices []int) ([][]float64, error) {
		out, err := oracle.Evaluate(indices)
		if err != nil {
			return nil, err
		}
		for i, idx := range indices {
			if idx%11 == 0 {
				out[i] = []float64{math.NaN()}
			}
		}
		return out, nil
	})
	cfg := exploreCfg()
	d, err := New(sp, wrapped, Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Quarantined() {
		if p.Index%11 != 0 {
			t.Fatalf("healthy point %d quarantined: %s", p.Index, p.Error)
		}
		if want := fmt.Sprintf("design point %d", p.Index); !strings.Contains(p.Error, want) {
			t.Fatalf("quarantine error %q does not name %q", p.Error, want)
		}
	}
	for _, idx := range d.Samples() {
		if idx%11 == 0 {
			t.Fatalf("NaN-producing point %d entered the training pool", idx)
		}
	}
}

func TestDriverCancellation(t *testing.T) {
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the oracle, mid-way through the second round.
	oracle := &synthOracle{sp: sp}
	counting := core.OracleFunc(func(indices []int) ([][]float64, error) {
		if oracle.evaluations() >= 20 {
			cancel()
		}
		return oracle.Evaluate(indices)
	})
	cfg := exploreCfg()
	d, err := New(sp, counting, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	// The interrupted round is discarded whole: state sits at a round
	// boundary, and cancellation never masquerades as quarantine.
	if got := len(d.Samples()); got != 0 && got != cfg.BatchSize {
		t.Fatalf("cancelled run holds %d samples, not a round boundary", got)
	}
	if q := d.Quarantined(); len(q) != 0 {
		t.Fatalf("cancellation produced quarantine entries: %v", q)
	}
}

func TestDriverValidatesConfig(t *testing.T) {
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	if _, err := New(sp, oracle, Config{ExploreConfig: core.ExploreConfig{Model: fastModel(), BatchSize: 0, MaxSamples: 10}}); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := New(sp, nil, Config{ExploreConfig: exploreCfg()}); err == nil {
		t.Fatal("nil oracle accepted")
	}
	bad := exploreCfg()
	bad.Exclude = []int{sp.Size()}
	if _, err := New(sp, oracle, Config{ExploreConfig: bad}); err == nil {
		t.Fatal("out-of-range exclusion accepted")
	}
}
