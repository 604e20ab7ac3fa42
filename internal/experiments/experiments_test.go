package experiments

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/studies"
)

// tinyCurveConfig keeps experiment smoke tests fast: short traces,
// small sweeps, small evaluation sets, light training.
func tinyCurveConfig() CurveConfig {
	model := core.DefaultModelConfig()
	model.Train.MaxEpochs = 120
	model.Train.Patience = 25
	return CurveConfig{
		TraceLen:   8000,
		Start:      60,
		Step:       60,
		End:        120,
		EvalPoints: 80,
		Model:      model,
		Seed:       7,
	}
}

func TestSimOracleCachesResults(t *testing.T) {
	st := studies.Processor()
	o := NewSimOracle(st, "gzip", 6000, IPCOnly)
	idx := []int{11, 22, 33}
	a, err := o.IPCs(idx)
	if err != nil {
		t.Fatal(err)
	}
	ran := o.SimulationsRun()
	if ran == 0 {
		t.Fatal("oracle reports zero simulations")
	}
	b, err := o.IPCs(idx)
	if err != nil {
		t.Fatal(err)
	}
	if o.SimulationsRun() != ran {
		t.Fatal("repeat evaluation re-simulated cached points")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cached results differ")
		}
	}
}

func TestSimOracleMultiTaskTargets(t *testing.T) {
	st := studies.Processor()
	o := NewSimOracle(st, "mcf", 6000, MultiTask)
	out, err := o.Evaluate([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("multi-task oracle returned %v", out)
	}
	if out[0][0] <= 0 {
		t.Fatal("IPC target non-positive")
	}
}

func TestCurveShapes(t *testing.T) {
	st := studies.Processor()
	points, err := Curve(st, "gzip", tinyCurveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("curve has %d points, want 2", len(points))
	}
	for _, p := range points {
		if p.TrueMean <= 0 || p.EstMean <= 0 {
			t.Fatalf("degenerate curve point %+v", p)
		}
		if p.Fraction <= 0 || p.Fraction > 1 {
			t.Fatalf("bad fraction %v", p.Fraction)
		}
		if p.TrainTime <= 0 {
			t.Fatal("missing training time")
		}
	}
	if points[1].Samples != 120 {
		t.Fatalf("final size %d", points[1].Samples)
	}
}

func TestCurveAtSizesValidation(t *testing.T) {
	st := studies.Processor()
	if _, err := CurveAtSizes(st, "gzip", tinyCurveConfig(), nil); err == nil {
		t.Fatal("empty size list accepted")
	}
	if _, err := CurveAtSizes(st, "gzip", tinyCurveConfig(), []int{100, 50}); err == nil {
		t.Fatal("descending sizes accepted")
	}
}

func TestCurveInvalidSweepRejected(t *testing.T) {
	cfg := tinyCurveConfig()
	cfg.Step = 0
	if _, err := Curve(studies.Processor(), "gzip", cfg); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestPBScreenRanksParameters(t *testing.T) {
	st := studies.MemorySystem()
	effects, err := PBScreen(st, "mcf", 8000)
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for _, e := range effects {
		if e.Name != "" {
			named++
		}
	}
	if named != st.Space.NumParams() {
		t.Fatalf("%d named effects for %d parameters", named, st.Space.NumParams())
	}
	// For memory-bound mcf, the L2 size must rank among the top axes.
	ranked := pb.Ranked(effects)
	top3 := []string{}
	for _, e := range ranked[:4] {
		top3 = append(top3, e.Name)
	}
	found := false
	for _, n := range top3 {
		if n == "L2 Size (KB)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("L2 size not among mcf's top-ranked parameters: %v", top3)
	}
}

func TestTrainingTimesMonotoneSamples(t *testing.T) {
	st := studies.Processor()
	cfg := tinyCurveConfig()
	points, err := TrainingTimes(st, "gzip", cfg, []int{60, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d time points", len(points))
	}
	for _, p := range points {
		if p.Train <= 0 {
			t.Fatal("non-positive training time")
		}
	}
}

func TestScalePresets(t *testing.T) {
	for _, name := range []string{"quick", "standard", "full"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name || s.TraceLen <= 0 || s.CurveStep <= 0 {
			t.Fatalf("preset %s malformed: %+v", name, s)
		}
		cc := s.CurveConfig(1)
		if cc.Start != s.CurveStart || cc.End != s.CurveEnd {
			t.Fatalf("preset %s curve config mismatch", name)
		}
	}
	if _, err := ByName("warp"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if Full().EvalPoints != 0 {
		t.Fatal("full preset must evaluate the whole space")
	}
}

func TestSimPointOracleProducesEstimates(t *testing.T) {
	st := studies.Processor()
	o, err := NewSimPointOracle(st, "mesa", 8000, simpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := o.Evaluate([]int{42, 43})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if len(v) != 1 || v[0] <= 0 {
			t.Fatalf("bad estimate %v", v)
		}
	}
	if o.SimulationsRun() != 2 {
		t.Fatalf("oracle ran %d estimates", o.SimulationsRun())
	}
	// Second evaluation is served from cache.
	if _, err := o.Evaluate([]int{42}); err != nil {
		t.Fatal(err)
	}
	if o.SimulationsRun() != 2 {
		t.Fatal("cache miss on repeat estimate")
	}
}

func TestActiveLearningComparableBudgets(t *testing.T) {
	st := studies.Processor()
	points, err := ActiveLearning(st, "gzip", tinyCurveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no comparison points")
	}
	for _, p := range points {
		if p.RandomErr <= 0 || p.ActiveErr <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestCrossAppSmoke(t *testing.T) {
	st := studies.Processor()
	model := core.DefaultModelConfig()
	model.Train.MaxEpochs = 80
	model.Train.Patience = 20
	apps := []string{"gzip", "mesa"}
	res, err := CrossApp(st, apps, 60, 40, 8000, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.SoloErr <= 0 || r.CrossErr <= 0 {
			t.Fatalf("degenerate result %+v", r)
		}
	}
}

func TestTable51SingleApp(t *testing.T) {
	st := studies.Processor()
	cfg := tinyCurveConfig()
	rows, err := Table51(st, []string{"gzip"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].App != "gzip" {
		t.Fatalf("rows = %+v", rows)
	}
	if len(rows[0].Cells) != len(Table51Fractions) {
		t.Fatalf("%d cells for %d fractions", len(rows[0].Cells), len(Table51Fractions))
	}
	for i, c := range rows[0].Cells {
		want := int(Table51Fractions[i] * float64(st.Space.Size()))
		if c.Samples < want-1 || c.Samples > want+1 {
			t.Fatalf("cell %d trained on %d samples, want ≈%d", i, c.Samples, want)
		}
		if c.TrueMean <= 0 || c.EstMean <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
	}
}

func TestReductionsCompose(t *testing.T) {
	st := studies.Processor()
	cfg := tinyCurveConfig()
	rows, err := Reductions(st, []string{"gzip"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no reduction rows")
	}
	for _, r := range rows {
		if r.ANNFactor <= 1 || r.SimPointFactor <= 1 {
			t.Fatalf("non-multiplying factors %+v", r)
		}
		product := r.ANNFactor * r.SimPointFactor
		if product != r.CombinedFactor {
			t.Fatalf("combined %.2f != ANN %.2f × SimPoint %.2f", r.CombinedFactor, r.ANNFactor, r.SimPointFactor)
		}
	}
}

func TestNoisyCurveEstimateBelowTrue(t *testing.T) {
	// §5.3's signature: training on SimPoint estimates, the CV estimate
	// cannot see the SimPoint noise and lands below true error.
	st := studies.Processor()
	cfg := tinyCurveConfig()
	cfg.Noisy = true
	points, err := Curve(st, "mesa", cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if last.EstMean >= last.TrueMean {
		t.Fatalf("estimate %.2f%% not below true %.2f%% under SimPoint noise",
			last.EstMean, last.TrueMean)
	}
}

// TestCurveCheckpointResume kills a durable study half-way (by running
// only its first size) and reruns the full sweep against the same
// checkpoint: the resumed curve must equal the uninterrupted one point
// for point — covered rounds are rebuilt from the checkpoint without
// new training simulations.
func TestCurveCheckpointResume(t *testing.T) {
	st := studies.Processor()
	cfg := tinyCurveConfig()
	sizes := []int{60, 120}

	want, err := CurveAtSizes(st, "gzip", cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = filepath.Join(t.TempDir(), "curve.checkpoint")
	// "Killed" first run: only the first size completes.
	if _, err := CurveAtSizes(st, "gzip", cfg, sizes[:1]); err != nil {
		t.Fatal(err)
	}
	got, err := CurveAtSizes(st, "gzip", cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed curve has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Samples != want[i].Samples ||
			got[i].TrueMean != want[i].TrueMean || got[i].TrueSD != want[i].TrueSD ||
			got[i].EstMean != want[i].EstMean || got[i].EstSD != want[i].EstSD {
			t.Fatalf("resumed curve point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
