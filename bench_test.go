// Package repro's root benchmarks regenerate, at benchmark scale, the
// computational kernel behind every table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md's package map lists them under
// internal/experiments, figure by figure). Each benchmark prints
// the paper-style rows/series it produced on its first iteration via
// b.Log, so `go test -bench . -benchmem` doubles as a miniature
// reproduction run; `cmd/repro` produces the full-scale versions.
//
// Benchmarks use deliberately small traces and budgets so the suite
// completes in minutes; the series *shapes* (error falling with sample
// size, estimates tracking truth, multiplicative reductions) are the
// reproduction targets, not absolute magnitudes.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pb"
	"repro/internal/simpoint"
	"repro/internal/studies"
	"repro/internal/workload"
)

const (
	benchTrace = 12000 // instructions per simulation in benches
	benchEval  = 150   // held-out evaluation points
)

func benchModel() core.ModelConfig {
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 150
	cfg.Train.Patience = 30
	return cfg
}

func benchCurveConfig(seed uint64) experiments.CurveConfig {
	return experiments.CurveConfig{
		TraceLen:   benchTrace,
		Start:      100,
		Step:       100,
		End:        300,
		EvalPoints: benchEval,
		Model:      benchModel(),
		Seed:       seed,
	}
}

// BenchmarkTable41_42_SpaceEnumeration measures design-space machinery:
// enumerating and realizing every configuration of both studies
// (Tables 4.1 and 4.2).
func BenchmarkTable41_42_SpaceEnumeration(b *testing.B) {
	sts := studies.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, st := range sts {
			for idx := 0; idx < st.Space.Size(); idx += 97 {
				cfg := st.Config(idx)
				total += cfg.ROBSize
			}
		}
		if total == 0 {
			b.Fatal("no configs built")
		}
	}
	b.Logf("memory space %d points, processor space %d points",
		sts[0].Space.Size(), sts[1].Space.Size())
}

// BenchmarkSimulatorIPC measures the cycle-level simulator itself — the
// unit of cost every experiment multiplies — on one memory-study point
// for two applications. At that point mcf holds 57 of 128 ROB entries
// on average, most waiting on memory, so it exercises the wakeup path;
// crafty holds 22.
func BenchmarkSimulatorIPC(b *testing.B) {
	cfg := studies.MemorySystem().Config(12345)
	for _, app := range []string{"mcf", "crafty"} {
		b.Run("app="+app, func(b *testing.B) {
			tr := workload.Get(app, benchTrace)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simRun(cfg, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

// BenchmarkTable51_AccuracySummary regenerates one Table 5.1 cell
// group: true and estimated error at a ~1% sample for one app/study.
func BenchmarkTable51_AccuracySummary(b *testing.B) {
	st := studies.Processor()
	cfg := benchCurveConfig(1)
	for i := 0; i < b.N; i++ {
		points, err := experiments.CurveAtSizes(st, "mesa", cfg, []int{200})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p := points[0]
			b.Logf("mesa/processor @%.2f%%: true %.2f%%±%.2f%%, est %.2f%%±%.2f%%",
				p.Fraction*100, p.TrueMean, p.TrueSD, p.EstMean, p.EstSD)
		}
	}
}

// BenchmarkFig51_LearningCurves regenerates one Figure 5.1 learning
// curve (error vs sample size).
func BenchmarkFig51_LearningCurves(b *testing.B) {
	st := studies.Processor()
	cfg := benchCurveConfig(2)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Curve(st, "mcf", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("mcf %d sims: true %.2f%% ± %.2f%%", p.Samples, p.TrueMean, p.TrueSD)
			}
		}
	}
}

// BenchmarkFig52_53_ErrorEstimation regenerates the estimated-vs-true
// comparison of Figures 5.2/5.3 and reports the estimate gap.
func BenchmarkFig52_53_ErrorEstimation(b *testing.B) {
	st := studies.MemorySystem()
	cfg := benchCurveConfig(3)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Curve(st, "gzip", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("gzip %d sims: est %.2f%% vs true %.2f%% (gap %+.2f)",
					p.Samples, p.EstMean, p.TrueMean, p.EstMean-p.TrueMean)
			}
		}
	}
}

// BenchmarkFig54_ANNSimPoint regenerates one ANN+SimPoint learning
// curve (Figure 5.4): training on noisy SimPoint estimates, evaluating
// against full simulation.
func BenchmarkFig54_ANNSimPoint(b *testing.B) {
	st := studies.Processor()
	cfg := benchCurveConfig(4)
	cfg.Noisy = true
	cfg.End = 200
	for i := 0; i < b.N; i++ {
		points, err := experiments.Curve(st, "mesa", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("mesa+SimPoint %d sims: true %.2f%%, est %.2f%%", p.Samples, p.TrueMean, p.EstMean)
			}
		}
	}
}

// BenchmarkFig55_ANNSimPointEstimates isolates the §5.3 estimate-gap
// observation: the CV estimate under SimPoint noise vs true error.
func BenchmarkFig55_ANNSimPointEstimates(b *testing.B) {
	st := studies.Processor()
	cfg := benchCurveConfig(5)
	cfg.Noisy = true
	for i := 0; i < b.N; i++ {
		points, err := experiments.CurveAtSizes(st, "crafty", cfg, []int{200})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p := points[0]
			b.Logf("crafty+SimPoint: est %.2f%% < true %.2f%% (estimate blind to SimPoint noise)",
				p.EstMean, p.TrueMean)
		}
	}
}

// BenchmarkFig56_ReductionFactors regenerates the Figure 5.6
// instruction-reduction arithmetic for one application.
func BenchmarkFig56_ReductionFactors(b *testing.B) {
	st := studies.Processor()
	cfg := benchCurveConfig(6)
	cfg.End = 200
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Reductions(st, []string{"mesa"}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("mesa @%.2f%% err: ANN %.0fx × SimPoint %.1fx = %.0fx",
					r.ErrorPct, r.ANNFactor, r.SimPointFactor, r.CombinedFactor)
			}
		}
	}
}

// BenchmarkFig57_GainContributions measures the SimPoint side of the
// Figure 5.7 split: plan construction and per-estimate cost.
func BenchmarkFig57_GainContributions(b *testing.B) {
	tr := workload.Get("mcf", benchTrace)
	st := studies.Processor()
	cfg := st.Config(777)
	plan, err := simpoint.BuildPlan(tr, simpoint.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.EstimateIPC(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("mcf SimPoint: %d points × %d instrs (%.1fx fewer detailed instructions)",
		len(plan.Points), plan.IntervalLen, float64(tr.Len())/float64(plan.InstructionsPerEstimate()))
}

// BenchmarkFig58_TrainingTimes measures ensemble training time as a
// function of training-set size (Figure 5.8's subject).
func BenchmarkFig58_TrainingTimes(b *testing.B) {
	st := studies.Processor()
	cfg := benchCurveConfig(7)
	for i := 0; i < b.N; i++ {
		points, err := experiments.TrainingTimes(st, "gzip", cfg, []int{100, 200})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%d samples: %v", p.Samples, p.Train)
			}
		}
	}
}

// BenchmarkPBScreen measures the §4 Plackett-Burman parameter
// validation.
func BenchmarkPBScreen(b *testing.B) {
	st := studies.MemorySystem()
	for i := 0; i < b.N; i++ {
		effects, err := experiments.PBScreen(st, "mcf", benchTrace)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			top := pb.Ranked(effects)[0]
			b.Logf("top parameter for mcf: %s (effect %+.3f)", top.Name, top.Effect)
		}
	}
}

// BenchmarkEnsembleTraining isolates the modeling kernel: one 10-fold
// ensemble on 200 points.
func BenchmarkEnsembleTraining(b *testing.B) {
	st := studies.Processor()
	oracle := experiments.NewSimOracle(st, "gzip", benchTrace, experiments.IPCOnly)
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = i * 101
	}
	ipcs, err := oracle.IPCs(idx)
	if err != nil {
		b.Fatal(err)
	}
	enc := newEncoder(st)
	x := make([][]float64, len(idx))
	y := make([][]float64, len(idx))
	for i := range idx {
		x[i] = enc.EncodeIndex(idx[i], nil)
		y[i] = []float64{ipcs[i]}
	}
	cfg := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := core.TrainEnsemble(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsemblePredict isolates prediction cost — the operation
// that replaces a simulation once the model is built (the paper's
// central economy).
func BenchmarkEnsemblePredict(b *testing.B) {
	st := studies.Processor()
	oracle := experiments.NewSimOracle(st, "gzip", benchTrace, experiments.IPCOnly)
	idx := make([]int, 120)
	for i := range idx {
		idx[i] = i * 131
	}
	ipcs, err := oracle.IPCs(idx)
	if err != nil {
		b.Fatal(err)
	}
	enc := newEncoder(st)
	x := make([][]float64, len(idx))
	y := make([][]float64, len(idx))
	for i := range idx {
		x[i] = enc.EncodeIndex(idx[i], nil)
		y[i] = []float64{ipcs[i]}
	}
	ens, err := core.TrainEnsemble(x, y, benchModel())
	if err != nil {
		b.Fatal(err)
	}
	probe := enc.EncodeIndex(9999, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ens.Predict(probe)
	}
	b.Logf("one prediction replaces one %d-instruction simulation", benchTrace)
}

// synthIPC is a cheap deterministic stand-in for simulated IPC, used by
// the modeling-kernel benchmarks so they measure training/prediction
// cost rather than simulator cost.
func synthIPC(idx int) float64 {
	h := uint64(idx)*0x9E3779B97F4A7C15 + 1
	h ^= h >> 33
	return 0.3 + 1.7*float64(h%1000)/1000
}

// benchTrainingSet builds n encoded (input, target) pairs over a study.
func benchTrainingSet(st *studies.Study, n int) (x, y [][]float64) {
	enc := newEncoder(st)
	x = make([][]float64, n)
	y = make([][]float64, n)
	for i := 0; i < n; i++ {
		idx := (i * 131) % st.Space.Size()
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthIPC(idx)}
	}
	return x, y
}

// BenchmarkTrainEnsemble measures 10-fold ensemble training with the
// cross-validation folds trained sequentially (Workers=1) versus on the
// full worker pool. Fold seeds are configuration-derived, so both
// settings produce identical ensembles; on a machine with k ≥ 4 cores
// the parallel case approaches a k-fold speedup (folds are
// embarrassingly parallel).
func BenchmarkTrainEnsemble(b *testing.B) {
	st := studies.Processor()
	x, y := benchTrainingSet(st, 200)
	cfg := benchModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 20
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential-folds", 1},
		{"parallel-folds", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := cfg
			c.Workers = bc.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Seed = uint64(i)
				if _, err := core.TrainEnsemble(x, y, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictBatch measures scoring a large candidate pool — the
// variance-acquisition / full-space-sweep hot path — through the per-point
// Predict loop versus the batched PredictBatch kernel. One benchmark
// iteration scores the whole pool, so ns/op is directly comparable
// across sub-benchmarks.
func BenchmarkPredictBatch(b *testing.B) {
	st := studies.Processor()
	x, y := benchTrainingSet(st, 150)
	cfg := benchModel()
	cfg.Train.MaxEpochs = 40
	cfg.Train.Patience = 15
	ens, err := core.TrainEnsemble(x, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 4096
	enc := newEncoder(st)
	width := enc.Width()
	points := make([][]float64, rows)
	flat := make([]float64, rows*width)
	for i := 0; i < rows; i++ {
		idx := (i * 257) % st.Space.Size()
		points[i] = enc.EncodeIndex(idx, nil)
		copy(flat[i*width:(i+1)*width], points[i])
	}
	out := make([]float64, rows)

	b.Run("per-point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				out[r] = ens.Predict(points[r])
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("batched", func(b *testing.B) {
		ens.SetWorkers(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ens.PredictBatch(0, flat, rows, out, nil)
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("batched-parallel", func(b *testing.B) {
		ens.SetWorkers(0) // GOMAXPROCS
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ens.PredictBatch(0, flat, rows, out, nil)
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}
