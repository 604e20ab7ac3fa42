// Memsys: explore the memory-system design space (Table 4.1) the way
// the paper's architect would: build a model from a small simulation
// budget, read its self-reported accuracy, then use the model — not the
// simulator — to answer design questions over all 23,040 points:
//
//   - Which memory hierarchy maximizes IPC for this application?
//   - How much does the optimum depend on the write policy?
//   - What does the predicted IPC surface look like along the L2 axis?
//
// The point of the paper is precisely that these sweeps cost network
// evaluations (microseconds), not simulations (CPU-days).
//
// Run: go run ./examples/memsys [-app twolf] [-samples 500]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/studies"
)

func main() {
	app := flag.String("app", "twolf", "application to study")
	samples := flag.Int("samples", 500, "simulation budget")
	traceLen := flag.Int("insts", 30000, "instructions per simulation")
	flag.Parse()

	study := studies.MemorySystem()
	sp := study.Space
	oracle := experiments.NewSimOracle(study, *app, *traceLen, experiments.IPCOnly)

	cfg := core.DefaultExploreConfig()
	cfg.MaxSamples = *samples
	cfg.TargetMeanErr = 0
	cfg.Seed = 1

	d, err := explore.New(sp, oracle, explore.Config{ExploreConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	ens, err := d.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	est := ens.Estimate()
	fmt.Printf("model of %s over %d-point memory space from %d simulations\n",
		*app, sp.Size(), len(d.Samples()))
	fmt.Printf("self-reported accuracy: %.2f%% ± %.2f%% error\n\n", est.MeanErr, est.SDErr)

	// Sweep the ENTIRE space through the model (23,040 predictions).
	enc := d.Encoder()
	type scored struct {
		idx int
		ipc float64
	}
	preds := make([]scored, sp.Size())
	x := make([]float64, enc.Width())
	for i := 0; i < sp.Size(); i++ {
		enc.EncodeIndex(i, x)
		preds[i] = scored{i, ens.Predict(x)}
	}
	sort.Slice(preds, func(a, b int) bool { return preds[a].ipc > preds[b].ipc })

	fmt.Println("top five predicted configurations:")
	for _, s := range preds[:5] {
		fmt.Printf("  IPC %.3f  %s\n", s.ipc, sp.Describe(s.idx))
	}

	// Verify the predicted best against the simulator.
	best := preds[0]
	truth, err := oracle.IPCs([]int{best.idx})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredicted best: IPC %.4f — simulator says %.4f (%.2f%% off)\n",
		best.ipc, truth[0], 100*abs(best.ipc-truth[0])/truth[0])

	// Predicted IPC along the L2-size axis with everything else at the
	// predicted optimum: the kind of sensitivity slice Figure 5.1's
	// models make free.
	fmt.Println("\npredicted L2-size sensitivity at the optimum point:")
	choices := sp.Choices(best.idx)
	for l2 := 0; l2 < 4; l2++ {
		choices[4] = l2 // L2 size axis
		enc.Encode(choices, x)
		fmt.Printf("  L2 %4.0fKB → predicted IPC %.3f\n", sp.Value(choices, 4), ens.Predict(x))
	}

	// Write-policy split: compare the best WT and best WB points.
	fmt.Println("\nbest configuration per write policy (predicted):")
	bestPer := map[string]scored{}
	for _, s := range preds {
		pol := sp.LevelName(sp.Choices(s.idx), 3)
		if _, ok := bestPer[pol]; !ok {
			bestPer[pol] = s
		}
		if len(bestPer) == 2 {
			break
		}
	}
	policies := make([]string, 0, len(bestPer))
	for pol := range bestPer {
		policies = append(policies, pol)
	}
	sort.Strings(policies)
	for _, pol := range policies {
		fmt.Printf("  %s: predicted IPC %.3f\n", pol, bestPer[pol].ipc)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
