package core

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pareto"
)

// AcquireStrategy names an acquisition function — the rule that scores
// unsimulated candidates against the current ensemble and decides what
// to simulate next. Strategies serialize by name so checkpoints stay
// self-describing.
type AcquireStrategy string

// The acquisition strategies.
const (
	// AcquireHVI scores candidates by predicted hypervolume
	// improvement: how much the predicted Pareto frontier over the
	// configured objectives would grow if the candidate joined the
	// already-simulated set.
	AcquireHVI AcquireStrategy = "hvi"
	// AcquireFrontier is frontier-uncertainty sampling: prefer
	// candidates whose ensemble disagreement straddles the predicted
	// frontier — plausibly frontier-improving under one member, clearly
	// dominated under another — where one simulation buys the most
	// frontier information.
	AcquireFrontier AcquireStrategy = "frontier"
	// AcquireVariance is the Chapter 7 active-learning rule: score by
	// ensemble variance on the primary objective's output, so each batch
	// takes the candidates on which the members disagree most.
	AcquireVariance AcquireStrategy = "variance"
)

// Objective is one axis of the predicted frontier acquisition targets:
// an ensemble output column, scored either by its predicted mean or by
// the members' disagreement on it (Variance), ranked in the given
// direction.
type Objective struct {
	Output   int  `json:"output"`
	Variance bool `json:"variance,omitempty"`
	Minimize bool `json:"minimize,omitempty"`
}

// Constraint restricts acquisition to candidates whose predicted mean
// on an output column satisfies a bound — the declarative form of
// "min energy s.t. IPC ≥ x". Op is ">=" or "<=".
type Constraint struct {
	Output int     `json:"output"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
}

// satisfied reports whether a predicted mean meets the constraint.
func (c Constraint) satisfied(v float64) bool {
	if c.Op == "<=" {
		return v <= c.Value
	}
	return v >= c.Value
}

// String renders the constraint in the spec grammar.
func (c Constraint) String() string {
	return fmt.Sprintf("out%d%s%v", c.Output, c.Op, c.Value)
}

// AcquireConfig selects and parameterizes an acquisition strategy. The
// zero Objectives slice means the default pair — the primary output
// maximized against the members' disagreement on it minimized, the
// same performance-vs-confidence frontier sweep.DefaultSpecs ranks by.
type AcquireConfig struct {
	Strategy    AcquireStrategy `json:"strategy"`
	Objectives  []Objective     `json:"objectives,omitempty"`
	Constraints []Constraint    `json:"constraints,omitempty"`
}

// resolvedObjectives returns the configured objectives, or the default
// pair when none were given.
func (c *AcquireConfig) resolvedObjectives() []Objective {
	if len(c.Objectives) > 0 {
		return c.Objectives
	}
	return []Objective{
		{Output: 0},
		{Output: 0, Variance: true, Minimize: true},
	}
}

// ResolvedObjectives returns the objectives acquisition actually runs
// with: the configured list, or the default pair when none were given.
// A nil receiver yields the default pair — the frontier of a run with
// no acquisition config is the same performance-vs-confidence pair
// sweep.DefaultSpecs ranks by.
func (c *AcquireConfig) ResolvedObjectives() []Objective {
	if c == nil {
		c = &AcquireConfig{}
	}
	return c.resolvedObjectives()
}

// MaxOutput returns the highest output column the configuration
// references across objectives and constraints (0 for nil or for a
// config on the default pair). Oracle builders use it to decide how
// many target columns the simulator must report.
func (c *AcquireConfig) MaxOutput() int {
	if c == nil {
		return 0
	}
	max := 0
	for _, o := range c.resolvedObjectives() {
		if o.Output > max {
			max = o.Output
		}
	}
	for _, ct := range c.Constraints {
		if ct.Output > max {
			max = ct.Output
		}
	}
	return max
}

// Validate reports structural problems with the acquisition
// configuration. Output columns are checked against the trained
// ensemble at selection time — the target width is not known before
// the first round.
func (c *AcquireConfig) Validate() error {
	switch c.Strategy {
	case AcquireHVI, AcquireFrontier, AcquireVariance:
	default:
		return fmt.Errorf("core: unknown acquisition strategy %q (want hvi, frontier or variance)", c.Strategy)
	}
	for i, o := range c.Objectives {
		if o.Output < 0 {
			return fmt.Errorf("core: acquisition Objectives[%d]: output %d is negative", i, o.Output)
		}
		if o.Variance && !o.Minimize {
			return fmt.Errorf("core: acquisition Objectives[%d] (out%d): a disagreement axis must be minimized", i, o.Output)
		}
	}
	for i, con := range c.Constraints {
		if con.Output < 0 {
			return fmt.Errorf("core: acquisition Constraints[%d]: output %d is negative", i, con.Output)
		}
		if con.Op != ">=" && con.Op != "<=" {
			return fmt.Errorf("core: acquisition Constraints[%d] (out%d): Op %q is not >= or <=", i, con.Output, con.Op)
		}
	}
	return nil
}

// Spec renders the configuration back into the grammar ParseAcquireSpec
// accepts — the canonical CLI/HTTP form.
func (c *AcquireConfig) Spec() string {
	parts := []string{string(c.Strategy)}
	for _, o := range c.Objectives {
		switch {
		case o.Variance:
			parts = append(parts, fmt.Sprintf("var=out%d", o.Output))
		case o.Minimize:
			parts = append(parts, fmt.Sprintf("min=out%d", o.Output))
		default:
			parts = append(parts, fmt.Sprintf("max=out%d", o.Output))
		}
	}
	for _, con := range c.Constraints {
		parts = append(parts, con.String())
	}
	return strings.Join(parts, ":")
}

// parseOutColumn parses the "outN" output-column form.
func parseOutColumn(s string) (int, error) {
	rest, ok := strings.CutPrefix(s, "out")
	if !ok {
		return 0, fmt.Errorf("core: acquisition spec: output %q must be of the form outN", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("core: acquisition spec: output %q must be of the form outN", s)
	}
	return n, nil
}

// ParseAcquireSpec parses the acquisition grammar — colon-separated
// like sweep's metric grammar:
//
//	strategy[:clause]...
//
//	strategy   = hvi | frontier | variance
//	clause     = max=outN          maximize output N's predicted mean
//	           | min=outN          minimize output N's predicted mean
//	           | var=outN          minimize members' disagreement on N
//	           | outN>=v | outN<=v constrain output N's predicted mean
//
// With no objective clauses the default pair applies: out0 maximized
// against the disagreement on out0 minimized. Examples:
//
//	hvi
//	hvi:max=out0:min=out1
//	variance:out0>=1.2
//	frontier:min=out1:out0>=1.2
func ParseAcquireSpec(spec string) (*AcquireConfig, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	cfg := &AcquireConfig{Strategy: AcquireStrategy(strings.TrimSpace(parts[0]))}
	for _, raw := range parts[1:] {
		clause := strings.TrimSpace(raw)
		switch {
		case strings.Contains(clause, ">="), strings.Contains(clause, "<="):
			op := ">="
			if strings.Contains(clause, "<=") {
				op = "<="
			}
			lhs, rhs, _ := strings.Cut(clause, op)
			out, err := parseOutColumn(strings.TrimSpace(lhs))
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: acquisition spec: constraint bound %q is not a finite number", rhs)
			}
			cfg.Constraints = append(cfg.Constraints, Constraint{Output: out, Op: op, Value: v})
		case strings.HasPrefix(clause, "max="), strings.HasPrefix(clause, "min="), strings.HasPrefix(clause, "var="):
			kind, rhs, _ := strings.Cut(clause, "=")
			out, err := parseOutColumn(strings.TrimSpace(rhs))
			if err != nil {
				return nil, err
			}
			cfg.Objectives = append(cfg.Objectives, Objective{
				Output:   out,
				Variance: kind == "var",
				Minimize: kind != "max",
			})
		default:
			return nil, fmt.Errorf("core: acquisition spec: clause %q is not max=outN, min=outN, var=outN or a constraint", clause)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Acquirer is the batch-acquisition function a configuration names:
// given the current ensemble and the encoded inputs of every
// already-simulated point, it selects the next batch from a selector's
// drawable pool. All three strategies share one pipeline: draw pool →
// batched predictions → constraint feasibility → strategy score →
// bounded top-n selection. Selection is bit-identical for any ensemble
// worker count and consumes the selection RNG only through the
// selector's candidate draw, so checkpoint resume replays it exactly.
type Acquirer struct {
	cfg AcquireConfig
}

// NewAcquirer builds the acquirer the configuration names.
func NewAcquirer(cfg *AcquireConfig) (*Acquirer, error) {
	if cfg == nil {
		return nil, fmt.Errorf("core: nil acquisition config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Acquirer{cfg: *cfg}, nil
}

// poolPredictions holds the per-candidate batched predictions for the
// distinct output columns acquisition touches.
type poolPredictions struct {
	outputs []int       // distinct output columns, in first-use order
	mean    [][]float64 // mean[i][r]: predicted mean of outputs[i] on row r
	sigma   [][]float64 // sigma[i][r]: member disagreement variance
}

// column returns the slot of an output column, adding it on first use.
func (p *poolPredictions) column(output int) int {
	for i, o := range p.outputs {
		if o == output {
			return i
		}
	}
	p.outputs = append(p.outputs, output)
	return len(p.outputs) - 1
}

// predictOutputs runs one batched mean+disagreement prediction per
// distinct output column over rows encoded points.
func predictOutputs(ens *Ensemble, outputs []int, xs []float64, rows int) *poolPredictions {
	p := &poolPredictions{outputs: outputs}
	for range outputs {
		p.mean = append(p.mean, make([]float64, rows))
		p.sigma = append(p.sigma, make([]float64, rows))
	}
	for i, o := range outputs {
		ens.PredictBatch(o, xs, rows, p.mean[i], p.sigma[i])
	}
	return p
}

// neededOutputs lists the distinct output columns the objectives and
// constraints touch, objectives first in declaration order.
func (a *Acquirer) neededOutputs(objs []Objective) []int {
	p := &poolPredictions{}
	for _, o := range objs {
		p.column(o.Output)
	}
	for _, c := range a.cfg.Constraints {
		p.column(c.Output)
	}
	return p.outputs
}

// checkWidth validates every referenced output column against the
// trained ensemble.
func (a *Acquirer) checkWidth(objs []Objective, ens *Ensemble) error {
	for _, o := range objs {
		if o.Output >= ens.Outputs() {
			return fmt.Errorf("core: acquisition objective out%d: ensemble has %d outputs", o.Output, ens.Outputs())
		}
	}
	for _, c := range a.cfg.Constraints {
		if c.Output >= ens.Outputs() {
			return fmt.Errorf("core: acquisition constraint out%d: ensemble has %d outputs", c.Output, ens.Outputs())
		}
	}
	return nil
}

// Select draws up to n points. trainXs are the encoded inputs of the
// simulated set (the predicted-frontier reference); pool sizes the
// scored candidate pool (<=0 means 20×n).
func (a *Acquirer) Select(sel *BatchSelector, ens *Ensemble, trainXs [][]float64, n, pool int) ([]int, error) {
	if ens == nil {
		return nil, fmt.Errorf("core: acquisition needs a trained ensemble")
	}
	objs := a.cfg.resolvedObjectives()
	if err := a.checkWidth(objs, ens); err != nil {
		return nil, err
	}
	idxs, xs := sel.drawPool(n, pool)
	if len(idxs) == 0 {
		return nil, nil
	}
	pool = len(idxs)
	preds := predictOutputs(ens, a.neededOutputs(objs), xs, pool)

	// Predicted-feasibility: candidates violating constraints rank
	// strictly after feasible ones (by violation count), so constrained
	// acquisition degrades gracefully instead of stalling when the
	// model believes nothing qualifies yet.
	violations := make([]int, pool)
	for _, con := range a.cfg.Constraints {
		col := preds.column(con.Output)
		for r := 0; r < pool; r++ {
			if !con.satisfied(preds.mean[col][r]) {
				violations[r]++
			}
		}
	}

	var scores []float64
	var err error
	switch a.cfg.Strategy {
	case AcquireVariance:
		scores = preds.sigma[preds.column(objs[0].Output)]
	case AcquireHVI, AcquireFrontier:
		scores, err = a.frontierScores(ens, trainXs, objs, preds, violations)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown acquisition strategy %q", a.cfg.Strategy)
	}
	return topScored(idxs, scores, violations, n), nil
}

// objectiveSpace is the normalized minimization space the frontier
// strategies score in: every objective mapped to [0,1] with 0 best,
// bounds fitted over reference ∪ candidate values so the mapping is a
// pure function of the round's predictions.
type objectiveSpace struct {
	objs   []Objective
	lo, hi []float64
}

// fit computes per-objective bounds over the given value columns.
func fitObjectiveSpace(objs []Objective, cols ...[][]float64) *objectiveSpace {
	s := &objectiveSpace{objs: objs, lo: make([]float64, len(objs)), hi: make([]float64, len(objs))}
	for o := range objs {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range cols {
			for _, v := range c[o] {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		s.lo[o], s.hi[o] = lo, hi
	}
	return s
}

// normalize maps one objective value into the minimization space; a
// degenerate (constant) axis maps to 0.
func (s *objectiveSpace) normalize(o int, v float64) float64 {
	span := s.hi[o] - s.lo[o]
	if span <= 0 {
		return 0
	}
	if s.objs[o].Minimize {
		return (v - s.lo[o]) / span
	}
	return (s.hi[o] - v) / span
}

// span returns the raw width of one objective axis.
func (s *objectiveSpace) span(o int) float64 { return s.hi[o] - s.lo[o] }

// objectiveValue extracts one candidate's raw value on one objective.
func objectiveValue(preds *poolPredictions, obj Objective, r int) float64 {
	col := preds.column(obj.Output)
	if obj.Variance {
		return preds.sigma[col][r]
	}
	return preds.mean[col][r]
}

// frontierScores computes the hvi and frontier-uncertainty scores: both
// need the predicted frontier of the already-simulated (and predicted
// feasible) set over the objective axes.
func (a *Acquirer) frontierScores(ens *Ensemble, trainXs [][]float64, objs []Objective, preds *poolPredictions, violations []int) ([]float64, error) {
	pool := len(violations)
	// Predict the simulated set on the same output columns.
	var ref *poolPredictions
	trainRows := len(trainXs)
	if trainRows > 0 {
		width := ens.Inputs()
		flat := make([]float64, trainRows*width)
		for i, x := range trainXs {
			copy(flat[i*width:(i+1)*width], x)
		}
		ref = predictOutputs(ens, preds.outputs, flat, trainRows)
	} else {
		ref = &poolPredictions{outputs: preds.outputs}
		for range preds.outputs {
			ref.mean = append(ref.mean, nil)
			ref.sigma = append(ref.sigma, nil)
		}
	}

	// Objective-major value columns for bound fitting.
	candCols := make([][]float64, len(objs))
	refCols := make([][]float64, len(objs))
	for o, obj := range objs {
		candCols[o] = make([]float64, pool)
		for r := 0; r < pool; r++ {
			candCols[o][r] = objectiveValue(preds, obj, r)
		}
		refCols[o] = make([]float64, trainRows)
		for r := 0; r < trainRows; r++ {
			refCols[o][r] = objectiveValue(ref, obj, r)
		}
	}
	space := fitObjectiveSpace(objs, candCols, refCols)

	// The reference frontier: predicted-feasible simulated points,
	// reduced in normalized space. minimize is all-true there.
	minimize := make([]bool, len(objs))
	for o := range minimize {
		minimize[o] = true
	}
	front := pareto.NewFrontier(minimize)
	vec := make([]float64, len(objs))
	for r := 0; r < trainRows; r++ {
		feasible := true
		for _, con := range a.cfg.Constraints {
			if !con.satisfied(ref.mean[ref.column(con.Output)][r]) {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		for o := range objs {
			vec[o] = space.normalize(o, refCols[o][r])
		}
		if err := front.Offer(r, vec); err != nil {
			return nil, fmt.Errorf("core: acquisition reference frontier: %w", err)
		}
	}
	fpts := front.Sorted()
	frontVecs := make([][]float64, len(fpts))
	for i, p := range fpts {
		frontVecs[i] = p.Values
	}

	scores := make([]float64, pool)
	switch a.cfg.Strategy {
	case AcquireHVI:
		// Exclusive hypervolume contribution against the reference
		// point just beyond the normalized unit box, so boundary points
		// still contribute.
		hvRef := make([]float64, len(objs))
		for o := range hvRef {
			hvRef[o] = 1.1
		}
		base := Hypervolume(frontVecs, hvRef)
		with := make([][]float64, len(frontVecs), len(frontVecs)+1)
		copy(with, frontVecs)
		for r := 0; r < pool; r++ {
			cand := make([]float64, len(objs))
			for o := range objs {
				cand[o] = space.normalize(o, candCols[o][r])
			}
			scores[r] = Hypervolume(append(with, cand), hvRef) - base
		}
	case AcquireFrontier:
		// Straddle detection: the candidate's optimistic corner (every
		// objective improved by one member-disagreement σ) escapes the
		// frontier while its pessimistic corner is dominated by it —
		// the ensemble cannot agree which side of the frontier the
		// point falls on, so simulating it is maximally informative.
		// Straddling candidates rank above all others; both groups
		// order by total normalized disagreement.
		const straddleBonus = 1e3
		opt := make([]float64, len(objs))
		pess := make([]float64, len(objs))
		for r := 0; r < pool; r++ {
			sigSum := 0.0
			for o, obj := range objs {
				z := space.normalize(o, candCols[o][r])
				var nsig float64
				if !obj.Variance && space.span(o) > 0 {
					col := preds.column(obj.Output)
					nsig = math.Sqrt(preds.sigma[col][r]) / space.span(o)
				}
				opt[o] = z - nsig
				pess[o] = z + nsig
				sigSum += nsig
			}
			optEscapes := !dominatedBy(frontVecs, minimize, opt)
			pessDominated := dominatedBy(frontVecs, minimize, pess)
			scores[r] = sigSum
			if optEscapes && pessDominated {
				scores[r] += straddleBonus
			}
		}
	}
	return scores, nil
}

// dominatedBy reports whether any frontier vector weakly dominates v.
func dominatedBy(front [][]float64, minimize []bool, v []float64) bool {
	for _, f := range front {
		if pareto.Dominates(minimize, f, v) {
			return true
		}
	}
	return false
}

// acqScored pairs a candidate with its violation count, acquisition
// score and draw position — the deterministic total order acquisition
// selects under: fewer violations first, then higher score, then
// earlier draw.
type acqScored struct {
	idx, pos   int
	violations int
	score      float64
}

// acqWeaker orders candidates for the bounded min-heap: a is weaker
// than b when it violates more constraints, scores lower, or ties were
// drawn later.
func acqWeaker(a, b acqScored) bool {
	if a.violations != b.violations {
		return a.violations > b.violations
	}
	if a.score != b.score {
		return a.score < b.score
	}
	return a.pos > b.pos
}

// acqHeap is a min-heap whose root is the weakest kept candidate.
type acqHeap []acqScored

func (h acqHeap) Len() int            { return len(h) }
func (h acqHeap) Less(i, j int) bool  { return acqWeaker(h[i], h[j]) }
func (h acqHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *acqHeap) Push(x interface{}) { *h = append(*h, x.(acqScored)) }
func (h *acqHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// topScored returns the n best candidates under the acquisition order,
// strongest first, via a bounded min-heap: O(pool·log n) against the
// O(n·pool) selection sort that dominated a round's cost at 10k+
// candidate pools.
func topScored(idxs []int, scores []float64, violations []int, n int) []int {
	if n > len(idxs) {
		n = len(idxs)
	}
	if n <= 0 {
		return nil
	}
	h := make(acqHeap, 0, n)
	for i, idx := range idxs {
		c := acqScored{idx: idx, pos: i, violations: violations[i], score: scores[i]}
		if len(h) < n {
			heap.Push(&h, c)
		} else if acqWeaker(h[0], c) {
			h[0] = c
			heap.Fix(&h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return acqWeaker(h[j], h[i]) })
	out := make([]int, len(h))
	for i, c := range h {
		out[i] = c.idx
	}
	return out
}
