package core

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/encoding"
)

// MetricKind selects what a Metric reads off its ensemble.
type MetricKind uint8

// Metric kinds.
const (
	// MetricMean is the ensemble-mean prediction of one output column —
	// a predicted performance/energy/rate metric.
	MetricMean MetricKind = iota
	// MetricVariance is the member disagreement on one output column —
	// the model's own confidence signal (Chapter 7), usable as a
	// ranking axis: low variance marks predictions the ensemble agrees
	// on, high variance marks the corners of the space worth simulating.
	MetricVariance
)

// Metric is one named ranking axis of a multi-metric sweep, backed by
// an ensemble output. Different metrics may come from different
// ensembles — e.g. a performance model and an energy model trained
// over the same design space — or from different output columns of one
// multi-task ensemble.
type Metric struct {
	Name     string
	Ens      *Ensemble
	Output   int        // ensemble output column (0 = primary target)
	Kind     MetricKind // mean prediction or member variance
	Minimize bool       // ranking direction: true when smaller is better
}

// MetricSet is the multi-model metric adapter: a fixed list of metrics
// whose ensembles all consume one encoding, evaluated column-by-column
// over encoded batches. Evaluation is grouped so that a mean and a
// variance metric reading the same (ensemble, output) pair share one
// forward sweep instead of running the members twice.
type MetricSet struct {
	metrics []Metric
	inputs  int
	groups  []metricGroup
}

// metricGroup is one shared evaluation: every metric reading the same
// (ensemble, output) pair, split by kind.
type metricGroup struct {
	ens      *Ensemble
	output   int
	mean     []int // metric positions wanting the mean column
	variance []int // metric positions wanting the variance column
}

// NewMetricSet validates and plans a metric list: at least one metric,
// unique non-empty names, every output in range of its ensemble, and
// every ensemble agreeing on the encoded input width.
func NewMetricSet(metrics []Metric) (*MetricSet, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("core: metric set needs at least one metric")
	}
	s := &MetricSet{metrics: append([]Metric(nil), metrics...)}
	names := make(map[string]bool, len(metrics))
	for i, m := range s.metrics {
		if m.Name == "" {
			return nil, fmt.Errorf("core: metric %d has no name", i)
		}
		if names[m.Name] {
			return nil, fmt.Errorf("core: duplicate metric name %q", m.Name)
		}
		names[m.Name] = true
		if m.Ens == nil {
			return nil, fmt.Errorf("core: metric %q has no ensemble", m.Name)
		}
		if m.Output < 0 || m.Output >= m.Ens.Outputs() {
			return nil, fmt.Errorf("core: metric %q reads output %d, ensemble predicts %d target(s)",
				m.Name, m.Output, m.Ens.Outputs())
		}
		if m.Kind != MetricMean && m.Kind != MetricVariance {
			return nil, fmt.Errorf("core: metric %q has unknown kind %d", m.Name, m.Kind)
		}
		if i == 0 {
			s.inputs = m.Ens.Inputs()
		} else if m.Ens.Inputs() != s.inputs {
			return nil, fmt.Errorf("core: metric %q expects %d inputs, metric %q expects %d — the models were not trained on one encoding",
				m.Name, m.Ens.Inputs(), s.metrics[0].Name, s.inputs)
		}
		g := s.group(m.Ens, m.Output)
		if m.Kind == MetricVariance {
			g.variance = append(g.variance, i)
		} else {
			g.mean = append(g.mean, i)
		}
	}
	return s, nil
}

// group finds or adds the evaluation group for (ens, output).
func (s *MetricSet) group(ens *Ensemble, output int) *metricGroup {
	for i := range s.groups {
		if s.groups[i].ens == ens && s.groups[i].output == output {
			return &s.groups[i]
		}
	}
	s.groups = append(s.groups, metricGroup{ens: ens, output: output})
	return &s.groups[len(s.groups)-1]
}

// Len returns the number of metrics.
func (s *MetricSet) Len() int { return len(s.metrics) }

// Inputs returns the encoded input width every backing ensemble expects.
func (s *MetricSet) Inputs() int { return s.inputs }

// Metrics returns the metric definitions in evaluation-column order.
func (s *MetricSet) Metrics() []Metric { return append([]Metric(nil), s.metrics...) }

// Names returns the metric names in column order.
func (s *MetricSet) Names() []string {
	out := make([]string, len(s.metrics))
	for i, m := range s.metrics {
		out[i] = m.Name
	}
	return out
}

// Minimize returns the per-column ranking directions.
func (s *MetricSet) Minimize() []bool {
	out := make([]bool, len(s.metrics))
	for i, m := range s.metrics {
		out[i] = m.Minimize
	}
	return out
}

// Eval scores rows encoded points (xs is row-major, rows×Inputs()) and
// fills cols[m][r] with metric m's value for row r. Every column is
// bit-identical to the corresponding single-column PredictBatch call,
// so sweep results do not depend on which metrics ride along.
func (s *MetricSet) Eval(xs []float64, rows int, cols [][]float64) {
	s.eval(rows, cols, func(_ int, g *metricGroup, mean, variance []float64) {
		g.ens.PredictBatch(g.output, xs, rows, mean, variance)
	})
}

// eval checks cols against rows and runs predict once per group, its
// mean and variance written straight into the first metric asking for
// each column (nil skips it) and mirrored to the rest.
func (s *MetricSet) eval(rows int, cols [][]float64, predict func(gi int, g *metricGroup, mean, variance []float64)) {
	if len(cols) != len(s.metrics) {
		panic(fmt.Sprintf("core: %d metric columns for %d metrics", len(cols), len(s.metrics)))
	}
	for m := range cols {
		if len(cols[m]) != rows {
			panic(fmt.Sprintf("core: metric column %d has %d slots for %d rows", m, len(cols[m]), rows))
		}
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		predict(gi, g, firstCol(cols, g.mean), firstCol(cols, g.variance))
		for _, ms := range [][]int{g.mean, g.variance} {
			for i := 1; i < len(ms); i++ {
				copy(cols[ms[i]], cols[ms[0]])
			}
		}
	}
}

// RangeEvaluator scores design points by flat index: Eval(lo, rows,
// cols) fills cols exactly as MetricSet.Eval does over EncodeRange's
// rows of points [lo, lo+rows), bit for bit, without encoding them.
// Each member network scores through its ann.RangeNet, whose layer 0
// comes from per-axis product tables and shared prefix sums; the layers
// after it, the unscale, the exp and the mean and variance run as in
// PredictBatch, chunked over the same worker bound. It is safe for
// concurrent use.
type RangeEvaluator struct {
	set  *MetricSet
	nets [][]*ann.RangeNet // per group, per member
}

// NewRangeEvaluator builds every member's product tables over enc's
// axes (encoding.Encoder.Axes), once per evaluator. It returns nil
// where the range path does not apply to some member
// (ann.NewRangeNet): callers then encode rows and call Eval. enc must
// produce Inputs() inputs.
func (s *MetricSet) NewRangeEvaluator(enc *encoding.Encoder) *RangeEvaluator {
	if enc.Width() != s.inputs {
		panic(fmt.Sprintf("core: encoder produces %d inputs, metric models expect %d", enc.Width(), s.inputs))
	}
	axes := enc.Axes()
	ev := &RangeEvaluator{set: s}
	for _, g := range s.groups {
		nets := make([]*ann.RangeNet, len(g.ens.nets))
		for m, n := range g.ens.nets {
			if nets[m] = ann.NewRangeNet(n, axes); nets[m] == nil {
				return nil
			}
		}
		ev.nets = append(ev.nets, nets)
	}
	return ev
}

// Eval scores points [lo, lo+rows) into cols (see RangeEvaluator).
func (ev *RangeEvaluator) Eval(lo, rows int, cols [][]float64) {
	ev.set.eval(rows, cols, func(gi int, g *metricGroup, mean, variance []float64) {
		nets := ev.nets[gi]
		g.ens.predict(g.output, rows, mean, variance, func(m, start, end int, s *ann.Scratch) []float64 {
			return nets[m].ForwardRange(lo+start, end-start, s)
		})
	})
}

// firstCol returns the column of the first metric in ms, or nil when
// ms is empty.
func firstCol(cols [][]float64, ms []int) []float64 {
	if len(ms) == 0 {
		return nil
	}
	return cols[ms[0]]
}
