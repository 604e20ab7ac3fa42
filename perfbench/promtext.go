package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSamples is one scrape of a Prometheus text exposition, keyed by
// the series as written: the metric name plus its label set, e.g.
// `repro_model_flushes_total{model="fixture"}`.
type promSamples map[string]float64

// parseProm reads the sample lines of a text exposition. Comments and
// blank lines are skipped; a sample line that does not end in a number
// is an error, so a format change fails the run instead of reading 0.
func parseProm(text string) (promSamples, error) {
	out := make(promSamples)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		cut := strings.LastIndexByte(l, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, l)
		}
		v, err := strconv.ParseFloat(l[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(l[:cut])] = v
	}
	return out, sc.Err()
}

// delta returns after − before for one series; a series missing from
// either scrape is an error.
func (after promSamples) delta(before promSamples, series string) (float64, error) {
	a, okA := after[series]
	b, okB := before[series]
	if !okA || !okB {
		return 0, fmt.Errorf("metrics: series %s missing from a scrape", series)
	}
	return a - b, nil
}
