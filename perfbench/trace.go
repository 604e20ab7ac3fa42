package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the call. Parent is the ID of the span that caused it (0 for
// a unit's root); all spans of one unit — an exploration, a sweep, a
// request — descend from that unit's root. Start and End are offsets
// from the tracer's epoch.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced runs pass nil and pay only a
// nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	last  uint64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	id, parent uint64
	name       string
	start      time.Time
}

// Begin starts a span under parent and returns its handle; the handle's
// id may be passed as the parent of spans it causes before it ends.
func (t *Tracer) Begin(name string, parent uint64) open {
	if t == nil {
		return open{}
	}
	return open{id: t.newID(), parent: parent, name: name, start: time.Now()}
}

// End records the span begun by o.
func (t *Tracer) End(o open) {
	if t == nil {
		return
	}
	t.add(Span{ID: o.id, Parent: o.parent, Name: o.name, Start: o.start.Sub(t.epoch), End: time.Since(t.epoch)})
}

// Record adds a span whose boundaries were observed elsewhere, such as
// a training round explore.Driver times itself.
func (t *Tracer) Record(name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(Span{ID: t.newID(), Parent: parent, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

func (t *Tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines, one span per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its children cover. Children may overlap
// each other (concurrent calls) or stick out of the parent; only the
// union of their intervals clipped to the parent's counts, so self
// time is never negative and never double-subtracts.
func selfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals within
// parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.lo <= cur.hi:
			cur.hi = max(cur.hi, x.hi)
		default:
			total += cur.hi - cur.lo
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerTotals sums self time by span name over each root's subtree: the
// per-unit time each layer spent, keyed root ID → name → time.
func layerTotals(spans []Span) map[uint64]map[string]time.Duration {
	self := selfTimes(spans)
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id uint64) uint64 {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	out := make(map[uint64]map[string]time.Duration)
	for _, s := range spans {
		r := root(s.ID)
		if out[r] == nil {
			out[r] = make(map[string]time.Duration)
		}
		out[r][s.Name] += self[s.ID]
	}
	return out
}
