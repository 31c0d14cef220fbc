package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one request (a plan
// request or a telemetry window) share Req; Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"startNs"` // since the tracer epoch
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced replay shares the traced code path.
// It is safe for concurrent use: the telemetry replay's bridge records
// spans from the ingestion shard goroutines.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	parent int32 // the span bridge calls nest under; -1 outside a flush
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), parent: -1} }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// endAs closes span i under a name only known at its end (a cache
// lookup is a hit or a miss).
func (t *tracer) endAs(i int32, name string) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Name = name
	t.mu.Unlock()
}

// setParent makes calls recorded from other goroutines nest under i.
func (t *tracer) setParent(i int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parent = i
	t.mu.Unlock()
}

func (t *tracer) currentParent() int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parent
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children lie inside their parent's interval (they
// are synchronous calls made while the parent is open), so their
// durations subtract directly.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Count  int
	SelfNs int64 // summed self time
}

func (l layerStat) meanSelfUS() float64 { return ratio(float64(l.SelfNs)/1e3, float64(l.Count)) }

// aggregate groups spans by name.
func aggregate(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := map[string]layerStat{}
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.SelfNs += self[i]
		out[s.Name] = l
	}
	return out
}

// spanRecord is one line of the span file: the span, its index within
// its stream's replay (what Parent refers to), its self time, and the
// stream it belongs to.
type spanRecord struct {
	Stream string `json:"stream"`
	ID     int    `json:"id"`
	span
	SelfNs int64 `json:"selfNs"`
}

// writeSpans writes every stream's spans, one JSON object per line.
func writeSpans(path string, streams []*streamTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, st := range streams {
		spans := st.tr.snapshot()
		self := selfTimes(spans)
		for i, sp := range spans {
			if err := enc.Encode(spanRecord{Stream: st.name, ID: i, span: sp, SelfNs: self[i]}); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
