package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's epoch on the monotonic clock.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into tracer.spans, -1 for a root
	// derived marks a span whose duration was measured but whose
	// position was not: runner stages rebuilt from JobResult.StageTimes
	// or a response's stage_ms, and probe replays of calls that happen
	// inside plan.Compute. Derived spans are laid out back to back from
	// their parent's start.
	derived bool
}

// tracer records spans in memory. The traced run is sequential, so
// spans nest on one timeline and an open-span stack gives each new
// span its parent; the mutex only guards against a layer calling a
// wrapped function from a goroutine of its own.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int
	// events sums the simulator events of the exec.Run spans.
	events int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// add records a derived span [start, start+d) under parent, clamped to
// end no later than the parent, and returns its handle.
func (t *tracer) add(name string, parent int, start, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := start + d
	if parent >= 0 && end > t.spans[parent].end {
		end = t.spans[parent].end
	}
	if end < start {
		end = start
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, derived: true})
	return len(t.spans) - 1
}

// addSeq lays derived children out back to back from at, each with its
// measured duration, and returns their handles in order.
func (t *tracer) addSeq(parent int, at time.Duration, names []string, ds []time.Duration) []int {
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = t.add(name, parent, at, ds[i])
		at = t.spans[ids[i]].end
	}
	return ids
}

// layerOf maps a span name ("plan.Compute", "client.Plan") to the
// repository module it times. The serve client is part of the serve
// layer.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	if l == "client" {
		return "serve"
	}
	return l
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ch := kids[i]
		slices.SortFunc(ch, func(a, b int) int { return cmpDur(t.spans[a].start, t.spans[b].start) })
		covered, reach := time.Duration(0), s.start
		for _, c := range ch {
			lo, hi := max(t.spans[c].start, reach), min(t.spans[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

func cmpDur(a, b time.Duration) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// layerSelf sums self times per layer.
func (t *tracer) layerSelf() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range t.selfTimes() {
		out[layerOf(t.spans[i].name)] += d
	}
	return out
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// count returns how many spans are named name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// selfOf sums the self time of every span named name.
func (t *tracer) selfOf(name string) time.Duration {
	var d time.Duration
	for i, s := range t.selfTimes() {
		if t.spans[i].name == name {
			d += s
		}
	}
	return d
}

// writeLayerTable prints per-layer self time against the traced wall.
func writeLayerTable(w io.Writer, self map[string]time.Duration, wall time.Duration, ops int) {
	layers := make([]string, 0, len(self))
	var sum time.Duration
	for l, d := range self {
		layers = append(layers, l)
		sum += d
	}
	slices.SortFunc(layers, func(a, b string) int { return cmpDur(self[b], self[a]) })
	fmt.Fprintf(w, "%-10s %12s %12s %7s\n", "layer", "self_ms", "self_ms/op", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %6.1f%%\n", l, ms(self[l]), ms(self[l])/float64(ops), 100*float64(self[l])/float64(wall))
	}
	fmt.Fprintf(w, "%-10s %12.1f %12s %6.1f%%\n", "sum", ms(sum), "", 100*float64(sum)/float64(wall))
	fmt.Fprintf(w, "%-10s %12.1f\n", "wall", ms(wall))
}

// writeChrome writes the spans as a Chrome trace (catapult JSON object
// format) to path, creating its directory.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent}
		if s.derived {
			args["derived"] = true
		}
		evs[i] = event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: args,
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
