package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the call.
// Spans of one replayed request share Req; Parent is the enclosing span's
// ID (0 for a root). Work is what the call handled (rows, simulated steps,
// calls); Useful is the steps a settle run needed, on curve-sampling spans.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req"`
	Start  int64   `json:"startNs"`
	End    int64   `json:"endNs"`
	Work   float64 `json:"work,omitempty"`
	Useful float64 `json:"useful,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. The replay
// is sequential at the top level, so spans need no locking. With on ==
// false, do only runs the call: the untraced pass of the same replay
// measures what recording costs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs fn as a span named name under parent and returns its ID. fn gets
// the span's own ID, to parent the spans it opens, and returns the work
// done.
func (t *tracer) do(name string, parent, req int, fn func(id int) float64) int {
	if !t.on {
		fn(0)
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(time.Since(t.t0))})
	w := fn(id)
	sp := &t.spans[id-1] // fn may have grown the slice
	sp.End = int64(time.Since(t.t0))
	sp.Work = w
	return id
}

// set updates a recorded span; a no-op when tracing is off.
func (t *tracer) set(id int, f func(*span)) {
	if id > 0 {
		f(&t.spans[id-1])
	}
}

func (t *tracer) has(name string) bool {
	for _, s := range t.spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// sumUnder totals the spans named name whose parent span is named parent.
func (t *tracer) sumUnder(name, parent string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Parent > 0 && t.spans[s.Parent-1].Name == parent {
			sum += s.dur()
		}
	}
	return sum
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	name        string
	calls       int
	total, self time.Duration
	work        float64
	useful      float64
}

func (l *layerStat) mean() time.Duration {
	if l == nil || l.calls == 0 {
		return 0
	}
	return l.total / time.Duration(l.calls)
}

// perCall returns total/calls in unit, 0 without calls.
func (l *layerStat) perCall(unit time.Duration) float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.total) / float64(unit) / float64(l.calls)
}

// perWork returns total/work in unit, 0 without work.
func (l *layerStat) perWork(unit time.Duration) float64 {
	if l == nil || l.work == 0 {
		return 0
	}
	return float64(l.total) / float64(unit) / l.work
}

// stats aggregates the spans by name. A span's self time is its duration
// minus the part of it its child spans cover.
func (t *tracer) stats() map[string]*layerStat {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStat{name: s.Name}
			out[s.Name] = l
		}
		l.calls++
		l.total += s.dur()
		l.self += s.dur() - covered(s, children[s.ID])
		l.work += s.Work
		l.useful += s.Useful
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, end int64
	end = parent.Start
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, parent.End)
		if e > s {
			sum += e - s
			end = e
		}
	}
	return time.Duration(sum)
}

// writeSpans writes every span as one JSON document.
func (t *tracer) writeSpans(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// printTable prints the per-layer self-time table, largest first.
func printTable(w io.Writer, st map[string]*layerStat) {
	var all []*layerStat
	var self time.Duration
	for _, l := range st {
		all = append(all, l)
		self += l.self
	}
	sort.Slice(all, func(i, j int) bool { return all[i].self > all[j].self })
	fmt.Fprintf(w, "%-26s %7s %12s %12s %7s %12s\n", "span", "calls", "total ms", "self ms", "self %", "mean")
	for _, l := range all {
		share := 0.0
		if self > 0 {
			share = 100 * float64(l.self) / float64(self)
		}
		fmt.Fprintf(w, "%-26s %7d %12.3f %12.3f %6.2f%% %12s\n", l.name, l.calls,
			ms(l.total), ms(l.self), share, l.mean())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
