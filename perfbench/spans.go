package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"rats/internal/rtrace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the recorder
// started; parent is an index into the recorder's spans, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end int64
}

// recorder keeps a traced run's spans in memory until the run ends. All
// spans of a run share the recorder's id.
type recorder struct {
	id string
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// server holds traces the service recorded itself, exported next to
	// the benchmark's own spans; at most maxExportRoots are kept.
	server []*rtrace.TraceData
}

func newRecorder(id string) *recorder { return &recorder{id: id, t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: t, end: -1})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = t
	return time.Duration(t - r.spans[i].start)
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	i := r.begin(name, parent)
	f()
	return r.end(i)
}

// layerTime sums, per span name, the duration and the self time (the
// duration minus the part of it that child spans cover), and counts the
// spans. Spans still open are ignored.
type layerTime struct {
	n          int
	total, own time.Duration
}

func (r *recorder) layerTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		lt := out[s.name]
		lt.n++
		lt.total += time.Duration(s.end - s.start)
		lt.own += time.Duration(s.end-s.start) - covered(kids[i])
		out[s.name] = lt
	}
	return out
}

// selfTimeTable lists the n span names with the most self time.
func (r *recorder) selfTimeTable(n int) []string {
	lt := r.layerTimes()
	names := make([]string, 0, len(lt))
	for name := range lt {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return lt[names[a]].own > lt[names[b]].own })
	out := []string{fmt.Sprintf("%-40s %8s %12s %12s", "span", "count", "total_s", "self_s")}
	for i, name := range names {
		if i == n {
			break
		}
		out = append(out, fmt.Sprintf("%-40.40s %8d %12.6f %12.6f", name, lt[name].n, lt[name].total.Seconds(), lt[name].own.Seconds()))
	}
	return out
}

// covered is the length of the union of the spans' intervals: children
// running in parallel count once.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(a, b int) bool { return ss[a].start < ss[b].start })
	var total, lo, hi int64 = 0, 0, -1
	for _, s := range ss {
		if s.start > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s.start, s.end
		} else if s.end > hi {
			hi = s.end
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return time.Duration(total)
}

// maxExportRoots bounds the Chrome file: a long run records far more root
// spans than a trace viewer needs to show the shape of the work.
const maxExportRoots = 5000

// writeChrome exports the spans, one track per root span, plus the
// service's own request traces, in the Chrome trace-event format.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]int{}
	var roots []int
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		if s.parent < 0 {
			roots = append(roots, i)
		} else {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	if len(roots) > maxExportRoots {
		roots = roots[:maxExportRoots]
	}
	base := r.t0.UnixMicro()
	var build func(i int, off int64) rtrace.SpanData
	build = func(i int, off int64) rtrace.SpanData {
		s := r.spans[i]
		sd := rtrace.SpanData{Name: s.name, StartUs: s.start/1e3 - off, EndUs: s.end/1e3 - off}
		for _, k := range kids[i] {
			sd.Children = append(sd.Children, build(k, off))
		}
		return sd
	}
	traces := make([]*rtrace.TraceData, 0, len(roots)+len(r.server))
	for n, i := range roots {
		s := r.spans[i]
		root := build(i, s.start/1e3)
		traces = append(traces, &rtrace.TraceData{
			TraceID:     r.id + "." + strconv.Itoa(n),
			Name:        s.name,
			StartUnixUs: base + s.start/1e3,
			DurationUs:  root.EndUs,
			Status:      200,
			Attrs:       []rtrace.Attr{rtrace.Str("run", r.id)},
			Phases:      root.Children,
		})
	}
	traces = append(traces, r.server...)
	return rtrace.WriteChrome(w, traces...)
}
