// Package rtrace is the service's request-lifecycle tracing layer: a
// lightweight always-on tracer that gives every request a random trace
// ID and a span tree whose top-level phases tile the request duration
// exactly — the same sum-to-duration-by-construction contract the probe
// layer's gap-attribution spans give simulator transactions, applied to
// the HTTP pipeline (decode, validate, cache, gates, flight, witness,
// serialize).
//
// The disabled mode is a nil *Tracer: Start returns a nil *Trace, every
// Trace and Span method is safe on a nil receiver and folds into one
// nil-check branch, so instrumented call sites cost nothing when nobody
// is tracing (the telemetry.Check idiom).
//
// Reconciliation by construction: Trace.Phase closes the current
// top-level phase at the moment it opens the next, the first phase
// starts at offset zero, and Finish closes the last phase at the trace's
// end — so the phases are contiguous, gap-free, and their durations sum
// to the request duration exactly, always. Free-form child spans
// (Span.Child) nest under phases for sub-steps and concurrent work —
// enumeration, merge, enumeration workers — and are clamped to the trace
// duration if still open at Finish.
//
// A finished trace is immutable. Spans recorded against a finished trace
// (a detached singleflight call outliving the request that led it) are
// dropped and counted, never raced.
package rtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"rats/internal/hist"
)

// Attr is one key/value annotation on a trace, span, or event.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{K: k, V: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr {
	return Attr{K: k, V: strconv.FormatInt(v, 10)}
}

// EventData is one point-in-time annotation within a span.
type EventData struct {
	Name  string `json:"name"`
	AtUs  int64  `json:"at_us"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// SpanData is one finished span of a trace: offsets are microseconds
// from the trace start.
type SpanData struct {
	Name     string      `json:"name"`
	StartUs  int64       `json:"start_us"`
	EndUs    int64       `json:"end_us"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Events   []EventData `json:"events,omitempty"`
	Children []SpanData  `json:"children,omitempty"`
}

// TraceData is one finished request trace — the JSONL export record,
// the /tracez payload, and the Chrome-export source. It is immutable
// once built, so snapshots share it freely.
type TraceData struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	// Start is the wall-clock start in RFC3339Nano UTC; StartUnixUs is
	// the same instant in integer microseconds for timeline math.
	Start       string `json:"start"`
	StartUnixUs int64  `json:"start_unix_us"`
	DurationUs  int64  `json:"duration_us"`
	Status      int    `json:"status"`
	Kind        string `json:"kind,omitempty"`
	// Truncated counts spans still open at Finish (clamped to the trace
	// end) plus spans dropped because they arrived after Finish.
	Truncated int        `json:"truncated_spans,omitempty"`
	Attrs     []Attr     `json:"attrs,omitempty"`
	Phases    []SpanData `json:"phases"`
}

// Options configures a Tracer. The zero value traces every request into
// a default-sized ring with no JSONL output.
type Options struct {
	// Now overrides the clock (deterministic tests and goldens).
	Now func() time.Time
	// NewID overrides trace-ID generation; the default is 8 random bytes
	// in hex.
	NewID func() string
	// RingSize bounds each of the /tracez ring's three views (recent,
	// errors, slowest); <= 0 means 64.
	RingSize int
	// Out, when non-nil, receives one JSON line per kept trace. Writes
	// are serialized by the tracer.
	Out io.Writer
	// Tail enables tail sampling of the JSONL output: 0 keeps every
	// trace; a quantile in (0, 1) — e.g. 0.999 — keeps every error trace
	// (status >= 400 or kind set) plus traces at or above that duration
	// quantile of everything seen so far, dropping the boring bulk. The
	// ring always sees every trace regardless.
	Tail float64
	// TailWarmup is how many initial traces are always kept while the
	// duration histogram fills; <= 0 means 32, negative disables.
	TailWarmup int
}

// Stats counts the tracer's lifetime activity.
type Stats struct {
	Started   int64 `json:"started"`
	Finished  int64 `json:"finished"`
	Active    int64 `json:"active"`
	Kept      int64 `json:"kept"`
	Sampled   int64 `json:"sampled_out"`
	LateSpans int64 `json:"late_spans"`
}

// Tracer mints and collects request traces. A nil *Tracer is the
// disabled mode: Start returns nil and everything downstream folds away.
type Tracer struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	active   int64
	started  int64
	finished int64
	kept     int64
	sampled  int64
	late     int64
	durs     hist.Histogram // finished-trace durations, microseconds
	ring     *ring
}

// New builds a Tracer.
func New(opts Options) *Tracer {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.NewID == nil {
		opts.NewID = randomID
	}
	size := opts.RingSize
	if size <= 0 {
		size = 64
	}
	if opts.TailWarmup == 0 {
		opts.TailWarmup = 32
	}
	t := &Tracer{opts: opts, ring: newRing(size)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed ID keeps the
		// service serving rather than panicking in the request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Start begins a trace (nil on a nil tracer).
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{t: t, id: t.opts.NewID(), name: name, start: t.opts.Now()}
	t.mu.Lock()
	t.started++
	t.active++
	t.mu.Unlock()
	return tr
}

// finish files a completed trace: ring, sampling decision, JSONL.
func (t *Tracer) finish(td *TraceData) {
	isErr := td.Status >= 400 || td.Kind != ""
	t.mu.Lock()
	t.finished++
	t.durs.Record(td.DurationUs)
	keep := t.opts.Tail <= 0 || isErr ||
		(t.opts.TailWarmup > 0 && t.finished <= int64(t.opts.TailWarmup)) ||
		td.DurationUs >= t.durs.Quantile(t.opts.Tail)
	t.ring.add(td, isErr)
	if t.opts.Out != nil {
		if keep {
			if b, err := json.Marshal(td); err == nil {
				t.opts.Out.Write(append(b, '\n'))
			}
			t.kept++
		} else {
			t.sampled++
		}
	} else if keep {
		t.kept++
	} else {
		t.sampled++
	}
	t.active--
	t.cond.Broadcast()
	t.mu.Unlock()
}

// noteLate counts a span or event recorded against a finished trace.
func (t *Tracer) noteLate() {
	t.mu.Lock()
	t.late++
	t.mu.Unlock()
}

// Stats snapshots the activity counters (zero value on nil).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Started: t.started, Finished: t.finished, Active: t.active,
		Kept: t.kept, Sampled: t.sampled, LateSpans: t.late,
	}
}

// Active returns the number of started-but-unfinished traces.
func (t *Tracer) Active() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// Snapshot returns the ring's current view plus the activity counters.
func (t *Tracer) Snapshot() RingSnapshot {
	if t == nil {
		return RingSnapshot{}
	}
	snap := t.ring.snapshot()
	snap.Stats = t.Stats()
	return snap
}

// Find returns a ring-resident trace by ID.
func (t *Tracer) Find(id string) (*TraceData, bool) {
	if t == nil {
		return nil, false
	}
	return t.ring.find(id)
}

// Shutdown waits until every started trace has finished (or ctx ends).
// It does not stop new traces from starting; the caller drains its
// request sources first.
func (t *Tracer) Shutdown(ctx context.Context) error {
	if t == nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		t.mu.Lock()
		for t.active > 0 {
			t.cond.Wait()
		}
		t.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Unblock the waiter goroutine eventually; it exits on the next
		// Broadcast from any finishing trace.
		return errShutdownTimeout
	}
}

// errShutdownTimeout reports traces still active when Shutdown's context
// ended.
var errShutdownTimeout = &shutdownTimeoutError{}

type shutdownTimeoutError struct{}

func (*shutdownTimeoutError) Error() string {
	return "rtrace: traces still active at shutdown deadline"
}

// Trace is one live request trace. All methods are nil-safe and
// goroutine-safe: the request handler advances phases while detached
// workers add child spans.
type Trace struct {
	t     *Tracer
	id    string
	name  string
	start time.Time

	mu     sync.Mutex
	done   bool
	status int
	kind   string
	attrs  []Attr
	phases []*Span
	data   *TraceData
}

// ID returns the trace ID ("" on nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// offUs is microseconds since the trace start, clamped non-negative.
// Callers hold tr.mu.
func (tr *Trace) offUs() int64 {
	us := tr.t.opts.Now().Sub(tr.start).Microseconds()
	if us < 0 {
		us = 0
	}
	return us
}

// SetAttr annotates the trace (last write per key wins at render time;
// attrs append in call order).
func (tr *Trace) SetAttr(k, v string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.done {
		tr.attrs = append(tr.attrs, Attr{K: k, V: v})
	}
	tr.mu.Unlock()
}

// SetInt annotates the trace with an integer attribute.
func (tr *Trace) SetInt(k string, v int64) { tr.SetAttr(k, strconv.FormatInt(v, 10)) }

// SetStatus records the response status and error kind Finish will file.
func (tr *Trace) SetStatus(status int, kind string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.done {
		tr.status = status
		tr.kind = kind
	}
	tr.mu.Unlock()
}

// Phase closes the current top-level phase and opens the next, returning
// its span. Phases tile the trace by construction: the first starts at
// offset zero, each subsequent one starts exactly where its predecessor
// ends, and Finish closes the last at the trace's total duration — so
// child-phase durations always sum to the request duration.
func (tr *Trace) Phase(name string) *Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		tr.t.noteLate()
		return nil
	}
	start := int64(0)
	if n := len(tr.phases); n > 0 {
		start = tr.offUs()
		if prev := tr.phases[n-1]; prev.endUs < 0 {
			prev.endUs = start
		} else if prev.endUs > start {
			// A clock went backwards between phases; keep the tiling.
			start = prev.endUs
		}
	}
	sp := &Span{tr: tr, name: name, startUs: start, endUs: -1}
	tr.phases = append(tr.phases, sp)
	return sp
}

// Finish closes the trace: the open tail phase ends at the trace
// duration, still-open child spans are clamped and counted as truncated,
// and the immutable TraceData is filed with the tracer (ring, sampler,
// JSONL) and returned. Only the first Finish takes effect; later calls
// return the same data.
func (tr *Trace) Finish() *TraceData {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	if tr.done {
		d := tr.data
		tr.mu.Unlock()
		return d
	}
	tr.done = true
	dur := tr.offUs()
	truncated := 0
	if n := len(tr.phases); n > 0 {
		if last := tr.phases[n-1]; last.endUs < 0 {
			last.endUs = dur
		} else if last.endUs != dur {
			// The final phase ended early (End called explicitly): extend
			// it so the tiling covers the full duration.
			last.endUs = dur
		}
	}
	td := &TraceData{
		TraceID:     tr.id,
		Name:        tr.name,
		Start:       tr.start.UTC().Format(time.RFC3339Nano),
		StartUnixUs: tr.start.UnixMicro(),
		DurationUs:  dur,
		Status:      tr.status,
		Kind:        tr.kind,
		Attrs:       tr.attrs,
	}
	td.Phases = make([]SpanData, len(tr.phases))
	for i, sp := range tr.phases {
		td.Phases[i] = sp.freeze(dur, &truncated)
	}
	td.Truncated = truncated
	tr.data = td
	tr.mu.Unlock()
	tr.t.finish(td)
	return td
}

// Span is one live span. Nil-safe; all mutation locks the owning trace.
type Span struct {
	tr       *Trace
	name     string
	startUs  int64
	endUs    int64 // -1 while open
	attrs    []Attr
	events   []EventData
	children []*Span
}

// freeze converts the span tree to immutable data, clamping open spans
// to the trace duration. Caller holds tr.mu.
func (s *Span) freeze(dur int64, truncated *int) SpanData {
	end := s.endUs
	if end < 0 {
		end = dur
		*truncated++
	}
	d := SpanData{
		Name: s.name, StartUs: s.startUs, EndUs: end,
		Attrs: s.attrs, Events: s.events,
	}
	if len(s.children) > 0 {
		d.Children = make([]SpanData, len(s.children))
		for i, c := range s.children {
			d.Children[i] = c.freeze(dur, truncated)
		}
	}
	return d
}

// TraceID returns the owning trace's ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Child opens a nested span. On a finished trace the span is dropped
// (counted as late) and nil is returned — detached work outliving its
// request records nothing rather than racing the export.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		tr.t.noteLate()
		return nil
	}
	c := &Span{tr: tr, name: name, startUs: tr.offUs(), endUs: -1}
	s.children = append(s.children, c)
	return c
}

// End closes the span at the current offset (idempotent).
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if !tr.done && s.endUs < 0 {
		s.endUs = tr.offUs()
		if s.endUs < s.startUs {
			s.endUs = s.startUs
		}
	}
	tr.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if !tr.done {
		s.attrs = append(s.attrs, Attr{K: k, V: v})
	}
	tr.mu.Unlock()
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(k string, v int64) { s.SetAttr(k, strconv.FormatInt(v, 10)) }

// Event records a point-in-time annotation on the span. On a finished
// trace the event is dropped and counted as late.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		tr.t.noteLate()
		return
	}
	s.events = append(s.events, EventData{Name: name, AtUs: tr.offUs(), Attrs: attrs})
	tr.mu.Unlock()
}
