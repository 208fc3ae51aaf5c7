package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/rtrace"
	"rats/internal/serve"
)

// passSize is the number of requests in one pass of the request list.
const passSize = 300

// request is one generated check request and the answer it must get.
type request struct {
	body    []byte
	src     string
	model   core.Model
	kind    string // catalog, fresh or solve
	legal   bool
	sc      map[string]bool // fresh programs only
	witness bool
}

// requestList builds pass number pass of the seeded request stream:
// about 60% renamed catalog programs (cache hits once warm), 25% fresh
// contended programs whose initial value makes each one unique (misses),
// 15% fresh programs in mode solve, and a witness request on some of the
// illegal catalog picks.
func requestList(seed int64, pass int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	suite := litmus.Suite()
	models := core.Models()
	out := make([]request, 0, passSize)
	for i := 0; i < passSize; i++ {
		var rq request
		var cr serve.CheckRequest
		x := rng.Float64()
		if x < 0.60 {
			tc := suite[rng.Intn(len(suite))]
			rq.model = models[rng.Intn(len(models))]
			rq.kind, rq.legal = "catalog", tc.Legal[rq.model]
			rq.src = litmus.Format(renamed(tc.Prog, rng))
			rq.witness = !rq.legal && rng.Intn(8) == 0
		} else {
			g := contended(rng, 2+rng.Intn(2), 1+rng.Intn(2), rng.Intn(2) == 0, int64(100+pass*passSize+i))
			rq.model = models[rng.Intn(len(models))]
			rq.kind, rq.legal, rq.sc = "fresh", g.legal, g.sc
			rq.src = litmus.Format(g.prog)
			if x >= 0.85 {
				rq.kind, cr.Mode = "solve", string(memmodel.ModeSolve)
			}
		}
		cr.Program, cr.Model, cr.Witness = rq.src, rq.model.String(), rq.witness
		rq.body, _ = json.Marshal(cr)
		out = append(out, rq)
	}
	return out
}

// warmList is the cache fill: every catalog program under every model
// and both modes, as written.
func warmList() []request {
	var out []request
	for _, tc := range litmus.Suite() {
		for _, m := range core.Models() {
			for _, mode := range []string{"", string(memmodel.ModeSolve)} {
				b, _ := json.Marshal(serve.CheckRequest{Program: litmus.Format(tc.Prog), Model: m.String(), Mode: mode})
				out = append(out, request{body: b, model: m, kind: "catalog", legal: tc.Legal[m]})
			}
		}
	}
	return out
}

// answerOK checks a response against the request's reference. A solve
// answer is not vouched for (README).
func answerOK(rq *request, status int, resp *serve.CheckResponse) bool {
	if status != http.StatusOK || resp.Legal != rq.legal {
		return false
	}
	if rq.witness && resp.Witness == "" {
		return false
	}
	if rq.sc != nil {
		got := map[string]bool{}
		for _, k := range resp.SCResults {
			got[k] = true
		}
		return sameSet(got, rq.sc)
	}
	return true
}

// syncBuffer collects the service's JSONL trace export.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) take() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]byte(nil), s.b.Bytes()...)
	s.b.Reset()
	return out
}

// server is an in-process service on a loopback listener.
type server struct {
	svc    *serve.Service
	http   *http.Server
	url    string
	client *http.Client
	traces *syncBuffer         // traced runs only
	checks *telemetry.Registry // traced runs only
	done   chan struct{}
}

func startServer(clients int, traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{done: make(chan struct{})}
	var opts serve.Options
	if traced {
		s.traces = &syncBuffer{}
		opts.Tracer = rtrace.New(rtrace.Options{Out: s.traces})
		opts.Registry = telemetry.NewRegistry()
		s.checks = opts.Registry
	}
	s.svc = serve.New(opts)
	s.http = &http.Server{Handler: s.svc.Handler()}
	s.url = "http://" + ln.Addr().String() + "/check"
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every pass has finished by now; a shutdown timeout would only mean
	// an idle connection lingered, which matters to no measurement.
	_ = s.http.Shutdown(ctx)
	<-s.done
}

// answer is one completed request as the client saw it.
type answer struct {
	ms      float64
	traceID string
	status  int
	resp    serve.CheckResponse
	err     error
}

func (s *server) do(rq *request) answer {
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return answer{err: err, ms: time.Since(t0).Seconds() * 1e3}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{ms: time.Since(t0).Seconds() * 1e3, status: resp.StatusCode, traceID: resp.Header.Get(serve.TraceHeader), err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		a.err = json.Unmarshal(body, &a.resp)
	}
	return a
}

// pass sends the requests from a closed loop of clients, each sending
// its next request once the previous answer arrived. before, when set,
// runs on the client ahead of each request.
func (s *server) pass(reqs []request, clients int, before func(rq *request)) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if before != nil {
					before(&reqs[i])
				}
				out[i] = s.do(&reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func runServe(r *run, t *tally) (map[string]float64, error) {
	clients := min(2, r.workers)
	// Set-up: start the service and fill its verdict cache with the
	// catalog, five times; the last server is the one measured.
	var srv *server
	setups, err := timeIt(5, func(int) error {
		if srv != nil {
			srv.close()
		}
		var err error
		if srv, err = startServer(clients, r.traced); err != nil {
			return err
		}
		warm := warmList()
		for i, a := range srv.pass(warm, clients, nil) {
			if a.err != nil || !answerOK(&warm[i], a.status, &a.resp) {
				return fmt.Errorf("cache fill: %s: status %d: %v", warm[i].body[:40], a.status, a.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.close()
	if srv.traces != nil {
		srv.traces.take() // drop the cache fill's traces
	}

	var hits, total int64
	plainPass := func(pass int, before func(rq *request)) (unitStats, []answer) {
		reqs := requestList(r.seed, pass)
		st0 := srv.svc.Stats()
		t0 := time.Now()
		ans := srv.pass(reqs, clients, before)
		u := unitStats{wall: time.Since(t0).Seconds(), ops: int64(len(reqs))}
		for i, a := range ans {
			rq := &reqs[i]
			u.latencies = append(u.latencies, a.ms)
			t.op(a.err == nil && answerOK(rq, a.status, &a.resp), rq.kind != "solve",
				fmt.Sprintf("%s request %d (%s): status %d: %v", rq.kind, i, rq.model, a.status, a.err))
		}
		st1 := srv.svc.Stats()
		hits += st1.CacheHits - st0.CacheHits
		total += st1.Requests - st0.Requests
		r.sampleHeap(reqs, ans)
		return u, ans
	}

	if !r.traced {
		units, err := r.measure(3, func(i int) (unitStats, error) {
			u, _ := plainPass(i, nil)
			return u, nil
		})
		if err != nil {
			return nil, err
		}
		r.notef("serve-mix: %d passes of %d requests, %d clients, cache hit share %.3f", len(units), passSize, clients, float64(hits)/float64(max(total, 1)))
		return endToEndValues(setups, units), nil
	}

	sl := &serveLayers{phases: map[string]*phaseSum{}}
	var plain, traced []unitStats
	_, err = r.measure(2, func(i int) (unitStats, error) {
		if i%2 == 0 {
			u, _ := plainPass(i, nil)
			srv.traces.take()
			plain = append(plain, u)
			return u, nil
		}
		st0, tot0 := srv.svc.Stats(), srv.checks.Totals()
		u, ans := plainPass(i, func(rq *request) { sl.clientLayers(r.rec, rq) })
		st1, tot1 := srv.svc.Stats(), srv.checks.Totals()
		sl.execs += tot1.Executions - tot0.Executions
		sl.transitions += tot1.Transitions - tot0.Transitions
		sl.skips += tot1.SleepSkips - tot0.SleepSkips
		sl.decisions += tot1.SolveDecisions - tot0.SolveDecisions
		sl.propagations += tot1.SolvePropagations - tot0.SolvePropagations
		sl.conflicts += tot1.SolveConflicts - tot0.SolveConflicts
		sl.learnt += tot1.SolveLearned - tot0.SolveLearned
		sl.shed += st1.Shed - st0.Shed
		sl.hits += st1.CacheHits - st0.CacheHits
		sl.requests += st1.Requests - st0.Requests
		if err := sl.serverLayers(r.rec, srv.traces.take(), ans); err != nil {
			return u, err
		}
		traced = append(traced, u)
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	out := sl.values(len(traced))
	out["memmodel.canon_allocs"] = canonAllocs(func() []string {
		var srcs []string
		for _, rq := range requestList(r.seed, 0) {
			srcs = append(srcs, rq.src)
		}
		return srcs
	}())
	overhead(plain, traced, out)
	return out, nil
}

type phaseSum struct {
	n  int
	us float64
}

// serveLayers accumulates the service layers over traced passes: the
// checker's front half timed on the client ahead of each request, and
// the service's own per-request phases read from its trace export.
type serveLayers struct {
	mu                              sync.Mutex
	parse, canon, static            time.Duration
	nClient                         int
	phases                          map[string]*phaseSum
	coalesced, shed, hits, requests int64
	// checker counters of the service's own checks, from its registry
	execs, transitions, skips                  int64
	decisions, propagations, conflicts, learnt int64
}

func (s *serveLayers) add(name string, us float64) {
	p := s.phases[name]
	if p == nil {
		p = &phaseSum{}
		s.phases[name] = p
	}
	p.n++
	p.us += us
}

// clientLayers times parse, canonicalize and the static tables on the
// request's program, the first steps the service takes on it.
func (s *serveLayers) clientLayers(rec *recorder, rq *request) {
	root := rec.begin("client.prepare", -1)
	defer rec.end(root)
	var p *litmus.Program
	var err error
	parse := rec.timed("litmus.parse", root, func() { p, err = litmus.Parse(rq.src) })
	if err != nil {
		return
	}
	var c *memmodel.Canonical
	canon := rec.timed("memmodel.canonicalize", root, func() { c, err = memmodel.Canonicalize(p) })
	if err != nil {
		return
	}
	static := rec.timed("memmodel.static", root, func() { memmodel.NewAnalyzer().Static(c.Prog.Under(rq.model)) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parse += parse
	s.canon += canon
	s.static += static
	s.nClient++
}

// serverLayers folds one pass's service traces into the phase sums and
// hands them to the recorder for the Chrome export.
func (s *serveLayers) serverLayers(rec *recorder, jsonl []byte, ans []answer) error {
	byID := map[string]*rtrace.TraceData{}
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		td := &rtrace.TraceData{}
		if err := json.Unmarshal(sc.Bytes(), td); err != nil {
			return fmt.Errorf("service trace export: %w", err)
		}
		byID[td.TraceID] = td
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range ans {
		if a.resp.Coalesced {
			s.coalesced++
		}
		td := byID[a.traceID]
		if td == nil {
			continue
		}
		rec.mu.Lock()
		if len(rec.server) < maxExportRoots {
			rec.server = append(rec.server, td)
		}
		rec.mu.Unlock()
		s.add("transport", a.ms*1e3-float64(td.DurationUs))
		var gates, flight float64
		var sawGates, sawFlight bool
		for _, ph := range td.Phases {
			d := float64(ph.EndUs - ph.StartUs)
			var queue float64
			for _, c := range ph.Children {
				if c.Name == "queue" {
					queue += float64(c.EndUs - c.StartUs)
				}
				if c.Name == "check" {
					for _, e := range c.Children {
						if e.Name == "enumerate" {
							s.add("enumerate", float64(e.EndUs-e.StartUs))
						}
					}
				}
			}
			switch ph.Name {
			case "gates":
				gates, sawGates = gates+d, true
			case "flight", "solve":
				flight, sawFlight = flight+d-queue, true
				gates, sawGates = gates+queue, true
				if ph.Name == "solve" {
					s.add("solve", d-queue)
				}
			case "witness":
				s.add("witness", d-queue)
				gates += queue
			default:
				s.add(ph.Name, d)
			}
		}
		if sawGates {
			s.add("gates", gates)
		}
		if sawFlight {
			s.add("flight", flight)
		}
	}
	return nil
}

func (s *serveLayers) values(units int) map[string]float64 {
	u := float64(max(units, 1))
	mean := func(name string) float64 {
		p := s.phases[name]
		if p == nil || p.n == 0 {
			return 0
		}
		return p.us / float64(p.n)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(max(s.nClient, 1)) }
	pruned := 0.0
	if s.skips+s.transitions > 0 {
		pruned = 100 * float64(s.skips) / float64(s.skips+s.transitions)
	}
	return map[string]float64{
		"memmodel.executions":   float64(s.execs) / u,
		"memmodel.transitions":  float64(s.transitions) / u,
		"memmodel.pruned_pct":   pruned,
		"solve.decisions":       float64(s.decisions) / u,
		"solve.propagations":    float64(s.propagations) / u,
		"solve.conflicts":       float64(s.conflicts) / u,
		"solve.learned":         float64(s.learnt) / u,
		"litmus.parse_us":       us(s.parse),
		"memmodel.canon_us":     us(s.canon),
		"memmodel.static_us":    us(s.static),
		"memmodel.enum_us":      mean("enumerate"),
		"solve.check_us":        mean("solve"),
		"serve.decode_us":       mean("decode"),
		"serve.validate_us":     mean("validate"),
		"serve.cache_us":        mean("cache"),
		"serve.serialize_us":    mean("serialize"),
		"serve.transport_us":    mean("transport"),
		"serve.gates_us":        mean("gates"),
		"serve.flight_us":       mean("flight"),
		"serve.witness_us":      mean("witness"),
		"serve.coalesced":       float64(s.coalesced) / u,
		"serve.shed":            float64(s.shed) / u,
		"serve.cache_hit_ratio": float64(s.hits) / float64(max(s.requests, 1)),
	}
}
