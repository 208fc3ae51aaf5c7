package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	format := func(gs []genCase) []string {
		var out []string
		for _, g := range gs {
			out = append(out, litmus.Format(g.prog))
		}
		return out
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		a, b := format(contendedFamily(seed)), format(contendedFamily(seed))
		if !equalStrings(a, b) {
			t.Errorf("seed %d: contended family differs between calls", seed)
		}
		ra, rb := requestList(seed, 3), requestList(seed, 3)
		for i := range ra {
			if !bytes.Equal(ra[i].body, rb[i].body) {
				t.Fatalf("seed %d: request %d differs between calls", seed, i)
			}
		}
		ca, err := newCheckList(seed)
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := newCheckList(seed)
		if !equalStrings(ca.srcs, cb.srcs) {
			t.Errorf("seed %d: check list differs between calls", seed)
		}
	}
	if equalStrings(format(contendedFamily(1)), format(contendedFamily(2))) {
		t.Error("seeds 1 and 2 generate the same family")
	}
}

// TestFamilyHasOperandTwins pins the shape the family exists for: two
// threads identical except for one operand.
func TestFamilyHasOperandTwins(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, g := range contendedFamily(seed) {
			a, b := g.prog.Threads[0].Ops, g.prog.Threads[1].Ops
			diff := 0
			for i := range a {
				if a[i].Operand.Const != b[i].Operand.Const {
					diff++
				}
				a[i].Operand, b[i].Operand = b[i].Operand, a[i].Operand
				if a[i].String() != b[i].String() {
					t.Fatalf("%s: threads 0 and 1 differ beyond operands", g.prog.Name)
				}
				a[i].Operand, b[i].Operand = b[i].Operand, a[i].Operand
			}
			if diff != 1 {
				t.Errorf("%s: threads 0 and 1 differ in %d operands", g.prog.Name, diff)
			}
		}
	}
}

// TestReferencesAgreeWithNaiveEnumeration checks the construction's
// verdicts and SC finals against naive (no partial-order reduction)
// enumeration on small instances.
func TestReferencesAgreeWithNaiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var gs []genCase
	for _, n := range []int{2, 3} {
		for _, m := range []int{1, 2} {
			for _, planted := range []bool{false, true} {
				gs = append(gs, contended(rng, n, m, planted, int64(n*10+m)))
			}
		}
	}
	gs = append(gs, contendedFamily(heldOutSeed)[:2]...)
	for _, g := range gs {
		for _, m := range core.Models() {
			an := memmodel.NewAnalyzer()
			legal, sc := true, map[string]bool{}
			_, err := memmodel.Enumerate(g.prog.Under(m), memmodel.EnumOptions{
				Quantum: true, Naive: true,
				Visit: func(ex *memmodel.Execution) error {
					if an.Analyze(ex).Illegal(m) {
						legal = false
					}
					sc[ex.ResultKey()] = true
					return nil
				},
			})
			if err != nil {
				t.Fatalf("%s %s: %v", g.prog.Name, m, err)
			}
			if legal != g.legal || !sameSet(sc, g.sc) {
				t.Errorf("%s %s: naive legal=%v sc=%v, construction legal=%v sc=%v", g.prog.Name, m, legal, sc, g.legal, g.sc)
			}
		}
	}
}

func TestRenamedCatalogKeepsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(defaultSeed))
	for _, tc := range litmus.Suite() {
		p, err := litmus.Parse(litmus.Format(renamed(tc.Prog, rng)))
		if err != nil {
			t.Fatalf("%s: renamed program does not parse: %v", tc.Prog.Name, err)
		}
		for _, m := range core.Models() {
			v, err := memmodel.CheckProgram(p, m)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.Prog.Name, m, err)
			}
			if v.Legal != tc.Legal[m] {
				t.Errorf("%s %s: renamed program legal=%v, suite says %v", tc.Prog.Name, m, v.Legal, tc.Legal[m])
			}
		}
	}
}

func TestRequestMix(t *testing.T) {
	kinds := map[string]int{}
	witness := 0
	for pass := 0; pass < 4; pass++ {
		for _, rq := range requestList(defaultSeed, pass) {
			kinds[rq.kind]++
			if rq.witness {
				witness++
				if rq.legal {
					t.Errorf("witness requested on a legal program")
				}
			}
		}
	}
	total := float64(4 * passSize)
	for kind, want := range map[string]float64{"catalog": 0.60, "fresh": 0.25, "solve": 0.15} {
		if got := float64(kinds[kind]) / total; got < want-0.05 || got > want+0.05 {
			t.Errorf("%s share %.2f, want about %.2f", kind, got, want)
		}
	}
	if witness == 0 {
		t.Error("no witness requests")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60}, // overlaps a
		{name: "a", parent: 1, start: 15, end: 20},
	}}
	lt := r.layerTimes()
	if got := lt["root"].own; got != 50 {
		t.Errorf("root self time %d, want 50", got)
	}
	if got := lt["a"]; got.n != 2 || got.total != 35 || got.own != 30 {
		t.Errorf("a: %+v, want n=2 total=35 own=30", got)
	}
	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome export does not parse: %v", err)
	}
}

// TestMetricNamesMatchBenchmarkJSON checks both directions: every metric
// the benchmark can report is declared in BENCHMARK.json with the same
// unit, and every declared metric is one the benchmark reports.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	table := func(list []struct{ name, unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.name] = m.unit
		}
		return out
	}
	same := func(what string, a, b map[string]string) {
		for k, u := range a {
			if b[k] != u {
				t.Errorf("%s: %s (%s) reported but declared as %q", what, k, u, b[k])
			}
		}
		for k := range b {
			if _, ok := a[k]; !ok {
				t.Errorf("%s: %s declared but never reported", what, k)
			}
		}
	}
	same("end_to_end", table(endToEnd), declared(bench.EndToEnd))
	same("per_layer", table(perLayer), declared(bench.PerLayer))

	// What the workloads compute must be exactly the declared tables.
	e2e := endToEndValues([]float64{1}, []unitStats{{wall: 1, ops: 1, latencies: []float64{1}}})
	e2e["live_heap_mb"] = 1
	layers := map[string]float64{"harness.worker_idle_s": 0, "memmodel.canon_allocs": 0}
	for _, m := range []map[string]float64{
		(&simLayers{}).values(1), (&checkLayers{}).values(1),
		(&serveLayers{phases: map[string]*phaseSum{}}).values(1),
	} {
		for k, v := range m {
			layers[k] = v
		}
	}
	overhead([]unitStats{{wall: 1}}, []unitStats{{wall: 1}}, layers)
	keys := func(m map[string]float64) map[string]string {
		out := map[string]string{}
		for k := range m {
			out[k] = table(append(endToEnd, perLayer...))[k]
		}
		return out
	}
	same("end_to_end values", keys(e2e), declared(bench.EndToEnd))
	same("per_layer values", keys(layers), declared(bench.PerLayer))

	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range benchWorkloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !equalStrings(names, ours) {
		t.Errorf("workloads %v declared, %v implemented", names, ours)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
