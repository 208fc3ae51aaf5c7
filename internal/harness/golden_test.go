package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rats/internal/sim/system"
	"rats/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFiguresGolden pins the test-scale Figures 1, 3 and 4 with the
// Summary, byte for byte, plus a digest of every run's Stats. The
// simulator is deterministic, so any difference is a timing change in
// the model: a refactor or speed-up must leave both files untouched.
// Regenerate with `go test ./internal/harness -run FiguresGolden -update`
// only for an intended model change.
func TestFiguresGolden(t *testing.T) {
	const scale = workloads.Test
	fig1Res, err := sweep(figure1Runs(workloads.Figure1Apps()), scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig1, err := Figure1(scale)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := Figure3With(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Figure4With(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := RenderFigure1(fig1) + fig3.Render() + fig4.Render() + Summarize(fig3, fig4).Render()

	var lines []string
	add := func(fig, wl, cfg string, r *system.Result) {
		sum := sha256.Sum256([]byte(r.Stats.String()))
		lines = append(lines, fmt.Sprintf("%s %s/%s %x", fig, wl, cfg, sum[:8]))
	}
	for i, r := range figure1Runs(workloads.Figure1Apps()) {
		add("fig1", r.entry.Name, r.cfgName, fig1Res[i])
	}
	for _, f := range []struct {
		name string
		fig  *Figure
	}{{"fig3", fig3}, {"fig4", fig4}} {
		for wl, byCfg := range f.fig.Results {
			for cfg, r := range byCfg {
				add(f.name, wl, cfg, r)
			}
		}
	}
	sort.Strings(lines)
	stats := strings.Join(lines, "\n") + "\n"

	for _, g := range []struct{ file, got string }{
		{"figures_test_scale.golden", text},
		{"stats_test_scale.golden", stats},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s differs from the golden; got:\n%s", g.file, g.got)
		}
	}
}
