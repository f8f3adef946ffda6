package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/view"
)

func testGraph() *graph.Graph { return graph.Caterpillar(4, []int{2, 0, 1, 3}) }

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

func TestDigestsCoverPaperExperiments(t *testing.T) {
	d, err := parseDigests(paperDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range paperExperiments {
		if len(d[e]) != 64 {
			t.Errorf("no sha256 reference digest for %s", e)
		}
	}
	if _, err := parseDigests("E1 aa bb\n"); err == nil {
		t.Error("malformed digest line parsed")
	}
}

func TestAdversaryCounts(t *testing.T) {
	tb := &core.Table{
		Header: []string{"graph", "states", "mirrors"},
		Rows:   [][]string{{"a", "10", "2"}, {"b", "5", "0"}},
	}
	if s, m := adversaryCounts(tb); s != 15 || m != 2 {
		t.Errorf("adversaryCounts = %d, %d; want 15, 2", s, m)
	}
}

func TestRefineKernelMatchesView(t *testing.T) {
	for _, g := range []*graph.Graph{testGraph(), graph.Torus(4, 6), graph.Path(9)} {
		k := refineKernel(g)
		if want := view.StabilisationDepth(g); k.stableAt != want {
			t.Errorf("kernel stabilised at %d, view says %d", k.stableAt, want)
		}
		if k.nodeLevels != int64(g.N()*(k.stableAt+1)) || k.active > k.nodeLevels {
			t.Errorf("kernel counts %+v for n=%d", k, g.N())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"--workload", "nope"}, time.Now(), &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
